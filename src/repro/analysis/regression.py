"""The machine fingerprint stamped on benchmark results.

``python -m bench`` records it next to every run so a comparison across
different machines is visible as such: a laptop-vs-CI delta measures
the hardware, not the code.
"""

from __future__ import annotations

import os
import platform
from typing import Dict

import numpy as np


def machine_info() -> Dict[str, object]:
    """A fingerprint of the machine the numbers were produced on."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count() or 0,
    }


__all__ = ["machine_info"]
