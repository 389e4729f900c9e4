"""One slot per process-wide recorder, and the only three ways to fill it.

The tracer, metrics registry, telemetry sink, profiler and placement
ledger each live in one :class:`Slot`.  A recorder module exposes the
bound :meth:`Slot.current` as its read accessor (``current_tracer =
TRACER.current``), so the disabled path is one call returning a shared
stand-in.  Only :mod:`repro.runtime` may call the three mutators below
(``tests/test_layering.py`` enforces it).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Generic, Iterator, Optional, TypeVar

R = TypeVar("R")


class Slot(Generic[R]):
    """A named process-wide recorder slot with a disabled stand-in."""

    __slots__ = ("name", "recorder", "_disabled")

    def __init__(self, name: str, disabled: R) -> None:
        self.name = name
        self.recorder: Optional[R] = None
        self._disabled = disabled

    def current(self) -> R:
        """The installed recorder, else the shared disabled stand-in."""
        recorder = self.recorder
        return self._disabled if recorder is None else recorder


def install_recorder(slot: Slot[R], make: Callable[[], R]) -> R:
    """Fill ``slot`` with ``make()``; idempotent (returns what is there)."""
    if slot.recorder is None:
        slot.recorder = make()
    return slot.recorder


def uninstall_recorder(slot: Slot[R]) -> None:
    """Empty ``slot``; its accessor falls back to the disabled stand-in."""
    slot.recorder = None


@contextmanager
def scoped_recorder(slot: Slot[R], recorder: R) -> Iterator[R]:
    """Install ``recorder`` for a block; the previous one (or none) comes
    back on exit, also when the body raises."""
    previous = slot.recorder
    slot.recorder = recorder
    try:
        yield recorder
    finally:
        slot.recorder = previous


__all__ = ["Slot", "install_recorder", "scoped_recorder", "uninstall_recorder"]
