"""Cold-start import discipline of the ``repro`` entry points.

Each check runs in a fresh interpreter and inspects ``sys.modules``, so
it guards which modules a start-up loads rather than how long it takes:
``cli.py`` binds at module level only what every subcommand needs, heavy
third-party imports (``scipy``) happen at their call site, and the
package root resolves its public names lazily.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: module prefixes a bare ``import repro.cli`` must not load
HEAVY = (
    "scipy",
    "repro.analysis",
    "repro.sim",
    "repro.distributed",
    "repro.experiments",
    "repro.conformance",
)


def _run(code: str, cwd: Path) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON document."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd, env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loaded(prefixes) -> str:
    return (
        "[m for m in sorted(sys.modules) if any("
        f"m == p or m.startswith(p + '.') for p in {tuple(prefixes)!r})]"
    )


def test_import_cli_loads_no_heavy_modules(tmp_path):
    loaded = _run(
        "import json, sys\n"
        "import repro.cli\n"
        f"print(json.dumps({_loaded(HEAVY)}))\n",
        tmp_path,
    )
    assert loaded == []


def test_solve_loads_no_scipy(tmp_path):
    from repro.io import save_instance
    from repro.workload import WorkloadSpec, generate_instance

    instance = generate_instance(WorkloadSpec(10, 20), rng=7)
    inst = save_instance(instance, tmp_path / "inst.json")
    out = tmp_path / "scheme.json"
    result = _run(
        "import contextlib, io, json, sys\n"
        "import repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = repro.cli.main(['solve', {str(inst)!r}, '--algorithm',"
        f" 'sra', '--save-scheme', {str(out)!r}])\n"
        f"print(json.dumps({{'rc': rc, 'loaded': {_loaded(['scipy'])}}}))\n",
        tmp_path,
    )
    assert result == {"rc": 0, "loaded": []}
    assert out.exists()


def test_lazy_package_root_resolves_every_export(tmp_path):
    result = _run(
        "import importlib, json, sys\n"
        "import repro\n"
        "same = all(\n"
        "    getattr(repro, n) is getattr(\n"
        "        importlib.import_module(repro._EXPORTS[n]), n)\n"
        "    for n in repro.__all__ if n != '__version__')\n"
        "try:\n"
        "    repro.no_such_name\n"
        "    unknown = 'resolved'\n"
        "except AttributeError:\n"
        "    unknown = 'AttributeError'\n"
        "print(json.dumps({'same': same,\n"
        "    'exports': sorted(set(repro.__all__) - {'__version__'}),\n"
        "    'table': sorted(repro._EXPORTS),\n"
        "    'missing_from_dir': sorted(set(repro.__all__) - set(dir(repro))),\n"
        "    'unknown': unknown}))\n",
        tmp_path,
    )
    assert result["same"] is True
    assert result["exports"] == result["table"]
    assert result["missing_from_dir"] == []
    assert result["unknown"] == "AttributeError"


def test_star_import_binds_every_export(tmp_path):
    result = _run(
        "import json, sys\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "import repro\n"
        "print(json.dumps(sorted(n for n in repro.__all__\n"
        "    if namespace.get(n) is not getattr(repro, n))))\n",
        tmp_path,
    )
    assert result == []
