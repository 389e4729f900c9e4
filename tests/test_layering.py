"""Layer boundaries, enforced with the stdlib ``ast`` — no lint deps.

Three contracts (the first mirrored in ``pyproject.toml``'s
import-linter config, which CI additionally runs on a runner that has
the tool installed):

1. **Import layering** — lower layers must not import higher ones, even
   lazily inside functions.  In particular ``repro.core`` (and the other
   kernel layers) may never reach into ``sim``/``experiments``/``cli``/
   ``runtime``.
2. **Recorder ownership** — the process-wide tracer / telemetry sink /
   profiler / metrics registry / placement ledger slots may be mutated
   (``install_recorder`` / ``uninstall_recorder`` / ``scoped_recorder``,
   or a direct ``slot.recorder = ...``) only by
   ``repro/utils/recorders.py`` and ``repro/runtime/``.  Everything else
   must go through :class:`repro.runtime.context.RunContext`.
3. **No unused imports** — every name a non-``__init__`` module imports
   is used in it (a name listed in ``__all__`` or quoted in a string
   annotation counts as used).  CI's ruff tier selects only the
   ``E9``/``F63``/``F7``/``F82`` error classes, which do not flag these.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Set, Tuple

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")

#: layer -> layers it must NOT import (directly or lazily)
FORBIDDEN_IMPORTS: Dict[str, Set[str]] = {
    "utils": {
        "core", "algorithms", "workload", "network", "sim",
        "experiments", "cli", "runtime", "conformance", "analysis",
        "distributed", "io", "obs",
    },
    "obs": {
        "core", "algorithms", "workload", "network", "sim",
        "experiments", "cli", "runtime", "conformance", "analysis",
        "distributed", "io",
    },
    "core": {
        "sim", "experiments", "cli", "runtime", "conformance",
        "analysis", "algorithms", "io", "distributed",
    },
    "network": {
        "sim", "experiments", "cli", "runtime", "conformance",
        "analysis", "algorithms", "io", "distributed",
    },
    "workload": {
        "sim", "experiments", "cli", "runtime", "conformance",
        "analysis", "algorithms", "io", "distributed",
    },
    "algorithms": {
        "sim", "experiments", "cli", "runtime", "conformance",
        "analysis", "io", "distributed",
    },
    "analysis": {"experiments", "cli", "runtime", "conformance", "io"},
    "sim": {"experiments", "cli", "conformance", "io", "analysis"},
    "distributed": {
        "experiments", "cli", "conformance", "io", "analysis", "runtime",
    },
    "runtime": {"cli", "conformance", "experiments", "analysis", "io"},
}

#: the only process-wide recorder mutators, all defined in MUTATOR_MODULE
MUTATORS: Set[str] = {"install_recorder", "uninstall_recorder", "scoped_recorder"}
MUTATOR_MODULE = "utils/recorders.py"


def _modules() -> Iterator[Tuple[str, str, ast.AST]]:
    """Yield ``(relative_path, top_segment, parsed_tree)`` over src/repro."""
    for dirpath, _dirnames, filenames in sorted(os.walk(SRC)):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, SRC)
            parts = rel.split(os.sep)
            segment = (
                parts[0][: -len(".py")] if len(parts) == 1 else parts[0]
            )
            with open(path, "r", encoding="utf-8") as fp:
                tree = ast.parse(fp.read(), filename=rel)
            yield rel, segment, tree


def _imported_repro_segments(tree: ast.AST) -> Set[str]:
    segments: Set[str] = set()
    for node in ast.walk(tree):
        names: List[str] = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                names = [node.module]
        for name in names:
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                segments.add(parts[1])
    return segments


def test_no_layer_imports_upward():
    violations = []
    for rel, segment, tree in _modules():
        forbidden = FORBIDDEN_IMPORTS.get(segment)
        if not forbidden:
            continue
        bad = _imported_repro_segments(tree) & forbidden
        if bad:
            violations.append(f"{rel} imports repro.{{{', '.join(sorted(bad))}}}")
    assert not violations, (
        "layering violations (lower layers importing upward):\n  "
        + "\n  ".join(violations)
    )


def _mutations(tree: ast.AST) -> Set[str]:
    """Mutator calls (by name or attribute) and ``*.recorder =`` writes."""
    found: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in MUTATORS:
                found.add(f"{name}()")
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(
                isinstance(t, ast.Attribute) and t.attr == "recorder"
                for t in targets
            ):
                found.add(".recorder =")
    return found


def _mutation_violations(rel: str, segment: str, tree: ast.AST) -> List[str]:
    if segment == "runtime" or rel.replace(os.sep, "/") == MUTATOR_MODULE:
        return []  # the one legitimate owner, and the mutators themselves
    return [f"{rel} uses {what}" for what in sorted(_mutations(tree))]


def test_only_runtime_mutates_global_singletons():
    violations = []
    for rel, segment, tree in _modules():
        violations.extend(_mutation_violations(rel, segment, tree))
    assert not violations, (
        "recorder-slot mutations outside repro/runtime/:\n  "
        + "\n  ".join(violations)
    )


def test_recorder_mutation_outside_runtime_is_flagged():
    """The AST walk still catches every form of slot mutation."""
    snippet = ast.parse(
        "from repro.utils import recorders\n"
        "from repro.utils.recorders import install_recorder\n"
        "install_recorder(TRACER, Tracer)\n"
        "with recorders.scoped_recorder(LEDGER, PlacementLedger()):\n"
        "    pass\n"
        "TRACER.recorder = None\n"
    )
    assert _mutation_violations("sim/protocol.py", "sim", snippet) == [
        "sim/protocol.py uses .recorder =",
        "sim/protocol.py uses install_recorder()",
        "sim/protocol.py uses scoped_recorder()",
    ]
    assert _mutation_violations("runtime/context.py", "runtime", snippet) == []
    assert _mutation_violations(MUTATOR_MODULE, "utils", snippet) == []


def test_contracts_cover_every_package():
    """New top-level packages must take a position in the layer map."""
    segments = {segment for _rel, segment, _tree in _modules()}
    known = set(FORBIDDEN_IMPORTS) | {
        # deliberately unconstrained: entry points and leaf helpers
        "cli", "conformance", "experiments", "io",
        "errors", "version", "__init__", "py",
    }
    unknown = segments - known
    assert not unknown, (
        f"packages missing from the layering contract: {sorted(unknown)}; "
        f"add them to FORBIDDEN_IMPORTS (or the known-leaf list) in "
        f"tests/test_layering.py and pyproject.toml's import-linter config"
    )


def _string_annotation_names(tree: ast.AST) -> Set[str]:
    """Names inside quoted annotations such as ``Optional["Tracer"]``."""
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names: Set[str] = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(
                    n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
                )
    return names


def _unused_imports(tree: ast.AST) -> List[str]:
    """Imported names that nothing in the module reads or re-exports."""
    imported: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _string_annotation_names(tree)
    for node in getattr(tree, "body", []):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used
    ]


def test_no_unused_imports():
    violations = []
    for rel, _segment, tree in _modules():
        if os.path.basename(rel) == "__init__.py":
            continue  # package namespaces import in order to re-export
        violations.extend(f"{rel} {what}" for what in _unused_imports(tree))
    assert not violations, (
        "imported names that are never used:\n  " + "\n  ".join(violations)
    )


def test_unused_import_scan_catches_each_form():
    """The walk flags unused bindings and honours the three kinds of use."""
    snippet = ast.parse(
        "import os.path\n"
        "import json as js\n"
        "from typing import Dict, List, Optional, TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.utils.tracing import Tracer\n"
        "from repro.errors import ValidationError\n"
        "def f(t: Optional['Tracer']) -> List[int]:\n"
        "    return os.getcwd()\n"
        "__all__ = ['ValidationError']\n"
    )
    assert _unused_imports(snippet) == ["line 2: js", "line 3: Dict"]
