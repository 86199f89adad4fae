"""The citysim names that the benchmark hooks into still exist.

perfbench/tracer.py rebinds citysim names to timing wrappers, and
perfbench/child.py imports and calls others. When one of them is renamed
or removed, the benchmark still runs and only lists it among its absent
spans. These tests read both files by AST and require each such name to
resolve."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Names either file is known to use, so a walk that finds too little fails.
KNOWN = {
    *(
        f"citysim.engine.{name}"
        for name in (
            "rank_pair_indices", "expected_pair_weights", "grid_distances",
            "linear_sum_assignment", "born_batch", "init_population", "write_population_csv",
            "named_stream", "TimeSeriesLog.write_csv", "TimeSeriesLog.write_grid_csv",
            "write_run_outputs",
        )
    ),
    *(
        f"citysim.cli.{name}"
        for name in ("simulate_scenario", "compare_matching", "_run_many", "run", "write_run_outputs")
    ),
    "citysim.matching.MatchMode",
    "citysim.matching.rank_pair_indices",
    "citysim.presets.get_preset",
}


def _dotted(node: ast.expr) -> str | None:
    """"engine.TimeSeriesLog" for the expression engine.TimeSeriesLog."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def tracer_hooks() -> set[str]:
    """The ENGINE_SPANS keys, which the tracer rebinds on citysim.engine, and
    every name passed to _rebind or hasattr as (cli or engine, "name")."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    hooks = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _dotted(node.targets[0]) == "ENGINE_SPANS":
            hooks |= {f"citysim.engine.{key.value}" for key in node.value.keys}
        elif isinstance(node, ast.Call) and _dotted(node.func) in ("self._rebind", "hasattr"):
            owner, attr = node.args[:2]
            if isinstance(attr, ast.Constant):
                hooks.add(f"citysim.{_dotted(owner)}.{attr.value}")
    return hooks


def child_hooks() -> set[str]:
    """Every name child.py imports from citysim, and every attribute it
    reads of a citysim module it imports."""
    tree = ast.parse((PERFBENCH / "child.py").read_text(encoding="utf-8"))
    hooks, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("citysim"):
            for alias in node.names:
                path = f"{node.module}.{alias.name}"
                hooks.add(path)
                modules[alias.asname or alias.name] = path
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                hooks.add(f"{modules[node.value.id]}.{node.attr}")
    return hooks


def resolves(path: str) -> bool:
    """Whether the dotted path names a citysim module or an attribute."""
    obj = importlib.import_module("citysim")
    for part in path.split(".")[1:]:
        if not hasattr(obj, part):
            try:
                importlib.import_module(f"{obj.__name__}.{part}")
            except (AttributeError, ModuleNotFoundError):
                return False
        obj = getattr(obj, part)
    return True


def test_the_walk_finds_every_known_hook():
    assert KNOWN <= tracer_hooks() | child_hooks()


def test_every_hook_still_exists():
    missing = sorted(p for p in tracer_hooks() | child_hooks() if not resolves(p))
    assert not missing, f"perfbench uses names citysim no longer has: {missing}"
