"""What importing citysim loads, what each command loads on first use, and
which assignment solver the engine binds.

The engine loads scipy's solver from its own extension module,
scipy.optimize._lsap, not through the scipy.optimize package. Each test runs
in a fresh interpreter, since this one has imported scipy already, and the
child prints one JSON line last."""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
LSAP = "scipy.optimize._lsap"
# A golden case whose every round solves an assignment.
NOISY = "matching-comparison+noisy"

# scipy packages no command but `citysim analyze` needs.
HEAVY = ("scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.spatial", "scipy.stats")
# Modules only some commands need, each imported by the code that uses it.
ON_USE = (
    "yaml", "concurrent.futures", "multiprocessing", "csv", "citysim.analysis",
    "citysim.equilibrium",
)

BUDGET = f"""
import json, sys, tempfile
from dataclasses import replace
from pathlib import Path

import citysim, citysim.cli
from citysim.engine import init_population, run, write_run_outputs
from citysim.presets import get_preset

def loaded():
    return sorted(name for name in {HEAVY + ON_USE!r} if name in sys.modules)

config = get_preset("locality-grid-10x10").config
init_population(config)
out = {{"import": loaded(), "mode": config.matching.mode.value}}
config = replace(config, max_time=40.0)
log = run(config)
out.update(births=int(log.births[1:].sum()))
with tempfile.TemporaryDirectory() as tmp:
    write_run_outputs(log, config, Path(tmp), 0.0)
    out.update(run=loaded())
    scenario_file = Path(tmp, "s.yaml")
    scenario_file.write_text("seed: 3\\npopulation: [{{count: 8, mean: {{}}}}]\\nmax_time: 4\\n")
    small = citysim.load_scenario(scenario_file).config
    out.update(load=loaded())
    members = citysim.cli._run_many([small, replace(small, seed=4)], 2)
    out.update(pool=loaded(), pooled=[m.status for m in members])
    argv = ["analyze", "--input", f"{{tmp}}/population_final.csv", "--out", f"{{tmp}}/ana"]
    out.update(exit=citysim.cli.main(argv), analyze=loaded())
    out.update(audit=citysim.cli.main(["equilibria", "--out", f"{{tmp}}/eq"]), equilibria=loaded())
out.update(served=citysim.kmeans is citysim.analysis.kmeans)
print(json.dumps(out))
"""

# Records every extension module the import machinery creates from here on.
SPY = """
import json, sys
from importlib.machinery import ExtensionFileLoader

made = []
_create = ExtensionFileLoader.create_module

def create_module(self, spec):
    made.append(spec.name)
    return _create(self, spec)

ExtensionFileLoader.create_module = create_module
"""


def _child(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(HERE.parent / "src"), str(HERE))))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_run_leave_heavy_scipy_unloaded():
    # A command pays for every module it imports before it does any work:
    # scipy.optimize's package import alone took most of citysim's start-up,
    # and YAML, the process pool, analysis and equilibrium a sixth of it.
    out = _child(BUDGET)
    assert out["import"] == [] and out["mode"] == "locality"
    # The locality rounds paired through the solver, and loaded nothing more.
    assert out["births"] > 0 and out["run"] == []
    assert out["load"] == ["yaml"]
    assert {"concurrent.futures", "multiprocessing"} <= set(out["pool"]) and len(out["pooled"]) == 2
    assert "citysim.analysis" not in out["pool"]
    assert out["exit"] == 0 and {"citysim.analysis", "scipy.spatial"} <= set(out["analyze"])
    assert "citysim.equilibrium" not in out["analyze"]
    assert out["audit"] == 0 and "citysim.equilibrium" in out["equilibria"]
    assert out["served"]


def test_scipy_optimize_imported_later_gets_the_same_solver():
    out = _child(
        SPY
        + """
import citysim.engine as engine
before = "scipy.optimize" in sys.modules
import scipy.optimize
same = scipy.optimize.linear_sum_assignment is engine.linear_sum_assignment
print(json.dumps({"before": before, "same": same, "made": made}))
"""
    )
    assert not out["before"] and out["same"]
    assert out["made"].count(LSAP) == 1


def test_engine_reuses_a_registered_solver_module():
    out = _child(
        "import scipy.optimize\n"
        + SPY
        + """
module = sys.modules["scipy.optimize._lsap"]
import citysim.engine as engine
same = engine.linear_sum_assignment is scipy.optimize.linear_sum_assignment
kept = sys.modules["scipy.optimize._lsap"] is module
print(json.dumps({"same": same, "kept": kept, "made": made}))
"""
    )
    assert out["same"] and out["kept"] and LSAP not in out["made"]


def test_hidden_extension_falls_back_to_the_public_import():
    # With no extension suffix to look for, the engine finds no _lsap of its
    # own and imports scipy.optimize, whose import finds _lsap as usual.
    out = _child(
        f"""
import json, sys, tempfile
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

EXTENSION_SUFFIXES.clear()
import citysim.engine as engine
public = sys.modules.get("scipy.optimize")
same = public is not None and engine.linear_sum_assignment is public.linear_sum_assignment
from test_golden import CASES, digests
with tempfile.TemporaryDirectory() as tmp:
    print(json.dumps({{"same": same, "digests": digests(CASES[{NOISY!r}], Path(tmp))}}))
"""
    )
    golden = json.loads((HERE / "golden" / "digests.json").read_text())[NOISY]
    assert out["same"] and out["digests"] == golden
