import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import ineqstats
from conftest import WRI_FIXTURE
from ineqstats import (CoupledConfig, DriftDiffusionSpec, GridDistribution,
                       IncomeBinTable, LorenzCurve, SimulationConfig, Trajectory,
                       TwoClassModel, WeightedCDF, cli, distributions, energy,
                       fokker_planck, income, io, kinetic)


def test_star_import_binds_no_submodule():
    modules = [name for name in ineqstats.__all__
               if isinstance(getattr(ineqstats, name), types.ModuleType)]
    assert modules == []
    namespace = {}
    exec("from ineqstats import *", namespace)
    assert "io" not in namespace   # would shadow the stdlib module


def test_removed_aliases_are_gone():
    removed = [
        (distributions, ("two_class_pdf", "two_class_cdf", "gini_from_curve")),
        (energy, ("world_average", "lorenz_energy", "_sorted_by_consumption")),
        (ineqstats, ("two_class_pdf", "two_class_cdf", "gini_from_curve",
                     "world_average", "lorenz_energy")),
        (LorenzCurve, ("points",)),
        (GridDistribution, ("interp", "rows")),
        (WeightedCDF, ("total_weight", "rows")),
        (TwoClassModel, ("sample", "to_json", "from_json")),
        (IncomeBinTable, ("mean_income", "lorenz")),
        (fokker_planck, ("alpha_from_coefficients",)),
        (ineqstats, ("alpha_from_coefficients",)),
        (SimulationConfig, ("from_json", "resolved_delta", "to_json")),
        (CoupledConfig, ("from_json",)),
        (DriftDiffusionSpec, ("from_json",)),
        (cli, ("_reject_unread", "_config_echo")),
        (kinetic, ("exchange_step",)),
        (io, ("load_config", "format_cell")),
        (Trajectory, ("rows",)),
        (income, ("empirical_cdf_income", "fit_crossover", "CrossoverFit")),
        (kinetic, ("multiplicity_exact",)),
        (ineqstats, ("exchange_step", "empirical_cdf_income", "fit_crossover",
                     "CrossoverFit", "multiplicity_exact")),
    ]
    left = [f"{owner.__name__}.{name}" for owner, names in removed
            for name in names if hasattr(owner, name)]
    assert left == []
    # ``seed`` takes a Generator too, so ``rng`` would be a second way in
    for fn in (kinetic.run_simulation, kinetic.couple_systems):
        assert "rng" not in inspect.signature(fn).parameters


# Imports the package, checks that this loaded every module in it, and
# runs one tiny job per subcommand (the energy job on the WRI fixture pair
# named by argv) in a fresh interpreter, then prints on its last line
# every top-level module that this loaded.
_RUNTIME_SCRIPT = """
import sys
before = set(sys.modules)
import pkgutil
import numpy as np
import ineqstats, ineqstats.cli
unloaded = [m.name for m in pkgutil.iter_modules(ineqstats.__path__)
            if "ineqstats." + m.name not in sys.modules]
assert unloaded == [], f"modules no runtime import reaches: {unloaded}"
from ineqstats import TwoClassModel, sample_income_table
from ineqstats.cli import dispatch
table = sample_income_table(TwoClassModel(48.0, 1.34, 113.0), 10_000,
                            np.random.default_rng(1))
with open("income.csv", "w") as fh:
    fh.write("level_kusd,returns_in_bin\\n")
    fh.writelines(f"{l!r},{c}\\n" for l, c in zip(table.levels.tolist(), table.counts.tolist()))
runs = [
    ["simulate", "--agents", "10", "--money", "100", "--steps", "100", "--seed", "1"],
    ["fp", "--kind", "additive", "--a0", "1", "--b0", "40", "--points-per-decade", "10"],
    ["fit-income", "--input", "income.csv", "--mode", "in-bin"],
    ["energy", "--energy", sys.argv[1], "--population", sys.argv[2],
     "--year", "2005", "--per-capita"],
]
for k, argv in enumerate(runs):
    assert dispatch(argv + ["--out", f"out{k}"]) == 0, argv
print(" ".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_runtime_needs_only_numpy_and_the_stdlib(tmp_path):
    # the test extras (scipy, hypothesis) are installed wherever this runs,
    # so a stray import of one would pass every other test; and a module
    # that only tests use belongs under tests/, not in the package
    src = str(Path(ineqstats.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _RUNTIME_SCRIPT, *map(str, WRI_FIXTURE)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.splitlines()[-1].split()
    assert "numpy" in loaded and "ineqstats" in loaded
    # numpy's compiled extensions register the Cython runtime's modules
    allowed = set(sys.stdlib_module_names) | {"numpy", "ineqstats", "cython_runtime"}
    assert [name for name in loaded
            if name not in allowed and not name.startswith("_cython_")] == []
