import inspect
import types

import ineqstats
from ineqstats import (CoupledConfig, DriftDiffusionSpec, GridDistribution,
                       IncomeBinTable, LorenzCurve, SimulationConfig, TwoClassModel,
                       WeightedCDF, cli, distributions, energy, fokker_planck,
                       income, io, kinetic)


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
        (GridDistribution, ("interp",)),
        (WeightedCDF, ("total_weight",)),
        (TwoClassModel, ("sample", "to_json", "from_json")),
        (IncomeBinTable, ("mean_income", "lorenz")),
        (fokker_planck, ("alpha_from_coefficients",)),
        (ineqstats, ("alpha_from_coefficients",)),
        (SimulationConfig, ("from_json", "resolved_delta", "to_json")),
        (CoupledConfig, ("from_json",)),
        (DriftDiffusionSpec, ("from_json",)),
        (cli, ("_reject_unread", "_config_echo")),
        (kinetic, ("exchange_step",)),
        (io, ("load_config",)),
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
