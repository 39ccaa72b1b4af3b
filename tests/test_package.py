import types

import ineqstats
from ineqstats import (GridDistribution, LorenzCurve, TwoClassModel,
                       WeightedCDF, distributions, energy)


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
        (TwoClassModel, ("sample",)),
    ]
    left = [f"{owner.__name__}.{name}" for owner, names in removed
            for name in names if hasattr(owner, name)]
    assert left == []
