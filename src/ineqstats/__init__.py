"""Statistical mechanics of inequality.

Kinetic money-exchange simulation relaxing to the Boltzmann-Gibbs
distribution, stationary income diffusion with additive and
multiplicative components, the two-class income fitting pipeline, and
population-weighted energy-consumption analytics (CDF, Lorenz, Gini).
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .distributions import (TwoClassModel, LevelQuadrature, LorenzCurve,
                            lorenz_exponential, lorenz_two_class,
                            sample_lorenz_curve, tail_fraction, class_boundary)
from .energy import (CountryRecord, DropReport, SlopeProfile, ingest_wri,
                     per_capita_kw, weighted_cdf, slope_profile)
from .errors import (IneqStatsError, DomainError, InsufficientDataError,
                     NoIntersectionError, SingularDiffusionError,
                     ConfigurationError, MalformedCurveError,
                     DegenerateCurveError, FormatError, EmptyJoinError)
from .fokker_planck import (DriftDiffusionSpec, GridDistribution, make_grid,
                            stationary_solution, evolve_transient,
                            delta_r2_diagnostic)
from .income import (IncomeBinTable, FitReport, TemperatureFit, ParetoFit,
                     fit_temperature, fit_pareto_exponent, refine_parameters,
                     fit_report, sample_income_table)
from .kinetic import (AgentEnsemble, ExchangeRule, BinnedHistogram, CycleSpec,
                      FluxReport, SimulationConfig, CoupledConfig, Trajectory,
                      init_ensemble, run_simulation, run_from_config, entropy,
                      temperature_and_potential, couple_systems,
                      cycle_profit_and_rate, RULE_FIXED, RULE_UNIFORM)
from .weighted import WeightedCDF

# Importing the submodules binds them here too (``io`` among them, which a
# star import would let shadow the stdlib module); export only the API.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
