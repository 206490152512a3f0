"""usecb: microgrid load management with a thermal-mass comfort objective.

Library layers:

* :mod:`usecb.grid` -- admittance assembly, linear sensitivities, losses,
  radial flows.
* :mod:`usecb.thermal` -- building dynamics, comfort utility, the balanced
  profit and its convex objective.
* :mod:`usecb.feasible` -- power box and voltage band with Euclidean
  projection; the band is built once per scenario.
* :mod:`usecb.mirror` -- online projected SGD (mirror descent with the
  Euclidean potential), step sizing, regret accounting.
* :mod:`usecb.sim` -- scenarios, observation noise, closed-loop runs.
* :mod:`usecb.experiments` -- replication experiments (regret growth,
  scheme comparison).
* :mod:`usecb.cli` -- the ``usecb`` command.
"""

from .errors import (AssumptionError, ConfigError, FeasibilityError,
                     IngestionError, ModelError, ProjectionError, UsecbError)
from .feasible import FeasibleSet, VoltageBand, build_band, build_feasible
from .grid import (GridModel, Line, SensitivityBlocks, build_admittance,
                   compute_sensitivity, decompose_blocks, full_power_loss,
                   grid_intake, grounded_impedance, load_network_csv,
                   power_loss, radial_line_flows, voltage_approx)
from .mirror import (bregman_divergence, estimate_bounds, minimize_projected,
                     regret, run_online, step_size)
from .sim import (NoiseConfig, RunResult, Scenario, build_ieee37_scenario,
                  load_scenario, metrics, observe, run_scheme)
from .thermal import (BuildingParams, Quadratic, satisfaction, thermal_step,
                      usecb_profit)
from .timeseries import TimeSeries, load_timeseries

__version__ = "0.1.0"

__all__ = [
    "AssumptionError", "ConfigError", "FeasibilityError", "IngestionError",
    "ModelError", "ProjectionError", "UsecbError",
    "FeasibleSet", "VoltageBand", "build_band", "build_feasible",
    "GridModel", "Line", "SensitivityBlocks", "build_admittance",
    "compute_sensitivity", "decompose_blocks", "full_power_loss",
    "grid_intake", "grounded_impedance", "load_network_csv", "power_loss",
    "radial_line_flows", "voltage_approx",
    "bregman_divergence", "estimate_bounds", "minimize_projected", "regret",
    "run_online", "step_size",
    "NoiseConfig", "RunResult", "Scenario", "build_ieee37_scenario",
    "load_scenario", "metrics", "observe", "run_scheme",
    "BuildingParams", "Quadratic", "satisfaction", "thermal_step",
    "usecb_profit",
    "TimeSeries", "load_timeseries",
    "__version__",
]
