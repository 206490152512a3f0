"""Stationary-objective experiment: one mirror-descent step per slot vs a
full re-solve on the same noisy observations.

The frozen scenario makes every slot the same optimization problem, so the
oracle optimum is a fixed target. The single-step controller filters the
observation noise through its shrinking step sizes and settles; the exact
scheme chases each slot's noisy data and keeps jumping.
"""

import numpy as np

from usecb import build_ieee37_scenario, run_scheme
from usecb.experiments import static_problem

scn = build_ieee37_scenario({"horizon": 400})
_, f_star = static_problem(scn)
print(f"oracle optimum of the frozen objective: {f_star:.3f}")

runs = {scheme: run_scheme(scn, scheme) for scheme in ("stochastic", "exact")}
print()
print(f"{'slot':>6} {'stochastic':>12} {'exact':>12}")
for t in (0, 1, 2, 5, 10, 25, 50, 100, 200, 399):
    print(f"{t:6d} {runs['stochastic'].f_true[t]:12.3f} "
          f"{runs['exact'].f_true[t]:12.3f}")

print()
for scheme, run in runs.items():
    tail = run.f_true[-100:]
    gap = abs(run.f_true[-1] - f_star) / abs(f_star)
    print(f"{scheme:>10}: final gap {gap:.2%} of |f*|, "
          f"trailing-100 variance {np.var(tail):.3e}")
