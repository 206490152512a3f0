"""Euclidean projection onto the control constraint set.

The set is the AC power box cut by the affine voltage band. Box-only
projections are a clamp; when a band row binds, a projected Newton method
on the dual (one multiplier per band row) finds the exact projection.
"""

import numpy as np

from usecb import FeasibleSet

# A 2-D toy: box [0,1]^2 with the half-space x0 + x1 <= 1.
fs = FeasibleSet(p_min=[0.0, 0.0], p_max=[1.0, 1.0],
                 A_volt=np.array([[1.0, 1.0]]), offset=np.array([0.0]),
                 v_min=-np.inf, v_max=1.0)

points = [(2.0, -3.0), (1.0, 1.0), (0.2, 0.3), (0.9, 0.8)]
print("projections onto box [0,1]^2 cut by x0 + x1 <= 1:")
for x in points:
    p = fs.project(np.array(x))
    print(f"  {x} -> ({p[0]:.4f}, {p[1]:.4f})")

# The projection is firmly non-expansive: distances never grow.
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(2000):
    a, b = rng.normal(scale=2.0, size=(2, 2))
    worst = max(worst, np.linalg.norm(fs.project(a) - fs.project(b))
                - np.linalg.norm(a - b))
print(f"\nmax distance growth over 2000 random pairs: {worst:.2e} "
      "(never positive)")
