"""Anatomy of the per-slot objective for a single building.

The comfort term pulls the AC toward whatever power lands the predicted
temperature on the set point; the energy price pulls toward zero. The
balanced profit is maximized exactly where the convex quadratic f is
minimized.
"""

import numpy as np

from usecb import (BuildingParams, Quadratic, SensitivityBlocks, thermal_step,
                   usecb_profit)

blocks = SensitivityBlocks(
    Z_red=np.zeros((1, 1), dtype=complex), M=np.zeros((0, 0)),
    N=np.zeros((0, 1)), Q=np.zeros((1, 1)), gen_buses=(), load_buses=(1,))

bp = BuildingParams(alpha1=1e-4, alpha2=0.1736, beta=0.25, c_set=[72.0], dt=48.0)
c_in, c_out = np.array([73.0]), np.array([95.0])   # indoor, outdoor
p_g = np.zeros(0)                                   # no generators
quad = Quadratic(1.0, bp, blocks, p_fixed=np.zeros(1))
b = quad.linear_term(c_in, c_out, p_g)              # this slot's linear term

print("one building, indoor 73 F, outdoor 95 F, set point 72 F")
print(f"{'AC power':>9} {'next temp':>10} {'profit':>9} {'objective f':>12}")
for p in np.linspace(0.0, 1.2, 7):
    p_c = np.array([p / 10.0])                      # per-unit on 10 MVA
    nxt = thermal_step(c_in, c_out, p_c, bp)[0]
    pi = usecb_profit(c_in, c_out, p_c, quad, p_g)
    f = quad.value(p_c, b)
    print(f"{p:7.1f} MW {nxt:9.2f} F {pi:9.3f} {f:12.3f}")

grid = np.linspace(0.0, 0.12, 1201)
f_vals = [quad.value(np.array([g]), b) for g in grid]
pi_vals = [usecb_profit(c_in, c_out, [g], quad, p_g) for g in grid]
best_f = grid[int(np.argmin(f_vals))]
best_pi = grid[int(np.argmax(pi_vals))]
print()
print(f"argmin f  = {best_f*10:.3f} MW")
print(f"argmax pi = {best_pi*10:.3f} MW   (same point: maximizing profit "
      "is minimizing f)")
