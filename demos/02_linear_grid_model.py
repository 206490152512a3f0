"""The linearized network model on the bundled 37-bus feeder.

Builds the admittance matrix from the line CSV, derives the sensitivity
matrices, checks their defining identities, and shows how bus voltages and
losses respond to load.
"""

import numpy as np

from usecb import (build_ieee37_scenario, compute_sensitivity, grid_intake,
                   power_loss)

scn = build_ieee37_scenario()
model = scn.model
n = model.n_buses
blocks = model.blocks

print(f"feeder: {n} buses, PCC = {scn.bus_label(0)}, "
      f"generation at {[scn.bus_label(b) for b in model.gen_buses]}")

X_full = compute_sensitivity(model.Y)
ident = model.Y @ X_full - (np.eye(n) - np.ones((n, n)) / n)
print(f"bordered-inverse identity residual: {np.max(np.abs(ident)):.2e}")
print(f"row-sum residual of X:              "
      f"{np.max(np.abs(X_full @ np.ones(n))):.2e}")

# Voltage profile: noon generation, every AC at half power.
p_g = np.full(3, 0.9)          # 9 MW per site on the 10 MVA base
p_c = np.full(scn.n_loads, 0.06)
v = model.bus_voltages(p_g, p_c, scn.p_fixed)
print()
print("voltage magnitudes under a sunny-noon operating point (per-unit):")
print(f"  min {v.min():.4f} at bus {scn.bus_label(int(np.argmin(v)))}, "
      f"max {v.max():.4f} at bus {scn.bus_label(int(np.argmax(v)))}")

cons = p_c + scn.p_fixed
loss = power_loss(blocks.M, blocks.N, blocks.Q, p_g, cons)
intake = grid_intake(p_g, cons, loss)
print(f"  line losses {loss*scn.s_base_mva*1000:.0f} kW, "
      f"grid intake {intake*scn.s_base_mva:.2f} MW")

# Losses are quadratic in the line flows, so they dip where local
# consumption best matches local generation and grow on either side.
print()
print("loss vs uniform AC power (minimum near local balance):")
for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
    p = np.full(scn.n_loads, 0.12 * frac)
    loss = power_loss(blocks.M, blocks.N, blocks.Q, p_g, p + scn.p_fixed)
    print(f"  AC at {frac:4.0%}: {loss*10_000:.1f} kW")
