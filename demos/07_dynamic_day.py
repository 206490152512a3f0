"""A 12-hour closed-loop day on the 37-bus feeder.

900 slots of 48 s from 06:00: PV rises and falls, outdoor temperature
peaks mid-afternoon, and the controller holds building temperatures near
their set points while local generation displaces grid intake.
"""

import numpy as np

from usecb import build_ieee37_scenario, metrics, run_scheme

scn = build_ieee37_scenario(variant="dynamic")
run = run_scheme(scn, "stochastic")

hours = 6.0 + np.arange(scn.horizon) * scn.dt / 3600.0
print(f"{'time':>6} {'PV MW':>7} {'out F':>6} {'mean in F':>9} "
      f"{'AC MW':>7} {'intake MW':>10} {'loss kW':>8}")
for t in range(0, scn.horizon, 75):
    print(f"{hours[t]:6.1f} {scn.p_g_true[t].sum()*10:7.1f} "
          f"{scn.c_out_true[t]:6.1f} {run.c_in_after[t].mean():9.2f} "
          f"{run.p_c[t].sum()*10:7.2f} {run.p_0[t]*10:10.2f} "
          f"{run.loss[t]*10_000:8.1f}")

m = metrics(run)
print()
print(f"mean |temp - set point|: {m['mean_temp_deviation']:.2f} F")
print(f"total intake: {m['intake_total']*10*scn.dt/3600:.1f} MWh, "
      f"total losses: {m['loss_total']*10*scn.dt/3600:.2f} MWh")
print(f"every applied control feasible: {m['all_feasible']}")
