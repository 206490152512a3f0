"""Golden summaries of the stochastic scheme on the bundled IEEE-37 configs.

The values were recorded from ``metrics(run_scheme(scn, "stochastic"))`` at
horizon 120 and pin its behaviour to rounding: a refactor that is meant to
keep the stochastic scheme's arithmetic must keep them.  A change that alters
the noise stream or the step rule on purpose regenerates them; it does not
loosen the tolerance.
"""

import pytest

from usecb.sim import build_ieee37_scenario, metrics, run_scheme

GOLDEN = {
    "static": ({"horizon": 120}, "static", {
        "seed": 42,
        "loss_total": 5.173334904665069,
        "loss_mean": 0.04311112420554224,
        "intake_total": 390.54630135863346,
        "intake_mean": 3.2545525113219456,
        "objective_mean": -45.26173112337462,
        "objective_final": -45.32810907487402,
        "objective_trailing_variance": 0.0005397322343683176,
        "mean_temp_deviation": 4.9965127765372745,
    }),
    "dynamic": ({"horizon": 120}, "dynamic", {
        "seed": 43,
        "loss_total": 1.3359770704411762,
        "loss_mean": 0.011133142253676469,
        "intake_total": 170.97404270308922,
        "intake_mean": 1.4247836891924102,
        "objective_mean": 0.24306722264517766,
        "objective_final": 0.11655324032299536,
        "objective_trailing_variance": 0.005684933613270183,
        "mean_temp_deviation": 0.9473883187459518,
    }),
    # The band binds on this day, so the dual Newton projection runs.
    "dynamic_v_min_0.975": (
        {"horizon": 120, "voltage_band": {"v_min": 0.975}}, "dynamic", {
            "seed": 43,
            "loss_total": 1.335634454758046,
            "loss_mean": 0.011130287122983718,
            "intake_total": 170.96543309558297,
            "intake_mean": 1.4247119424631913,
            "objective_mean": 0.24259221428753633,
            "objective_final": 0.11655322741835847,
            "objective_trailing_variance": 0.005685110810168875,
            "mean_temp_deviation": 0.9471773524397364,
        }),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stochastic_summary_matches_golden(case):
    overrides, variant, expected = GOLDEN[case]
    m = metrics(run_scheme(build_ieee37_scenario(overrides, variant=variant),
                           "stochastic"))
    assert m["scheme"] == "stochastic"
    assert m["slots"] == 120
    assert m["all_feasible"] is True
    assert m["conservation_max_residual"] == 0.0
    for key, value in expected.items():
        assert m[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
