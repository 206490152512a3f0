"""Golden summaries of every scheme and experiment on the bundled IEEE-37
configs.

The scheme values were recorded from ``metrics(run_scheme(scn, scheme))``
at horizon 120 and pin its behaviour to rounding: a refactor that is meant
to keep a scheme's arithmetic must keep them.  The experiment values pin
the online run, the regret accounting and the step-rule bounds the same
way.  The exact and oracle schemes
project hundreds of times per slot, so they pin the constraint set most
tightly.  A change that alters the noise stream or the step rule on purpose
regenerates them; it does not loosen the tolerance.
"""

import pytest

from usecb.experiments import run_regret_experiment, run_static_comparison
from usecb.sim import build_ieee37_scenario, md_bounds, metrics, run_scheme

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


# Exact and oracle summaries on the dynamic day, with the band loose and
# binding (the dynamic overrides of ``GOLDEN`` above).
GOLDEN_SOLVED = {
    ("dynamic", "exact"): {
        "seed": 43,
        "loss_total": 1.6343617066566445,
        "loss_mean": 0.01361968088880537,
        "intake_total": 200.47994593046587,
        "intake_mean": 1.6706662160872157,
        "objective_mean": 2.3579939529966762,
        "objective_final": 5.143761608983067,
        "objective_trailing_variance": 1.916787775835986,
        "mean_temp_deviation": 1.6150485468451214,
    },
    ("dynamic", "oracle"): {
        "seed": 43,
        "loss_total": 1.1084356486265454,
        "loss_mean": 0.009236963738554545,
        "intake_total": 158.41013006453613,
        "intake_mean": 1.3200844172044677,
        "objective_mean": -0.3460552849041802,
        "objective_final": -0.011276509381846824,
        "objective_trailing_variance": 4.310605814196497e-06,
        "mean_temp_deviation": 0.6330707711077642,
    },
    ("dynamic_v_min_0.975", "exact"): {
        "seed": 43,
        "loss_total": 1.6219346147129143,
        "loss_mean": 0.013516121789274286,
        "intake_total": 200.29757770728665,
        "intake_mean": 1.6691464808940555,
        "objective_mean": 2.356910846592205,
        "objective_final": 5.143761608983067,
        "objective_trailing_variance": 1.917035716081705,
        "mean_temp_deviation": 1.6130647593498544,
    },
    ("dynamic_v_min_0.975", "oracle"): {
        "seed": 43,
        "loss_total": 1.081130462936638,
        "loss_mean": 0.009009420524471984,
        "intake_total": 157.89524487112655,
        "intake_mean": 1.315793707259388,
        "objective_mean": -0.34059496326792665,
        "objective_final": -0.011276509484849031,
        "objective_trailing_variance": 4.310834424145281e-06,
        "mean_temp_deviation": 0.627579096055568,
    },
}


def _check(m, scheme, expected):
    assert m["scheme"] == scheme
    assert m["slots"] == 120
    assert m["all_feasible"] is True
    assert m["conservation_max_residual"] == 0.0
    for key, value in expected.items():
        assert m[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_stochastic_summary_matches_golden(case):
    overrides, variant, expected = GOLDEN[case]
    m = metrics(run_scheme(build_ieee37_scenario(overrides, variant=variant),
                           "stochastic"))
    _check(m, "stochastic", expected)


@pytest.mark.parametrize("case, scheme", sorted(GOLDEN_SOLVED))
def test_solver_summary_matches_golden(case, scheme):
    overrides, variant, _ = GOLDEN[case]
    m = metrics(run_scheme(build_ieee37_scenario(overrides, variant=variant),
                           scheme))
    _check(m, scheme, GOLDEN_SOLVED[case, scheme])


# ``run_regret_experiment`` on ``ieee37_regret`` (horizons 50/200/800, three
# replications, base seed 9), ``run_static_comparison`` on ``ieee37_static``
# (three replications, base seed 8, window 50) and ``md_bounds`` on the
# dynamic day at horizon 200 with run seed 5.
GOLDEN_REGRET = {
    "horizons": [50, 200, 800],
    "replications": 3,
    "base_seed": 9,
    "D": 0.4874423042781576,
    "G_star": 26.34352600670925,
    "alpha": 1.0,
    "f_star": -2.601714604931549,
    "slope": 0.5011045426756393,
    "per_horizon": {
        "50": {"mean_regret": 12.909429383937793,
               "std_regret": 0.7799221909184141,
               "tail_frequency": 0.0,
               "tail_bound": 0.7788007830714049,
               "envelope": 181.5984425714941},
        "200": {"mean_regret": 26.481772277941946,
                "std_regret": 0.6611448673951864,
                "tail_frequency": 0.0,
                "tail_bound": 0.7788007830714049,
                "envelope": 363.1968851429882},
        "800": {"mean_regret": 51.796097470875026,
                "std_regret": 2.207991409426029,
                "tail_frequency": 0.0,
                "tail_bound": 0.7788007830714049,
                "envelope": 726.3937702859764},
    },
    "max_tail_frequency": 0.0,
}

GOLDEN_COMPARISON = {
    "replications": 3,
    "base_seed": 8,
    "f_star": -45.36635806614709,
    "tolerance": 0.45366358066147094,
    "converged_fraction": 1.0,
    "variance_lower_fraction": 1.0,
    "all_feasible": True,
    "stochastic_trailing_variance_mean": 6.936305910685e-05,
    "exact_trailing_variance_mean": 0.6362028736885096,
}

GOLDEN_MD_BOUNDS = (0.4874423042781576, 92.15844325532665)


def _check_report(report, expected, path="report"):
    """Same keys; floats to rel 1e-12, everything else exactly."""
    assert sorted(report) == sorted(expected), path
    for key, value in expected.items():
        got = report[key]
        if isinstance(value, dict):
            _check_report(got, value, f"{path}.{key}")
        elif isinstance(value, float):
            assert got == pytest.approx(value, rel=1e-12, abs=0.0), f"{path}.{key}"
        else:
            assert got == value, f"{path}.{key}"


def test_regret_experiment_matches_golden():
    report = run_regret_experiment(build_ieee37_scenario(variant="regret"),
                                   horizons=(50, 200, 800), replications=3,
                                   base_seed=9)
    _check_report(report, GOLDEN_REGRET)


def test_static_comparison_matches_golden():
    report = run_static_comparison(build_ieee37_scenario(), replications=3,
                                   base_seed=8, window=50)
    _check_report(report, GOLDEN_COMPARISON)


def test_md_bounds_matches_golden():
    scn = build_ieee37_scenario({"horizon": 200}, variant="dynamic")
    D, g_star = md_bounds(scn, 5)
    assert (D, g_star) == pytest.approx(GOLDEN_MD_BOUNDS, rel=1e-12, abs=0.0)
