"""Golden summaries of every scheme and experiment on the bundled IEEE-37
configs.

The scheme values were recorded from ``metrics(run_scheme(scn, scheme))``
at horizon 120 and pin its behaviour to rounding: a refactor that is meant
to keep a scheme's arithmetic must keep them.  The experiment values pin
the online run, the regret accounting and the step-rule bounds the same
way.  The exact and oracle schemes
project several times per slot, so they pin the constraint set most
tightly.  A change that alters the noise stream or the step rule on purpose
regenerates them; it does not loosen the tolerance.  The exact and oracle
values (and the comparison's ``exact_trailing_variance_mean``) were
re-recorded when the per-slot solver moved to the diag(H2) metric: they
moved at its 1e-8 stopping tolerance.

The noisy values (stochastic, exact, regret, comparison, ``md_bounds``)
were recorded under noise version 2 (``usecb.sim.NOISE_VERSION``: reading
k of a run is row k of one standard-normal sequence per (seed, stream)).
The oracle values read at zero noise and did not move with it.  Running
``PYTHONPATH=src python tests/test_golden.py`` prints every pinned value
as the current code computes it.
"""

import pytest

from usecb.experiments import run_regret_experiment, run_static_comparison
from usecb.sim import build_ieee37_scenario, md_bounds, metrics, run_scheme

GOLDEN = {
    "static": ({"horizon": 120}, "static", {
        "seed": 42,
        "loss_total": 5.224874116336828,
        "loss_mean": 0.043540617636140234,
        "intake_total": 392.0776257296002,
        "intake_mean": 3.267313547746668,
        "objective_mean": -45.152502956736285,
        "objective_final": -45.30209066140789,
        "objective_trailing_variance": 0.000782329904361685,
        "mean_temp_deviation": 4.9965127765372745,
    }),
    "dynamic": ({"horizon": 120}, "dynamic", {
        "seed": 43,
        "loss_total": 1.3736275167073486,
        "loss_mean": 0.011446895972561238,
        "intake_total": 172.12436526349757,
        "intake_mean": 1.4343697105291464,
        "objective_mean": 0.24941244350631678,
        "objective_final": 0.20593604218735773,
        "objective_trailing_variance": 0.005248143125368789,
        "mean_temp_deviation": 0.9563955710405515,
    }),
    # The band binds on this day, so the dual Newton projection runs.
    "dynamic_v_min_0.975": (
        {"horizon": 120, "voltage_band": {"v_min": 0.975}}, "dynamic", {
            "seed": 43,
            "loss_total": 1.3269655410998873,
            "loss_mean": 0.011058046175832394,
            "intake_total": 171.0817670165717,
            "intake_mean": 1.4256813918047642,
            "objective_mean": 0.20926326608241397,
            "objective_final": 0.20593640388999848,
            "objective_trailing_variance": 0.005214420584978687,
            "mean_temp_deviation": 0.934790740090496,
        }),
}


# Exact and oracle summaries on the dynamic day, with the band loose and
# binding (the dynamic overrides of ``GOLDEN`` above).
GOLDEN_SOLVED = {
    ("dynamic", "exact"): {
        "seed": 43,
        "loss_total": 1.6456126069646357,
        "loss_mean": 0.013713438391371964,
        "intake_total": 201.15631847777024,
        "intake_mean": 1.6763026539814188,
        "objective_mean": 2.3766518521541142,
        "objective_final": 1.3882734048821197,
        "objective_trailing_variance": 2.2619152440256105,
        "mean_temp_deviation": 1.6174950635050949,
    },
    ("dynamic", "oracle"): {
        "seed": 43,
        "loss_total": 1.1084356498639167,
        "loss_mean": 0.009236963748865974,
        "intake_total": 158.41013010206984,
        "intake_mean": 1.3200844175172486,
        "objective_mean": -0.3460552848326829,
        "objective_final": -0.011276507694791181,
        "objective_trailing_variance": 4.310604539656947e-06,
        "mean_temp_deviation": 0.6330707709018077,
    },
    ("dynamic_v_min_0.975", "exact"): {
        "seed": 43,
        "loss_total": 1.6228760566326124,
        "loss_mean": 0.013523967138605103,
        "intake_total": 200.83750293961066,
        "intake_mean": 1.6736458578300888,
        "objective_mean": 2.374366967771813,
        "objective_final": 1.3882734048821197,
        "objective_trailing_variance": 2.261250468554076,
        "mean_temp_deviation": 1.6140354065059248,
    },
    ("dynamic_v_min_0.975", "oracle"): {
        "seed": 43,
        "loss_total": 1.0811304614670074,
        "loss_mean": 0.009009420512225062,
        "intake_total": 157.89524484649567,
        "intake_mean": 1.3157937070541306,
        "objective_mean": -0.34059496315831933,
        "objective_final": -0.011276507814734948,
        "objective_trailing_variance": 4.310833151272656e-06,
        "mean_temp_deviation": 0.6275790951256581,
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
    "G_star": 27.879681248391744,
    "alpha": 1.0,
    "f_star": -2.601714604931549,
    "slope": 0.4954021340102842,
    "per_horizon": {
        "50": {"mean_regret": 11.846213195840784,
               "std_regret": 0.6828902645940976,
               "tail_frequency": 0.0,
               "tail_bound": 0.7788007830714049,
               "envelope": 192.1878905962775},
        "200": {"mean_regret": 23.570351679229987,
                "std_regret": 0.9013456730460816,
                "tail_frequency": 0.0,
                "tail_bound": 0.7788007830714049,
                "envelope": 384.375781192555},
        "800": {"mean_regret": 46.78462506560513,
                "std_regret": 0.8350790274616278,
                "tail_frequency": 0.0,
                "tail_bound": 0.7788007830714049,
                "envelope": 768.75156238511},
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
    "stochastic_trailing_variance_mean": 4.335435890161417e-05,
    "exact_trailing_variance_mean": 0.5494288938537322,
}

GOLDEN_MD_BOUNDS = (0.4874423042781576, 88.27961881608363)

# ``md_bounds`` with run seed 3 on the whole dynamic day with both noise
# sigmas at 0.  Its probes read the same 8 slots across the day as a noisy
# scenario's, at zero noise; G* was 59.55 when a noise-free scenario
# sampled the true slot-0 gradient only.
QUIET_DYNAMIC = {"noise": {"sigma_temp": 0.0, "sigma_gen": 0.0}}
GOLDEN_MD_BOUNDS_QUIET = (0.4874423042781576, 98.32365191436476)


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


def test_noise_free_md_bounds_matches_golden():
    scn = build_ieee37_scenario(QUIET_DYNAMIC, variant="dynamic")
    assert md_bounds(scn, 3) == pytest.approx(GOLDEN_MD_BOUNDS_QUIET,
                                              rel=1e-12, abs=0.0)


def _current_values():
    """Every pinned value recomputed by the current code, keyed as above."""
    def pinned(m, keys):
        return {k: m[k] for k in keys}

    out = {}
    for case, (overrides, variant, expected) in sorted(GOLDEN.items()):
        scn = build_ieee37_scenario(overrides, variant=variant)
        out["GOLDEN", case] = pinned(metrics(run_scheme(scn, "stochastic")),
                                     expected)
    for (case, scheme), expected in sorted(GOLDEN_SOLVED.items()):
        overrides, variant, _ = GOLDEN[case]
        scn = build_ieee37_scenario(overrides, variant=variant)
        out["GOLDEN_SOLVED", case, scheme] = pinned(
            metrics(run_scheme(scn, scheme)), expected)
    out["GOLDEN_REGRET"] = run_regret_experiment(
        build_ieee37_scenario(variant="regret"), horizons=(50, 200, 800),
        replications=3, base_seed=9)
    out["GOLDEN_COMPARISON"] = run_static_comparison(
        build_ieee37_scenario(), replications=3, base_seed=8, window=50)
    out["GOLDEN_MD_BOUNDS"] = tuple(float(v) for v in md_bounds(
        build_ieee37_scenario({"horizon": 200}, variant="dynamic"), 5))
    out["GOLDEN_MD_BOUNDS_QUIET"] = tuple(float(v) for v in md_bounds(
        build_ieee37_scenario(QUIET_DYNAMIC, variant="dynamic"), 3))
    return out


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_golden.py
    import pprint

    for name, value in _current_values().items():
        print(name)
        pprint.pprint(value, sort_dicts=False)
