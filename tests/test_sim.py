import copy
import dataclasses
import itertools
import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from usecb import experiments, mirror, sim
from usecb.errors import (ConfigError, FeasibilityError, ModelError,
                          ProjectionError)
from usecb.mirror import run_online, step_size
from usecb.sim import (NoiseConfig, build_ieee37_scenario, data_path,
                       load_scenario, metrics, observe, run_scheme)

from conftest import same_bits

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def static_scenario():
    return build_ieee37_scenario()


@pytest.fixture(scope="module")
def quiet_static():
    return build_ieee37_scenario(
        {"noise": {"sigma_temp": 0.0, "sigma_gen": 0.0}})


@pytest.fixture(scope="module")
def dynamic_scenario():
    return build_ieee37_scenario({"horizon": 200}, variant="dynamic")


# --- observation noise -------------------------------------------------------

def _normals(seed, shape, stream=0):
    return sim.noise_streams(seed)[stream].standard_normal(shape)


def test_observe_zero_sigma_identity():
    vals = np.array([1.0, -2.0, 3.5])
    assert np.array_equal(observe(vals, 0.0, _normals(42, 3)), vals)


def test_observe_deterministic_per_seed_slot():
    vals = np.linspace(0, 1, 8)
    a = observe(vals, 0.5, _normals(99, 8, stream=2))
    b = observe(vals, 0.5, _normals(99, 8, stream=2))
    assert np.array_equal(a, b)
    c = observe(vals, 0.5, _normals(98, 8, stream=2))
    assert not np.array_equal(a, c)
    d = observe(vals, 0.5, _normals(99, 8, stream=1))
    assert not np.array_equal(a, d)


def test_observe_mean_near_truth():
    vals = np.full(100_000, 7.0)
    sigma = 2.0
    out = observe(vals, sigma, _normals(123, vals.shape))
    assert abs(out.mean() - 7.0) < 4.0 * sigma / np.sqrt(vals.size)


def _generation_reading(p_g_true, sigma_gen, seed):
    """The generation one ``read_slots`` reading of a one-slot stand-in
    scenario with true generation ``p_g_true`` sees."""
    scn = SimpleNamespace(n_loads=1, p_g_true=np.array([p_g_true], dtype=float),
                          c_out_true=np.zeros(1))
    return sim.read_slots(scn, NoiseConfig(sigma_gen=sigma_gen), [0],
                          sim.noise_streams(seed))[0][0]


def test_read_slots_generation_noise_scales_with_value():
    out = _generation_reading([0.0, 10.0], 0.3, 7)
    assert out[0] == 0.0
    assert out[1] != 10.0


def test_read_slots_generation_floored_at_zero():
    out = _generation_reading(np.full(1000, 0.01), 1.0, 11)
    assert np.min(out) >= 0.0
    assert np.any(out == 0.0)


def test_noise_rows_drawn_one_at_a_time_equal_a_block(dynamic_scenario):
    noise = dynamic_scenario.noise
    slots = np.arange(0, dynamic_scenario.horizon, 7)
    block = sim.read_slots(dynamic_scenario, noise, slots, sim.noise_streams(5))
    streams = sim.noise_streams(5)
    rows = [sim.read_slots(dynamic_scenario, noise, [slot], streams)
            for slot in slots]
    for k, part in enumerate(block):
        assert np.array_equal(part, np.concatenate([row[k] for row in rows]))
    assert not np.array_equal(block[0], dynamic_scenario.p_g_true[slots])
    # The outdoor readings add their noise to one broadcast column, the
    # bits of reading a repeated copy of it.
    shape = (slots.size, dynamic_scenario.n_loads)
    repeated = np.repeat(dynamic_scenario.c_out_true[slots, None], shape[1], axis=1)
    want = observe(repeated, noise.sigma_temp, _normals(5, shape, stream=1))
    assert np.array_equal(block[1], want)
    assert block[1].shape == shape and block[1].flags.c_contiguous


def test_noise_generators_do_not_grow_with_the_horizon(monkeypatch):
    """A noisy run seeds a fixed number of generators, whatever its length
    (the regret job's lengths span several oracle blocks)."""
    made = []
    for name in ("SeedSequence", "default_rng"):
        real = getattr(sim.np.random, name)

        def counted(*args, _real=real, **kwargs):
            made.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(sim.np.random, name, counted)

    def count(fn):
        made.clear()
        fn()
        return len(made)

    for scheme in sim.SCHEMES:
        short, long = (count(lambda h=h: run_scheme(build_ieee37_scenario(
            {"horizon": h}), scheme, seed=3)) for h in (10, 30))
        assert short == long, scheme
    scn = build_ieee37_scenario(variant="regret")
    f_star = experiments.static_problem(scn)[1]
    short, long = (count(lambda T=T: experiments._regret_job(
        scn, (T,), (3,), 0.5, 20.0, f_star)) for T in (10, 600))
    assert short == long


def _regret_readings(scn, seeds):
    """The linear terms a regret run's step t reads: reading t, from 1."""
    return itertools.islice(sim.scenario_linear_terms(scn, seeds), 1, None)


def test_regret_run_prefix_does_not_depend_on_its_length():
    """Step t of a regret run sees the same noise whatever T is, so the
    first 100 iterates of a T = 1000 run are those of the T = 100 run, and
    a stacked run's R_100 is the same whether or not it goes on to 1000."""
    scn = build_ieee37_scenario(variant="regret")
    f_star = experiments.static_problem(scn)[1]
    D, g_star = sim.md_bounds(scn, 21)
    fset = scn.env_set
    runs = [np.concatenate(list(run_online(
        fset, scn.objective.grad, _regret_readings(scn, [21]), T, D, g_star,
        fset.midpoint()[None])), axis=1)[0] for T in (100, 1000)]
    assert runs[1].shape == (1000, scn.n_loads)
    assert np.array_equal(runs[1][:100], runs[0])
    short = experiments._regret_job(scn, (100,), (21, 22), D, g_star, f_star)
    long = experiments._regret_job(scn, (100, 1000), (21, 22), D, g_star, f_star)
    assert [row[0] for row in long] == [row[0] for row in short]


def test_regret_job_totals_are_one_cumsum_over_an_unblocked_run(monkeypatch):
    """R_T at horizons on either side of a 256-step block edge, and past
    the second, equals bit for bit the cumulative sum over the true values
    of a run yielded as one block."""
    scn = build_ieee37_scenario(variant="regret")
    quad, fset = scn.objective, scn.env_set
    f_star = experiments.static_problem(scn)[1]
    D, g_star = sim.md_bounds(scn, 21)
    seeds = (21, 22)
    got = experiments._regret_job(scn, (256, 257, 600), seeds, D, g_star,
                                  f_star)
    monkeypatch.setattr(mirror, "_BLOCK", 600)
    (points,) = run_online(fset, quad.grad, _regret_readings(scn, seeds), 600,
                           D, g_star, np.tile(fset.midpoint(), (2, 1)))
    want = np.cumsum(quad.value(points, scn.true_linear_term()) - f_star,
                     axis=-1)
    assert np.array_equal(got, want[:, [255, 256, 599]])


def test_regret_experiment_runs_each_replication_once(monkeypatch):
    """One stacked run of the longest horizon, one row per replication,
    gives every horizon's R_T."""
    calls = []

    def recorded(fset, grad, data, T, D, g_star, x0, *args, _real=run_online,
                 **kwargs):
        calls.append((np.shape(x0)[0], T))
        return _real(fset, grad, data, T, D, g_star, x0, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_online", recorded)
    experiments.run_regret_experiment(build_ieee37_scenario(variant="regret"),
                                      horizons=(20, 50), replications=3,
                                      base_seed=4)
    assert calls == [(3, 50)]


def test_static_comparison_blocks_give_each_seed_its_own_run(monkeypatch):
    """Seeds split over stacked runs of at most ``_SEED_BLOCK`` rows give
    the metrics of each seed's own run."""
    monkeypatch.setattr(experiments, "_SEED_BLOCK", 2)
    scn = build_ieee37_scenario({"horizon": 60})
    got = experiments._comparison_job(scn, "exact", [3, 4, 5], 20)
    assert got == [sim.metrics(run_scheme(scn, "exact", seed=s),
                               trailing_window=20) for s in (3, 4, 5)]


def test_md_bounds_reads_its_probes_as_one_block(monkeypatch):
    calls = []

    def recorded(scenario, slots, streams, _real=sim._noisy_linear_terms):
        calls.append(len(slots))
        return _real(scenario, slots, streams)

    monkeypatch.setattr(sim, "_noisy_linear_terms", recorded)
    quiet = {"sigma_temp": 0.0, "sigma_gen": 0.0}
    for variant, noise in (("static", {}), ("dynamic", {}), ("dynamic", quiet)):
        calls.clear()
        sim.md_bounds(build_ieee37_scenario({"horizon": 20, "noise": noise},
                                            variant=variant), 3)
        assert len(calls) == 1, (variant, noise)


@pytest.mark.parametrize("horizon", [*range(1, 41), 500, 900])
def test_probe_slots_are_the_distinct_slots_of_eight_spread(horizon):
    want = np.unique(np.linspace(0, horizon - 1, 8, dtype=int))
    assert same_bits(sim._probe_slots(horizon), want)


def _md_bounds_with_unique(scenario, seed):
    """``md_bounds`` as written with ``np.unique`` for its probe slots."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, sim.STREAM_BOUNDS)))
    probes = np.unique(np.linspace(0, scenario.horizon - 1, 8, dtype=int))
    streams = sim.noise_streams(sim.derived_seed(seed, sim.STREAM_PROBES))

    def grads(points):
        return scenario.objective.grad(points, sim._noisy_linear_terms(
            scenario, np.resize(probes, len(points)), streams))

    return mirror.estimate_bounds(scenario.env_set, grads, rng)


@pytest.mark.parametrize("horizon", [5, 60])
@pytest.mark.parametrize("variant", ["static", "dynamic"])
def test_md_bounds_equal_the_unique_probe_formula(variant, horizon):
    """Bit for bit, also where the 8 spread slots repeat (T = 5)."""
    scn = build_ieee37_scenario({"horizon": horizon}, variant=variant)
    for seed in (1, 5, 42):
        got = sim.md_bounds(scn, seed)
        assert same_bits(got, _md_bounds_with_unique(scn, seed)), seed


_RUN_PATH = """
import os, sys
from usecb import experiments, sim
from usecb.errors import ProjectionError

scns = [sim.build_ieee37_scenario({"horizon": 12}, variant=v)
        for v in ("static", "dynamic", "regret")]
scns.append(sim.build_ieee37_scenario(
    {"horizon": 12, "voltage_band": {"v_min": 0.975}}, variant="dynamic"))
out = sys.argv[1]
loaded = set(sys.modules)
for scn in scns:
    for scheme in sim.SCHEMES:
        try:
            run = sim.run_scheme(scn, scheme, seed=3)
        except ProjectionError:  # exact and oracle on the tight band
            continue
        sim.write_run_csv(run, os.path.join(out, "slots.csv"))
        sim.write_json(sim.metrics(run), os.path.join(out, "summary.json"))
experiments.run_regret_experiment(scns[2], horizons=(10, 20), replications=2,
                                  base_seed=3)
experiments.run_static_comparison(scns[0], replications=2, base_seed=3,
                                  window=5)
print(sorted(set(sys.modules) - loaded))
print(sorted(m for m in ("multiprocessing", "concurrent.futures.process")
             if m in sys.modules))
"""


def test_run_path_imports_no_module(tmp_path):
    """In a fresh interpreter, once the scenarios are loaded, running every
    scheme, the metrics, both writers and both experiments imports no
    module: a lazy import (``np.unique`` loads ``numpy.ma``) would make a
    process's first run slower than its later ones.  Nor is the process
    pool's ``multiprocessing`` loaded by running in process."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _RUN_PATH, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_negative_run_seeds_raise_config_error(monkeypatch):
    """Every entry point where a run seed enters rejects a negative one with
    ``ConfigError``, before any reading, as the CLI and the config loader
    do."""
    static = build_ieee37_scenario({"horizon": 10})
    dynamic = build_ieee37_scenario({"horizon": 10}, variant="dynamic")
    regret = build_ieee37_scenario(variant="regret")
    calls = [
        lambda: run_scheme(static, "stochastic", seed=-1),
        lambda: run_scheme(static, "exact", seed=[3, -1]),
        lambda: run_scheme(dynamic, "oracle", seed=-1),
        lambda: run_scheme(dynamic, "stochastic", seed=[3, -1]),
        lambda: sim.md_bounds(static, -1),
        lambda: experiments.run_static_comparison(static, replications=2,
                                                  base_seed=-1),
        lambda: experiments.run_regret_experiment(regret, horizons=(10, 20),
                                                  replications=2, base_seed=-1),
    ]
    readings = []
    monkeypatch.setattr(sim, "read_slots", lambda *args: readings.append(1))
    for call in calls:
        with pytest.raises(ConfigError, match="run seed must be a nonnegative"):
            call()
    assert not readings


def test_noise_config_validation():
    with pytest.raises(ConfigError):
        NoiseConfig(sigma_temp=-1.0)


# --- scenario construction -----------------------------------------------------

def test_ieee37_layout(static_scenario):
    scn = static_scenario
    assert scn.model.n_buses == 37
    assert [scn.bus_label(b) for b in scn.model.gen_buses] == ["725", "731", "741"]
    assert scn.bus_label(0) == "799"
    assert scn.n_loads == 33


def test_ieee37_box_is_ac_rating(static_scenario):
    fset = static_scenario.env_set
    # 1.2 MW on a 10 MVA base.
    assert np.allclose(fset.p_max, 0.12)
    assert np.allclose(fset.p_min, 0.0)
    assert np.allclose(static_scenario.p_fixed, 0.06)


def test_ieee37_static_indoor_draw(static_scenario):
    c = static_scenario.c_in_init
    assert abs(c.mean() - 65.0) < 4.0 * 5.0 / np.sqrt(c.size)
    assert 2.5 < c.std() < 7.5


def test_static_profiles_frozen(static_scenario):
    assert np.ptp(static_scenario.p_g_true, axis=0).max() == 0.0
    assert np.ptp(static_scenario.c_out_true) == 0.0


def test_override_merges(static_scenario):
    scn = build_ieee37_scenario({"horizon": 7, "lambda_price": 2.5})
    assert scn.horizon == 7
    assert scn.lambda_price == 2.5
    assert scn.seed == static_scenario.seed


@pytest.mark.parametrize("price", [0.0, -1.0])
def test_nonpositive_price_rejected(price):
    with pytest.raises(ModelError, match="price"):
        build_ieee37_scenario({"lambda_price": price})


def test_tracking_set_point_zeroes_gradient_at_target():
    scn = build_ieee37_scenario(variant="regret")
    lo, hi = scn.bounds["p_min"], scn.bounds["p_max"]
    target = np.full(scn.n_loads, lo + 0.55 * (hi - lo))
    grad = scn.objective.grad(target, scn.true_linear_term())
    assert np.max(np.abs(grad)) <= 1e-10


# --- closed-loop runs ------------------------------------------------------------

def test_unknown_scheme_rejected(static_scenario):
    with pytest.raises(ConfigError):
        run_scheme(static_scenario, "magic")


def test_seeded_runs_bit_identical(static_scenario):
    scn = build_ieee37_scenario({"horizon": 60})
    r1 = run_scheme(scn, "stochastic", seed=5)
    r2 = run_scheme(scn, "stochastic", seed=5)
    assert np.array_equal(r1.p_c, r2.p_c)
    assert np.array_equal(r1.f_true, r2.f_true)
    assert np.array_equal(r1.p_g_obs, r2.p_g_obs)


def test_conservation_identity_every_slot(static_scenario, dynamic_scenario):
    for scn in (static_scenario, dynamic_scenario):
        for scheme in ("stochastic", "exact", "oracle"):
            run = run_scheme(build_ieee37_scenario({"horizon": 40},
                                                   variant=scn.kind),
                             scheme)
            cons = run.p_c + run.scenario.p_fixed
            lhs = run.p_0
            rhs = cons.sum(axis=1) - run.scenario.p_g_true.sum(axis=1) + run.loss
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_all_controls_feasible(dynamic_scenario):
    for scheme in ("stochastic", "exact", "oracle"):
        run = run_scheme(dynamic_scenario, scheme)
        assert run.feasible.all()


def test_zero_noise_exact_equals_oracle(quiet_static):
    ex = run_scheme(quiet_static, "exact")
    orc = run_scheme(quiet_static, "oracle")
    assert np.max(np.abs(ex.f_true - orc.f_true)) < 1e-8
    assert np.max(np.abs(ex.p_c - orc.p_c)) < 1e-6


def test_zero_noise_stochastic_converges_to_oracle(quiet_static):
    st = run_scheme(quiet_static, "stochastic")
    orc = run_scheme(quiet_static, "oracle")
    f_star = orc.f_true[-1]
    gap = np.abs(st.f_true[100:] - f_star)
    assert np.max(gap) <= 0.01 * abs(f_star)


def test_oracle_not_above_exact_when_noiseless(quiet_static):
    ex = run_scheme(quiet_static, "exact")
    orc = run_scheme(quiet_static, "oracle")
    assert np.all(orc.f_true <= ex.f_true + 1e-9)


def test_static_thermal_state_frozen(static_scenario):
    run = run_scheme(build_ieee37_scenario({"horizon": 30}), "oracle")
    assert np.ptp(run.c_in_true, axis=0).max() == 0.0


def test_dynamic_thermal_drifts_toward_outdoor_without_ac():
    # Make AC useless (negligible cooling gain, so the price term pins the
    # control at zero); indoor temperatures must approach the (constant)
    # outdoor value monotonically.
    scn = build_ieee37_scenario(
        {"horizon": 150,
         "buildings": {"cooling_gain_mean": 1e-9, "cooling_gain_std": 0.0},
         "noise": {"sigma_temp": 0.0, "sigma_gen": 0.0}},
        variant="dynamic")
    scn.c_out_true[:] = 95.0
    run = run_scheme(scn, "oracle")
    gaps = 95.0 - run.c_in_after  # positive, shrinking
    assert np.all(gaps > 0)
    assert np.all(np.diff(gaps, axis=0) <= 1e-12)


def test_zero_generation_zero_load_run_is_all_zero():
    # No PV, no fixed load, and a price high enough to pin the AC at the
    # zero face: losses and intake vanish identically.
    scn = build_ieee37_scenario(
        {"horizon": 20,
         "generation": {"capacity_mw": 0.0},
         "load": {"fixed_mw": 0.0},
         "lambda_price": 1e6,
         "noise": {"sigma_temp": 0.0, "sigma_gen": 0.0}})
    run = run_scheme(scn, "oracle")
    m = metrics(run)
    assert m["loss_total"] == 0.0
    assert m["intake_total"] == 0.0
    assert np.max(np.abs(run.p_c)) == 0.0


def test_metrics_rejects_window_below_one():
    run = run_scheme(build_ieee37_scenario({"horizon": 60}), "stochastic")
    for window in (0, -5):
        with pytest.raises(ConfigError, match="window"):
            metrics(run, trailing_window=window)
    assert metrics(run, trailing_window=1)["objective_trailing_variance"] == 0.0
    full = float(np.var(run.f_true))
    assert metrics(run, trailing_window=60)["objective_trailing_variance"] == full
    assert metrics(run, trailing_window=500)["objective_trailing_variance"] == full


def test_nonfinite_indoor_init_rejected():
    for ind in ({"mean": float("nan")}, {"mean": 65.0, "std": float("inf")}):
        with pytest.raises(ConfigError, match="indoor_init"):
            build_ieee37_scenario({"indoor_init": ind})


def test_metrics_roundup(dynamic_scenario):
    run = run_scheme(dynamic_scenario, "stochastic")
    m = metrics(run)
    assert m["slots"] == dynamic_scenario.horizon
    assert m["all_feasible"] is True
    assert m["conservation_max_residual"] < 1e-9
    assert m["objective_trailing_variance"] >= 0.0
    assert m["mean_temp_deviation"] >= 0.0


SOLVER_KEYS = {"solver_converged_frac", "solver_iterations_median",
               "solver_iterations_max"}


@pytest.mark.parametrize("scheme", ["stochastic", "exact", "oracle"])
def test_solver_diagnostics_only_for_solved_schemes(scheme):
    run = run_scheme(build_ieee37_scenario({"horizon": 30}, variant="dynamic"),
                     scheme)
    m = metrics(run)
    if scheme == "stochastic":
        assert run.solver_iterations is None and not SOLVER_KEYS & set(m)
        return
    assert run.solver_iterations.shape == (30,)
    assert np.all(run.solver_iterations >= 1)
    assert m["solver_converged_frac"] == 1.0
    assert m["solver_iterations_median"] == float(np.median(run.solver_iterations))
    assert m["solver_iterations_max"] == int(run.solver_iterations.max())


def test_static_exact_run_takes_few_solver_steps():
    # Warm-started solves in the diag(H2) metric; fixed Euclidean 1/L steps
    # took a median of 21 a slot on this run.
    m = metrics(run_scheme(build_ieee37_scenario({"horizon": 120}), "exact"))
    assert m["solver_converged_frac"] == 1.0
    assert m["solver_iterations_median"] <= 6


def test_bundled_scenario_ignores_working_directory(tmp_path, monkeypatch):
    rows = data_path("pv_profile.csv").read_text().splitlines()
    zeroed = [rows[0]] + [row.split(",")[0] + ",0.0" for row in rows[1:]]
    (tmp_path / "pv_profile.csv").write_text("\n".join(zeroed) + "\n")
    monkeypatch.chdir(tmp_path)
    packaged = load_scenario(str(data_path("ieee37_dynamic.json")))
    assert packaged.p_g_true.max() > 0.0
    scn = build_ieee37_scenario(variant="dynamic")
    assert np.array_equal(scn.p_g_true, packaged.p_g_true)


@pytest.mark.parametrize("scheme", ["stochastic", "exact"])
def test_static_run_builds_no_constraint_set(scheme, monkeypatch):
    scn = build_ieee37_scenario({"horizon": 20})
    calls = []
    real = sim.build_feasible

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "build_feasible", counted)
    run_scheme(scn, scheme)
    assert not calls


@pytest.mark.parametrize("variant, horizon", [("static", 500), ("dynamic", 900)])
def test_run_derives_nothing_slot_by_slot(variant, horizon, monkeypatch):
    """A run's slot loop computes only what depends on the control: its
    linear terms and thermal steps are not derived slot by slot."""
    scn = build_ieee37_scenario({"horizon": horizon}, variant=variant)
    calls = []
    # Every linear term goes through input_term, linear_term's included.
    real_term, real_step = sim.Quadratic.input_term, sim.thermal_step

    def term(quad, *args):
        calls.append("input_term")
        return real_term(quad, *args)

    def step(*args):
        calls.append("thermal_step")
        return real_step(*args)

    monkeypatch.setattr(sim.Quadratic, "input_term", term)
    monkeypatch.setattr(sim, "thermal_step", step)
    run_scheme(scn, "stochastic")
    assert len(calls) < 20


DAYS = {"loose": None, "tight": {"voltage_band": {"v_min": 0.975}}}


@pytest.mark.parametrize("scheme", sim.SCHEMES)
@pytest.mark.parametrize("day", sorted(DAYS))
def test_dynamic_run_steps_by_the_thermal_model(day, scheme):
    """Every slot's indoor temperature after the control is the one
    ``thermal_step`` derives from the slot's true temperatures and its
    control, bit for bit."""
    scn = build_ieee37_scenario({"horizon": 120, **(DAYS[day] or {})},
                                variant="dynamic")
    run = run_scheme(scn, scheme)
    for t in range(scn.horizon):
        want = sim.thermal_step(run.c_in_true[t], scn.c_out_true[t],
                                run.p_c[t], scn.buildings)
        assert np.array_equal(run.c_in_after[t], want), t
    assert np.array_equal(run.c_in_true[1:], run.c_in_after[:-1])


@pytest.mark.parametrize("day", sorted(DAYS) + ["static"])
def test_stochastic_run_steps_on_the_linear_term(day):
    """Each slot's indoor reading is ``observe`` of its indoor temperature,
    and each control is the projection of the step from the previous one on
    ``linear_term`` of the slot's readings, bit for bit: onto the slot's
    own set on a dynamic day, onto the scenario's set on a static run."""
    if day == "static":
        scn = build_ieee37_scenario({"horizon": 120})
    else:
        scn = build_ieee37_scenario({"horizon": 120, **(DAYS[day] or {})},
                                    variant="dynamic")
    seed = 5
    run = run_scheme(scn, "stochastic", seed=seed)
    quad, band = scn.objective, scn.band
    z_in = sim.read_slots(scn, scn.noise, np.arange(scn.horizon),
                          sim.noise_streams(seed))[2]
    D, g_star = sim.md_bounds(scn, seed)
    a = scn.env_set.project(scn.env_set.midpoint())
    for t in range(scn.horizon):
        assert np.array_equal(run.c_in_obs[t], observe(
            run.c_in_true[t], scn.noise.sigma_temp, z_in[t])), t
        b = quad.linear_term(run.c_in_obs[t], run.c_out_obs[t],
                             run.p_g_obs[t])
        fset = (scn.env_set if scn.is_static else sim.build_feasible(
            band, band.offset(run.p_g_obs[t], scn.p_fixed)))
        a = fset.project(a - step_size(t + 1, D, g_star) * quad.grad(a, b))
        assert np.array_equal(run.p_c[t], a), t


@pytest.mark.parametrize("scheme", ["stochastic", "exact"])
def test_stacked_static_slots_step_on_their_own_linear_terms(scheme,
                                                            monkeypatch):
    """On a stack of static runs, every slot's indoor reading is ``observe``
    of the frozen indoor state, and the slot steps (stochastic) or solves
    (exact) on the ``(R, n)`` rows of ``linear_term`` of each row's own
    readings, bit for bit."""
    scn = build_ieee37_scenario({"horizon": 40})
    quad, T = scn.objective, scn.horizon
    seen = []
    if scheme == "stochastic":
        real_grad = sim.Quadratic.grad

        def grad(q, x, b):
            seen.append(np.array(b))
            return real_grad(q, x, b)

        monkeypatch.setattr(sim.Quadratic, "grad", grad)
    else:
        real_solve = sim.minimize_projected

        def solve(grad, b, *args, **kwargs):
            seen.append(np.array(b))
            return real_solve(grad, b, *args, **kwargs)

        monkeypatch.setattr(sim, "minimize_projected", solve)
    seeds = (3, 4, 5)
    runs = run_scheme(scn, scheme, seed=seeds)
    # The slot loop makes the run's last T calls, one per slot.
    seen = seen[-T:]
    for r, (run, seed) in enumerate(zip(runs, seeds)):
        z_in = sim.read_slots(scn, scn.noise, np.arange(T),
                              sim.noise_streams(seed))[2]
        for t in range(T):
            c_obs = observe(scn.c_in_init, scn.noise.sigma_temp, z_in[t])
            assert np.array_equal(run.c_in_obs[t], c_obs), (seed, t)
            b = quad.linear_term(c_obs, run.c_out_obs[t], run.p_g_obs[t])
            assert seen[t].shape == (len(seeds), scn.n_loads)
            assert np.array_equal(seen[t][r], b), (seed, t)


@pytest.mark.parametrize("variant", ["static", "dynamic"])
def test_nonfinite_control_raises_naming_seed_and_slot(variant, monkeypatch):
    """A nan gradient at one slot gives a nan step, which the box clamp of
    a box-only set passes on; the run raises once, after its slot loop,
    naming the seed and that slot."""
    scn = build_ieee37_scenario({"horizon": 40}, variant=variant)
    assert scn.env_set.box_only
    calls = []
    real = sim.Quadratic.grad

    def grad(quad, x, b):
        calls.append(1)
        g = real(quad, x, b)
        return np.full_like(g, np.nan) if len(calls) == bad else g

    bad = 0
    monkeypatch.setattr(sim.Quadratic, "grad", grad)
    run_scheme(scn, "stochastic", seed=3)
    # The slot loop makes the run's last grad calls, one per slot.
    slot = 17
    bad = len(calls) - scn.horizon + slot + 1
    calls.clear()
    with pytest.raises(ProjectionError,
                       match=f"stochastic run \\(seed 3\\).*at slot {slot}$"):
        run_scheme(scn, "stochastic", seed=3)


@pytest.mark.parametrize("scheme", sim.SCHEMES)
def test_dynamic_run_builds_one_constraint_set_per_slot(scheme, monkeypatch):
    """Each slot of a dynamic run whose band cuts the box places and
    certifies its own set once, at the offsets of that slot's generation
    reading: on the tight band every one of these 20 slots does.  Slots
    whose band holds the box, every slot of the loose day, build none and
    project onto the plain box (a static run builds none, above)."""
    scn = build_ieee37_scenario({"horizon": 20, "voltage_band": {"v_min": 0.975}},
                                variant="dynamic")
    loose = build_ieee37_scenario({"horizon": 20}, variant="dynamic")
    calls = []
    real = sim.build_feasible

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "build_feasible", counted)
    run = run_scheme(scn, scheme)
    assert len(calls) == scn.horizon
    for t, (band, offset) in enumerate(calls):
        assert band is scn.band
        assert np.array_equal(offset, band.offset(run.p_g_obs[t], scn.p_fixed))
    calls.clear()
    run_scheme(loose, scheme)
    assert not calls


@pytest.mark.parametrize("v_min", [0.975, 0.98])
def test_pre_loop_screen_equals_each_slot_placed_alone(v_min, monkeypatch):
    """A dynamic run screens every slot's offsets before its loop and hands
    each non-box slot's result to ``build_feasible``.  On every slot of the
    tight day that result is what placing the slot's set alone decides: the
    same ``box_only`` and the same certification, a band solve from the box
    midpoint exactly where the midpoint breaks the band (some slots at
    0.98, none at 0.975)."""
    scn = build_ieee37_scenario({"voltage_band": {"v_min": v_min}},
                                variant="dynamic")
    screened, real = {}, sim.build_feasible

    def recorded(band, offset, **kwargs):
        screened[len(screened)] = kwargs["_screen"]
        return real(band, offset, **kwargs)

    monkeypatch.setattr(sim, "build_feasible", recorded)
    run = run_scheme(scn, "stochastic")
    monkeypatch.undo()

    certified, project_band = [], sim.FeasibleSet._project_band

    def counted(self, *args):
        certified.append(1)
        return project_band(self, *args)

    monkeypatch.setattr(sim.FeasibleSet, "_project_band", counted)
    offsets = scn.band.offset(run.p_g_obs, scn.p_fixed)
    slots = iter(screened.values())
    n_certified = 0
    for t in range(scn.horizon):
        certified.clear()
        alone = real(scn.band, offsets[t])
        outcome = (alone.box_only, bool(certified))
        n_certified += outcome[1]
        # Box slots build no set; every other slot's screen is the next one.
        want = (True, False) if alone.box_only else next(slots)
        assert outcome == want, t
    assert next(slots, None) is None
    assert (n_certified > 0) == (v_min == 0.98)


@pytest.mark.parametrize("overrides, variant", [
    (None, "dynamic"),
    ({"voltage_band": {"v_min": 0.975}}, "dynamic"),
    (None, "static"),
    ({"voltage_band": {"v_min": 0.985}}, "static"),
])
def test_feasibility_equals_the_band_test_on_every_slot(overrides, variant,
                                                        monkeypatch):
    """Feasibility is judged by the box alone where the band holds the box,
    and by the whole band test elsewhere; on every slot it equals
    ``band.violation(p_c[t], offsets[t]) <= MEMBER_TOL``.  Some projections
    are nudged off their sets so that both answers occur: every third one
    up a quarter of the box, within it (which breaks a binding band), and
    every fifth one out of the box."""
    scn = build_ieee37_scenario(overrides, variant=variant)
    band = scn.band
    real, calls = sim.FeasibleSet.project, []

    def nudged(self, x, scale=1.0, out=None):
        p = real(self, x, scale, out)
        calls.append(1)
        width = band.p_max - band.p_min
        if len(calls) % 3 == 0:
            np.minimum(p + 0.25 * width, band.p_max, out=p)
        if len(calls) % 5 == 0:
            p += 2.0 * width
        return p

    for project in (real, nudged):
        monkeypatch.setattr(sim.FeasibleSet, "project", project)
        run = run_scheme(scn, "stochastic")
        offsets = (scn.env_set.offset if scn.is_static
                   else band.offset(run.p_g_obs, scn.p_fixed))
        want = band.violation(run.p_c, offsets) <= sim.MEMBER_TOL
        assert np.array_equal(run.feasible, want)
        assert run.feasible.all() == (project is real)
        # On a binding band some box points break the band.
        in_box = band.box_violation(run.p_c) <= sim.MEMBER_TOL
        assert (in_box & ~want).any() == (project is nudged
                                          and overrides is not None)


def test_empty_slot0_set_fails_at_construction():
    scn = build_ieee37_scenario({"horizon": 20})
    with pytest.raises(FeasibilityError):
        dataclasses.replace(scn, bounds={**scn.bounds, "v_min": 0.99},
                            p_g_true=np.zeros_like(scn.p_g_true))


# --- row stacks ----------------------------------------------------------------

BATCH_SCENARIOS = {
    "static": ({"horizon": 120}, "static"),
    # An odd horizon, shorter than a block of the bookkeeping.
    "static_37": ({"horizon": 37}, "static"),
    # A static set whose band binds, so every step projects the stack of
    # rows onto the band at once.
    "static_tight": ({"horizon": 120, "voltage_band": {"v_min": 0.985}}, "static"),
    "dynamic": ({"horizon": 120}, "dynamic"),
    "tight": ({"horizon": 120, "voltage_band": {"v_min": 0.975}}, "dynamic"),
}


@pytest.mark.parametrize("scheme", sim.SCHEMES)
@pytest.mark.parametrize("case", sorted(BATCH_SCENARIOS))
def test_batched_rows_equal_single_runs(case, scheme, monkeypatch):
    """Seeds run as one stacked program give every run exactly as it comes
    alone, each array bit for bit."""
    scn = build_ieee37_scenario(*BATCH_SCENARIOS[case])
    band_calls = []
    real = sim.FeasibleSet._project_band

    def counted(fset, x, *args):
        band_calls.append(1)
        return real(fset, x, *args)

    monkeypatch.setattr(sim.FeasibleSet, "_project_band", counted)
    seeds = (3, 4, 5)
    batch = run_scheme(scn, scheme, seed=seeds)
    took_band = bool(band_calls)
    assert [run.seed for run in batch] == list(seeds)
    for run, seed in zip(batch, seeds):
        alone = run_scheme(scn, scheme, seed=seed)
        for f in dataclasses.fields(sim.RunResult):
            got, want = getattr(run, f.name), getattr(alone, f.name)
            if f.name == "scenario":
                assert got is want
            elif want is None:
                assert got is None, f.name
            else:
                assert np.array_equal(got, want), (f.name, seed)
    if case in ("tight", "static_tight"):
        assert took_band


@pytest.mark.parametrize("scheme", sim.SCHEMES)
@pytest.mark.parametrize("variant", ["static", "dynamic"])
def test_empty_seed_sequence_runs_nothing(variant, scheme):
    scn = build_ieee37_scenario({"horizon": 10}, variant=variant)
    assert run_scheme(scn, scheme, seed=[]) == []


def test_pooled_runs_equal_in_process_runs(monkeypatch):
    """The three schemes sent through ``map_replications``' process pool,
    on a static and a dynamic scenario, come back under their keys in
    sorted key order, each equal field by field and bit for bit to its run
    in this process.  A static run's frozen indoor state crosses as one row
    and comes back as the same broadcast."""
    monkeypatch.setattr(experiments, "default_workers", lambda: 2)
    scns = {v: build_ieee37_scenario({"horizon": 12}, variant=v)
            for v in ("static", "dynamic")}
    jobs = {(v, scheme): (scns[v], scheme, 3)
            for v in scns for scheme in sim.SCHEMES}
    out = experiments.map_replications(experiments.run_scheme_job, jobs)
    assert list(out) == sorted(jobs)
    for (variant, scheme), got in out.items():
        want = run_scheme(scns[variant], scheme, seed=3)
        for f in dataclasses.fields(sim.RunResult):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name == "scenario":
                # A copy that crossed the process, with the same profiles.
                assert a is not b
                assert same_bits(a.p_g_true, b.p_g_true)
                assert same_bits(a.c_out_true, b.c_out_true)
            elif isinstance(b, np.ndarray):
                assert same_bits(a, b), (variant, scheme, f.name)
            else:
                assert a == b, (variant, scheme, f.name)
        assert (got.c_in.strides[0] == 0) == (variant == "static")


def _per_slot_bookkeeping(run):
    """Loss, intake, true objective and feasibility of ``run`` from the
    formulas on its full ``(T, .)`` true inputs, and for a few slots on
    that slot's vectors alone."""
    scn = run.scenario
    quad, blocks, band = scn.objective, scn.model.blocks, scn.band
    offsets = (scn.env_set.offset if scn.is_static
               else band.offset(run.p_g_obs, scn.p_fixed))

    def book(p_c, p_g, c_out, c_in, offset):
        cons = p_c + scn.p_fixed
        loss = sim.power_loss(blocks.M, blocks.N, blocks.Q, p_g, cons)
        return (loss, sim.grid_intake(p_g, cons, loss),
                quad.value(p_c, quad.linear_term(c_in, c_out, p_g)),
                band.violation(p_c, offset) <= sim.MEMBER_TOL)

    whole = book(run.p_c, scn.p_g_true, scn.c_out_true[:, None],
                 run.c_in_true, offsets)
    T = len(run.p_c)
    slots = {t: book(run.p_c[t], scn.p_g_true[t],
                     np.full(scn.n_loads, scn.c_out_true[t]), run.c_in_true[t],
                     offsets if scn.is_static else offsets[t])
             for t in (0, T // 2, T - 1)}
    return whole, slots


@pytest.mark.parametrize("variant, scheme, seed", [
    ("static", "stochastic", 3), ("static", "stochastic", (3, 4, 5)),
    ("static", "exact", 3), ("static", "exact", (3, 4, 5)),
    ("dynamic", "stochastic", 3), ("dynamic", "exact", 3),
])
def test_bookkeeping_equals_the_per_slot_formulas(variant, scheme, seed):
    """A run's loss, intake, true objective and feasibility, formed for
    every row of a stack at once (a static run's constant true inputs as
    one broadcast row), equal bit for bit the formulas on the run's full
    true inputs and on each slot's vectors alone.  The horizon spans two
    bookkeeping blocks."""
    scn = build_ieee37_scenario({"horizon": sim._BOOK_BLOCK + 22}, variant=variant)
    out = run_scheme(scn, scheme, seed=seed)
    for run in (out if isinstance(out, list) else [out]):
        got = (run.loss, run.p_0, run.f_true, run.feasible)
        whole, slots = _per_slot_bookkeeping(run)
        for i, name in enumerate(("loss", "p_0", "f_true", "feasible")):
            assert np.array_equal(got[i], whole[i]), (name, run.seed)
            for t, at in slots.items():
                assert got[i][t] == at[i], (name, run.seed, t)


@pytest.mark.parametrize("overrides, variant", [
    (None, "static"),
    (None, "dynamic"),
    ({"voltage_band": {"v_min": 0.975}}, "dynamic"),
])
def test_solved_controls_on_the_box_bound_equal_it(overrides, variant):
    """The solver steps in z = scale * x; a control it leaves on the box
    comes back as the bound itself, not one rounding off it."""
    scn = build_ieee37_scenario(overrides, variant=variant)
    lo, hi = scn.env_set.p_min, scn.env_set.p_max
    for scheme in ("exact", "oracle"):
        p_c = run_scheme(scn, scheme).p_c
        for bound in (lo, hi):
            near = np.abs(p_c - bound) <= 1e-12
            assert near.any(), (scheme, variant)
            assert np.array_equal(p_c[near], np.broadcast_to(bound, p_c.shape)[near])


# --- feasibility ---------------------------------------------------------------

def test_each_slot_is_judged_against_its_own_set(monkeypatch):
    """Feasibility is judged after the slot loop from the recorded offsets:
    each slot against the set of its own generation reading, on the band
    and on one with two constant rows."""
    scn = load_scenario(str(data_path("ieee37_dynamic.json")),
                        {"voltage_band": {"v_min": 0.975}})
    n_g = scn.p_g_true.shape[1]
    sens = scn.band.sens.copy()
    sens[[n_g + 4, n_g + 9], n_g:] = 0.0
    dead = sim.VoltageBand(scn.band.p_min, scn.band.p_max, -sens[:, n_g:],
                           scn.bounds["v_min"], scn.bounds["v_max"], sens=sens)
    assert dead.dead.sum() == 2
    # Clamped controls break the tight band in some slots, not in others.
    monkeypatch.setattr(
        sim.FeasibleSet, "project", lambda fset, x, *args, out=None:
        np.clip(x, fset.p_min, fset.p_max, out=out))
    for band in (scn.band, dead):
        scn.band = band
        run = run_scheme(scn, "stochastic", seed=3)
        own = [sim.build_feasible(scn.band, scn.band.offset(run.p_g_obs[t],
                                                            scn.p_fixed))
               .contains(run.p_c[t]) for t in range(scn.horizon)]
        assert run.feasible.tolist() == own
        assert len(set(own)) == 2


@pytest.mark.parametrize("variant", ["static", "dynamic"])
def test_box_only_scenarios_run_every_scheme(variant):
    """Without a voltage band every set is the box: no band rows and no
    offsets to record."""
    with open(data_path(f"ieee37_{variant}.json")) as fh:
        cfg = json.load(fh)
    del cfg["voltage_band"]
    cfg["horizon"] = 30
    scn = sim.scenario_from_config(cfg, base_dir=str(data_path("")))
    assert scn.band.A_volt.shape[0] == 0 and scn.env_set.offset.size == 0
    seed = [3, 4] if variant == "static" else 3
    for scheme in sim.SCHEMES:
        out = run_scheme(scn, scheme, seed=seed)
        for run in (out if isinstance(out, list) else [out]):
            assert run.feasible.all()
            assert np.all((run.p_c >= scn.env_set.p_min)
                          & (run.p_c <= scn.env_set.p_max))


# --- output files --------------------------------------------------------------

def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _reference_csv_rows(run):
    """The slot rows as a per-value writer formats them, one at a time."""
    scn, lines = run.scenario, []
    for t in range(run.f_true.shape[0]):
        row = [t, run.p_0[t], run.loss[t], run.f_true[t],
               run.feasible[t], scn.c_out_true[t]]
        row += list(scn.p_g_true[t]) + list(run.p_g_obs[t])
        row += list(run.p_c[t]) + list(run.c_in_true[t])
        row += list(run.c_in_obs[t]) + list(run.c_out_obs[t])
        row += list(run.c_in_after[t])
        lines.append(",".join(_fmt(v) for v in row) + "\n")
    return "".join(lines)


def _assert_csv_matches_reference(run, path):
    sim.write_run_csv(run, path)
    header, rows = path.read_bytes().decode().split("\n", 1)
    assert rows == _reference_csv_rows(run)
    width = header.count(",")
    assert all(line.count(",") == width for line in rows.splitlines())
    assert len(rows.splitlines()) == run.f_true.shape[0]


@pytest.mark.parametrize("horizon", [1, sim._BOOK_BLOCK, sim._BOOK_BLOCK + 1])
@pytest.mark.parametrize("scheme", sim.SCHEMES)
def test_run_csv_matches_per_value_writer(scheme, horizon, tmp_path):
    scn = build_ieee37_scenario({"horizon": horizon}, variant="dynamic")
    _assert_csv_matches_reference(run_scheme(scn, scheme), tmp_path / "x.csv")


def test_static_run_csv_matches_per_value_writer(tmp_path):
    run = run_scheme(build_ieee37_scenario({"horizon": 130}), "stochastic")
    assert run.c_in.strides[0] == 0
    assert run.c_in_true.strides[0] == 0 and run.c_in_after.strides[0] == 0
    _assert_csv_matches_reference(run, tmp_path / "x.csv")


def _array_copies(run):
    """Writable copies of every array of ``run``, by field name, and under
    ``scenario`` a copy of its scenario with writable copies of the true
    profiles, which the writer reads from there."""
    scn = copy.copy(run.scenario)
    scn.p_g_true, scn.c_out_true = scn.p_g_true.copy(), scn.c_out_true.copy()
    return {"scenario": scn,
            **{f.name: getattr(run, f.name).copy()
               for f in dataclasses.fields(sim.RunResult)
               if isinstance(getattr(run, f.name), np.ndarray)}}


def test_run_csv_edge_values_match_per_value_writer(tmp_path):
    run = run_scheme(build_ieee37_scenario({"horizon": 3}, variant="dynamic"),
                     "stochastic")
    edge = _array_copies(run)
    edge["p_0"][:] = [-0.0, 5e-324, 1e300]
    edge["loss"][:] = [900.0, 0.0, -1e-310]
    edge["f_true"][:] = [np.nan, np.inf, -np.inf]
    edge["feasible"][:] = [True, False, True]
    edge["scenario"].c_out_true[:] = [-0.0, 2.0 ** 53, 0.1]
    edge["p_c"][0, :3] = [5e-324, -5e-324, 1.0000000000000002]
    edge["c_in"][2, :2] = [-np.inf, 123456789012345678.0]
    _assert_csv_matches_reference(dataclasses.replace(run, **edge),
                                  tmp_path / "x.csv")


def test_repeated_edge_rows_match_per_value_writer(tmp_path):
    """Rows that repeat their predecessor reuse its string only when every
    bit is equal: a -0.0 under a 0.0 is formatted anew, and repeated nan and
    inf rows print as a per-value writer prints them."""
    run = run_scheme(build_ieee37_scenario({"horizon": 6}, variant="dynamic"),
                     "stochastic")
    edge = _array_copies(run)
    c_in = edge["c_in"]
    c_in[0, 0] = 0.0
    c_in[1] = c_in[0]
    c_in[2] = c_in[1]
    c_in[2, 0] = -0.0
    c_in[3:5] = np.nan
    c_in[5:] = np.inf
    c_in[5:, 1] = -np.inf
    scn = edge["scenario"]
    scn.c_out_true[:] = [0.0, 0.0, -0.0, np.nan, np.nan, np.inf]
    scn.p_g_true[:] = 0.0
    scn.p_g_true[2, 1] = -0.0
    scn.p_g_true[3:5] = np.nan
    run = dataclasses.replace(run, **edge)
    _assert_csv_matches_reference(run, tmp_path / "x.csv")
    # Slots 0 and 1 end at rows 1 and 2 of the trajectory.
    after = [line.split(",")[-run.scenario.n_loads]
             for line in (tmp_path / "x.csv").read_text().splitlines()[1:]]
    assert after == ["0", "-0", "nan", "nan", "inf", "inf"]


def test_repeated_rows_across_a_block_boundary_match_per_value_writer(tmp_path):
    """Repeated rows that straddle the boundaries of the writer's blocks
    print as a per-value writer prints them."""
    block = sim._BOOK_BLOCK
    run = run_scheme(build_ieee37_scenario({"horizon": 2 * block + 5},
                                           variant="dynamic"), "stochastic")
    edge = _array_copies(run)
    # Zero-PV slots at a constant outdoor temperature across the first
    # boundary, and an indoor trajectory frozen across both.
    scn = edge["scenario"]
    scn.p_g_true[block - 28:block + 72] = 0.0
    scn.c_out_true[block - 28:block + 72] = scn.c_out_true[block - 28]
    edge["c_in"][block - 8:block + 12] = edge["c_in"][block - 8]
    edge["c_in"][2 * block:2 * block + 3] = edge["c_in"][2 * block - 1]
    _assert_csv_matches_reference(dataclasses.replace(run, **edge),
                                  tmp_path / "x.csv")


def test_indoor_views_share_one_read_only_trajectory(dynamic_scenario,
                                                     static_scenario):
    """``c_in_true`` and ``c_in_after`` are read-only views of ``c_in``,
    before and after a pickle round trip."""
    for scn in (dynamic_scenario, static_scenario):
        run = run_scheme(scn, "stochastic")
        T, n = scn.horizon, scn.n_loads
        assert run.c_in.shape == (T + 1, n)
        for back in (run, pickle.loads(pickle.dumps(run))):
            for view, rows in ((back.c_in_true, slice(None, T)),
                               (back.c_in_after, slice(1, None))):
                assert np.shares_memory(view, back.c_in)
                assert np.array_equal(view, back.c_in[rows])
                assert not view.flags.writeable
                with pytest.raises(ValueError):
                    view[0, 0] = 0.0
            assert np.array_equal(back.c_in_true[1:], back.c_in_after[:-1])
            assert np.array_equal(back.c_in, run.c_in)


def _pickled_indoor_bytes(run):
    return (len(pickle.dumps(run))
            - len(pickle.dumps(dataclasses.replace(run, c_in=None))))


def test_pickled_day_carries_one_indoor_array():
    """A day's trajectory pickles once; a static run's frozen state pickles
    as its one row and loads as a read-only broadcast of it."""
    run = run_scheme(load_scenario(str(data_path("ieee37_dynamic.json"))),
                     "stochastic")
    assert run.c_in.shape == (901, run.scenario.n_loads)
    indoor = _pickled_indoor_bytes(run)
    assert run.c_in.nbytes <= indoor < 1.01 * run.c_in.nbytes

    run = run_scheme(load_scenario(str(data_path("ieee37_static.json"))),
                     "stochastic")
    row = run.c_in[0].nbytes
    assert run.c_in.shape == (run.scenario.horizon + 1, run.scenario.n_loads)
    assert row <= _pickled_indoor_bytes(run) < 2 * row
    back = pickle.loads(pickle.dumps(run))
    assert back.c_in.strides[0] == 0 and not back.c_in.flags.writeable
    assert np.array_equal(back.c_in, run.c_in)


def test_run_csv_write_memory_stays_blockwise(tmp_path):
    """Rows are formatted a block of slots at a time, about 0.7 MB at peak:
    formatting the whole 900-slot day at once peaks at 4.2 MB, or at 10.7 MB
    with its floats converted in one ``tolist``."""
    run = run_scheme(load_scenario(str(data_path("ieee37_dynamic.json"))),
                     "stochastic")
    assert run.f_true.shape[0] == 900
    tracemalloc.start()
    try:
        sim.write_run_csv(run, tmp_path / "x.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("output", ["csv", "json", "interrupt"])
def test_failed_write_keeps_old_file_and_leaves_no_tmp(output, tmp_path):
    path = tmp_path / "out"
    path.write_text("old\n")
    if output == "csv":
        run = run_scheme(build_ieee37_scenario({"horizon": 200},
                                               variant="dynamic"), "stochastic")
        # The indoor trajectory runs out in the second block of slots.
        short = dataclasses.replace(run, c_in=run.c_in[:150])
        with pytest.raises(ValueError):
            sim.write_run_csv(short, path)
    elif output == "json":
        with pytest.raises(TypeError):
            sim.write_json({"a": 1.0, "z": object()}, path)
    else:
        with pytest.raises(KeyboardInterrupt), sim.atomic_write(path) as fh:
            fh.write("partial")
            raise KeyboardInterrupt
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
