"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
inline; the same checks gate the assertions either way.
"""

import time

import numpy as np
import pytest

from usecb.cli import main
from usecb.experiments import run_regret_experiment, run_static_comparison
from usecb.feasible import FeasibleSet
from usecb.grid import (GridModel, compute_sensitivity, load_network_csv,
                        power_loss)
from usecb.mirror import bregman_divergence
from usecb.sim import build_ieee37_scenario, data_path, metrics, run_scheme
from usecb.thermal import usecb_profit

from conftest import ac_twobus_exact, grid_search_projection


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def static_scenario():
    return build_ieee37_scenario()


@pytest.fixture(scope="module")
def ieee37_model(static_scenario):
    return static_scenario.model


def test_criterion_1_motivating_flows(capsys):
    def run_flows(name):
        t0 = time.perf_counter()
        rc = main(["flows", "--config", str(data_path(name))])
        elapsed = time.perf_counter() - t0
        lines = capsys.readouterr().out.strip().splitlines()
        return rc, np.array([float(l.split(",")[1]) for l in lines[1:]]), elapsed

    rc_a, flows_a, el_a = run_flows("flows_central.json")
    rc_b, flows_b, el_b = run_flows("flows_distributed.json")
    ok = (rc_a == 0 and rc_b == 0
          and np.max(np.abs(flows_a - np.array([20.0, 15.0, 10.0, 5.0]))) < 1e-9
          and np.max(np.abs(np.abs(flows_b) - 2.5)) < 1e-9
          and el_a < 1.0 and el_b < 1.0)
    _report(1, ok, f"flows CLI gives {flows_a.tolist()} / "
                   f"|{np.abs(flows_b).tolist()}|, {el_a + el_b:.3f}s")


def test_criterion_2_sensitivity_identities(ieee37_model):
    t0 = time.perf_counter()
    worst = 0.0
    lines, n2 = load_network_csv(data_path("twobus_lines.csv"))
    twobus = GridModel.build(lines, n2, gen_buses=[], load_buses=[1])
    for model in (twobus, ieee37_model):
        n = model.n_buses
        X = compute_sensitivity(model.Y)
        ident = model.Y @ X - (np.eye(n) - np.ones((n, n)) / n)
        worst = max(worst,
                    float(np.max(np.abs(ident))),
                    float(np.max(np.abs(X @ np.ones(n)))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    _report(2, ok, f"max identity residual {worst:.2e}, {elapsed:.3f}s")


def test_criterion_3_loss_vs_ac_oracle():
    t0 = time.perf_counter()
    lines, n = load_network_csv(data_path("twobus_lines.csv"))
    model = GridModel.build(lines, n, gen_buses=[], load_buses=[1])
    z = 1.0 / lines[0].admittance
    blk = model.blocks
    worst = 0.0
    for p in np.linspace(0.01, 0.1, 19):
        for sign in (1.0, -1.0):
            s = sign * p
            _, loss_exact = ac_twobus_exact(z, s)
            loss_lin = power_loss(blk.M, blk.N, blk.Q, [], [-s])
            worst = max(worst, abs(loss_lin - loss_exact) / loss_exact)
    elapsed = time.perf_counter() - t0
    ok = worst < 0.02 and elapsed < 1.0
    _report(3, ok, f"max relative loss error {worst:.4%}, {elapsed:.3f}s")


def test_criterion_4_gradient_vs_finite_differences(static_scenario):
    t0 = time.perf_counter()
    quad = static_scenario.objective
    b = static_scenario.true_linear_term()
    fset = static_scenario.env_set
    rng = np.random.default_rng(4)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        x = fset.project(fset.p_min + rng.random(fset.dim)
                         * (fset.p_max - fset.p_min))
        g = quad.grad(x, b)
        fd = np.empty_like(g)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            fd[i] = (quad.value(x + e, b) - quad.value(x - e, b)) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(fd - g)))
                    / max(float(np.max(np.abs(g))), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    _report(4, ok, f"max relative gradient error {worst:.2e} over 100 points, "
                   f"{elapsed:.1f}s")


def test_criterion_5_profit_objective_consistency(static_scenario):
    scn = static_scenario
    quad = scn.objective
    b = scn.true_linear_term()
    p_g = scn.p_g_true[0]
    c_out = np.full(scn.n_loads, scn.c_out_true[0])
    fset = scn.env_set
    rng = np.random.default_rng(5)
    lam = quad.lambda_price
    ref = None
    worst = 0.0
    for _ in range(1000):
        p = fset.project(fset.p_min + rng.random(fset.dim)
                         * (fset.p_max - fset.p_min))
        total = usecb_profit(scn.c_in_init, c_out, p, quad, p_g) \
            + lam * quad.value(p, b)
        if ref is None:
            ref = total
        worst = max(worst, abs(total - ref))
    ok = worst < 1e-9
    _report(5, ok, f"profit + lambda*f spread {worst:.2e} over 1000 points")


def test_criterion_6_projection_suite():
    rng = np.random.default_rng(6)
    worst_idem = worst_member = worst_expand = worst_pythag = 0.0
    for trial in range(10):
        A = rng.normal(size=(2, 3))
        mid = rng.uniform(0.3, 0.7, 3)
        center = A @ mid
        fs = FeasibleSet(p_min=np.zeros(3), p_max=np.ones(3),
                         A_volt=A, offset=np.zeros(2),
                         v_min=center - rng.uniform(0.2, 0.5),
                         v_max=center + rng.uniform(0.2, 0.5))
        for _ in range(100):
            x = rng.normal(scale=2.0, size=3)
            y = rng.normal(scale=2.0, size=3)
            b = fs.project(x)
            worst_member = max(worst_member, fs.band.violation(b, fs.offset))
            worst_idem = max(worst_idem,
                             float(np.linalg.norm(fs.project(b) - b)))
            worst_expand = max(worst_expand,
                               float(np.linalg.norm(fs.project(x) - fs.project(y))
                                     - np.linalg.norm(x - y)))
            a = fs.project(rng.uniform(-0.5, 1.5, 3))
            lhs = 0.5 * float(np.sum((a - x) ** 2))
            rhs = 0.5 * float(np.sum((a - b) ** 2)) + 0.5 * float(np.sum((b - x) ** 2))
            worst_pythag = max(worst_pythag, rhs - lhs)
    # Dense-grid oracle agreement on a 3-D instance.
    A = np.array([[1.0, 1.0, 1.0]])
    fs3 = FeasibleSet(p_min=np.zeros(3), p_max=0.25 * np.ones(3),
                      A_volt=A, offset=np.zeros(1), v_min=-np.inf, v_max=0.45)
    rng_o = np.random.default_rng(60)
    worst_oracle = 0.0
    for _ in range(3):
        x = rng_o.uniform(-0.1, 0.4, 3)
        brute = grid_search_projection(fs3, x, step=1e-3)
        worst_oracle = max(worst_oracle,
                           float(np.max(np.abs(fs3.project(x) - brute))))
    ok = (worst_idem < 1e-9 and worst_member < 1e-9
          and worst_expand < 1e-9 and worst_pythag < 1e-9
          and worst_oracle < 2e-3)
    _report(6, ok, f"idempotence {worst_idem:.1e}, membership {worst_member:.1e}, "
                   f"expansion {worst_expand:.1e}, pythagorean {worst_pythag:.1e}, "
                   f"grid oracle {worst_oracle:.1e}")


def test_criterion_7_bregman_identity():
    # psi = ||x||^2 / 2, so grad psi is the identity.
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        x, y, z = rng.normal(size=(3, 6))
        lhs = (bregman_divergence(x, y) + bregman_divergence(y, z)
               - bregman_divergence(x, z))
        rhs = float(np.dot(x - y, z - y))
        worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-9
    _report(7, ok, f"three-point identity residual {worst:.2e} over 1000 triples")


def test_criterion_8_static_reproduction(static_scenario):
    t0 = time.perf_counter()
    report = run_static_comparison(static_scenario, replications=50,
                                   base_seed=8, window=100, rel_tol=0.01)
    elapsed = time.perf_counter() - t0
    ok = (report["converged_fraction"] >= 0.9
          and report["variance_lower_fraction"] >= 0.9
          and elapsed < 120.0)
    _report(8, ok,
            f"converged within 1% in {report['converged_fraction']:.0%} of runs, "
            f"variance lower in {report['variance_lower_fraction']:.0%} "
            f"(stochastic {report['stochastic_trailing_variance_mean']:.2e} vs "
            f"exact {report['exact_trailing_variance_mean']:.2e}), {elapsed:.0f}s")


def test_criterion_9_regret_rate():
    t0 = time.perf_counter()
    scenario = build_ieee37_scenario(variant="regret")
    report = run_regret_experiment(scenario, horizons=(100, 1000, 10000),
                                   replications=20, base_seed=9)
    elapsed = time.perf_counter() - t0
    slope = report["slope"]
    tail_ok = all(row["tail_frequency"] <= row["tail_bound"] + 0.05
                  for row in report["per_horizon"].values())
    ok = 0.4 <= slope <= 0.6 and tail_ok and elapsed < 300.0
    means = {T: round(report["per_horizon"][str(T)]["mean_regret"], 1)
             for T in report["horizons"]}
    _report(9, ok, f"slope {slope:.3f}, mean regret {means}, "
                   f"max tail freq {report['max_tail_frequency']:.3f}, {elapsed:.0f}s")


def test_criterion_10_conservation(static_scenario):
    worst = 0.0
    for variant, horizon in (("static", 120), ("dynamic", 120)):
        scn = build_ieee37_scenario({"horizon": horizon}, variant=variant)
        for scheme in ("stochastic", "exact", "oracle"):
            run = run_scheme(scn, scheme)
            cons = run.p_c + scn.p_fixed
            residual = run.p_0 - (cons.sum(axis=1)
                                  - scn.p_g_true.sum(axis=1) + run.loss)
            worst = max(worst, float(np.max(np.abs(residual))))
    ok = worst < 1e-9
    _report(10, ok, f"max conservation residual {worst:.2e} "
                    "(both variants, all schemes)")


def test_criterion_11_dynamic_run():
    t0 = time.perf_counter()
    scn = build_ieee37_scenario(variant="dynamic")
    assert scn.horizon == 900
    runs = {scheme: run_scheme(scn, scheme)
            for scheme in ("stochastic", "oracle")}
    elapsed = time.perf_counter() - t0
    dev = {scheme: metrics(run)["mean_temp_deviation"]
           for scheme, run in runs.items()}
    feasible = all(run.feasible.all() for run in runs.values())
    ratio = dev["stochastic"] / dev["oracle"]
    ok = feasible and 0.9 <= ratio <= 1.1 and elapsed < 120.0
    _report(11, ok, f"900 slots, mean |temp - set| stochastic {dev['stochastic']:.3f} "
                    f"vs oracle {dev['oracle']:.3f} (ratio {ratio:.3f}), "
                    f"feasible {feasible}, {elapsed:.0f}s")
