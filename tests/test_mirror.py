import numpy as np
import pytest

from usecb import mirror
from usecb.feasible import FeasibleSet
from usecb.mirror import (bregman_divergence, estimate_bounds,
                          minimize_projected, regret, run_online, step_size)
from usecb.sim import build_ieee37_scenario


def _psi(x):
    """The potential psi(x) = ||x||^2 / 2; its gradient is the identity."""
    return 0.5 * float(np.dot(x, x))


def _noisy_quadratic(center, sigma, seed):
    """Gradient oracle for f(x) = ||x - center||^2 with Gaussian noise."""
    center = np.asarray(center, dtype=float)
    rng = np.random.default_rng(seed)

    def oracle(t, x):
        return 2.0 * (x - center) + sigma * rng.standard_normal(center.shape)

    return oracle


def _iterates(*args):
    """All of a ``run_online`` run's iterates, its blocks joined."""
    return np.concatenate(list(run_online(*args)), axis=-2)


def _rows(grad_fn):
    """The gradients map ``estimate_bounds`` takes, one ``grad_fn`` call per
    sample point."""
    return lambda points: [grad_fn(x) for x in points]


# --- Bregman divergence ------------------------------------------------------

def test_divergence_zero_at_equal_points():
    x = np.array([0.3, -1.2])
    assert bregman_divergence(x, x) == 0.0


def test_divergence_euclidean_hand_value():
    assert bregman_divergence(np.array([1.0, 0.0]),
                              np.array([0.0, 0.0])) == pytest.approx(0.5)


def test_divergence_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x, y = rng.normal(size=(2, 4))
        assert bregman_divergence(x, y) >= 0.0


def test_three_point_identity():
    # B(x,y) + B(y,z) - B(x,z) = <x - y, grad(z) - grad(y)>; grad psi is
    # the identity.
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x, y, z = rng.normal(size=(3, 5))
        lhs = (bregman_divergence(x, y) + bregman_divergence(y, z)
               - bregman_divergence(x, z))
        rhs = float(np.dot(x - y, z - y))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_difference_identity_common_second_argument():
    # B(x,y) - B(z,y) = psi(x) - psi(z) + <z - x, grad(y)>.
    rng = np.random.default_rng(2)
    for _ in range(1000):
        x, z, y = rng.normal(size=(3, 5))
        lhs = bregman_divergence(x, y) - bregman_divergence(z, y)
        rhs = _psi(x) - _psi(z) + float(np.dot(z - x, y))
        assert lhs == pytest.approx(rhs, abs=1e-9)


# --- step ---------------------------------------------------------------------

def test_step_size_formula():
    assert step_size(4, 1.0, 2.0) == pytest.approx(0.25)
    etas = [step_size(t, 1.0, 2.0) for t in range(1, 200)]
    assert all(a > b for a, b in zip(etas, etas[1:]))
    assert step_size(1, 1.0, 2.0) / step_size(100, 1.0, 2.0) \
        == pytest.approx(10.0)
    with pytest.raises(ValueError):
        step_size(0, 1.0, 2.0)


def test_step_sizes_of_a_block_equal_each_step():
    D, G = np.array([1.3, 0.7]), np.array([120.7, 98.3])
    steps = np.arange(1, 60)
    block = step_size(steps, D[:, None], G[:, None])
    for t in steps:
        assert np.array_equal(block[:, t - 1], step_size(int(t), D, G))
    with pytest.raises(ValueError):
        step_size(np.arange(0, 5), D[:, None], G[:, None])


# --- bound estimation ----------------------------------------------------------

def test_bounds_unit_square():
    fs = FeasibleSet(p_min=[0.0, 0.0], p_max=[1.0, 1.0])
    D, _ = estimate_bounds(fs, _rows(lambda x: np.zeros(2)),
                           np.random.default_rng(0))
    assert D == pytest.approx(1.0)


def test_bounds_constant_gradient():
    fs = FeasibleSet(p_min=[0.0, 0.0], p_max=[1.0, 1.0])
    g = np.array([3.0, 4.0])
    _, g_star = estimate_bounds(fs, _rows(lambda x: g), np.random.default_rng(0))
    assert g_star == pytest.approx(1.1 * 5.0)


def test_bounds_monotone_in_box_size():
    grad = _rows(lambda x: x)
    small = FeasibleSet(p_min=[0.0, 0.0], p_max=[1.0, 1.0])
    large = FeasibleSet(p_min=[0.0, 0.0], p_max=[2.0, 2.0])
    d_small, _ = estimate_bounds(small, grad, np.random.default_rng(0))
    d_large, _ = estimate_bounds(large, grad, np.random.default_rng(0))
    assert d_large >= d_small


# --- online runs ----------------------------------------------------------------

def test_run_online_zero_noise_converges_to_grid_minimum():
    center = np.array([1.4, 0.3])  # outside the box in the first coordinate
    fs = FeasibleSet(p_min=[0.0, 0.0], p_max=[1.0, 1.0])

    def f(x):
        return float(np.sum((x - center) ** 2))

    oracle = _noisy_quadratic(center, 0.0, seed=0)
    D, g_star = estimate_bounds(fs, _rows(lambda x: 2.0 * (x - center)),
                                np.random.default_rng(0))
    points = _iterates(fs, oracle, 500, D, g_star, fs.midpoint())
    xs = np.linspace(0, 1, 1001)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    vals = (gx - center[0]) ** 2 + (gy - center[1]) ** 2
    grid_best = float(vals.min())
    assert f(points[-1]) - grid_best < 1e-4


def test_run_online_zero_gradient_stays_put():
    fs = FeasibleSet(p_min=[0.0, 0.0], p_max=[1.0, 1.0])
    points = _iterates(fs, lambda t, x: np.zeros(2), 50, 1.0, 1.0,
                        np.array([0.25, 0.75]))
    assert np.array_equal(points, np.tile([0.25, 0.75], (50, 1)))


def test_run_online_seeded_determinism():
    fs = FeasibleSet(p_min=[0.0, 0.0], p_max=[1.0, 1.0])
    p1 = _iterates(fs, _noisy_quadratic([0.4, 0.6], 1.0, 7), 200, 1.0, 3.0,
                    fs.midpoint())
    p2 = _iterates(fs, _noisy_quadratic([0.4, 0.6], 1.0, 7), 200, 1.0, 3.0,
                    fs.midpoint())
    assert np.array_equal(p1, p2)


def test_run_online_iterates_always_feasible():
    fs = FeasibleSet(p_min=np.zeros(3), p_max=np.ones(3),
                     A_volt=np.ones((1, 3)), offset=np.zeros(1),
                     v_min=-np.inf, v_max=2.0)
    points = _iterates(fs, _noisy_quadratic([2.0, 2.0, 2.0], 2.0, 3), 300,
                        1.3, 4.0, fs.midpoint())
    for p in points:
        assert fs.contains(p)


def test_run_online_yields_blocks_of_at_most_256_steps():
    fs = FeasibleSet(p_min=[0.0, 0.0], p_max=[1.0, 1.0])
    blocks = list(run_online(fs, _noisy_quadratic([0.4, 0.6], 1.0, 7), 600,
                             1.0, 3.0, np.tile(fs.midpoint(), (3, 1))))
    assert [b.shape for b in blocks] == [(3, 256, 2), (3, 256, 2), (3, 88, 2)]


def test_regret_of_blocks_adds_up_to_the_whole_run():
    center = np.array([0.3, 0.6, 0.5])
    fs = FeasibleSet(p_min=np.zeros(3), p_max=np.ones(3))

    def f(x):
        return np.sum((x - center) ** 2, axis=-1)

    def run():
        return run_online(fs, _noisy_quadratic(center, 1.0, 4), 700, 1.0, 3.0,
                          fs.midpoint())

    whole, _ = regret(np.concatenate(list(run())), f, center, 0.0)
    running = 0.0
    for points in run():
        running, _ = regret(points, f, center, running)
    assert running == whole


def test_run_online_rejects_nonpositive_bounds():
    fs = FeasibleSet(p_min=[0.0, 0.0], p_max=[1.0, 1.0])
    for D, g_star in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)):
        with pytest.raises(ValueError):
            _iterates(fs, lambda t, x: np.zeros(2), 5, D, g_star,
                      fs.midpoint())


# --- regret ----------------------------------------------------------------------

def _toy_regret(T, sigma, seed, center=(0.3, 0.6, 0.5)):
    center = np.asarray(center)
    fs = FeasibleSet(p_min=np.zeros(3), p_max=np.ones(3))

    def f(x):
        return np.sum((x - center) ** 2, axis=-1)

    rng = np.random.default_rng(seed + 999)
    D, g_star = estimate_bounds(
        fs, _rows(lambda x: 2.0 * (x - center) + sigma * rng.standard_normal(3)),
        np.random.default_rng(0))
    points = _iterates(fs, _noisy_quadratic(center, sigma, seed), T, D,
                        g_star, fs.midpoint())
    total, curve = regret(points, f, center, 0.0)
    return total, curve, D, g_star


def test_regret_zero_at_optimum():
    fs = FeasibleSet(p_min=np.zeros(2), p_max=np.ones(2))
    center = np.array([0.5, 0.5])
    points = _iterates(fs, lambda t, x: np.zeros(2), 20, 1.0, 1.0, center)
    total, curve = regret(points, lambda x: np.sum((x - center) ** 2, axis=-1),
                          center, 0.0)
    assert total == pytest.approx(0.0, abs=1e-12)


def test_regret_curve_nondecreasing():
    _, curve, _, _ = _toy_regret(400, 1.0, seed=5)
    assert np.all(np.diff(curve) >= -1e-9)


def test_regret_sqrt_growth_slope():
    horizons = (100, 1000, 10000)
    reps = 8
    means = []
    for T in horizons:
        totals = [_toy_regret(T, 1.0, seed=100 * rep)[0] for rep in range(reps)]
        means.append(np.mean(totals))
    slope = np.polyfit(np.log(horizons), np.log(means), 1)[0]
    assert 0.4 <= slope <= 0.6


def test_regret_tail_below_concentration_bound():
    # Replicated noisy quadratic at T=1000: the frequency of
    # R_T >= 2 D G* sqrt(T) + eps (eps = 2 D G* sqrt(T)) must stay below
    # exp(-1/4) + 0.05.
    T = 1000
    reps = 200
    exceed = 0
    for rep in range(reps):
        total, _, D, g_star = _toy_regret(T, 1.0, seed=rep)
        threshold = 4.0 * D * g_star * np.sqrt(T)
        exceed += int(total >= threshold)
    assert exceed / reps <= np.exp(-0.25) + 0.05


# --- deterministic solver ----------------------------------------------------------

def test_minimize_projected_boundary_solution():
    fs = FeasibleSet(p_min=np.zeros(2), p_max=np.ones(2))
    center = np.array([1.7, 0.4])

    def grad(x, c):
        return 2.0 * (x - c)

    x, converged, _ = minimize_projected(grad, center, fs, np.ones(2), 2.0,
                                         tol=1e-10)
    assert converged
    assert np.allclose(x, [1.0, 0.4], atol=1e-8)


def test_minimize_projected_reports_iteration_cap(monkeypatch):
    fs = FeasibleSet(p_min=np.zeros(2), p_max=np.ones(2))
    center = np.array([0.3, 0.6])

    def grad(x, c):
        return 2.0 * (x - c)

    with monkeypatch.context() as m:
        m.setattr(mirror, "_MAX_ITER", 1)
        x, converged, _ = minimize_projected(grad, center, fs, np.ones(2), 2.0,
                                             tol=1e-10)
    assert not converged
    assert fs.contains(x)
    # An interior minimizer: the step must stay at 1/L, not grow until the
    # iterates bounce between box corners.
    x, converged, _ = minimize_projected(grad, center, fs, np.ones(2), 2.0,
                                         tol=1e-10)
    assert converged
    assert np.allclose(x, center, atol=1e-10)


def _euclidean_reference(grad_fn, fset, lipschitz, tol):
    """Projected gradient descent with the fixed Euclidean step
    ``1 / lipschitz`` from the midpoint."""
    x = fset.project(fset.midpoint())
    for _ in range(100_000):
        cand = fset.project(x - grad_fn(x) / lipschitz)
        move = float(np.linalg.norm(cand - x))
        x = cand
        if move <= tol * (1.0 + float(np.linalg.norm(x))):
            return x
    raise AssertionError("the reference did not converge")


@pytest.mark.parametrize("variant", ["dynamic", "regret"])
def test_metric_solver_matches_euclidean_reference(variant):
    # Slot 0 of the dynamic day, and the regret experiment's a_star problem.
    # Fixed 1/L steps need 48 and 68 steps to 1e-10 on these Hessians
    # (condition numbers 3.1 and 4.7); scaled by diag(H2) they are 1.01.
    scn = build_ieee37_scenario(variant=variant)
    quad = scn.objective
    b = scn.true_linear_term()
    lipschitz = float(np.max(np.linalg.eigvalsh(quad.H2)))
    reference = _euclidean_reference(lambda x: quad.grad(x, b), scn.env_set,
                                     lipschitz, 1e-13)
    x, converged, steps = minimize_projected(
        quad.grad, b, scn.env_set, quad.scale, quad.L_W, tol=1e-10)
    assert converged
    assert steps <= 8
    assert np.max(np.abs(x - reference)) <= 1e-9
    assert scn.env_set.contains(x)


def test_stacked_rows_leave_with_their_data(monkeypatch):
    """Rows of a stack stop at their own steps, one at the step cap, and
    leave the stack with their rows of ``b``: each row's result, its
    convergence and its step count equal its own solve's, bit for bit."""
    monkeypatch.setattr(mirror, "_MAX_ITER", 170)
    fs = FeasibleSet(p_min=np.zeros(2), p_max=np.ones(2))
    h = np.array([1.0, 0.1])

    def grad(x, b):
        return h * x + b

    # Minimizers (1, 1) off the box, (0.3, 0.52) and (0.2, 0.9) inside it,
    # the last one too far from the midpoint for 170 steps at rate 0.9.
    b = np.array([[-3.0, -2.0], [-0.3, -0.052], [-0.2, -0.09]])
    x0 = np.tile(fs.midpoint(), (3, 1))

    def solve_each(b, x0, converged_want, steps_want):
        x, converged, steps = minimize_projected(grad, b, fs, np.ones(2), 1.0,
                                                 x0=x0, tol=1e-10)
        assert converged.tolist() == converged_want
        assert steps.tolist() == steps_want
        for r in range(len(b)):
            own = minimize_projected(grad, b[r], fs, np.ones(2), 1.0, x0=x0[r],
                                     tol=1e-10)
            assert np.array_equal(x[r], own[0]), r
            assert (converged[r], steps[r]) == own[1:], r

    solve_each(b, x0, [True, True, False], [2, 157, 170])
    # Minimizers off the box beyond three of its corners: every row stops
    # at step 2, each on its own corner.
    corners = np.array([[-3.0, -2.0], [3.0, 2.0], [-3.0, 2.0]])
    solve_each(corners, x0, [True] * 3, [2] * 3)
    # A row that starts at its solution, the box corner (1, 1), stops at
    # step 1 and leaves before the others.
    at_corner = x0.copy()
    at_corner[0] = 1.0
    solve_each(b, at_corner, [True, True, False], [1, 157, 170])
    # A one-row stack.
    solve_each(b[1:2], x0[1:2], [True], [157])
