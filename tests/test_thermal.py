import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from usecb.errors import ModelError
from usecb.grid import SensitivityBlocks, matvec
from usecb.thermal import (BuildingParams, Quadratic, satisfaction,
                           thermal_step, usecb_profit)


def _empty_grid_blocks(n_loads, n_gens=0):
    """Blocks with no network coupling (Q = 0), for isolated-objective tests."""
    n = n_loads + n_gens
    return SensitivityBlocks(
        Z_red=np.zeros((n, n), dtype=complex),
        M=np.zeros((n_gens, n_gens)), N=np.zeros((n_gens, n_loads)),
        Q=np.zeros((n_loads, n_loads)),
        gen_buses=tuple(range(1, n_gens + 1)),
        load_buses=tuple(range(n_gens + 1, n + 1)))


def _identity_gen_blocks(n):
    """Uncoupled blocks with one generator per load and ``2 N' = I``, so a
    generation reading is its own generation term."""
    return dataclasses.replace(_empty_grid_blocks(n, n_gens=n),
                               N=0.5 * np.eye(n))


def _coupled_objective(rng=None, n=3):
    rng = np.random.default_rng(0) if rng is None else rng
    raw = rng.normal(size=(n, n)) * 0.01
    Q = raw @ raw.T
    blocks = SensitivityBlocks(
        Z_red=np.zeros((n + 1, n + 1), dtype=complex),
        M=np.array([[0.02]]), N=rng.normal(size=(1, n)) * 0.005, Q=Q,
        gen_buses=(1,), load_buses=tuple(range(2, n + 2)))
    bp = BuildingParams(alpha1=rng.uniform(0, 2e-4, n),
                        alpha2=rng.uniform(0.1, 0.3, n),
                        beta=rng.uniform(0.2, 0.6, n),
                        c_set=rng.uniform(68, 74, n), dt=48.0)
    c_in, c_out = rng.uniform(70, 80, n), rng.uniform(85, 95, n)
    p_g = np.array([0.5])
    quad = Quadratic(1.2, bp, blocks, rng.uniform(0, 0.08, n))
    return (c_in, c_out), quad, p_g, quad.linear_term(c_in, c_out, p_g)


# --- thermal step ----------------------------------------------------------

def test_thermal_step_equilibrium():
    bp = BuildingParams(0.3, 0.5, 1.0, [70.0], dt=1.0)
    assert thermal_step([72.0], [72.0], [0.0], bp) == pytest.approx([72.0])


def test_thermal_step_hand_value():
    bp = BuildingParams(0.1, 0.5, 1.0, [75.0], dt=1.0)
    assert thermal_step([75.0], [95.0], [4.0], bp) == pytest.approx([75.0])


def test_thermal_step_insulated_building():
    bp = BuildingParams(0.0, 0.5, 1.0, [70.0], dt=1.0)
    assert thermal_step([80.0], [120.0], [0.0], bp) == pytest.approx([80.0])


def test_thermal_step_affine_superposition():
    bp = BuildingParams([1e-4, 2e-4], [0.2, 0.3], 1.0, [70.0, 71.0], dt=48.0)
    c_in, c_out = [75.0, 76.0], [90.0, 91.0]
    p1 = np.array([0.04, 0.02])
    p2 = np.array([0.01, 0.05])
    lhs = thermal_step(c_in, c_out, 0.5 * (p1 + p2), bp)
    rhs = 0.5 * (thermal_step(c_in, c_out, p1, bp)
                 + thermal_step(c_in, c_out, p2, bp))
    assert np.allclose(lhs, rhs, atol=1e-15)


def test_building_params_validation():
    with pytest.raises(ModelError):
        BuildingParams(0.1, 0.0, 1.0, [70.0], dt=1.0)
    with pytest.raises(ModelError):
        BuildingParams(-0.1, 0.5, 1.0, [70.0], dt=1.0)
    with pytest.raises(ModelError):
        BuildingParams(0.1, 0.5, 1.0, [70.0], dt=0.0)


EPS = np.finfo(float).eps
# A product that underflows rounds by up to half of TINY, absolute, not
# relative to its size.
TINY = np.finfo(float).smallest_subnormal


@st.composite
def affine_cases(draw):
    """Buildings and readings beyond the bundled configs' scales: up to a
    whole slot's heat exchange, temperatures of either sign, and a
    generation term of either sign."""
    n = draw(st.integers(1, 4))

    def vec(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    dt = draw(st.floats(1.0, 3600.0))
    bp = BuildingParams(alpha1=vec(0.0, 1.0) / dt, alpha2=vec(1e-3, 1.0),
                        beta=vec(1e-3, 10.0), c_set=vec(-20.0, 120.0), dt=dt)
    quad = Quadratic(draw(st.floats(0.1, 10.0)), bp, _identity_gen_blocks(n),
                     vec(0.0, 1.0))
    return (quad, vec(-40.0, 130.0), vec(-40.0, 130.0), vec(0.0, 10.0),
            vec(-1.0, 1.0))


def _underflow_case(alpha2, dt, p_c):
    """One building at 0 degrees in and out, whose ``alpha2 p_c``
    underflows."""
    bp = BuildingParams(alpha1=0.0, alpha2=alpha2, beta=1.0, c_set=0.0, dt=dt)
    zero = np.zeros(1)
    return (Quadratic(1.0, bp, _identity_gen_blocks(1), zero), zero, zero,
            np.array([p_c]), zero)


@settings(max_examples=300, deadline=None)
@given(affine_cases())
@example(_underflow_case(0.5, 2.0, 5e-324))
@example(_underflow_case(0.25, 10.0, 2.22507386e-313))
def test_affine_forms_match_the_expanded_formulas(case):
    """``thermal_step`` and ``linear_term`` in affine form agree with the
    formulas they restate, ``c_in + alpha1 (c_out - c_in) dt - alpha2 p_c
    dt`` and ``base_b - comfort_w (that step at p_c = 0 - c_set) - gen``,
    within a few ulps of the size of their terms.  Where ``alpha2 p_c``
    underflows, the formula's rounding of it is absolute, and ``dt`` then
    scales it: the step's bound has a floor of ``(dt + 2)`` subnormal ulps."""
    quad, c_in, c_out, p_c, gen = case
    bp = quad.buildings
    a1dt = bp.alpha1 * bp.dt
    free = c_in + bp.alpha1 * (c_out - c_in) * bp.dt
    size = np.abs(c_in) + a1dt * (np.abs(c_in) + np.abs(c_out))
    old = free - bp.alpha2 * p_c * bp.dt
    gap = np.abs(thermal_step(c_in, c_out, p_c, bp) - old)
    assert np.all(gap <= 8 * EPS * (size + bp.control_gain * p_c)
                  + (bp.dt + 2) * TINY)
    old_b = quad.base_b - quad.comfort_w * (free - bp.c_set) - gen
    # The generation reading ``gen`` is its own term on these blocks.
    assert np.array_equal(matvec(quad.NT2, gen), gen)
    gap_b = np.abs(quad.linear_term(c_in, c_out, gen) - old_b)
    size_b = (quad.base_b + quad.comfort_w * (size + np.abs(bp.c_set))
              + np.abs(gen))
    assert np.all(gap_b <= 8 * EPS * size_b)


def test_input_term_reads_the_set_point_at_call_time():
    """A set point written after the objective exists (tracking mode) moves
    ``b`` by ``comfort_w`` per degree."""
    (c_in, c_out), quad, p_g, b = _coupled_objective()
    quad.buildings.c_set += 1.0
    moved = quad.linear_term(c_in, c_out, p_g)
    assert np.allclose(moved - b, quad.comfort_w, rtol=1e-9, atol=0.0)


# --- satisfaction ----------------------------------------------------------

def test_satisfaction_zero_at_set_point():
    bp = BuildingParams(0.1, 0.5, 2.0, [75.0], dt=1.0)
    assert satisfaction([75.0], [95.0], [4.0], bp) == pytest.approx([0.0])


def test_satisfaction_hand_value():
    # Predicted temperature 3 degrees off the set point at beta = 2.
    bp = BuildingParams(0.0, 1.0, 2.0, [70.0], dt=1.0)
    assert satisfaction([73.0], [73.0], [0.0], bp) == pytest.approx([-18.0])


def test_satisfaction_never_positive():
    rng = np.random.default_rng(1)
    bp = BuildingParams(1e-4, 0.2, 0.5, rng.uniform(65, 75, 4), dt=48.0)
    for _ in range(50):
        c_in, c_out = rng.uniform(60, 85, 4), rng.uniform(60, 100, 4)
        assert np.all(satisfaction(c_in, c_out, rng.uniform(0, 0.12, 4), bp)
                      <= 0.0)


# --- profit ----------------------------------------------------------------

def test_profit_zero_at_balance():
    blocks = _empty_grid_blocks(1, n_gens=1)
    bp = BuildingParams(0.1, 0.5, 1.0, [75.0], dt=1.0)
    quad = Quadratic(1.0, bp, blocks, np.zeros(1))
    # Predicted temperature hits the set point and intake nets to zero.
    assert usecb_profit([75.0], [95.0], [4.0], quad, np.array([4.0])) \
        == pytest.approx(0.0, abs=1e-12)


def test_profit_hand_value():
    # Predicted temperature 75 - 2 = 73, three degrees over the set point at
    # beta 2 (comfort -18), plus 2 units of intake at unit price: profit -20.
    blocks = _empty_grid_blocks(1, n_gens=1)
    bp = BuildingParams(0.0, 1.0, 2.0, [70.0], dt=1.0)
    quad = Quadratic(1.0, bp, blocks, np.zeros(1))
    assert usecb_profit([75.0], [75.0], [2.0], quad, np.array([0.0])) \
        == pytest.approx(-20.0, abs=1e-12)


def test_profit_plus_lambda_f_constant():
    rng = np.random.default_rng(2)
    temps, quad, p_g, b = _coupled_objective(rng)
    ref = None
    for _ in range(100):
        p = rng.uniform(0, 0.12, quad.buildings.n)
        total = usecb_profit(*temps, p, quad, p_g) + quad.lambda_price * quad.value(p, b)
        if ref is None:
            ref = total
        assert total == pytest.approx(ref, abs=1e-9)


# --- objective -------------------------------------------------------------

def test_objective_one_dim_minimizer():
    # beta=1, alpha2=1, dt=1, lambda=1, no grid coupling, drive 2.5:
    # f(p) = p^2 - 4p with vertex at 2 inside [0, 4].
    blocks = _empty_grid_blocks(1)
    bp = BuildingParams(0.0, 1.0, 1.0, [7.5], dt=1.0)
    quad = Quadratic(1.0, bp, blocks, np.zeros(1))
    A = quad.A
    b = quad.linear_term(np.array([10.0]), np.array([10.0]), np.zeros(0))
    vertex = -b[0] / (2.0 * A[0, 0])
    assert vertex == pytest.approx(2.0, abs=1e-12)
    grid = np.linspace(0.0, 4.0, 40_001)
    vals = [quad.value(np.array([g]), b) for g in grid]
    assert grid[int(np.argmin(vals))] == pytest.approx(2.0, abs=1e-4)


def test_objective_argmin_matches_profit_argmax():
    rng = np.random.default_rng(3)
    blocks = _empty_grid_blocks(1)
    bp = BuildingParams(0.0, 0.8, 1.5, [71.0], dt=1.0)
    quad = Quadratic(2.0, bp, blocks, np.zeros(1))
    p_g = np.zeros(0)
    temp = np.array([76.0])
    b = quad.linear_term(temp, temp, p_g)
    grid = np.linspace(0.0, 8.0, 4001)
    f_vals = np.array([quad.value(np.array([g]), b) for g in grid])
    pi_vals = np.array([usecb_profit(temp, temp, [g], quad, p_g) for g in grid])
    assert np.argmin(f_vals) == np.argmax(pi_vals)


def test_objective_midpoint_convexity():
    rng = np.random.default_rng(4)
    _, quad, _, b = _coupled_objective(rng)
    n = quad.buildings.n
    for _ in range(1000):
        p1 = rng.uniform(-0.2, 0.3, n)
        p2 = rng.uniform(-0.2, 0.3, n)
        mid = quad.value(0.5 * (p1 + p2), b)
        avg = 0.5 * (quad.value(p1, b) + quad.value(p2, b))
        assert mid <= avg + 1e-12


def test_objective_rejects_non_psd_hessian():
    blocks = _empty_grid_blocks(1)
    blocks.Q = np.array([[-10.0]])
    bp = BuildingParams(0.0, 1.0, 1.0, [70.0], dt=1.0)
    with pytest.raises(ModelError, match="Hessian"):
        Quadratic(1.0, bp, blocks, np.zeros(1))


def test_objective_rejects_indefinite_hessian_with_positive_diagonal():
    # The diagonal passes, the scaled Hessian's eigenvalues do not.
    blocks = _empty_grid_blocks(2)
    blocks.Q = np.array([[0.0, 5.0], [5.0, 0.0]])
    bp = BuildingParams(0.0, 1.0, 1.0, [70.0, 70.0], dt=1.0)
    with pytest.raises(ModelError, match="Hessian"):
        Quadratic(1.0, bp, blocks, np.zeros(2))


def test_metric_scale_and_lipschitz_constant():
    _, quad, _, _ = _coupled_objective()
    np.testing.assert_allclose(quad.scale ** 2, np.diag(quad.H2), rtol=1e-15)
    scaled = quad.H2 / np.outer(quad.scale, quad.scale)
    assert np.allclose(np.diag(scaled), 1.0, rtol=0, atol=1e-15)
    assert quad.L_W == pytest.approx(np.max(np.linalg.eigvalsh(scaled)),
                                     rel=1e-14)
    # Without feeder coupling the Hessian is diagonal: the metric is the
    # Hessian itself and one step of length 1 / L_W = 1 solves.
    uncoupled = Quadratic(1.0, quad.buildings, _empty_grid_blocks(3),
                          np.zeros(3))
    assert uncoupled.L_W == pytest.approx(1.0, rel=1e-15)


# --- gradient --------------------------------------------------------------

def test_grad_zero_at_unconstrained_minimizer():
    rng = np.random.default_rng(5)
    _, quad, _, b = _coupled_objective(rng)
    p_star = np.linalg.solve(2.0 * quad.A, -b)
    assert np.max(np.abs(quad.grad(p_star, b))) < 1e-9


def test_grad_matches_central_differences():
    rng = np.random.default_rng(6)
    _, quad, _, b = _coupled_objective(rng)
    n = quad.buildings.n
    h = 1e-5
    for _ in range(100):
        p = rng.uniform(0, 0.12, n)
        g = quad.grad(p, b)
        fd = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd[i] = (quad.value(p + e, b) - quad.value(p - e, b)) / (2 * h)
        denom = max(np.max(np.abs(g)), 1e-12)
        assert np.max(np.abs(fd - g)) / denom < 1e-6


def test_grad_difference_is_hessian_action():
    rng = np.random.default_rng(7)
    _, quad, _, b = _coupled_objective(rng)
    n = quad.buildings.n
    p = rng.uniform(0, 0.12, n)
    delta = rng.normal(size=n) * 0.01
    lhs = quad.grad(p + delta, b) - quad.grad(p, b)
    assert np.allclose(lhs, 2.0 * (quad.A @ delta), atol=1e-14)
