import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usecb import feasible
from usecb.errors import FeasibilityError, ProjectionError
from usecb.experiments import static_problem
from usecb.feasible import FeasibleSet, VoltageBand, build_band, build_feasible
from usecb.grid import matvec, voltage_approx
from usecb.sim import build_ieee37_scenario, noise_streams, read_slots

from conftest import count_newton_steps, grid_search_projection, same_bits


def _slot_set(band, p_g, p_fixed=None):
    """The set ``band`` gives at the offsets of one generation vector, with
    no fixed load unless ``p_fixed`` is given."""
    if p_fixed is None:
        p_fixed = np.zeros(band.p_min.size)
    return build_feasible(band, band.offset(p_g, p_fixed))


def _banded_set():
    # Box [0,1]^2 cut by x1 + x2 <= 1.
    return FeasibleSet(p_min=[0.0, 0.0], p_max=[1.0, 1.0],
                       A_volt=np.array([[1.0, 1.0]]), offset=np.array([0.0]),
                       v_min=-np.inf, v_max=1.0)


def _random_banded_set(rng, n=3):
    A = rng.normal(size=(2, n))
    mid = rng.uniform(0.3, 0.7, n)
    center = A @ mid
    return FeasibleSet(p_min=np.zeros(n), p_max=np.ones(n),
                       A_volt=A, offset=np.zeros(2),
                       v_min=center - rng.uniform(0.2, 0.5, 1)[0],
                       v_max=center + rng.uniform(0.2, 0.5, 1)[0])


# --- membership and simple projections --------------------------------------

def test_midpoint_of_vacuous_band_contained():
    fs = FeasibleSet(p_min=[0.0, 0.0], p_max=[1.0, 1.0])
    assert fs.contains(fs.midpoint())


def test_exceeding_box_not_contained():
    fs = FeasibleSet(p_min=[0.0, 0.0], p_max=[1.0, 1.0])
    assert not fs.contains(fs.p_max + 1.0)


def test_projection_is_clamp_without_band():
    fs = FeasibleSet(p_min=[0.0, 0.0], p_max=[1.0, 1.0])
    assert np.array_equal(fs.project(np.array([2.0, -3.0])), [1.0, 0.0])


def test_projection_identity_inside():
    fs = _banded_set()
    x = np.array([0.2, 0.3])
    assert np.max(np.abs(fs.project(x) - x)) < 1e-10


def test_projection_hand_kkt_value():
    fs = _banded_set()
    assert np.allclose(fs.project(np.array([1.0, 1.0])), [0.5, 0.5], atol=1e-9)


def test_crossed_box_rejected():
    with pytest.raises(FeasibilityError):
        FeasibleSet(p_min=[1.0], p_max=[0.0])


def test_empty_intersection_certified():
    with pytest.raises(FeasibilityError) as err:
        FeasibleSet(p_min=[0.0], p_max=[1.0],
                    A_volt=np.array([[1.0]]), offset=np.array([0.0]),
                    v_min=5.0, v_max=6.0)
    assert err.value.max_violation > 0


def test_zero_leverage_rows_kept_or_fatal():
    # A band row without control leverage is a constant: in range it stays
    # as a zero row (a row of norm below 1e-15 included), out of range it
    # empties the set by exactly its distance to the range.
    fs = FeasibleSet(p_min=[0.0, 0.0], p_max=[1.0, 1.0],
                     A_volt=np.array([[1e-17, 0.0], [1.0, 1.0]]),
                     offset=np.array([0.5, 0.0]),
                     v_min=0.0, v_max=1.0)
    assert np.array_equal(fs.A_volt, [[0.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(fs.offset, [0.5, 0.0])
    assert np.allclose(fs.project(np.array([1.0, 1.0])), [0.5, 0.5], atol=1e-9)
    with pytest.raises(FeasibilityError, match="constant band row") as err:
        FeasibleSet(p_min=[0.0, 0.0], p_max=[1.0, 1.0],
                    A_volt=np.array([[0.0, 0.0], [1.0, 1.0]]),
                    offset=np.array([2.5, 0.0]), v_min=0.0, v_max=1.0)
    assert err.value.max_violation == 1.5


# --- randomized properties ---------------------------------------------------

def test_projection_idempotent_and_member():
    rng = np.random.default_rng(10)
    for trial in range(10):
        fs = _random_banded_set(rng)
        for _ in range(100):
            x = rng.normal(scale=2.0, size=fs.dim)
            p = fs.project(x)
            assert fs.contains(p)
            assert np.linalg.norm(fs.project(p) - p) < 1e-9


def test_projection_nonexpansive():
    rng = np.random.default_rng(11)
    fs = _random_banded_set(rng)
    for _ in range(500):
        x = rng.normal(scale=2.0, size=fs.dim)
        y = rng.normal(scale=2.0, size=fs.dim)
        lhs = np.linalg.norm(fs.project(x) - fs.project(y))
        assert lhs <= np.linalg.norm(x - y) + 1e-9


def test_projection_pythagorean_inequality():
    # For b = project(x) and any member a:
    # 0.5||a-x||^2 >= 0.5||a-b||^2 + 0.5||b-x||^2.
    rng = np.random.default_rng(12)
    fs = _random_banded_set(rng)
    for _ in range(1000):
        x = rng.normal(scale=2.0, size=fs.dim)
        a = fs.project(rng.uniform(-0.5, 1.5, fs.dim))
        b = fs.project(x)
        lhs = 0.5 * np.sum((a - x) ** 2)
        rhs = 0.5 * np.sum((a - b) ** 2) + 0.5 * np.sum((b - x) ** 2)
        assert lhs >= rhs - 1e-9


def test_projection_matches_grid_search_2d():
    fs = _banded_set()
    rng = np.random.default_rng(13)
    for _ in range(5):
        x = rng.uniform(-0.5, 2.0, 2)
        exact = fs.project(x)
        brute = grid_search_projection(fs, x, step=1e-3)
        assert np.max(np.abs(exact - brute)) < 2e-3


def test_projection_matches_grid_search_3d():
    A = np.array([[1.0, 1.0, 1.0]])
    fs = FeasibleSet(p_min=np.zeros(3), p_max=0.25 * np.ones(3),
                     A_volt=A, offset=np.zeros(1), v_min=-np.inf, v_max=0.45)
    rng = np.random.default_rng(14)
    for _ in range(3):
        x = rng.uniform(-0.1, 0.4, 3)
        exact = fs.project(x)
        brute = grid_search_projection(fs, x, step=1e-3)
        assert np.max(np.abs(exact - brute)) < 2e-3


# --- construction from grid blocks ------------------------------------------

def test_vacuous_band_reduces_to_box(chain4_model):
    fs = _slot_set(build_band(chain4_model.blocks,
                              {"p_min": 0.0, "p_max": 0.12}), [0.2])
    assert fs.A_volt.shape[0] == 0 and fs.offset.size == 0
    assert np.array_equal(fs.project(np.array([1.0, -1.0])), [0.12, 0.0])


def test_offsets_monotone_in_generation(chain4_model):
    bounds = {"p_min": 0.0, "p_max": 0.12, "v_min": 0.95, "v_max": 1.05}
    band = build_band(chain4_model.blocks, bounds)
    lo = _slot_set(band, [0.1])
    hi = _slot_set(band, [0.5])
    assert np.all(hi.offset >= lo.offset)


def test_gen_rows_switch(chain4_model):
    bounds = {"p_min": 0.0, "p_max": 0.12, "v_min": 0.95, "v_max": 1.05}
    all_rows = _slot_set(build_band(chain4_model.blocks,
                                    {**bounds, "include_gen_buses": True}), [0.2])
    load_rows = _slot_set(build_band(chain4_model.blocks,
                                     {**bounds, "include_gen_buses": False}), [0.2])
    assert all_rows.A_volt.shape[0] == 3
    assert load_rows.A_volt.shape[0] == 2


def test_fixed_load_shifts_offsets_down(chain4_model):
    bounds = {"p_min": 0.0, "p_max": 0.12, "v_min": 0.9, "v_max": 1.1}
    band = build_band(chain4_model.blocks, bounds)
    bare = _slot_set(band, [0.2])
    loaded = _slot_set(band, [0.2], np.array([0.05, 0.05]))
    assert np.all(loaded.offset <= bare.offset)


def test_binding_band_projection_feasible(chain4_model):
    # Tighten the band until it actually cuts the box, then project corners.
    bounds = {"p_min": 0.0, "p_max": 0.12, "v_min": 0.9985, "v_max": 1.05}
    fs = _slot_set(build_band(chain4_model.blocks, bounds), [0.0])
    corner = fs.p_max.copy()
    proj = fs.project(corner)
    assert fs.contains(proj)
    assert not fs.contains(corner)


# --- band projection on the IEEE-37 feeder ----------------------------------
#
# The tight band (v_min 0.975) cuts the box at high load, and the three
# generator rows of A_volt repeat their parent load-bus rows exactly.

@pytest.fixture(scope="module")
def ieee37_tight():
    return build_ieee37_scenario({"voltage_band": {"v_min": 0.975}},
                                 variant="dynamic")


def _kkt_check(fs, x, scale=1.0):
    """Project x onto the band path and check the KKT conditions of
    min 0.5 ||scale * (p - x)||^2 over the set, which the solve meets in
    z = scale * p on the rows A / scale; returns the multipliers."""
    p, y = fs._project_band(x, scale)
    A, c, lo, hi = fs.A_volt, fs.offset, fs.v_min, fs.v_max
    v = A @ p + c
    # Primal feasibility.
    assert fs.band.violation(p, fs.offset) <= 1e-9
    # Dual sign and complementarity: y > 0 prices the upper bound, y < 0 the
    # lower one, and a priced row sits on its bound.
    assert np.all(np.abs(v - hi)[y > 0] <= 1e-9)
    assert np.all(np.abs(v - lo)[y < 0] <= 1e-9)
    # Stationarity z - scale * x + (A / scale).T y + mu = 0 in z = scale * p,
    # with box multipliers mu that vanish off the box faces and push inward
    # on them.
    mu = scale * (x - p) - (A / scale).T @ y
    inside = (p > fs.p_min) & (p < fs.p_max)
    assert np.all(np.abs(mu[inside]) <= 1e-12)
    assert np.all(mu[p == fs.p_max] >= -1e-12)
    assert np.all(mu[p == fs.p_min] <= 1e-12)
    return y


@pytest.mark.parametrize("slot", [0, 30, 880])
def test_band_projection_kkt_ieee37(ieee37_tight, slot):
    fs = _slot_set(ieee37_tight.band, ieee37_tight.p_g_true[slot],
                   ieee37_tight.p_fixed)
    rng = np.random.default_rng(slot)
    binding = 0
    for _ in range(40):
        x = fs.p_max + rng.normal(scale=0.05, size=fs.dim)
        if fs.contains(np.clip(x, fs.p_min, fs.p_max)):
            continue
        binding += 1
        y = _kkt_check(fs, x)
        # Heavy load pulls voltages down: only lower bounds are priced.
        assert np.all(y <= 0) and np.any(y < 0)
        assert np.array_equal(fs.project(x), fs._project_band(x)[0])
    assert binding >= 10



@pytest.mark.parametrize("metric", [False, True])
def test_project_returns_the_band_solve_bit_for_bit(ieee37_tight, metric):
    """``project`` hands its clamp and band values to the band solve at unit
    scale; in either metric it returns what the band solve returns alone.
    Points whose clamp breaks the band by less than 1e-10 come back as the
    clamp, with no multiplier (in the objective's metric, after the round
    trip through ``z = scale * x``)."""
    scn = ieee37_tight
    scale = scn.objective.scale if metric else 1.0
    near = 0
    for slot in (0, 30, 880):
        fs = _slot_set(scn.band, scn.p_g_true[slot], scn.p_fixed)
        rng = np.random.default_rng(slot)
        for x in fs.p_max + rng.normal(scale=0.05, size=(30, fs.dim)):
            band = fs.offset + fs.A_volt @ np.clip(x, fs.p_min, fs.p_max)
            if np.all((band >= fs.v_min) & (band <= fs.v_max)):
                continue  # the clamp path
            p, y = fs._project_band(x, scale)
            assert np.array_equal(fs.project(x, scale), p)
            k = int(np.argmax(np.abs(y)))
            if np.count_nonzero(y) != 1 or y[k] > 0:
                continue
            # Step off the priced lower bound along the row, on the free
            # coordinates, to 5e-11 below it.
            free = (p > fs.p_min) & (p < fs.p_max)
            a = np.where(free, fs.A_volt[k], 0.0)
            x_near = p - 5e-11 * a / (a @ a)
            band = fs.offset + fs.A_volt @ x_near
            assert fs.contains(x_near) and np.min(band - fs.v_min) < 0.0
            p, y = fs._project_band(x_near, scale)
            assert not y.any()
            assert np.max(np.abs(p - x_near)) <= (1e-15 if metric else 0.0)
            assert np.array_equal(fs.project(x_near, scale), p)
            near += 1
    assert near >= 10


@pytest.mark.parametrize("metric", [False, True])
def test_project_into_out_returns_the_projection(ieee37_tight, metric):
    """``project(x, scale, out=buf)`` writes into ``buf`` and returns it,
    holding the bits ``project(x, scale)`` returns, on a box-only set and
    on tight slot sets whose clamp breaks the band, for points and stacks,
    also when ``out`` is ``x`` itself."""
    scn = ieee37_tight
    scale = scn.objective.scale if metric else 1.0
    sets = [FeasibleSet(scn.band.p_min, scn.band.p_max)] + [
        _slot_set(scn.band, scn.p_g_true[slot], scn.p_fixed)
        for slot in (0, 30, 880)]
    assert sets[0].box_only and not any(fs.box_only for fs in sets[1:])
    broken = 0
    for i, fs in enumerate(sets):
        rng = np.random.default_rng(i)
        X = fs.p_max + rng.normal(scale=0.05, size=(30, fs.dim))
        broken += np.count_nonzero(~fs.contains(np.clip(X, fs.p_min, fs.p_max)))
        for x in (*X, X):
            want = fs.project(x, scale)
            out = np.empty_like(x)
            assert fs.project(x, scale, out=out) is out
            assert same_bits(out, want)
            x = x.copy()
            assert fs.project(x, scale, out=x) is x
            assert same_bits(x, want)
    assert broken >= 20


def test_band_projection_kkt_far_point(ieee37_tight):
    # The exact scheme's long gradient steps land far outside the box.  Then
    # almost no box coordinate is free, the dual is nearly piecewise linear,
    # and a step must not overshoot its kinks.
    fs = ieee37_tight.env_set
    rng = np.random.default_rng(0)
    for _ in range(40):
        x = fs.p_max + rng.uniform(100.0, 300.0, size=fs.dim)
        y = _kkt_check(fs, x)
        assert np.all(y <= 0) and np.any(y < 0)

# --- the diag(H2) metric -------------------------------------------------------
# The exact solver projects in the metric W = diag(H2): project(x, scale)
# with scale = W^1/2.


def _z_reference(fs, scale):
    """The set in z = scale * p, built from scratch: its Euclidean
    projection of scale * x, over scale, is the W-projection of x."""
    return FeasibleSet(scale * fs.p_min, scale * fs.p_max, fs.A_volt / scale,
                       fs.offset, fs.v_min, fs.v_max)


@pytest.mark.parametrize("slot", [0, 30, 880])
def test_metric_projection_variational_inequality(ieee37_tight, slot):
    # p is the W-projection of x exactly when (x - p)'W(q - p) <= 0 for
    # every member q.
    scn = ieee37_tight
    fs = _slot_set(scn.band, scn.p_g_true[slot], scn.p_fixed)
    scale = scn.objective.scale
    w = scale ** 2
    zs = _z_reference(fs, scale)
    rng = np.random.default_rng(slot)
    # Members on the band's faces and inside the set.
    members = [fs.project(fs.p_min + rng.uniform(-0.5, 1.5, fs.dim)
                          * (fs.p_max - fs.p_min)) for _ in range(60)]
    assert all(fs.contains(q) for q in members)
    binding = moved = 0
    for _ in range(40):
        x = fs.p_max + rng.normal(scale=0.05, size=fs.dim)
        if fs.contains(np.clip(x, fs.p_min, fs.p_max)):
            continue
        binding += 1
        p = fs.project(x, scale)
        assert fs.contains(p)
        for q in members:
            assert (x - p) @ (w * (q - p)) <= 1e-9
        moved += np.max(np.abs(p - fs.project(x))) > 1e-6
        assert np.max(np.abs(p - zs.project(scale * x) / scale)) <= 1e-12
    assert binding >= 10
    # The metric matters: the Euclidean projection is another point.
    assert moved == binding


def test_metric_projection_on_a_box_is_the_clamp():
    rng = np.random.default_rng(3)
    box = FeasibleSet(p_min=np.zeros(4), p_max=[1.0, 2.0, 0.5, 0.1])
    # The static day's slot-0 set: its band never binds near the box.
    scn = build_ieee37_scenario()
    cases = [(box, rng.uniform(3.0, 8.0, 4)), (scn.env_set, scn.objective.scale)]
    for fs, scale in cases:
        for _ in range(200):
            x = fs.p_min + rng.uniform(-0.5, 1.5, fs.dim) * (fs.p_max - fs.p_min)
            assert np.array_equal(fs.project(x, scale),
                                  np.clip(x, fs.p_min, fs.p_max))


def test_band_projection_kkt_far_point_dependent_rows():
    # An equality band on nearly dependent rows (the last is a copy of the
    # first) pins the set to one point, and x lies hundreds of box widths
    # away: the multipliers reach ~1.5e5, so rounding in x - A.T y keeps the
    # KKT residual near 2e-10, above the 1e-10 target.
    A = np.array([
        [1.0413018935437972, -0.5474880273506733, 0.21651604665178903,
         -0.7968351070970108, 0.8827784889985753],
        [1.5661227808885674, 0.4870528789990724, 0.5801090868154352,
         -0.6921953878469373, 0.33473568398464076],
        [-0.33039171160173647, 1.4926634407336081, -0.6185428789130328,
         0.5953243722706989, 0.2412225942984773],
        [1.4747571639612045, 0.6888976792633709, -1.9234679974351565,
         1.360380028737078, -0.9440514851126606],
        [0.8266091632243385, -1.680275751447977, 0.034444940437624375,
         0.5801971072179563, -2.5102021051308037],
        [0.604324726220014, -0.31773739612768226, 0.12565616314187447,
         -0.4624472124026179, 0.5123248809827917]])
    c = np.array([-0.4415049938760802, -0.34344457733089434,
                  -0.1333425706729499, 0.5817355436247235,
                  0.004596080128450145, 1.3091467492091002])
    band = np.array([0.1962817145682788, 0.9524867142893207,
                     0.009613452160162766, 0.8666944378854715,
                     -0.49543939798880043, 1.679289433436525])
    x = np.array([-342.23598215177043, 661.2639853454845, -87.59822087072791,
                  -322.5938456890156, -679.1039628512946])
    fs = FeasibleSet(np.zeros(5), np.ones(5), A, c, v_min=band, v_max=band)
    _kkt_check(fs, x)


def test_fixed_point_exit_returns_a_member_or_raises():
    # Found by stress: an equality band on a row and two scaled copies of it,
    # a point hundreds of box widths away and a diagonal metric.  The solve
    # stops at a fixed point within its rounding floor, but that point breaks
    # the band by 2.4e-9, more than membership allows; it must raise.
    A = np.array([[-2.1155285871883094, 0.44782864980104564],
                  [-0.9598548427463628, 0.21944913853623974],
                  [-9.09293143842356, 1.92485000366494]])
    c = np.array([-0.9507160487656418, -0.6142157318008946, 0.2068053863963996])
    band = np.array([-0.9769373049363479, -0.6141789526114925,
                     0.09410159877873399])
    x = np.array([-187.7069888553478, -161.9893685716249])
    scale = np.array([0.2639156853919712, 4.32650282815956])
    fs = FeasibleSet(np.zeros(2), np.ones(2), A, c, v_min=band, v_max=band)
    assert fs.contains(fs.project(x))
    try:
        p = fs.project(x, scale)
    except ProjectionError as err:
        assert "fixed point outside the set" in str(err)
    else:
        assert fs.contains(p)


def test_band_projection_kkt_one_sided(ieee37_tight):
    # Only an upper voltage bound; it binds when the loads are light.
    scn = ieee37_tight
    fs0 = _slot_set(scn.band, scn.p_g_true[450], scn.p_fixed)
    fs = FeasibleSet(fs0.p_min, fs0.p_max, fs0.A_volt, fs0.offset,
                     v_min=-np.inf, v_max=1.0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = fs.p_min + rng.normal(scale=0.02, size=fs.dim)
        y = _kkt_check(fs, x)
        assert np.all(y >= 0) and np.any(y > 0)


def test_parallel_rows_merge_to_tightest_bounds(ieee37_tight):
    fs0 = ieee37_tight.env_set
    A, c = fs0.A_volt, fs0.offset
    cos = (A @ A.T) / np.outer(np.linalg.norm(A, axis=1), np.linalg.norm(A, axis=1))
    pairs = [(k, j) for k, j in zip(*np.nonzero(np.triu(cos > 1 - 1e-12, 1)))]
    assert len(pairs) == 3
    k, j = pairs[0]
    # Give the copy a tighter lower bound and the original a tighter upper one.
    v_min = np.full(A.shape[0], 0.975)
    v_max = np.full(A.shape[0], 1.05)
    v_min[j], v_max[k] = 0.977, 1.04
    fs = FeasibleSet(fs0.p_min, fs0.p_max, A, c, v_min=v_min, v_max=v_max)
    p = fs.project(fs.p_max)
    assert fs.contains(p)
    assert c[j] + A[j] @ p >= 0.977 - 1e-9


def test_disjoint_parallel_slabs_certified_empty():
    a = np.array([1.0, 2.0, -1.0])
    with pytest.raises(FeasibilityError) as err:
        FeasibleSet(p_min=np.zeros(3), p_max=np.ones(3),
                    A_volt=np.vstack([a, 2.0 * a]), offset=np.zeros(2),
                    v_min=[0.0, 1.5], v_max=[0.5, 2.0])
    # The rows need a.p <= 0.5 and a.p >= 0.75, and the scaled copy's
    # violation counts double: every point breaks one of them by at least
    # 1/6 (at a.p = 2/3), which the reported bound must not exceed.  The
    # dual iterate where the solve crosses its floor certifies only 0.0161;
    # the best iterate after it certifies 0.1486.
    assert 0.1486 < err.value.max_violation <= 1.0 / 6.0 + 1e-12


@pytest.mark.parametrize("y, bound", [(1.0, "-1.000e+00"), (np.nan, "nan")])
def test_dual_direction_that_certifies_nothing_is_a_projection_error(y, bound):
    """On the box [0, 1] with ``-1 <= p <= 1``, a set that is not empty, no
    dual direction proves emptiness: the bound it gives is not a finite
    positive number, and the error says the solve failed."""
    A, c = np.ones((1, 1)), np.zeros(1)
    args = (A, c, -np.ones(1), np.ones(1), np.zeros(1), np.ones(1))
    with np.errstate(all="raise"):
        err = feasible._emptiness(np.array([y]), *args)
    assert isinstance(err, ProjectionError)
    assert str(err).endswith(f"(bound {bound})")
    # Against a band of p >= 2 the same direction, reversed, does.
    got = feasible._emptiness(-np.ones(1), A, c, np.full(1, 2.0), np.full(1, 3.0),
                              np.zeros(1), np.ones(1))
    assert isinstance(got, FeasibilityError) and got.max_violation == 1.0


def test_slope_root_between_overflowing_kinks_is_finite():
    """On the box [-1e300, 1e300] the slope ``-5e299 + alpha`` rises through
    0 between the kinks 0 and 1e300, and ``(a1 - a0) * s0`` overflows: the
    root is still finite, within the pair, and no numpy warning is raised."""
    args = (np.zeros(1), np.ones(1), -5e299, np.inf,
            np.full(1, -1e300), np.full(1, 1e300))
    with np.errstate(all="raise"):
        alpha = feasible._slope_root(*args)
    assert np.isfinite(alpha) and 0.0 <= alpha <= 1e300
    assert alpha == 5e299
    # A finite interpolation keeps the bits of the product form.
    w, e = np.array([0.3, 0.9]), np.array([1.0, 0.5])
    got = feasible._slope_root(w, e, 0.5, np.inf, np.zeros(2), np.ones(2))
    alphas = [0.0, 0.3]
    slopes = [0.5 - (w - a * e).clip(0.0, 1.0) @ e for a in alphas]
    assert got == alphas[0] + (alphas[1] - alphas[0]) * slopes[0] / (
        slopes[0] - slopes[1])


def _equality_band_with_copies(rng):
    """Box [0, 1]^n cut by random rows plus power-of-two copies of the first
    one, as an equality band at a member of the box."""
    n = int(rng.integers(2, 7))
    A = rng.normal(size=(int(rng.integers(1, 4)), n))
    copies = 2.0 ** rng.integers(-4, 5, size=int(rng.integers(1, 4)))
    A = np.vstack([A, copies[:, None] * A[0]])
    c = rng.normal(size=A.shape[0])
    band = c + A @ rng.uniform(0.0, 1.0, n)
    return FeasibleSet(np.zeros(n), np.ones(n), A, c, v_min=band, v_max=band)


def test_parallel_rows_crossed_by_rounding_are_not_empty():
    # An equality band whose rows repeat, scaled, makes the dual degenerate,
    # and a copy t times its first row sees t times that row's residual:
    # every projection must still stop on a member.  The first 500 sets are
    # also projected from a far point and in a random diagonal metric, drawn
    # from a generator of their own.
    rng, far = np.random.default_rng(1), np.random.default_rng(2)
    for i in range(2800):
        fs = _equality_band_with_copies(rng)
        x = rng.uniform(-0.5, 1.5, fs.dim)
        assert fs.contains(fs.project(x))
        if i < 500:
            assert fs.contains(fs.project(far.normal(scale=300.0, size=fs.dim)))
            scale = np.exp(far.uniform(-1.5, 1.5, fs.dim))
            assert fs.contains(fs.project(x, scale))


def test_parallel_rows_disjoint_by_a_micro_volt_are_empty():
    a = np.array([1.0, 2.0, -1.0])
    with pytest.raises(FeasibilityError) as err:
        FeasibleSet(p_min=np.zeros(3), p_max=np.ones(3),
                    A_volt=np.vstack([a, 2.0 * a]), offset=np.zeros(2),
                    v_min=[0.5, 1.0 + 2e-6], v_max=[0.5, 1.0 + 2e-6])
    # The rows need a.p = 0.5 and a.p = 0.5 + 1e-6, and the copy's violation
    # counts double: at best both miss by 2e-6/3 (at a.p = 0.5 + 2e-6/3).
    assert 0.0 < err.value.max_violation <= 2e-6 / 3


@pytest.mark.parametrize("above", [1e-3, 1e-6])
def test_binding_copies_both_sit_on_the_bound(ieee37_tight, above):
    # With no generation each generator row repeats its parent load row up
    # to rounding, offset included.  A lower bound on one such pair, just
    # above its value at p_max, binds both rows of the pair at once.
    scn = ieee37_tight
    fs0 = _slot_set(scn.band, scn.p_g_true[0], scn.p_fixed)
    assert not scn.p_g_true[0].any()
    A, c = fs0.A_volt, fs0.offset
    for pair in ([0, 15], [1, 22], [2, 27]):
        assert np.allclose(A[pair[0]], A[pair[1]], rtol=0, atol=1e-17)
        assert c[pair[0]] == c[pair[1]]
        v_min = np.full(A.shape[0], -np.inf)
        v_min[pair] = (c + A @ fs0.p_max)[pair] + above
        fs = FeasibleSet(fs0.p_min, fs0.p_max, A, c, v_min=v_min)
        for scale in (1.0, scn.objective.scale):
            p = fs.project(fs.p_max, scale)
            assert fs.contains(p)
            assert np.all(np.abs(c + A @ p - v_min)[pair] <= 1e-9)
        _kkt_check(fs, fs.p_max)


def test_crossed_band_bounds_rejected():
    with pytest.raises(FeasibilityError, match="crossed band bounds") as err:
        FeasibleSet(p_min=[0.0], p_max=[1.0], A_volt=np.array([[1.0]]),
                    offset=np.array([0.0]), v_min=1.0, v_max=0.5)
    # Every value misses one of the two bounds by at least half their gap.
    assert err.value.max_violation == 0.25


def test_dual_certificate_bounds_violation(ieee37_tight):
    # A band no load pattern reaches: every bus would need 1.02 pu.
    fs0 = ieee37_tight.env_set
    with pytest.raises(FeasibilityError) as err:
        FeasibleSet(fs0.p_min, fs0.p_max, fs0.A_volt, fs0.offset,
                    v_min=1.02, v_max=1.05)
    # p_min raises every voltage as far as the box allows, so its violation
    # is the smallest any box point achieves.
    best = float(np.max(1.02 - (fs0.offset + fs0.A_volt @ fs0.p_min)))
    assert 0.0 < err.value.max_violation <= best + 1e-12


# --- per-slot sets from the fixed band against sets built from scratch ------

def _scratch_set(scn, p_g, include_gen):
    """The slot's set assembled from the sensitivity blocks, with no band."""
    blocks, bounds = scn.model.blocks, scn.bounds
    sens = np.vstack([np.hstack([blocks.M, blocks.N]),
                      np.hstack([blocks.N.T, blocks.Q])])
    n_g = len(blocks.gen_buses)
    offset = voltage_approx(sens, np.concatenate([p_g, -scn.p_fixed]))
    A = -sens[:, n_g:]
    first = 0 if include_gen else n_g
    n_c = scn.n_loads
    return FeasibleSet(np.full(n_c, bounds["p_min"]), np.full(n_c, bounds["p_max"]),
                       A[first:], offset[first:],
                       v_min=bounds["v_min"], v_max=bounds["v_max"])


@pytest.mark.parametrize("band", [
    {"v_min": 0.95},
    {"v_min": 0.975},
    {"v_min": 0.975, "include_gen_buses": False},
])
def test_band_sets_match_scratch_sets(band):
    scn = build_ieee37_scenario({"voltage_band": band}, variant="dynamic")
    include_gen = scn.bounds["include_gen_buses"]
    rng = np.random.default_rng(11)
    gens = [scn.p_g_true[t] for t in (0, 300, 450, 880)]
    gens += [scn.p_g_true[450] * rng.uniform(0.5, 1.5, scn.p_g_true.shape[1])
             for _ in range(3)]
    band_paths = 0
    for p_g in gens:
        fs = _slot_set(scn.band, p_g, scn.p_fixed)
        ref = _scratch_set(scn, p_g, include_gen)
        assert np.array_equal(fs.A_volt, ref.A_volt)
        assert np.array_equal(fs.offset, ref.offset)
        assert np.array_equal(fs.v_min, ref.v_min)
        assert np.array_equal(fs.v_max, ref.v_max)
        points = [fs.midpoint(), fs.p_max, fs.p_min - 0.1]
        points += [fs.p_max + rng.normal(scale=0.05, size=fs.dim) for _ in range(8)]
        points += [fs.p_max + rng.uniform(100.0, 300.0, size=fs.dim)]
        for x in points:
            assert fs.contains(x) == ref.contains(x)
            assert np.array_equal(fs.project(x), ref.project(x))
            band_paths += not fs.contains(np.clip(x, fs.p_min, fs.p_max))
    # The loose band never leaves the clamp path; the tight one must.
    assert (band_paths > 0) == (band["v_min"] == 0.975)


@pytest.mark.parametrize("include_gen", [True, False])
def test_empty_band_set_raises_like_scratch_set(include_gen):
    # No generation and a 0.99 floor: every load pattern sags below it.
    scn = build_ieee37_scenario(
        {"voltage_band": {"v_min": 0.99, "include_gen_buses": include_gen}},
        variant="static")
    p_g = np.zeros(scn.p_g_true.shape[1])
    with pytest.raises(FeasibilityError) as got:
        _slot_set(scn.band, p_g, scn.p_fixed)
    with pytest.raises(FeasibilityError) as want:
        _scratch_set(scn, p_g, include_gen)
    assert got.value.max_violation > 0.0
    assert got.value.max_violation == want.value.max_violation


@pytest.mark.parametrize("include_gen", [True, False])
@pytest.mark.parametrize("v_min", [0.95, 0.975])
def test_stacked_offsets_equal_each_slot_alone(v_min, include_gen):
    """A day of generation readings gives, row by row, the offsets of each
    reading alone and of the per-slot formula, bit for bit."""
    scn = build_ieee37_scenario(
        {"voltage_band": {"v_min": v_min, "include_gen_buses": include_gen}},
        variant="dynamic")
    band = scn.band
    p_g = read_slots(scn, scn.noise, np.arange(scn.horizon), noise_streams(1))[0]
    stack = band.offset(p_g, scn.p_fixed)
    assert stack.shape == (scn.horizon, band.dead.size)
    for t in range(scn.horizon):
        alone = voltage_approx(band.sens, np.concatenate([p_g[t], -scn.p_fixed]))
        assert np.array_equal(stack[t], alone[band.first_row:])
        assert np.array_equal(stack[t], band.offset(p_g[t], scn.p_fixed))


def test_stacked_offsets_keep_dead_rows():
    """Rows with no control leverage stay in the stack, each row as its
    slot's alone, and each slot's set takes the slot's offsets as they are,
    constants included, and checks the constants."""
    scn = build_ieee37_scenario({"voltage_band": {"v_min": 0.975}},
                                variant="dynamic")
    n_g = scn.p_g_true.shape[1]
    sens = scn.band.sens.copy()
    sens[[n_g + 4, n_g + 9], n_g:] = 0.0
    band = VoltageBand(scn.band.p_min, scn.band.p_max, -sens[:, n_g:],
                       scn.bounds["v_min"], scn.bounds["v_max"], sens=sens)
    assert band.dead.sum() == 2
    p_g = read_slots(scn, scn.noise, np.arange(scn.horizon), noise_streams(2))[0]
    stack = band.offset(p_g, scn.p_fixed)
    for t in range(scn.horizon):
        assert np.array_equal(stack[t], band.offset(p_g[t], scn.p_fixed))
    for t in (0, 300, 450, 880):
        fs = build_feasible(band, stack[t])
        assert np.array_equal(fs.offset, stack[t])
        assert not fs.A_volt[[n_g + 4, n_g + 9]].any()
    # A dead row's constant below the band empties the set.
    low = stack[450].copy()
    low[n_g + 4] = 0.9
    with pytest.raises(FeasibilityError):
        build_feasible(band, low)


# --- row stacks ----------------------------------------------------------------

def test_row_stack_projection_equals_rows_alone(ieee37_tight):
    """One set and a stack of points: each row projects exactly as it does
    alone, band rows included."""
    scn = ieee37_tight
    fs = _slot_set(scn.band, scn.p_g_true[880], scn.p_fixed)
    rng = np.random.default_rng(5)
    X = fs.p_max + rng.normal(scale=0.05, size=(5, scn.n_loads))
    X[1] = fs.midpoint()
    want = [fs.project(x) for x in X]
    assert np.array_equal(fs.project(X), want)
    assert np.array_equal(fs.contains(want), [True] * len(X))
    band_rows = [not np.array_equal(w, np.clip(x, fs.p_min, fs.p_max))
                 for w, x in zip(want, X)]
    assert any(band_rows) and not all(band_rows)


# --- the one-row solve ------------------------------------------------------------
# Before its Newton solve the band projection prices only the most violated
# row, at the root its breakpoint search finds, and keeps that point when
# every row then meets Newton's stopping rule.


def _newton_only(monkeypatch):
    """Make every band projection decline its one-row solve, so Newton
    starts from y = 0 as it would alone; returns the list the declined
    attempts are counted in, so a test can see that it took effect."""
    declined = []

    def one_row(*args):
        declined.append(1)
        return None

    monkeypatch.setattr(feasible, "_one_row", one_row)
    return declined


@pytest.mark.parametrize("metric", [False, True])
def test_one_row_solve_meets_kkt_without_newton(ieee37_tight, monkeypatch, metric):
    scn = ieee37_tight
    scale = scn.objective.scale if metric else 1.0
    calls = count_newton_steps(monkeypatch)
    accepted = []
    for slot in (0, 30, 880):
        fs = _slot_set(scn.band, scn.p_g_true[slot], scn.p_fixed)
        rng = np.random.default_rng(slot)
        for _ in range(40):
            x = fs.p_max + rng.normal(scale=0.05, size=fs.dim)
            if fs.contains(np.clip(x, fs.p_min, fs.p_max)):
                continue
            y = _kkt_check(fs, x, scale)
            if calls[-1] == 0:
                accepted.append((fs, x, fs._project_band(x, scale)[0]))
                assert np.count_nonzero(y) == 1
    assert len(accepted) >= 20
    # Newton alone reaches the same points, within its rounding.
    declined = _newton_only(monkeypatch)
    for fs, x, p in accepted:
        assert np.max(np.abs(fs._project_band(x, scale)[0] - p)) <= 1e-13
    assert len(declined) == len(accepted)


def test_two_active_rows_fall_back_to_newton(monkeypatch):
    # Box [0, 1]^2 cut by p1 <= 0.5 and p2 <= 0.5: from (0.9, 1) the one-row
    # solve prices p2 alone and leaves p1 = 0.9 above its bound.
    fs = FeasibleSet(np.zeros(2), np.ones(2), np.eye(2), np.zeros(2),
                     v_max=0.5)
    x = np.array([0.9, 1.0])
    calls = count_newton_steps(monkeypatch)
    p, y = fs._project_band(x)
    assert len(calls) == 1 and calls[0] > 0
    assert np.count_nonzero(y) == 2
    assert np.array_equal(p, [0.5, 0.5])
    declined = _newton_only(monkeypatch)
    q, z = fs._project_band(x)
    assert declined == [1]
    assert np.array_equal(p, q) and np.array_equal(y, z)


def test_one_row_solve_on_a_row_with_zero_entries(monkeypatch):
    # The row leaves p2 and p3 alone: their kinks divide by a zero entry,
    # to nan where x sits on a bound and to inf elsewhere.  The root of
    # clip(0.8 - y) + clip(2 - y) = 0.5 over [0, 1] is y = 1.5.
    fs = FeasibleSet(np.zeros(4), np.ones(4), [[1.0, 0.0, 0.0, 1.0]], [0.0],
                     v_max=0.5)
    x = np.array([0.8, 0.0, 1.0, 2.0])
    calls = count_newton_steps(monkeypatch)
    with np.errstate(all="raise"):
        p, y = fs._project_band(x)
    assert calls == [0]
    assert np.array_equal(p, [0.0, 0.0, 1.0, 0.5]) and np.array_equal(y, [1.5])
    _kkt_check(fs, x)


def test_one_row_out_of_reach_is_certified_empty(monkeypatch):
    # a.p + 0.5 peaks at 1.5 over the box (p = (1, 0, any)), half a volt
    # short of v_min: the breakpoint search finds no root, and the Newton
    # solve certifies the set empty with its own bound.
    args = ([0.0, 0.0, 0.0], [1.0, 2.0, 1.0], [[1.0, -2.0, 0.0]], [0.5])
    with pytest.raises(FeasibilityError) as err:
        FeasibleSet(*args, v_min=2.0)
    assert err.value.max_violation == pytest.approx(0.5, rel=1e-15)
    declined = _newton_only(monkeypatch)
    with pytest.raises(FeasibilityError) as alone:
        FeasibleSet(*args, v_min=2.0)
    assert declined == [1]
    assert err.value.max_violation == alone.value.max_violation


@pytest.mark.parametrize("metric", [False, True])
def test_stack_mixing_one_row_and_newton_solves(ieee37_tight, monkeypatch, metric):
    scn = ieee37_tight
    scale = scn.objective.scale if metric else 1.0
    fs = _slot_set(scn.band, scn.p_g_true[30], scn.p_fixed)
    rng = np.random.default_rng(7)
    # Most of these points bind one row at their projection, some several,
    # and one meets the band on the clamp.
    X = np.vstack([fs.p_max + rng.normal(scale=0.05, size=(8, fs.dim)),
                   fs.p_max + rng.uniform(100.0, 300.0, size=(4, fs.dim)),
                   fs.midpoint()])
    calls = count_newton_steps(monkeypatch)
    want = [fs.project(x, scale) for x in X]
    newton = [c > 0 for c in calls]
    assert any(newton) and not all(newton) and len(calls) < len(X)
    assert np.array_equal(fs.project(X, scale), want)


@pytest.mark.parametrize("metric", [False, True])
def test_constant_rows_leave_the_projection_unchanged(ieee37_tight, monkeypatch,
                                                      metric):
    """In-range constant rows, kept as zero rows, move no projection: bit
    for bit on the clamp and one-row paths, and within 1e-12, at the KKT
    conditions, where Newton runs (its shift and rounding floor count the
    rows); for points and for a stack."""
    scn = ieee37_tight
    scale = scn.objective.scale if metric else 1.0
    ref = _slot_set(scn.band, scn.p_g_true[30], scn.p_fixed)
    at = [0, 17, 17, ref.v_min.size]
    fs = FeasibleSet(ref.p_min, ref.p_max, np.insert(ref.A_volt, at, 0.0, axis=0),
                     np.insert(ref.offset, at, [0.98, 1.0, 1.04, 0.975]),
                     np.insert(ref.v_min, at, ref.v_min[0]),
                     np.insert(ref.v_max, at, ref.v_max[0]))
    assert not fs.box_only and not ref.box_only
    rng = np.random.default_rng(7)
    X = np.vstack([fs.p_max + rng.normal(scale=0.05, size=(8, fs.dim)),
                   fs.p_max + rng.uniform(100.0, 300.0, size=(4, fs.dim)),
                   fs.midpoint()])
    calls = count_newton_steps(monkeypatch)
    paths = []
    for x in X:
        before = len(calls)
        ref.project(x, scale)
        paths.append("clamp" if len(calls) == before
                     else "newton" if calls[-1] else "one-row")
    assert set(paths) == {"clamp", "one-row", "newton"}
    for got, want in ((fs.project(X, scale), ref.project(X, scale)),
                      ([fs.project(x, scale) for x in X],
                       [ref.project(x, scale) for x in X])):
        for path, x, g, w in zip(paths, X, got, want):
            if path == "newton":
                assert np.max(np.abs(g - w)) <= 1e-12
                _kkt_check(fs, x, scale)
            else:
                assert np.array_equal(g, w)


# --- sets whose band holds the box ---------------------------------------------
# Where every box point meets the band, with a margin for rounding, the set
# is marked box_only: it skips the certificate and projects by the clamp
# without evaluating the band.


def _full_path(fs):
    """``fs`` with its band tested on every projection."""
    full = copy.copy(fs)
    full.box_only = False
    return full


@st.composite
def box_holding_sets(draw):
    """A box and rows of several scales, zero rows among them, with bounds
    that hold the box at a relative gap ``f`` beyond the rounding margin
    (0: right at it), one of them possibly open; points whose clamps fall
    inside, on faces and on corners, and a diagonal metric."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 8)), draw(st.integers(0, 5))
    size = 10.0 ** draw(st.integers(-3, 2))
    p_min = rng.uniform(-1.0, 1.0, n) * size
    p_max = p_min + rng.uniform(0.0, 2.0, n) * size
    A = rng.normal(size=(m, n)) * 10.0 ** draw(st.integers(-3, 1))
    zero = draw(st.integers(0, 2))
    A = np.insert(A, rng.integers(0, m + 1, zero), 0.0, axis=0)
    m += zero
    offset = rng.normal(1.0, 0.1, m)
    f = draw(st.sampled_from([0.0, 1e-9, 1e-3, 1.0]))
    band = VoltageBand(p_min, p_max, A)
    # The margin grows with the bounds' size, so place them once more at
    # the margin of the band that has them.
    for _ in range(2):
        lo = offset + band.A_mid - band.A_rad * (1.0 + f)
        hi = offset + band.A_mid + band.A_rad * (1.0 + f)
        band = VoltageBand(p_min, p_max, A, lo, hi)
    if m and draw(st.booleans()):
        lo[0] = -np.inf
    fs = FeasibleSet(p_min, p_max, A, offset, lo, hi)
    X = p_min + (p_max - p_min) * rng.uniform(-1.0, 2.0, (6, n))
    X[0] = np.where(rng.random(n) < 0.5, p_min - size, p_max + size)
    X[1] = np.where(rng.random(n) < 0.5, -np.inf, np.inf)
    # The corners where each row peaks and bottoms out over the box.
    up = A > 0
    X = np.vstack([X, np.where(up, p_max + size, p_min - size),
                   np.where(up, p_min - size, p_max + size)])
    return fs, X, rng.uniform(0.1, 10.0, n), f


@settings(max_examples=300, deadline=None)
@given(box_holding_sets())
def test_box_only_projection_equals_the_band_tested_one(case):
    """A box_only set's clamp passes the band test as ``project`` evaluates
    it, rounding included, at every row's extreme corners, and is, bit for
    bit, what testing the band gives: for points, stacks and in a diagonal
    metric."""
    fs, X, scale, f = case
    if f > 0.0:
        assert fs.box_only
    if not fs.box_only:
        return
    clamp = np.minimum(np.maximum(X, fs.p_min), fs.p_max)
    band = fs.offset + matvec(fs.A_volt, clamp)
    assert ((band >= fs.v_min) & (band <= fs.v_max)).all()
    full = _full_path(fs)
    assert np.array_equal(full.project(X), clamp)
    for s in (1.0, scale):
        assert np.array_equal(fs.project(X, s), full.project(X, s))
        for x in X:
            assert np.array_equal(fs.project(x, s), full.project(x, s))


@pytest.mark.parametrize("short", [4.0, -4.0])
def test_band_within_the_margin_of_the_box_takes_the_full_path(short, monkeypatch):
    # Box [0, 1]^2 and p1 + p2 <= 2 - short eps: the corner (1, 1) is cut
    # off (short > 0) or just kept (short < 0), by less than the margin, so
    # the set tests its band, and the cut corner goes to the band solve
    # (which keeps it, well inside its KKT tolerance).
    v_max = 2.0 - short * feasible._EPS
    fs = FeasibleSet(np.zeros(2), np.ones(2), [[1.0, 1.0]], [0.0], v_max=v_max)
    assert not fs.box_only
    assert fs.band.A_rad[0] - 1.0 > abs(short) * feasible._EPS
    calls = count_newton_steps(monkeypatch)
    assert np.array_equal(fs.project(np.array([5.0, 5.0])), [1.0, 1.0])
    assert len(calls) == (short > 0)


def test_nan_point_on_a_banded_set_raises_a_package_error():
    # A nan coordinate gives a nan residual, which no solve can meet and
    # which must not read as an emptiness certificate.
    with pytest.raises(ProjectionError, match="non-finite point"):
        _banded_set().project(np.array([np.nan, 2.0]))


def test_dead_row_out_of_range_empties_a_box_holding_set():
    # The live row p1 + p2 in [0, 2] sits inside [-1, 10]; the dead row's
    # constant 20 does not.
    args = (np.zeros(2), np.ones(2), [[0.0, 0.0], [1.0, 1.0]])
    assert FeasibleSet(*args, [5.0, 0.0], -1.0, 10.0).box_only
    band = VoltageBand(*args, -1.0, 10.0)
    assert np.array_equal(band.holds_box(np.array([[5.0, 0.0], [20.0, 0.0]])),
                          [True, False])
    with pytest.raises(FeasibilityError):
        FeasibleSet(*args, [20.0, 0.0], -1.0, 10.0)


@pytest.mark.parametrize("variant", ["static", "regret", "dynamic"])
def test_bundled_sets_are_box_only(variant):
    scn = build_ieee37_scenario(variant=variant)
    assert scn.env_set.box_only
    assert FeasibleSet(scn.band.p_min, scn.band.p_max).box_only


def test_slot_flags_equal_each_slot_set(ieee37_tight):
    """The horizon's flags are each slot's set's own, and the tight day
    has slots of both kinds."""
    scn = ieee37_tight
    offsets = scn.band.offset(scn.p_g_true, scn.p_fixed)
    flags = scn.band.holds_box(offsets)
    assert flags.any() and not flags.all()
    for t in range(0, scn.horizon, 15):
        assert build_feasible(scn.band, offsets[t]).box_only == flags[t]


def test_static_tight_band_binds_at_the_optimum():
    """``ieee37_static`` at ``v_min`` 0.985 (the output digest's
    ``static_tight``) is not box_only, and a band row is active at a*."""
    scn = build_ieee37_scenario({"voltage_band": {"v_min": 0.985}},
                                variant="static")
    fs = scn.env_set
    assert not fs.box_only
    a_star, _ = static_problem(scn)
    volts = fs.offset + fs.A_volt @ a_star
    assert np.min(volts - fs.v_min) <= 1e-9
