import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usecb.errors import IngestionError, ModelError
from usecb.grid import (GridModel, Line, build_admittance, compute_sensitivity,
                        decompose_blocks, full_power_loss, grid_intake,
                        grounded_impedance, load_network_csv, matvec,
                        power_loss, radial_line_flows, row_dot, voltage_approx)
from usecb.sim import build_ieee37_scenario

from conftest import ac_twobus_exact, same_bits


def _random_tree_lines(rng, n):
    lines = []
    for b in range(1, n):
        a = int(rng.integers(0, b))
        z = complex(rng.uniform(0.005, 0.05), rng.uniform(0.005, 0.05))
        lines.append(Line(a, b, 1.0 / z))
    return lines


# --- admittance assembly ---------------------------------------------------

def test_single_line_laplacian():
    Y = build_admittance([Line(0, 1, 1.0)], 2)
    assert np.allclose(Y, [[1, -1], [-1, 1]])


def test_parallel_lines_merge():
    Y = build_admittance([Line(0, 1, 1.0), Line(0, 1, 1.0)], 2)
    assert np.allclose(Y, [[2, -2], [-2, 2]])


def test_zero_shunt_rows_sum_to_zero():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        Y = build_admittance(_random_tree_lines(rng, n), n)
        assert np.max(np.abs(Y.sum(axis=1))) < 1e-12
        assert np.max(np.abs(Y - Y.T)) == 0.0


def test_shunt_enters_diagonal_only():
    Y = build_admittance([Line(0, 1, 1.0, shunt_admittance=0.5j)], 2)
    assert Y[0, 1] == -1.0
    assert Y[0, 0] == 1.0 + 0.5j


def test_disconnected_graph_rejected():
    lines = [Line(0, 1, 1.0), Line(2, 3, 1.0)]
    with pytest.raises(ModelError, match="disconnected"):
        build_admittance(lines, 4)


def test_degenerate_line_rejected():
    with pytest.raises(ModelError):
        Line(1, 1, 1.0)
    with pytest.raises(ModelError):
        Line(0, 1, 0.0)


# --- sensitivity -----------------------------------------------------------

def test_sensitivity_two_bus_hand_value():
    Y = build_admittance([Line(0, 1, 1.0)], 2)
    X = compute_sensitivity(Y)
    assert np.allclose(np.real(X), [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)


def test_sensitivity_defining_identity_random_networks():
    rng = np.random.default_rng(7)
    for _ in range(8):
        n = int(rng.integers(2, 15))
        Y = build_admittance(_random_tree_lines(rng, n), n)
        X = compute_sensitivity(Y)
        target = np.eye(n) - np.ones((n, n)) / n
        assert np.max(np.abs(Y @ X - target)) < 1e-9
        assert np.max(np.abs(X @ np.ones(n))) < 1e-9
        assert np.max(np.abs(X - X.T)) < 1e-9


def test_sensitivity_singular_rejected():
    Y = np.zeros((3, 3), dtype=complex)
    with pytest.raises(ModelError, match="singular"):
        compute_sensitivity(Y)


# --- block decomposition ---------------------------------------------------

def test_blocks_three_bus_chain_hand_values():
    Y = build_admittance([Line(0, 1, 1.0), Line(1, 2, 1.0)], 3)
    Z = np.real(grounded_impedance(Y))
    M, Nblk, Q = decompose_blocks(Z, [1], [2])
    # Common-path impedances to the PCC: bus1 path r=1, bus2 path r=2.
    assert np.allclose(M, [[1.0]])
    assert np.allclose(Nblk, [[1.0]])
    assert np.allclose(Q, [[2.0]])


def test_blocks_degenerate_no_generation():
    Y = build_admittance([Line(0, 1, 1.0), Line(1, 2, 1.0)], 3)
    Z = np.real(grounded_impedance(Y))
    M, Nblk, Q = decompose_blocks(Z, [], [1, 2])
    assert M.shape == (0, 0) and Nblk.shape == (0, 2)
    assert np.array_equal(Q, Z)


def test_blocks_reassembly_bit_exact(chain4_model):
    blocks = chain4_model.blocks
    assert np.array_equal(blocks.reassemble(), blocks.X)


def test_blocks_overlap_rejected():
    Z = np.eye(3)
    with pytest.raises(ModelError, match="partition"):
        decompose_blocks(Z, [1, 2], [2, 3])


# --- voltage ---------------------------------------------------------------

def test_voltage_zero_injection_nominal():
    X = np.array([[0.25, -0.25], [-0.25, 0.25]])
    assert np.array_equal(voltage_approx(X, [0.0, 0.0]), [1.0, 1.0])


def test_voltage_two_bus_hand_value():
    X = np.array([[0.25, -0.25], [-0.25, 0.25]])
    assert np.allclose(voltage_approx(X, [0.1, -0.1]), [1.05, 0.95])


def test_voltage_linear_in_injection():
    X = np.array([[0.25, -0.25], [-0.25, 0.25]])
    p = np.array([0.03, -0.05])
    dev = voltage_approx(X, p) - 1.0
    dev_scaled = voltage_approx(X, 2.0 * p) - 1.0
    assert np.array_equal(dev_scaled, 2.0 * dev)


def test_model_bus_voltages_pin_pcc(chain4_model):
    v = chain4_model.bus_voltages([0.5], [0.1, 0.2])
    assert v[0] == 1.0
    assert v.shape == (4,)


# --- loss and intake -------------------------------------------------------

def test_loss_zero_power():
    M = np.zeros((0, 0))
    Nblk = np.zeros((0, 1))
    Q = np.array([[1.0]])
    assert power_loss(M, Nblk, Q, [], [0.0]) == 0.0


def test_loss_two_bus_hand_value():
    # One load of 0.1 pu behind a unit-resistance line: loss = I^2 r = 0.01.
    Y = build_admittance([Line(0, 1, 1.0)], 2)
    Z = np.real(grounded_impedance(Y))
    M, Nblk, Q = decompose_blocks(Z, [], [1])
    loss = power_loss(M, Nblk, Q, [], [0.1])
    assert loss == pytest.approx(0.01, abs=1e-15)
    # Same number through the full quadratic form with the balancing PCC
    # injection folded in.
    X = compute_sensitivity(Y)
    assert full_power_loss(X, [0.1, -0.1]) == pytest.approx(loss, abs=1e-15)


def test_loss_block_form_equals_balanced_full_form():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        lines = _random_tree_lines(rng, n)
        n_g = int(rng.integers(1, n - 1))
        perm = rng.permutation(np.arange(1, n))
        gen, load = sorted(perm[:n_g]), sorted(perm[n_g:])
        model = GridModel.build(lines, n, gen, load)
        p_g = rng.uniform(0, 0.3, len(gen))
        p_c = rng.uniform(0, 0.3, len(load))
        blk = model.blocks
        block_val = power_loss(blk.M, blk.N, blk.Q, p_g, p_c)
        p_full = np.zeros(n)
        p_full[np.asarray(gen)] = p_g
        p_full[np.asarray(load)] = -p_c
        p_full[0] = -p_full.sum()
        full_val = full_power_loss(compute_sensitivity(model.Y), p_full)
        assert block_val == pytest.approx(full_val, abs=1e-12)


def test_intake_examples():
    assert grid_intake([], [0.0], 0.0) == 0.0
    assert grid_intake([0.2, 0.3], [0.5], 0.0) == pytest.approx(0.0, abs=1e-15)
    assert grid_intake([0.1], [0.1], 0.01) == pytest.approx(0.01, abs=1e-15)


def test_loss_ac_oracle_two_bus_within_two_percent(twobus_model):
    z = complex(0.02, 0.04)
    blk = twobus_model.blocks
    for p in np.linspace(0.01, 0.1, 10):
        for sign in (+1.0, -1.0):
            s = sign * p  # injection; negative = consumption
            _, loss_exact = ac_twobus_exact(z, s)
            loss_lin = power_loss(blk.M, blk.N, blk.Q, [], [-s])
            assert abs(loss_lin - loss_exact) / loss_exact < 0.02


# --- radial flows ----------------------------------------------------------

def test_flows_central_generation_chain():
    flows = radial_line_flows([(0, 1), (1, 2), (2, 3), (3, 4)],
                              [20, -5, -5, -5, -5])
    assert np.allclose(flows, [20, 15, 10, 5], atol=1e-9)


def test_flows_distributed_generation_chain():
    flows = radial_line_flows([(i, i + 1) for i in range(8)],
                              [2.5, -5, 5, -5, 5, -5, 5, -5, 2.5])
    assert np.allclose(np.abs(flows), 2.5, atol=1e-9)


def test_flows_zero_injections():
    flows = radial_line_flows([(0, 1), (1, 2)], [0.0, 0.0, 0.0])
    assert np.array_equal(flows, [0.0, 0.0])


def test_flows_loss_ratio_sixteen():
    # Thermal loading goes with the square of the flow: (20/5)^2.
    assert (20.0 / 5.0) ** 2 == 16.0


def test_flows_conservation_at_interior_buses():
    rng = np.random.default_rng(5)
    edges = [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]
    inj = rng.normal(size=6)
    inj[0] -= inj.sum()
    flows = radial_line_flows(edges, inj)
    # At each non-root bus: inflow from parent + own injection = outflow.
    into = {child: flows[k] for k, (a, child) in enumerate(edges)}
    out = {b: 0.0 for b in range(6)}
    for k, (a, child) in enumerate(edges):
        out[a] += flows[k]
    for b in range(1, 6):
        assert into[b] + inj[b] - out[b] == pytest.approx(0.0, abs=1e-12)


def test_flows_cycle_rejected():
    with pytest.raises(ModelError):
        radial_line_flows([(0, 1), (1, 2), (2, 0)], [0, 0, 0])


def test_flows_disconnected_rejected():
    with pytest.raises(ModelError):
        radial_line_flows([(0, 1), (2, 3)], [0, 0, 0, 0, 0])


# --- CSV loader ------------------------------------------------------------

def test_load_network_csv_roundtrip(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("from,to,r,x,b_shunt\n0,1,0.02,0.04,0\n1,2,0.01,0.02,0\n")
    lines, n = load_network_csv(path)
    assert n == 3 and len(lines) == 2
    assert lines[0].admittance == pytest.approx(1.0 / complex(0.02, 0.04))


def test_load_network_csv_rejects_nan(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("from,to,r,x,b_shunt\n0,1,nan,0.04,0\n")
    with pytest.raises(IngestionError, match="NaN"):
        load_network_csv(path)


def test_load_network_csv_rejects_negative_resistance(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("from,to,r,x,b_shunt\n0,1,-0.01,0.04,0\n")
    with pytest.raises(IngestionError, match="negative resistance"):
        load_network_csv(path)


def test_load_network_csv_requires_header(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("0,1,0.02,0.04,0\n")
    with pytest.raises(IngestionError, match="header"):
        load_network_csv(path)


# --- vector and stacked products ----------------------------------------------

def _check_vector_forms(M, x, y):
    """A vector's plain product equals the column form that a row of a
    stack takes, bit for bit, and so does each row of a stack."""
    assert same_bits(matvec(M, x), (M @ x[..., None])[..., 0])
    assert same_bits(row_dot(x, y), (x[..., None, :] @ y[..., None])[..., 0, 0])
    stack = np.stack([x, y, -x])
    assert same_bits(matvec(M, stack), np.stack([matvec(M, v) for v in stack]))
    assert same_bits(row_dot(stack, stack),
                      np.array([row_dot(v, v) for v in stack]))


@st.composite
def product_cases(draw):
    """A matrix and two vectors of 1 to 120 entries, each scaled by its own
    power of ten between 1e-5 and 1e5."""
    m, n = draw(st.integers(1, 120)), draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def scaled(shape):
        return rng.standard_normal(shape) * 10.0 ** draw(st.floats(-5.0, 5.0))

    return scaled((m, n)), scaled(n), scaled(n)


@settings(max_examples=300, deadline=None)
@given(product_cases())
def test_vector_products_equal_the_column_form(case):
    _check_vector_forms(*case)


@pytest.mark.parametrize("matrix", ["H2", "A_volt"])
def test_vector_products_on_the_bundled_matrices(matrix):
    scn = build_ieee37_scenario({"horizon": 20})
    M = scn.objective.H2 if matrix == "H2" else scn.band.A_volt
    lo, hi = scn.env_set.p_min, scn.env_set.p_max
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y = lo + rng.random((2, lo.size)) * (hi - lo)
        _check_vector_forms(M, x, y)
