import numpy as np
import pytest

from usecb import feasible
from usecb.grid import GridModel, Line


def ac_twobus_exact(z, s, U_N=1.0, tol=1e-14, max_iter=1000):
    """Exact single-line AC solve by fixed-point iteration.

    Iterates u = U_N + z * conj(s/u) from u = U_N; returns (u, loss) with
    loss = r |s/u|^2.  Independent oracle for the linear loss formula.
    """
    u = complex(U_N, 0.0)
    for _ in range(max_iter):
        u_new = U_N + z * np.conj(s / u)
        if abs(u_new - u) < tol:
            u = u_new
            break
        u = u_new
    current = abs(s / u)
    return u, z.real * current * current


def grid_search_projection(fset, x, step=1e-3, chunk=200_000):
    """Exhaustive nearest-feasible-point search on a dense grid.

    Walks the full box grid at ``step`` resolution, filters by the band
    constraints, and returns the closest surviving point to ``x``.  Only
    meant for <= 3 dimensions.
    """
    x = np.asarray(x, dtype=float)
    axes = [np.arange(lo, hi + 0.5 * step, step)
            for lo, hi in zip(fset.p_min, fset.p_max)]
    best = None
    best_d = np.inf
    if len(axes) == 1:
        grids = axes[0][:, None]
        best, best_d = _scan(fset, x, grids, best, best_d)
    else:
        tail = np.stack([g.ravel() for g in
                         np.meshgrid(*axes[1:], indexing="ij")], axis=-1)
        for v0 in axes[0]:
            pts = np.empty((tail.shape[0], len(axes)))
            pts[:, 0] = v0
            pts[:, 1:] = tail
            best, best_d = _scan(fset, x, pts, best, best_d)
    assert best is not None, "grid search found no feasible point"
    return best


def _scan(fset, x, pts, best, best_d):
    if fset.A_volt.size:
        band = fset.offset[None, :] + pts @ fset.A_volt.T
        ok = np.all(band >= fset.v_min - 1e-12, axis=1) & \
            np.all(band <= fset.v_max + 1e-12, axis=1)
        pts = pts[ok]
        if not pts.shape[0]:
            return best, best_d
    d = np.sum((pts - x[None, :]) ** 2, axis=1)
    k = int(np.argmin(d))
    if d[k] < best_d:
        return pts[k].copy(), float(d[k])
    return best, best_d


def same_bits(got, want):
    """Whether two arrays (or scalars) hold the same bytes: the same dtype,
    shape and bits, telling ``-0.0`` from ``0.0``."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def count_newton_steps(monkeypatch):
    """Record, per band projection, how many ``_nonneg_qp`` calls (Newton
    steps) it makes: one entry per projection, appended as it starts."""
    calls = []
    project_band, nonneg_qp = feasible.FeasibleSet._project_band, feasible._nonneg_qp

    def counted(self, *args):
        calls.append(0)
        return project_band(self, *args)

    def qp(*args):
        calls[-1] += 1
        return nonneg_qp(*args)

    monkeypatch.setattr(feasible.FeasibleSet, "_project_band", counted)
    monkeypatch.setattr(feasible, "_nonneg_qp", qp)
    return calls


@pytest.fixture
def twobus_model():
    lines = [Line.from_impedance(0, 1, 0.02, 0.04)]
    return GridModel.build(lines, 2, gen_buses=[], load_buses=[1])


@pytest.fixture
def chain4_model():
    # 0 - 1 - 2 - 3 with one generator and two buildings.
    lines = [
        Line.from_impedance(0, 1, 0.010, 0.020),
        Line.from_impedance(1, 2, 0.012, 0.018),
        Line.from_impedance(1, 3, 0.008, 0.016),
    ]
    return GridModel.build(lines, 4, gen_buses=[1], load_buses=[2, 3])
