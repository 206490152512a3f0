"""Convex constraint set for the controllable load vector.

The set is a power box [p_min, p_max] intersected with the linear voltage
band: each constrained bus contributes one slab
``v_min <= offset_k + (A_volt @ p)_k <= v_max``.  When the box clamp already
satisfies every slab it is itself the projection and is returned directly.
Otherwise the projection ``min 0.5 ||p - x||^2`` over the set is solved
through its dual: for band multipliers ``y`` the nearest box point is
``p(y) = clip(x - A_volt.T @ y, p_min, p_max)``, and a projected Newton
method on ``y`` with an exact line search on the dual objective drives the
KKT residual below 1e-10.  Exactly parallel band rows (a generator bus and its
parent load bus share one sensitivity row) make the dual degenerate, so they
are merged first, keeping the tightest bounds.  An empty set is certified by
a dual point that proves every box point breaks the band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FeasibilityError, ProjectionError
from .grid import voltage_approx

__all__ = ["FeasibleSet", "build_feasible"]

_NEWTON_CAP = 200
_KKT_TOL = 1e-10
_PARALLEL_COS = 1.0 - 1e-12


@dataclass
class FeasibleSet:
    """Box plus affine voltage band, with membership test and projection."""

    p_min: np.ndarray
    p_max: np.ndarray
    A_volt: np.ndarray = None
    offset: np.ndarray = None
    v_min: float = -np.inf
    v_max: float = np.inf
    _row_norm2: np.ndarray = field(default=None, repr=False)
    _merged: tuple = field(default=None, repr=False)

    def __post_init__(self):
        self.p_min = np.atleast_1d(np.asarray(self.p_min, dtype=float))
        self.p_max = np.broadcast_to(
            np.asarray(self.p_max, dtype=float), self.p_min.shape).copy()
        if np.any(self.p_min > self.p_max):
            raise FeasibilityError("box bounds cross: p_min > p_max")
        if self.A_volt is not None:
            self.A_volt = np.asarray(self.A_volt, dtype=float)
            self.offset = np.asarray(self.offset, dtype=float)
            rows = self.A_volt.shape[0]
            self.v_min = np.broadcast_to(
                np.asarray(self.v_min, dtype=float), (rows,)).copy()
            self.v_max = np.broadcast_to(
                np.asarray(self.v_max, dtype=float), (rows,)).copy()
            self._row_norm2 = np.einsum("ij,ij->i", self.A_volt, self.A_volt)
            # Rows with no control leverage are plain constants: either they
            # already violate the band (empty set) or they can be dropped.
            dead = self._row_norm2 < 1e-30
            if dead.any():
                bad = dead & ((self.offset < self.v_min) | (self.offset > self.v_max))
                if bad.any():
                    worst = float(np.max(np.maximum(
                        self.v_min[bad] - self.offset[bad],
                        self.offset[bad] - self.v_max[bad])))
                    raise FeasibilityError(
                        "empty feasible set (constant band row out of range "
                        f"by {worst:.3e})", max_violation=worst)
                keep = ~dead
                self.A_volt = self.A_volt[keep]
                self.offset = self.offset[keep]
                self.v_min = self.v_min[keep]
                self.v_max = self.v_max[keep]
                self._row_norm2 = self._row_norm2[keep]
        # Construction-time certification: the box midpoint is a member unless
        # it breaks the band; then the dual solve started from it either finds
        # a member or certifies that the set is empty.
        mid = self.midpoint()
        if self._max_violation(mid) > 0.0:
            self._project_band(mid)

    @property
    def dim(self):
        return self.p_min.shape[0]

    def midpoint(self):
        return 0.5 * (self.p_min + self.p_max)

    def _band_values(self, p):
        return self.offset + self.A_volt @ p

    def _max_violation(self, p):
        v = np.max(np.concatenate([self.p_min - p, p - self.p_max]))
        if self.A_volt is not None and self.A_volt.size:
            band = self._band_values(p)
            v = max(v, np.max(self.v_min - band), np.max(band - self.v_max))
        return float(v)

    def contains(self, p, tol=1e-9):
        p = np.asarray(p, dtype=float)
        return self._max_violation(p) <= tol

    def project(self, x):
        """Euclidean projection: the box clamp when it meets the band,
        otherwise the dual Newton solve."""
        x = np.asarray(x, dtype=float)
        clamped = np.clip(x, self.p_min, self.p_max)
        if self.A_volt is None or not self.A_volt.size:
            return clamped
        band = self._band_values(clamped)
        if np.all(band >= self.v_min) and np.all(band <= self.v_max):
            return clamped
        return self._project_band(x)[0]

    def _band_rows(self):
        """Band rows ``(A, offset, lo, hi, unit)`` with parallel rows merged.

        Built on the first band projection and kept.  A merged row keeps the
        tightest bounds of its rows, restated in its own units; bounds that
        cross certify an empty set.
        """
        if self._merged is None:
            A, c = self.A_volt, self.offset
            lo, hi = self.v_min.copy(), self.v_max.copy()
            gram = A @ A.T
            norms = np.sqrt(np.diag(gram))
            parallel = np.abs(gram) >= _PARALLEL_COS * np.outer(norms, norms)
            # Each row folds into the first row parallel to it (maybe itself).
            first = np.argmax(parallel, axis=1)
            js = np.flatnonzero(first != np.arange(A.shape[0]))
            ks = first[js]
            # Row j is t times row k: lo_j <= t a_k p + c_j <= hi_j.
            t = gram[ks, js] / gram[ks, ks]
            ends = np.stack([(lo[js] - c[js]) / t, (hi[js] - c[js]) / t]) + c[ks]
            np.maximum.at(lo, ks, ends.min(axis=0))
            np.minimum.at(hi, ks, ends.max(axis=0))
            # A merged row's violation is at most 1/unit times the largest
            # violation of the rows it holds, in their own units.
            unit = np.ones_like(lo)
            np.minimum.at(unit, ks, np.abs(t))
            if np.any(lo > hi):
                # The rows that set the crossed bounds split the gap, so the
                # worse one breaks its bound by at least half of it.
                worst = float(np.max((lo - hi) * unit)) / 2.0
                raise FeasibilityError(
                    "empty feasible set (parallel band rows with disjoint "
                    f"ranges; violation at least {worst:.3e})", max_violation=worst)
            keep = np.ones(A.shape[0], dtype=bool)
            keep[js] = False
            self._merged = (A[keep], c[keep], lo[keep], hi[keep], unit[keep])
        return self._merged

    def _project_band(self, x):
        """Projection onto box and band by projected Newton on the dual.

        With multipliers ``y`` on the merged band rows (``y_k > 0`` prices the
        upper bound, ``y_k < 0`` the lower one), the dual objective to
        minimize is ``D(y) = -0.5 ||p - x||^2 - y.(A p + c) + sigma(y)``,
        where ``p = p(y)`` is the clipped point and ``sigma`` the support
        function of ``[lo, hi]``.  On each orthant of ``y`` it is smooth, with
        gradient ``g = bound - (A p + c)`` and generalized Hessian
        ``A_F A_F.T`` over the free box coordinates ``F``.  Each Newton step
        minimizes that quadratic model, shifted by a Levenberg-Marquardt term
        that keeps it regular, over the current orthant; its length is the
        exact minimizer of ``D`` along it.  (Backtracking stalls when few box
        coordinates are free: ``D`` is then nearly piecewise linear and the
        model overshoots its kinks.)  ``g`` is also the KKT residual: it
        bounds the band violation of ``p(y)`` and vanishes exactly at the
        projection.  Weak duality certifies an empty set: ``-D(y)`` never
        exceeds the squared distance from ``x`` to a member over two.

        Returns the projection and the multipliers of the merged band rows.
        """
        A, c, lo, hi, unit = self._band_rows()
        p_min, p_max = self.p_min, self.p_max

        def point(y):
            aty = A.T @ y
            p = np.minimum(np.maximum(x - aty, p_min), p_max)
            v = A @ p + c
            # Each row is priced at the bound its multiplier's sign selects;
            # a zero multiplier targets the nearest point of its range, which
            # makes g the minimum-norm subgradient.
            target = np.where(y > 0, hi, np.where(
                y < 0, lo, np.minimum(np.maximum(v, lo), hi)))
            g = target - v
            dx = p - x
            return p, aty, g, float(y @ g) - 0.5 * float(dx @ dx)

        # No member is farther from x than the farthest box corner.
        dual_floor = -0.5 * float(np.sum(np.maximum(x - p_min, p_max - x) ** 2))
        scale = float(np.mean(self._row_norm2))
        damping = 1.0
        y = np.zeros(A.shape[0])
        p, aty, g, dual = point(y)
        resid = float(np.max(np.abs(g)))
        for _ in range(_NEWTON_CAP):
            if resid <= _KKT_TOL:
                return p, y
            if dual < dual_floor:
                raise self._emptiness(y, A, c, lo, hi, unit)
            # Orthant: the sign of y, or for a zero multiplier the side the
            # subgradient descends into (none if the row is satisfied).
            s = np.sign(y)
            idle = s == 0
            s[idle] = -np.sign(g[idle])
            rows = s.nonzero()[0]
            s_r = s[rows]
            w = x - aty
            Af = A[rows][:, (w > p_min) & (w < p_max)]
            H = Af @ Af.T
            # The floor keeps the shifted system regular when more rows bind
            # than box coordinates are free.
            tau = max(damping * scale * resid, 1e-12 * float(np.trace(H)))
            # The model in u = s * y, which the orthant bounds below by 0.
            Q = (H + tau * np.eye(rows.size)) * np.outer(s_r, s_r)
            z = s_r * y[rows]
            d = np.zeros_like(y)
            d[rows] = s_r * (_nonneg_qp(Q, s_r * g[rows] - Q @ z, z) - z)
            alpha = self._exact_step(w, y, d, s, A, c, lo, hi)
            if alpha == np.inf:
                raise self._emptiness(d, A, c, lo, hi, unit)
            y = y + alpha * d
            y[s * y < 0] = 0.0
            # A model that falls short of the line minimum relaxes the shift,
            # one that overshoots it stiffens the shift.
            damping = max(damping * 0.1, 1e-6) if alpha >= 1.0 else min(damping * 10.0, 1e6)
            p, aty, g, dual = point(y)
            resid = float(np.max(np.abs(g)))
        if resid <= _KKT_TOL:
            return p, y
        raise ProjectionError(
            f"band projection did not converge within {_NEWTON_CAP} Newton "
            f"iterations (KKT residual {resid:.3e})", residual=resid)

    def _exact_step(self, w, y, d, s, A, c, lo, hi):
        """Step length that minimizes the dual along ``y + alpha d`` in orthant ``s``.

        Along the ray the dual's slope is ``d.(bound - c) - e.clip(w - alpha e)``
        with ``e = A.T d``: piecewise linear and nondecreasing, with kinks where a
        coordinate of ``w - alpha e`` reaches a box bound.  The minimizer is
        found by evaluating the slope at every kink up to the end of the orthant
        and interpolating where it turns nonnegative.  A slope still negative
        past the last kink means the dual falls without bound: the step is
        infinite and ``d`` certifies an empty set.
        """
        p_min, p_max = self.p_min, self.p_max
        e = A.T @ d
        base = float(d @ (np.where(s > 0, hi, np.where(s < 0, lo, 0.0)) - c))
        # The orthant ends where a multiplier moving toward zero reaches it.
        shrink = s * d < 0
        end = float(np.min(-y[shrink] / d[shrink])) if shrink.any() else np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            kinks = np.concatenate([(w - p_min) / e, (w - p_max) / e])
        alphas = np.sort(np.concatenate([[0.0], kinks[(kinks > 0) & (kinks < end)]]))
        if np.isfinite(end):
            alphas = np.append(alphas, end)
        slopes = base - np.clip(w - alphas[:, None] * e, p_min, p_max) @ e
        rising = np.flatnonzero(slopes >= 0.0)
        if not rising.size:
            return end
        i = int(rising[0])
        if i == 0:
            return 0.0
        a0, a1, s0, s1 = alphas[i - 1], alphas[i], slopes[i - 1], slopes[i]
        return float(a0 + (a1 - a0) * s0 / (s0 - s1))

    def _emptiness(self, y, A, c, lo, hi, unit):
        """The error for a dual direction ``y`` that proves the set empty.

        Every box point has ``y.(A p + c) >= floor``; when that exceeds the
        support ``sigma(y)`` of the band no box point meets it, and the excess
        per unit of ``|y|`` bounds the violation from below.
        """
        aty = A.T @ y
        floor = float(y @ c + np.sum(np.minimum(aty * self.p_min, aty * self.p_max)))
        up, down = y > 0, y < 0
        sigma = float(hi[up] @ y[up] + lo[down] @ y[down])
        worst = (floor - sigma) / float(np.sum(np.abs(y) / unit))
        return FeasibilityError(
            "empty feasible set (dual certificate: every box point breaks "
            f"the band by at least {worst:.3e})", max_violation=worst)


def _nonneg_qp(Q, b, u):
    """Minimize ``0.5 u.Q u + b.u`` over ``u >= 0`` from the feasible ``u``.

    Primal active-set method for a positive definite ``Q``: solve on the free
    rows, step back to the first row that would turn negative and fix it at
    zero, or else free the fixed row whose gradient is most negative.  Every
    step lowers the objective, so the cap only bounds the work.
    """
    u = u.copy()
    grad = Q @ u + b
    enter_tol = 1e-12 * float(np.max(np.abs(b), initial=0.0))
    free = (u > 0) | (grad < -enter_tol)
    for _ in range(4 * u.size + 4):
        idx = free.nonzero()[0]
        cand = np.zeros_like(u)
        if idx.size:
            cand[idx] = np.linalg.solve(Q[idx][:, idx], -b[idx])
        neg = cand < 0
        if not neg.any():
            u = cand
            grad = Q @ u + b
            grad[free] = 0.0
            k = int(np.argmin(grad))
            if grad[k] >= -enter_tol:
                return u
            free[k] = True
            continue
        ratio = u[neg] / (u[neg] - cand[neg])
        step = float(ratio.min())
        u = np.maximum(u + step * (cand - u), 0.0)
        blocked = neg.nonzero()[0][ratio <= step]
        u[blocked] = 0.0
        free[blocked] = False
    return u


def build_feasible(blocks, p_g, U_N, bounds, p_fixed=None, include_gen_buses=True):
    """Instantiate the constraint set for the current generation vector.

    ``bounds`` is a mapping with keys p_min, p_max, v_min, v_max.  Voltage
    rows cover every non-PCC bus by default; set ``include_gen_buses``
    False to constrain load buses only.  The inflexible load ``p_fixed``
    shifts the voltage offsets, the controllable part enters through
    A_volt.
    """
    p_g = np.asarray(p_g, dtype=float)
    n_c = len(blocks.load_buses)
    p_fixed = np.zeros(n_c) if p_fixed is None else np.asarray(p_fixed, dtype=float)
    v_min = float(bounds.get("v_min", -np.inf))
    v_max = float(bounds.get("v_max", np.inf))

    A_volt = None
    offset = None
    if np.isfinite(v_min) or np.isfinite(v_max):
        # Stacked first-order voltages: gen rows use M and N, load rows use
        # N' and Q; the controllable load enters with a minus sign.
        top = np.hstack([blocks.M, blocks.N])
        bot = np.hstack([blocks.N.T, blocks.Q])
        sens = np.vstack([top, bot])
        n_g = len(blocks.gen_buses)
        load_part = sens[:, n_g:]
        base = np.concatenate([p_g, -p_fixed])
        offset_all = voltage_approx(sens, base, U_N)
        A_all = -load_part / U_N
        if include_gen_buses:
            A_volt, offset = A_all, offset_all
        else:
            A_volt, offset = A_all[n_g:], offset_all[n_g:]

    return FeasibleSet(
        p_min=np.broadcast_to(np.asarray(bounds["p_min"], dtype=float), (n_c,)).copy(),
        p_max=np.broadcast_to(np.asarray(bounds["p_max"], dtype=float), (n_c,)).copy(),
        A_volt=A_volt,
        offset=offset,
        v_min=v_min,
        v_max=v_max,
    )

