"""Convex constraint set for the controllable load vector.

The set is a power box [p_min, p_max] intersected with the linear voltage
band: each constrained bus contributes one slab
``v_min <= offset_k + (A_volt @ p)_k <= v_max``, in per unit.  The box,
``A_volt`` and the slab bounds depend only on the feeder topology and the
configured limits, so a :class:`VoltageBand` holds them once per scenario;
only the offset ``1 + sens @ [p_g, -p_fixed]`` moves with the generation
and the inflexible load.  ``band.offset`` evaluates it for one slot or for
a whole horizon of generation readings at once, and
``build_feasible(band, offset)`` places the band at one slot's offsets as
that slot's certified :class:`FeasibleSet` (without voltage limits, a band
of zero rows).  Each row's radius over the box, ``|A_volt| @ (p_max -
p_min) / 2`` widened by a rounding margin, is kept beside ``A_volt @
midpoint``, so :meth:`VoltageBand.holds_box` decides for one slot, or for a
whole horizon of offsets at once, whether the band holds every box point
(:meth:`VoltageBand.screen` also tells whether the box midpoint breaks
the band, which decides whether placing a set needs a certificate).
Such a set is marked ``box_only``: it is never empty, needs no certificate,
and its projection is the box clamp, returned before any band arithmetic.
On any other set the clamp is still returned when it satisfies every slab.
Otherwise the projection ``min 0.5 ||p - x||^2`` over the set is solved
through its dual: for band multipliers ``y`` the nearest box point is
``p(y) = clip(x - A_volt.T @ y, p_min, p_max)``.  A one-row solve comes
first, from the clamp and band values ``project`` already holds: it prices
only the most violated row ``k``, at the root of
``a_k . p(y_k e_k) + c_k = bound_k`` found by breakpoint search over the
box kinks, as for the continuous quadratic knapsack (Kiwiel, Math. Program.
2008), and returns that point when every row meets the KKT tolerance.
When it does not, a second one-row solve prices the row that point breaks
most instead.  When one row is not enough, a projected Newton method on
``y`` from zero, with an exact line search on the dual objective, drives
the KKT residual below 1e-10 on every row, or to a fixed point within the
rounding floor of ``x - A_volt.T @ y`` when that floor is higher and the
point is a member.
Its Levenberg-Marquardt shift keeps the Newton system regular when rows
repeat (a generator bus and its parent load bus share one sensitivity row).
An empty set is certified by a dual point that proves every box point
breaks the band.

``project(x, scale)`` projects in the metric ``W = diag(scale**2)``: the
clamp is still the projection onto a box, and the band solve runs as above
in ``z = scale * p``.  Membership is one test, :meth:`VoltageBand.violation`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FeasibilityError, ProjectionError
from .grid import matvec

__all__ = ["FeasibleSet", "VoltageBand", "build_band", "build_feasible"]

_NEWTON_CAP = 200
_KKT_TOL = 1e-10
MEMBER_TOL = 1e-9
_EPS = np.finfo(float).eps


def clamp(x, p_min, p_max, out=None):
    """The box clamp ``min(max(x, p_min), p_max)``, the projection onto the
    box, into ``out`` when given; the only place the clamp is written."""
    out = np.maximum(x, p_min, out=out)
    return np.minimum(out, p_max, out=out)


class VoltageBand:
    """The offset-free part of a constraint set: box, band rows and bounds.

    Rows with no control leverage (``dead``) are constants: ``A_volt`` keeps
    them as zero rows, and a set whose constant leaves its range is empty.
    ``sens`` and ``first_row`` turn an injection vector into the offsets of
    the rows (see :func:`build_band`); a band without them takes offsets as
    given.  A band without ``A_volt`` has zero rows.  ``A_mid`` is each row
    of ``A_volt`` at the box midpoint and ``A_rad`` its radius over the box,
    with a rounding margin.
    """

    def __init__(self, p_min, p_max, A_volt=(), v_min=-np.inf, v_max=np.inf,
                 sens=None, first_row=0):
        self.p_min = np.atleast_1d(np.asarray(p_min, dtype=float))
        self.p_max = np.broadcast_to(
            np.asarray(p_max, dtype=float), self.p_min.shape).copy()
        A = np.asarray(A_volt, dtype=float).reshape(-1, self.p_min.shape[0])
        rows = A.shape[0]
        v_min = np.broadcast_to(np.asarray(v_min, dtype=float), (rows,)).copy()
        v_max = np.broadcast_to(np.asarray(v_max, dtype=float), (rows,)).copy()
        if np.any(self.p_min > self.p_max):
            raise FeasibilityError("box bounds cross: p_min > p_max")
        gap = v_min - v_max
        if np.any(gap > 0.0):
            # A row's value misses one of its two bounds by half the gap.
            worst = float(np.max(gap)) / 2.0
            raise FeasibilityError(
                "empty feasible set (crossed band bounds: v_min > v_max; "
                f"violation at least {worst:.3e})", max_violation=worst)
        self.sens, self.first_row = sens, first_row
        self.dead = np.einsum("ij,ij->i", A, A) < 1e-30
        # On a zero row A @ p is 0 exactly: an in-range constant never binds.
        A = np.where(self.dead[:, None], 0.0, A)
        self.A_volt, self.v_min, self.v_max = A, v_min, v_max
        self.A_mid = A @ (0.5 * (self.p_min + self.p_max))
        # Each row's reach over the box about A_mid, widened by a bound on
        # the rounding of offset + A @ p and of this test: n + 8 epsilons
        # of the terms' and the bounds' sizes.
        abs_a = np.abs(A)
        size = abs_a @ np.maximum(np.abs(self.p_min), np.abs(self.p_max))
        for bound in (v_min, v_max):
            size = size + np.where(np.isfinite(bound), np.abs(bound), 0.0)
        self.A_rad = (abs_a @ (0.5 * (self.p_max - self.p_min))
                      + (A.shape[1] + 8) * _EPS * size)

    def offset(self, p_g, p_fixed):
        """Row offsets ``1 + sens @ [p_g, -p_fixed]`` in per unit, for one
        generation vector or for each row of a ``(T, n_g)`` stack; each row
        equals, bit for bit, that of its vector alone."""
        p_g = np.asarray(p_g, dtype=float)
        p_fixed = np.asarray(p_fixed, dtype=float)
        base = np.concatenate(
            [p_g, np.broadcast_to(-p_fixed, p_g.shape[:-1] + p_fixed.shape)],
            axis=-1)
        return 1.0 + matvec(self.sens, base)[..., self.first_row:]

    def holds_box(self, offset):
        """Whether the band at ``offset`` holds the whole box, for one slot
        or each row of a ``(T, rows)`` stack: every row stays within its
        bounds over the box, rounding included.  Where it holds, the box
        clamp is the projection."""
        return self.screen(offset)[0]

    def screen(self, offset):
        """``(holds_box(offset), breaks_mid)`` for one slot or each row of
        a ``(T, rows)`` stack: whether the band holds the box, and whether
        the box midpoint breaks the band, the two tests that place a set
        (see :func:`build_feasible`)."""
        mid = offset + self.A_mid
        holds = ((mid - self.A_rad >= self.v_min)
                 & (mid + self.A_rad <= self.v_max)).all(axis=-1)
        return holds, ((mid < self.v_min) | (mid > self.v_max)).any(axis=-1)

    def box_violation(self, p):
        """How far ``p``, a point or a stack of them, lies outside the box,
        one value per point.  Where the band holds the box it is the whole
        :meth:`violation` of a box point."""
        return np.maximum(np.max(self.p_min - p, axis=-1),
                          np.max(p - self.p_max, axis=-1))

    def violation(self, p, offset):
        """How far ``p``, a point or a stack of them, lies outside the box
        and the band at ``offset``, one value per point; a member's is at
        most ``MEMBER_TOL``."""
        band = offset + matvec(self.A_volt, p)
        return np.maximum(self.box_violation(p), np.maximum(
            np.max(self.v_min - band, axis=-1, initial=-np.inf),
            np.max(band - self.v_max, axis=-1, initial=-np.inf)))


def build_band(blocks, bounds):
    """The voltage band of a feeder, built once per scenario.

    ``bounds`` is a mapping with keys p_min, p_max, v_min, v_max and
    include_gen_buses.  Voltage rows cover every non-PCC bus by default; set
    ``include_gen_buses`` False to constrain load buses only.  The limits
    are per unit, like the feeder model.  Without a finite voltage limit the
    band keeps no rows and every set is the plain box.
    """
    n_c = len(blocks.load_buses)
    p_min = np.broadcast_to(np.asarray(bounds["p_min"], dtype=float), (n_c,)).copy()
    p_max = np.broadcast_to(np.asarray(bounds["p_max"], dtype=float), (n_c,)).copy()
    v_min = float(bounds.get("v_min", -np.inf))
    v_max = float(bounds.get("v_max", np.inf))
    # Stacked first-order voltages: gen rows use M and N, load rows use
    # N' and Q; the controllable load enters with a minus sign.
    top = np.hstack([blocks.M, blocks.N])
    bot = np.hstack([blocks.N.T, blocks.Q])
    sens = np.vstack([top, bot])
    n_g = len(blocks.gen_buses)
    first = 0 if bounds.get("include_gen_buses", True) else n_g
    if not (np.isfinite(v_min) or np.isfinite(v_max)):
        first = sens.shape[0]
    A_volt = -sens[first:, n_g:]
    return VoltageBand(p_min, p_max, A_volt, v_min, v_max,
                       sens=sens, first_row=first)


class FeasibleSet:
    """Box plus affine voltage band, with membership test and projection.

    ``FeasibleSet(p_min, p_max, A_volt, offset, v_min, v_max)`` builds a
    set from scratch; :func:`build_feasible` places a scenario's
    :class:`VoltageBand` at one slot's offset.  Either way the set is
    certified nonempty on construction; ``box_only`` says whether its band
    holds the whole box (see :meth:`VoltageBand.holds_box`).

    ``project`` and ``contains`` take one point or an ``(R, n)`` stack of
    them, one row each; each row's result equals, bit for bit, that of the
    row alone.
    """

    def __init__(self, p_min, p_max, A_volt=(), offset=0.0,
                 v_min=-np.inf, v_max=np.inf):
        band = VoltageBand(p_min, p_max, A_volt, v_min, v_max)
        offset = np.broadcast_to(offset, band.dead.shape).astype(float)
        self._place(band, offset, *band.screen(offset))

    def _place(self, band, offset, box_only, breaks_mid):
        """Make this the set ``band`` gives at ``offset`` (one value per
        band row) and certify it, given the slot's
        :meth:`VoltageBand.screen`: a set whose band holds the box is marked
        ``box_only`` and needs no certificate."""
        self.band, self.offset = band, offset
        self.p_min, self.p_max = band.p_min, band.p_max
        self.A_volt, self.v_min, self.v_max = band.A_volt, band.v_min, band.v_max
        # A band that holds the box leaves the plain box: never empty, and
        # projected by the clamp alone.
        self.box_only = bool(box_only)
        # Certification: the box midpoint is a member unless it breaks the
        # band; then the dual solve started from it either finds a member or
        # certifies that the set is empty.  A constant row out of range breaks
        # the band at every point, the midpoint too, and empties the set.
        if breaks_mid:
            gap = np.maximum(self.v_min - offset, offset - self.v_max)[band.dead]
            if (gap > 0.0).any():
                worst = float(gap.max())
                raise FeasibilityError(
                    "empty feasible set (constant band row out of range "
                    f"by {worst:.3e})", max_violation=worst)
            self._project_band(self.midpoint())

    @property
    def dim(self):
        return self.p_min.shape[0]

    def midpoint(self):
        return 0.5 * (self.p_min + self.p_max)

    def contains(self, p):
        return self.band.violation(np.asarray(p, dtype=float),
                                   self.offset) <= MEMBER_TOL

    def project(self, x, scale=1.0, out=None):
        """Projection in the metric ``diag(scale**2)`` (Euclidean by
        default): the box clamp on a ``box_only`` set, without evaluating the
        band; otherwise the clamp when it meets the band, else the band
        solve, on the rows of a stack that need it.  At unit scale the band
        solve starts from this clamp and its band values; in another metric
        it clamps in its own coordinates.  The result is written into
        ``out`` when given, which may be ``x`` itself."""
        if self.box_only:
            return clamp(x, self.p_min, self.p_max, out=out)
        x = np.asarray(x, dtype=float)
        p = clamp(x, self.p_min, self.p_max)
        band = self.offset + matvec(self.A_volt, p)
        inside = (band >= self.v_min) & (band <= self.v_max)
        unit = np.ndim(scale) == 0 and scale == 1.0
        if x.ndim == 1:
            if not inside.all():
                start = (p, band) if unit else ()
                p = self._project_band(x, scale, *start)[0]
        else:
            for r in np.flatnonzero(~inside.all(axis=-1)):
                start = (p[r], band[r]) if unit else ()
                p[r] = self._project_band(x[r], scale, *start)[0]
        if out is None:
            return p
        out[...] = p
        return out

    def _project_band(self, x, scale=1.0, clamped=None, band=None):
        """Projection onto box and band: up to two one-row solves, else
        projected Newton on the dual.

        It starts from the clamp ``p(0)`` and its band values, ``clamped``
        and ``band`` when the caller holds them (at unit scale), and returns
        the clamp when ``max |g| <= 1e-10`` there.  Otherwise a one-row
        solve (:func:`_one_row`) prices the row the clamp breaks most.  When
        its point misses that stopping rule, a second one-row solve prices,
        from ``y = 0`` again, the row that point breaks most: the row that
        binds at the projection is often not the one the clamp breaks most.
        When that misses too, or the box cannot meet a priced row, Newton
        runs from ``y = 0`` as it would alone (:func:`_newton`), so its
        results and emptiness certificates do not depend on the attempts.

        With multipliers ``y`` on the band rows (``y_k > 0`` prices the upper
        bound, ``y_k < 0`` the lower one), the point is the clipped
        ``p(y) = clip(x - A.T y)`` and the KKT residual ``g = bound - (A p +
        c)``, where each row is priced at the bound its multiplier's sign
        selects and a row with a zero multiplier at the nearest point of its
        range.  ``g`` bounds the band violation of ``p(y)`` and vanishes
        exactly at the projection.  A non-finite point raises
        ``ProjectionError``.

        It projects in the metric ``diag(scale**2)``: the solve runs on
        ``z = scale * x``, the box ``scale * [p_min, p_max]`` and the rows
        ``A / scale``, and a result coordinate on that box comes back as the
        bound itself (``(scale * p_max) / scale`` can round off ``p_max``).
        At the default unit scale every one of these steps is exact.

        Returns the projection and the multipliers of the band rows.
        """
        c, lo, hi = self.offset, self.v_min, self.v_max
        x, A = scale * x, self.A_volt / scale
        p_min, p_max = scale * self.p_min, scale * self.p_max
        if clamped is None:
            clamped = clamp(x, p_min, p_max)
            band = A @ clamped + c
        g = clamp(band, lo, hi) - band
        resid = float(np.max(np.abs(g)))
        if not np.isfinite(resid):
            raise ProjectionError(
                f"cannot project a non-finite point (residual {resid})")
        fixed = False
        if resid <= _KKT_TOL:
            p, y = clamped, np.zeros(A.shape[0])
        else:
            solved = _one_row(x, g, A, c, lo, hi, p_min, p_max)
            if solved is not None and _missed(solved[2]):
                # The row the clamp breaks most is not always the one that
                # binds: price instead the row the attempt's point breaks most.
                solved = _one_row(x, solved[2], A, c, lo, hi, p_min, p_max)
            if solved is None or _missed(solved[2]):
                p, y, resid, fixed = _newton(x, A, c, lo, hi, p_min, p_max)
            else:
                p, y, _ = solved
        p = np.where(p >= p_max, self.p_max,
                     np.where(p <= p_min, self.p_min, p / scale))
        if fixed:
            worst = float(self.band.violation(p, self.offset))
            if worst > MEMBER_TOL:
                raise ProjectionError(
                    "band projection stopped at a fixed point outside the set "
                    f"(violation {worst:.3e}, residual {resid:.3e})")
        return p, y


def _one_row(x, g, A, c, lo, hi, p_min, p_max):
    """A one-row solve: price only the row ``k`` that a point with KKT
    residual ``g`` breaks most.

    With ``s = -sign(g_k)``, the sign of the multiplier that prices the
    broken bound, the dual's slope along ``y = alpha s e_k`` is ``s
    (bound_k - c_k) - e.clip(x - alpha e)`` with ``e = s A[k]``, and its
    root ``alpha`` is found by breakpoint search over the box kinks
    (:func:`_slope_root`), as for the continuous quadratic knapsack (Kiwiel,
    Math. Program. 2008).  Returns ``(p, y, g)`` at ``y = alpha s e_k``,
    with ``g`` the KKT residual there (the priced row at its bound, every
    other row at the nearest point of its range), which meets Newton's
    stopping rule when ``max |g| <= 1e-10``; None when no root exists (the
    box cannot meet the row).
    """
    k = int(np.argmax(np.abs(g)))
    s = -np.sign(g[k])
    e = s * A[k]
    bound = hi[k] if s > 0 else lo[k]
    alpha = _slope_root(x, e, s * (bound - c[k]), np.inf, p_min, p_max)
    if alpha == np.inf:
        return None
    p = clamp(x - alpha * e, p_min, p_max)
    v = A @ p + c
    g = clamp(v, lo, hi) - v
    if alpha > 0.0:
        # A priced row targets its bound, not the nearest point of its range.
        g[k] = bound - v[k]
    y = np.zeros(A.shape[0])
    y[k] = alpha * s
    return p, y, g


def _missed(g):
    """Whether the KKT residual ``g`` misses Newton's stopping rule."""
    return float(np.max(np.abs(g))) > _KKT_TOL


def _newton(x, A, c, lo, hi, p_min, p_max):
    """Projected Newton on the dual of the band projection, from ``y = 0``.

    The dual objective to minimize is ``D(y) = -0.5 ||p - x||^2 - y.(A p +
    c) + sigma(y)``, where ``p = p(y)`` is the clipped point and ``sigma``
    the support function of ``[lo, hi]``.  On each orthant of ``y`` it is
    smooth, with gradient ``g`` and generalized Hessian ``A_F A_F.T`` over
    the free box coordinates ``F``.  Each step minimizes that quadratic
    model, shifted by a Levenberg-Marquardt term that keeps it regular, over
    the current orthant; its length is the exact minimizer of ``D`` along it
    (:func:`_exact_step`).  (Backtracking stalls when few box coordinates
    are free: ``D`` is then nearly piecewise linear and the model overshoots
    its kinks.)  It stops when ``max |g| <= 1e-10``, or at a fixed point of
    the iteration (the step no longer moves ``y`` and the shift stays) where
    ``g`` is within the rounding error of ``x - A.T y``; the caller checks
    that a fixed point's result is a member.  Weak duality certifies an
    empty set: ``-D(y)`` never exceeds the squared distance from ``x`` to a
    member over two.  Once the dual falls below that bound's floor the set
    is empty, and the iterates after it only sharpen the certificate: the
    solve goes on to its end (an unbounded direction, a fixed point or the
    step cap) and raises the largest bound :func:`_emptiness` reads from the
    iterates it checked past the crossing or from the unbounded direction.

    Returns ``(p, y, resid, fixed)``: the point, the multipliers, the
    residual and whether it stopped at a fixed point.
    """

    def point(y):
        aty = A.T @ y
        p = clamp(x - aty, p_min, p_max)
        v = A @ p + c
        # Each row is priced at the bound its multiplier's sign selects;
        # a zero multiplier targets the nearest point of its range, which
        # makes g the minimum-norm subgradient.
        target = np.where(y > 0, hi, np.where(
            y < 0, lo, clamp(v, lo, hi)))
        g = target - v
        dx = p - x
        # On a huge box the squared distance can overflow; a dual of -inf
        # is never below the floor, which is then -inf too.
        with np.errstate(over="ignore"):
            return p, aty, g, float(y @ g) - 0.5 * float(dx @ dx)

    damping = 1.0
    y = np.zeros(A.shape[0])
    p, aty, g, dual = point(y)
    resid = float(np.max(np.abs(g)))
    # No member is farther from x than the farthest box corner (an
    # infinite floor on a huge box only turns the test off).
    with np.errstate(over="ignore"):
        dual_floor = -0.5 * float(np.sum(np.maximum(x - p_min, p_max - x) ** 2))
    shift = float(np.mean(np.einsum("ij,ij->i", A, A)))
    # The sharpest emptiness certificate read so far, once the dual has
    # crossed the floor.
    empty = None
    for _ in range(_NEWTON_CAP):
        if resid <= _KKT_TOL:
            break
        if dual < dual_floor:
            empty = _sharper(empty, _emptiness(y, A, c, lo, hi, p_min, p_max))
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
        tau = max(damping * shift * resid, 1e-12 * float(np.trace(H)))
        # The model in u = s * y, which the orthant bounds below by 0.
        Q = (H + tau * np.eye(rows.size)) * np.outer(s_r, s_r)
        z = s_r * y[rows]
        d = np.zeros_like(y)
        d[rows] = s_r * (_nonneg_qp(Q, s_r * g[rows] - Q @ z, z) - z)
        alpha = _exact_step(w, y, d, s, A, c, lo, hi, p_min, p_max)
        if alpha == np.inf:
            raise _sharper(empty, _emptiness(d, A, c, lo, hi, p_min, p_max))
        y_next = y + alpha * d
        y_next[s * y_next < 0] = 0.0
        # A model that falls short of the line minimum relaxes the shift,
        # one that overshoots it stiffens the shift.
        damping_next = (max(damping * 0.1, 1e-6) if alpha >= 1.0
                        else min(damping * 10.0, 1e6))
        if damping_next == damping and np.array_equal(y_next, y):
            # A fixed point: the step is lost to rounding in y and the
            # shift stays, so every further step would repeat this one.
            # What is left of g is rounding if it is within the floor:
            # with m rows, each coordinate of x - A.T y may be off by
            # m eps (|x| + |A|.T |y|), and A p passes that on.  Only far
            # points on nearly dependent rows, whose multipliers grow
            # large, lift it toward 1e-10, and past MEMBER_TOL they fail
            # the caller's membership test.
            abs_a = np.abs(A)
            floor = abs_a @ (np.abs(x) + abs_a.T @ np.abs(y))
            if (empty is None
                    and resid <= A.shape[0] * _EPS * float(np.max(floor))):
                return p, y, resid, True
            break
        y, damping = y_next, damping_next
        p, aty, g, dual = point(y)
        resid = float(np.max(np.abs(g)))
    if empty is not None:
        raise empty
    if resid <= _KKT_TOL:
        return p, y, resid, False
    raise ProjectionError(
        "band projection stopped short of its KKT tolerance (residual "
        f"{resid:.3e}; at most {_NEWTON_CAP} Newton iterations)")


def _exact_step(w, y, d, s, A, c, lo, hi, p_min, p_max):
    """Step length that minimizes the dual along ``y + alpha d`` in orthant
    ``s``, on the box ``[p_min, p_max]``.

    Along the ray the dual's slope is ``d.(bound - c) - e.clip(w - alpha e)``
    with ``e = A.T d``; :func:`_slope_root` finds where it turns nonnegative
    up to the end of the orthant.
    """
    e = A.T @ d
    base = float(d @ (np.where(s > 0, hi, np.where(s < 0, lo, 0.0)) - c))
    # The orthant ends where a multiplier moving toward zero reaches it.
    shrink = s * d < 0
    end = float(np.min(-y[shrink] / d[shrink])) if shrink.any() else np.inf
    return _slope_root(w, e, base, end, p_min, p_max)


def _slope_root(w, e, base, end, p_min, p_max):
    """The smallest ``alpha`` in ``[0, end]`` where the slope ``base -
    e.clip(w - alpha e, p_min, p_max)`` turns nonnegative.

    The slope is piecewise linear and nondecreasing, with kinks where a
    coordinate of ``w - alpha e`` reaches a box bound.  It is evaluated at
    every kink up to ``end`` and interpolated where it turns nonnegative.
    A slope still negative past the last kink means the dual falls without
    bound: the step is ``end``, infinite when the ray has no end, and then
    the direction certifies an empty set.
    """
    # On a huge box a far kink's slope can overflow to +-inf, which keeps
    # its sign.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kinks = np.concatenate([(w - p_min) / e, (w - p_max) / e])
        alphas = np.sort(np.concatenate([[0.0], kinks[(kinks > 0) & (kinks < end)]]))
        if np.isfinite(end):
            alphas = np.append(alphas, end)
        slopes = base - clamp(w - alphas[:, None] * e, p_min, p_max) @ e
    rising = np.flatnonzero(slopes >= 0.0)
    if not rising.size:
        return end
    i = int(rising[0])
    if i == 0:
        return 0.0
    a0, a1 = alphas[i - 1:i + 1].tolist()
    s0, s1 = slopes[i - 1:i + 1].tolist()
    alpha = a0 + (a1 - a0) * s0 / (s0 - s1)
    if not math.isfinite(alpha):
        # On a huge box the product (a1 - a0) * s0 overflows; the fraction
        # s0 / (s0 - s1) lies in [0, 1] and does not.  It rounds
        # differently, so it is used only here: every finite step keeps
        # its bits.
        alpha = a0 + (a1 - a0) * (s0 / (s0 - s1))
    return alpha


def _emptiness(y, A, c, lo, hi, p_min, p_max):
    """The error for a dual direction ``y`` that proves the set empty.

    Every point of the box ``[p_min, p_max]`` has ``y.(A p + c) >= floor``;
    when that exceeds the support ``sigma(y)`` of the band no box point meets
    it, and the excess per unit of ``|y|`` bounds the violation from below.
    Only a finite, positive bound certifies anything: for any other (a
    direction that rounding, not the band, made unbounded) the error is a
    ``ProjectionError`` instead.
    """
    aty = A.T @ y
    floor = float(y @ c + np.sum(np.minimum(aty * p_min, aty * p_max)))
    up, down = y > 0, y < 0
    sigma = float(hi[up] @ y[up] + lo[down] @ y[down])
    worst = (floor - sigma) / float(np.sum(np.abs(y)))
    if not (np.isfinite(worst) and worst > 0.0):
        return ProjectionError(
            "band projection failed: the dual solve gives no valid emptiness "
            f"certificate (bound {worst:.3e})")
    return FeasibilityError(
        "empty feasible set (dual certificate: every box point breaks "
        f"the band by at least {worst:.3e})", max_violation=worst)


def _sharper(found, err):
    """Of the emptiness errors ``found`` (None before the first) and
    ``err``, the one with the larger certified bound; a certificate beats a
    ``ProjectionError``, and of two equal bounds the earlier stays."""
    if found is None or (isinstance(err, FeasibilityError) and (
            not isinstance(found, FeasibilityError)
            or err.max_violation > found.max_violation)):
        return err
    return found


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


def build_feasible(band, offset, *, _screen=None):
    """The constraint set ``band`` (from :func:`build_band`) gives at one
    slot's row offsets, ``band.offset(p_g, p_fixed)``, certified nonempty.

    Only the offsets move from slot to slot: the generation and the
    inflexible load shift them, while the controllable load enters through
    the band's fixed ``A_volt``.  A caller that screened many slots' offsets
    at once passes this slot's ``band.screen`` result as ``_screen``.
    """
    fset = FeasibleSet.__new__(FeasibleSet)
    fset._place(band, offset, *(band.screen(offset) if _screen is None
                                else _screen))
    return fset
