"""Online projected stochastic gradient descent and its step rule.

The paper's controller is mirror descent with Bregman projection.  With
the potential psi(x) = ||x||^2 / 2, the one this package uses, the mirror
map is the identity and the Bregman projection is the Euclidean one, so
each step is projected SGD: ``a <- project(a - eta_t * g)``.

Step sizes follow eta_t = D / (G* sqrt(t)) where D bounds the Bregman
radius of the set and G* the norm of the (stochastic) gradients.
:func:`estimate_bounds` produces conservative values for both from box
geometry and gradient sampling.
:func:`run_online` and :func:`minimize_projected` both take the gradient as
``grad(x, b)``; the online run draws step t's ``b`` from its data.
"""

from __future__ import annotations

import numpy as np

from .grid import row_dot

__all__ = [
    "bregman_divergence",
    "step_size",
    "estimate_bounds",
    "run_online",
    "regret",
    "minimize_projected",
]


def bregman_divergence(x, y):
    """B(x, y) = psi(x) - psi(y) - <grad psi(y), x - y> for psi = ||.||^2 / 2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return 0.5 * float(np.dot(x, x)) - 0.5 * float(np.dot(y, y)) \
        - float(np.dot(y, x - y))


def step_size(t, D, G_star):
    """eta_t = D / (G* sqrt(t)), defined for t >= 1; elementwise for arrays
    of t, D and G*.  (``(D / G*) / sqrt(t)`` rounds differently.)"""
    if np.any(np.asarray(t) < 1):
        raise ValueError(f"step index must be >= 1, got {np.min(t)}")
    return D / (G_star * np.sqrt(t))


# Random box corners (above six dimensions) and random feasible points that
# estimate_bounds samples.
_SAMPLES = 64


def _box_corners(fset, rng):
    n = fset.dim
    if n <= 6:
        bits = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(float)
    else:
        bits = (rng.random((_SAMPLES, n)) < 0.5).astype(float)
    return fset.p_min + bits * (fset.p_max - fset.p_min)


def estimate_bounds(fset, grads, rng):
    """Conservative (D, G*) for the step-size rule.

    D is the closed-form Euclidean maximum of B over box corner pairs,
    ||p_max - p_min|| / sqrt(2).  G* is 1.1 times the largest gradient norm
    seen over box corners and 64 random feasible points, drawn from ``rng``
    in that order; ``grads`` maps the ``(k, n)`` sample points to their k
    gradients.  Pass the stochastic oracle's gradients when the run is
    noisy, so that G* bounds what the algorithm actually sees.
    """
    D = float(np.linalg.norm(fset.p_max - fset.p_min)) / np.sqrt(2.0)
    corners = _box_corners(fset, rng)
    raw = fset.p_min + rng.random((_SAMPLES, fset.dim)) * (fset.p_max - fset.p_min)
    points = np.concatenate([corners, fset.project(raw)])
    G = np.asarray(grads(points), dtype=float)
    g_max = float(np.max(np.sqrt(row_dot(G, G))))
    return D, 1.1 * g_max


# Steps of run_online's iterates yielded at once.
_BLOCK = 256


def run_online(fset, grad, data, T, D, G_star, x0):
    """Run T steps of projected SGD from ``x0``, one start point or an
    ``(R, n)`` stack of them, one independent run per row.

    Yields the iterates in consecutive blocks of at most 256 steps, each
    ``(k, n)`` (``(R, k, n)`` for a stack), so memory does not grow with T;
    step t+1 plays the iterate at index t of the run.  Step t moves along
    ``grad(a, b)`` with ``b`` the next item of ``data`` (one row per row of
    a stack), whose gradient is the true one in expectation.  No step
    follows the last iterate, so T-1 items are read.
    """
    if D <= 0 or G_star <= 0:
        raise ValueError("D and G* must be positive")
    data = iter(data)
    a = fset.project(np.asarray(x0, dtype=float))
    step = np.empty_like(a)
    for start in range(0, T, _BLOCK):
        points = np.empty(a.shape[:-1] + (min(_BLOCK, T - start), a.shape[-1]))
        eta = step_size(np.arange(start + 1, start + points.shape[-2] + 1),
                        D, G_star).tolist()
        for i, eta_t in enumerate(eta):
            points[..., i, :] = a
            if start + i + 1 < T:
                np.multiply(eta_t, grad(a, next(data)), out=step)
                fset.project(np.subtract(a, step, out=step), out=a)
        yield points


def regret(values, f_star):
    """Cumulative excess objective over the best fixed point: for the true
    objective values of a run's iterates in order, ``(T,)``, or of R runs,
    ``(R, T)``, the curve whose entry t is the sum over the first t+1
    iterates of ``values - f_star``.  Its last entry is R_T."""
    return np.cumsum(values - f_star, axis=-1)


# Steps after which minimize_projected gives up on its tolerance.
_MAX_ITER = 100_000


def minimize_projected(grad, b, fset, scale, lipschitz, x0=None, tol=1e-10):
    """Projected gradient descent in the metric ``W = diag(scale**2)``:
    ``x <- P_W(x - W^-1 grad(x, b) / lipschitz)``, from one start point or
    from each row of an ``(R, n)`` stack of them.

    ``P_W`` is the projection onto ``fset`` that ``W`` measures,
    ``fset.project(x, scale)``.  ``lipschitz`` bounds the Lipschitz
    constant of the gradient in that metric, the largest eigenvalue of
    ``W^-1/2 H W^-1/2`` for a quadratic with Hessian ``H``; with that step
    every iteration decreases a convex objective (Nesterov 2004, section
    2.2), so no line search is needed.  When ``W`` is close to ``H`` the
    scaled Hessian is close to the identity and a few steps reach the
    minimizer.  Stops when a step moves ``x`` less than ``tol`` (scaled by
    the current point).  Used both as the deterministic per-slot solver and
    to pin down a_star for regret accounting.

    ``grad(x, b)`` is the gradient at ``x`` of the objective with data
    ``b``, :meth:`~usecb.thermal.Quadratic.grad` for instance; for a stack,
    ``b`` has one row per row of the stack.  Each row stops at its own step
    and then leaves the stack with its row of ``b``, so its result equals
    that of its own solve bit for bit.  The start point is the projection
    of ``x0`` (of the set's midpoint by default) as given, a vector or a
    stack.  Returns ``(x, converged, steps)``, one of each per row for a
    stack: ``converged`` is False when ``_MAX_ITER`` steps run out first.

    A call allocates its buffers once (again only when rows leave): the
    step and a ``(2, ...)`` pair that holds the point and the candidate.
    Each step projects into the free slot of the pair and writes its move
    over the point, so one product forms both stopping norms, and the
    candidate starts the next step from its slot.
    """
    x0 = fset.midpoint() if x0 is None else np.asarray(x0, dtype=float)
    shape = x0.shape
    # The slots of the pair trade roles every step.
    pair, d = np.empty((2,) + shape), np.empty(shape)
    slots = tuple(pair)
    x = fset.project(x0, scale, out=slots[0])
    # (rows, their results, the step they stopped at), as rows finish.
    finished = []
    index = np.arange(len(x) if x.ndim == 2 else 1)
    step = 1.0 / (lipschitz * scale * scale)  # W^-1 / lipschitz
    for k in range(1, _MAX_ITER + 1):
        new = k & 1
        cand, move = slots[new], slots[1 - new]
        np.multiply(step, grad(x, b), out=d)
        fset.project(np.subtract(x, d, out=d), scale, out=cand)
        np.subtract(cand, x, out=move)
        norms = np.sqrt(row_dot(pair, pair))
        done = norms[1 - new] <= tol * (1.0 + norms[new])
        x = cand
        stopped = np.count_nonzero(done)
        if stopped == len(index):
            finished.append((index, x, k))
            break
        if stopped:
            finished.append((index[done], x[done], k))
            keep = ~done
            index, b = index[keep], b[keep]
            pair, d = np.empty((2,) + b.shape), np.empty(b.shape)
            slots = tuple(pair)
            x = np.compress(keep, x, axis=0, out=slots[new])
    else:
        finished.append((index, x, None))
    if len(shape) == 1:
        _, x, k = finished[0]
        return x, k is not None, k or _MAX_ITER
    out = np.empty(shape)
    converged = np.empty(len(out), dtype=bool)
    steps = np.empty(len(out), dtype=int)
    for rows, x, k in finished:
        out[rows], converged[rows], steps[rows] = x, k is not None, k or _MAX_ITER
    return out, converged, steps
