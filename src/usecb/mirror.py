"""Online projected stochastic gradient descent and its step rule.

The paper's controller is mirror descent with Bregman projection.  With
the potential psi(x) = ||x||^2 / 2, the one this package uses, the mirror
map is the identity and the Bregman projection is the Euclidean one, so
each step is projected SGD: ``a <- project(a - eta_t * g)``.

Step sizes follow eta_t = D / (G* sqrt(t)) where D bounds the Bregman
radius of the set and G* the norm of the (stochastic) gradients.
:func:`estimate_bounds` produces conservative values for both from box
geometry and gradient sampling.
"""

from __future__ import annotations

import numpy as np

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
    """eta_t = D / (G* sqrt(t)), defined for t >= 1."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
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
    points = np.concatenate([corners, [fset.project(x) for x in raw]])
    g_max = max(float(np.linalg.norm(g)) for g in grads(points))
    return D, 1.1 * g_max


def run_online(fset, oracle, T, D, G_star, x0):
    """Run T steps of projected SGD from ``x0`` and return the ``(T, n)``
    iterates; row t is the point played at step t+1.

    ``oracle(t, a)`` returns a stochastic gradient whose conditional
    expectation is the true gradient at ``a``; determinism of the run is
    the oracle's responsibility.  No step follows the last iterate, so the
    oracle is asked for steps 1 to T-1 only.
    """
    if D <= 0 or G_star <= 0:
        raise ValueError("D and G* must be positive")
    points = np.empty((T, fset.dim))
    a = fset.project(np.asarray(x0, dtype=float))
    for t in range(1, T + 1):
        points[t - 1] = a
        if t < T:
            g = np.asarray(oracle(t, a), dtype=float)
            a = fset.project(a - step_size(t, D, G_star) * g)
    return points


def regret(points, f_true, a_star):
    """Cumulative excess objective over the best fixed point.

    Returns (R_T, curve) where curve[t] = sum over the first t+1 iterates
    of f_true(a_s) - f_true(a_star).
    """
    f_star = f_true(np.asarray(a_star, dtype=float))
    gaps = np.array([f_true(p) for p in points]) - f_star
    curve = np.cumsum(gaps)
    return float(curve[-1]), curve


def minimize_projected(grad_fn, zset, scale, lipschitz, x0=None, tol=1e-10,
                       max_iter=100_000):
    """Projected gradient descent in the metric ``W = diag(scale**2)``:
    ``x <- P_W(x - W^-1 grad_fn(x) / lipschitz)``.

    ``P_W`` is the projection that ``W`` measures.  In ``z = scale * x`` it
    is the Euclidean projection onto ``zset``, the feasible set in those
    coordinates (:meth:`~usecb.feasible.FeasibleSet.rescaled`), so the
    iteration runs in ``z``; ``x0`` and the result are in ``x``.
    ``lipschitz`` bounds the Lipschitz constant of the gradient in that
    metric, the largest eigenvalue of ``W^-1/2 H W^-1/2`` for a quadratic
    with Hessian ``H``; with that step every iteration decreases a convex
    objective (Nesterov 2004, section 2.2), so no line search is needed.
    When ``W`` is close to ``H`` the scaled Hessian is close to the identity
    and a few steps reach the minimizer.  Stops when a step moves ``x`` less
    than ``tol`` (scaled by the current point).  Used both as the
    deterministic per-slot solver and to pin down a_star for regret
    accounting.  Returns ``(x, converged, steps)``: ``converged`` is False
    when ``max_iter`` steps run out first.
    """
    z = zset.project(zset.midpoint() if x0 is None
                     else scale * np.asarray(x0, dtype=float))
    x = z / scale
    step = 1.0 / lipschitz
    for k in range(1, max_iter + 1):
        z = zset.project(z - step * (grad_fn(x) / scale))
        cand = z / scale
        move = float(np.linalg.norm(cand - x))
        x = cand
        if move <= tol * (1.0 + float(np.linalg.norm(x))):
            return x, True, k
    return x, False, max_iter
