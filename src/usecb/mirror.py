"""Online stochastic mirror descent with Bregman projection.

One iteration maps the current point to the dual space, takes a gradient
step there, maps back, and Bregman-projects onto the constraint set.  With
the half squared Euclidean norm as potential this is exactly projected
SGD, which is the shipped default geometry; the interface keeps the
potential pluggable.

Step sizes follow eta_t = D sqrt(alpha) / (G* sqrt(t)) where D bounds the
Bregman radius of the set and G* the dual norm of the (stochastic)
gradients.  :func:`estimate_bounds` produces conservative values for both
from box geometry and gradient sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BregmanGeometry",
    "euclidean_geometry",
    "MdConfig",
    "IterateTrace",
    "bregman_divergence",
    "md_step",
    "step_size",
    "estimate_bounds",
    "run_online",
    "regret",
    "minimize_projected",
]


@dataclass(frozen=True)
class BregmanGeometry:
    """Potential psi, its gradient, the inverse gradient map, and the
    strong-convexity constant alpha of psi."""

    psi: callable
    grad_psi: callable
    grad_psi_dual: callable
    alpha: float = 1.0


def euclidean_geometry():
    """psi = 0.5 ||x||^2; gradient and its inverse are the identity."""
    return BregmanGeometry(
        psi=lambda x: 0.5 * float(np.dot(x, x)),
        grad_psi=lambda x: x,
        grad_psi_dual=lambda z: z,
        alpha=1.0,
    )


def bregman_divergence(geom, x, y):
    """B(x, y) = psi(x) - psi(y) - <grad psi(y), x - y>."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return geom.psi(x) - geom.psi(y) - float(np.dot(geom.grad_psi(y), x - y))


def md_step(geom, a, grad, eta):
    """Dual-space gradient step; reduces to a - eta*grad for Euclidean psi."""
    return geom.grad_psi_dual(geom.grad_psi(np.asarray(a, dtype=float))
                              - eta * np.asarray(grad, dtype=float))


def step_size(t, D, G_star, alpha):
    """eta_t = D sqrt(alpha) / (G* sqrt(t)), defined for t >= 1."""
    if t < 1:
        raise ValueError(f"step index must be >= 1, got {t}")
    return D * np.sqrt(alpha) / (G_star * np.sqrt(t))


def _box_corners(fset, rng, cap=64):
    n = fset.dim
    if n <= 6:
        bits = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(float)
    else:
        bits = (rng.random((cap, n)) < 0.5).astype(float)
    return fset.p_min + bits * (fset.p_max - fset.p_min)


def estimate_bounds(fset, grad_fn, samples=128, rng=None):
    """Conservative (D, G*) for the step-size rule.

    D is the closed-form Euclidean maximum of B over box corner pairs,
    ||p_max - p_min|| / sqrt(2).  G* is 1.1 times the largest gradient norm
    seen over box corners and ``samples`` random feasible points; pass the
    stochastic oracle as ``grad_fn`` when the run is noisy so that G*
    bounds what the algorithm actually sees.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    D = float(np.linalg.norm(fset.p_max - fset.p_min)) / np.sqrt(2.0)
    points = [_box_corners(fset, rng)]
    if samples:
        raw = fset.p_min + rng.random((samples, fset.dim)) * (fset.p_max - fset.p_min)
        points.append(np.array([fset.project(x) for x in raw]))
    g_max = 0.0
    for block in points:
        for x in block:
            g_max = max(g_max, float(np.linalg.norm(grad_fn(x))))
    return D, 1.1 * g_max


@dataclass
class MdConfig:
    """Step-rule constants and the starting point."""

    D: float
    G_star: float
    initial_point: np.ndarray
    alpha: float = 1.0
    eta_schedule: callable = None

    def __post_init__(self):
        if self.D <= 0 or self.G_star <= 0:
            raise ValueError("D and G* must be positive")
        self.initial_point = np.asarray(self.initial_point, dtype=float)
        if self.eta_schedule is None:
            self.eta_schedule = lambda t: step_size(t, self.D, self.G_star, self.alpha)


@dataclass
class IterateTrace:
    """Per-step record of one online run.

    points[t] is the iterate played at step t+1; pre_projection[t] the
    dual-step output whose projection produced it (row 0 repeats the
    start); gradients[t] the stochastic gradient taken at points[t].
    """

    points: np.ndarray
    pre_projection: np.ndarray
    gradients: np.ndarray
    realized: np.ndarray
    expected: np.ndarray


def run_online(geom, config, fset, gradient_oracle, T,
               f_realized=None, f_true=None):
    """Run T steps of projected mirror descent.

    ``gradient_oracle(t, a)`` returns a stochastic gradient whose
    conditional expectation is the true gradient at ``a``; determinism of
    the trace is the oracle's responsibility.
    """
    n = fset.dim
    points = np.empty((T, n))
    pre = np.empty((T, n))
    grads = np.empty((T, n))
    realized = np.full(T, np.nan)
    expected = np.full(T, np.nan)

    a = fset.project(config.initial_point)
    pre[0] = a
    for t in range(1, T + 1):
        points[t - 1] = a
        if f_realized is not None:
            realized[t - 1] = f_realized(t, a)
        if f_true is not None:
            expected[t - 1] = f_true(a)
        g = np.asarray(gradient_oracle(t, a), dtype=float)
        grads[t - 1] = g
        if t < T:
            w = md_step(geom, a, g, config.eta_schedule(t))
            pre[t] = w
            a = fset.project(w)
    return IterateTrace(points, pre, grads, realized, expected)


def regret(trace, f_true, a_star):
    """Cumulative excess objective over the best fixed point.

    Returns (R_T, curve) where curve[t] = sum over the first t+1 steps of
    f_true(a_s) - f_true(a_star).
    """
    f_star = f_true(np.asarray(a_star, dtype=float))
    gaps = np.array([f_true(p) for p in trace.points]) - f_star
    curve = np.cumsum(gaps)
    return float(curve[-1]), curve


def minimize_projected(grad_fn, fset, x0=None, tol=1e-10, max_iter=100_000,
                       f_fn=None):
    """Projected gradient descent with backtracking to a stationary point.

    Stops when the projected step moves less than ``tol`` (scaled by the
    current point).  Used both as the deterministic per-slot solver and to
    pin down a_star for regret accounting.  Returns ``(x, converged)``;
    ``converged`` is False when ``max_iter`` steps run out or the
    backtracking step underflows first.
    """
    x = fset.project(fset.midpoint() if x0 is None else np.asarray(x0, dtype=float))
    step = 1.0
    for _ in range(max_iter):
        g = grad_fn(x)
        fx = None if f_fn is None else f_fn(x)
        # Backtrack until the candidate achieves sufficient decrease (when a
        # value function is available) or the move is sane.
        while True:
            cand = fset.project(x - step * g)
            if f_fn is None:
                break
            if f_fn(cand) <= fx + np.dot(g, cand - x) + \
                    0.5 / step * float(np.dot(cand - x, cand - x)) + 1e-15:
                break
            step *= 0.5
            if step < 1e-18:
                return x, False
        move = float(np.linalg.norm(cand - x))
        x = cand
        if move <= tol * (1.0 + float(np.linalg.norm(x))):
            return x, True
        step = min(step * 2.0, 1e6)
    return x, False
