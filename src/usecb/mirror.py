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

    def __post_init__(self):
        if self.D <= 0 or self.G_star <= 0:
            raise ValueError("D and G* must be positive")
        self.initial_point = np.asarray(self.initial_point, dtype=float)


@dataclass
class IterateTrace:
    """Per-step record of one online run.

    points[t] is the iterate played at step t+1; gradients[t] the
    stochastic gradient taken at points[t].
    """

    points: np.ndarray
    gradients: np.ndarray


def run_online(geom, config, fset, gradient_oracle, T):
    """Run T steps of projected mirror descent.

    ``gradient_oracle(t, a)`` returns a stochastic gradient whose
    conditional expectation is the true gradient at ``a``; determinism of
    the trace is the oracle's responsibility.
    """
    n = fset.dim
    points = np.empty((T, n))
    grads = np.empty((T, n))

    a = fset.project(config.initial_point)
    for t in range(1, T + 1):
        points[t - 1] = a
        g = np.asarray(gradient_oracle(t, a), dtype=float)
        grads[t - 1] = g
        if t < T:
            eta = step_size(t, config.D, config.G_star, config.alpha)
            a = fset.project(md_step(geom, a, g, eta))
    return IterateTrace(points, grads)


def regret(trace, f_true, a_star):
    """Cumulative excess objective over the best fixed point.

    Returns (R_T, curve) where curve[t] = sum over the first t+1 steps of
    f_true(a_s) - f_true(a_star).
    """
    f_star = f_true(np.asarray(a_star, dtype=float))
    gaps = np.array([f_true(p) for p in trace.points]) - f_star
    curve = np.cumsum(gaps)
    return float(curve[-1]), curve


def minimize_projected(grad_fn, fset, lipschitz, x0=None, tol=1e-10,
                       max_iter=100_000):
    """Projected gradient descent with the fixed step ``1 / lipschitz``.

    ``lipschitz`` bounds the Lipschitz constant of ``grad_fn``; with that
    step every iteration decreases a convex objective (Nesterov 2004,
    section 2.2), so no line search is needed.  Stops when the projected
    step moves less than ``tol`` (scaled by the current point).  Used both
    as the deterministic per-slot solver and to pin down a_star for regret
    accounting.  Returns ``(x, converged)``; ``converged`` is False when
    ``max_iter`` steps run out first.
    """
    x = fset.project(fset.midpoint() if x0 is None else np.asarray(x0, dtype=float))
    step = 1.0 / lipschitz
    for _ in range(max_iter):
        cand = fset.project(x - step * grad_fn(x))
        move = float(np.linalg.norm(cand - x))
        x = cand
        if move <= tol * (1.0 + float(np.linalg.norm(x))):
            return x, True
    return x, False
