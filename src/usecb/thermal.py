"""Building thermal dynamics and the balanced profit objective.

Each load bus hosts one building with a first-order thermal model: the room
temperature moves toward the outdoor temperature at rate alpha1 and is
pulled down by AC power at rate alpha2.  Comfort is worth
-beta * (predicted temperature - set point)^2 per building per slot; power
drawn at the PCC costs lambda per unit.  Profit is comfort minus energy
cost.  Maximizing profit equals minimizing the convex quadratic
``f(p) = p'Ap + b'p``, and :class:`Quadratic` is the one place that derives
it: ``A`` depends only on the buildings, the price and the feeder, so it is
built (and checked positive definite) once per scenario, and only ``b``
follows the slot's temperatures and generation.

Both models are affine in the indoor temperature, and each is written
once in that form.  :class:`BuildingParams` holds the step's coefficients,
so :func:`thermal_step` is ``keep c_in + outdoor_gain c_out - control_gain
p_c``; :meth:`Quadratic.linear_term` is ``input_term(c_out, p_g) - temp_w
c_in``, where the input term holds the outdoor, set-point and generation
parts.  A caller that holds a run's readings evaluates the input terms and
the outdoor parts of the steps for every slot at once, and each slot then
computes only what depends on the control.

:func:`usecb_profit` evaluates the profit through the physical path
instead (thermal step, loss, intake), and the identity ``profit + lambda *
f == const`` checks the one derivation against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .grid import bilinear, grid_intake, matvec, power_loss, row_dot

__all__ = [
    "BuildingParams",
    "Quadratic",
    "thermal_step",
    "satisfaction",
    "usecb_profit",
]


@dataclass
class BuildingParams:
    """Per-building thermal and comfort parameters (vectors over load buses).

    alpha1: heat-exchange rate with the outdoors, 1/time.
    alpha2: cooling gain, degrees per unit power per unit time.
    beta:   comfort weight, currency per squared degree.
    c_set:  set-point temperature per building.
    dt:     slot length.

    Derived at construction, the coefficients of :func:`thermal_step`:
    ``keep = 1 - alpha1 dt``, ``outdoor_gain = alpha1 dt`` and
    ``control_gain = alpha2 dt``.
    """

    alpha1: np.ndarray
    alpha2: np.ndarray
    beta: np.ndarray
    c_set: np.ndarray
    dt: float

    def __post_init__(self):
        n = np.size(self.c_set)
        for name in ("alpha1", "alpha2", "beta", "c_set"):
            setattr(self, name, np.broadcast_to(
                np.asarray(getattr(self, name), dtype=float), (n,)).copy())
        if self.dt <= 0:
            raise ModelError("slot length must be positive")
        if np.any(self.alpha1 < 0):
            raise ModelError("alpha1 must be nonnegative")
        if np.any(self.alpha2 <= 0):
            raise ModelError("alpha2 must be positive")
        if np.any(self.beta <= 0):
            raise ModelError("beta must be positive")
        self.outdoor_gain = self.alpha1 * self.dt
        self.keep = 1.0 - self.outdoor_gain
        self.control_gain = self.alpha2 * self.dt

    @property
    def n(self):
        return self.c_set.shape[0]


def thermal_step(c_in, c_out, p_c, params):
    """Predicted indoor temperature after one slot of AC power ``p_c >= 0``
    from indoor ``c_in`` and outdoor ``c_out`` temperatures per building:
    ``keep c_in + outdoor_gain c_out - control_gain p_c``, affine in each."""
    return (params.keep * c_in + params.outdoor_gain * c_out
            - params.control_gain * p_c)


def satisfaction(c_in, c_out, p_c, params):
    """Per-building comfort utility; zero at the set point, negative elsewhere."""
    predicted = thermal_step(c_in, c_out, p_c, params)
    dev = predicted - params.c_set
    return -params.beta * dev * dev


class Quadratic:
    """The objective f(p) = p'Ap + b'p with every control-independent term
    of -profit / lambda dropped.

    ``A`` (and ``H2 = 2A``, the Hessian) depends only on the buildings, the
    price and the feeder; ``linear_term`` gives ``b`` for a slot's indoor
    and outdoor temperatures and generation, affine in the indoor one, and
    ``input_term`` the rest of it.  The deterministic solver steps in the
    metric ``W = diag(H2)``: ``scale`` is ``sqrt(diag(H2))`` and ``L_W`` the
    largest eigenvalue of ``W^-1/2 H2 W^-1/2``, the Lipschitz constant of
    the gradient in that metric.  The comfort diagonal dominates ``H2``, so
    the scaled Hessian is close to the identity.  The inputs stay on the
    instance, so :func:`usecb_profit` can evaluate the same slot through
    the physical path.  Raises ``ModelError`` for a nonpositive price or a
    Hessian that is not finite or not positive definite.
    """

    def __init__(self, lambda_price, buildings, blocks, p_fixed):
        if lambda_price <= 0:
            raise ModelError("electricity price must be positive")
        lam = lambda_price
        m = buildings.control_gain
        self.lambda_price = lambda_price
        self.buildings = buildings
        self.blocks = blocks
        self.p_fixed = p_fixed
        # Numbers too large for the Hessian end in the finiteness check
        # below, not in a numpy warning first.
        with np.errstate(over="ignore", invalid="ignore"):
            self.A = np.diag(buildings.beta * m * m) / lam + blocks.Q
            self.H2 = 2.0 * self.A
            diag = np.diag(self.H2)
            if not np.all(diag > 0):
                raise ModelError("objective Hessian is not positive definite")
            self.scale = np.sqrt(diag)
            # By congruence the scaled Hessian is positive definite exactly
            # when H2 is, so its one decomposition certifies both.
            scaled = self.H2 / np.outer(self.scale, self.scale)
        if not np.all(np.isfinite(scaled)):
            raise ModelError("objective Hessian is not finite")
        eig = np.linalg.eigvalsh(0.5 * (scaled + scaled.T))
        if eig[0] <= 0:
            raise ModelError("objective Hessian is not positive definite")
        self.L_W = float(eig[-1])
        self.base_b = np.ones(buildings.n) + 2.0 * (blocks.Q @ p_fixed)
        self.NT2 = 2.0 * blocks.N.T
        # The set point enters b only as comfort_w * c_set, the indoor
        # reading only as -temp_w * c_in.
        self.comfort_w = 2.0 * buildings.beta * m / lam
        self.temp_w = self.comfort_w * buildings.keep

    def linear_term(self, c_in, c_out, p_g):
        """``b`` for one slot's readings, or the ``(R, n)`` rows of ``b`` for
        ``R`` rows of readings: ``input_term(c_out, p_g) - temp_w * c_in``.
        Each row equals, bit for bit, the term of that row's readings alone."""
        return self.input_term(c_out, p_g) - self.temp_w * c_in

    def input_term(self, c_out, p_g):
        """The part of ``b`` that does not depend on the indoor reading, for
        the outdoor reading ``c_out`` and the generation reading ``p_g``, one
        of each or rows of them; a caller that holds every slot's readings
        evaluates it for all of them at once.  The set point is read at call
        time."""
        bld = self.buildings
        drive = bld.outdoor_gain * c_out - bld.c_set
        return self.base_b - self.comfort_w * drive - matvec(self.NT2, p_g)

    def value(self, x, b):
        """f at ``x``, or at each row of a stack with its row of ``b`` (or
        with one shared ``b``)."""
        return bilinear(x, self.A, x) + row_dot(b, x)

    def grad(self, x, b):
        """The gradient at ``x``, or at each row of a stack."""
        return matvec(self.H2, x) + b


def usecb_profit(c_in, c_out, p_c, quad, p_g):
    """Net profit of the buildings and feeder ``quad`` was built from, at
    temperatures ``c_in``, ``c_out`` and generation ``p_g``: comfort revenue
    minus priced grid intake.

    Evaluated through the physical path (thermal step, loss, intake) so it
    stays an independent check on the expanded quadratic.
    """
    p_c = np.asarray(p_c, dtype=float)
    p_g = np.asarray(p_g, dtype=float)
    comfort = float(np.sum(satisfaction(c_in, c_out, p_c, quad.buildings)))
    cons = p_c + quad.p_fixed
    blocks = quad.blocks
    loss = power_loss(blocks.M, blocks.N, blocks.Q, p_g, cons)
    p_0 = grid_intake(p_g, cons, loss)
    return comfort - quad.lambda_price * p_0
