"""Slot-by-slot closed-loop simulation.

A scenario bundles the network, building fleet, profiles, noise model and
horizon.  ``run_scheme`` drives one of three controllers through it:

* ``stochastic``: one projected stochastic gradient step per slot on noisy
  observations,
* ``exact``: a full deterministic minimization each slot, still on noisy
  observations,
* ``oracle``: the same minimization on the true data (lower-bound trace).

Every run goes through one slot loop, and thermal states advance with the
true physics and the applied control.  A static scenario is the case of a
fixed set and a frozen indoor state: its inputs and indoor temperatures
never move, so the per-slot objective is stationary, and every slot plays
the scenario's slot-0 constraint set, built once from the true generation.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ConfigError, ProjectionError
from .feasible import (MEMBER_TOL, FeasibleSet, VoltageBand, build_band,
                       build_feasible)
from .grid import GridModel, grid_intake, load_network_csv, power_loss
from .mirror import estimate_bounds, minimize_projected, step_size
from .thermal import BuildingParams, Quadratic, thermal_step
from .timeseries import load_timeseries

__all__ = [
    "NoiseConfig",
    "Scenario",
    "RunResult",
    "observe",
    "noise_streams",
    "read_slots",
    "run_scheme",
    "build_ieee37_scenario",
    "load_scenario",
    "metrics",
    "write_run_csv",
    "write_json",
    "atomic_write",
    "data_path",
]

SCHEMES = ("stochastic", "exact", "oracle")

# Sub-stream ids for observation noise and scenario-level draws.
STREAM_GEN = 0
STREAM_COUT = 1
STREAM_CIN = 2
STREAM_BOUNDS = 3
STREAM_PROBES = 4
STREAM_INIT = 10
STREAM_GAINS = 11
STREAM_REP = 12

_EXACT_TOL = 1e-8
# Slots that run_scheme's bookkeeping and write_run_csv take at once.
_BOOK_BLOCK = 128

# The observation-noise scheme: reading k of a run is row k of one
# standard-normal sequence per (seed, stream).  Noisy outputs are comparable
# only between runs of one version.
NOISE_VERSION = 2


def data_path(name):
    """Path to a bundled fixture file."""
    return resources.files("usecb").joinpath("data", name)


@dataclass
class NoiseConfig:
    """Observation noise: Gaussian per entry, row k of a (seed, stream)
    sequence for reading k (see :func:`noise_streams`).  Generation noise is
    relative: its sigma scales with the true generation.  Zero sigmas read
    the true values."""

    sigma_temp: float = 0.0
    sigma_gen: float = 0.0

    def __post_init__(self):
        if self.sigma_temp < 0 or self.sigma_gen < 0:
            raise ConfigError("noise sigmas must be nonnegative")


def observe(true_values, scale, z):
    """Noisy reading ``true_values + scale * z`` on standard normals ``z`` of
    the values' shape; a zero scale reads the true values."""
    return np.asarray(true_values, dtype=float) + scale * z


def noise_streams(seed):
    """The generation, outdoor- and indoor-temperature noise generators of
    a run under ``seed``, one ``default_rng(SeedSequence((seed, stream)))``
    each: row k of a generator's standard-normal sequence is the noise of
    the run's reading k."""
    return tuple(np.random.default_rng(np.random.SeedSequence((int(seed), stream)))
                 for stream in (STREAM_GEN, STREAM_COUT, STREAM_CIN))


def read_slots(scenario, noise, slots, streams):
    """``(p_g, c_out, z_in)`` readings of ``slots`` under ``noise``, one row
    each: the generation and the outdoor temperature of each slot, and the
    standard normals of each reading's indoor temperatures, which the
    caller reads as ``observe(c_in, noise.sigma_temp, z_in[k])`` because
    they depend on the run.

    Every reading takes the next row of each of ``streams`` (from
    :func:`noise_streams`), whatever the sigmas.  Rows drawn one at a time
    equal rows drawn as a block, so a run's reading k is the same whichever
    way it is drawn and however many readings follow.  Generation readings
    are floored at zero (negative power readings are unphysical).
    """
    slots = np.asarray(slots, dtype=int)
    shape = (slots.size, scenario.n_loads)
    gen, cout, cin = streams
    p_g = scenario.p_g_true[slots]
    p_g = np.maximum(observe(p_g, noise.sigma_gen * np.abs(p_g),
                             gen.standard_normal(p_g.shape)), 0.0)
    c_out = observe(scenario.c_out_true[slots, None], noise.sigma_temp,
                    cout.standard_normal(shape))
    return p_g, c_out, cin.standard_normal(shape)


@dataclass
class Scenario:
    """Fully resolved simulation inputs (profiles sampled, draws frozen).

    ``objective`` is the scenario's :class:`~usecb.thermal.Quadratic`,
    ``band`` its :class:`~usecb.feasible.VoltageBand` and ``env_set`` the
    band's :class:`~usecb.feasible.FeasibleSet` at the true slot-0
    generation, all built once here, so an empty slot-0 set fails at
    construction.  The deterministic solver projects onto the same sets in
    the objective's metric (``project(x, objective.scale)``).  Only the
    objective's linear term and the band's offset change from slot to
    slot.
    """

    name: str
    kind: str
    model: GridModel
    buildings: BuildingParams
    bounds: dict
    noise: NoiseConfig
    horizon: int
    dt: float
    lambda_price: float
    seed: int
    p_g_true: np.ndarray
    c_out_true: np.ndarray
    c_in_init: np.ndarray
    p_fixed: np.ndarray
    s_base_mva: float = 1.0
    bus_names: list = None
    objective: Quadratic = field(init=False, repr=False)
    band: VoltageBand = field(init=False, repr=False)
    env_set: FeasibleSet = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("static", "dynamic"):
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if self.horizon < 1 or self.dt <= 0:
            raise ConfigError("horizon and dt must be positive")
        if self.p_g_true.shape != (self.horizon, len(self.model.gen_buses)):
            raise ConfigError("generation profile does not cover the horizon")
        if self.c_out_true.shape != (self.horizon,):
            raise ConfigError("temperature profile does not cover the horizon")
        self.objective = Quadratic(self.lambda_price, self.buildings,
                                   self.model.blocks, self.p_fixed)
        self.band = build_band(self.model.blocks, self.bounds)
        self.env_set = build_feasible(
            self.band, self.band.offset(self.p_g_true[0], self.p_fixed))

    @property
    def is_static(self):
        return self.kind == "static"

    @property
    def n_loads(self):
        return len(self.model.load_buses)

    def bus_label(self, idx):
        if self.bus_names and idx < len(self.bus_names):
            return str(self.bus_names[idx])
        return str(idx)

    def true_linear_term(self):
        """Linear term of ``objective`` on the true slot-0 inputs."""
        return self.objective.linear_term(
            self.c_in_init, np.full(self.n_loads, self.c_out_true[0]),
            self.p_g_true[0])


def _noisy_linear_terms(scenario, slots, streams):
    """Rows of the objective's linear term as the next readings of
    ``slots`` from ``streams`` see them, at the initial indoor temperatures."""
    noise = scenario.noise
    p_g, c_out, z_in = read_slots(scenario, noise, slots, streams)
    c_in = observe(np.broadcast_to(scenario.c_in_init, z_in.shape),
                   noise.sigma_temp, z_in)
    return scenario.objective.linear_term(c_in, c_out, p_g)


# Steps whose readings the gradient oracle builds at once: large enough to
# spread the per-block cost, small enough that memory does not grow with T.
_ORACLE_CHUNK = 256


def scenario_gradient_oracle(scenario, seeds):
    """Stochastic gradient closure over the readings of one run per seed of
    the sequence ``seeds`` on the static ``scenario``.

    ``oracle(t, x)`` returns, for t = 1, 2, ... in increasing order (as
    :func:`~usecb.mirror.run_online` asks), the gradients at the ``(R, n)``
    stack ``x`` of the objective as reading t of each run sees it: row r
    reads seed r's streams.  Every reading is of the frozen slot 0, and
    reading t is row t of the run's streams (row 0 goes unused).  The
    readings and their linear terms are built ``_ORACLE_CHUNK`` steps at a
    time, so reading t does not depend on how many steps follow, and held
    step-major, ``(k, R, n)``, so that step t's rows are one contiguous
    ``(R, n)`` slab.
    """
    quad = scenario.objective
    streams = [noise_streams(s) for s in seeds]
    slots = np.zeros(_ORACLE_CHUNK, dtype=int)
    start, b = 0, np.empty((0, len(seeds), scenario.n_loads))

    def oracle(t, x):
        nonlocal start, b
        if t < start:
            raise ValueError(f"oracle step {t} comes before its block at {start}")
        while t >= start + len(b):
            start += len(b)
            b = np.stack([_noisy_linear_terms(scenario, slots, st)
                          for st in streams], axis=1)
        return quad.grad(x, b[t - start])

    return oracle


def md_bounds(scenario, seed):
    """(D, G*) for the step rule on the scenario's slot-0 set, sampled from
    the stochastic oracle.

    Deterministic under run ``seed`` (independent of ``scenario.seed``): the
    sample points come from the (seed, STREAM_BOUNDS) generator, and the
    probes read their noise as one block from the streams of a seed derived
    from (seed, STREAM_PROBES), disjoint from the run's own streams.  Probe k
    reads slot k of 8 spread over the horizon, cycling, so a drifting
    scenario contributes its whole gradient range to G*; a noise-free
    scenario reads the same slots at zero noise.
    """
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), STREAM_BOUNDS)))
    quad = scenario.objective
    probe_slots = np.unique(np.linspace(0, scenario.horizon - 1, 8, dtype=int))
    streams = noise_streams(derived_seed(seed, STREAM_PROBES))

    def grads(points):
        return quad.grad(points, _noisy_linear_terms(
            scenario, np.resize(probe_slots, len(points)), streams))

    return estimate_bounds(scenario.env_set, grads, rng)


@dataclass
class RunResult:
    """Arrays over the horizon for one (scheme, seed) run.

    Its true profiles are those of its ``scenario``.  ``c_in`` is the run's
    indoor trajectory, ``(T + 1, n)``: row t is the state at the start of
    slot t, row T the state after the last slot.  A static run's never
    moves, so its ``c_in`` is one row broadcast with stride 0, which pickles
    as that row and loads as the same read-only broadcast.  ``c_in_true``
    (rows 0..T-1) and ``c_in_after`` (rows 1..T) are read-only views of it,
    so a run stores, and pickles, one indoor array."""

    scheme: str
    seed: int
    scenario: Scenario = field(repr=False)
    p_c: np.ndarray = None
    p_0: np.ndarray = None
    loss: np.ndarray = None
    f_true: np.ndarray = None
    feasible: np.ndarray = None
    p_g_obs: np.ndarray = None
    c_out_obs: np.ndarray = None
    c_in: np.ndarray = None
    c_in_obs: np.ndarray = None
    # Per slot, whether the exact/oracle solve reached its tolerance, and
    # the steps it took.
    solver_converged: np.ndarray = None
    solver_iterations: np.ndarray = None

    @property
    def c_in_true(self):
        return _read_only(self.c_in[:-1])

    @property
    def c_in_after(self):
        return _read_only(self.c_in[1:])

    def __getstate__(self):
        state = dict(self.__dict__)
        c_in = self.c_in
        if c_in is not None and c_in.strides[0] == 0:
            state["c_in"] = (c_in[0], len(c_in))
        return state

    def __setstate__(self, state):
        if isinstance(state["c_in"], tuple):
            row, rows = state["c_in"]
            state["c_in"] = np.broadcast_to(row, (rows,) + row.shape)
        self.__dict__.update(state)


def _read_only(view):
    view.flags.writeable = False
    return view


def run_scheme(scenario, scheme, seed=None):
    """Simulate one control scheme over the scenario horizon, under ``seed``
    (the scenario's by default) or under each of a sequence of seeds.

    A sequence of R seeds returns R results, one per seed, and an empty
    sequence returns none.  On a static scenario, where every row plays the
    one slot-0 set, they run as one program: the R controls form an
    ``(R, n)`` stack, with stacked gradients, one projection call per step
    for all rows and stacked solves whose rows stop at their own steps.
    Each row keeps its own noise streams, step sizes and solver
    diagnostics, and equals its single-seed run bit for bit; a row that
    raises fails the batch.  On a dynamic scenario each seed has its own
    per-slot sets and runs alone.
    A run of one seed steps plain vectors (row 0 of the stacks), which
    round exactly as a one-row stack does at less cost per numpy call.

    Every run has one slot loop.  Before it, over the whole horizon, runs
    the work that does not depend on the control: the step sizes, the
    noise of each indoor reading, the input part of each linear term
    (``Quadratic.input_term``) and, on a dynamic day, the outdoor part of
    each thermal step and every slot's band offsets from its generation
    reading.  A static run's indoor temperatures stay frozen, so before
    the loop it also forms every slot's reading ``c_in_init + sigma *
    z[t]`` and linear term ``b = input - temp_w * reading``, the same bits
    as ``observe`` and ``linear_term``; a static slot only steps or solves
    on the scenario's set.  A dynamic slot reads its indoor temperature,
    forms its ``b`` the same way, steps or solves, projecting onto
    one shared plain box where its band holds the box
    (:meth:`~usecb.feasible.VoltageBand.holds_box`), else onto
    ``build_feasible(band, offsets[t])``, and advances the indoor
    temperature by ``keep * c_in + outdoor - control_gain * control``, the
    bits of ``thermal_step``.  The slot's reading, linear term, step,
    projected control and indoor temperature are written in place.  After
    the loop, a non-finite control (a nan step, which the clamp of a
    box-only set passes on) raises ``ProjectionError`` naming the seed and
    its first such slot.  Then one pass over blocks of slots does the
    bookkeeping of every row at once: loss, intake and true objective
    against the true physics (``power_loss``, ``grid_intake``,
    ``Quadratic.value`` of ``Quadratic.linear_term``), and each slot's
    feasibility against its own set.  A static run's true inputs are its
    slot-0 ones, passed as one row like its frozen indoor state, so those
    formulas form their constant terms once and broadcast them; each row's
    values equal those of the formulas on its own slots' inputs bit for bit.
    """
    if scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; pick one of {SCHEMES}")
    static = scenario.is_static
    if np.ndim(seed) == 1 and (not static or len(seed) == 0):
        return [run_scheme(scenario, scheme, s) for s in seed]
    seeds = ([int(s) for s in seed] if np.ndim(seed) == 1
             else [scenario.seed if seed is None else int(seed)])
    R, T, n_c = len(seeds), scenario.horizon, scenario.n_loads
    quad, bld = scenario.objective, scenario.buildings
    env_set, band = scenario.env_set, scenario.band
    if scheme == "stochastic":
        D, g_star = np.array([md_bounds(scenario, s) for s in seeds]).T

    # The oracle reads the same slots at zero noise.  Each run's readings
    # land in its rows of the stacks, with the parts of each slot that do
    # not depend on the control: the input part of its linear term, built
    # one run at a time so that its temporaries stay one run's size, and
    # the noise of its indoor reading, which becomes the reading: before
    # the loop on a static run, in the slot loop on a dynamic day.
    noise = NoiseConfig() if scheme == "oracle" else scenario.noise
    pg_obs = np.empty((R, T, len(scenario.model.gen_buses)))
    cout_obs = np.empty((R, T, n_c))
    cin_obs = np.empty((R, T, n_c))
    b_in = np.empty((R, T, n_c))
    for r, s in enumerate(seeds):
        pg_obs[r], cout_obs[r], cin_obs[r] = read_slots(
            scenario, noise, np.arange(T), noise_streams(s))
        b_in[r] = quad.input_term(cout_obs[r], pg_obs[r])
    cin_obs *= noise.sigma_temp
    temp_w, keep, control_gain = quad.temp_w, bld.keep, bld.control_gain
    # Row r, slot t of ``cin`` is the indoor temperature at the start of
    # slot t; slot t+1 is the one after it.
    cin = np.empty((R, 1 if static else T + 1, n_c))
    cin[:, 0] = scenario.c_in_init
    row = 0 if R == 1 else slice(None)
    c_in = cin[row, 0]
    p_c = np.empty((R, T, n_c))
    if static:
        # The indoor state never moves, so every slot's reading and linear
        # term are known here: observe() and linear_term() of all of them.
        np.add(scenario.c_in_init, cin_obs, out=cin_obs)
        b_in -= temp_w * cin_obs
        fset_t = env_set
        offsets = np.broadcast_to(env_set.offset, (T, env_set.offset.size))
    else:
        # Every slot's band offsets from its reading; feasibility is judged
        # against them after the loop.  Slots whose band holds the box share
        # one plain box; every other slot places and certifies its own set
        # in the loop.  The outdoor part of each thermal step is the step
        # from 0 degrees indoors with no AC, exactly outdoor_gain * c_out.
        offsets = band.offset(pg_obs[0], scenario.p_fixed)
        box_slot = band.holds_box(offsets).tolist()
        box_set = FeasibleSet(band.p_min, band.p_max)
        outdoor = thermal_step(0.0, scenario.c_out_true[:, None], 0.0, bld)
    if scheme == "stochastic":
        # Each slot's step size: a float for one seed, an (R, 1) column for
        # a stack.
        eta = step_size(np.arange(1, T + 1), D[:, None], g_star[:, None])
        eta = eta[0].tolist() if R == 1 else eta.T[:, :, None]
    else:
        converged = np.empty((R, T), dtype=bool)
        iterations = np.empty((R, T), dtype=int)
    a = np.repeat(env_set.project(env_set.midpoint())[None], R, axis=0)[row]
    tmp = np.empty_like(a)

    for t in range(T):
        b = b_in[row, t]
        if not static:
            # observe() and linear_term() of this slot's readings, in place.
            c_obs = np.add(c_in, cin_obs[row, t], out=cin_obs[row, t])
            np.subtract(b, np.multiply(temp_w, c_obs, out=tmp), out=b)
            fset_t = box_set if box_slot[t] else build_feasible(band, offsets[t])
        if scheme == "stochastic":
            np.subtract(a, np.multiply(eta[t], quad.grad(a, b), out=tmp), out=tmp)
            a = fset_t.project(tmp, out=p_c[row, t])
        else:
            a, converged[row, t], iterations[row, t] = minimize_projected(
                quad.grad, b, fset_t, quad.scale, quad.L_W, x0=a, tol=_EXACT_TOL)
            p_c[row, t] = a
        if not static:
            # thermal_step(c_in, c_out_true[t], a, bld), bit for bit.
            c_in = np.multiply(keep, c_in, out=cin[0, t + 1])
            np.add(c_in, outdoor[t], out=c_in)
            np.subtract(c_in, np.multiply(control_gain, a, out=tmp), out=c_in)

    # A non-finite step comes back from the clamp of a box-only set as a
    # non-finite control; one test per run, not per slot, catches it.
    bad = ~np.isfinite(p_c).all(axis=-1)
    if bad.any():
        r, t = np.argwhere(bad)[0]
        raise ProjectionError(
            f"{scheme} run (seed {seeds[r]}): non-finite control at slot {t}")

    # Bookkeeping against the true physics, every row at once and one block
    # of slots at a time, so its temporaries stay small.  A static run's
    # true inputs are its slot-0 ones, as one row, like its indoor state, so
    # the formulas form their constant terms once and broadcast them.
    blocks = scenario.model.blocks
    true = 1 if static else T
    pg_true, cout_true = scenario.p_g_true[:true], scenario.c_out_true[:true, None]
    cin_true = cin[:, :true]
    loss, p_0, f_true = np.empty((3, R, T))
    feasible = np.empty((R, T), dtype=bool)
    for lo in range(0, T, _BOOK_BLOCK):
        k = slice(lo, lo + _BOOK_BLOCK)
        k_true = slice(None) if static else k
        pg, cons = pg_true[k_true], p_c[:, k] + scenario.p_fixed
        loss[:, k] = power_loss(blocks.M, blocks.N, blocks.Q, pg, cons)
        p_0[:, k] = grid_intake(pg, cons, loss[:, k])
        f_true[:, k] = quad.value(p_c[:, k], quad.linear_term(
            cin_true[:, k_true], cout_true[k_true], pg))
        feasible[:, k] = band.violation(p_c[:, k], offsets[k]) <= MEMBER_TOL
    outs = []
    for r, s in enumerate(seeds):
        out = RunResult(scheme, s, scenario)
        out.p_c, out.p_g_obs, out.c_out_obs, out.c_in_obs = \
            p_c[r], pg_obs[r], cout_obs[r], cin_obs[r]
        out.loss, out.p_0, out.f_true, out.feasible = \
            loss[r], p_0[r], f_true[r], feasible[r]
        out.c_in = np.broadcast_to(cin[r], (T + 1, n_c))
        if scheme != "stochastic":
            out.solver_converged, out.solver_iterations = \
                converged[r], iterations[r]
            if not out.solver_converged.all():
                logging.getLogger(__name__).warning(
                    "%s run (seed %d): the per-slot solve stopped short of its "
                    "tolerance in %d of %d slots", scheme, s,
                    int(np.count_nonzero(~out.solver_converged)), T)
        outs.append(out)
    return outs if np.ndim(seed) == 1 else outs[0]


def check_window(window):
    if window < 1:
        raise ConfigError(f"trailing window must be at least 1, got {window}")


def metrics(run, trailing_window=100):
    """Aggregate metrics for one run, including the conservation residual;
    the objective variance covers the last ``trailing_window >= 1`` slots.
    Exact and oracle runs add their per-slot solver's converged fraction and
    the median and maximum of its steps."""
    check_window(trailing_window)
    scn = run.scenario
    cons = run.p_c + scn.p_fixed
    residual = run.p_0 - (cons.sum(axis=1) - scn.p_g_true.sum(axis=1) + run.loss)
    dev = np.abs(run.c_in_after - scn.buildings.c_set)
    w = min(trailing_window, run.f_true.shape[0])
    out = {
        "scheme": run.scheme,
        "seed": run.seed,
        "slots": int(run.f_true.shape[0]),
        "loss_total": float(run.loss.sum()),
        "loss_mean": float(run.loss.mean()),
        "intake_total": float(run.p_0.sum()),
        "intake_mean": float(run.p_0.mean()),
        "objective_mean": float(run.f_true.mean()),
        "objective_final": float(run.f_true[-1]),
        "objective_trailing_variance": float(np.var(run.f_true[-w:])),
        "mean_temp_deviation": float(dev.mean()),
        "all_feasible": bool(run.feasible.all()),
        "conservation_max_residual": float(np.max(np.abs(residual))),
    }
    if run.solver_converged is not None:
        out["solver_converged_frac"] = float(run.solver_converged.mean())
        out["solver_iterations_median"] = float(np.median(run.solver_iterations))
        out["solver_iterations_max"] = int(run.solver_iterations.max())
    return out


@contextlib.contextmanager
def atomic_write(path, newline=None):
    """Open ``<path>.tmp`` for text writing and move it onto ``path`` when
    the block completes.  If the block raises, the tmp file is removed and
    whatever was at ``path`` stays as it was."""
    tmp = str(path) + ".tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _floats(n):
    # '%.17g' % x prints what format(x, '.17g') does, -0, nan and inf too.
    return ",".join(["%.17g"] * n)


def _row_strings(fmt, rows):
    """One ``fmt`` string per row of ``rows``, each row converted on its
    own.  A row whose bits equal the previous row's reuses that row's
    string, so -0.0 and 0.0 stay apart."""
    out, key = [], None
    for r in rows:
        bits = r.tobytes()
        if bits != key:
            key, text = bits, fmt % tuple(r.tolist())
        out.append(text)
    return out


def write_run_csv(run, path):
    """Per-slot wide CSV, floats at 17 significant digits, atomic replace.

    Rows are formatted and written ``_BOOK_BLOCK`` slots at a time, one
    ``%`` per row.  Slot t's ``cin_true`` and ``cin_after`` are rows t and
    t+1 of the indoor trajectory ``run.c_in``, whose rows a block formats
    once each.  A row of the trajectory, or of the scenario columns
    (``c_out_true`` and ``pg_true``, read from ``run.scenario``), whose bits
    equal the previous row's reuses that row's string, so a static run
    formats them once a block."""
    scn = run.scenario
    load_labels = [scn.bus_label(b) for b in scn.model.load_buses]
    gen_labels = [scn.bus_label(b) for b in scn.model.gen_buses]
    cols = ["t", "p_0", "loss", "objective", "feasible", "c_out_true"]
    cols += [f"pg_true_{g}" for g in gen_labels]
    cols += [f"pg_obs_{g}" for g in gen_labels]
    for tag in ("pc", "cin_true", "cin_obs", "cout_obs", "cin_after"):
        cols += [f"{tag}_{b}" for b in load_labels]
    n_g, n_c = len(gen_labels), len(load_labels)
    # t, p_0, loss, objective, feasible, then the scenario string, pg_obs
    # and pc, the cin_true string, cin_obs and cout_obs, the cin_after string.
    row = ("%d,%.17g,%.17g,%.17g,%s,%s," + _floats(n_g + n_c) + ",%s,"
           + _floats(2 * n_c) + ",%s\n")
    mid = 3 + n_g + n_c
    scen_fmt, cin_fmt = _floats(1 + n_g), _floats(n_c)

    T = run.f_true.shape[0]
    with atomic_write(path, newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for lo in range(0, T, _BOOK_BLOCK):
            hi = min(lo + _BOOK_BLOCK, T)
            k = slice(lo, hi)
            scen = _row_strings(
                scen_fmt, np.column_stack([scn.c_out_true[k], scn.p_g_true[k]]))
            cin = _row_strings(cin_fmt, run.c_in[lo:hi + 1])
            body = np.column_stack([run.p_0[k], run.loss[k], run.f_true[k],
                                    run.p_g_obs[k], run.p_c[k],
                                    run.c_in_obs[k], run.c_out_obs[k]])
            # A block's floats as objects all at once, or the block joined
            # into one string, would leave the process ~3 MB more resident
            # on the bundled day; one row's floats and lines do not.  A
            # trajectory shorter than T + 1 rows fails the strict zip.
            lines = []
            for t, b, f, s, c0, c1 in zip(
                    range(lo, hi), body, run.feasible[k].tolist(), scen,
                    cin[:-1], cin[1:], strict=True):
                v = b.tolist()
                lines.append(row % (t, *v[:3], f, s, *v[3:mid], c0,
                                    *v[mid:], c1))
            fh.writelines(lines)


def write_json(obj, path):
    """Deterministic JSON dump: sorted keys, and each float as Python's
    shortest repr that reads back to the same value (``json.dump``'s own);
    numpy arrays are written as lists and numpy scalars as their Python
    values."""

    def plain(o):
        if isinstance(o, (np.ndarray, np.generic)):
            return o.tolist()
        raise TypeError(f"{type(o).__name__} is not JSON serializable")

    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=plain)
        fh.write("\n")


def _resolve(cfg, path, base_dir):
    """The data file named at ``path``: beside the config, else bundled."""
    name = _get(cfg, path, kind=str)
    cand = os.path.join(base_dir, name)
    if os.path.exists(cand):
        return cand
    packaged = data_path(name)
    if packaged.is_file():
        return str(packaged)
    raise ConfigError(f"cannot locate referenced file {name!r}")


def _deep_merge(base, override):
    out = dict(base)
    for key, val in (override or {}).items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = val
    return out


_REQUIRED = object()
_ABSENT = object()


def _get(cfg, path, default=_REQUIRED, kind=None):
    """The value at the dotted key ``path`` of a config document, or
    ``default`` when a key on the way is absent.  Raises ``ConfigError``
    naming the key for an absent required key, a section on the way that is
    not an object, or a value that is not a ``kind`` (``list`` or ``str``)."""
    node, keys = cfg, path.split(".")
    for i, key in enumerate(keys):
        if not isinstance(node, dict):
            raise ConfigError(f"config value {'.'.join(keys[:i])} must be an "
                              f"object, got {node!r}")
        if key not in node:
            if default is _REQUIRED:
                raise ConfigError(f"config is missing {path}")
            return default
        node = node[key]
    if kind is not None and not isinstance(node, kind):
        name = {list: "a list", str: "a string"}[kind]
        raise ConfigError(f"config value {path} must be {name}, got {node!r}")
    return node


def _number(cfg, path, default=_REQUIRED, integer=False):
    """The number at the dotted key ``path`` of a config document, or
    ``default`` when a key on the way is absent; a list of numbers comes
    back as an array.

    Raises ``ConfigError`` naming the path (``path[i]`` for a list entry)
    for an absent required key, a value that is not a JSON number (a
    string or a boolean included), a NaN or infinite one, or, with
    ``integer``, a fractional one.
    """
    value = _get(cfg, path, _REQUIRED if default is _REQUIRED else _ABSENT)
    return default if value is _ABSENT else _checked_number(value, path, integer)


def _checked_number(value, path, integer=False):
    if isinstance(value, list):
        return np.array([_checked_number(v, f"{path}[{i}]", integer)
                         for i, v in enumerate(value)])
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config value {path} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number) or (integer and not number.is_integer()):
        kind = "integer" if integer else "number"
        raise ConfigError(f"config value {path} must be a finite {kind}, "
                          f"got {value!r}")
    return int(value) if integer else number


def scenario_from_config(cfg, base_dir):
    """Build a Scenario from a parsed config document whose relative file
    names resolve against ``base_dir``, then against the bundled data."""
    if cfg.get("schema_version") != 1:
        raise ConfigError("config must declare schema_version: 1")
    kind = cfg.get("kind", "static")
    if kind == "flows":
        raise ConfigError("flows configs describe radial cases, not scenarios")
    s_base = _number(cfg, "s_base_mva", 1.0)
    if s_base <= 0:
        raise ConfigError(
            f"config value s_base_mva must be positive, got {s_base!r}")
    seed = _number(cfg, "seed", 0, integer=True)
    if seed < 0:
        raise ConfigError("seed must be a nonnegative integer")

    lines, n_buses = load_network_csv(_resolve(cfg, "network", base_dir))
    bus_names = _get(cfg, "bus_names", None, kind=list)
    if bus_names is not None and len(bus_names) != n_buses:
        raise ConfigError("bus_names length does not match the network")
    name_to_idx = {str(n): i for i, n in enumerate(bus_names or [])}

    gen_idx = []
    for i, b in enumerate(_get(cfg, "generation.buses", kind=list)):
        key = str(b)
        if key in name_to_idx:
            gen_idx.append(name_to_idx[key])
        else:
            gen_idx.append(_checked_number(b, f"generation.buses[{i}]",
                                           integer=True))
    gen_idx = sorted(gen_idx)
    load_idx = sorted(set(range(1, n_buses)) - set(gen_idx))
    model = GridModel.build(lines, n_buses, gen_idx, load_idx)

    horizon = _number(cfg, "horizon", integer=True)
    dt = _number(cfg, "dt_s", 48.0)
    if dt <= 0:
        raise ConfigError(f"config value dt_s must be positive, got {dt!r}")
    start = _number(cfg, "start_s", 0.0)
    if kind == "static":
        times = np.full(horizon, start)
    else:
        times = start + dt * np.arange(horizon)

    pv = load_timeseries(_resolve(cfg, "generation.profile", base_dir))
    norm = pv.resample(times)
    cap = _number(cfg, "generation.capacity_mw")
    cap = np.broadcast_to(cap, (len(gen_idx),)) / s_base
    p_g_true = norm[:, None] * cap[None, :]

    temp = load_timeseries(_resolve(cfg, "temperature_profile", base_dir))
    c_out_true = temp.resample(times)

    n_c = len(load_idx)
    rng_init = np.random.default_rng(np.random.SeedSequence((seed, STREAM_INIT)))
    c_in_init = _number(cfg, "indoor_init.mean", 70.0) \
        + _number(cfg, "indoor_init.std", 0.0) \
        * rng_init.standard_normal(n_c)
    if not np.all(np.isfinite(c_in_init)):
        raise ConfigError("indoor_init must give finite temperatures")

    p_fixed = np.full(n_c, _number(cfg, "load.fixed_mw", 0.0) / s_base)
    p_min = _number(cfg, "load.ac_min_mw", 0.0) / s_base
    ac_max = _number(cfg, "load.ac_max_mw")
    if ac_max <= 0:
        raise ConfigError(
            f"config value load.ac_max_mw must be positive, got {ac_max!r}")
    p_max = ac_max / s_base

    rng_gain = np.random.default_rng(np.random.SeedSequence((seed, STREAM_GAINS)))
    gain_mean = _number(cfg, "buildings.cooling_gain_mean", 1.0)
    gain_std = _number(cfg, "buildings.cooling_gain_std", 0.0)
    if gain_std < 0:
        raise ConfigError("config value buildings.cooling_gain_std must be "
                          f"nonnegative, got {gain_std!r}")
    gains = rng_gain.normal(gain_mean, gain_std, n_c)
    for _ in range(100):
        bad = gains <= 0
        if not bad.any():
            break
        gains[bad] = rng_gain.normal(gain_mean, gain_std, int(bad.sum()))
    alpha2 = gains / (p_max * dt)
    alpha1 = np.full(n_c, _number(cfg, "buildings.alpha1_per_s", 0.0))
    beta = np.full(n_c, _number(cfg, "buildings.beta"))

    mode = "common"
    if _get(cfg, "buildings.set_point", None) is not None:
        mode = _get(cfg, "buildings.set_point.mode")
    if mode == "common":
        c_set = np.full(n_c, _number(cfg, "buildings.set_point.value", 70.0))
    elif mode == "tracking":
        # Solved below, once the scenario's objective exists.
        c_set = np.zeros(n_c)
    else:
        raise ConfigError(f"unknown set_point mode {mode!r}")

    buildings = BuildingParams(alpha1, alpha2, beta, c_set, dt)
    include_gen = _get(cfg, "voltage_band.include_gen_buses", True)
    if not isinstance(include_gen, bool):
        raise ConfigError("config value voltage_band.include_gen_buses must be "
                          f"true or false, got {include_gen!r}")
    bounds = {
        "p_min": p_min,
        "p_max": p_max,
        "v_min": _number(cfg, "voltage_band.v_min", -np.inf),
        "v_max": _number(cfg, "voltage_band.v_max", np.inf),
        "include_gen_buses": include_gen,
    }
    gen_mode = _get(cfg, "noise.gen_mode", "relative")
    if gen_mode != "relative":
        raise ConfigError(f"noise.gen_mode must be \"relative\", got {gen_mode!r}")
    noise = NoiseConfig(sigma_temp=_number(cfg, "noise.sigma_temp", 0.0),
                        sigma_gen=_number(cfg, "noise.sigma_gen", 0.0))

    scenario = Scenario(
        name=str(cfg.get("name", "scenario")),
        kind=kind,
        model=model,
        buildings=buildings,
        bounds=bounds,
        noise=noise,
        horizon=horizon,
        dt=dt,
        lambda_price=_number(cfg, "lambda_price", 1.0),
        seed=seed,
        p_g_true=p_g_true,
        c_out_true=c_out_true,
        c_in_init=c_in_init,
        p_fixed=p_fixed,
        s_base_mva=s_base,
        bus_names=bus_names,
    )
    if mode == "tracking":
        # Position each building's unconstrained optimum at a fraction of the
        # AC range: solve grad f(target) = 0 for the set point, coupling
        # included.  Keeps the stationary-noise experiment's optimizer
        # strictly interior.  The set point enters the gradient only as
        # comfort_w * c_set, and every set point is still zero here.
        frac = _number(cfg, "buildings.set_point.target_fraction", 0.5)
        target = np.full(n_c, p_min + frac * (p_max - p_min))
        quad = scenario.objective
        buildings.c_set[:] = (-quad.grad(target, scenario.true_linear_term())
                              / quad.comfort_w)
    return scenario


def _read_config(path):
    """The JSON object in the file ``path``; ``ConfigError`` if there is none."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {cfg!r}")
    return cfg


def load_scenario(path, overrides=None):
    """Load a scenario JSON document, optionally merging overrides."""
    cfg = _deep_merge(_read_config(path), overrides)
    return scenario_from_config(cfg, base_dir=os.path.dirname(os.path.abspath(path)))


def build_ieee37_scenario(overrides=None, variant="static"):
    """Bundled IEEE-37 feeder scenario; overrides deep-merge into the config."""
    fname = {
        "static": "ieee37_static.json",
        "dynamic": "ieee37_dynamic.json",
        "regret": "ieee37_regret.json",
    }.get(variant)
    if fname is None:
        raise ConfigError(f"unknown variant {variant!r}")
    return load_scenario(str(data_path(fname)), overrides)


def derived_seed(*key):
    """Stable 64-bit seed derived from the integers ``key``."""
    ss = np.random.SeedSequence(tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def replication_seed(base_seed, rep):
    """Stable derived seed for replication ``rep`` of a base seed."""
    return derived_seed(base_seed, STREAM_REP, rep)
