"""Replication experiments built on the simulator and the online solver.

Everything here is deterministic under (config, seed): replication seeds
derive from the base seed, and each run draws its observation noise as rows
of one sequence per (seed, stream).  The regret experiment and the static
comparison run their replications in this process, as stacked programs
(:func:`~usecb.mirror.run_online` on a stack of start points, one for all
replications; :func:`~usecb.sim.run_scheme` on a sequence of seeds, 16
seeds at a time per scheme), so the per-slot cost of the many small numpy
calls is paid once for all rows.  No command uses a process pool:
:func:`map_replications` (a process per job, so jobs and their arguments
pickle; results merge by sorted key), :func:`default_workers` and
:func:`run_scheme_job` remain as the benchmark's fan-out until ROADMAP open
items 1 and 2 delete them.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import AssumptionError, ConfigError
from .mirror import minimize_projected, regret, run_online
from .sim import (check_window, md_bounds, metrics, replication_seed,
                  run_scheme, scenario_gradient_oracle)

__all__ = [
    "static_problem",
    "run_regret_experiment",
    "run_static_comparison",
    "map_replications",
    "default_workers",
]


def default_workers():
    return max(1, min(4, os.cpu_count() or 1))


def map_replications(fn, jobs):
    """Run ``fn(*args)`` for every ``key -> args`` entry in ``jobs``.

    Returns ``{key: result}`` with keys processed in sorted order.  With
    more than one job and more than one of :func:`default_workers` the jobs
    run in separate processes, so ``fn`` and all arguments must be
    picklable.
    """
    keys = sorted(jobs)
    workers = default_workers()
    if workers <= 1 or len(keys) <= 1:
        return {k: fn(*jobs[k]) for k in keys}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *jobs[k]) for k in keys]
        return {k: fut.result() for k, fut in zip(keys, futures)}


def static_problem(scenario):
    """Frozen-objective pieces of a static scenario.

    Returns (a_star, f_star) on the scenario's slot-0 set.  a_star is
    pinned by deterministic projected gradient descent to 1e-10.
    """
    if not scenario.is_static:
        raise AssumptionError("stationary objective requires a static scenario")
    quad = scenario.objective
    b_true = scenario.true_linear_term()
    a_star, converged, _ = minimize_projected(
        quad.grad, b_true, scenario.env_set, quad.scale, quad.L_W, tol=1e-10)
    if not converged:
        logging.getLogger(__name__).warning(
            "a_star solve stopped short of its 1e-10 tolerance; regret is "
            "measured against an approximate optimum")
    return a_star, quad.value(a_star, b_true)


def run_scheme_job(scenario, scheme, seed):
    """Picklable wrapper for one simulator run."""
    return run_scheme(scenario, scheme, seed=seed)


def _regret_job(scenario, horizons, seeds, D, g_star, a_star):
    """R_T of each of ``seeds`` (rows) at each of the ascending ``horizons``
    (columns), from one stacked run of the longest: step t of a run sees the
    same readings whatever its length, so the run's first T iterates are
    those of a run of length T.  Regret is accounted block by block as the
    iterates come, so memory does not grow with the horizon."""
    quad = scenario.objective
    b_true = scenario.true_linear_term()
    fset = scenario.env_set
    totals = np.empty((len(seeds), len(horizons)))
    done, running = 0, np.zeros(len(seeds))
    for points in run_online(fset, scenario_gradient_oracle(scenario, seeds),
                             horizons[-1], D, g_star,
                             np.tile(fset.midpoint(), (len(seeds), 1))):
        _, curve = regret(points, lambda x: quad.value(x, b_true), a_star,
                          running)
        for i, T in enumerate(horizons):
            if done < T <= done + curve.shape[1]:
                totals[:, i] = curve[:, T - 1 - done]
        done, running = done + curve.shape[1], curve[:, -1]
    return totals


def run_regret_experiment(scenario, horizons=(100, 1000, 10000),
                          replications=20, base_seed=None):
    """Mean regret growth over horizons plus a concentration tail check.

    Fits the least-squares slope of log mean R_T against log T and counts
    how often R_T exceeds 2 D G* sqrt(T/alpha) + eps with
    eps = 2 D G* sqrt(T/alpha); the comparison bound is the concentration
    expression exp(-alpha eps^2 / (16 T D^2 G*^2)), which evaluates to
    exp(-1/4) at that eps.  alpha = 1 is the strong-convexity constant of
    the potential ||x||^2 / 2.  Raises ``ConfigError`` for an empty or
    nonpositive horizon list or fewer than one replication.
    """
    horizons = sorted(int(t) for t in horizons)
    if not horizons or horizons[0] < 1:
        raise ConfigError(f"horizons must be positive integers, got {horizons}")
    _check_replications(replications)
    base_seed = scenario.seed if base_seed is None else int(base_seed)
    a_star, f_star = static_problem(scenario)
    D, g_star = md_bounds(scenario, base_seed)
    alpha = 1.0

    totals = _regret_job(scenario, horizons,
                         [replication_seed(base_seed, rep)
                          for rep in range(replications)], D, g_star, a_star)

    per_T = {}
    for i, T in enumerate(horizons):
        vals = totals[:, i]
        envelope = 2.0 * D * g_star * math.sqrt(T / alpha)
        threshold = envelope + envelope
        per_T[T] = {
            "mean_regret": float(vals.mean()),
            "std_regret": float(vals.std()) if replications > 1 else None,
            "tail_frequency": float(np.mean(vals >= threshold)),
            "tail_bound": float(math.exp(-0.25)),
            "envelope": float(envelope),
        }

    logt = np.log([float(T) for T in horizons])
    logr = np.log([per_T[T]["mean_regret"] for T in horizons])
    slope = float(np.polyfit(logt, logr, 1)[0]) if len(horizons) > 1 else None

    return {
        "horizons": horizons,
        "replications": replications,
        "base_seed": base_seed,
        "D": float(D),
        "G_star": float(g_star),
        "alpha": alpha,
        "f_star": float(f_star),
        "slope": slope,
        "per_horizon": {str(T): per_T[T] for T in horizons},
        "max_tail_frequency": float(max(per_T[T]["tail_frequency"]
                                        for T in horizons)),
    }


def _check_replications(replications):
    if replications < 1:
        raise ConfigError(f"replications must be at least 1, got {replications}")


# Seeds that one stacked run of the static comparison takes at once: each
# row holds its (T, n) readings and controls until the run ends.
_SEED_BLOCK = 16


def _comparison_job(scenario, scheme, seeds, window):
    """Metrics of a run of ``scheme`` per seed, from stacked runs of at most
    16 seeds each, so memory does not grow with the replication count."""
    out = []
    for lo in range(0, len(seeds), _SEED_BLOCK):
        # One comprehension per block: its runs are freed before the next.
        out += [metrics(run, trailing_window=window)
                for run in run_scheme(scenario, scheme,
                                      seed=seeds[lo:lo + _SEED_BLOCK])]
    return out


def run_static_comparison(scenario, replications=50, base_seed=None,
                          window=100, rel_tol=0.01):
    """Stochastic vs exact scheme over seeded replications of a static run.

    Per replication: does the stochastic scheme's final true objective land
    within ``rel_tol`` of the oracle optimum, and is its trailing-window
    objective variance strictly below the exact scheme's?  Raises
    ``ConfigError`` for fewer than one replication or a ``window`` below 1.
    """
    _check_replications(replications)
    check_window(window)
    base_seed = scenario.seed if base_seed is None else int(base_seed)
    _, f_star = static_problem(scenario)

    seeds = [replication_seed(base_seed, rep) for rep in range(replications)]
    st, ex = (_comparison_job(scenario, scheme, seeds, window)
              for scheme in ("stochastic", "exact"))

    tol = rel_tol * abs(f_star)
    converged = [s["objective_final"] - f_star <= tol for s in st]
    var_lower = [s["objective_trailing_variance"] < e["objective_trailing_variance"]
                 for s, e in zip(st, ex)]

    return {
        "replications": replications,
        "base_seed": base_seed,
        "f_star": float(f_star),
        "tolerance": float(tol),
        "converged_fraction": float(np.mean(converged)),
        "variance_lower_fraction": float(np.mean(var_lower)),
        "all_feasible": bool(all(m["all_feasible"] for m in st + ex)),
        "stochastic_trailing_variance_mean": float(np.mean(
            [m["objective_trailing_variance"] for m in st])),
        "exact_trailing_variance_mean": float(np.mean(
            [m["objective_trailing_variance"] for m in ex])),
    }
