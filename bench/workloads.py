"""The benchmark's workloads and the bookkeeping they share.

Every workload is the same steps on different inputs:

1. set-up: build the workload's scenarios from config, several times;
2. scheme pass: the workload's schemes on the run's seed through the
   process pool, as ``usecb compare`` runs them, then for each completed
   run the rest of ``usecb simulate`` (the slot CSV and the summary JSON);
3. stages, until the time is spent: ``replications`` stochastic runs
   through ``map_replications`` with the program's default workers (on the
   day workloads this stage is the replication experiment); on
   ``static-replications`` every stage also runs the regret experiment and
   the static comparison on the run's seed.

Every stage runs the same days: those of a fixed panel of noise seeds
(``PANEL_SEED``), whatever the run's own seed, which drives the scheme pass
and the static experiments.  On the tight band the Dykstra sweeps a day
needs vary up to twofold from one noise seed to another, so with days
drawn from the run's seed the figures measured the draw, not the program.

Every operation of a workload is expected to complete.  A scheme that
raises ``ProjectionError`` or ``FeasibilityError`` is still recorded with
its exception, message, time spent and the slot it reached, counted as
failed, and the workload carries on.

Machine speed: on the small shared machines this runs on, the same work
takes 1.7 times longer for stretches of seconds to minutes when the host
is busy, which no median within a run removes.  So every timed step is
bracketed by a fixed calibration (interpreter loop plus small numpy
operations, the mix the program runs) in the process that does the work,
and its time is scaled by ``REFERENCE_S / calibration``: the time the step
would take on a machine where the calibration takes ``REFERENCE_S``.  A
pool stage's wall time is scaled by its jobs' own factors.  The raw times
are kept beside the scaled ones in the result file.
"""

from __future__ import annotations

import os
import time

import numpy as np

from usecb import experiments, sim
from usecb.errors import FeasibilityError, ProjectionError

# The code object of the untraced ``run_scheme``, used to find the slot a
# failing run reached from its traceback.
_RUN_SCHEME_CODE = sim.run_scheme.__code__

TIGHT_BAND = {"voltage_band": {"v_min": 0.975}}
# Schemes that raise ProjectionError on the tight band: oracle at slot 0,
# exact at slot 0 or between slots 620 and 750, by seed.  They are left
# out of the day-tight workload, whose every operation must complete, and
# probed by selftest.py instead.
TIGHT_BAND_FAILING = ("exact", "oracle")
# Base seed of the panel of noise seeds that every stage of every run
# runs, whatever the run's own seed (see the module docstring).
PANEL_SEED = 1000

REFERENCE_S = 0.010
SETUP_BATCH = 5
_CAL_MATRIX = np.linspace(0.0, 1.0, 36 * 33).reshape(36, 33)


def calibration_s():
    """Time a fixed mix of interpreter and small-array work (about 10 ms on
    an unloaded 2-vCPU Xeon VM, about 17 ms when its host is busy)."""
    t0 = time.perf_counter()
    x = 0
    for i in range(30_000):
        x += i * i
    v = np.ones(33)
    for _ in range(1_500):
        v = np.clip(_CAL_MATRIX.T @ (_CAL_MATRIX @ v) * 1e-3 + v, 0.0, 2.0)
    return time.perf_counter() - t0


class Timer:
    """Wall time of a block, raw and scaled to the reference speed by the
    mean of a calibration taken just before and just after it."""

    def __enter__(self):
        self.raw = self.scaled = None
        self._before = calibration_s()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw = time.perf_counter() - self._t0
        calibration = 0.5 * (self._before + calibration_s())
        self.scaled = self.raw * REFERENCE_S / calibration
        return False


SIZES = {
    # regret and comparison sizes are the smallest at which the acceptance
    # thresholds hold with margin on every seed tried (slope 0.47-0.51,
    # converged and variance-lower fractions 1.0).
    "full": {"setups": 12, "replications": 4, "regret_horizons": (100, 1000, 3000),
             "regret_reps": 4, "compare_reps": 6, "window": 100,
             "horizon": None},
    "tiny": {"setups": 2, "replications": 2, "regret_horizons": (20, 40, 80),
             "regret_reps": 2, "compare_reps": 2, "window": 10,
             "horizon": 24},
}


class Recorder:
    """Samples, units (scheme runs and experiments), checks and failures."""

    def __init__(self, outdir, tracer=None):
        self.outdir = outdir
        self.tracer = tracer
        self.samples = {}
        self.units = []
        self.checks = []
        self._summaries = {}
        self._phase = 0

    def sample(self, name, value, raw=None):
        """Record a value, or a Timer's scaled time with its raw time."""
        if isinstance(value, Timer):
            value, raw = value.scaled, value.raw
        if raw is not None:
            self.samples.setdefault(name + ".raw", []).append(raw)
        self.samples.setdefault(name, []).append(value)

    def phase(self):
        """Start the next phase (set-up, scheme pass, a stage); spans of a
        phase, in the workers too, carry its number as their run id."""
        self._phase += 1
        if self.tracer is not None:
            self.tracer.run_id = self._phase

    def start(self, label, seed):
        unit = {"unit": label, "seed": seed, "phase": self._phase, "ok": True}
        self.units.append(unit)
        return unit

    def fail(self, unit, exc, seconds):
        unit.update(ok=False, error=type(exc).__name__, message=str(exc),
                    seconds=seconds)

    def check(self, unit, name, ok, detail):
        ok = bool(ok)
        self.checks.append({"unit": unit["unit"], "seed": unit["seed"],
                            "check": name, "ok": ok, "detail": detail})
        if not ok:
            unit["ok"] = False

    def same_bytes(self, unit, key, path):
        """Check that a summary written for ``key`` before is byte-identical."""
        with open(path, "rb") as fh:
            data = fh.read()
        first = self._summaries.setdefault(key, data)
        if first is not data:
            self.check(unit, "same-seed summary bytes", first == data, str(key))


def _failed_slot(exc):
    tb = exc.__traceback__
    slot = None
    while tb is not None:
        if tb.tb_frame.f_code is _RUN_SCHEME_CODE:
            slot = tb.tb_frame.f_locals.get("t")
        tb = tb.tb_next
    return slot


def scheme_job(scn, scheme, seed):
    """One timed ``run_scheme`` through the program's picklable job.

    Returns ``(run, raw_s, scaled_s, failure)``; a run that raises
    ``ProjectionError`` or ``FeasibilityError`` comes back as ``run=None``
    with its failure record, so a pool of these never aborts."""
    try:
        with Timer() as tm:
            run = experiments.run_scheme_job(scn, scheme, seed)
    except (ProjectionError, FeasibilityError) as exc:
        return None, tm.raw, tm.scaled, {
            "error": type(exc).__name__, "message": str(exc),
            "slot": _failed_slot(exc)}
    return run, tm.raw, tm.scaled, None


def record_run(rec, label, scheme, seed, outcome):
    """Account one scheme run: its outcome, the rest of ``usecb simulate``
    (slot CSV and summary JSON) and a byte comparison of the summary with
    any earlier one for the same seed.  Conservation and feasibility are
    checked on every completed run."""
    run, raw, scaled, failure = outcome
    unit = rec.start(f"{label}:{scheme}", seed)
    unit["seconds"] = raw
    if failure is not None:
        unit.update(ok=False, **failure)
        return
    unit["slots"] = run.f_true.shape[0]
    csv_path = os.path.join(rec.outdir, f"slots_{scheme}_{seed}.csv")
    json_path = os.path.join(rec.outdir, f"summary_{scheme}_{seed}.json")
    with Timer() as tm:
        sim.write_run_csv(run, csv_path)
        summary = sim.metrics(run)
        sim.write_json(summary, json_path)
    rec.sample("output_s", tm)
    _check_run(rec, unit, summary)
    rec.same_bytes(unit, (label, scheme, seed), json_path)
    os.remove(csv_path)
    os.remove(json_path)


def _check_run(rec, unit, summary):
    res = summary["conservation_max_residual"]
    rec.check(unit, "conservation residual <= 1e-9", res <= 1e-9, f"{res:.3e}")
    rec.check(unit, "all_feasible", summary["all_feasible"], "")


def stochastic_stage(rec, scn, label, seeds):
    """Stochastic runs on ``seeds`` through the pool.  Samples the stage's
    stochastic time per slot and returns its raw wall time and that time
    scaled by the jobs' own speed factors."""
    t0 = time.perf_counter()
    outcomes = experiments.map_replications(
        scheme_job, {i: (scn, "stochastic", s) for i, s in enumerate(seeds)})
    wall = time.perf_counter() - t0
    raw = sum(o[1] for o in outcomes.values())
    scaled = sum(o[2] for o in outcomes.values())
    for i, s in enumerate(seeds):
        record_run(rec, label, "stochastic", s, outcomes[i])
    done = [o for o in outcomes.values() if o[3] is None]
    if done:
        slots = sum(o[0].f_true.shape[0] for o in done)
        rec.sample("stochastic_slot_ms", 1e3 * sum(o[2] for o in done) / slots,
                   raw=1e3 * sum(o[1] for o in done) / slots)
    return wall, wall * scaled / raw


def _experiment(rec, label, seed, fn, **kwargs):
    """Run one experiment as a unit; returns ``(report, unit, timer)``,
    with ``report=None`` when it raised."""
    unit = rec.start(label, seed)
    try:
        with Timer() as tm:
            report = fn(**kwargs)
    except (ProjectionError, FeasibilityError) as exc:
        rec.fail(unit, exc, tm.raw)
        return None, unit, tm
    unit["seconds"] = tm.raw
    rec.sample(f"{label}_s", tm)
    _same_report(rec, unit, (label, seed), report)
    return report, unit, tm


def static_experiments(rec, scn_static, scn_regret, seed, size):
    """``run_regret_experiment`` and ``run_static_comparison``, checked
    against the acceptance suite's thresholds."""
    regret, unit, tm_regret = _experiment(
        rec, "regret", seed, experiments.run_regret_experiment,
        scenario=scn_regret, horizons=size["regret_horizons"],
        replications=size["regret_reps"], base_seed=seed)
    if regret is not None:
        slope = regret["slope"]
        rec.check(unit, "regret slope in [0.4, 0.6]", 0.4 <= slope <= 0.6,
                  f"{slope:.4f}")
        tails = [(row["tail_frequency"], row["tail_bound"])
                 for row in regret["per_horizon"].values()]
        rec.check(unit, "tail frequency <= bound + 0.05",
                  all(f <= b + 0.05 for f, b in tails), str(tails))

    compare, unit, tm_compare = _experiment(
        rec, "compare", seed, experiments.run_static_comparison,
        scenario=scn_static, replications=size["compare_reps"], base_seed=seed,
        window=size["window"], rel_tol=0.01)
    if compare is not None:
        for key in ("converged_fraction", "variance_lower_fraction"):
            rec.check(unit, f"{key} >= 0.9", compare[key] >= 0.9,
                      f"{compare[key]:.3f}")
        rec.check(unit, "all_feasible", compare["all_feasible"], "")

    if regret is not None and compare is not None:
        rec.sample("replications_s.raw", tm_regret.raw + tm_compare.raw)
        rec.sample("replications_s", tm_regret.scaled + tm_compare.scaled)


def _same_report(rec, unit, key, report):
    path = os.path.join(rec.outdir, f"{key[0]}_{key[1]}.json")
    sim.write_json(report, path)
    rec.same_bytes(unit, key, path)
    os.remove(path)


class Workload:
    """Scenario configs of one workload and the schemes its scheme pass
    runs; ``static`` selects the static experiments as its replication
    experiment."""

    def __init__(self, name, configs, schemes=sim.SCHEMES, static=False):
        self.name = name
        self.configs = configs
        self.schemes = schemes
        self.static = static

    def setup(self, rec, size):
        """Build every scenario ``size['setups']`` times; keep the last.

        One set-up takes about 2 ms, so each timed sample is a batch of
        ``SETUP_BATCH`` of them, long enough for the calibration to scale."""
        rec.phase()
        horizon = {} if size["horizon"] is None else {"horizon": size["horizon"]}
        scns = None
        for _ in range(size["setups"]):
            with Timer() as tm:
                for _ in range(SETUP_BATCH):
                    scns = [sim.load_scenario(str(sim.data_path(fname)),
                                              {**overrides, **horizon} or None)
                            for fname, overrides in self.configs]
            tm.raw /= SETUP_BATCH
            tm.scaled /= SETUP_BATCH
            rec.sample("setup_s", tm)
        return scns

    def scheme_pass(self, rec, scns, seed):
        # The schemes go through the pool as ``usecb compare`` runs them.
        rec.phase()
        outcomes = experiments.map_replications(
            scheme_job, {scheme: (scns[0], scheme, seed) for scheme in self.schemes})
        for scheme in self.schemes:
            record_run(rec, self.name, scheme, seed, outcomes[scheme])

    def stage(self, rec, scns, seed, size):
        # Every stage runs the panel's days, so from the second stage on each
        # summary is checked byte for byte against the first stage's.
        rec.phase()
        seeds = [sim.replication_seed(PANEL_SEED, i) for i in range(size["replications"])]
        wall, scaled = stochastic_stage(rec, scns[0], self.name, seeds)
        if not self.static:
            rec.sample("replications_s.raw", wall)
            rec.sample("replications_s", scaled)
        else:
            static_experiments(rec, scns[0], scns[1], seed, size)


WORKLOADS = {
    "day-loose": Workload("day-loose", [("ieee37_dynamic.json", {})]),
    # exact and oracle raise ProjectionError on this band (TIGHT_BAND_FAILING),
    # so the scheme pass runs the stochastic scheme only.
    "day-tight": Workload("day-tight", [("ieee37_dynamic.json", TIGHT_BAND)],
                          schemes=("stochastic",)),
    "static-replications": Workload(
        "static-replications",
        [("ieee37_static.json", {}), ("ieee37_regret.json", {})], static=True),
}
