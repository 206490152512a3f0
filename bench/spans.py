"""Span tracing for the benchmark, installed from outside the program.

The tracer replaces each traced public function of ``usecb`` with a wrapper
at the place its caller looks it up (a module global such as
``usecb.sim.observe``, or a class attribute such as ``FeasibleSet.project``)
and restores the originals afterwards.  Nothing in ``src/`` changes.

A span is a list ``[name, start, end, pid, serial, parent_pid,
parent_serial, run, tag]``: ``(pid, serial)`` identifies it, the parent is
the span that was open when it started (``None`` at the top), ``run`` is the
benchmark phase that caused it (set-up, scheme pass, a stage) and ``tag``
an optional mark: the scheme of a ``run_scheme`` span, the exception of a
span that raised, ``band`` for a projection that left the box clamp, the
bytes a write produced.  Spans stay in memory and are written out once,
when the benchmark ends.

Worker processes: ``map_replications`` forks its pool from the traced
process, so workers inherit the wrappers and the open span stack.  Each
replication job appends the spans it recorded to a per-worker file in a
spool directory; the parent reads them back after the pool has joined.
Under a start method other than ``fork`` the workers import the program
afresh and record nothing, and the result says so.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import time

import numpy as np

# (module, attribute path, span name).  Each entry is patched where the
# caller looks the name up, so several entries can share one span name.
TRACE_POINTS = (
    ("usecb.grid", "GridModel.build", "grid.build"),
    ("usecb.sim", "power_loss", "grid.power_loss"),
    ("usecb.sim", "load_timeseries", "timeseries.load"),
    ("usecb.sim", "thermal_step", "thermal.thermal_step"),
    ("usecb.sim", "build_feasible", "feasible.build"),
    ("usecb.feasible", "FeasibleSet.project", "feasible.project"),
    ("usecb.sim", "minimize_projected", "mirror.minimize_projected"),
    ("usecb.experiments", "minimize_projected", "mirror.minimize_projected"),
    ("usecb.sim", "estimate_bounds", "mirror.estimate_bounds"),
    ("usecb.experiments", "run_online", "mirror.run_online"),
    ("usecb.experiments", "regret", "mirror.regret"),
    ("usecb.sim", "observe", "sim.observe"),
    ("usecb.sim", "run_scheme", "sim.run_scheme"),
    ("usecb.experiments", "run_scheme", "sim.run_scheme"),
    ("usecb.sim", "load_scenario", "sim.load_scenario"),
    ("usecb.sim", "write_run_csv", "sim.write_run_csv"),
    ("usecb.sim", "write_json", "sim.write_json"),
    ("usecb.experiments", "map_replications", "experiments.map_replications"),
    ("usecb.experiments", "static_problem", "experiments.static_problem"),
    ("usecb.experiments", "_regret_job", "experiments.job"),
    ("usecb.experiments", "_comparison_job", "experiments.job"),
    ("usecb.experiments", "run_scheme_job", "experiments.job"),
)


NAME, START, END, PID, SERIAL, PARENT_PID, PARENT_SERIAL, RUN, TAG = range(9)


class Tracer:
    """In-memory span recorder with install/uninstall of the trace points."""

    def __init__(self, spool_dir):
        self.spans = []
        self.run_id = 0
        self.spool_dir = spool_dir
        self.root_pid = os.getpid()
        self._serial = itertools.count()
        self._stack = []
        self._saved = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else (None, None)
        span = [name, time.perf_counter(), None, os.getpid(),
                next(self._serial), parent[0], parent[1], self.run_id, None]
        self.spans.append(span)
        self._stack.append((span[PID], span[SERIAL]))
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        tracer = self

        if name == "feasible.project":
            @functools.wraps(fn)
            def traced(fset, x, *args, **kwargs):
                span = tracer._open(name)
                try:
                    out = fn(fset, x, *args, **kwargs)
                except BaseException as exc:
                    span[TAG] = "error:" + type(exc).__name__
                    raise
                finally:
                    tracer._close(span)
                # Judged after the span closes, so the extra clamp is not
                # charged to the layer: a result that differs from the plain
                # box clamp came from the band path.
                clamp = np.clip(np.asarray(x, dtype=float), fset.p_min, fset.p_max)
                if not np.array_equal(out, clamp):
                    span[TAG] = "band"
                return out
            return traced

        if name in ("sim.write_run_csv", "sim.write_json"):
            @functools.wraps(fn)
            def traced(obj, path, *args, **kwargs):
                span = tracer._open(name)
                try:
                    return fn(obj, path, *args, **kwargs)
                finally:
                    tracer._close(span)
                    span[TAG] = os.path.getsize(path) if os.path.exists(path) else 0
            return traced

        spool = name == "experiments.job"
        scheme_arg = name == "sim.run_scheme"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            first = len(tracer.spans)
            span = tracer._open(name)
            if scheme_arg:
                span[TAG] = args[1] if len(args) > 1 else kwargs["scheme"]
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[TAG] = f"{span[TAG] or ''} error:{type(exc).__name__}".strip()
                raise
            finally:
                tracer._close(span)
                if spool and os.getpid() != tracer.root_pid:
                    tracer._spool(first)
        return traced

    def _spool(self, first):
        """Worker side: append this job's spans to the worker's spool file."""
        path = os.path.join(self.spool_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            for span in self.spans[first:]:
                fh.write(json.dumps(span) + "\n")
        del self.spans[first:]

    def collect_workers(self):
        """Parent side: read back and remove worker spool files.

        Returns the number of spans read.
        """
        read = 0
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.startswith("spans-"):
                continue
            path = os.path.join(self.spool_dir, entry)
            with open(path) as fh:
                for line in fh:
                    self.spans.append(json.loads(line))
                    read += 1
            os.remove(path)
        return read

    def install(self):
        for module_name, attr, name in TRACE_POINTS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            else:
                new = self._wrap(raw, name)
            self._saved.append((owner, leaf, raw))
            setattr(owner, leaf, new)

    def uninstall(self):
        while self._saved:
            owner, leaf, raw = self._saved.pop()
            setattr(owner, leaf, raw)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans):
    """Span duration minus the part covered by its children in the same
    process.  Jobs that ran in a worker overlap each other and the parent's
    wait, so they are not subtracted from the span that forked them."""
    child_time = {}
    for s in spans:
        if s[PARENT_PID] == s[PID]:
            key = (s[PID], s[PARENT_SERIAL])
            child_time[key] = child_time.get(key, 0.0) + (s[END] - s[START])
    return [(s[END] - s[START]) - child_time.get((s[PID], s[SERIAL]), 0.0)
            for s in spans]


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans, workers):
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    selfs = self_times(spans)
    by_name = {}
    for span, own in zip(spans, selfs):
        by_name.setdefault(span[NAME], []).append((span, own))

    def dur(name):
        return [s[END] - s[START] for s, _ in by_name.get(name, ())]

    def self_s(name):
        return float(sum(own for _, own in by_name.get(name, ())))

    project = by_name.get("feasible.project", ())
    band = [s[END] - s[START] for s, _ in project if s[TAG] == "band"]
    clamp = [s[END] - s[START] for s, _ in project if s[TAG] is None]
    minimize_ids = {(s[PID], s[SERIAL]) for s, _ in by_name.get("mirror.minimize_projected", ())}
    inner_projects = sum(1 for s, _ in project
                         if (s[PARENT_PID], s[PARENT_SERIAL]) in minimize_ids)
    writes = by_name.get("sim.write_run_csv", []) + by_name.get("sim.write_json", [])
    pool_wall = float(sum(dur("experiments.map_replications")))
    busy = float(sum(dur("experiments.job")))
    return {
        "grid.build.ms": (1e3 * _pct(dur("grid.build"), 50), "ms"),
        "timeseries.load.ms": (1e3 * _pct(dur("timeseries.load"), 50), "ms"),
        "grid.power_loss.self_s": (self_s("grid.power_loss"), "s"),
        "thermal.thermal_step.self_s": (self_s("thermal.thermal_step"), "s"),
        "feasible.build.calls": (len(dur("feasible.build")), "count"),
        "feasible.build.self_s": (self_s("feasible.build"), "s"),
        "feasible.project.calls": (len(project), "count"),
        "feasible.project.band_calls": (len(band), "count"),
        "feasible.project.errors": (sum(1 for s, _ in project
                                        if str(s[TAG]).startswith("error")), "count"),
        "feasible.project.self_s": (self_s("feasible.project"), "s"),
        "feasible.project.band_ms_p50": (1e3 * _pct(band, 50), "ms"),
        "feasible.project.clamp_us_p50": (1e6 * _pct(clamp, 50), "us"),
        "feasible.project.clamp_us_p99": (1e6 * _pct(clamp, 99), "us"),
        "mirror.minimize_projected.calls": (len(minimize_ids), "count"),
        "mirror.minimize_projected.self_s": (self_s("mirror.minimize_projected"), "s"),
        "mirror.minimize_projected.projects_per_call": (
            inner_projects / len(minimize_ids) if minimize_ids else 0.0, "count"),
        "mirror.run_online.self_s": (self_s("mirror.run_online"), "s"),
        "mirror.regret.self_s": (self_s("mirror.regret"), "s"),
        "mirror.estimate_bounds.s": (float(sum(dur("mirror.estimate_bounds"))), "s"),
        "sim.observe.calls": (len(dur("sim.observe")), "count"),
        "sim.observe.self_s": (self_s("sim.observe"), "s"),
        "sim.observe.us_p50": (1e6 * _pct(dur("sim.observe"), 50), "us"),
        "sim.run_scheme.self_s": (self_s("sim.run_scheme"), "s"),
        "sim.load_scenario.s": (_pct(dur("sim.load_scenario"), 50), "s"),
        "sim.write_run_csv.s": (_pct(dur("sim.write_run_csv"), 50), "s"),
        "sim.write.bytes": (int(sum(s[TAG] for s, _ in writes)), "bytes"),
        "experiments.jobs": (len(dur("experiments.job")), "count"),
        "experiments.map_replications.wall_s": (pool_wall, "s"),
        "experiments.job_busy_s": (busy, "s"),
        "experiments.pool_efficiency": (
            busy / (pool_wall * workers) if pool_wall else 0.0, "ratio"),
        "experiments.static_problem.s": (float(sum(dur("experiments.static_problem"))), "s"),
    }


def scheme_breakdown(spans):
    """For the first traced ``run_scheme`` of each scheme (the scheme pass):
    its wall time and the self time of every layer inside it.  The self
    times sum to the wall time, so they account for the per-slot figures."""
    selfs = self_times(spans)
    children = {}
    for i, s in enumerate(spans):
        if s[PARENT_PID] == s[PID]:
            children.setdefault((s[PID], s[PARENT_SERIAL]), []).append(i)
    out = []
    seen = set()
    for i in sorted(range(len(spans)), key=lambda i: spans[i][START]):
        s = spans[i]
        scheme = str(s[TAG]).split(" ")[0]
        if s[NAME] != "sim.run_scheme" or scheme in seen:
            continue
        seen.add(scheme)
        layers = {}
        todo = [i]
        while todo:
            j = todo.pop()
            layers[spans[j][NAME]] = layers.get(spans[j][NAME], 0.0) + selfs[j]
            todo.extend(children.get((spans[j][PID], spans[j][SERIAL]), ()))
        out.append({"scheme": scheme, "wall_s": s[END] - s[START],
                    "self_s": layers})
    return out
