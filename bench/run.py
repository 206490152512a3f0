"""usecb benchmark: one workload, one seed, timed or traced.

    python3 bench/run.py --workload day-loose --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones with
``--trace 1``.  The lines before it give the environment, every failure
and failed check, and (traced) the per-scheme self-time breakdown and the
tracing overhead.  The full result, and the spans of a traced run, are
written under ``.bench_out/``.  See ``bench/README.md`` for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

_NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else (os.cpu_count() or 1)
# The worker count experiments.default_workers picks, which is needed
# before numpy loads so that BLAS threads can be capped at nproc // workers.
_WORKERS = max(1, min(4, os.cpu_count() or 1))
_BLAS_THREADS = max(1, _NPROC // _WORKERS)


def _cap_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(_BLAS_THREADS)


def _import_program():
    """Import ``usecb`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "usecb" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import usecb

    if Path(usecb.__file__).resolve().parent != (src / "usecb").resolve():
        raise SystemExit(f"bench: imported usecb from {usecb.__file__}, not {src}")
    from usecb import experiments

    if experiments.default_workers() * _BLAS_THREADS > _NPROC:
        raise SystemExit("bench: workers x BLAS threads exceeds nproc")


def environment():
    import multiprocessing

    import numpy as np
    from usecb import experiments

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": _NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(np),
        "start_method": multiprocessing.get_start_method(),
        "workers": experiments.default_workers(),
    }


def _blas_threads(np):
    """Thread count reported by the loaded OpenBLAS, or the cap set."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return _BLAS_THREADS


def run_pass(workload, rec, seed, size, seconds=None):
    """Set-up, the scheme pass and stages: at least two, so that each
    stage's summaries are compared byte for byte with the first's, and with
    ``seconds`` more while the next one is expected to end in time."""
    t_start = time.perf_counter()
    scns = workload.setup(rec, size)
    workload.scheme_pass(rec, scns, seed)
    k, last = 0, 0.0
    while k < 2 or (seconds is not None
                    and time.perf_counter() - t_start + last <= seconds):
        t0 = time.perf_counter()
        workload.stage(rec, scns, seed, size)
        last = time.perf_counter() - t0
        k += 1
    return time.perf_counter() - t_start


def _median(rec, name):
    values = rec.samples.get(name)
    return statistics.median(values) if values else None


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def raw_times(rec):
    """The end-to-end times before scaling to the reference speed."""
    return {name: _median(rec, name + ".raw")
            for name in ("setup_s", "stochastic_slot_ms", "output_s", "replications_s")}


def end_to_end(rec):
    return {
        "setup_s": (_median(rec, "setup_s"), "s"),
        "stochastic_slot_ms": (_median(rec, "stochastic_slot_ms"), "ms"),
        "output_s": (_median(rec, "output_s"), "s"),
        "replications_s": (_median(rec, "replications_s"), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the self-test only")
    args = parser.parse_args(argv)

    _cap_blas_threads()
    _import_program()
    from spans import Tracer, layer_metrics, scheme_breakdown
    from workloads import SIZES, WORKLOADS, Recorder

    from usecb.sim import SCHEMES

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    size = SIZES[args.size]
    env = environment()
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    scratch = OUT_DIR / f"work-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "environment": env}
    try:
        if args.trace == 0:
            rec = Recorder(str(scratch))
            result["wall_s"] = run_pass(workload, rec, args.seed, size, args.seconds)
            metrics = end_to_end(rec)
            result["raw_times"] = raw_times(rec)
            recs = [rec]
        else:
            plain = Recorder(str(scratch))
            wall_plain = run_pass(workload, plain, args.seed, size)
            tracer = Tracer(str(scratch))
            traced = Recorder(str(scratch), tracer)
            tracer.install()
            try:
                wall_traced = run_pass(workload, traced, args.seed, size)
            finally:
                tracer.uninstall()
            worker_spans = tracer.collect_workers()
            metrics = layer_metrics(tracer.spans, env["workers"])
            overhead = wall_traced - wall_plain
            metrics["bench.trace_overhead_s"] = (overhead, "s")
            metrics["bench.trace_overhead_frac"] = (overhead / wall_plain, "ratio")
            for scheme in ("stochastic", "exact", "oracle"):
                # The scheme pass records each scheme's run first.
                done = [u for u in plain.units if u["ok"]
                        and u["unit"].endswith(":" + scheme)]
                metrics[f"sim.run_scheme.{scheme}_slot_ms"] = (
                    1e3 * done[0]["seconds"] / done[0]["slots"] if done else 0.0, "ms")
            for name in ("regret_s", "compare_s"):
                metrics[f"experiments.{name}"] = (_median(plain, name + ".raw") or 0.0, "s")
            result.update(
                untraced_wall_s=wall_plain, traced_wall_s=wall_traced,
                worker_spans=worker_spans,
                worker_spans_note=("collected from forked workers"
                                   if env["start_method"] == "fork" else
                                   "not collected: workers are not forked"),
                breakdown=_breakdown(plain, traced, scheme_breakdown(tracer.spans)))
            spans_path = OUT_DIR / f"spans-{tag}.jsonl"
            tracer.write(spans_path)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
            recs = [plain, traced]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = [u for r in recs for u in r.units]
    checks = [c for r in recs for c in r.checks]
    result.update(units=units, checks=checks, samples=recs[0].samples)
    missing = [name for name, (value, _) in metrics.items() if value is None]
    correct = all(c["ok"] for c in checks) and not missing
    final = {
        "correct": correct,
        "attempted": len(units),
        "failed": sum(1 for u in units if not u["ok"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if value is not None},
    }
    result["final"] = final
    with open(OUT_DIR / f"result-{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)

    print("environment " + json.dumps(env))
    not_run = [s for s in SCHEMES if s not in workload.schemes]
    if not_run:
        print(f"not run on {args.workload}: {', '.join(not_run)} (they raise "
              "ProjectionError on this band; bench/selftest.py probes them)")
    for u in units:
        if "error" in u:
            print(f"failure {u['unit']} seed {u['seed']}: {u['error']} after "
                  f"{u['seconds']:.3f} s at slot {u.get('slot')}: {u['message']}")
    print(f"checks {sum(c['ok'] for c in checks)}/{len(checks)} passed")
    for c in checks:
        if not c["ok"]:
            print(f"check failed {c['unit']} seed {c['seed']}: {c['check']} ({c['detail']})")
    if missing:
        print("metrics without samples: " + ", ".join(missing))
    if "raw_times" in result:
        print("unscaled " + json.dumps(result["raw_times"]))
    if args.trace:
        print(f"tracing overhead {result['traced_wall_s'] - result['untraced_wall_s']:.3f} s "
              f"({result['traced_wall_s']:.3f} traced vs {result['untraced_wall_s']:.3f} s "
              f"untraced); worker spans: {result['worker_spans']} "
              f"({result['worker_spans_note']})")
        for row in result["breakdown"]:
            print("breakdown " + json.dumps(row))
    print(json.dumps(final))
    return 0


def _breakdown(plain, traced, items):
    """Per scheme of the traced scheme pass: untraced and traced ms per slot
    and the self time of each layer inside the run, in ms per slot."""

    def pass_units(rec):
        # The scheme pass records its three runs first.
        first = {}
        for u in rec.units:
            first.setdefault(u["unit"].split(":")[-1], u)
        return first

    units, plain_units = pass_units(traced), pass_units(plain)
    rows = []
    for item in items:
        unit = units.get(item["scheme"], {})
        slots = unit.get("slots") or ((unit.get("slot") or 0) + 1)
        base = plain_units.get(item["scheme"], {})
        rows.append({
            "scheme": item["scheme"], "error": unit.get("error"), "slots": slots,
            "untraced_ms_per_slot": 1e3 * base.get("seconds", 0.0) / slots,
            "traced_ms_per_slot": 1e3 * item["wall_s"] / slots,
            "self_ms_per_slot": {k: round(1e3 * v / slots, 4)
                                 for k, v in sorted(item["self_s"].items(),
                                                    key=lambda kv: -kv[1])},
        })
    return rows


if __name__ == "__main__":
    sys.exit(main())
