"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

Runs every workload untraced and traced with ``--size tiny`` and checks that
the last output line has exactly the keys of the result object, that every
metric named in BENCHMARK.json is emitted with its unit, that the output
checks ran and that no operation raised.  It then runs the schemes that
day-tight leaves out (exact and oracle raise ProjectionError on its band)
and prints how each fails.  Exits 0 when all of that holds.  At the tiny size the statistical
checks (regret slope, comparison fractions) may fail; only that they ran
is tested here.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXPECTED_CHECKS = {
    "day-loose": {"conservation residual <= 1e-9", "all_feasible",
                  "same-seed summary bytes"},
    "day-tight": {"conservation residual <= 1e-9", "all_feasible",
                  "same-seed summary bytes"},
    "static-replications": {"conservation residual <= 1e-9", "all_feasible",
                            "same-seed summary bytes",
                            "regret slope in [0.4, 0.6]",
                            "tail frequency <= bound + 0.05",
                            "converged_fraction >= 0.9",
                            "variance_lower_fraction >= 0.9"},
}


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {out.returncode}\n{out.stderr}")
    final = json.loads(out.stdout.strip().splitlines()[-1])
    result_path = ROOT / ".bench_out" / f"result-{workload}-s3-t{trace}.json"
    return final, json.loads(result_path.read_text()), out.stdout


def probe_tight_band(seed=3):
    """Run the schemes left out of day-tight on its band, full length, and
    print how each fails.  A scheme that completes is reported as a problem:
    it belongs back in the workload."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from workloads import TIGHT_BAND, TIGHT_BAND_FAILING, scheme_job

    from usecb import sim

    scn = sim.load_scenario(str(sim.data_path("ieee37_dynamic.json")), TIGHT_BAND)
    problems = []
    for scheme in TIGHT_BAND_FAILING:
        run, raw, _, failure = scheme_job(scn, scheme, seed)
        if failure is None:
            problems.append(f"day-tight: {scheme} completes on the tight band; "
                            "add it back to the workload's schemes")
        else:
            print(f"known failure day-tight:{scheme} seed {seed}: {failure['error']} "
                  f"after {raw:.3f} s at slot {failure['slot']}: {failure['message']}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    for workload in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            final, result, stdout = run(workload, trace)
            if set(final) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload}/{trace}: keys {sorted(final)}")
            if not (isinstance(final["attempted"], int) and final["attempted"] >= 1
                    and isinstance(final["failed"], int)):
                problems.append(f"{workload}/{trace}: attempted/failed {final}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in final["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
                problems.append(f"{workload}/{trace}: missing {missing}, "
                                f"extra {extra}, wrong units {units}")
            if not all(isinstance(m["value"], (int, float))
                       for m in final["metrics"].values()):
                problems.append(f"{workload}/{trace}: non-numeric metric value")
            ran = {c["check"] for c in result["checks"]}
            if not EXPECTED_CHECKS[workload] <= ran:
                problems.append(f"{workload}/{trace}: checks not run "
                                f"{sorted(EXPECTED_CHECKS[workload] - ran)}")
            if "environment " not in stdout:
                problems.append(f"{workload}/{trace}: no environment block")
            raised = [u["unit"] for u in result["units"] if "error" in u]
            if raised:
                problems.append(f"{workload}/{trace}: raised {raised}")
            if trace == 1 and "tracing overhead" not in stdout:
                problems.append(f"{workload}/1: tracing overhead not stated")
            print(f"{workload} trace {trace}: {len(final['metrics'])} metrics, "
                  f"{len(result['checks'])} checks, correct={final['correct']}")
    problems += probe_tight_band()
    for p in problems:
        print("PROBLEM " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
