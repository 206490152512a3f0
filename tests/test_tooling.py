"""The benchmark's tracer and the package exports still find every name
they refer to, so deleting a traced or exported global fails here; and the
output digest tool lists every CLI output, the same on every run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import usecb
from usecb.sim import SCHEMES, data_path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
DIGEST = ROOT / "tools" / "output_digest.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[leaf]


def test_package_all_resolves():
    missing = [name for name in usecb.__all__ if not hasattr(usecb, name)]
    assert not missing


def test_trace_points_install_and_uninstall(tmp_path):
    spans = _load_spans()
    points = [(module, attr) for module, attr, _ in spans.TRACE_POINTS]
    missing = []
    for module, attr in points:
        try:
            _lookup(module, attr)
        except (KeyError, AttributeError):
            missing.append(f"{module}.{attr}")
    assert not missing
    originals = [_lookup(module, attr) for module, attr in points]

    tracer = spans.Tracer(str(tmp_path))
    try:
        tracer.install()
        assert all(_lookup(module, attr) is not raw
                   for (module, attr), raw in zip(points, originals))
    finally:
        tracer.uninstall()
    assert all(_lookup(module, attr) is raw
               for (module, attr), raw in zip(points, originals))


def _digest(out):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(DIGEST), str(out), "--horizon", "12"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _expected_outputs():
    variants = {"static": "static", "dynamic": "dynamic", "regret": "regret",
                "tight": "dynamic", "quiet": "dynamic"}
    seeds = {name: json.loads(data_path(f"ieee37_{v}.json").read_text())["seed"]
             for name, v in variants.items()}
    s, r = seeds["static"], seeds["regret"]
    paths = {"compare/static.txt", f"compare/compare_{s}.json",
             "regret/regret.txt", f"regret/regret_{r}.json"}
    paths |= {f"compare/slots_{scheme}_{s}.csv" for scheme in SCHEMES}
    for name, seed in seeds.items():
        paths |= {f"validate/{name}.txt", f"gradcheck/{name}.txt"}
        for scheme in SCHEMES:
            paths |= {f"simulate/{name}_{scheme}.txt",
                      f"simulate/{name}/slots_{scheme}_{seed}.csv",
                      f"simulate/{name}/summary_{scheme}_{seed}.json"}
    return sorted(paths)


def test_output_digest_repeatable_and_complete(tmp_path):
    first = _digest(tmp_path / "a")
    assert first == _digest(tmp_path / "b")
    assert [line.split("  ", 1)[1] for line in first] == _expected_outputs()
