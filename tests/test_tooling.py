"""The benchmark's tracer and scripts and the package exports still find
every name they refer to, so deleting a traced, used or exported global
fails here; and the output digest tool lists every CLI output, the same on
every run, and says how two runs' outputs differ."""

import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import usecb
from usecb import sim
from usecb.errors import FeasibilityError
from usecb.sim import SCHEMES, data_path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
DIGEST = ROOT / "tools" / "output_digest.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load("bench_spans", SPANS)


def _lookup(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[leaf]


def test_package_all_resolves():
    """Every name in the ``__all__`` of the package and of each submodule
    it lists exists, so a deleted public name fails here, not on import."""
    missing = [f"{module}.{name}"
               for module in ("usecb", "usecb.grid", "usecb.thermal",
                              "usecb.feasible", "usecb.mirror", "usecb.sim",
                              "usecb.experiments", "usecb.timeseries")
               for name in importlib.import_module(module).__all__
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def test_bench_program_names_resolve():
    """Every ``experiments.<name>`` and ``sim.<name>`` that the benchmark's
    runner and workloads refer to exists in the program, so deleting one
    fails here, not only in a benchmark run."""
    used = set()
    for script in ("run.py", "workloads.py"):
        tree = ast.parse((ROOT / "bench" / script).read_text())
        used |= {(node.value.id, node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id in ("experiments", "sim")}
    assert ("experiments", "map_replications") in used
    assert ("sim", "run_scheme") in used
    missing = [f"{module}.{name}" for module, name in sorted(used)
               if not hasattr(importlib.import_module(f"usecb.{module}"), name)]
    assert not missing


def test_trace_points_resolve_in_their_owners_dict():
    """``--trace 1`` replaces each trace point in its owner's ``__dict__``,
    so every one must be found there, not inherited or imported lazily."""
    missing = []
    for module, attr, _ in _load_spans().TRACE_POINTS:
        try:
            _lookup(module, attr)
        except (KeyError, AttributeError):
            missing.append(f"{module}.{attr}")
    assert not missing


def test_trace_points_install_and_uninstall(tmp_path):
    spans = _load_spans()
    points = [(module, attr) for module, attr, _ in spans.TRACE_POINTS]
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


def test_traced_metric_projections_match_and_tag_the_band(tmp_path):
    """The projection wrapper forwards the solver's metric and judges the
    band path in the controls' own units: a traced tight-band exact run
    equals the untraced one, and some of its projections are tagged
    ``band``."""
    spans = _load_spans()
    scn = sim.build_ieee37_scenario(
        {"horizon": 40, "voltage_band": {"v_min": 0.975}}, variant="dynamic")
    plain = sim.run_scheme(scn, "exact", seed=3)
    tracer = spans.Tracer(str(tmp_path))
    try:
        tracer.install()
        traced = sim.run_scheme(scn, "exact", seed=3)
    finally:
        tracer.uninstall()
    assert np.array_equal(traced.p_c, plain.p_c)
    tags = [span[spans.TAG] for span in tracer.spans
            if span[spans.NAME] == "feasible.project"]
    assert "band" in tags


def test_bench_finds_the_slot_a_failing_run_reached(monkeypatch):
    """The benchmark reads the slot a run failed at from the loop variable
    ``t`` of ``run_scheme``'s own frame, so the slot loop must stay there.
    At ``v_min`` 0.975 every slot's band cuts the box, so each slot builds
    its own set and the sixth build is slot 5's."""
    workloads = _load("bench_workloads", ROOT / "bench" / "workloads.py")
    scn = sim.build_ieee37_scenario(
        {"horizon": 20, "voltage_band": {"v_min": 0.975}}, variant="dynamic")
    real, calls = sim.build_feasible, []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 6:
            raise FeasibilityError("empty feasible set (test)")
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "build_feasible", failing)
    run, _, _, failure = workloads.scheme_job(scn, "stochastic", 3)
    assert run is None
    assert failure["error"] == "FeasibilityError"
    assert failure["slot"] == 5


def test_bench_finds_the_slot_whose_own_set_is_empty():
    """No mock: generation that drops to zero at slot 5 under a 0.99 floor
    empties that slot's set while slot 0's holds, so the run fails at slot
    5 and the benchmark reports it."""
    workloads = _load("bench_workloads", ROOT / "bench" / "workloads.py")
    scn = sim.build_ieee37_scenario({"horizon": 20}, variant="dynamic")
    p_g = np.ones_like(scn.p_g_true)
    p_g[5] = 0.0
    scn = dataclasses.replace(scn, bounds={**scn.bounds, "v_min": 0.99},
                              p_g_true=p_g)
    with pytest.raises(FeasibilityError):
        sim.run_scheme(scn, "stochastic", 3)
    run, _, _, failure = workloads.scheme_job(scn, "stochastic", 3)
    assert run is None
    assert failure["error"] == "FeasibilityError"
    assert failure["slot"] == 5


def _digest(out, *extra, code=0):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(DIGEST), str(out), "--horizon", "12",
                           *extra],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    return proc.stdout.splitlines()


def _expected_outputs():
    variants = {"static": "static", "dynamic": "dynamic", "regret": "regret",
                "tight": "dynamic", "quiet": "dynamic", "static_tight": "static"}
    seeds = {name: json.loads(data_path(f"ieee37_{v}.json").read_text())["seed"]
             for name, v in variants.items()}
    s, r = seeds["static"], seeds["regret"]
    paths = {"compare/static.txt", f"compare/compare_{s}.json",
             "regret/regret.txt", f"regret/regret_{r}.json",
             "comparison/static.json"}
    paths |= {f"compare/slots_{scheme}_{s}.csv" for scheme in SCHEMES}
    for name, seed in seeds.items():
        paths |= {f"validate/{name}.txt", f"gradcheck/{name}.txt"}
        for scheme in SCHEMES:
            paths |= {f"simulate/{name}_{scheme}.txt",
                      f"simulate/{name}/slots_{scheme}_{seed}.csv",
                      f"simulate/{name}/summary_{scheme}_{seed}.json"}
    return sorted(paths)


def test_output_digest_covers_every_bundled_config():
    digest = _load("output_digest", DIGEST)
    bundled = {path.name for path in data_path("ieee37_static.json").parent.glob(
        "ieee37_*.json")}
    assert "ieee37_dynamic.json" in bundled
    assert bundled <= {fname for fname, _ in digest.CONFIGS.values()}


def test_output_digest_repeatable_and_complete(tmp_path):
    first = _digest(tmp_path / "a")
    assert first == _digest(tmp_path / "b")
    assert [line.split("  ", 1)[1] for line in first] == _expected_outputs()


def test_output_digest_against_an_identical_run(tmp_path):
    _digest(tmp_path / "a")
    *listing, summary = _digest(tmp_path / "b", "--against", str(tmp_path / "a"))
    assert [line.split("  ", 1)[1] for line in listing] == _expected_outputs()
    assert summary == f"against {tmp_path / 'a'}: {len(listing)} identical, 0 not"


def test_output_digest_against_a_differing_run_exits_with_its_code(tmp_path):
    """Every command succeeds, but one file differs from the earlier run:
    the digest says so and exits with its own code, not 0 or 1."""
    digest = _load("output_digest", DIGEST)
    _digest(tmp_path / "a")
    (tmp_path / "a" / "validate" / "static.txt").write_text("exit 0\n")
    *_, summary, line = _digest(tmp_path / "b", "--against", str(tmp_path / "a"),
                                code=digest.DIFFERS)
    assert digest.DIFFERS not in (0, 1)
    assert summary.endswith(" identical, 1 not")
    assert line.startswith("differs  validate/static.txt")


def test_output_digest_against_names_each_difference(tmp_path):
    digest = _load("output_digest", DIGEST)
    here, there = tmp_path / "here", tmp_path / "there"
    for root, objective, extra in ((here, 2.5, {"steps": 5}), (there, 2.0, {})):
        (root / "sim").mkdir(parents=True)
        (root / "sim" / "same.txt").write_text("exit 0\n")
        (root / "sim" / "slots.csv").write_text(
            f"t,objective,feasible\n0,{objective},True\n1,-1e-3,True\n")
        (root / "sim" / "summary.json").write_text(json.dumps(
            {"objective": objective, "scheme": "exact", **extra}))
    (here / "sim" / "new.txt").write_text("x\n")
    (there / "sim" / "slots.csv").write_text(
        "t,objective,feasible\n0,2.0,True\n1,-1e-3,False\n")

    diff = digest.difference(here / "sim" / "summary.json",
                             there / "sim" / "summary.json")
    assert diff == {"max_abs": 0.5, "abs_column": "objective", "max_rel": 0.2,
                    "rel_column": "objective", "at": "objective",
                    "only_here": ["steps"], "only_there": [], "text": []}
    assert digest.compare(here, there) == [
        f"against {there}: 1 identical, 3 not",
        "only here  sim/new.txt",
        "differs  sim/slots.csv  max abs 0.5 (objective)  max rel 0.2 at line 2"
        " (objective)  max rel to column 0.2 (objective)  text differs: line 3",
        "differs  sim/summary.json  max abs 0.5 (objective)  max rel 0.2 at "
        "objective  only here: steps",
    ]


def test_output_digest_against_names_the_csv_columns(tmp_path):
    """A control that moves by 1e-8 and an objective that moves by 3e-7 are
    told apart: the largest absolute difference is the objective's, the
    largest relative one the control's, and each line names its column.
    Relative to its column's largest magnitude, a near-zero control that
    moves by a rounding reads as a rounding, however large its own
    relative move."""
    digest = _load("output_digest", DIGEST)
    header = "t,u_0,u_1,objective,feasible\n"
    for root, u_1, objective in ((tmp_path / "here", 0.25, -50.0),
                                 (tmp_path / "there", 0.25 + 1e-8, -50.0 + 3e-7)):
        root.mkdir()
        (root / "slots.csv").write_text(
            header + f"0,0.5,{u_1!r},-49.0,True\n1,0.5,0.25,{objective!r},True\n")

    diff = digest.difference(tmp_path / "here" / "slots.csv",
                             tmp_path / "there" / "slots.csv")
    assert diff["abs_column"] == "objective" and diff["rel_column"] == "u_1"
    assert diff["at"] == "line 2" and diff["text"] == []
    assert diff["max_abs"] == pytest.approx(3e-7, rel=1e-6)
    assert diff["max_rel"] == pytest.approx(1e-8 / (0.25 + 1e-8), rel=1e-6)
    assert diff["col_rel_column"] == "u_1"
    assert diff["max_col_rel"] == pytest.approx(1e-8 / (0.25 + 1e-8), rel=1e-6)
    assert digest.compare(tmp_path / "here", tmp_path / "there")[1] == (
        f"differs  slots.csv  max abs {diff['max_abs']:.3g} (objective)  "
        f"max rel {diff['max_rel']:.3g} at line 2 (u_1)  "
        f"max rel to column {diff['max_col_rel']:.3g} (u_1)")

    for root, u_0 in ((tmp_path / "here", 1e-17), (tmp_path / "there", 2e-17)):
        (root / "near.csv").write_text(
            header + f"0,{u_0!r},0.25,-49.0,True\n1,0.5,0.25,-50.0,True\n")
    near = digest.difference(tmp_path / "here" / "near.csv",
                             tmp_path / "there" / "near.csv")
    assert near["max_rel"] == pytest.approx(0.5) and near["rel_column"] == "u_0"
    assert near["col_rel_column"] == "u_0"
    assert near["max_col_rel"] == pytest.approx(1e-17 / 0.5)
    # Other files have no columns to measure against.
    assert "max_col_rel" not in digest.difference(DIGEST, DIGEST)
