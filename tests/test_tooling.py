"""The benchmark's tracer and the package exports still find every name
they refer to, so deleting a traced or exported global fails here."""

import importlib
import importlib.util
from pathlib import Path

import usecb

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
