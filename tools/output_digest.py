"""Digest every output the ``usecb`` command writes for the bundled configs.

Usage::

    PYTHONPATH=src python tools/output_digest.py OUT_DIR [--horizon N]
        [--against OTHER_DIR]

Runs, with each config's own seed:

* ``simulate`` with every scheme on ``ieee37_static``, ``ieee37_dynamic``,
  ``ieee37_regret``, ``ieee37_dynamic`` at ``v_min`` 0.975 (``tight``),
  ``ieee37_dynamic`` with both noise sigmas at 0 (``quiet``) and
  ``ieee37_static`` at ``v_min`` 0.985 (``static_tight``, whose band binds
  one row at the optimum),
* ``compare`` on ``ieee37_static``,
* ``regret --horizons 100,1000 --replications 4`` on ``ieee37_regret``,
* ``validate`` and ``gradcheck`` on each of the six configs,
* and, in this process, since no command runs stacked static runs,
  ``run_static_comparison`` on ``ieee37_static`` (6 replications, window
  100, ``rel_tol`` 0.01), whose report goes to ``comparison/static.json``,

writing into the empty or new directory ``OUT_DIR``, and prints one sorted
``sha256  relpath`` line per output file.  Each command's stdout and stderr
land in a ``.txt`` capture ending in its exit code, with ``OUT_DIR``
stripped from the paths it prints.  ``--horizon`` overrides every
scenario's horizon (the regret horizons stay).  Whichever ``usecb`` is
importable is the one measured, so two checkouts can be compared by
running this once with each one's ``src`` on ``PYTHONPATH``; the module
path goes to stderr.  ``--against`` names the ``OUT_DIR`` of such an
earlier run: after the listing, one line counts the files whose bytes are
the same in both, and one line per other file says how it differs, with
the largest absolute and relative difference between its numbers, the CSV
column or JSON key of each, and the line of the larger relative one, and
for a CSV file the largest difference relative to its column's largest
magnitude, so that a rounding-level move of a near-zero entry reads as one
(see :func:`compare`).  Exits 1 if any command failed, else 3 if a file
differs from, or is missing in, the ``--against`` run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

import usecb
from usecb.cli import main as usecb_main
from usecb.experiments import run_static_comparison
from usecb.sim import SCHEMES, data_path, load_scenario, write_json

# Config name -> (bundled file, entries merged into its sections).
CONFIGS = {
    "static": ("ieee37_static.json", None),
    "dynamic": ("ieee37_dynamic.json", None),
    "regret": ("ieee37_regret.json", None),
    "tight": ("ieee37_dynamic.json", {"voltage_band": {"v_min": 0.975}}),
    "quiet": ("ieee37_dynamic.json", {"noise": {"sigma_temp": 0.0,
                                                "sigma_gen": 0.0}}),
    "static_tight": ("ieee37_static.json", {"voltage_band": {"v_min": 0.985}}),
}
INPUTS = "configs"
# Exit code when --against finds a file that differs.
DIFFERS = 3


def _config_path(out, name):
    fname, overrides = CONFIGS[name]
    if overrides is None:
        return str(data_path(fname))
    # The derived config names its data files relatively; they resolve to
    # the bundled copies because none sits beside it.
    cfg = json.loads(data_path(fname).read_text())
    for section, entries in overrides.items():
        cfg[section] = {**cfg.get(section, {}), **entries}
    path = out / INPUTS / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return str(path)


def _run(out, capture, argv):
    """Run ``usecb argv`` in this process; write its output to ``capture``.

    Returns the exit code.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = usecb_main(argv)
    text = buf.getvalue().replace(str(out) + os.sep, "")
    path = out / capture
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"{text}exit {code}\n")
    return code


def commands(out, horizon=None):
    """``(capture, argv)`` for every command, in run order."""
    extra = [] if horizon is None else ["--horizon", str(horizon)]
    cmds = []
    for name in CONFIGS:
        config = ["--config", _config_path(out, name)] + extra
        for scheme in SCHEMES:
            cmds.append((f"simulate/{name}_{scheme}.txt",
                         ["simulate", *config, "--scheme", scheme,
                          "--out", str(out / "simulate" / name)]))
        for cmd in ("validate", "gradcheck"):
            cmds.append((f"{cmd}/{name}.txt", [cmd, *config]))
        if name == "static":
            cmds.append(("compare/static.txt",
                         ["compare", *config, "--out", str(out / "compare")]))
        if name == "regret":
            cmds.append(("regret/regret.txt",
                         ["regret", *config, "--horizons", "100,1000",
                          "--replications", "4", "--out", str(out / "regret")]))
    return cmds


def static_comparison(out, horizon=None):
    """Write the static comparison's report to ``comparison/static.json``."""
    scn = load_scenario(_config_path(out, "static"),
                        None if horizon is None else {"horizon": horizon})
    path = out / "comparison" / "static.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json(run_static_comparison(scn, replications=6, window=100,
                                     rel_tol=0.01), str(path))


def listing(out):
    """Sorted ``sha256  relpath`` lines for every output file under ``out``."""
    files = {path.relative_to(out).as_posix(): path for path in out.rglob("*")
             if path.is_file()}
    return [f"{hashlib.sha256(files[rel].read_bytes()).hexdigest()}  {rel}"
            for rel in sorted(files) if not rel.startswith(INPUTS + "/")]


_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _flatten(node, path=""):
    """``(key path, leaf)`` pairs of a parsed JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _flatten(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _flatten(value, f"{path}[{i}]")
    else:
        yield path, node


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _leaves(path):
    """Comparable leaves of a file: key path -> value for JSON, and for any
    other text ``line N`` -> the text of line N with its numbers cut out,
    its numbers, and the name of each number's column (its header field in
    a CSV file, else None)."""
    text = path.read_text()
    if path.suffix == ".json":
        return dict(_flatten(json.loads(text)))
    lines = text.splitlines()
    leaves = {}
    if path.suffix == ".csv" and lines:
        header = lines[0].split(",")
        leaves["line 1"] = (lines[0], [], [])
        for i, line in enumerate(lines[1:], 2):
            fields = line.split(",")
            numeric = [j for j, f in enumerate(fields) if _NUMBER.fullmatch(f)]
            numbers = [float(fields[j]) for j in numeric]
            names = [header[j] for j in numeric]
            for j in numeric:
                fields[j] = "#"
            leaves[f"line {i}"] = (",".join(fields), numbers, names)
        return leaves
    for i, line in enumerate(lines, 1):
        numbers = [float(m) for m in _NUMBER.findall(line)]
        leaves[f"line {i}"] = (_NUMBER.sub("#", line), numbers,
                               [None] * len(numbers))
    return leaves


def difference(here, there):
    """How the file ``here`` differs from ``there``: a dict with the largest
    absolute and relative difference between numbers at the same place
    (``max_abs`` and ``max_rel``), the column of each (``abs_column`` and
    ``rel_column``: a CSV header field or a JSON key path, else None), the
    place of the larger relative one (``at``), the places only one file has
    (``only_here``, ``only_there``) and the places whose text or number
    count differs (``text``).  The relative difference of two numbers is
    ``|a - b| / max(|a|, |b|)``.  For CSV files it adds the largest
    difference in a column over the largest magnitude in that column in
    either file (``max_col_rel``) and that column (``col_rel_column``)."""
    a, b = _leaves(here), _leaves(there)
    out = {"max_abs": 0.0, "abs_column": None, "max_rel": 0.0,
           "rel_column": None, "at": None,
           "only_here": [k for k in a if k not in b],
           "only_there": [k for k in b if k not in a], "text": []}
    csv = here.suffix == ".csv"
    # Per CSV column: its largest difference and its largest magnitude.
    col_gap, col_size = {}, {}
    for key in (k for k in a if k in b):
        x, y = a[key], b[key]
        if _is_number(x) and _is_number(y):
            pairs = [(x, y, key)]
        elif isinstance(x, tuple) and x[0] == y[0] and len(x[1]) == len(y[1]):
            pairs = zip(x[1], y[1], x[2])
        else:
            if x != y:
                out["text"].append(key)
            continue
        for u, v, column in pairs:
            gap = abs(u - v)
            rel = gap / max(abs(u), abs(v)) if gap else 0.0
            if gap > out["max_abs"]:
                out["max_abs"], out["abs_column"] = gap, column
            if rel > out["max_rel"]:
                out["max_rel"], out["rel_column"], out["at"] = rel, column, key
            if csv:
                col_gap[column] = max(col_gap.get(column, 0.0), gap)
                col_size[column] = max(col_size.get(column, 0.0), abs(u), abs(v))
    if csv:
        out["max_col_rel"], out["col_rel_column"] = 0.0, None
        for column, gap in col_gap.items():
            if gap and gap / col_size[column] > out["max_col_rel"]:
                out["max_col_rel"] = gap / col_size[column]
                out["col_rel_column"] = column
    return out


def compare(out, other):
    """Lines saying how the outputs under ``out`` differ from those under
    ``other``: a count of byte-identical files, then one line per file that
    differs or is only on one side."""
    def files(root):
        return {line.split("  ", 1)[1]: line.split("  ", 1)[0]
                for line in listing(root)}

    here, there = files(out), files(other)
    same = [rel for rel in here if here[rel] == there.get(rel)]
    lines = [f"against {other}: {len(same)} identical, "
             f"{len(set(here) | set(there)) - len(same)} not"]
    for rel in sorted(set(here) | set(there)):
        if rel not in there or rel not in here:
            lines.append(f"only {'here' if rel in here else 'there'}  {rel}")
            continue
        if here[rel] == there[rel]:
            continue
        d = difference(out / rel, other / rel)
        line = f"differs  {rel}  max abs {d['max_abs']:.3g}"
        if d["abs_column"] is not None:
            line += f" ({d['abs_column']})"
        line += f"  max rel {d['max_rel']:.3g}"
        if d["at"] is not None:
            line += f" at {d['at']}"
            if d["rel_column"] not in (None, d["at"]):
                line += f" ({d['rel_column']})"
        if d.get("col_rel_column") is not None:
            line += (f"  max rel to column {d['max_col_rel']:.3g}"
                     f" ({d['col_rel_column']})")
        for key, label in (("only_here", "only here"),
                           ("only_there", "only there"), ("text", "text differs")):
            if d[key]:
                line += f"  {label}: {', '.join(d[key])}"
        lines.append(line)
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="empty or new output directory")
    parser.add_argument("--horizon", type=int, help="override every horizon")
    parser.add_argument("--against", metavar="OTHER_DIR",
                        help="the OUT_DIR of an earlier run to compare with")
    args = parser.parse_args(argv)
    out = Path(args.out).resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    other = None if args.against is None else Path(args.against).resolve()
    if other is not None and not other.is_dir():
        parser.error(f"{other} is not a directory")
    out.mkdir(parents=True, exist_ok=True)
    print(f"usecb from {Path(usecb.__file__).parent}", file=sys.stderr)
    failed = [capture for capture, cmd in commands(out, args.horizon)
              if _run(out, capture, cmd) != 0]
    static_comparison(out, args.horizon)
    print("\n".join(listing(out)))
    differs = False
    if other is not None:
        lines = compare(out, other)
        print("\n".join(lines))
        # A summary line, then one line per file that differs.
        differs = len(lines) > 1
    for capture in failed:
        print(f"failed: {capture}", file=sys.stderr)
    return 1 if failed else DIFFERS if differs else 0


if __name__ == "__main__":
    sys.exit(main())
