"""Digest every output the ``usecb`` command writes for the bundled configs.

Usage::

    PYTHONPATH=src python tools/output_digest.py OUT_DIR [--horizon N]

Runs, with each config's own seed:

* ``simulate`` with every scheme on ``ieee37_static``, ``ieee37_dynamic``,
  ``ieee37_regret``, ``ieee37_dynamic`` at ``v_min`` 0.975 (``tight``) and
  ``ieee37_dynamic`` with both noise sigmas at 0 (``quiet``),
* ``compare`` on ``ieee37_static``,
* ``regret --horizons 100,1000 --replications 4`` on ``ieee37_regret``,
* ``validate`` and ``gradcheck`` on each of the five configs,

writing into the empty or new directory ``OUT_DIR``, and prints one sorted
``sha256  relpath`` line per output file.  Each command's stdout and stderr
land in a ``.txt`` capture ending in its exit code, with ``OUT_DIR``
stripped from the paths it prints.  ``--horizon`` overrides every
scenario's horizon (the regret horizons stay).  Whichever ``usecb`` is
importable is the one measured, so two checkouts can be compared by
running this once with each one's ``src`` on ``PYTHONPATH``; the module
path goes to stderr.  Exits 1 if any command failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import usecb
from usecb.cli import main as usecb_main
from usecb.sim import SCHEMES, data_path

# Config name -> (bundled file, entries merged into its sections).
CONFIGS = {
    "static": ("ieee37_static.json", None),
    "dynamic": ("ieee37_dynamic.json", None),
    "regret": ("ieee37_regret.json", None),
    "tight": ("ieee37_dynamic.json", {"voltage_band": {"v_min": 0.975}}),
    "quiet": ("ieee37_dynamic.json", {"noise": {"sigma_temp": 0.0,
                                                "sigma_gen": 0.0}}),
}
INPUTS = "configs"


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


def listing(out):
    """Sorted ``sha256  relpath`` lines for every output file under ``out``."""
    files = {path.relative_to(out).as_posix(): path for path in out.rglob("*")
             if path.is_file()}
    return [f"{hashlib.sha256(files[rel].read_bytes()).hexdigest()}  {rel}"
            for rel in sorted(files) if not rel.startswith(INPUTS + "/")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="empty or new output directory")
    parser.add_argument("--horizon", type=int, help="override every horizon")
    args = parser.parse_args(argv)
    out = Path(args.out).resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    out.mkdir(parents=True, exist_ok=True)
    print(f"usecb from {Path(usecb.__file__).parent}", file=sys.stderr)
    failed = [capture for capture, cmd in commands(out, args.horizon)
              if _run(out, capture, cmd) != 0]
    print("\n".join(listing(out)))
    for capture in failed:
        print(f"failed: {capture}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
