"""Command-line front end.

Subcommands: simulate, compare, regret, flows, validate, gradcheck.  All
output is data (CSV / JSON); plotting stays external.  Exit codes: 0 ok,
2 configuration error (an ``--out`` path that cannot be written too),
3 model/feasibility error, 4 violated assumption.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from .errors import (AssumptionError, ConfigError, FeasibilityError,
                     IngestionError, ModelError, ProjectionError, UsecbError)
from .experiments import run_regret_experiment
from .grid import compute_sensitivity, radial_line_flows
from .sim import (SCHEMES, _checked_number, _get, _read_config, atomic_write,
                  load_scenario, metrics, run_scheme, write_json, write_run_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_ASSUMPTION = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="usecb",
        description="Microgrid load management simulator and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scheme=False):
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--seed", type=int,
                       help="run seed (default: scenario config seed)")
        p.add_argument("--horizon", type=int,
                       help="override the scenario horizon")
        p.add_argument("--out", default=".", help="output directory")
        if scheme:
            p.add_argument("--scheme", choices=SCHEMES, default="stochastic")

    common(sub.add_parser("simulate", help="run one scheme, write CSV + JSON"),
           scheme=True)
    common(sub.add_parser("compare", help="run all three schemes"))

    p_reg = sub.add_parser("regret", help="regret growth experiment")
    common(p_reg)
    p_reg.add_argument("--horizons", default="100,1000,10000",
                       help="comma-separated horizon list")
    p_reg.add_argument("--replications", type=int, default=20)

    p_flow = sub.add_parser("flows", help="radial line flows for a fixture")
    p_flow.add_argument("--config", required=True, help="flows JSON path")
    p_flow.add_argument("--out", default=None, help="optional CSV output path")

    common(sub.add_parser("validate", help="check construction invariants"))
    p_grad = sub.add_parser("gradcheck",
                            help="analytic gradient vs central differences")
    common(p_grad)
    p_grad.add_argument("--points", type=int, default=100)
    return parser


def _load(args):
    overrides = {}
    if args.horizon is not None:
        overrides["horizon"] = int(args.horizon)
    return load_scenario(args.config, overrides=overrides or None)


def _seed(args, scenario):
    """The run seed: ``--seed``, else the scenario config's."""
    if args.seed is None:
        return scenario.seed
    if args.seed < 0:
        raise ConfigError(f"--seed must be a nonnegative integer, got {args.seed}")
    return args.seed


@contextlib.contextmanager
def _writing(path):
    """Turn an ``OSError`` of the block into ``ConfigError`` naming
    ``path``: the output paths are command-line arguments."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_out_dir(path):
    """``ConfigError`` unless ``path`` is a directory or ``os.makedirs``
    can make it one: its nearest existing ancestor must be a directory."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"cannot write {path}: {probe} is not a directory")


def _make_out_dir(path):
    _check_out_dir(path)
    with _writing(path):
        os.makedirs(path, exist_ok=True)


def _cmd_simulate(args):
    scenario = _load(args)
    seed = _seed(args, scenario)
    _make_out_dir(args.out)
    run = run_scheme(scenario, args.scheme, seed=seed)
    csv_path = os.path.join(args.out, f"slots_{args.scheme}_{seed}.csv")
    json_path = os.path.join(args.out, f"summary_{args.scheme}_{seed}.json")
    with _writing(csv_path):
        write_run_csv(run, csv_path)
    with _writing(json_path):
        write_json(metrics(run), json_path)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return EXIT_OK


def _cmd_compare(args):
    scenario = _load(args)
    seed = _seed(args, scenario)
    _make_out_dir(args.out)
    # Every scheme runs before any file is written, so a scheme that fails
    # leaves no outputs of the others behind.
    runs = {scheme: run_scheme(scenario, scheme, seed=seed) for scheme in SCHEMES}
    summary = {}
    for scheme, run in runs.items():
        path = os.path.join(args.out, f"slots_{scheme}_{seed}.csv")
        with _writing(path):
            write_run_csv(run, path)
        summary[scheme] = metrics(run)
    path = os.path.join(args.out, f"compare_{seed}.json")
    with _writing(path):
        write_json(summary, path)
    print(f"wrote {path}")
    for scheme in SCHEMES:
        m = summary[scheme]
        print(f"{scheme:>10}: mean objective {m['objective_mean']:.6g}, "
              f"trailing variance {m['objective_trailing_variance']:.6g}")
    return EXIT_OK


def _cmd_regret(args):
    scenario = _load(args)
    if not scenario.is_static:
        raise AssumptionError("regret experiment requires a static scenario")
    seed = _seed(args, scenario)
    try:
        horizons = [int(x) for x in args.horizons.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"bad --horizons value {args.horizons!r}") from None
    # Checked, not made, before the run: a run that fails its own checks
    # leaves no --out behind.
    _check_out_dir(args.out)
    report = run_regret_experiment(scenario, horizons=horizons,
                                   replications=args.replications,
                                   base_seed=seed)
    if args.replications < 2:
        report["variance_note"] = "undefined with a single replication"
    _make_out_dir(args.out)
    path = os.path.join(args.out, f"regret_{seed}.json")
    with _writing(path):
        write_json(report, path)
    print(f"wrote {path}")
    for T in report["horizons"]:
        row = report["per_horizon"][str(T)]
        print(f"T={T:>6}: mean R_T {row['mean_regret']:.6g}, "
              f"tail freq {row['tail_frequency']:.3f} "
              f"(bound {row['tail_bound']:.3f})")
    slope = report["slope"]
    print(f"log-log slope: {slope:.4f}" if slope is not None
          else "log-log slope: undefined")
    return EXIT_OK


def _cmd_flows(args):
    cfg = _read_config(args.config)
    if cfg.get("kind") != "flows":
        raise ConfigError("flows expects a config with kind: flows")
    edges = _get(cfg, "edges", kind=list)
    injections = _get(cfg, "injections_mw", kind=list)
    for i, e in enumerate(edges):
        if not isinstance(e, list) or len(e) != 2:
            raise ConfigError(f"config value edges[{i}] must be a pair of "
                              f"buses, got {e!r}")
    edges = [tuple(_checked_number(e, f"edges[{i}]", integer=True).tolist())
             for i, e in enumerate(edges)]
    flows = radial_line_flows(edges, _checked_number(injections, "injections_mw"))
    lines = ["edge,flow_mw"]
    lines += [f"{a}-{b},{f:.17g}" for (a, b), f in zip(edges, flows)]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        with _writing(args.out), atomic_write(args.out) as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_validate(args):
    scenario = _load(args)
    model = scenario.model
    blocks = model.blocks
    X_full = compute_sensitivity(model.Y)
    n = model.n_buses
    checks = {}

    y_sym = np.max(np.abs(model.Y - model.Y.T))
    checks["admittance_symmetric"] = y_sym < 1e-12
    shunts = sum(abs(line.shunt_admittance) for line in model.lines)
    if shunts == 0:
        checks["admittance_rows_sum_zero"] = float(
            np.max(np.abs(model.Y.sum(axis=1)))) < 1e-12
    ident = model.Y @ X_full - (np.eye(n) - np.ones((n, n)) / n)
    checks["sensitivity_identity"] = float(np.max(np.abs(ident))) < 1e-9
    checks["sensitivity_rows_sum_zero"] = float(
        np.max(np.abs(X_full @ np.ones(n)))) < 1e-9
    checks["blocks_tile_reduced_matrix"] = bool(
        np.array_equal(blocks.reassemble(), blocks.X))
    checks["q_positive_semidefinite"] = float(
        np.min(np.linalg.eigvalsh(0.5 * (blocks.Q + blocks.Q.T)))) > -1e-12
    hess = scenario.objective.H2
    checks["hessian_positive_definite"] = float(
        np.min(np.linalg.eigvalsh(0.5 * (hess + hess.T)))) > 0
    env_set = scenario.env_set
    checks["feasible_set_nonempty"] = env_set.contains(
        env_set.project(env_set.midpoint()))

    ok = all(checks.values())
    for name, passed in checks.items():
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
    print(f"validate: {'ok' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_MODEL


def _cmd_gradcheck(args):
    if args.points < 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")
    scenario = _load(args)
    seed = _seed(args, scenario)
    quad = scenario.objective
    b = scenario.true_linear_term()
    fset = scenario.env_set
    rng = np.random.default_rng(seed)
    h = 1e-5
    worst = 0.0
    for _ in range(args.points):
        raw = fset.p_min + rng.random(fset.dim) * (fset.p_max - fset.p_min)
        x = fset.project(raw)
        g = quad.grad(x, b)
        fd = np.empty_like(g)
        for i in range(x.shape[0]):
            e = np.zeros_like(x)
            e[i] = h
            fd[i] = (quad.value(x + e, b) - quad.value(x - e, b)) / (2 * h)
        denom = max(float(np.max(np.abs(g))), 1e-12)
        worst = max(worst, float(np.max(np.abs(fd - g))) / denom)
    print(f"max relative gradient error over {args.points} points: {worst:.3e}")
    if worst >= 1e-6:
        print("gradcheck: FAILED")
        return EXIT_MODEL
    print("gradcheck: ok")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "regret": _cmd_regret,
    "flows": _cmd_flows,
    "validate": _cmd_validate,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None):
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, IngestionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ModelError, FeasibilityError, ProjectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except AssumptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except UsecbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
