import contextlib
import io
import json
import warnings

import pytest

from usecb import cli, experiments
from usecb.cli import main
from usecb.errors import AssumptionError, ConfigError, ProjectionError
from usecb.experiments import run_regret_experiment, run_static_comparison
from usecb.sim import build_ieee37_scenario, data_path, load_scenario


def _data(name):
    return str(data_path(name))


# --- flows -------------------------------------------------------------------

def test_flows_central_fixture(capsys):
    assert main(["flows", "--config", _data("flows_central.json")]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    flows = [float(line.split(",")[1]) for line in out[1:]]
    assert flows == [20.0, 15.0, 10.0, 5.0]


def test_flows_distributed_fixture(capsys):
    assert main(["flows", "--config", _data("flows_distributed.json")]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    flows = [abs(float(line.split(",")[1])) for line in out[1:]]
    assert flows == [2.5] * 8


def test_flows_missing_config_exits_2(capsys):
    assert main(["flows", "--config", "/nonexistent/f.json"]) == 2


def test_flows_cycle_exits_3(tmp_path, capsys):
    cfg = {"schema_version": 1, "kind": "flows",
           "edges": [[0, 1], [1, 2], [2, 0]],
           "injections_mw": [0.0, 0.0, 0.0]}
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(cfg))
    assert main(["flows", "--config", str(path)]) == 3


@pytest.mark.parametrize("change, key", [
    ({"edges": None}, "edges"),
    ({"edges": [[0, "x"], [1, 2], [2, 3]]}, "edges[0][1]"),
    ({"edges": [[0, 1.5], [1, 2], [2, 3]]}, "edges[0][1]"),
    ({"edges": [[0, 1, 2], [1, 2], [2, 3]]}, "edges[0]"),
    ({"injections_mw": ["nan", 0.0, 0.0, 0.0]}, "injections_mw[0]"),
    ({"injections_mw": 1.0}, "injections_mw"),
])
def test_flows_bad_config_exits_2_naming_the_key(change, key, tmp_path, capsys):
    with open(_data("flows_central.json")) as fh:
        cfg = json.load(fh)
    cfg.update(change)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "flows.csv"
    assert main(["flows", "--config", str(path), "--out", str(out)]) == 2
    assert f" {key} " in capsys.readouterr().err.replace("\n", " ")
    assert not out.exists()


def test_flows_prints_what_it_writes(tmp_path, capsys):
    out = tmp_path / "flows.csv"
    assert main(["flows", "--config", _data("flows_central.json"),
                 "--out", str(out)]) == 0
    assert out.read_text() == capsys.readouterr().out


@pytest.mark.parametrize("target", ["dir", "missing/x.csv"])
def test_flows_out_it_cannot_write_exits_2(target, tmp_path, capsys):
    (tmp_path / "dir").mkdir()
    out = tmp_path / target
    assert main(["flows", "--config", _data("flows_central.json"),
                 "--out", str(out)]) == 2
    assert f"error: cannot write {out}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]


# --- simulate ------------------------------------------------------------------

@pytest.fixture(scope="module")
def short_static_config(tmp_path_factory):
    with open(_data("ieee37_static.json")) as fh:
        cfg = json.load(fh)
    cfg["horizon"] = 25
    path = tmp_path_factory.mktemp("cfg") / "static25.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_simulate_writes_outputs(short_static_config, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["simulate", "--config", short_static_config,
               "--scheme", "stochastic", "--out", str(out)])
    assert rc == 0
    csv_path = out / "slots_stochastic_42.csv"
    json_path = out / "summary_stochastic_42.json"
    assert csv_path.exists() and json_path.exists()
    rows = csv_path.read_text().strip().splitlines()
    assert len(rows) == 26  # header + horizon
    summary = json.loads(json_path.read_text())
    assert summary["all_feasible"] is True
    assert summary["conservation_max_residual"] < 1e-9


def test_simulate_missing_config_exits_2(capsys):
    assert main(["simulate", "--config", "/nope.json"]) == 2


def test_simulate_same_seed_byte_identical(short_static_config, tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["simulate", "--config", short_static_config,
                     "--seed", "7", "--out", str(out)]) == 0
    a = (out_a / "slots_stochastic_7.csv").read_bytes()
    b = (out_b / "slots_stochastic_7.csv").read_bytes()
    assert a == b


def test_horizon_override(short_static_config, tmp_path, capsys):
    out = tmp_path / "short"
    assert main(["simulate", "--config", short_static_config,
                 "--horizon", "5", "--out", str(out)]) == 0
    rows = (out / "slots_stochastic_42.csv").read_text().strip().splitlines()
    assert len(rows) == 6


@pytest.mark.parametrize("command", ["simulate", "compare", "regret",
                                     "gradcheck"])
def test_negative_seed_exits_2_naming_it(command, short_static_config,
                                         tmp_path, capsys):
    """A negative ``--seed`` is a configuration error, as a negative config
    ``seed`` is, and fails before any run or output."""
    out = tmp_path / "out"
    assert main([command, "--config", short_static_config, "--seed=-1",
                 "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target", ["taken", "taken/sub"])
@pytest.mark.parametrize("command", ["simulate", "compare", "regret"])
def test_out_on_a_file_exits_2_before_any_run(command, target,
                                              short_static_config, tmp_path,
                                              monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_scheme", None)
    monkeypatch.setattr(cli, "run_regret_experiment", None)
    (tmp_path / "taken").write_text("kept\n")
    out = tmp_path / target
    assert main([command, "--config", short_static_config,
                 "--out", str(out)]) == 2
    assert f"error: cannot write {out}" in capsys.readouterr().err
    assert (tmp_path / "taken").read_text() == "kept\n"


def test_simulate_output_it_cannot_write_exits_2_naming_it(short_static_config,
                                                          tmp_path, capsys):
    blocked = tmp_path / "slots_stochastic_42.csv"
    blocked.mkdir()
    assert main(["simulate", "--config", short_static_config,
                 "--out", str(tmp_path)]) == 2
    assert f"error: cannot write {blocked}" in capsys.readouterr().err


# --- validate / gradcheck --------------------------------------------------------

def test_validate_bundled_static(short_static_config, capsys):
    assert main(["validate", "--config", short_static_config]) == 0
    assert "validate: ok" in capsys.readouterr().out


@pytest.mark.parametrize("price", [0.0, -1.0])
def test_validate_nonpositive_price_exits_3(tmp_path, price, capsys):
    with open(_data("ieee37_static.json")) as fh:
        cfg = json.load(fh)
    cfg["lambda_price"] = price
    path = tmp_path / "priced.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 3
    assert "price" in capsys.readouterr().err


def test_gradcheck_bundled_static(short_static_config, capsys):
    assert main(["gradcheck", "--config", short_static_config,
                 "--points", "20"]) == 0
    assert "gradcheck: ok" in capsys.readouterr().out


@pytest.mark.parametrize("points", ["0", "-3"])
def test_gradcheck_without_points_exits_2(short_static_config, points, capsys):
    assert main(["gradcheck", "--config", short_static_config,
                 f"--points={points}"]) == 2
    captured = capsys.readouterr()
    assert "--points" in captured.err
    assert "gradcheck: ok" not in captured.out


# --- non-finite temperatures ------------------------------------------------------

def _nan_indoor_config(tmp_path):
    with open(_data("ieee37_static.json")) as fh:
        cfg = json.load(fh)
    cfg["horizon"] = 25
    cfg["indoor_init"]["mean"] = float("nan")
    path = tmp_path / "nan_indoor.json"
    path.write_text(json.dumps(cfg))
    return path


def _inf_outdoor_config(tmp_path):
    # The static run reads the profile at start_s only; that sample is inf.
    with open(_data("ieee37_static.json")) as fh:
        cfg = json.load(fh)
    cfg["horizon"] = 25
    start = f"{cfg['start_s']:g},"
    rows = data_path("temperature_profile.csv").read_text().splitlines()
    hit = [i for i, row in enumerate(rows) if row.startswith(start)]
    assert len(hit) == 1
    rows[hit[0]] = start + "inf"
    (tmp_path / "temperature_profile.csv").write_text("\n".join(rows) + "\n")
    path = tmp_path / "inf_outdoor.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("make_config", [_nan_indoor_config, _inf_outdoor_config])
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_nonfinite_temperature_exits_2_at_load(make_config, command, tmp_path,
                                               capsys):
    out = tmp_path / "out"
    rc = main([command, "--config", str(make_config(tmp_path)),
               "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


# --- non-finite config numbers --------------------------------------------------

NUMERIC_KEYS = ["lambda_price", "buildings.beta", "load.ac_max_mw", "dt_s",
                "s_base_mva", "buildings.cooling_gain_std",
                "generation.capacity_mw", "voltage_band.v_min",
                "noise.sigma_temp", "noise.sigma_gen", "load.fixed_mw",
                "buildings.alpha1_per_s", "start_s", "buildings.set_point.value"]


# Strings are not numbers, even when ``float()`` would read them.
STRING_VALUES = [pytest.param(v, id=f"str_{v}") for v in ("nan", "inf", "1e400", "abc")]


@pytest.mark.parametrize("key", NUMERIC_KEYS)
@pytest.mark.parametrize("value", [float("nan"), float("inf")] + STRING_VALUES)
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_nonfinite_config_number_exits_2_at_load(key, value, command, tmp_path,
                                                 capsys):
    with open(_data("ieee37_static.json")) as fh:
        cfg = json.load(fh)
    cfg["horizon"] = 25
    *parents, leaf = key.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    node[leaf] = value
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main([command, "--config", str(path), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and key in err
    assert not out.exists()


# Zero or negative values the loader rejects, each naming its key.
OUT_OF_RANGE = {"s_base_mva": (0, -1), "load.ac_max_mw": (0, -1),
                "buildings.cooling_gain_std": (-1,), "dt_s": (0, -1)}


@pytest.mark.parametrize("key", NUMERIC_KEYS + ["buildings.cooling_gain_mean"])
@pytest.mark.parametrize("value", [0, -1, 1e300])
def test_out_of_range_config_number_exits_with_a_code(key, value, tmp_path,
                                                      capsys):
    """Zero, negative and huge numbers end ``validate`` with an exit code of
    its taxonomy, never a traceback."""
    with open(_data("ieee37_static.json")) as fh:
        cfg = json.load(fh)
    cfg["horizon"] = 25
    *parents, leaf = key.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    node[leaf] = value
    path = tmp_path / "range.json"
    path.write_text(json.dumps(cfg))
    rc = main(["validate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc in (0, 2, 3, 4)
    if value in OUT_OF_RANGE.get(key, ()):
        assert rc == 2 and key in capsys.readouterr().err


def test_overflowing_objective_fails_without_a_numpy_warning(tmp_path):
    """A cooling gain that overflows the objective's Hessian ends ``validate``
    with the package's own error alone: the same exit code and message when
    warnings are errors."""
    with open(_data("ieee37_static.json")) as fh:
        cfg = json.load(fh)
    cfg["horizon"] = 25
    cfg["buildings"]["cooling_gain_mean"] = 1e300
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    results = []
    for action in ("default", "error"):
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter(action)
            results.append((main(["validate", "--config", str(path)]),
                            err.getvalue()))
    assert results[0] == results[1]
    assert results[0] == (3, "error: objective Hessian is not finite\n")


def test_huge_box_is_not_called_empty(tmp_path):
    """A box so large that the band solve's interpolated step overflows in
    its product form is still placed: ``validate`` passes, never reporting a
    false certificate that the set is empty, and with the same exit code and
    output when warnings are errors."""
    with open(_data("ieee37_static.json")) as fh:
        cfg = json.load(fh)
    cfg["horizon"] = 25
    cfg["load"]["ac_max_mw"] = 1e300
    path = tmp_path / "huge_box.json"
    path.write_text(json.dumps(cfg))
    results = []
    for action in ("default", "error"):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter(action)
            code = main(["validate", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        results.append((code, out.getvalue(), err.getvalue()))
    assert results[0] == results[1]
    code, printed, message = results[0]
    assert code == 0 and printed.endswith("validate: ok\n") and message == ""
    assert "feasible_set_nonempty" in printed


# --- missing or unknown config entries ------------------------------------------

def _static_config_with(tmp_path, edit):
    """A 10-slot copy of the bundled static config after ``edit(cfg)``."""
    with open(_data("ieee37_static.json")) as fh:
        cfg = json.load(fh)
    cfg["horizon"] = 10
    edit(cfg)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(cfg))
    return path


REQUIRED_KEYS = ["network", "generation", "generation.buses",
                 "generation.profile", "temperature_profile", "buildings",
                 "buildings.set_point.mode"]


@pytest.mark.parametrize("key", REQUIRED_KEYS)
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_missing_config_key_exits_2_naming_it(key, command, tmp_path, capsys):
    def drop(cfg):
        *parents, leaf = key.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        del node[leaf]

    out = tmp_path / "out"
    rc = main([command, "--config", str(_static_config_with(tmp_path, drop)),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_absolute_generation_noise_exits_2(command, tmp_path, capsys):
    def absolute(cfg):
        cfg["noise"]["gen_mode"] = "absolute"

    out = tmp_path / "out"
    rc = main([command, "--config", str(_static_config_with(tmp_path, absolute)),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "noise.gen_mode" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_non_boolean_include_gen_buses_exits_2(value, command, tmp_path, capsys):
    def edit(cfg):
        cfg["voltage_band"]["include_gen_buses"] = value

    out = tmp_path / "out"
    rc = main([command, "--config", str(_static_config_with(tmp_path, edit)),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "voltage_band.include_gen_buses" in err
    assert not out.exists()


def _set(key, value):
    def edit(cfg):
        *parents, leaf = key.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        node[leaf] = value
    return edit


# A value of the wrong JSON type: a section that is not an object, a list
# that is not a list, a file name that is not a string.
WRONG_TYPES = [("voltage_band", "tight"), ("noise", 7),
               ("buildings.set_point", "warm"), ("bus_names", 5),
               ("generation.buses", 5), ("network", 5),
               ("generation.profile", [0.0, 1.0]), ("temperature_profile", None)]


@pytest.mark.parametrize("key, value", WRONG_TYPES, ids=[k for k, _ in WRONG_TYPES])
@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_wrong_config_type_exits_2_naming_the_key(key, value, command, tmp_path,
                                                  capsys):
    out = tmp_path / "out"
    rc = main([command, "--config",
               str(_static_config_with(tmp_path, _set(key, value))),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and f"config value {key} must be" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "flows"])
def test_config_that_is_not_an_object_exits_2(command, tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main([command, "--config", str(path)]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err


def test_crossed_voltage_band_exits_3(tmp_path, capsys):
    def crossed(cfg):
        cfg["voltage_band"].update(v_min=1.05, v_max=0.95)

    rc = main(["validate", "--config", str(_static_config_with(tmp_path, crossed))])
    assert rc == 3
    err = capsys.readouterr().err
    assert "crossed band bounds" in err and "violation at least 5.000e-02" in err


def test_omitted_voltage_limit_stays_open(tmp_path, capsys):
    with open(_data("ieee37_static.json")) as fh:
        cfg = json.load(fh)
    cfg["horizon"] = 25
    del cfg["voltage_band"]["v_max"]
    path = tmp_path / "no_vmax.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 0
    assert "validate: ok" in capsys.readouterr().out


# --- regret ------------------------------------------------------------------------

def test_regret_rejects_dynamic_config(tmp_path, capsys):
    with open(_data("ieee37_dynamic.json")) as fh:
        cfg = json.load(fh)
    cfg["horizon"] = 10
    path = tmp_path / "dyn.json"
    path.write_text(json.dumps(cfg))
    assert main(["regret", "--config", str(path)]) == 4


def test_regret_report_deterministic(tmp_path, capsys):
    with open(_data("ieee37_regret.json")) as fh:
        cfg = json.load(fh)
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(cfg))
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["regret", "--config", str(path), "--horizons", "40,80",
                     "--replications", "3", "--out", str(out)]) == 0
        blobs.append((out / "regret_44.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_regret_single_replication_flags_variance(tmp_path, capsys):
    with open(_data("ieee37_regret.json")) as fh:
        cfg = json.load(fh)
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = main(["regret", "--config", str(path), "--horizons", "50,100",
               "--replications", "1", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "regret_44.json").read_text())
    assert report["variance_note"] == "undefined with a single replication"
    assert report["per_horizon"]["50"]["std_regret"] is None



@pytest.mark.parametrize("horizons", ["", "0", "-5", "100,0", "abc"])
def test_regret_bad_horizons_exit_2(horizons, tmp_path, capsys):
    rc = main(["regret", "--config", _data("ieee37_regret.json"),
               f"--horizons={horizons}", "--replications", "2",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_regret_zero_replications_exit_2(tmp_path, capsys):
    rc = main(["regret", "--config", _data("ieee37_regret.json"),
               "--horizons", "50,100", "--replications", "0",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "replications" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_regret_on_a_point_box_exits_4_before_any_step(tmp_path, capsys,
                                                      monkeypatch):
    """A one-point AC box has D = 0, so the step rule is undefined: the
    experiment raises ``AssumptionError`` naming D and G* before it runs a
    step, and the CLI exits 4 without writing a report."""
    with open(_data("ieee37_regret.json")) as fh:
        cfg = json.load(fh)
    cfg["load"]["ac_min_mw"] = cfg["load"]["ac_max_mw"] = 1.2
    path = tmp_path / "point.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(experiments, "run_online", None)
    rc = main(["regret", "--config", str(path), "--horizons", "10,20",
               "--replications", "2", "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "D = 0 and G* = " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(AssumptionError, match=r"positive D and G\*"):
        run_regret_experiment(load_scenario(str(path)), horizons=(10, 20),
                              replications=2)


def test_regret_experiment_counts_a_repeated_horizon_once():
    scn = build_ieee37_scenario(variant="regret")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        twice = run_regret_experiment(scn, horizons=(50, 50), replications=2,
                                      base_seed=3)
    once = run_regret_experiment(scn, horizons=(50,), replications=2,
                                 base_seed=3)
    assert twice["horizons"] == [50] and twice["slope"] is None
    assert twice == once


def test_experiments_reject_bad_sizes(monkeypatch):
    scn = build_ieee37_scenario(variant="regret")
    for horizons in ((), (0, 100), (-5,)):
        with pytest.raises(ConfigError, match="horizons"):
            run_regret_experiment(scn, horizons=horizons, replications=2)
    with pytest.raises(ConfigError, match="replications"):
        run_regret_experiment(scn, horizons=(50,), replications=0)
    with pytest.raises(ConfigError, match="replications"):
        run_static_comparison(build_ieee37_scenario(), replications=0)
    # The window is checked before the comparison solves anything.
    monkeypatch.setattr(experiments, "static_problem", None)
    for window in (0, -5):
        with pytest.raises(ConfigError, match="window"):
            run_static_comparison(build_ieee37_scenario(), replications=2,
                                  window=window)


# --- compare -------------------------------------------------------------------------

def test_compare_writes_all_schemes(short_static_config, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", short_static_config,
                 "--out", str(out)]) == 0
    summary = json.loads((out / "compare_42.json").read_text())
    assert set(summary) == {"stochastic", "exact", "oracle"}


def test_compare_with_a_failing_scheme_writes_nothing(short_static_config,
                                                      tmp_path, monkeypatch,
                                                      capsys):
    """All three schemes run before any output is written, so a scheme that
    fails exits 3 with no other scheme's output left behind."""
    real = cli.run_scheme

    def failing(scenario, scheme, seed):
        if scheme == "oracle":
            raise ProjectionError("oracle failed (test)")
        return real(scenario, scheme, seed=seed)

    monkeypatch.setattr(cli, "run_scheme", failing)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", short_static_config,
                 "--out", str(out)]) == 3
    assert "oracle failed" in capsys.readouterr().err
    assert not any(out.iterdir())
