"""Closed-loop runs on a voltage band that binds.

With ``v_min`` at 0.975 or 0.98 the bundled dynamic IEEE-37 day cannot run
every building at full power, and at 0.985 the static IEEE-37 optimum sits
on a band row: the controls leave the box clamp and sit on the band.  Every
scheme must complete such a run with every slot feasible.
"""

import numpy as np
import pytest

from usecb.feasible import build_feasible
from usecb.sim import data_path, load_scenario, metrics, run_scheme

from conftest import count_newton_steps

BINDING = [pytest.param("ieee37_dynamic.json", 0.975, id="0.975"),
           pytest.param("ieee37_dynamic.json", 0.98, id="0.98"),
           pytest.param("ieee37_static.json", 0.985, id="static-0.985")]


def _scenario(config, v_min, horizon):
    return load_scenario(str(data_path(config)),
                         {"voltage_band": {"v_min": v_min}, "horizon": horizon})


@pytest.mark.parametrize("config, v_min", BINDING)
@pytest.mark.parametrize("scheme", ["stochastic", "exact", "oracle"])
def test_scheme_completes_on_binding_band(scheme, config, v_min):
    scn = _scenario(config, v_min, 60)
    run = run_scheme(scn, scheme)
    assert metrics(run)["all_feasible"]
    if run.solver_converged is not None:
        assert run.solver_converged.all()
    # A slot left the clamp path when its control sits on the band of the
    # set it was projected onto: a static run's one set, a dynamic slot's
    # built from the generation the scheme saw.
    on_band = 0
    for t in range(scn.horizon):
        fs = scn.env_set if scn.is_static else build_feasible(
            scn.band, scn.band.offset(run.p_g_obs[t], scn.p_fixed))
        volts = fs.offset + fs.A_volt @ run.p_c[t]
        on_band += int(np.min(volts - fs.v_min) <= 1e-9)
    assert on_band >= 1


def test_band_projections_mostly_skip_newton(monkeypatch):
    # A work count, not a timing: on the tight day most band projections end
    # in a one-row solve, with no Newton step (no ``_nonneg_qp`` call).
    scn = _scenario("ieee37_dynamic.json", 0.975, 60)
    calls = count_newton_steps(monkeypatch)
    run_scheme(scn, "stochastic")
    newton = sum(c > 0 for c in calls)
    assert len(calls) >= 4 and 4 * newton <= len(calls)


@pytest.mark.parametrize("scheme", ["exact", "oracle"])
def test_static_binding_solves_mostly_skip_newton(scheme, monkeypatch):
    # A work count, not a timing: at the static optimum one band row binds,
    # but it is not always the row the clamp breaks most; the second
    # one-row attempt prices it, so at most a quarter of the exact solve's
    # band projections reach Newton.
    scn = _scenario("ieee37_static.json", 0.985, 40)
    calls = count_newton_steps(monkeypatch)
    run_scheme(scn, scheme)
    newton = sum(c > 0 for c in calls)
    assert len(calls) >= 40 and 4 * newton <= len(calls)
