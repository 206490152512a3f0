"""Each demo script runs to completion against the checkout's ``src``.

``06_regret_growth.py`` is left out: it takes several seconds, and its one
library call, ``run_regret_experiment``, is pinned by ``test_golden.py`` and
acceptance criterion 9.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["01_radial_flows.py", "02_linear_grid_model.py",
         "03_thermal_objective.py", "04_projection.py",
         "05_static_experiment.py", "07_dynamic_day.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
