"""The demo scripts run to completion on the current API."""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
#: The CSVs each demo writes next to itself.
WRITES = {
    "02_barrier_transmission.py": ["eckart_transmission.csv"],
    "03_bound_states_and_patched_wave.py": ["patched_wave.csv", "exact_wave.csv"],
}


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, script):
    shutil.copy(DEMOS / script, tmp_path / script)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, script], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for name in WRITES.get(script, []):
        assert (tmp_path / name).stat().st_size > 0
