"""Smoke test: every demo runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# lines a demo must print: a demo that tells the levels apart wrongly still runs
EXPECTED_LINES = {
    "07_25_level_encoding.py": ("ground states encoded: 8", "metastable states encoded: 17"),
}


@pytest.mark.parametrize("name", [
    "01_energy_levels.py", "02_eigenstate_mixing.py", "03_transition_strengths.py",
    "04_spam_protocol.py", "05_noise_model.py", "06_calibration.py", "07_25_level_encoding.py",
])
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for line in EXPECTED_LINES.get(name, ()):
        assert line in proc.stdout.splitlines(), line
