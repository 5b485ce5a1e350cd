"""Cold-start guard: importing the package and running the commands that
fit nothing load numpy only; scipy loads on the first fit, field estimate
or chi quadrature.  Each check runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ba137qudit.cli import main
from ba137qudit.fixtures import fixture_path

ROOT = Path(__file__).resolve().parent.parent


def scipy_modules_after(code: str) -> list[str]:
    """Names of the scipy modules loaded after running code in a new interpreter."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(k for k in sys.modules if k.startswith('scipy'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_leaves_scipy_unloaded():
    assert scipy_modules_after("import ba137qudit, ba137qudit.cli") == []


def test_commands_without_fits_leave_scipy_unloaded(tmp_path):
    # the calibration history comes from this process, which may load scipy
    assert main(["--out", str(tmp_path), "--seed", "3", "calibrate-demo", "--sessions", "3"]) == 0
    out = str(tmp_path / "out")
    commands = [
        ["levels", "--b", "0:2:0.5"],
        ["strengths"],
        ["spam", "--errors", "table-e5", "--shots", "100", "--seed", "1"],
        ["spam", "--analyze", str(fixture_path("table_e3.csv"))],
        ["budget"],
        ["fit", "calibration", str(tmp_path / "calibration_history.csv")],
    ]
    code = "\n".join(
        ["from ba137qudit.cli import main"]
        + [f"assert main({['--out', out] + argv!r}) == 0, {argv!r}" for argv in commands]
    )
    assert scipy_modules_after(code) == []


@pytest.mark.parametrize("code, module", [
    (
        "import numpy as np\n"
        "from ba137qudit.calib import FrequencyScan, fit_lorentzian\n"
        "f = np.arange(-10.0, 11.0)\n"
        "fit_lorentzian(FrequencyScan(f, 0.5 * 25.0 / ((f - 1.0) ** 2 + 25.0), [400] * 21))",
        "scipy.optimize",
    ),
    (
        "from ba137qudit.noise import NoiseModel, TransitionNoiseParams, chi_numeric\n"
        "chi_numeric(NoiseModel(), TransitionNoiseParams(kappa=1.0, tau_pi=20e-6))",
        "scipy.integrate",
    ),
])
def test_first_use_loads_scipy(code, module):
    # positive control: the probe sees scipy when a function does load it
    assert module in scipy_modules_after(code)
