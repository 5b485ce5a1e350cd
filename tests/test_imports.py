"""Cold-start guard: importing the package, running any command and
computing chi load numpy only.  Each check runs in a fresh interpreter; a
static check finds any scipy import in the package source, run or not."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ba137qudit.calib import paper13_transition_refs, simulate_splittings
from ba137qudit.cli import main
from ba137qudit.fixtures import fixture_path
from ba137qudit.noise import reference_scaling_points, write_scaling_points

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
    # the calibration history is written by this process, outside the probe
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


def write_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]) + "\n")


def test_fit_commands_leave_scipy_unloaded(tmp_path):
    f = [float(x) for x in range(-10, 11)]
    write_csv(tmp_path / "scan.csv", ["freq_kHz", "p_dark", "shots"],
              [(x, 0.5 * 25.0 / ((x - 1.0) ** 2 + 25.0) + 0.02, 400) for x in f])
    t = [float(x) for x in range(0, 160)]
    write_csv(tmp_path / "rabi.csv", ["t_us", "p_transition", "shots"],
              [(x, 0.93 * math.sin(math.pi * x / 100.0) ** 2 + 0.02, 100) for x in t])
    write_scaling_points(tmp_path / "points.csv", reference_scaling_points())
    refs = paper13_transition_refs()
    sims = simulate_splittings([refs[n] for n in (1, 3, 5, 10)], 8.35)
    write_csv(tmp_path / "splittings.csv", ["transition", "freq_MHz"],
              [(f"S:F{g.F}:m{g.m}->D:F{e.F}:m{e.m}", v) for (g, e), v in sims.items()])
    out = str(tmp_path / "out")
    commands = [
        ["fit", "lorentzian", str(tmp_path / "scan.csv")],
        ["fit", "rabi", str(tmp_path / "rabi.csv")],
        ["fit", "error-scaling", str(tmp_path / "points.csv")],
        ["estimate-b", str(tmp_path / "splittings.csv")],
        ["--seed", "3", "calibrate-demo", "--sessions", "3"],
    ]
    code = "\n".join(
        ["from ba137qudit.cli import main"]
        + [f"assert main({['--out', out] + argv!r}) == 0, {argv!r}" for argv in commands]
    )
    assert scipy_modules_after(code) == []


def test_fit_lorentzian_leaves_scipy_unloaded():
    code = (
        "import numpy as np\n"
        "from ba137qudit.calib import FrequencyScan, fit_lorentzian\n"
        "f = np.arange(-10.0, 11.0)\n"
        "fit_lorentzian(FrequencyScan(f, 0.5 * 25.0 / ((f - 1.0) ** 2 + 25.0), [400] * 21))"
    )
    assert scipy_modules_after(code) == []


def test_chi_numeric_leaves_scipy_unloaded():
    code = (
        "from ba137qudit.noise import NoiseModel, TransitionNoiseParams, chi_numeric\n"
        "chi_numeric(NoiseModel(h_a=1e-6, h_b=1e-9, h_peak=1e-5),"
        " TransitionNoiseParams(kappa=1.0, tau_pi=20e-6))"
    )
    assert scipy_modules_after(code) == []


def package_imports():
    """(file name, line, module) of every import in the package source."""
    for path in sorted((ROOT / "src" / "ba137qudit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            yield from ((path.name, node.lineno, name) for name in names)


def test_package_source_imports_no_scipy():
    found = [f"{f}:{line}" for f, line, name in package_imports() if name.split(".")[0] == "scipy"]
    assert found == []


def test_only_fixtures_imports_csv_or_json():
    # fixtures is the package's one file layer
    found = [f"{f}:{line}" for f, line, name in package_imports()
             if name in ("csv", "json") and f != "fixtures.py"]
    assert found == []


@pytest.mark.parametrize("code, module", [
    pytest.param(
        f"import sys\nsys.path.insert(0, {str(ROOT / 'tests')!r})\nimport oracles",
        "scipy.integrate",
        id="oracles",
    ),
])
def test_first_use_loads_scipy(code, module):
    # positive control: the probe sees scipy when a module does load it
    assert module in scipy_modules_after(code)
