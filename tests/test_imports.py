"""Cold-start guard: importing the package, running any command and
computing chi load numpy only, and a command runs only the package modules
it reads.  Each check runs in a fresh interpreter; a static check finds any
scipy import in the package source, run or not."""

import ast
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ba137qudit
from ba137qudit import cli, spam, transitions
from ba137qudit.calib import paper13_transition_refs, simulate_splittings
from ba137qudit.cli import main
from ba137qudit.fixtures import fixture_path
from ba137qudit.noise import reference_scaling_points, write_scaling_points

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ("_lsq", "angmom", "atomstruct", "calib", "fixtures", "noise", "spam", "transitions")


def run_probe(code: str, value: str):
    """The JSON value of the expression ``value``, evaluated after running
    code in a new interpreter."""
    probe = f"{code}\nimport json, sys, types\nprint(json.dumps({value}))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def scipy_modules_after(code: str) -> list[str]:
    """Names of the scipy modules loaded after running code in a new interpreter."""
    return run_probe(code, "sorted(k for k in sys.modules if k.startswith('scipy'))")


# the package modules that have run; a module that is only bound lazily is
# not a types.ModuleType until its first attribute read, and this probe
# reads none
EXECUTED = ("sorted(k.partition('.')[2] for k, m in sys.modules.items()"
            " if k.startswith('ba137qudit.') and type(m) is types.ModuleType)")


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


def write_fit_inputs(tmp_path):
    """The input tables of the fit and estimate-b commands."""
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


def test_fit_commands_leave_scipy_unloaded(tmp_path):
    write_fit_inputs(tmp_path)
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


# each command kind of the benchmark's cli-cold mix: its argv ({work}: the
# input tables' directory) and the package modules it runs
COMMAND_MODULES = {
    "estimate-b": (["estimate-b", "{work}/splittings.csv"],
                   "_lsq angmom atomstruct calib cli fixtures"),
    "levels": (["levels", "--level", "5D5/2", "--b", "0:10:0.05"],
               "angmom atomstruct cli fixtures"),
    "budget": (["budget", "--fluorescence-ms", "5", "--awg-ms", "4"],
               "angmom atomstruct cli fixtures spam transitions"),
    "strengths": (["strengths", "--format", "both", "--list-encodable"],
                  "angmom atomstruct cli fixtures transitions"),
    "fit-lorentzian": (["fit", "lorentzian", "{work}/scan.csv"], "_lsq calib cli fixtures"),
    "spam-sim": (["--seed", "1", "spam", "--errors", "table-e5", "--shots", "1000",
                  "--mode", "strict-single-bright"],
                 "angmom atomstruct cli fixtures spam transitions"),
    "fit-rabi": (["fit", "rabi", "{work}/rabi.csv"], "_lsq calib cli fixtures"),
    "eigenstates": (["eigenstates", "--level", "5D5/2", "--f-tilde", "3", "--m-tilde", "1",
                     "--b", "0:10:0.1"], "angmom atomstruct cli fixtures"),
    "fit-error-scaling": (["fit", "error-scaling", "{work}/points.csv"],
                          "_lsq cli fixtures noise"),
    "calibrate-demo": (["--seed", "3", "calibrate-demo", "--sessions", "3"],
                       "_lsq angmom atomstruct calib cli fixtures transitions"),
    "spam-analyze": (["spam", "--analyze", str(fixture_path("table_e3.csv"))],
                     "angmom atomstruct cli fixtures spam transitions"),
    "fit-calibration": (["fit", "calibration", "{work}/calibration_history.csv"],
                        "_lsq calib cli fixtures"),
}


@pytest.fixture(scope="module")
def command_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("inputs")
    write_fit_inputs(work)
    assert main(["--out", str(work), "--seed", "3", "calibrate-demo", "--sessions", "3"]) == 0
    return work


@pytest.mark.parametrize("kind", COMMAND_MODULES)
def test_command_runs_only_the_modules_it_reads(command_inputs, kind):
    argv, modules = COMMAND_MODULES[kind]
    argv = ["--out", str(command_inputs / "out")] + [a.format(work=command_inputs) for a in argv]
    code = f"from ba137qudit.cli import main\nassert main({argv!r}) == 0"
    assert run_probe(code, EXECUTED) == modules.split()


def test_import_binds_every_library_module_unexecuted():
    # perfbench's tracer reads sys.modules["ba137qudit.<layer>"] right after
    # the import, so every traced layer must be there already
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert set(tracing.TRACED) <= set(LIBRARY)
    bound = "sorted(k.partition('.')[2] for k in sys.modules if k.startswith('ba137qudit.'))"
    assert run_probe("import ba137qudit", f"[{bound}, {EXECUTED}]") == [list(LIBRARY), []]


def test_cli_runs_as_a_module_without_warnings():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "ba137qudit.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""


def test_package_names_are_its_modules_names():
    assert dir(ba137qudit) == sorted([
        "__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__",
        "__package__", "__path__", "__spec__", "__version__",
        *LIBRARY, "cli",  # cli: imported above
        "BA137_D52", "BA137_S12", "CalSnapshot", "CalibrationModel", "ConfusionMatrix",
        "EigenSystem", "ErrorParams", "FrequencyScan", "HalfInt", "LabeledEigenstate",
        "LaserGeometry", "LevelConstants", "MU_B_OVER_H", "NoiseModel", "PAPER13_GEOMETRY",
        "QuditEncoding", "RabiTrace", "StateRef", "StrengthTable", "TransitionNoiseParams",
        "average_fidelity", "build_measurement_sequence", "chi_closed_form", "chi_numeric",
        "clebsch_gordan", "decomposition_scan", "detuned_rabi", "diagonalize",
        "diagonalize_range", "encodable_states", "enumerate_outcomes", "error_budget",
        "estimate_field", "field_sensitivity", "fit_calibration", "fit_error_scaling",
        "fit_lorentzian", "fit_rabi_flop", "geometric_factor", "paper13_encoding",
        "pi_pulse_error", "post_select", "predict_frequency", "ratio_pi_calibration",
        "run_experiment", "scaling_analysis", "spam_error_from_pi", "strength_table",
        "timing_budget", "transition_frequency", "zero_field_energy",
    ])
    modules = [getattr(ba137qudit, name) for name in LIBRARY]
    for name in dir(ba137qudit):
        homes = [m for m in modules if name in getattr(m, "__all__", ())]
        if name.startswith("_") or name in LIBRARY or name == "cli":
            assert homes == []
            continue
        assert homes, name
        assert all(getattr(ba137qudit, name) is getattr(m, name) for m in homes), name
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        ba137qudit.nothing


def test_cli_parameter_data_matches_its_sources():
    # cli keeps these as plain data so that parsing loads neither module
    assert cli.PARAMS["mode"].choices == spam.MODES
    for mode in spam.MODES:
        assert cli.PARAMS["mode"].check(mode, "--mode") == mode
    with pytest.raises(cli.CliError):
        cli.PARAMS["mode"].check("majority", "--mode")
    geometry = transitions.PAPER13_GEOMETRY
    assert (cli.PARAMS["phi_deg"].default, cli.PARAMS["gamma_deg"].default) == (
        geometry.phi, geometry.gamma)
    assert {name: cli._level(name).name for name in cli.LEVELS} == {
        "6S1/2": "6S1/2", "5D5/2": "5D5/2"}
