import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "ab_ops.py"


def test_same_checkout_on_both_sides_runs_every_op():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--workload", "calib-session",
         "--seed", "1", "--ops", "4"],
        capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out)
    assert sorted(result) == ["new", "old", "ops", "ratio_p50", "seed", "warmup_problems",
                              "workload"]
    assert (result["workload"], result["seed"], result["ops"]) == ("calib-session", 1, 4)
    assert result["warmup_problems"] == ["", ""]
    for side in (result["old"], result["new"]):
        assert sorted(side) == ["failed", "p50_s", "p80_s"]
        assert side["failed"] == 0 and 0 < side["p50_s"] <= side["p80_s"]
    assert result["ratio_p50"] > 0


def test_rejects_zero_ops():
    proc = subprocess.run([sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--workload",
                           "spam-sweep", "--ops", "0"], capture_output=True, text=True)
    assert proc.returncode == 2 and "--ops must be >= 1" in proc.stderr


def test_cold_cli_runs_each_op_in_a_fresh_interpreter_and_checks_it():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--workload", "cli-cold",
         "--seed", "1", "--ops", "2"],
        capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out)
    assert sorted(result) == ["failures", "new", "old", "ops", "ratio_p50", "ratio_p50_by_kind",
                              "seed", "workload"]
    assert (result["workload"], result["seed"], result["ops"]) == ("cli-cold", 1, 2)
    # the first two ops of every cli-cold block
    assert sorted(result["ratio_p50_by_kind"]) == ["estimate-b", "levels"]
    assert result["failures"] == {"old": [], "new": []}
    for side in (result["old"], result["new"]):
        assert sorted(side) == ["failed", "p50_s", "p80_s"]
        assert side["failed"] == 0 and 0 < side["p50_s"] <= side["p80_s"]
    assert result["ratio_p50"] > 0
