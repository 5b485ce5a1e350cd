import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "evaluator_timing.py"


def test_prints_a_positive_p50_for_each_encoding_and_mode():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--calls", "2"], capture_output=True, text=True, check=True
    ).stdout
    timing = json.loads(out)
    assert timing["calls"] == 2
    assert list(timing["p50_ms"]) == ["sub5", "paper13", "full25"]
    for modes in timing["p50_ms"].values():
        assert list(modes) == ["first-bright", "strict-single-bright"]
        assert all(ms > 0 for ms in modes.values())


def test_rejects_zero_calls():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--calls", "0"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "--calls must be >= 1" in proc.stderr
