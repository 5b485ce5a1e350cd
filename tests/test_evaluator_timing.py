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
    assert list(timing) == ["calls", "p50_ms", "memo_hit_p50_ms", "compile_miss_p50_ms",
                            "eps_lookup_p50_ns"]
    for row in ("p50_ms", "memo_hit_p50_ms"):
        assert list(timing[row]) == ["sub5", "paper13", "full25"], row
        for modes in timing[row].values():
            assert list(modes) == ["first-bright", "strict-single-bright"]
            assert all(ms > 0 for ms in modes.values())
    for row in ("compile_miss_p50_ms", "eps_lookup_p50_ns"):
        assert list(timing[row]) == ["sub5", "paper13", "full25"], row
        assert all(x > 0 for x in timing[row].values())


def test_rejects_zero_calls():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--calls", "0"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "--calls must be >= 1" in proc.stderr
