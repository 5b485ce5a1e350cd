"""Self-test of the benchmark: a tiny run of each workload.

    python3 perfbench/selftest.py        (from the root of a checkout)

For every workload it asserts that an untraced run emits every end-to-end
metric of BENCHMARK.json with its unit and no failed op, that a traced run
emits every per-layer metric with its unit, and that a run with a wrong
output injected (a perturbed field estimate, or Monte Carlo counts moved
to Null) counts failed ops.  Takes a few minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FAULT = {"cli-cold": "estimate_field", "calib-session": "estimate_field",
         "spam-sweep": "run_experiment"}


def run(workload: str, trace: int, fault=None) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    if fault:
        cmd += ["--fault", fault]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def expect_metrics(result: dict, specs: list, label: str) -> None:
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{label}: metrics/units differ: {set(got) ^ set(want)}"
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    for w in (x["name"] for x in spec["workloads"]):
        result, report = run(w, 0)
        expect_metrics(result, spec["end_to_end"], f"{w} untraced")
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
        assert "fail_ratio 0" in report, report
        result, _ = run(w, 1)
        expect_metrics(result, spec["per_layer"], f"{w} traced")
        assert result["correct"] and result["failed"] == 0, result
        result, _ = run(w, 0, FAULT[w])
        assert result["failed"] >= 1 and not result["correct"], f"{w}: fault not detected: {result}"
        print(f"selftest {w}: ok ({result['failed']}/{result['attempted']} ops failed under fault)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
