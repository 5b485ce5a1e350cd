import json
import py_compile
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"
METRICS = ("setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "success_ratio", "peak_rss_mb")


def checkout(root: Path, p50s, compiled: bool) -> Path:
    """A checkout holding one untraced calib-session run per p50 (seeds 1,
    2, ...), one traced run that must be skipped, and the package source."""
    package = root / "src" / "ba137qudit"
    package.mkdir(parents=True)
    (package / "mod.py").write_text("X = 1\n")
    if compiled:
        py_compile.compile(str(package / "mod.py"), doraise=True)
    runs = [(seed, 0, p50) for seed, p50 in enumerate(p50s, 1)] + [(1, 1, 9.0)]
    for i, (seed, trace, p50) in enumerate(runs):
        run = root / ".perfbench" / f"run-{i}"
        run.mkdir(parents=True)
        values = {name: 1.0 for name in METRICS} | {"op_p50_s": p50, "ops_per_s": 1.0 / p50}
        (run / "record.json").write_text(json.dumps({
            "workload": "calib-session", "seed": seed, "trace": trace, "git_commit": None,
            "versions": {"python": "3"}, "nproc": 2, "seconds": 25,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()},
        }))
    return root


def test_quartiles_pairs_and_bytecode(tmp_path):
    base = checkout(tmp_path / "a", [0.020, 0.024, 0.022, 0.030, 0.026], compiled=False)
    change = checkout(tmp_path / "b", [0.013, 0.012, 0.025, 0.014, 0.015], compiled=True)
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(SCRIPT), "--out", str(out), f"parent={base}",
                    f"change={change}"], check=True, capture_output=True)
    doc = json.loads(out.read_text())
    p50 = doc["summary"]["calib-session"]["parent"]["op_p50_s"]
    assert p50 == {"median": 0.024, "q1": 0.022, "q3": 0.026, "runs": 5}
    assert doc["pairs"]["calib-session"]["op_p50_s"] == {"pairs": 5, "wins": 4, "ties": 0}
    assert doc["pairs"]["calib-session"]["ops_per_s"]["wins"] == 4  # higher is better
    assert doc["pairs"]["calib-session"]["setup_s"] == {"pairs": 5, "wins": 0, "ties": 5}
    assert not doc["checkouts"]["parent"]["bytecode_compiled"]
    assert doc["checkouts"]["change"]["bytecode_compiled"]
    assert len(doc["runs"]) == 10 and {r["seed"] for r in doc["runs"]} == {1, 2, 3, 4, 5}
