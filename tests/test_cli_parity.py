import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "cli_parity.py"
RECORD = ROOT / "tests" / "data" / "cli_record.json"


def parity(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True)


def test_two_argvs_give_the_same_masked_record_twice(tmp_path):
    records = []
    for name in ("a.json", "b.json"):
        assert parity(tmp_path / name, "--seeds", "--limit", "2").returncode == 0
        records.append((tmp_path / name).read_bytes())
    assert records[0] == records[1]
    doc = json.loads(records[0])["cases"]
    assert sorted(doc) == ["strengths-csv", "strengths-json"]
    csv_run = doc["strengths-csv"]
    assert csv_run["argv"] == ["--format", "csv", "strengths"]
    assert csv_run["rc"] == 0 and csv_run["stderr"] == ""
    assert "strengths: wrote {work}/out/strengths.csv\n" in csv_run["stdout"]
    assert sorted(csv_run["files"]) == ["strengths.csv", "strengths_report.json"]
    assert sorted(doc["strengths-json"]["files"]) == ["strengths.json", "strengths_report.json"]
    assert all(len(digest) == 64 for digest in csv_run["files"].values())
    assert tempfile.gettempdir() not in records[0].decode()


def test_outputs_match_the_committed_record():
    """Every fixed case gives the exit code, stdout, stderr and output files
    of the committed record.  A change that means to move an output writes
    the record again and names each moved case."""
    run = parity("--check", RECORD)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.endswith("50 cases match\n")


def test_check_names_each_difference(tmp_path):
    record = tmp_path / "record.json"
    assert parity(record, "--seeds", "--limit", "2").returncode == 0
    assert parity("--check", record).returncode == 0
    doc = json.loads(record.read_text())
    doc["environment"]["numpy"] = "0.0"
    cases = doc["cases"]
    cases["strengths-csv"]["stdout"] += "one more line\n"
    cases["strengths-csv"]["rc"] = 1
    cases["strengths-json"]["files"]["strengths.json"] = "0" * 64
    del cases["strengths-json"]["files"]["strengths_report.json"]
    cases["gone"] = cases["strengths-csv"]
    record.write_text(json.dumps(doc))
    run = parity("--check", record)
    assert run.returncode == 1
    assert run.stdout.splitlines() == [
        f"environment: numpy 0.0 in the record, {numpy.__version__} here",
        "gone: in the record, not run",
        "strengths-csv: rc differs",
        "strengths-csv: stdout differs",
        "strengths-json: file strengths.json differs",
        "strengths-json: file strengths_report.json not in the record",
        f"cli_parity: {record}: 6 differences",
    ]
