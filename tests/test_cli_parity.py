import json
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "cli_parity.py"


def test_two_argvs_give_the_same_masked_record_twice(tmp_path):
    records = []
    for name in ("a.json", "b.json"):
        subprocess.run([sys.executable, str(SCRIPT), str(tmp_path / name), "--seeds", "--limit", "2"],
                       capture_output=True, text=True, check=True)
        records.append((tmp_path / name).read_bytes())
    assert records[0] == records[1]
    doc = json.loads(records[0])
    assert sorted(doc) == ["strengths-csv", "strengths-json"]
    csv_run = doc["strengths-csv"]
    assert csv_run["argv"] == ["--format", "csv", "strengths"]
    assert csv_run["rc"] == 0 and csv_run["stderr"] == ""
    assert "strengths: wrote {work}/out/strengths.csv\n" in csv_run["stdout"]
    assert sorted(csv_run["files"]) == ["strengths.csv", "strengths_report.json"]
    assert sorted(doc["strengths-json"]["files"]) == ["strengths.json", "strengths_report.json"]
    assert all(len(digest) == 64 for digest in csv_run["files"].values())
    assert tempfile.gettempdir() not in records[0].decode()
