"""Summarize benchmark runs of one or more checkouts into one JSON file.

    python -m compileall -q src/ba137qudit      # in each checkout, before measuring
    python3 perfbench/run.py --workload W --seed N --seconds 25   # as often as needed
    python tools/bench_summary.py --out BENCH_24.json parent=../a change=../b

Each argument is a checkout, optionally named ``LABEL=PATH`` (the label
defaults to the directory name).  Every untraced run record under its
``.perfbench/*/record.json`` is read; traced runs carry per-layer metrics
and are skipped.  The output holds:

- ``summary``: per workload and checkout, the run count and the median,
  q1 and q3 of each end-to-end metric that ``BENCHMARK.json`` names;
- ``checkouts``: per checkout, the SHA-256 of its package sources and
  whether every package module had bytecode matching its source (what
  ``compileall`` leaves) when the file was written;
- ``pairs``: with exactly two checkouts, per workload and metric, how many
  runs of the second beat the run of the first with the same seed and
  position in finishing order, and how many tie;
- ``runs``: each run's workload, seed, commit, versions, nproc and values.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def source_digest(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def bytecode_matches(source: Path) -> bool:
    """True when the interpreter would load ``source``'s cached bytecode
    instead of compiling it: the pyc's magic number and its recorded
    source mtime and size (or source hash) match."""
    cached = Path(importlib.util.cache_from_source(str(source)))
    try:
        header = cached.read_bytes()[:16]
    except OSError:
        return False
    if len(header) < 16 or header[:4] != importlib.util.MAGIC_NUMBER:
        return False
    if int.from_bytes(header[4:8], "little") & 1:  # hash-based pyc
        return header[8:16] == importlib.util.source_hash(source.read_bytes())
    st = source.stat()
    return (int.from_bytes(header[8:12], "little") == int(st.st_mtime) & 0xFFFFFFFF
            and int.from_bytes(header[12:16], "little") == st.st_size & 0xFFFFFFFF)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def read_runs(label: str, root: Path) -> list[dict]:
    runs = []
    for path in root.glob(".perfbench/*/record.json"):
        record = json.loads(path.read_text())
        if record["trace"]:
            continue
        runs.append({
            "checkout": label,
            "workload": record["workload"],
            "seed": record["seed"],
            "commit": record["git_commit"],
            "versions": record["versions"],
            "nproc": record["nproc"],
            "seconds": record["seconds"],
            "finished": path.stat().st_mtime,
            "metrics": {k: m["value"] for k, m in record["metrics"].items()},
        })
    return sorted(runs, key=lambda r: (r["workload"], r["seed"], r["finished"]))


def pair_wins(base: list[dict], change: list[dict], metrics: dict) -> dict:
    """Per metric: runs of ``change`` paired with the ``base`` run of the
    same seed and position in finishing order, and the change's wins."""
    by_seed: dict[int, list] = {}
    for run in base:
        by_seed.setdefault(run["seed"], []).append(run)
    pairs, seen = [], {}
    for run in change:
        k = seen.get(run["seed"], 0)
        seen[run["seed"]] = k + 1
        if k < len(by_seed.get(run["seed"], [])):
            pairs.append((by_seed[run["seed"]][k], run))
    out = {}
    for name, better in metrics.items():
        sign = 1.0 if better == "higher" else -1.0
        diffs = [sign * (c["metrics"][name] - b["metrics"][name]) for b, c in pairs]
        out[name] = {"pairs": len(diffs), "wins": sum(d > 0 for d in diffs),
                     "ties": sum(d == 0 for d in diffs)}
    return out


def summarize(checkouts: dict[str, Path]) -> dict:
    metrics = {m["name"]: m["better"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    runs = [run for label, root in checkouts.items() for run in read_runs(label, root)]
    summary: dict = {}
    for run in runs:
        summary.setdefault(run["workload"], {}).setdefault(run["checkout"], []).append(run)
    doc = {
        "checkouts": {
            label: {
                "src_sha256": source_digest(root / "src" / "ba137qudit"),
                "bytecode_compiled": all(
                    bytecode_matches(p) for p in (root / "src" / "ba137qudit").glob("*.py")),
            }
            for label, root in checkouts.items()
        },
        "summary": {
            workload: {
                label: {name: quartiles([r["metrics"][name] for r in group]) for name in metrics}
                for label, group in by_label.items()
            }
            for workload, by_label in sorted(summary.items())
        },
        "runs": runs,
    }
    if len(checkouts) == 2:
        base, change = checkouts
        doc["pairs"] = {
            workload: pair_wins(by_label.get(base, []), by_label.get(change, []), metrics)
            for workload, by_label in sorted(summary.items())
        }
    return doc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("checkouts", nargs="+", metavar="[LABEL=]PATH")
    args = p.parse_args(argv)
    checkouts = {}
    for arg in args.checkouts:
        label, _, path = arg.rpartition("=")
        root = Path(path).resolve()
        checkouts[label or root.name] = root
    doc = summarize(checkouts)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, by_label in doc["summary"].items():
        for label, stats in by_label.items():
            p50 = stats["op_p50_s"]
            print(f"{workload:14s} {label:10s} runs {p50['runs']:3d}  op_p50_s median "
                  f"{p50['median']:.6g} [q1 {p50['q1']:.6g}, q3 {p50['q3']:.6g}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
