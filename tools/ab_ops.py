"""Compare the op latency of two checkouts on one in-process benchmark
workload, op by op, and print the result as one JSON object.

    python tools/ab_ops.py OLD_ROOT NEW_ROOT --workload calib-session|spam-sweep \\
        --seed N --ops K

The inputs are generated once, by OLD_ROOT's ``perfbench/gen.py``.  Each
checkout then gets one long-lived child process, with ``PYTHONPATH`` set to
its ``src``, ``PYTHONHASHSEED=0`` and one BLAS/OpenMP thread, that builds
that checkout's ``perfbench/worker.py`` session and runs its warm-up op.
Both children run the same ops one at a time, in ABBA order (old first on
even ops, new first on odd ones), so a slow phase of a shared machine falls
on both sides alike.  An op fails on an exception or a failed output check.

The output holds, per side, the median and 80th-percentile op latency in
seconds and the number of failed ops, and ``ratio_p50``, the median over the
ops of new latency / old latency.  Nothing under either ``perfbench/`` is
written to.  Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

WORKLOADS = ("calib-session", "spam-sweep")


def serve(root: str, workload: str, inputs_path: str) -> int:
    """Child side: set up ``root``'s session, then answer each op index read
    from stdin with one JSON line [latency s, failure message or ""]."""
    import time
    import traceback

    sys.path.insert(0, str(Path(root) / "perfbench"))
    import worker

    with open(inputs_path) as fh:
        inputs = json.load(fh)
    with open(inputs_path + ".ops") as fh:
        ops = json.load(fh)
    session = worker.SESSIONS[workload](inputs)
    problems = session.check(inputs["warmup"], session.run(inputs["warmup"]))
    print(json.dumps("; ".join(problems)), flush=True)
    for line in sys.stdin:
        s = ops[int(line)]
        t0 = time.perf_counter()
        try:
            out = session.run(s)
        except Exception as exc:  # a failed op, not a crash
            out, message = None, "".join(traceback.format_exception_only(exc)).strip()
        latency = time.perf_counter() - t0
        if out is not None:
            message = "; ".join(session.check(s, out))
        print(json.dumps([latency, message]), flush=True)
    return 0


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def side(latencies: list[float], failed: int) -> dict:
    return {"p50_s": float(np.median(latencies)), "p80_s": float(np.percentile(latencies, 80)),
            "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=200, help="ops each side runs")
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be >= 1")
    roots = [args.old_root.resolve(), args.new_root.resolve()]
    with tempfile.TemporaryDirectory() as tmp:
        inputs = str(Path(tmp) / "inputs.json")
        subprocess.run([sys.executable, str(roots[0] / "perfbench" / "gen.py"), args.workload,
                        str(args.seed), str(args.ops), inputs],
                       env=child_env(roots[0]), cwd=roots[0], check=True)
        children = [
            subprocess.Popen(
                [sys.executable, __file__, "--serve", str(root), args.workload, inputs],
                env=child_env(root), cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True,
            )
            for root in roots
        ]
        try:
            warmup = [json.loads(child.stdout.readline()) for child in children]
            latency, failed = [[], []], [0, 0]
            for i in range(args.ops):
                for k in (0, 1) if i % 2 == 0 else (1, 0):
                    children[k].stdin.write(f"{i}\n")
                    children[k].stdin.flush()
                    seconds, message = json.loads(children[k].stdout.readline())
                    latency[k].append(seconds)
                    failed[k] += bool(message)
        finally:
            for child in children:
                child.stdin.close()
                child.wait()
    ratios = np.array(latency[1]) / np.array(latency[0])
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "ops": args.ops,
        "warmup_problems": warmup,
        "old": side(latency[0], failed[0]), "new": side(latency[1], failed[1]),
        "ratio_p50": float(np.median(ratios)),
    }))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--serve"]:
        sys.exit(serve(*sys.argv[2:5]))
    sys.exit(main())
