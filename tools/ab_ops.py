"""Compare the op latency of two checkouts on one benchmark workload, op by
op, and print the result as one JSON object.

    python tools/ab_ops.py OLD_ROOT NEW_ROOT --workload calib-session|spam-sweep|cli-cold \\
        --seed N --ops K

The inputs are generated once, by OLD_ROOT's ``perfbench/gen.py``.  Every
child runs with ``PYTHONPATH`` set to its checkout's ``src``,
``PYTHONHASHSEED=0`` and one BLAS/OpenMP thread, as in
``perfbench/run.py``.  Both checkouts run the same ops one at a time, in
ABBA order (old first on even ops, new first on odd ones), so a slow phase
of a shared machine falls on both sides alike.

- ``calib-session``, ``spam-sweep``: each checkout gets one long-lived child
  that builds that checkout's ``perfbench/worker.py`` session, runs its
  warm-up op, then times each op in process.  An op fails on an exception
  or a failed output check.
- ``cli-cold``: each op is one run of the checkout's
  ``perfbench/cli_child.py`` in a fresh interpreter, timed from start to
  exit; a long-lived child per checkout checks its outputs with that
  checkout's ``perfbench/cli_checks.check``.  The output adds
  ``ratio_p50_by_kind``, the median ratio per op kind, and the failed ops'
  messages.

The output holds, per side, the median and 80th-percentile op latency in
seconds and the number of failed ops, and ``ratio_p50``, the median over the
ops of new latency / old latency.  Nothing under either ``perfbench/`` is
written to.  Only the standard library and numpy are used.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

WORKLOADS = ("calib-session", "spam-sweep", "cli-cold")
CHILD_TIMEOUT_S = 170.0  # perfbench/run.py's bound on one child


def serve(root: str, workload: str, inputs_path: str) -> int:
    """Child side: set up ``root``'s session, then answer each op index read
    from stdin with one JSON line [latency s, failure message or ""]."""
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


def serve_checks(root: str, inputs_path: str) -> int:
    """Child side of ``cli-cold``, run from ``root``: answer each JSON line
    [op index, exit code, stdout, stderr, work dir] read from stdin with the
    failure message of ``root``'s output checks, "" when they pass."""
    sys.path.insert(0, str(Path(root) / "perfbench"))
    import cli_checks

    with open(inputs_path + ".ops") as fh:
        ops = json.load(fh)
    for line in sys.stdin:
        i, rc, stdout, stderr, work = json.loads(line)
        print(json.dumps("; ".join(cli_checks.check(ops[i], rc, stdout, stderr, Path(work)))),
              flush=True)
    return 0


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def side(latencies: list[float], failed: int) -> dict:
    return {"p50_s": float(np.median(latencies)), "p80_s": float(np.percentile(latencies, 80)),
            "failed": failed}


def abba(n_ops: int):
    """(op index, side) in the order the ops run: old first on even ops."""
    for i in range(n_ops):
        for k in (0, 1) if i % 2 == 0 else (1, 0):
            yield i, k


def ask(child: subprocess.Popen, line: str):
    child.stdin.write(line + "\n")
    child.stdin.flush()
    return json.loads(child.stdout.readline())


def spawn(args: list[str], root: Path) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, __file__, *args], env=child_env(root), cwd=root,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def in_process(roots, workload: str, inputs: str, n_ops: int):
    """(latencies, failure messages, warm-up problems) per side."""
    children = [spawn(["--serve", str(root), workload, inputs], root) for root in roots]
    try:
        warmup = [json.loads(child.stdout.readline()) for child in children]
        latency, messages = [[], []], [[], []]
        for i, k in abba(n_ops):
            seconds, message = ask(children[k], str(i))
            latency[k].append(seconds)
            messages[k].append(message)
    finally:
        for child in children:
            child.stdin.close()
            child.wait()
    return latency, messages, warmup


def cold_cli(roots, inputs: str, n_ops: int, tmp: Path):
    """(latencies, failure messages) per side, one fresh interpreter per op,
    set up as ``perfbench/run.py`` sets up a ``cli-cold`` op."""
    with open(inputs + ".ops") as fh:
        ops = json.load(fh)
    checkers = [spawn(["--check", str(root), inputs], root) for root in roots]
    work, timing = tmp / "work", tmp / "timing.json"
    try:
        latency, messages = [[], []], [[], []]
        for i, k in abba(n_ops):
            op = ops[i]
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            for name, text in op.get("files", {}).items():
                (work / name).write_text(text)
            argv = [a.format(work=work) for a in op["argv"]] + ["--out", str(work)]
            # the command name only names a traced span; these runs are untraced
            cmd = [sys.executable, str(roots[k] / "perfbench" / "cli_child.py"), str(timing),
                   "0", "-", op["kind"], "--", *argv]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=child_env(roots[k]), cwd=roots[k], capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            latency[k].append(time.perf_counter() - t0)
            timing.unlink(missing_ok=True)
            messages[k].append(ask(checkers[k], json.dumps(
                [i, proc.returncode, proc.stdout, proc.stderr, str(work)])))
    finally:
        for child in checkers:
            child.stdin.close()
            child.wait()
    return latency, messages, [op["kind"] for op in ops[:n_ops]]


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
    result = {"workload": args.workload, "seed": args.seed, "ops": args.ops}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = str(Path(tmp) / "inputs.json")
        subprocess.run([sys.executable, str(roots[0] / "perfbench" / "gen.py"), args.workload,
                        str(args.seed), str(args.ops), inputs],
                       env=child_env(roots[0]), cwd=roots[0], check=True)
        if args.workload == "cli-cold":
            latency, messages, kinds = cold_cli(roots, inputs, args.ops, Path(tmp))
        else:
            latency, messages, result["warmup_problems"] = in_process(
                roots, args.workload, inputs, args.ops)
    ratios = np.array(latency[1]) / np.array(latency[0])
    for k, name in enumerate(("old", "new")):
        result[name] = side(latency[k], sum(map(bool, messages[k])))
    result["ratio_p50"] = float(np.median(ratios))
    if args.workload == "cli-cold":
        result["ratio_p50_by_kind"] = {
            kind: float(np.median(ratios[[j for j, kj in enumerate(kinds) if kj == kind]]))
            for kind in dict.fromkeys(kinds)
        }
        result["failures"] = {name: [[i, m] for i, m in enumerate(messages[k]) if m]
                              for k, name in enumerate(("old", "new"))}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--serve"]:
        sys.exit(serve(*sys.argv[2:5]))
    if sys.argv[1:2] == ["--check"]:
        sys.exit(serve_checks(*sys.argv[2:4]))
    sys.exit(main())
