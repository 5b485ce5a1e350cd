"""Benchmark of the ba137qudit toolkit: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli-cold|calib-session|spam-sweep \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``./src``.
Inputs are generated from the seed in a separate process (gen.py) and
handed over as plain data.  Every op is timed by a closed loop of one
client, and its outputs are checked.  With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics
from spans recorded around the library's public functions, and the
tracing overhead.  The report names every metric with its unit; the last
line of standard output is the JSON result.  A run record (machine,
versions, seeds, thread settings, every op) is written under
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cli_checks  # noqa: E402
from tracing import SPAN_NAMES, layer_stats, read_spans  # noqa: E402

WORKLOADS = ("cli-cold", "calib-session", "spam-sweep")
# a second seed, never used while writing a change, for confirming its claim
HOLDOUT_SEED = 7919
SETUPS = 3  # workload processes per untraced run; setup_s is their median
BLAS_THREADS = "1"  # one client on a small machine: no BLAS/OpenMP fan-out
# lower bounds on op latency, used only to generate enough inputs for a run
# (a faster program ends its run early, with fewer ops)
MIN_OP_S = {"cli-cold": 0.05, "calib-session": 0.1, "spam-sweep": 0.01}
CHILD_TIMEOUT_S = 170.0
CLI_COMMANDS = ("levels", "eigenstates", "strengths", "spam", "fit", "estimate-b",
                "calibrate-demo", "budget")
FLOOR_RUNS = 5
PROBE_RUNS = 3
# op_tail_s of each workload is read at a fixed percentile: the highest
# multiple of 5 that left at least ten ops beyond it in every run at the
# commit that defined the benchmark.  A level that followed each run's op
# count would jump between strata of the op mix as the machine's speed
# moves the count.
TAIL_PERCENTILE = {"cli-cold": 20, "calib-session": 80, "spam-sweep": 80}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {"import.ba137qudit_s": "s", "import.python_floor_s": "s"}
    units.update({f"cli.{c}.p50_s": "s" for c in CLI_COMMANDS})
    units["angmom.cg_table.cold_s"] = "s"
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s",
                      f"{name}.self_s": "s", f"{name}.p50_s": "s"})
    units["spam.run_experiment.shots"] = "count"
    units.update({"trace.untraced_ops_per_s": "1/s", "trace.traced_ops_per_s": "1/s",
                  "trace.overhead_ops_per_s": "1/s"})
    return units


def run_child(cmd, env, cwd, stdout_path, stderr_path) -> tuple[int, int]:
    """(exit code, peak RSS in KiB) of a child, read back with wait4."""
    with open(stdout_path, "w") as out, open(stderr_path, "w") as err:
        proc = subprocess.Popen([str(c) for c in cmd], env=env, cwd=cwd, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Phase:
    """Ops and set-ups measured under one tracing setting."""

    def __init__(self):
        self.ops: list[list] = []  # [op index, latency s, ok, message]
        self.setups: list[float] = []
        self.span_files: list[str] = []
        self.max_rss_kb = 0  # largest workload child

    @property
    def busy_s(self) -> float:
        return sum(op[1] for op in self.ops)

    @property
    def n_ok(self) -> int:
        return sum(1 for op in self.ops if op[2])

    def ops_per_s(self) -> float:
        """Ops completed without failure per second of op time."""
        return self.n_ok / self.busy_s


class Run:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.dir = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        self.dir.mkdir(parents=True)
        self.env = child_env(root)
        self.n_children = 0
        self.warmup_problems: list[str] = []

    def child(self, cmd, phase: Phase | None = None) -> tuple[int, str, str]:
        """Run ``python3 <cmd>`` to completion; a workload child's peak RSS
        counts towards its phase."""
        self.n_children += 1
        out = self.dir / f"child-{self.n_children}.out"
        err = self.dir / f"child-{self.n_children}.err"
        rc, rss_kb = run_child([sys.executable] + cmd, self.env, self.root, out, err)
        if phase is not None:
            phase.max_rss_kb = max(phase.max_rss_kb, rss_kb)
        stdout, stderr = out.read_text(), err.read_text()
        out.unlink()
        err.unlink()
        return rc, stdout, stderr

    def generate(self) -> None:
        count = int(self.args.seconds / MIN_OP_S[self.args.workload]) + 16
        self.inputs = self.dir / "inputs.json"
        rc, _, err = self.child([HERE / "gen.py", self.args.workload, self.args.seed, count, self.inputs])
        if rc != 0:
            raise SystemExit(f"input generation failed:\n{err}")
        with open(self.inputs) as fh:
            self.versions = json.load(fh)["versions"]

    def phase(self, seconds: float, traced: bool, setups: int) -> Phase:
        if self.args.workload == "cli-cold":
            return self.cli_phase(seconds, traced)
        return self.worker_phase(seconds, traced, setups)

    def worker_phase(self, seconds: float, traced: bool, setups: int) -> Phase:
        ph = Phase()
        start = 0  # every phase replays the same op stream
        for k in range(setups):
            out = self.dir / f"worker-{int(traced)}-{k}.json"
            cmd = [HERE / "worker.py", self.args.workload, self.inputs, start,
                   seconds / setups, int(traced), out]
            if self.args.fault:
                cmd.append(self.args.fault)
            t0 = time.perf_counter()
            rc, _, err = self.child(cmd, ph)
            if rc != 0:
                raise SystemExit(f"workload process failed:\n{err}")
            with open(out) as fh:
                doc = json.load(fh)
            ph.setups.append(doc["t_ready"] - t0)
            self.warmup_problems += doc["warmup_problems"]
            ph.ops += doc["ops"]
            start = doc["next"]
            if traced:
                ph.span_files.append(doc["spans"])
        return ph

    def cli_phase(self, seconds: float, traced: bool) -> Phase:
        """Commands until their summed latency reaches ``seconds``, and at
        least one whole block of the mix, so every command is traced."""
        ph = Phase()
        with open(self.inputs) as fh:
            block = json.load(fh)["block"]
        with open(str(self.inputs) + ".ops") as fh:
            ops = json.load(fh)
        work = self.dir / "work"
        i = 0
        while (ph.busy_s < seconds or i < block) and i < len(ops):
            op = ops[i]
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            for name, text in op.get("files", {}).items():
                (work / name).write_text(text)
            timing = self.dir / f"cli-{int(traced)}-{i}.json"
            argv = [a.format(work=work) for a in op["argv"]] + ["--out", str(work)]
            command = next(a for a in op["argv"] if a in CLI_COMMANDS)
            cmd = [HERE / "cli_child.py", timing, int(traced), self.args.fault or "-", command, "--"] + argv
            t0 = time.perf_counter()
            rc, stdout, stderr = self.child(cmd, ph)
            latency = time.perf_counter() - t0
            problems = cli_checks.check(op, rc, stdout, stderr, work)
            ph.ops.append([i, latency, not problems, "; ".join(problems)])
            if timing.exists():
                with open(timing) as fh:
                    stamps = json.load(fh)
                ph.setups.append(stamps["import"][1] - stamps["import"][0])
                timing.unlink()
            if traced and Path(f"{timing}.spans").exists():
                ph.span_files.append(f"{timing}.spans")
            i += 1
        shutil.rmtree(work, ignore_errors=True)
        return ph

    def python_floor(self) -> float:
        times = []
        for _ in range(FLOOR_RUNS):
            t0 = time.perf_counter()
            self.child(["-c", "pass"])
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def cg_table_cold(self) -> float:
        times = []
        for _ in range(PROBE_RUNS):
            rc, stdout, err = self.child([HERE / "probe.py"])
            if rc != 0:
                raise SystemExit(f"probe failed:\n{err}")
            times.append(json.loads(stdout)["cg_table_s"])
        return statistics.median(times)


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """(value, ops beyond it) at a percentile, by nearest rank."""
    xs = sorted(latencies)
    k = max(math.ceil(percentile / 100.0 * len(xs)) - 1, 0)
    return xs[k], len(xs) - 1 - k


def end_to_end(ph: Phase, workload: str) -> tuple[dict[str, float], dict]:
    lat = [op[1] for op in ph.ops]  # a failed op still kept its caller waiting
    pct = TAIL_PERCENTILE[workload]
    value, beyond = tail(lat, pct)
    rss_kb = max(ph.max_rss_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    metrics = {
        "setup_s": statistics.median(ph.setups),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": value,
        "ops_per_s": ph.ops_per_s(),
        "success_ratio": ph.n_ok / len(ph.ops),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {"op_tail_percentile": pct, "ops_beyond_tail": beyond, "ops": len(ph.ops), "setups": ph.setups,
             "fail_ratio": 1.0 - metrics["success_ratio"], "measured_s": ph.busy_s}
    return metrics, notes


def per_layer(run: Run, plain: Phase, traced: Phase) -> tuple[dict[str, float], dict]:
    spans, counts = read_spans(traced.span_files)
    stats = layer_stats(spans)
    metrics = {}
    imports = [s[4] - s[3] for s in spans if s[2] == "import.ba137qudit"]
    metrics["import.ba137qudit_s"] = statistics.median(imports)
    metrics["import.python_floor_s"] = run.python_floor()
    for c in CLI_COMMANDS:
        metrics[f"cli.{c}.p50_s"] = stats.get(f"cli.{c}", {}).get("p50_s", 0.0)
    metrics["angmom.cg_table.cold_s"] = run.cg_table_cold()
    for name in SPAN_NAMES:
        st = stats.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "p50_s": 0.0})
        for key in ("calls", "busy_s", "self_s", "p50_s"):
            metrics[f"{name}.{key}"] = st[key]
    metrics["spam.run_experiment.shots"] = counts.get("spam.run_experiment.shots", 0)
    metrics["trace.untraced_ops_per_s"] = plain.ops_per_s()
    metrics["trace.traced_ops_per_s"] = traced.ops_per_s()
    metrics["trace.overhead_ops_per_s"] = plain.ops_per_s() - traced.ops_per_s()
    notes = {"spans": len(spans), "ops": len(plain.ops) + len(traced.ops),
             "span_files": [str(p) for p in traced.span_files]}
    return metrics, notes


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured op time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fault", default=None, help=argparse.SUPPRESS)  # self-test only
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "ba137qudit" / "__init__.py").is_file():
        print("perfbench: ./src/ba137qudit not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    run = Run(args, root)
    run.generate()
    if args.trace:
        plain = run.phase(args.seconds / 2, traced=False, setups=1)
        traced = run.phase(args.seconds / 2, traced=True, setups=1)
        metrics, notes = per_layer(run, plain, traced)
        units = per_layer_units()
        phases = [plain, traced]
    else:
        ph = run.phase(args.seconds, traced=False, setups=SETUPS)
        metrics, notes = end_to_end(ph, args.workload)
        units = END_TO_END_UNITS
        phases = [ph]
    ops = [op for ph in phases for op in ph.ops]
    failed = [op for op in ops if not op[2]]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "versions": run.versions,
        "git_commit": git_commit(root),
        "threads": {v: BLAS_THREADS for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "notes": notes,
        "warmup_problems": run.warmup_problems,
        "ops": ops,
    }
    with open(run.dir / "record.json", "w") as fh:
        json.dump(record, fh, indent=1)
    (run.dir / "inputs.json").unlink()
    Path(f"{run.dir / 'inputs.json'}.ops").unlink()

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace} "
          f"({os.cpu_count()} cpus, python {run.versions['python']}, "
          f"numpy {run.versions['numpy']}, scipy {run.versions['scipy']})")
    for name, value in metrics.items():
        print(f"  {name:<40s} {value:>14.6g} {units[name]}")
    if not args.trace:
        print(f"  op_tail_s is the p{notes['op_tail_percentile']} of {notes['ops']} ops "
              f"({notes['ops_beyond_tail']} beyond it); fail_ratio {notes['fail_ratio']:.4g}")
    for problem in run.warmup_problems[:10]:
        print(f"  FAILED warm-up op: {problem}")
    for op in failed[:10]:
        print(f"  FAILED op {op[0]}: {op[3]}")
    print(f"  record: {run.dir / 'record.json'}")
    print(json.dumps({
        "correct": not failed and not run.warmup_problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
