"""Run a fixed set of ``ba137qudit`` command lines and record what each did,
so that two checkouts can be compared file by file.

    python tools/cli_parity.py OUT.json [--seeds 1 2 3] [--limit N]
    diff a.json b.json          # OUT.json of two checkouts
    python tools/cli_parity.py --check RECORD.json

The commands run in-process through ``cli.main`` of the checkout this script
lives in, with the checkout root as working directory.  The set is a fixed
list (every ``--format``, ``--b-mark``, 6S1/2, a ``--config`` file and each
error path) followed by the ``cli-cold`` ops that ``perfbench/gen.py``
generates for each seed in ``--seeds`` (36 per seed; ``--seeds`` with no
value runs the fixed list alone).  ``--limit N`` keeps the first N cases.

Each case runs in a fresh temporary directory ``{work}``, with ``--out
{work}/out`` appended.  For each case OUT.json holds its argv, exit code,
stdout and stderr, with the temporary directory written ``{work}`` and the
checkout root ``{root}``, and the SHA-256 of every file in ``{work}/out``
(``null`` when the command made no such directory).  An exception that
escapes ``main`` is recorded as ``raised <type>`` in place of the exit code.
OUT.json also holds the ``--seeds`` and ``--limit`` it was written with, and
the numpy version and machine (``platform.machine()``) it ran on.

``--check RECORD.json`` runs the cases of a record again, with its seeds and
limit, and exits 1 when anything differs: it names each case whose exit
code, stdout, stderr or output file differs, and which of them, and a numpy
version or machine other than the record's, with both values.  A record is
written on one numpy and machine, as float output may differ in its last
digits on another; there the check fails rather than skips.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
CLI_COLD_OPS = 36  # three blocks of the cli-cold mix per seed

SCAN = "freq_kHz,p_dark,shots\n" + "".join(
    f"{f},{0.5 * 25.0 / ((f - 1.0) ** 2 + 25.0) + 0.02!r},400\n" for f in range(-10, 11))
SPLITTINGS = ("transition,freq_MHz\n"
              "S:F2:m2->D:F4:m4,100.0\nS:F2:m2->D:F4:m3,102.0\n")

# (name, argv, input files written into {work} first)
FIXED = [
    ("strengths-csv", ["--format", "csv", "strengths"], {}),
    ("strengths-json", ["--format", "json", "strengths", "--b", "4.2"], {}),
    ("strengths-both", ["strengths", "--format", "both", "--list-encodable"], {}),
    ("strengths-geometry", ["strengths", "--phi", "0", "--gamma", "0", "--threshold", "0.1",
                            "--list-encodable"], {}),
    ("spam-csv", ["--seed", "3", "spam", "--format", "csv", "--shots", "200"], {}),
    ("spam-json", ["--format", "json", "--seed", "3", "spam", "--shots", "200"], {}),
    ("spam-both", ["--seed", "4", "spam", "--format", "both", "--errors", "zero",
                   "--shots", "50", "--mode", "strict-single-bright"], {}),
    ("spam-shots-at-bound", ["spam", "--errors", "zero", "--shots", str(2**53)], {}),
    ("levels-6S12-b-mark", ["levels", "--level", "6S1/2", "--b", "0:3:0.5", "--b-mark", "8.35"],
     {}),
    ("levels-one-field", ["levels", "--b", "5:5"], {}),
    ("levels-overflow", ["levels", "--level", "6S1/2", "--b", "1e308:1e308"], {}),
    ("eigenstates-6S12", ["eigenstates", "--level", "6S1/2", "--f-tilde", "1", "--m-tilde", "0",
                          "--b", "0:2:0.5"], {}),
    ("config-spam", ["--config", "{work}/cfg.json", "spam", "--shots", "70"],
     {"cfg.json": '{"shots": 50, "seed": 3, "errors": "zero", "mode": "strict-single-bright"}'}),
    ("config-calibrate-demo", ["--config", "{work}/cfg.json", "calibrate-demo"],
     {"cfg.json": '{"seed": 1, "sessions": 3, "b_center": 8.0, "drift": 0.03}'}),
    ("config-eigenstates", ["--config", "{work}/cfg.json", "eigenstates", "--b", "0:1"],
     {"cfg.json": '{"f": 3, "m": "-2", "level": "5D5/2"}'}),
    ("budget-given", ["budget", "--optical-pump-ms", "0.5"], {}),
    # --format where no table has two formats
    ("format-levels", ["--format", "json", "levels", "--b", "0:1"], {}),
    ("format-eigenstates", ["--format", "csv", "eigenstates", "--f-tilde", "4", "--m-tilde", "1",
                            "--b", "0:1"], {}),
    ("format-fit", ["--format", "both", "fit", "lorentzian", "{work}/scan.csv"],
     {"scan.csv": SCAN}),
    ("format-estimate-b", ["estimate-b", "--format", "csv", "{work}/missing.csv"], {}),
    ("format-calibrate-demo", ["--format", "csv", "calibrate-demo", "--sessions", "3"], {}),
    ("format-budget", ["--format", "json", "budget"], {}),
    ("format-spam-analyze", ["--format", "csv", "spam", "--analyze",
                             "src/ba137qudit/fixtures/table_e3.csv"], {}),
    # error paths
    ("bad-flag", ["strengths", "--b", "nan"], {}),
    ("bad-b-range", ["levels", "--b", "0:1e9:1e-9"], {}),
    ("bad-choice", ["spam", "--mode", "majority"], {}),
    ("bad-level", ["levels", "--level", "7P1/2"], {}),
    ("bad-label", ["eigenstates", "--f-tilde", "4.3", "--m-tilde", "1"], {}),
    ("missing-label", ["eigenstates"], {}),
    ("unknown-state", ["eigenstates", "--f-tilde", "5", "--m-tilde", "0", "--b", "0:1:1"], {}),
    ("shots-zero", ["spam", "--shots", "0"], {}),
    ("shots-over-bound", ["spam", "--shots", str(2**63)], {}),
    ("sessions-one", ["calibrate-demo", "--sessions", "1"], {}),
    ("b-center-below-drift", ["calibrate-demo", "--b-center", "0", "--sessions", "3"], {}),
    ("calibrate-demo-fit-fails", ["--seed", "2", "calibrate-demo", "--b-center", "8",
                                  "--drift", "0.05", "--sessions", "3"], {}),
    ("config-unknown-key", ["--config", "{work}/cfg.json", "budget"], {"cfg.json": '{"x": 1}'}),
    ("config-wrong-kind", ["--config", "{work}/cfg.json", "spam"], {"cfg.json": '{"shots": 1.5}'}),
    ("config-repeated-key", ["--config", "{work}/cfg.json", "spam"],
     {"cfg.json": '{"shots": 5, "shots": 7}'}),
    ("config-missing", ["--config", "{work}/missing.json", "budget"], {}),
    ("fixtures-dir-empty", ["--fixtures-dir", "{work}", "strengths"], {}),
    ("errors-missing", ["spam", "--errors", "{work}/missing.json"], {}),
    ("errors-bad-value", ["spam", "--errors", "{work}/params.json"],
     {"params.json": '{"prep_error": 2}'}),
    ("errors-missing-pulse", ["spam", "--errors", "{work}/params.json"],
     {"params.json": '{"eps_pi": {"S:F2:m2->D:F4:m4": 0.01}}'}),
    ("analyze-bad-table", ["spam", "--analyze", "{work}/t.csv"],
     {"t.csv": "prepared,0,1\n0,0.5,0.6\n1,0.5,0.5\n"}),
    ("input-missing", ["fit", "rabi", "{work}/missing.csv"], {}),
    ("input-directory", ["estimate-b", "{work}"], {}),
    ("input-malformed", ["fit", "rabi", "{work}/bad.csv"], {"bad.csv": "a,b\n1,2\n"}),
    ("estimate-b-no-fit", ["estimate-b", "{work}/edge.csv"], {"edge.csv": SPLITTINGS}),
    ("estimate-b-repeated", ["estimate-b", "{work}/twice.csv"],
     {"twice.csv": SPLITTINGS + "S:F2:m2->D:F4:m4,101.0\n"}),
    ("fit-calibration-no-lines", ["fit", "calibration", "{work}/h.csv"],
     {"h.csv": "f_offset_MHz,f_low_MHz,f_up_MHz\n1,2,3\n"}),
]


def cli_cold_cases(seed: int) -> list:
    """The ops ``perfbench/gen.py`` generates for one ``cli-cold`` seed."""
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "gen.py"), "cli-cold",
                        str(seed), str(CLI_COLD_OPS), str(inputs)], cwd=ROOT, env=env, check=True)
        ops = json.loads(Path(f"{inputs}.ops").read_text())
    return [(f"cli-cold-{seed}-{i:02d}-{op['kind']}", op["argv"], op.get("files", {}))
            for i, op in enumerate(ops)]


def run_case(cli_main, argv, files) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, text in files.items():
            (work / name).write_text(text)
        full = [a.format(work=work) for a in argv] + ["--out", str(work / "out")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            warnings.simplefilter("always")  # as a fresh process shows them
            try:
                rc = cli_main(full)
            except SystemExit as exc:  # argparse refuses the command line
                rc = exc.code
            except Exception as exc:  # noqa: BLE001 - a traceback is a result here
                rc = f"raised {type(exc).__name__}"
                stderr.write(f"{exc}\n")
        out = work / "out"
        digests = None if not out.exists() else {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()
        }

        def mask(text):
            return text.replace(str(work), "{work}").replace(str(ROOT), "{root}")

        return {"argv": argv, "rc": rc, "stdout": mask(stdout.getvalue()),
                "stderr": mask(stderr.getvalue()), "files": digests}


def environment() -> dict:
    return {"machine": platform.machine(), "numpy": numpy.__version__}


def run_cases(seeds, limit) -> dict:
    """The record of the fixed cases and the ``cli-cold`` ops of ``seeds``,
    the first ``limit`` of them."""
    cases = FIXED + [case for seed in seeds for case in cli_cold_cases(seed)]
    os.chdir(ROOT)  # the cli-cold ops name the bundled tables relative to it
    sys.path.insert(0, str(ROOT / "src"))
    from ba137qudit.cli import main as cli_main

    return {"environment": environment(), "seeds": seeds, "limit": limit,
            "cases": {name: run_case(cli_main, argv, files) for name, argv, files in cases[:limit]}}


def differences(record: dict, run: dict) -> list:
    """One line per difference of ``run`` from ``record``."""
    lines = [f"environment: {key} {record['environment'][key]} in the record, {value} here"
             for key, value in run["environment"].items() if record["environment"][key] != value]
    want, got = record["cases"], run["cases"]
    lines += [f"{name}: in the record, not run" for name in want if name not in got]
    lines += [f"{name}: not in the record" for name in got if name not in want]
    for name in want.keys() & got.keys():
        lines += [f"{name}: {field} differs" for field in ("argv", "rc", "stdout", "stderr")
                  if want[name][field] != got[name][field]]
        files, new = want[name]["files"], got[name]["files"]
        if (files is None) != (new is None):
            lines.append(f"{name}: out directory {'made' if new is not None else 'not made'}")
        elif files is not None:
            lines += [f"{name}: file {f} {'differs' if f in new else 'not written'}"
                      for f in files if files[f] != new.get(f)]
            lines += [f"{name}: file {f} not in the record" for f in new if f not in files]
    return sorted(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("out", nargs="?", help="JSON file to write")
    target.add_argument("--check", metavar="RECORD", help="compare a run with this record")
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2, 3],
                        help="cli-cold seeds whose ops to add (default 1 2 3)")
    parser.add_argument("--limit", type=int, help="run only the first N cases")
    args = parser.parse_args(argv)

    if args.check:
        record = json.loads(Path(args.check).read_text())
        lines = differences(record, run_cases(record["seeds"], record["limit"]))
        for line in lines:
            print(line)
        n = len(record["cases"])
        print(f"cli_parity: {args.check}: " + (f"{len(lines)} differences" if lines
                                               else f"{n} cases match"))
        return 1 if lines else 0

    out = Path(args.out).resolve()
    results = run_cases(args.seeds, args.limit)
    with open(out, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"cli_parity: {len(results['cases'])} cases, wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
