"""Print the call times of the exact SPAM evaluator as one JSON object.

    python tools/evaluator_timing.py [--calls N]

For each encoding (``sub5``: paper13's first five states; ``paper13``;
``full25``) each row is the median wall time of ``N`` calls (default 300):

- ``p50_ms``: per readout mode, the outcome matrix with the forward-pass
  memo emptied before each call (a memo miss);
- ``memo_hit_p50_ms``: per readout mode, the same call repeated with the
  same encoding and error model, which the memo serves;
- ``compile_miss_p50_ms``: ``build_measurement_sequence`` with the plan
  cache emptied before each call;
- ``eps_lookup_p50_ns``: one lookup of a plan pulse's (6S state, 5D state)
  pair in ``ErrorParams.eps_pi``, from a loop of 1000 lookups per call.

The error model puts a pulse error on every plan pulse, read flips on both
levels and decay over a 1 ms gap before each check; one plan pulse leaks to
another.  Only the standard library and numpy are used besides the package.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ba137qudit import spam  # noqa: E402

LOOKUPS = 1000  # eps_pi lookups per timed call


def encodings() -> dict:
    paper13 = spam.paper13_encoding()
    return {
        "sub5": spam.QuditEncoding("sub5", paper13.states[:5]),
        "paper13": paper13,
        "full25": spam.twenty_five_level_encoding(),
    }


def error_model(encoding: spam.QuditEncoding) -> spam.ErrorParams:
    first, second = spam.build_measurement_sequence(encoding)._pulses[:2]
    return spam.ErrorParams.uniform(
        encoding, 0.02, prep_error=0.01, p_dark_given_s=0.01, p_bright_given_d=0.005,
        decay_rate=1.0 / 30.0, leak={first: (second, 0.01)},
    )


def p50_s(run, calls: int, before=None) -> float:
    """Median wall time of ``calls`` calls of ``run``, each after ``before``."""
    times = []
    for _ in range(calls):
        if before is not None:
            before()
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def memo_miss_p50_ms(encoding, errors, mode: str, calls: int) -> float:
    return 1e3 * p50_s(lambda: spam._outcome_matrix(encoding, errors, mode, 1e-3), calls,
                       spam._forward.cache_clear)


def memo_hit_p50_ms(encoding, errors, mode: str, calls: int) -> float:
    spam._outcome_matrix(encoding, errors, mode, 1e-3)
    return 1e3 * p50_s(lambda: spam._outcome_matrix(encoding, errors, mode, 1e-3), calls)


def compile_miss_p50_ms(encoding, calls: int) -> float:
    return 1e3 * p50_s(lambda: spam.build_measurement_sequence(encoding), calls,
                       spam._compile.cache_clear)


def eps_lookup_p50_ns(encoding, errors, calls: int) -> float:
    eps_pi, key = errors.eps_pi, spam.build_measurement_sequence(encoding)._pulses[0]

    def lookups():
        for _ in range(LOOKUPS):
            eps_pi[key]

    return 1e9 * p50_s(lookups, calls) / LOOKUPS


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=300, help="evaluations per case")
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be >= 1")
    rows = ("p50_ms", "memo_hit_p50_ms", "compile_miss_p50_ms", "eps_lookup_p50_ns")
    out = {"calls": args.calls, **{row: {} for row in rows}}
    for name, encoding in encodings().items():
        errors = error_model(encoding)
        out["p50_ms"][name] = {
            mode: memo_miss_p50_ms(encoding, errors, mode, args.calls) for mode in spam.MODES
        }
        out["memo_hit_p50_ms"][name] = {
            mode: memo_hit_p50_ms(encoding, errors, mode, args.calls) for mode in spam.MODES
        }
        out["compile_miss_p50_ms"][name] = compile_miss_p50_ms(encoding, args.calls)
        out["eps_lookup_p50_ns"][name] = eps_lookup_p50_ns(encoding, errors, args.calls)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
