"""Print the memo-miss time of the exact SPAM evaluator as one JSON object.

    python tools/evaluator_timing.py [--calls N]

For each encoding (``sub5``: paper13's first five states; ``paper13``;
``full25``) and each readout mode, the outcome matrix is evaluated ``N``
times (default 300) with the forward-pass memo emptied before each call,
and the median wall time of the calls is printed in milliseconds.  The
error model puts a pulse error on every plan pulse, read flips on both
levels and decay over a 1 ms gap before each check; one plan pulse leaks
to another.  Only the standard library and numpy are used besides the
package.
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ba137qudit import spam  # noqa: E402


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


def memo_miss_p50_ms(encoding, errors, mode: str, calls: int) -> float:
    times = []
    for _ in range(calls):
        spam._forward.cache_clear()
        start = time.perf_counter()
        spam._outcome_matrix(encoding, errors, mode, 1e-3)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=300, help="evaluations per case")
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error("--calls must be >= 1")
    out = {"calls": args.calls, "p50_ms": {}}
    for name, encoding in encodings().items():
        errors = error_model(encoding)
        out["p50_ms"][name] = {
            mode: memo_miss_p50_ms(encoding, errors, mode, args.calls) for mode in spam.MODES
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
