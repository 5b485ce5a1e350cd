"""Spans recorded from outside the library, by interposition.

A traced process replaces each public function named in ``TRACED`` with a
wrapper that records a span (id, name, start, end, parent span, op id)
around the call.  Every module global of ``ba137qudit`` that is bound to the
original function object is rebound, so calls made from inside the library
(``calib.estimate_field`` calling ``atomstruct.diagonalize``) are seen too.
Nothing under ``src/`` changes, and an untraced process runs the library
unwrapped.

Spans are kept in memory and written out as JSON lines when the process
ends.  ``layer_stats`` (standard library only) turns span files into the
per-layer metrics: calls, busy time, self time and median call time.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# layer module -> public functions timed as "<layer>.<function>"
TRACED = {
    "fixtures": ("load_strength_fixture", "load_confusion_fixture", "load_transition_params"),
    "atomstruct": ("diagonalize", "diagonalize_range", "field_sensitivity"),
    "transitions": ("strength_table",),
    "calib": (
        "estimate_field",
        "fit_lorentzian",
        "fit_rabi_flop",
        "fit_calibration",
        "ratio_pi_calibration",
    ),
    "noise": ("chi_numeric", "fit_error_scaling"),
    "spam": ("run_experiment", "enumerate_outcomes", "post_select", "scaling_analysis"),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)


def _run_experiment_shots(args, kwargs):
    encoding = args[0]
    shots = args[2] if len(args) > 2 else kwargs["shots_per_state"]
    return encoding.d * int(shots)


# counters recorded at the same boundary as the span: name -> f(args, kwargs)
COUNTERS = {"spam.run_experiment": ("spam.run_experiment.shots", _run_experiment_shots)}


class Tracer:
    """In-memory span store for one process (single-threaded use)."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, op]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.op = -1  # -1 while setting up

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent, self.op])
        self._stack.append(sid)
        return sid

    def close(self, sid: int, end: float | None = None) -> None:
        self.spans[sid][3] = time.perf_counter() if end is None else end
        self._stack.pop()

    def add_span(self, name: str, start: float, end: float, parent: int | None) -> None:
        """Record a finished span measured elsewhere (e.g. in a child process;
        perf_counter is the system-wide monotonic clock on Linux)."""
        self.spans.append([len(self.spans), name, start, end, parent, self.op])

    def add_count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self.add_count(counter[0], counter[1](args, kwargs))
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")


def rebind(replacements: dict) -> None:
    """Rebind every ``ba137qudit`` module global whose value is a key of
    ``replacements`` (by id) to the replacement."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "ba137qudit" or name.startswith("ba137qudit.")):
            continue
        for attr, value in list(vars(module).items()):
            replacement = replacements.get(id(value))
            if replacement is not None:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Trace every function in ``TRACED`` (the package must be imported)."""
    replacements = {}
    for layer, fns in TRACED.items():
        module = sys.modules[f"ba137qudit.{layer}"]
        for fn in fns:
            original = getattr(module, fn)
            replacements[id(original)] = tracer.wrap(f"{layer}.{fn}", original)
    rebind(replacements)


def read_spans(paths):
    """(spans, counts) merged from span files; span ids stay per file."""
    spans, counts = [], {}
    for k, path in enumerate(paths):
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                if isinstance(rec, dict):
                    for name, n in rec["counts"].items():
                        counts[name] = counts.get(name, 0) + n
                else:
                    sid, name, start, end, parent, op = rec
                    spans.append((k, sid, name, start, end, parent, op))
    return spans, counts


def layer_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (sum of durations), self_s (durations
    minus the time their direct child spans cover) and p50_s."""
    child_time: dict[tuple, float] = {}
    for k, _, _, start, end, parent, _ in spans:
        if parent is not None:
            # spans of one process are strictly nested (one thread), so the
            # direct children of a span never overlap and their sum is the
            # time they cover
            child_time[(k, parent)] = child_time.get((k, parent), 0.0) + (end - start)
    durations: dict[str, list[float]] = {}
    self_time: dict[str, float] = {}
    for k, sid, name, start, end, _, _ in spans:
        durations.setdefault(name, []).append(end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time.get((k, sid), 0.0)
    return {
        name: {
            "calls": len(d),
            "busy_s": sum(d),
            "self_s": self_time[name],
            "p50_s": statistics.median(d),
        }
        for name, d in durations.items()
    }
