"""Bundled reference tables from the 13-level SPAM experiment, and the
package's file layer: one reader and one writer for each of CSV and JSON.

The package ships six CSV fixtures used for regression comparisons:

table_e1.csv  relative transition strengths at 8.35 G, phi=45, gamma=58
table_e2.csv  post-selected 13x13 confusion matrix (1000 shots/state)
table_e3.csv  raw 13x14 confusion matrix including the Null column
table_s1.csv  raw confusion matrix under the strict-single-bright reading
table_s2.csv  post-selected version of table_s1
table_e5.csv  per-transition parameters: SPAM error, field sensitivity
              kappa (MHz/G), pi time (us), single-transition error

Values are as printed (3-4 decimals), so confusion rows can be off
row-stochasticity by up to ~0.002.  An alternative fixtures directory can
be supplied to every loader, which the command line exposes as
--fixtures-dir.  Every table the package reads goes through ``_read_csv``,
as UTF-8 with or without a byte-order mark: no data rows, a row whose width
differs from its header's, a missing column, or a cell that is not a finite
number where one is expected raises TableError naming the file and the line
or column, as does a confusion table whose rows are not prepared 0..d-1 in
order (``_read_confusion`` also checks outcome columns, row sums and cells),
a strength table whose row or column labels are not the state keys
``transitions.strength_table`` writes, in its order, or a table_e5 that
repeats a qudit index or holds a probability outside [0, 1] or a pi time
that is not positive.  Every table the package writes
goes through ``_write_csv``, and every JSON file through ``_read_json`` (UTF-8
with or without a byte-order mark; it names the key at fault and rejects a key
repeated within an object; ``_json`` checks each value) and ``_write_json``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np

__all__ = [
    "fixture_path",
    "load_strength_fixture",
    "load_confusion_fixture",
    "load_transition_params",
    "TransitionParams",
    "TableError",
]


def fixture_path(name: str, fixtures_dir=None) -> Path:
    if fixtures_dir is not None:
        return Path(fixtures_dir) / name
    return Path(resources.files("ba137qudit") / "fixtures" / name)


class TableError(ValueError):
    """A CSV table has no header or data rows, a row whose width differs
    from its header's, or lacks a column or a cell its reader can parse;
    or a JSON input file is not the document its reader expects."""


class _Row(dict):
    """One data row: cell text by column name, in header order; its ``line``."""

    def __missing__(self, column):
        raise TableError(f"no column {column!r}; the header has {','.join(self)}")


def _number(cell: str) -> float:
    """A table cell as a finite float."""
    x = float(cell)
    if not math.isfinite(x):
        raise ValueError(f"{cell!r} is not a finite number")
    return x


def _read_csv(path, parse) -> tuple[list[str], list]:
    """(header, parsed data rows) of a CSV table whose rows all have the
    header's width; ``parse`` turns one ``_Row`` into a value, and a
    ValueError it raises becomes a TableError naming the line."""
    try:
        # utf-8-sig: a spreadsheet export's byte-order mark is not header text
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise TableError(f"{path}: no header row")
            if len(set(header)) != len(header):
                raise TableError(f"{path}: repeated column names in the header")
            rows = []
            for row in reader:
                if len(row) != len(header):
                    raise TableError(
                        f"{path}, line {reader.line_num}: {len(row)} fields, "
                        f"the header has {len(header)}"
                    )
                cells = _Row(zip(header, row))
                cells.line = reader.line_num
                try:
                    rows.append(parse(cells))
                except TableError as exc:  # a column the header lacks
                    raise TableError(f"{path}: {exc}") from None
                except ValueError as exc:
                    raise TableError(f"{path}, line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise TableError(f"{path}: {exc}") from None
    if not rows:
        raise TableError(f"{path}: no data rows")
    return header, rows


def _write_csv(path, header, rows) -> None:
    """A header row, then the rows, of cells the caller has formatted."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# what a message calls each kind of JSON value the package reads
_NUMBER = (int, float)
_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               _NUMBER: "a number", _NUMBER + (str,): "a number or a string"}


def _json(x, kind):
    """x, if it is a JSON value of the given kind (true and false are not numbers)."""
    if isinstance(x, bool) or not isinstance(x, kind):
        raise TypeError(f"expected {_JSON_KINDS[kind]}, got {x!r}")
    return x


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a key given twice is an error, not a silent
    choice of its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} is given more than once")
        doc[key] = value
    return doc


def _read_json(path, read):
    """``read(doc, where)`` of the JSON object in a file.  ``read`` keeps
    ``where.key`` on the key it is reading, and a KeyError, TypeError,
    ValueError or OverflowError it raises becomes a TableError naming the
    file and that key; a file that does not parse as an object fails at
    key ``document``."""
    where = SimpleNamespace(key="document")
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a byte-order mark is not JSON
        doc = json.loads(text, object_pairs_hook=_unique_keys)
        return read(_json(doc, dict), where)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        why = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise TableError(f"{path}: {where.key}: {why}") from None


def _write_json(path, doc) -> None:
    """JSON with sorted keys, a two-space indent and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _labeled_numbers(row: _Row) -> tuple[str, list[float]]:
    """(label, values) of a row whose cells after the first are numbers."""
    label, *values = row.values()
    return label, [_number(x) for x in values]


def _check_labels(path, what: str, got: list[str], lines: list[int], want: list[str]) -> None:
    """Reject labels that are not ``want`` in order, naming the file, the
    line (``lines[k]`` for the k-th label, and one more for a missing last
    one) and the label; a table is never reordered."""
    if got == want:
        return
    k = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    found = f"{what} {got[k]!r}" if k < len(got) else f"no {what}"
    belongs = f"{want[k]} belongs" if k < len(want) else "none belongs"
    raise TableError(f"{path}, line {lines[k]}: {found} where {belongs}; the {what}s must be "
                     f"the keys strength_table writes, {want[0]} to {want[-1]}, in its order")


def load_strength_fixture(fixtures_dir=None):
    """(d_keys, s_keys, values) of the reference strength table, whose row
    and column labels must be the state keys ``transitions.strength_table``
    writes, in its order."""
    from .transitions import _strength_keys  # transitions reads this module

    path = fixture_path("table_e1.csv", fixtures_dir)
    header, rows = _read_csv(path, lambda r: (*_labeled_numbers(r), r.line))
    d_want, s_want = _strength_keys()
    _check_labels(path, "column", header[1:], [1] * len(header), s_want)
    d_keys, lines = [label for label, _, _ in rows], [line for _, _, line in rows]
    _check_labels(path, "row", d_keys, lines + [lines[-1] + 1], d_want)
    values = np.array([v for _, v, _ in rows])
    return d_keys, header[1:], values


def _confusion_row(row: _Row) -> tuple[str, list[float], int]:
    label, probs = _labeled_numbers(row)
    for column, p in zip(list(row)[1:], probs):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"column {column}: {p!r} is not a probability in [0, 1]")
    dev = abs(sum(probs) - 1.0)
    # printed precision can miss row-stochasticity by a couple of counts
    if dev > 2.5e-3:
        raise ValueError(f"row deviates from unit sum by {dev:g} (> 0.0025)")
    return label, probs, row.line


def _read_confusion(path) -> tuple[list[str], list[str], np.ndarray, bool]:
    """(prepared labels, outcome labels, probability matrix, has_null) of a
    confusion table: header prepared,0,1,...,d-1 and an optional Null
    column, rows prepared 0..d-1 in order, and every row summing to 1 within
    the printed precision."""
    header, rows = _read_csv(path, _confusion_row)
    outcomes = [str(i) for i in range(len(rows))]
    if header[1:] not in (outcomes, outcomes + ["Null"]):
        raise TableError(
            f"{path}: outcome columns {','.join(header[1:])}; {len(rows)} rows need "
            f"0..{len(rows) - 1} and an optional Null"
        )
    for want, (label, _, line) in zip(outcomes, rows):
        if label != want:
            raise TableError(f"{path}, line {line}: prepared {label!r} where {want} belongs; "
                             f"rows are prepared 0..{len(rows) - 1} in order")
    probs = np.array([p for _, p, _ in rows])
    return outcomes, header[1:], probs, header[-1] == "Null"


def load_confusion_fixture(name: str, fixtures_dir=None):
    """(prepared labels, outcome labels, probability matrix, has_null) of a
    bundled confusion table, read and checked by ``_read_confusion``."""
    if not name.endswith(".csv"):
        name = f"table_{name}.csv"
    return _read_confusion(fixture_path(name, fixtures_dir))


def _parse(r: _Row, column: str, ok=None, what: str = ""):
    """A cell as None for NA, else a finite number; ``ok`` tests its range,
    which ``what`` names."""
    if r[column] == "NA":
        return None
    x = _number(r[column])
    if ok is not None and not ok(x):
        raise ValueError(f"column {column}: {x!r} is not {what}")
    return x


def _probability(x: float) -> bool:
    return 0.0 <= x <= 1.0


@dataclass(frozen=True)
class TransitionParams:
    """One row of the per-transition parameter table."""

    index: int | None  # qudit index, None for the two unencoded entries
    atomic_state: str  # e.g. "D:F4:m4"
    spam_error: float | None
    kappa: float | None  # MHz/G
    tau_pi_us: float | None
    single_transition_error: float | None


def _transition_params(r: _Row) -> TransitionParams:
    return TransitionParams(
        index=None if r["state"] == "NA" else int(r["state"]),
        atomic_state=r["atomic_state"],
        spam_error=_parse(r, "spam_error", _probability, "a probability in [0, 1]"),
        kappa=_parse(r, "kappa_MHz_per_G"),
        tau_pi_us=_parse(r, "tau_pi_us", lambda x: x > 0, "a positive pi time"),
        single_transition_error=_parse(r, "single_transition_error", _probability,
                                       "a probability in [0, 1]"),
    )


def load_transition_params(fixtures_dir=None) -> list[TransitionParams]:
    path = fixture_path("table_e5.csv", fixtures_dir)
    _, rows = _read_csv(path, lambda r: (_transition_params(r), r.line))
    seen = set()
    for row, line in rows:
        if row.index in seen:
            raise TableError(f"{path}, line {line}: state {row.index} is on an earlier row too")
        if row.index is not None:
            seen.add(row.index)
    return [row for row, _ in rows]
