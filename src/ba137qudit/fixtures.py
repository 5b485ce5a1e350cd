"""Access to the bundled reference tables from the 13-level SPAM experiment.

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
--fixtures-dir.  A table with no data rows, a row whose width differs
from its header's, or a cell that is not a number where one is expected
raises TableError naming the file and line.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

__all__ = [
    "fixture_path",
    "load_strength_fixture",
    "load_confusion_fixture",
    "load_transition_params",
    "TransitionParams",
    "TableError",
]

FIXTURE_NAMES = (
    "table_e1.csv",
    "table_e2.csv",
    "table_e3.csv",
    "table_s1.csv",
    "table_s2.csv",
    "table_e5.csv",
)


def fixture_path(name: str, fixtures_dir=None) -> Path:
    if fixtures_dir is not None:
        p = Path(fixtures_dir) / name
        if not p.exists():
            raise FileNotFoundError(p)
        return p
    return Path(resources.files("ba137qudit") / "fixtures" / name)


class TableError(ValueError):
    """A CSV table has no header or data rows, a row whose width differs
    from its header's, or a cell its reader cannot parse."""


def _read_csv(path: Path, parse) -> tuple[list[str], list]:
    """(header, parsed data rows) of a CSV table whose rows all have the
    header's width; ``parse`` turns one row of strings into a value, and a
    ValueError it raises becomes a TableError naming the line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise TableError(f"{path}: no header row")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise TableError(
                    f"{path}, line {reader.line_num}: {len(row)} fields, "
                    f"the header has {len(header)}"
                )
            try:
                rows.append(parse(row))
            except ValueError as exc:
                raise TableError(f"{path}, line {reader.line_num}: {exc}") from None
    if not rows:
        raise TableError(f"{path}: no data rows")
    return header, rows


def _labeled_numbers(row: list[str]) -> tuple[str, list[float]]:
    """(label, values) of a row whose cells after the first are numbers."""
    return row[0], [float(x) for x in row[1:]]


def load_strength_fixture(fixtures_dir=None):
    """(d_keys, s_keys, values) of the reference strength table."""
    header, rows = _read_csv(fixture_path("table_e1.csv", fixtures_dir), _labeled_numbers)
    d_keys = [label for label, _ in rows]
    values = np.array([v for _, v in rows])
    return d_keys, header[1:], values


def load_confusion_fixture(name: str, fixtures_dir=None):
    """(prepared labels, outcome labels, probability matrix, has_null)."""
    if not name.endswith(".csv"):
        name = f"table_{name}.csv"
    header, rows = _read_csv(fixture_path(name, fixtures_dir), _labeled_numbers)
    outcomes = header[1:]
    has_null = outcomes[-1] == "Null"
    prepared = [label for label, _ in rows]
    probs = np.array([v for _, v in rows])
    return prepared, outcomes, probs, has_null


def _parse(cell: str):
    return None if cell == "NA" else float(cell)


@dataclass(frozen=True)
class TransitionParams:
    """One row of the per-transition parameter table."""

    index: int | None  # qudit index, None for the two unencoded entries
    atomic_state: str  # e.g. "D:F4:m4"
    spam_error: float | None
    kappa: float | None  # MHz/G
    tau_pi_us: float | None
    single_transition_error: float | None


def _transition_params(r: list[str]) -> TransitionParams:
    return TransitionParams(
        index=None if r[0] == "NA" else int(r[0]),
        atomic_state=r[1],
        spam_error=_parse(r[2]),
        kappa=_parse(r[3]),
        tau_pi_us=_parse(r[4]),
        single_transition_error=_parse(r[5]),
    )


def load_transition_params(fixtures_dir=None) -> list[TransitionParams]:
    _, rows = _read_csv(fixture_path("table_e5.csv", fixtures_dir), _transition_params)
    return rows
