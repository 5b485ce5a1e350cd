"""Fixture loaders: a table whose rows do not match its header's width, or
whose cells are not numbers, fails with the file and line named, never with
a numpy shape error or a bare float conversion error."""

import re
import shutil

import pytest

from ba137qudit.cli import main
from ba137qudit.fixtures import (
    TableError,
    fixture_path,
    load_confusion_fixture,
    load_strength_fixture,
    load_transition_params,
)
from ba137qudit.spam import read_confusion_csv

LOADERS = {
    "table_e1.csv": load_strength_fixture,
    "table_e2.csv": lambda d: load_confusion_fixture("e2", d),
    "table_e5.csv": load_transition_params,
}


def ragged_fixtures(tmp_path, name, line=4, extra=False):
    """Copy of the bundled fixtures in which one data row of `name` (file
    line `line`) lost its last field, gained one if `extra` is True, or, if
    `extra` is a string, had its last field replaced by that string."""
    d = tmp_path / "fixtures"
    shutil.copytree(fixture_path(name).parent, d)
    lines = (d / name).read_text().splitlines(keepends=True)
    row = lines[line - 1].rstrip("\n")
    if isinstance(extra, str):
        row = row.rsplit(",", 1)[0] + "," + extra
    else:
        row = row + ",0" if extra else row.rsplit(",", 1)[0]
    lines[line - 1] = row + "\n"
    (d / name).write_text("".join(lines))
    return d


# what follows "<file>, line N: " in the error for each ragged_fixtures edit
EDIT_MESSAGE = {
    False: r"\d+ fields, the header has \d+",
    True: r"\d+ fields, the header has \d+",
    "x": "could not convert string to float: 'x'",
}


@pytest.mark.parametrize("name", sorted(LOADERS))
@pytest.mark.parametrize("extra", [False, True, "x"])
def test_ragged_row_names_file_and_line(tmp_path, name, extra):
    d = ragged_fixtures(tmp_path, name, extra=extra)
    # a ValueError, so callers that caught numpy's shape error still catch it
    with pytest.raises(ValueError, match=rf"{name}, line 4: {EDIT_MESSAGE[extra]}") as info:
        LOADERS[name](d)
    assert isinstance(info.value, TableError)


def test_read_confusion_csv_ragged_row(tmp_path):
    for extra in (False, "x"):
        d = ragged_fixtures(tmp_path / str(extra), "table_e2.csv", line=7, extra=extra)
        with pytest.raises(TableError, match=rf"table_e2.csv, line 7: {EDIT_MESSAGE[extra]}"):
            read_confusion_csv(d / "table_e2.csv")


@pytest.mark.parametrize("text, message", [
    ("", "no header row"),
    ("state,atomic_state,spam_error,kappa_MHz_per_G,tau_pi_us,single_transition_error\n",
     "no data rows"),
])
def test_empty_table(tmp_path, text, message):
    d = tmp_path / "fixtures"
    shutil.copytree(fixture_path("table_e5.csv").parent, d)
    (d / "table_e5.csv").write_text(text)
    with pytest.raises(TableError, match=message):
        load_transition_params(d)


@pytest.mark.parametrize("name, argv", [
    ("table_e1.csv", ["strengths"]),
    ("table_e5.csv", ["budget"]),
    ("table_e5.csv", ["spam", "--errors", "table-e5", "--shots", "10"]),
])
def test_cli_ragged_fixture_exits_2(tmp_path, capsys, name, argv):
    for extra in (False, "x"):
        d = ragged_fixtures(tmp_path / str(extra), name, extra=extra)
        rc = main(["--out", str(tmp_path / "out"), "--fixtures-dir", str(d)] + argv)
        assert rc == 2
        assert re.search(rf"{name}, line 4: {EDIT_MESSAGE[extra]}", capsys.readouterr().err)


def test_cli_ragged_confusion_table_exits_2(tmp_path, capsys):
    for extra in (False, "x"):
        d = ragged_fixtures(tmp_path / str(extra), "table_e2.csv", extra=extra)
        rc = main(["--out", str(tmp_path / "out"), "spam", "--analyze", str(d / "table_e2.csv")])
        assert rc == 2
        assert re.search(rf"table_e2.csv, line 4: {EDIT_MESSAGE[extra]}", capsys.readouterr().err)


def test_cli_header_only_confusion_table_exits_2(tmp_path, capsys):
    (tmp_path / "empty.csv").write_text("prepared,0,1\n")
    rc = main(["--out", str(tmp_path / "out"), "spam", "--analyze", str(tmp_path / "empty.csv")])
    assert rc == 2
    assert "empty.csv: no data rows" in capsys.readouterr().err
