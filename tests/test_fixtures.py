"""Table readers, for the bundled fixtures and for every table a command
reads: a table whose rows do not match its header's width, that lacks a
column, or whose cells are not finite numbers, fails with the file and the
line or column named, never with a numpy shape error, a bare float
conversion error or a silent nan."""

import re
import shutil

import numpy as np
import pytest

from ba137qudit.cli import main
from ba137qudit.fixtures import (
    TableError,
    fixture_path,
    load_confusion_fixture,
    load_strength_fixture,
    load_transition_params,
)
from ba137qudit.spam import load_reference_confusion, read_confusion_csv

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


@pytest.mark.parametrize("name", ["e2", "e3", "s1", "s2"])
def test_reference_confusion_is_the_checked_table(name):
    _, outcomes, probs, has_null = load_confusion_fixture(name)
    m = load_reference_confusion(name)
    assert np.array_equal(m.probs, probs) and m.has_null == has_null == (outcomes[-1] == "Null")
    assert m.shots.tolist() == [1000] * len(probs)


# malformed edits of table_e2.csv and what their error names besides the file
ROW_SUM = (lambda lines: lines[:3] + [lines[3].replace(",0,", ",0.5,", 1)] + lines[4:],
           "line 4: row deviates from unit sum")
HEADER = (lambda lines: [lines[0].replace(",1,", ",x,", 1)] + lines[1:], "outcome columns")
# a row that sums to 1 through a cell above 1 and one below 0
CELL = (lambda lines: lines[:3] + ["2,1.5,-0.5" + ",0" * 11] + lines[4:],
        r"line 4: column 0: 1.5 is not a probability in \[0, 1\]")


@pytest.mark.parametrize("edit, message, reader", [
    (*ROW_SUM, load_reference_confusion), (*HEADER, load_reference_confusion),
    (*ROW_SUM, load_confusion_fixture), (*HEADER, load_confusion_fixture),
    (*CELL, load_reference_confusion), (*CELL, load_confusion_fixture),
], ids=["row-sum", "header", "fixture-row-sum", "fixture-header", "cell", "fixture-cell"])
def test_reference_confusion_checks_bundled_table(tmp_path, edit, message, reader):
    d = tmp_path / "fixtures"
    shutil.copytree(fixture_path("table_e2.csv").parent, d)
    lines = (d / "table_e2.csv").read_text().splitlines()
    (d / "table_e2.csv").write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(TableError, match=f"table_e2.csv(, |: ){message}"):
        reader("e2", d)


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


def test_cli_confusion_rows_out_of_order_exit_2(tmp_path, capsys):
    # rows 0 and 1 swapped with their labels: read by position, the table
    # gave a raw error of 0.319 in place of the bundled 0.190
    lines = fixture_path("table_s1.csv").read_text().splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    (tmp_path / "table_s1.csv").write_text("".join(lines))
    rc = main(["--out", str(tmp_path / "out"), "spam", "--analyze", str(tmp_path / "table_s1.csv")])
    assert rc == 2
    assert "table_s1.csv, line 2: prepared '1' where 0 belongs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_repeated_state_index_exits_2(tmp_path, capsys):
    # row 1 also claiming index 2 made the preparation time 0.000 ms, not 0.037
    d = tmp_path / "fixtures"
    shutil.copytree(fixture_path("table_e5.csv").parent, d)
    lines = (d / "table_e5.csv").read_text().splitlines(keepends=True)
    lines[2] = "2" + lines[2].removeprefix("1")
    (d / "table_e5.csv").write_text("".join(lines))
    rc = main(["--out", str(tmp_path / "out"), "--fixtures-dir", str(d), "budget"])
    assert rc == 2
    assert "table_e5.csv, line 4: state 2 is on an earlier row too" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def swap_lines(a, b):
    def edit(lines):
        lines[a], lines[b] = lines[b], lines[a]
        return lines
    return edit


def swap_columns(a, b):
    def edit(lines):
        for k, line in enumerate(lines):
            cells = line.rstrip("\n").split(",")
            cells[a], cells[b] = cells[b], cells[a]
            lines[k] = ",".join(cells) + "\n"
        return lines
    return edit


# table_e1.csv edits the strength reader must reject, and what follows
# "table_e1.csv, line N: " in the error; read by position, swapped rows
# D:F1:m1 and D:F1:m0 gave a maximum deviation of 6.89e-2, not 4.98e-5
STRENGTH_FAULTS = {
    "swapped rows": (swap_lines(1, 2), "line 2: row 'D:F1:m0' where D:F1:m1 belongs"),
    "swapped columns": (swap_columns(1, 2), "line 1: column 'S:F1:m0' where S:F1:m-1 belongs"),
    "repeated row": (lambda lines: lines[:3] + lines[2:-1],
                     "line 4: row 'D:F1:m0' where D:F1:m-1 belongs"),
    "dropped row": (lambda lines: lines[:-1], "line 25: no row where D:F4:m-4 belongs"),
    "unknown label": (lambda lines: lines[:4] + ["D:F9:m0" + lines[4][lines[4].index(","):]]
                      + lines[5:], "line 5: row 'D:F9:m0' where D:F2:m2 belongs"),
}


@pytest.mark.parametrize("case", sorted(STRENGTH_FAULTS))
def test_cli_strength_labels_out_of_order_exit_2(tmp_path, capsys, case):
    edit, message = STRENGTH_FAULTS[case]
    d = tmp_path / "fixtures"
    shutil.copytree(fixture_path("table_e1.csv").parent, d)
    lines = (d / "table_e1.csv").read_text().splitlines(keepends=True)
    (d / "table_e1.csv").write_text("".join(edit(lines)))
    rc = main(["--out", str(tmp_path / "out"), "--fixtures-dir", str(d), "strengths"])
    assert rc == 2
    assert f"table_e1.csv, {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# table_e5.csv cells out of range: (command, file line 3 as edited, what
# follows "table_e5.csv, line 3: "); before the reader checked ranges they
# ended in exit 1 with no file named
RANGE_FAULTS = {
    "single_transition_error 1.5": (
        ["spam", "--errors", "table-e5", "--shots", "10"], "1,D:F4:m4,0.061,2.7992,37.2,1.5",
        r"column single_transition_error: 1.5 is not a probability in \[0, 1\]"),
    "tau_pi_us -37.2": (["budget"], "1,D:F4:m4,0.061,2.7992,-37.2,0.075",
                        "column tau_pi_us: -37.2 is not a positive pi time"),
    "tau_pi_us 0": (["budget"], "1,D:F4:m4,0.061,2.7992,0,0.075",
                    "column tau_pi_us: 0.0 is not a positive pi time"),
    "spam_error -0.1": (["budget"], "1,D:F4:m4,-0.1,2.7992,37.2,0.075",
                        r"column spam_error: -0.1 is not a probability in \[0, 1\]"),
}


@pytest.mark.parametrize("case", sorted(RANGE_FAULTS))
def test_cli_transition_params_out_of_range_exit_2(tmp_path, capsys, case):
    argv, row, message = RANGE_FAULTS[case]
    d = tmp_path / "fixtures"
    shutil.copytree(fixture_path("table_e5.csv").parent, d)
    lines = (d / "table_e5.csv").read_text().splitlines(keepends=True)
    assert lines[2] == "1,D:F4:m4,0.061,2.7992,37.2,0.075\n"
    lines[2] = row + "\n"
    (d / "table_e5.csv").write_text("".join(lines))
    rc = main(["--out", str(tmp_path / "out"), "--fixtures-dir", str(d), *argv])
    assert rc == 2
    assert re.search(rf"table_e5.csv, line 3: {message}", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def valid_tables():
    """command argv (input path last) -> (file name, CSV text) of a table
    that command reads without error."""
    from ba137qudit.calib import paper13_transition_refs, simulate_splittings, synthetic_snapshot
    from ba137qudit.noise import reference_scaling_points

    f = np.arange(-10.0, 11.0)
    p = 0.5 * 25.0 / ((f - 1.0) ** 2 + 25.0) + 0.02
    t = np.linspace(0.0, 200.0, 201)
    q = 0.95 * np.sin(np.pi * t / (2 * 40.0)) ** 2 + 0.02
    snaps = [synthetic_snapshot(b) for b in (8.3, 8.34, 8.37, 8.4)]
    trans = paper13_transition_refs()
    sims = simulate_splittings([trans[n] for n in (1, 3, 5, 10)], 8.35)

    def text(header, rows):
        return "\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]) + "\n"

    return {
        ("fit", "lorentzian"): ("scan.csv", text(
            ["freq_kHz", "p_dark", "shots"], [(a, b, 400) for a, b in zip(f, p)])),
        ("fit", "rabi"): ("rabi.csv", text(
            ["t_us", "p_transition", "shots"], [(a, b, 100) for a, b in zip(t, q)])),
        ("fit", "error-scaling"): ("points.csv", text(
            ["kappa_MHz_per_G", "tau_pi_us", "eps_spam"],
            [(k, tau * 1e6, e) for k, tau, e in reference_scaling_points()])),
        ("fit", "calibration"): ("history.csv", text(
            ["f_offset_MHz", "f_low_MHz", "f_up_MHz"] + [f"f{n}_MHz" for n in snaps[0].freqs],
            [[s.f_offset, s.f_low, s.f_up] + list(s.freqs.values()) for s in snaps])),
        ("estimate-b",): ("splittings.csv", text(
            ["transition", "freq_MHz"],
            [(f"S:F{g.F}:m{g.m}->D:F{e.F}:m{e.m}", v) for (g, e), v in sims.items()])),
        ("spam", "--analyze"): ("table_e2.csv", fixture_path("table_e2.csv").read_text()),
    }


COMMANDS = list(valid_tables())


def edited(text, case):
    """`text` with file line 3 cut short, made over-long, or given a nan
    second cell, or with the second header column renamed."""
    lines = text.splitlines()
    cells = lines[2].split(",")
    if case == "short row":
        lines[2] = ",".join(cells[:-1])
    elif case == "over-long row":
        lines[2] = ",".join(cells + ["0"])
    elif case == "nan cell":
        lines[2] = ",".join([cells[0], "nan"] + cells[2:])
    else:
        header = lines[0].split(",")
        lines[0] = ",".join([header[0], "x"] + header[2:])
    return "\n".join(lines) + "\n"


# what each edit's message must name besides the file
CASE_MESSAGE = {
    "short row": r"line 3: \d+ fields, the header has \d+",
    "over-long row": r"line 3: \d+ fields, the header has \d+",
    "nan cell": "line 3: 'nan' is not a finite number",
    "missing column": "column",
}


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_cli_reads_valid_table(tmp_path, command):
    name, text = valid_tables()[command]
    (tmp_path / name).write_text(text)
    assert main(["--out", str(tmp_path / "out"), *command, str(tmp_path / name)]) == 0


@pytest.mark.parametrize("case", sorted(CASE_MESSAGE))
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_cli_malformed_table_exits_2(tmp_path, capsys, command, case):
    name, text = valid_tables()[command]
    (tmp_path / name).write_text(edited(text, case))
    assert main(["--out", str(tmp_path / "out"), *command, str(tmp_path / name)]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / name) in err
    assert re.search(CASE_MESSAGE[case], err), err


# a valid scan or Rabi table with one column's values replaced: (command,
# column, values from file line 2 on, what the message must name)
BAD_TRACES = {
    "scan p_dark 1.5": (("fit", "lorentzian"), 1, [1.5] * 21, r"probabilities must be in \[0, 1\]"),
    "scan decreasing": (("fit", "lorentzian"), 0, range(21, 0, -1), "strictly increasing"),
    "rabi p 7": (("fit", "rabi"), 1, [7] * 201, r"probabilities must be in \[0, 1\]"),
    "rabi decreasing": (("fit", "rabi"), 0, range(201, 0, -1), "nonnegative and increasing"),
}


@pytest.mark.parametrize("case", sorted(BAD_TRACES))
def test_cli_bad_trace_values_exit_2(tmp_path, capsys, case):
    command, column, values, message = BAD_TRACES[case]
    name, text = valid_tables()[command]
    lines = text.splitlines()
    for i, value in enumerate(values, start=1):
        cells = lines[i].split(",")
        cells[column] = str(value)
        lines[i] = ",".join(cells)
    (tmp_path / name).write_text("\n".join(lines) + "\n")
    assert main(["--out", str(tmp_path / "out"), *command, str(tmp_path / name)]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / name}: " in err
    assert re.search(message, err), err


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_cli_missing_table_exits_2(tmp_path, capsys, command):
    assert main(["--out", str(tmp_path / "out"), *command, str(tmp_path / "absent.csv")]) == 2
    assert "absent.csv" in capsys.readouterr().err
