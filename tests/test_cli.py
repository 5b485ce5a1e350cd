import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ba137qudit import spam
from ba137qudit.atomstruct import BA137_D52, BA137_S12, diagonalize, transition_frequency
from ba137qudit.cli import COMMANDS, PARAMS, CliError, _parse_b_range, main
from ba137qudit.fixtures import _read_csv, fixture_path
from ba137qudit.noise import (
    fit_error_scaling, load_scaling_points, reference_scaling_points, write_scaling_points,
)
from ba137qudit.spam import read_confusion_csv, scaling_analysis


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestLevels:
    def test_d52_scan_shape(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "levels", "--level", "5D5/2", "--b", "0:10:1"])
        assert rc == 0
        rows = read_csv(tmp_path / "levels_5D52.csv")
        assert rows[0] == ["B_gauss", "state_label", "frequency_MHz"]
        assert len(rows) == 1 + 11 * 24

    def test_marker_column(self, tmp_path):
        rc = main([
            "--out", str(tmp_path), "levels", "--level", "6S1/2",
            "--b", "0:2:1", "--b-mark", "8.35",
        ])
        assert rc == 0
        rows = read_csv(tmp_path / "levels_6S12.csv")
        assert rows[0][-1] == "b_mark_gauss"
        assert rows[1][-1] == "8.35"

    def test_degenerate_range_single_row_per_state(self, tmp_path):
        rc = main(["--out", str(tmp_path), "levels", "--level", "6S1/2", "--b", "5:5:1"])
        assert rc == 0
        rows = read_csv(tmp_path / "levels_6S12.csv")
        assert len(rows) == 1 + 8

    def test_bad_level(self, tmp_path):
        assert main(["--out", str(tmp_path), "levels", "--level", "7P1/2"]) == 2

    def test_field_beyond_float_range_exits_1_without_output(self, tmp_path, capsys):
        # B mu_B/h is finite at 1e308 G, but the eigenvalues of a block lie
        # too far apart to subtract, so no rank label can be trusted
        out = tmp_path / "out"
        assert main(["--out", str(out), "levels", "--level", "6S1/2", "--b", "1e308:1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: 6S1/2, m=-1: the eigenvalues at B = 1e+308 G are not "
                                "finite or too far apart\n")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("level", ["5D5/2", "6S1/2"])
    def test_values_row_by_row(self, tmp_path, level):
        # 5D5/2: line frequencies from |F=2, m=2> of 6S1/2; 6S1/2: energies
        assert main(["--out", str(tmp_path), "levels", "--level", level, "--b", "0:10:2.5"]) == 0
        rows = read_csv(tmp_path / f"levels_{level.replace('/', '')}.csv")[1:]
        want = []
        for B in (0.0, 2.5, 5.0, 7.5, 10.0):
            ground = diagonalize(BA137_S12, B).state(2, 2)
            for s in diagonalize({"6S1/2": BA137_S12, "5D5/2": BA137_D52}[level], B):
                value = s.energy if level == "6S1/2" else transition_frequency(ground, s)
                want.append([repr(B), f"F{s.F_tilde}_m{s.m_F_tilde}", repr(value)])
        assert rows == want


@pytest.mark.parametrize("argv", [
    ["strengths", "--b", "nan"],
    ["strengths", "--b", "inf"],
    ["strengths", "--b", "-1"],
    ["levels", "--b", "0:nan:1"],
    ["levels", "--b", "0:inf:1"],
    ["levels", "--b", "0:1:1", "--b-mark", "nan"],
    ["eigenstates", "--f-tilde", "4", "--m-tilde", "1", "--b", "inf:1:1"],
    ["calibrate-demo", "--b-center", "inf"],
    ["calibrate-demo", "--drift", "-1"],
    ["calibrate-demo", "--drift", "nan"],
    ["calibrate-demo", "--drift", "inf"],
    ["strengths", "--phi", "nan"],
    ["strengths", "--gamma", "inf"],
    ["strengths", "--threshold", "nan"],
])
def test_bad_field_flag_exits_2(tmp_path, capsys, argv):
    assert main(["--out", str(tmp_path)] + argv) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["levels"],
    ["eigenstates", "--f-tilde", "4", "--m-tilde", "1"],
])
def test_b_range_over_point_cap_exits_2(tmp_path, capsys, command):
    # the count is checked before any list is built, so this returns at once
    assert main(["--out", str(tmp_path), *command, "--b", "0:1e9:1e-9"]) == 2
    assert "more than 100001 points" in capsys.readouterr().err


def test_b_range_point_cap_edge():
    assert len(_parse_b_range("0:100000:1", "--b")) == 100_001
    for text in ("0:100001:1", "0:1:1e-320"):
        with pytest.raises(CliError, match="more than 100001 points"):
            _parse_b_range(text, "--b")


class TestEigenstates:
    def test_writes_scan(self, tmp_path):
        rc = main([
            "--out", str(tmp_path), "eigenstates", "--level", "5D5/2",
            "--f-tilde", "4", "--m-tilde", "1", "--b", "0:2:1",
        ])
        assert rc == 0
        rows = read_csv(tmp_path / "eigenstate_5D52_F4_m1.csv")
        assert rows[0] == ["B_gauss", "F", "m_F", "amplitude"]

    def test_unknown_state(self, tmp_path):
        rc = main([
            "--out", str(tmp_path), "eigenstates", "--level", "5D5/2",
            "--f-tilde", "5", "--m-tilde", "0", "--b", "0:1:1",
        ])
        assert rc != 0


class TestStrengths:
    def test_default_matches_reference(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "strengths"])
        assert rc == 0
        report = json.load(open(tmp_path / "strengths_report.json"))
        assert report["max_abs_deviation_vs_reference"] < 5e-5

    def test_encodable_listing(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "strengths", "--list-encodable"])
        assert rc == 0
        report = json.load(open(tmp_path / "strengths_report.json"))
        assert len(report["encodable_states"]) == 12
        assert report["encodable_states"][0] == "D:F4:m4"

    def test_axial_geometry_only_drives_delta_m_one(self, tmp_path):
        # at phi = 0, gamma = 0: g0 and g+-2 vanish, g+-1 = 1/sqrt6
        rc = main(["--out", str(tmp_path), "strengths", "--phi", "0", "--gamma", "0"])
        assert rc == 0
        rows = read_csv(tmp_path / "strengths.csv")
        header = rows[0]
        from ba137qudit.spam import parse_atomic_state

        for row in rows[1:]:
            d_state = parse_atomic_state(row[0])
            for col, cell in zip(header[1:], row[1:]):
                s_state = parse_atomic_state(col)
                dm = abs(float(d_state.m) - float(s_state.m))
                if float(cell) > 1e-12:
                    assert dm == 1.0

    def test_format_json_round_trip(self, tmp_path):
        rc = main(["--out", str(tmp_path), "--format", "both", "strengths"])
        assert rc == 0
        rows = read_csv(tmp_path / "strengths.csv")
        doc = json.load(open(tmp_path / "strengths.json"))
        by_pair = {
            (e["excited"]["F"], e["excited"]["m"], e["ground"]["F"], e["ground"]["m"]):
                e["strength"]
            for e in doc["entries"]
        }
        from ba137qudit.spam import parse_atomic_state

        header = rows[0]
        for row in rows[1:]:
            d = parse_atomic_state(row[0])
            for col, cell in zip(header[1:], row[1:]):
                s = parse_atomic_state(col)
                key = (str(d.F), str(d.m), str(s.F), str(s.m))
                assert float(cell) == pytest.approx(by_pair[key], abs=1e-12)


class TestSpam:
    def test_zero_errors_identity(self, tmp_path):
        rc = main([
            "--out", str(tmp_path), "spam", "--errors", "zero",
            "--shots", "100", "--seed", "1",
        ])
        assert rc == 0
        rows = read_csv(tmp_path / "spam_raw.csv")
        body = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
        assert np.array_equal(body[:, :-1], np.eye(13))

    def test_analyze_reference_raw(self, tmp_path, capsys):
        rc = main([
            "--out", str(tmp_path), "spam",
            "--analyze", str(fixture_path("table_e3.csv")),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.131" in out

    def test_reference_errors_near_measured_average(self, tmp_path, capsys):
        rc = main([
            "--out", str(tmp_path), "spam", "--errors", "table-e5",
            "--shots", "20000", "--seed", "7",
        ])
        assert rc == 0
        summary = json.load(open(tmp_path / "spam_summary.json"))
        # drift-free model vs measured 0.083: the known gap is ~1.5 +/- 2
        # percentage points, so assert loosely
        assert abs(summary["post_selected_average_error"] - 0.083) < 0.04

    def test_scaling_csv_is_the_scaling_analysis(self, tmp_path):
        assert main(["--out", str(tmp_path), "spam", "--shots", "300", "--seed", "5"]) == 0
        header, rows = _read_csv(tmp_path / "spam_scaling.csv", lambda r: (
            int(r["d"]), float(r["optimal_fidelity"]), float(r["worst_fidelity"])))
        assert header == ["d", "optimal_fidelity", "worst_fidelity"]
        # spam_post.csv holds the post-selected matrix exactly (repr round-trips)
        post = read_confusion_csv(tmp_path / "spam_post.csv")
        curves = scaling_analysis(dict(enumerate(post.diagonal().tolist())), range(2, 14))
        assert rows == list(zip(curves.d_values, curves.optimal, curves.worst))

    def test_reproducible_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main([
                "--out", str(out), "spam", "--errors", "table-e5",
                "--shots", "500", "--seed", "11",
            ])
            assert rc == 0
        assert (a / "spam_raw.csv").read_bytes() == (b / "spam_raw.csv").read_bytes()
        assert (a / "spam_summary.json").read_bytes() == (b / "spam_summary.json").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["--out", str(a), "spam", "--errors", "table-e5", "--shots", "500", "--seed", "1"])
        main(["--out", str(b), "spam", "--errors", "table-e5", "--shots", "500", "--seed", "2"])
        assert (a / "spam_raw.csv").read_bytes() != (b / "spam_raw.csv").read_bytes()


@pytest.mark.parametrize("argv, config", [
    (["spam", "--shots", "0"], None),
    (["spam", "--shots", "-5"], None),
    (["spam"], {"shots": 0}),
    (["spam"], {"mode": "majority"}),
    # shots * probability must stay an exact float inside int64
    (["spam", "--shots", "9223372036854775808"], None),
    (["spam"], {"shots": 2**53 + 1}),
    (["spam", "--shots", "9007199254740993"], None),
])
def test_bad_spam_input_exits_2(tmp_path, capsys, argv, config):
    prefix = ["--out", str(tmp_path)]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        prefix += ["--config", str(tmp_path / "cfg.json")]
    assert main(prefix + argv) == 2
    err = capsys.readouterr().err
    assert "shots" in err or "mode" in err


@pytest.mark.parametrize("argv, config, flag", [
    (["calibrate-demo", "--sessions", "0"], None, "--sessions"),
    (["calibrate-demo", "--sessions", "1"], None, "--sessions"),
    (["calibrate-demo"], {"sessions": 1}, "--sessions"),
    (["calibrate-demo", "--drift", "0"], None, "--drift"),
    (["budget", "--awg-ms", "nan"], None, "--awg-ms"),
    (["budget", "--fluorescence-ms", "-5"], None, "--fluorescence-ms"),
    (["budget", "--optical-pump-ms", "inf"], None, "--optical-pump-ms"),
    (["budget"], {"awg_ms": -1.0}, "--awg-ms"),
    (["eigenstates", "--f-tilde", "4.3", "--m-tilde", "1"], None, "--f-tilde"),
    (["eigenstates"], {"f": 4, "m": "x"}, "--m-tilde"),
])
def test_bad_numeric_flag_exits_2(tmp_path, capsys, argv, config, flag):
    prefix = ["--out", str(tmp_path)]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        prefix += ["--config", str(tmp_path / "cfg.json")]
    assert main(prefix + argv) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "budget.json").exists()


# a bad value of each checked parameter: (flag text, config value)
BAD = {
    "level": ("7P1/2", "7P1/2"),
    "b_range": ("0:nan:1", "1:0"),
    "b_mark": ("nan", -1),
    "f": ("4.3", "x"),
    "m": ("x", 0.25),
    "b_gauss": ("-1", math.inf),
    "phi_deg": ("inf", math.nan),
    "gamma_deg": ("nan", -math.inf),
    "threshold": ("inf", math.nan),
    "shots": ("0", -5),
    "mode": ("majority", "majority"),
    "seed": ("-1", -1),
    "b_center": ("inf", -0.5),
    "drift": ("0", -1),
    "sessions": ("1", 0),
    "fluorescence_ms": ("-5", math.nan),
    "awg_ms": ("nan", -1),
    "optical_pump_ms": ("inf", -2),
}
CHECKED = [(command, key) for command, (_, _, keys) in COMMANDS.items()
           for key in keys if PARAMS[key].check is not None]


def test_every_checked_parameter_has_a_bad_value():
    assert sorted(BAD) == sorted({key for _, key in CHECKED})


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("command, key", CHECKED, ids=[f"{c}-{k}" for c, k in CHECKED])
def test_bad_parameter_exits_2_naming_its_flag_before_any_output(
    tmp_path, capsys, command, key, given
):
    flag_text, config_value = BAD[key]
    # eigenstates needs both state labels; in the config, a flag overrides them
    cfg = {"f": 4, "m": 1} if command == "eigenstates" else {}
    argv = [command]
    if given == "flag":
        argv += [PARAMS[key].flag, flag_text]
    else:
        cfg[key] = config_value
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    try:
        rc = main(["--out", str(out), "--config", str(tmp_path / "cfg.json"), *argv])
    except SystemExit as exc:  # argparse refuses a flag value outside its choices
        rc = exc.code
    assert rc == 2
    assert re.search(re.escape(PARAMS[key].flag) + r"(?![\w-])", capsys.readouterr().err)
    assert not out.exists()


def test_shots_bound_is_the_largest_multinomial_count():
    # the largest count whose product with a probability <= 1 is exact and
    # fits int64, as post_select rounds it; 2**63 - 1 rounds up to 2**63
    check = PARAMS["shots"].check
    assert check(2**53, "--shots") == 2**53
    np.random.default_rng(0).multinomial(2**53, [0.5, 0.5])
    assert float(2**53 + 1) == float(2**53) and float(2**63 - 1) == 2**63
    with pytest.raises(CliError, match="--shots must be at most 9007199254740992"):
        check(2**53 + 1, "--shots")


def test_spam_at_the_shots_bound_post_selects_exact_counts(tmp_path, capsys):
    with np.errstate(over="raise", invalid="raise"):  # 2**63 - 1 shots failed the cast
        assert main(["--out", str(tmp_path), "--format", "json", "spam",
                     "--shots", str(2**53)]) == 0
    post = json.loads((tmp_path / "spam_post.json").read_text())
    raw = json.loads((tmp_path / "spam_raw.json").read_text())
    assert raw["shots"] == [2**53] * 13
    assert all(0 < s <= 2**53 for s in post["shots"])


@pytest.mark.parametrize("argv, config", [
    (["calibrate-demo", "--b-center", "0", "--sessions", "3"], None),
    (["calibrate-demo", "--sessions", "3"], {"b_center": 0.01, "drift": 0.02}),
    (["calibrate-demo", "--b-center", "0.01"], {"drift": 0.05}),
])
def test_b_center_below_drift_exits_2_naming_both_before_any_output(
    tmp_path, capsys, argv, config
):
    # a session field is drawn within --drift of --b-center and must not be negative
    prefix = ["--out", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        prefix += ["--config", str(tmp_path / "cfg.json")]
    assert main(prefix + argv) == 2
    err = capsys.readouterr().err
    assert "--b-center" in err and "--drift" in err
    assert not (tmp_path / "out").exists()


def test_b_center_equal_to_drift_runs(tmp_path):
    assert main(["--out", str(tmp_path), "calibrate-demo", "--b-center", "0.02",
                 "--drift", "0.02", "--sessions", "3"]) == 0


def test_readme_names_every_config_key_and_flag():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for key, param in PARAMS.items():
        assert f"`{key}`" in readme and f"`{param.flag}`" in readme, key


def test_spam_encoding_flag_and_key_are_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "spam", "--encoding", "paper13"])
    assert exc.value.code == 2
    (tmp_path / "cfg.json").write_text(json.dumps({"encoding": "paper13"}))
    assert main(["--out", str(tmp_path), "--config", str(tmp_path / "cfg.json"), "spam"]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_unknown_spam_mode_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "spam", "--mode", "majority"])
    assert exc.value.code == 2


class TestFit:
    def test_error_scaling_reference(self, tmp_path, capsys):
        pts = reference_scaling_points()
        write_scaling_points(tmp_path / "pts.csv", pts)
        rc = main(["--out", str(tmp_path), "fit", "error-scaling", str(tmp_path / "pts.csv")])
        assert rc == 0
        doc = json.load(open(tmp_path / "fit_error_scaling.json"))
        assert 0.02 <= doc["intercept"] <= 0.06

    def test_error_scaling_residuals_csv(self, tmp_path):
        write_scaling_points(tmp_path / "pts.csv", reference_scaling_points())
        assert main(["--out", str(tmp_path), "fit", "error-scaling", str(tmp_path / "pts.csv")]) == 0
        header, rows = _read_csv(tmp_path / "fit_error_scaling_residuals.csv", lambda r: (
            float(r["x_kappa2_tau2"]), float(r["eps_spam"]), float(r["residual"])))
        assert header == ["x_kappa2_tau2", "eps_spam", "residual"]
        points = load_scaling_points(tmp_path / "pts.csv")
        x = np.array([(k * t) ** 2 for k, t, _ in points])
        eps = np.array([e for _, _, e in points])
        residual = fit_error_scaling(points).predict(x) - eps
        assert rows == list(zip(x.tolist(), eps.tolist(), residual.tolist()))

    def test_rabi_noiseless_exact(self, tmp_path):
        t = np.linspace(0.0, 200.0, 201)
        p = 0.95 * np.sin(np.pi * t / (2 * 40.0)) ** 2 + 0.02
        with open(tmp_path / "rabi.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t_us", "p_transition", "shots"])
            for ti, pi_ in zip(t, p):
                w.writerow([f"{ti}", f"{pi_}", "100"])
        rc = main(["--out", str(tmp_path), "fit", "rabi", str(tmp_path / "rabi.csv")])
        assert rc == 0
        doc = json.load(open(tmp_path / "fit_rabi.json"))
        assert doc["eps_pi"] == pytest.approx(0.03, abs=1e-6)

    def test_lorentzian(self, tmp_path):
        f = np.arange(-10.0, 11.0)
        y = 0.5 * 25.0 / ((f - 1.0) ** 2 + 25.0) + 0.02
        with open(tmp_path / "scan.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["freq_kHz", "p_dark", "shots"])
            for fi, yi in zip(f, y):
                w.writerow([f"{fi}", f"{yi}", "400"])
        rc = main(["--out", str(tmp_path), "fit", "lorentzian", str(tmp_path / "scan.csv")])
        assert rc == 0
        doc = json.load(open(tmp_path / "fit_lorentzian.json"))
        assert doc["center_kHz"] == pytest.approx(1.0, abs=1e-6)

    def test_malformed_csv(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("a,b\n1,2\n")
        rc = main(["--out", str(tmp_path), "fit", "rabi", str(tmp_path / "bad.csv")])
        assert rc != 0
        assert "t_us" in capsys.readouterr().err

    def test_calibration_history(self, tmp_path):
        rc = main(["--out", str(tmp_path), "--seed", "3", "calibrate-demo", "--sessions", "4"])
        assert rc == 0
        rc = main([
            "--out", str(tmp_path), "fit", "calibration",
            str(tmp_path / "calibration_history.csv"),
        ])
        assert rc == 0
        doc = json.load(open(tmp_path / "fit_calibration.json"))
        assert len(doc["transitions"]) == 12


class TestEstimateB:
    def write_splittings(self, path, b):
        from ba137qudit.calib import paper13_transition_refs, simulate_splittings

        trans = paper13_transition_refs()
        pairs = [trans[n] for n in (1, 3, 5, 10)]
        sims = simulate_splittings(pairs, b)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["transition", "freq_MHz"])
            for (g, e), f in sims.items():
                w.writerow([
                    f"S:F{g.F}:m{g.m}->D:F{e.F}:m{e.m}",
                    f"{f:.9f}",
                ])

    def test_round_trip(self, tmp_path, capsys):
        self.write_splittings(tmp_path / "meas.csv", 8.35)
        rc = main(["--out", str(tmp_path), "estimate-b", str(tmp_path / "meas.csv")])
        assert rc == 0
        doc = json.load(open(tmp_path / "estimate_b.json"))
        assert doc["B_gauss"] == pytest.approx(8.35, abs=1e-3)

    def test_byte_order_mark_is_not_header_text(self, tmp_path, capsys):
        # spreadsheet exports start a UTF-8 CSV with a byte-order mark
        self.write_splittings(tmp_path / "meas.csv", 8.35)
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "meas.csv").read_bytes())
        for name in ("meas", "bom"):
            out = tmp_path / name
            assert main(["--out", str(out), "estimate-b", str(tmp_path / f"{name}.csv")]) == 0
        assert (tmp_path / "bom" / "estimate_b.json").read_bytes() == (
            tmp_path / "meas" / "estimate_b.json").read_bytes()

    def test_single_transition_rejected(self, tmp_path):
        (tmp_path / "one.csv").write_text(
            "transition,freq_MHz\nS:F2:m2->D:F4:m4,100.0\n"
        )
        rc = main(["--out", str(tmp_path), "estimate-b", str(tmp_path / "one.csv")])
        assert rc != 0


    def test_lines_no_field_fits_exit_nonzero(self, tmp_path, capsys):
        (tmp_path / "edge.csv").write_text(
            "transition,freq_MHz\nS:F2:m2->D:F4:m4,100.0\nS:F2:m2->D:F4:m3,102.0\n"
        )
        rc = main(["--out", str(tmp_path), "estimate-b", str(tmp_path / "edge.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert ("pinned at the lower edge of the grid, B = 0.0001 G "
                "(residual rms 2000.105 kHz)") in err
        assert not (tmp_path / "estimate_b.json").exists()

    def test_repeated_transition_exits_2(self, tmp_path, capsys):
        (tmp_path / "twice.csv").write_text(
            "transition,freq_MHz\n"
            "S:F2:m2->D:F4:m4,100.0\nS:F2:m2->D:F4:m4,101.0\nS:F2:m2->D:F4:m3,102.0\n"
        )
        rc = main(["--out", str(tmp_path), "estimate-b", str(tmp_path / "twice.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "twice.csv: transition S:F2:m2->D:F4:m4 is listed twice" in err
        assert not (tmp_path / "estimate_b.json").exists()


@pytest.mark.parametrize("text, key", [
    ('{"prep_error": "x"}', "prep_error"),
    ("[1, 2]", "document"),
    ("{bad", "document"),
    ('{"leak": {"S:F2:m2->D:F4:m4": {"probability": 0.1}}}', "spectator"),
    ('{"prep_eror": 0.5}', "prep_eror"),
    ('{"prep_error": 2}', "values: prep_error must be in [0, 1], got 2"),
    ('{"eps_pi": {"S:F2:m2->D:F4:m4": 1.5}}',
     "values: eps_pi S:F2:m2->D:F4:m4 must be in [0, 1], got 1.5"),
    ('{"leak": {"S:F2:m2->D:F4:m4": {"spectator": "S:F2:m2->D:F4:m3", "probability": -0.1}}}',
     "values: leak S:F2:m2->D:F4:m4 must be in [0, 1], got -0.1"),
    # a valid file that lacks a pulse the 13-level plan needs
    ('{"eps_pi": {"S:F2:m2->D:F4:m4": 0.01}}',
     "no pi-pulse error for transition S:F2:m2 <-> D:F4:m3"),
])
def test_bad_spam_errors_file_exits_2(tmp_path, capsys, text, key):
    (tmp_path / "params.json").write_text(text)
    rc = main(["--out", str(tmp_path), "spam", "--errors", str(tmp_path / "params.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'params.json'}: " in err and key in err
    assert not (tmp_path / "spam_raw.csv").exists()


def test_spam_errors_file_byte_order_mark_is_not_json(tmp_path):
    spam.error_params_to_json(tmp_path / "plain.json", spam.error_params_from_reference())
    (tmp_path / "bom.json").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.json").read_bytes())
    for name in ("plain", "bom"):
        assert main(["--out", str(tmp_path / name), "--seed", "2", "spam", "--shots", "50",
                     "--errors", str(tmp_path / f"{name}.json")]) == 0
    assert (tmp_path / "bom" / "spam_raw.csv").read_bytes() == (
        tmp_path / "plain" / "spam_raw.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["--config", "{}", "budget"],
    ["spam", "--errors", "{}"],
    ["spam", "--analyze", "{}"],
    ["fit", "lorentzian", "{}"],
    ["fit", "error-scaling", "{}"],
    ["estimate-b", "{}"],
], ids=lambda argv: " ".join(a for a in argv if a != "{}"))
@pytest.mark.parametrize("kind", ["directory", "undecodable"])
def test_unreadable_input_exits_2_naming_it(tmp_path, capsys, argv, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe,\x00\n1,2\n")
    out = tmp_path / "out"
    assert main(["--out", str(out)] + [a.format(path) for a in argv]) == 2
    assert str(path) in capsys.readouterr().err
    assert not any(out.glob("*"))


@pytest.mark.parametrize("command, config, key", [
    ("spam", {"shots": 1.7}, "shots"),
    ("spam", {"shots": True}, "shots"),
    ("spam", {"seed": 1.5}, "seed"),
    ("calibrate-demo", {"sessions": 2.9}, "sessions"),
    ("levels", {"b_range": 5}, "b_range"),
    ("spam", {"errors": 5}, "errors"),
])
def test_config_value_of_wrong_kind_exits_2(tmp_path, capsys, command, config, key):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["--out", str(out), "--config", str(tmp_path / "cfg.json"), command]) == 2
    assert f"{key}: expected" in capsys.readouterr().err
    assert not out.exists()


class TestConfigPrecedence:
    def test_flags_beat_config_beat_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"b_gauss": 4.0}))
        # config overrides the 8.35 default
        rc = main(["--out", str(tmp_path / "a"), "--config", str(cfg), "strengths"])
        assert rc == 0
        rep = json.load(open(tmp_path / "a" / "strengths_report.json"))
        assert rep["B_gauss"] == 4.0
        # explicit flag overrides the config
        rc = main([
            "--out", str(tmp_path / "b"), "--config", str(cfg), "strengths", "--b", "8.35",
        ])
        assert rc == 0
        rep = json.load(open(tmp_path / "b" / "strengths_report.json"))
        assert rep["B_gauss"] == 8.35

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        assert main(["--config", str(cfg), "budget"]) == 2

    def test_config_byte_order_mark_is_not_json(self, tmp_path):
        # an editor may save a UTF-8 config with a byte-order mark
        text = json.dumps({"shots": 50, "seed": 3, "errors": "zero"}).encode()
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            (tmp_path / f"{name}.json").write_bytes(data)
            assert main(["--out", str(tmp_path / name), "--config",
                         str(tmp_path / f"{name}.json"), "spam"]) == 0
        assert (tmp_path / "bom" / "spam_summary.json").read_bytes() == (
            tmp_path / "plain" / "spam_summary.json").read_bytes()

    def test_repeated_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"shots": 5, "shots": 7}')
        out = tmp_path / "out"
        assert main(["--out", str(out), "--config", str(cfg), "spam"]) == 2
        assert "key 'shots' is given more than once" in capsys.readouterr().err
        assert not out.exists()


class TestBudget:
    def test_default_budget(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "budget"])
        assert rc == 0
        doc = json.load(open(tmp_path / "budget.json"))
        assert 90.0 <= doc["measurement_total_ms"] <= 130.0

    def test_fast_readout(self, tmp_path):
        rc = main([
            "--out", str(tmp_path), "budget",
            "--fluorescence-ms", "0.35", "--awg-ms", "0",
        ])
        assert rc == 0
        doc = json.load(open(tmp_path / "budget.json"))
        assert doc["measurement_total_ms"] < 10.0


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory holding one input table for each command that reads one."""
    where = tmp_path_factory.mktemp("inputs")
    write_scaling_points(where / "points.csv", reference_scaling_points())
    f = np.arange(-10.0, 11.0)
    rows = zip(f.tolist(), (0.5 * 25.0 / ((f - 1.0) ** 2 + 25.0) + 0.02).tolist())
    (where / "scan.csv").write_text(
        "freq_kHz,p_dark,shots\n" + "".join(f"{x!r},{y!r},400\n" for x, y in rows))
    t = np.linspace(0.0, 200.0, 201)
    rows = zip(t.tolist(), (0.95 * np.sin(np.pi * t / 80.0) ** 2 + 0.02).tolist())
    (where / "rabi.csv").write_text(
        "t_us,p_transition,shots\n" + "".join(f"{x!r},{y!r},100\n" for x, y in rows))
    TestEstimateB().write_splittings(where / "splittings.csv", 8.35)
    assert main(["--out", str(where), "--seed", "3", "calibrate-demo", "--sessions", "4"]) == 0
    return where


E3 = str(fixture_path("table_e3.csv"))
SPAM_TABLES = ["spam_scaling.csv", "spam_summary.json"]
# a run that succeeds, and the files it writes
OUTPUT_RUNS = [
    (["levels", "--b", "0:1"], ["levels_5D52.csv"]),
    (["eigenstates", "--level", "6S1/2", "--f-tilde", "1", "--m-tilde", "0", "--b", "0:1"],
     ["eigenstate_6S12_F1_m0.csv"]),
    (["strengths"], ["strengths.csv", "strengths_report.json"]),
    (["--format", "csv", "strengths"], ["strengths.csv", "strengths_report.json"]),
    (["--format", "json", "strengths"], ["strengths.json", "strengths_report.json"]),
    (["strengths", "--format", "both"],
     ["strengths.csv", "strengths.json", "strengths_report.json"]),
    (["spam", "--shots", "50"], ["spam_raw.csv", "spam_post.csv"] + SPAM_TABLES),
    (["--format", "csv", "spam", "--shots", "50"],
     ["spam_raw.csv", "spam_post.csv"] + SPAM_TABLES),
    (["--format", "json", "spam", "--shots", "50"],
     ["spam_raw.json", "spam_post.json"] + SPAM_TABLES),
    (["spam", "--format", "both", "--shots", "50"],
     ["spam_raw.csv", "spam_raw.json", "spam_post.csv", "spam_post.json"] + SPAM_TABLES),
    (["spam", "--analyze", E3], ["spam_analysis.json"]),
    (["fit", "error-scaling", "{inputs}/points.csv"],
     ["fit_error_scaling.json", "fit_error_scaling_residuals.csv"]),
    (["fit", "lorentzian", "{inputs}/scan.csv"], ["fit_lorentzian.json"]),
    (["fit", "rabi", "{inputs}/rabi.csv"], ["fit_rabi.json"]),
    (["fit", "calibration", "{inputs}/calibration_history.csv"], ["fit_calibration.json"]),
    (["estimate-b", "{inputs}/splittings.csv"], ["estimate_b.json"]),
    (["calibrate-demo", "--sessions", "3"],
     ["calibration_history.csv", "calibration_model.json"]),
    (["budget"], ["budget.json"]),
]


def _command(argv):
    return next(a for a in argv if a in COMMANDS)


def _ids(argv):
    return " ".join(a for a in argv if not a.startswith(("{", "/")))


@pytest.mark.parametrize("argv, files", OUTPUT_RUNS, ids=[_ids(a) for a, _ in OUTPUT_RUNS])
def test_wrote_lines_name_exactly_the_files_in_a_fresh_out(tmp_path, capsys, inputs, argv, files):
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["--out", str(out)] + [a.format(inputs=inputs) for a in argv]) == 0
    wrote = [line for line in capsys.readouterr().out.splitlines() if " wrote " in line]
    # one line per file, in the order written: a table's csv before its json
    assert wrote == [f"{_command(argv)}: wrote {out / name}" for name in files]
    assert sorted(p.name for p in out.iterdir()) == sorted(files)


# the runs whose outputs hold no table in more than one format
SINGLE_FORMAT_RUNS = [argv for argv, files in OUTPUT_RUNS
                      if not any(name.startswith(("strengths.", "spam_raw.")) for name in files)]


@pytest.mark.parametrize("fmt", ["csv", "json", "both"])
@pytest.mark.parametrize("argv", SINGLE_FORMAT_RUNS, ids=[_ids(a) for a in SINGLE_FORMAT_RUNS])
def test_format_without_a_two_format_table_exits_2_before_any_output(
    tmp_path, capsys, inputs, argv, fmt
):
    out = tmp_path / "out"
    argv = ["--out", str(out), "--format", fmt] + [a.format(inputs=inputs) for a in argv]
    assert main(argv) == 2
    assert "--format" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, rc", [
    (["--fixtures-dir", "{tmp}", "strengths"], 2),  # no bundled reference table there
    (["spam", "--errors", "{tmp}/missing.json"], 2),
    # the drift carries lines out of the coarse scan, so a fit fails
    (["--seed", "2", "calibrate-demo", "--b-center", "8", "--drift", "0.05", "--sessions", "3"],
     1),
], ids=["strengths", "spam", "calibrate-demo"])
def test_failed_command_leaves_no_output_directory(tmp_path, capsys, argv, rc):
    out = tmp_path / "out"
    assert main(["--out", str(out)] + [a.format(tmp=tmp_path) for a in argv]) == rc
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
