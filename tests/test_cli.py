import csv
import json

import numpy as np
import pytest

from ba137qudit.cli import main
from ba137qudit.fixtures import fixture_path
from ba137qudit.noise import reference_scaling_points, write_scaling_points


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


@pytest.mark.parametrize("argv", [
    ["strengths", "--b", "nan"],
    ["strengths", "--b", "inf"],
    ["strengths", "--b", "-1"],
    ["levels", "--b", "0:nan:1"],
    ["levels", "--b", "0:inf:1"],
    ["levels", "--b", "0:1:1", "--b-mark", "nan"],
    ["eigenstates", "--f-tilde", "4", "--m-tilde", "1", "--b", "inf:1:1"],
    ["calibrate-demo", "--b-center", "inf"],
])
def test_bad_field_flag_exits_2(tmp_path, capsys, argv):
    assert main(["--out", str(tmp_path)] + argv) == 2
    assert "finite" in capsys.readouterr().err


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


class TestFit:
    def test_error_scaling_reference(self, tmp_path, capsys):
        pts = reference_scaling_points()
        write_scaling_points(tmp_path / "pts.csv", pts)
        rc = main(["--out", str(tmp_path), "fit", "error-scaling", str(tmp_path / "pts.csv")])
        assert rc == 0
        doc = json.load(open(tmp_path / "fit_error_scaling.json"))
        assert 0.02 <= doc["intercept"] <= 0.06

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

    def test_single_transition_rejected(self, tmp_path):
        (tmp_path / "one.csv").write_text(
            "transition,freq_MHz\nS:F2:m2->D:F4:m4,100.0\n"
        )
        rc = main(["--out", str(tmp_path), "estimate-b", str(tmp_path / "one.csv")])
        assert rc != 0


class TestConfigPrecedence:
    def test_flags_beat_config_beat_presets(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"b_gauss": 4.0}))
        # config overrides the 8.35 preset
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
