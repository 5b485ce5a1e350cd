"""Command-line front end.

Subcommands: levels, eigenstates, strengths, spam, fit, estimate-b,
calibrate-demo, budget.  Every command is reproducible: the same config
and seed produce byte-identical primary output files.  Outputs are data
only (CSV/JSON ready for external plotting).

Parameter precedence: explicit flags > --config file entries > named
presets > built-in defaults.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import atomstruct, calib, fixtures, noise, spam, transitions
from .atomstruct import BA137_D52, BA137_S12, StateRef

LEVELS = {"6S1/2": BA137_S12, "5D5/2": BA137_D52}

PRESETS = {
    "b_gauss": 8.35,
    "phi_deg": 45.0,
    "gamma_deg": 58.0,
    "threshold": 0.03,
    "encoding": "paper13",
}


class CliError(Exception):
    pass


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    unknown = set(cfg) - {
        "b_gauss", "phi_deg", "gamma_deg", "threshold", "encoding",
        "shots", "seed", "mode", "errors", "level", "b_range", "b_mark",
        "f", "m", "b_center", "drift", "sessions", "fluorescence_ms",
        "awg_ms", "optical_pump_ms",
    }
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _resolve(args, cfg, key, default=None):
    """flags > config file > presets > defaults."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    if key in PRESETS:
        return PRESETS[key]
    return default


def _field(value, flag):
    """A field in gauss from a flag or config value: finite and nonnegative."""
    b = float(value)
    if not 0.0 <= b < math.inf:
        raise CliError(f"{flag} must be a finite, nonnegative field in gauss, got {value!r}")
    return b


def _parse_b_range(text):
    try:
        parts = [float(x) for x in text.split(":")]
    except ValueError:
        raise CliError(f"bad B range {text!r}; expected start:stop[:step]")
    if len(parts) == 2:
        parts.append(0.1)
    if len(parts) != 3:
        raise CliError(f"bad B range {text!r}; expected start:stop[:step]")
    start, stop, step = parts
    if not (0.0 <= start <= stop < math.inf and 0.0 <= step < math.inf):
        raise CliError(f"bad B range {text!r}; need finite 0 <= start <= stop, step >= 0")
    if stop == start or step == 0:
        return [start]
    n = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(n)]


def _outdir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_levels(args, cfg):
    level_name = _resolve(args, cfg, "level", "5D5/2")
    if level_name not in LEVELS:
        raise CliError(f"unknown level {level_name!r}; pick from {sorted(LEVELS)}")
    bs = _parse_b_range(_resolve(args, cfg, "b_range", "0:10:0.05"))
    b_mark = _resolve(args, cfg, "b_mark")
    if b_mark is not None:
        b_mark = _field(b_mark, "--b-mark")
    out = _outdir(args) / f"levels_{level_name.replace('/', '')}.csv"

    level = LEVELS[level_name]
    systems = atomstruct.diagonalize_range(level, bs)
    ground_systems = None
    if level_name == "5D5/2":
        ground_systems = atomstruct.diagonalize_range(BA137_S12, bs)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["B_gauss", "state_label", "frequency_MHz"]
        if b_mark is not None:
            header.append("b_mark_gauss")
        w.writerow(header)
        for i, sys_ in enumerate(systems):
            for s in sys_:
                if ground_systems is not None:
                    value = s.energy - ground_systems[i].state(2, 2).energy
                else:
                    value = s.energy
                row = [repr(float(sys_.B)), f"F{s.F_tilde}_m{s.m_F_tilde}", repr(float(value))]
                if b_mark is not None:
                    row.append(repr(float(b_mark)))
                w.writerow(row)
    print(f"levels: wrote {out} ({len(bs)} field values)")
    return [out]


def cmd_eigenstates(args, cfg):
    level_name = _resolve(args, cfg, "level", "5D5/2")
    if level_name not in LEVELS:
        raise CliError(f"unknown level {level_name!r}")
    f_val = _resolve(args, cfg, "f")
    m_val = _resolve(args, cfg, "m")
    if f_val is None or m_val is None:
        raise CliError("eigenstates needs --f-tilde and --m-tilde")
    bs = _parse_b_range(_resolve(args, cfg, "b_range", "0:10:0.05"))
    try:
        scan = atomstruct.decomposition_scan(LEVELS[level_name], float(f_val), float(m_val), bs)
    except KeyError as exc:
        raise CliError(str(exc))
    out = _outdir(args) / f"eigenstate_{level_name.replace('/', '')}_F{f_val}_m{m_val}.csv"
    atomstruct.write_decomposition_scan(out, scan)
    print(f"eigenstates: wrote {out} ({len(scan.components)} components)")
    return [out]


def cmd_strengths(args, cfg):
    b = _field(_resolve(args, cfg, "b_gauss"), "--b")
    phi = float(_resolve(args, cfg, "phi_deg"))
    gamma = float(_resolve(args, cfg, "gamma_deg"))
    threshold = float(_resolve(args, cfg, "threshold"))
    fmt = args.format or "csv"
    outdir = _outdir(args)

    table = transitions.strength_table(b, transitions.LaserGeometry(phi, gamma))
    written = []
    if fmt in ("csv", "both"):
        path = outdir / "strengths.csv"
        table.to_csv(path)
        written.append(path)
    if fmt in ("json", "both"):
        path = outdir / "strengths.json"
        table.to_json(path)
        written.append(path)

    d_keys, s_keys, ref = fixtures.load_strength_fixture(args.fixtures_dir)
    dev = float(np.max(np.abs(table.values - ref)))
    report = {
        "B_gauss": b,
        "phi_deg": phi,
        "gamma_deg": gamma,
        "max_abs_deviation_vs_reference": dev,
    }
    if args.list_encodable:
        picked = transitions.encodable_states(table, threshold=threshold)
        report["encodable_states"] = [f"D:F{f}:m{m}" for f, m in picked]
        print(f"strengths: {len(picked)} states above {threshold}:")
        for i, (f, m) in enumerate(picked, start=1):
            print(f"  |{i}> = D:F{f}:m{m}")
    rep_path = outdir / "strengths_report.json"
    _write_json(rep_path, report)
    written.append(rep_path)
    print(f"strengths: max abs deviation vs bundled reference = {dev:.2e}")
    for p in written:
        print(f"strengths: wrote {p}")
    return written


def _confusion_to_json(path, matrix):
    doc = {
        "has_null": matrix.has_null,
        "shots": [int(s) for s in matrix.shots],
        "probs": [[float(x) for x in row] for row in matrix.probs],
    }
    _write_json(path, doc)


def cmd_spam(args, cfg):
    outdir = _outdir(args)
    if args.analyze:
        m = spam.read_confusion_csv(args.analyze)
        fid, sigma = spam.average_fidelity(m)
        kind = "raw" if m.has_null else "post-selected"
        print(f"spam: {kind} average error {1 - fid:.3f} +/- {sigma:.3f} ({args.analyze})")
        _write_json(outdir / "spam_analysis.json",
                    {"input": str(args.analyze), "kind": kind,
                     "average_fidelity": fid, "uncertainty": sigma})
        return [outdir / "spam_analysis.json"]

    enc_name = _resolve(args, cfg, "encoding")
    if enc_name != "paper13":
        raise CliError(f"unknown encoding preset {enc_name!r}")
    encoding = spam.paper13_encoding()
    shots = int(_resolve(args, cfg, "shots", 1000))
    seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
    mode = _resolve(args, cfg, "mode", "first-bright")
    errors_src = _resolve(args, cfg, "errors", "table-e5")
    if errors_src == "zero":
        errors = spam.ErrorParams.zero(encoding)
    elif errors_src == "table-e5":
        errors = spam.error_params_from_reference(args.fixtures_dir)
    else:
        errors = spam.error_params_from_json(errors_src)

    raw = spam.run_experiment(encoding, errors, shots, seed=seed, mode=mode)
    post = spam.post_select(raw)
    fid_raw, sig_raw = spam.average_fidelity(raw)
    fid_post, sig_post = spam.average_fidelity(post)
    curves = spam.scaling_analysis(
        {i: float(p) for i, p in enumerate(post.diagonal())}, range(2, encoding.d + 1)
    )

    fmt = args.format or "csv"
    written = []
    if fmt in ("csv", "both"):
        spam.write_confusion_csv(outdir / "spam_raw.csv", raw)
        spam.write_confusion_csv(outdir / "spam_post.csv", post)
        written += [outdir / "spam_raw.csv", outdir / "spam_post.csv"]
    if fmt in ("json", "both"):
        _confusion_to_json(outdir / "spam_raw.json", raw)
        _confusion_to_json(outdir / "spam_post.json", post)
        written += [outdir / "spam_raw.json", outdir / "spam_post.json"]
    with open(outdir / "spam_scaling.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["d", "optimal_fidelity", "worst_fidelity"])
        for d, o, wv in zip(curves.d_values, curves.optimal, curves.worst):
            w.writerow([d, repr(float(o)), repr(float(wv))])
    written.append(outdir / "spam_scaling.csv")
    _write_json(outdir / "spam_summary.json", {
        "shots_per_state": shots,
        "seed": seed,
        "mode": mode,
        "errors": str(errors_src),
        "raw_average_error": 1 - fid_raw,
        "raw_uncertainty": sig_raw,
        "post_selected_average_error": 1 - fid_post,
        "post_selected_uncertainty": sig_post,
        "note": (
            "drift-free model: measured per-state errors ran about "
            "1.5 +/- 2 percentage points above the single-pulse prediction "
            "because parameters drift between calibration and data taking"
        ),
    })
    written.append(outdir / "spam_summary.json")
    print(f"spam: raw error {1 - fid_raw:.4f} +/- {sig_raw:.4f}, "
          f"post-selected {1 - fid_post:.4f} +/- {sig_post:.4f}")
    for p in written:
        print(f"spam: wrote {p}")
    return written


def _read_scan_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    try:
        f = [float(r["freq_kHz"]) for r in rows]
        p = [float(r["p_dark"]) for r in rows]
        shots = [int(r["shots"]) for r in rows]
    except (KeyError, ValueError) as exc:
        raise CliError(f"{path}: expected columns freq_kHz,p_dark,shots ({exc})")
    return calib.FrequencyScan(f, p, shots)


def _read_rabi_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    try:
        t = [float(r["t_us"]) for r in rows]
        p = [float(r["p_transition"]) for r in rows]
        shots = [int(r["shots"]) for r in rows]
    except (KeyError, ValueError) as exc:
        raise CliError(f"{path}: expected columns t_us,p_transition,shots ({exc})")
    return calib.RabiTrace(t, p, shots)


def _read_calibration_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CliError(f"{path}: empty calibration history")
    snaps = []
    try:
        keys = sorted(
            int(k[1:-4]) for k in rows[0] if k.startswith("f") and k.endswith("_MHz")
            and k[1:-4].isdigit()
        )
        for r in rows:
            snaps.append(calib.CalSnapshot(
                f_offset=float(r["f_offset_MHz"]),
                f_low=float(r["f_low_MHz"]),
                f_up=float(r["f_up_MHz"]),
                freqs={n: float(r[f"f{n}_MHz"]) for n in keys},
            ))
    except (KeyError, ValueError) as exc:
        raise CliError(
            f"{path}: expected columns f_offset_MHz,f_low_MHz,f_up_MHz,fN_MHz ({exc})"
        )
    return snaps


def cmd_fit(args, cfg):
    outdir = _outdir(args)
    kind = args.kind
    path = Path(args.input)
    if not path.exists():
        raise CliError(f"input file {path} does not exist")
    if kind == "error-scaling":
        points = noise.load_scaling_points(path)
        fit = noise.fit_error_scaling(points)
        doc = {
            "scale": fit.scale,
            "scale_err": fit.scale_err,
            "intercept": fit.intercept,
            "intercept_err": fit.intercept_err,
        }
        x = [(k * t) ** 2 for k, t, _ in points]
        resid = fit.predict(np.array(x)) - np.array([e for _, _, e in points])
        out = outdir / "fit_error_scaling.json"
        _write_json(out, doc)
        with open(outdir / "fit_error_scaling_residuals.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x_kappa2_tau2", "eps_spam", "residual"])
            for xi, (k, t, e), r in zip(x, points, resid):
                w.writerow([repr(float(xi)), repr(float(e)), repr(float(r))])
        print(f"fit: intercept = {fit.intercept:.4f} +/- {fit.intercept_err:.4f}, "
              f"scale = {fit.scale:.4g} +/- {fit.scale_err:.4g}")
        return [out, outdir / "fit_error_scaling_residuals.csv"]
    if kind == "lorentzian":
        fit = calib.fit_lorentzian(_read_scan_csv(path))
        doc = {
            "center_kHz": fit.center_khz,
            "center_err_kHz": fit.center_err,
            "width_kHz": fit.width_khz,
            "amplitude": fit.amplitude,
            "offset": fit.offset,
            "at_boundary": fit.at_boundary,
        }
        out = outdir / "fit_lorentzian.json"
        _write_json(out, doc)
        print(f"fit: center = {fit.center_khz:.3f} +/- {fit.center_err:.3f} kHz"
              + (" (AT SCAN BOUNDARY)" if fit.at_boundary else ""))
        return [out]
    if kind == "rabi":
        fit = calib.fit_rabi_flop(_read_rabi_csv(path))
        doc = {
            "amplitude": fit.amplitude,
            "offset": fit.offset,
            "t_peak_us": fit.t_peak_us,
            "t_scale_us": fit.t_scale_us,
            "eps_pi": fit.eps_pi,
            "window_us": list(fit.window),
        }
        out = outdir / "fit_rabi.json"
        _write_json(out, doc)
        print(f"fit: eps_pi = {fit.eps_pi:.4f} (t_peak {fit.t_peak_us:.2f} us)")
        return [out]
    if kind == "calibration":
        model = calib.fit_calibration(_read_calibration_csv(path))
        out = outdir / "fit_calibration.json"
        model.to_json(out)
        worst = max(model.residual_rms.values())
        print(f"fit: calibrated {len(model.a1)} transitions, "
              f"worst residual rms {worst * 1e3:.3f} kHz")
        return [out]
    raise CliError(f"unknown fit kind {kind!r}")


def _read_splittings_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    measured = {}
    try:
        for r in rows:
            g_key, e_key = r["transition"].split("->")
            g = spam.parse_atomic_state(g_key)
            e = spam.parse_atomic_state(e_key)
            g_ref = StateRef(BA137_S12 if g.level == "S" else BA137_D52, g.F, g.m)
            e_ref = StateRef(BA137_D52 if e.level == "D" else BA137_S12, e.F, e.m)
            measured[(g_ref, e_ref)] = float(r["freq_MHz"])
    except (KeyError, ValueError) as exc:
        raise CliError(f"{path}: expected columns transition,freq_MHz ({exc})")
    return measured


def cmd_estimate_b(args, cfg):
    measured = _read_splittings_csv(Path(args.input))
    try:
        est = calib.estimate_field(measured)
    except ValueError as exc:
        raise CliError(str(exc))
    sims = calib.simulate_splittings(list(measured.keys()), est.B)
    ref_pair = est.reference
    residuals = {}
    for pair, f_meas in measured.items():
        rel_meas = f_meas - measured[ref_pair]
        rel_sim = sims[pair] - sims[ref_pair]
        key = f"{pair[0].F}:{pair[0].m}->{pair[1].F}:{pair[1].m}"
        residuals[key] = rel_meas - rel_sim
    out = _outdir(args) / "estimate_b.json"
    _write_json(out, {
        "B_gauss": est.B,
        "residual_rms_MHz": est.residual_rms,
        "per_transition_residual_MHz": residuals,
    })
    print(f"estimate-b: B = {est.B:.4f} G (residual rms {est.residual_rms * 1e3:.3f} kHz)")
    return [out]


def cmd_calibrate_demo(args, cfg):
    """Synthetic end-to-end run of the documented calibration procedure:
    coarse/fine scans at drifted fields, Lorentzian centers, linear model."""
    outdir = _outdir(args)
    seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
    b_center = _field(_resolve(args, cfg, "b_center", 8.35), "--b-center")
    drift = float(_resolve(args, cfg, "drift", 0.02))
    sessions = int(_resolve(args, cfg, "sessions", 5))
    rng = np.random.default_rng(seed)

    plan = calib.scan_plan()
    nominal = calib.synthetic_snapshot(b_center)

    def measure_line(f_true: float, f_nominal: float) -> float:
        """Two-stage search: coarse 10 kHz grid around the last known
        frequency, then a fine 1 kHz scan and a Lorentzian fit."""
        delta_khz = (f_true - f_nominal) * 1e3  # actual drift of this line
        coarse = np.array(plan.coarse_offsets)
        p_coarse = 0.5 * 25.0 / ((coarse - delta_khz) ** 2 + 25.0)
        p_coarse = np.clip(p_coarse + rng.uniform(-0.02, 0.02, len(coarse)), 0, 1)
        best = float(coarse[np.argmax(p_coarse)])
        fine = np.array(plan.fine_offsets(best))
        p_fine = 0.5 * 25.0 / ((fine - delta_khz) ** 2 + 25.0)
        p_fine = np.clip(p_fine + rng.uniform(-0.02, 0.02, len(fine)), 0, 1)
        scan = calib.FrequencyScan(fine, p_fine, np.full(len(fine), 400))
        fit = calib.fit_lorentzian(scan)
        return f_nominal + fit.center_khz * 1e-3

    history = []
    rows = []
    for _ in range(sessions):
        b = b_center + rng.uniform(-drift, drift)
        truth = calib.synthetic_snapshot(b)
        freqs = {
            n: measure_line(f_true, nominal.freqs[n])
            for n, f_true in truth.freqs.items()
        }
        snap = calib.CalSnapshot(
            f_offset=truth.f_offset, f_low=truth.f_low, f_up=truth.f_up, freqs=freqs
        )
        history.append(snap)
        row = {"f_offset_MHz": snap.f_offset, "f_low_MHz": snap.f_low, "f_up_MHz": snap.f_up}
        row.update({f"f{n}_MHz": f for n, f in freqs.items()})
        rows.append(row)

    hist_path = outdir / "calibration_history.csv"
    with open(hist_path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        for row in rows:
            w.writerow({k: repr(float(v)) for k, v in row.items()})

    model = calib.fit_calibration(history)
    model_path = outdir / "calibration_model.json"
    model.to_json(model_path)

    test_b = b_center + drift / 2
    truth = calib.synthetic_snapshot(test_b)
    worst = 0.0
    for n in truth.freqs:
        pred = calib.predict_frequency(model, truth.f_offset, truth.f_low, truth.f_up, n)
        worst = max(worst, abs(pred - truth.freqs[n]))
    print(f"calibrate-demo: {sessions} sessions within +/-{drift} G of {b_center} G")
    print(f"calibrate-demo: worst prediction error at B = {test_b:.3f} G: "
          f"{worst * 1e3:.3f} kHz")
    print(f"calibrate-demo: wrote {hist_path} and {model_path}")
    return [hist_path, model_path]


def cmd_budget(args, cfg):
    outdir = _outdir(args)
    timings = spam.reference_timings(args.fixtures_dir)
    fluor = _resolve(args, cfg, "fluorescence_ms")
    awg = _resolve(args, cfg, "awg_ms")
    pump = _resolve(args, cfg, "optical_pump_ms")
    timings = spam.Timings(
        fluorescence_check=float(fluor) * 1e-3 if fluor is not None else timings.fluorescence_check,
        awg_trigger=float(awg) * 1e-3 if awg is not None else timings.awg_trigger,
        optical_pump=float(pump) * 1e-3 if pump is not None else timings.optical_pump,
        pi_pulse=timings.pi_pulse,
    )
    budget = spam.timing_budget(spam.paper13_encoding(), timings, prepared=1)
    doc = {
        "measurement_total_ms": budget.measurement_total * 1e3,
        "preparation_total_ms": budget.preparation_total * 1e3,
        "breakdown_ms": {k: v * 1e3 for k, v in budget.breakdown},
    }
    out = outdir / "budget.json"
    _write_json(out, doc)
    print(f"budget: measurement {budget.measurement_total * 1e3:.2f} ms, "
          f"preparation {budget.preparation_total * 1e3:.3f} ms")
    for k, v in budget.breakdown:
        print(f"budget:   {k:<16s} {v * 1e3:9.3f} ms")
    return [out]


def _add_global_args(p: argparse.ArgumentParser, suppress: bool) -> None:
    # the same flags are accepted before or after the subcommand; the
    # subparser copies use SUPPRESS so they only override when given
    d = argparse.SUPPRESS if suppress else None
    p.add_argument("--seed", type=int, default=d)
    p.add_argument("--out", default=d, help="output directory (default .)")
    p.add_argument("--format", choices=["csv", "json", "both"], default=d)
    p.add_argument("--fixtures-dir", default=d)
    p.add_argument("--config", default=d, help="JSON config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ba137qudit",
        description="137Ba+ qudit SPAM simulation and analysis toolkit",
    )
    _add_global_args(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("levels", help="state/transition frequencies vs field")
    _add_global_args(p, suppress=True)
    p.add_argument("--level", default=None)
    p.add_argument("--b", dest="b_range", default=None, help="start:stop:step in gauss")
    p.add_argument("--b-mark", dest="b_mark", type=float, default=None)
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("eigenstates", help="decomposition of one eigenstate vs field")
    _add_global_args(p, suppress=True)
    p.add_argument("--level", default=None)
    p.add_argument("--f-tilde", dest="f", default=None)
    p.add_argument("--m-tilde", dest="m", default=None)
    p.add_argument("--b", dest="b_range", default=None)
    p.set_defaults(func=cmd_eigenstates)

    p = sub.add_parser("strengths", help="relative transition-strength table")
    _add_global_args(p, suppress=True)
    p.add_argument("--b", dest="b_gauss", type=float, default=None)
    p.add_argument("--phi", dest="phi_deg", type=float, default=None)
    p.add_argument("--gamma", dest="gamma_deg", type=float, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--list-encodable", action="store_true")
    p.set_defaults(func=cmd_strengths)

    p = sub.add_parser("spam", help="simulate or analyze SPAM confusion matrices")
    _add_global_args(p, suppress=True)
    p.add_argument("--errors", default=None, help="zero | table-e5 | params.json")
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--mode", choices=["first-bright", "strict-single-bright"], default=None)
    p.add_argument("--encoding", default=None)
    p.add_argument("--analyze", default=None, help="confusion CSV to analyze instead")
    p.set_defaults(func=cmd_spam)

    p = sub.add_parser("fit", help="least-squares fits")
    _add_global_args(p, suppress=True)
    p.add_argument("kind", choices=["error-scaling", "lorentzian", "rabi", "calibration"])
    p.add_argument("input")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("estimate-b", help="field estimate from measured splittings")
    _add_global_args(p, suppress=True)
    p.add_argument("input")
    p.set_defaults(func=cmd_estimate_b)

    p = sub.add_parser("calibrate-demo", help="synthetic calibration workflow")
    _add_global_args(p, suppress=True)
    p.add_argument("--b-center", dest="b_center", type=float, default=None)
    p.add_argument("--drift", type=float, default=None)
    p.add_argument("--sessions", type=int, default=None)
    p.set_defaults(func=cmd_calibrate_demo)

    p = sub.add_parser("budget", help="SPAM timing budget")
    _add_global_args(p, suppress=True)
    p.add_argument("--fluorescence-ms", dest="fluorescence_ms", type=float, default=None)
    p.add_argument("--awg-ms", dest="awg_ms", type=float, default=None)
    p.add_argument("--optical-pump-ms", dest="optical_pump_ms", type=float, default=None)
    p.set_defaults(func=cmd_budget)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        args.func(args, cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
