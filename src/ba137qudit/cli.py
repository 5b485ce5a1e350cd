"""Command-line front end.

Subcommands: levels, eigenstates, strengths, spam, fit, estimate-b,
calibrate-demo, budget.  Every command is reproducible: the same config
and seed produce byte-identical primary output files.  Outputs are data
only (CSV/JSON ready for external plotting).

Each parameter is one ``PARAMS`` row; before a command runs, ``main`` takes
its flag, else its --config entry, else its default, and checks it.  A
command returns the files it makes as ``(name, write)`` pairs, and only
after it succeeds does ``main`` write them into --out.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import angmom, atomstruct, calib, fixtures, noise, spam, transitions
from .fixtures import (
    _NUMBER, TableError, _json, _number, _read_csv, _read_json, _write_csv, _write_json,
)

# --level name -> the name of its preset in atomstruct.  Every library
# module is read only when a command runs, so a command loads only the
# modules it uses
LEVELS = {"6S1/2": "BA137_S12", "5D5/2": "BA137_D52"}

# gauss: the field of the 13-level experiment
_B_EXPERIMENT = 8.35
# most field values a --b range may hold
_MAX_FIELDS = 100_001
# most shots per state: spam.post_select rounds shots * probability to an
# int64, which is exact, and fits, for every count up to 2**53
_MAX_SHOTS = 2**53


class CliError(Exception):
    pass


def _finite(value, flag, nonnegative=False):
    """A flag or config value as a finite float, nonnegative if asked; None
    (an optional value left unset) stays None."""
    if value is None:
        return None
    x = float(value)
    if not math.isfinite(x) or (nonnegative and x < 0):
        kind = "finite, nonnegative" if nonnegative else "finite"
        raise CliError(f"{flag} must be a {kind} number, got {value!r}")
    return x


_nonnegative = partial(_finite, nonnegative=True)


def _drift(value, flag):
    x = _nonnegative(value, flag)
    if x == 0.0:
        raise CliError(f"{flag} must be positive: sessions at one field cannot calibrate")
    return x


def _at_least(n, why="", most=None):
    def check(value, flag):
        if value < n:
            raise CliError(f"{flag} must be at least {n}{why}, got {value}")
        if most is not None and value > most:
            raise CliError(f"{flag} must be at most {most}, got {value}")
        return value

    return check


def _one_of(options):
    def check(value, flag):
        if value not in options:
            raise CliError(f"unknown {flag} {value!r}; pick from {sorted(options)}")
        return value

    return check


def _half_int(value, flag):
    """A state label, given by flag or config, checked to be a half-integer
    and kept as given: the output file is named from it."""
    try:
        angmom.HalfInt.coerce(float(value))
    except (TypeError, ValueError):
        raise CliError(f"eigenstates needs {flag} as a half-integer, got {value!r}") from None
    return value


def _parse_b_range(text, flag):
    """The field values of a start:stop[:step] range in gauss."""
    parts = text.split(":")
    if len(parts) == 2:
        parts.append("0.1")
    try:
        start, stop, step = map(float, parts)
    except ValueError:
        raise CliError(f"bad {flag} range {text!r}; expected start:stop[:step]") from None
    if not (0.0 <= start <= stop < math.inf and 0.0 <= step < math.inf):
        raise CliError(f"bad {flag} range {text!r}; need finite 0 <= start <= stop, step >= 0")
    if stop == start or step == 0:
        return [start]
    steps = (stop - start) / step
    if steps > _MAX_FIELDS - 1:
        raise CliError(f"{flag} range {text!r} has more than {_MAX_FIELDS} points")
    return [start + i * step for i in range(int(round(steps)) + 1)]


class _Param(NamedTuple):
    """One parameter: its flag, the JSON kind of its config value, its default,
    and the check that turns a given value into the one the command reads."""

    flag: str
    kind: type | tuple
    default: object = None
    check: Callable | None = None
    choices: tuple | None = None
    help: str | None = None


# spam.MODES, and below the angles of transitions.PAPER13_GEOMETRY, kept
# as data so that parsing a command loads neither module
_MODES = ("first-bright", "strict-single-bright")


# every parameter, by config key (also its name in the parsed arguments);
# a value comes from its flag, else the --config file, else the default
PARAMS = {
    "level": _Param("--level", str, "5D5/2", _one_of(LEVELS)),
    "b_range": _Param("--b", str, "0:10:0.05", _parse_b_range, help="start:stop:step in gauss"),
    "b_mark": _Param("--b-mark", _NUMBER, None, _nonnegative),
    "f": _Param("--f-tilde", _NUMBER + (str,), None, _half_int),
    "m": _Param("--m-tilde", _NUMBER + (str,), None, _half_int),
    "b_gauss": _Param("--b", _NUMBER, _B_EXPERIMENT, _nonnegative),
    "phi_deg": _Param("--phi", _NUMBER, 45.0, _finite),
    "gamma_deg": _Param("--gamma", _NUMBER, 58.0, _finite),
    "threshold": _Param("--threshold", _NUMBER, 0.03, _finite),
    "errors": _Param("--errors", str, "table-e5", help="zero | table-e5 | params.json"),
    "shots": _Param("--shots", int, 1000, _at_least(1, most=_MAX_SHOTS)),
    "mode": _Param("--mode", str, "first-bright", _one_of(_MODES), choices=_MODES),
    "seed": _Param("--seed", int, 0, _at_least(0)),
    "b_center": _Param("--b-center", _NUMBER, _B_EXPERIMENT, _nonnegative),
    "drift": _Param("--drift", _NUMBER, 0.02, _drift),
    "sessions": _Param("--sessions", int, 5, _at_least(2, " for the linear calibration")),
    # budget times in ms; unset, each is the bundled reference timing
    "fluorescence_ms": _Param("--fluorescence-ms", _NUMBER, None, _nonnegative),
    "awg_ms": _Param("--awg-ms", _NUMBER, None, _nonnegative),
    "optical_pump_ms": _Param("--optical-pump-ms", _NUMBER, None, _nonnegative),
}


def _read_config(cfg, where):
    unknown = set(cfg) - set(PARAMS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for where.key, value in cfg.items():
        _json(value, PARAMS[where.key].kind)
    return cfg


def _resolve(args, keys):
    """Set each parameter in ``keys`` on ``args``: its flag's value, else its
    entry in the --config file, else its default, through its check."""
    cfg = {} if args.config is None else _read_json(args.config, _read_config)
    for key in keys:
        param = PARAMS[key]
        value = getattr(args, key)
        if value is None:
            value = cfg.get(key, param.default)
        if param.check is not None:
            value = param.check(value, param.flag)
        setattr(args, key, value)


def _level(name):
    """The ``atomstruct`` preset of a --level name."""
    return getattr(atomstruct, LEVELS[name])


def cmd_levels(args):
    bs = args.b_range
    level = _level(args.level)
    labels = atomstruct._table(level).labels
    ref = atomstruct.StateRef
    if level is atomstruct.BA137_D52:  # lines from the encoding's ground state |F=2, m=2>
        ground = ref.of(atomstruct.BA137_S12, 2, 2)
        values = atomstruct._frequencies([(ground, ref(level, F, m)) for F, m in labels], bs)
    else:  # energies relative to the level centroid
        values = atomstruct._energies(level, bs)
    names = [f"F{F}_m{m}" for F, m in labels]
    header, mark = ["B_gauss", "state_label", "frequency_MHz"], []
    if args.b_mark is not None:
        header, mark = header + ["b_mark_gauss"], [repr(args.b_mark)]
    rows = (
        [repr(b + 0.0), name, repr(value)] + mark  # + 0.0: -0.0 G is written 0.0
        for b, row_values in zip(bs, values)  # one row's floats at a time
        for name, value in zip(names, row_values.tolist())
    )
    return [(f"levels_{args.level.replace('/', '')}.csv",
             partial(_write_csv, header=header, rows=rows))]


def cmd_eigenstates(args):
    try:
        scan = atomstruct.decomposition_scan(_level(args.level), args.f, args.m, args.b_range)
    except KeyError as exc:
        raise CliError(str(exc))
    return [(f"eigenstate_{args.level.replace('/', '')}_F{args.f}_m{args.m}.csv",
             partial(atomstruct.write_decomposition_scan, scan=scan))]


def cmd_strengths(args):
    geometry = transitions.LaserGeometry(args.phi_deg, args.gamma_deg)
    table = transitions.strength_table(args.b_gauss, geometry)
    d_keys, s_keys, ref = fixtures.load_strength_fixture(args.fixtures_dir)
    dev = float(np.max(np.abs(table.values - ref)))
    report = {
        "B_gauss": args.b_gauss,
        "phi_deg": args.phi_deg,
        "gamma_deg": args.gamma_deg,
        "max_abs_deviation_vs_reference": dev,
    }
    if args.list_encodable:
        picked = [atomstruct.StateRef(atomstruct.BA137_D52, *p)
                  for p in transitions.encodable_states(table, args.threshold)]
        report["encodable_states"] = [state.key for state in picked]
        print(f"strengths: {len(picked)} states above {args.threshold}:")
        for i, state in enumerate(picked, start=1):
            print(f"  |{i}> = {state}")
    print(f"strengths: max abs deviation vs bundled reference = {dev:.2e}")
    return [("strengths", {".csv": table.to_csv, ".json": table.to_json}),
            ("strengths_report.json", partial(_write_json, doc=report))]


def cmd_spam(args):
    if args.analyze:
        m = spam.read_confusion_csv(args.analyze)
        fid, sigma = spam.average_fidelity(m)
        kind = "raw" if m.has_null else "post-selected"
        print(f"spam: {kind} average error {1 - fid:.3f} +/- {sigma:.3f} ({args.analyze})")
        return [("spam_analysis.json", partial(_write_json, doc={
            "input": str(args.analyze), "kind": kind,
            "average_fidelity": fid, "uncertainty": sigma}))]

    encoding = spam.paper13_encoding()
    if args.errors == "zero":
        errors = spam.ErrorParams.zero(encoding)
    elif args.errors == "table-e5":
        errors = spam.error_params_from_reference(args.fixtures_dir)
    else:
        errors = spam.error_params_from_json(args.errors)

    try:
        raw = spam.run_experiment(encoding, errors, args.shots, seed=args.seed, mode=args.mode)
    except spam.MissingTransitionError as exc:
        raise CliError(f"{args.errors}: {exc.args[0]}") from None
    post = spam.post_select(raw)
    fid_raw, sig_raw = spam.average_fidelity(raw)
    fid_post, sig_post = spam.average_fidelity(post)
    curves = spam.scaling_analysis(
        {i: float(p) for i, p in enumerate(post.diagonal())}, range(2, encoding.d + 1)
    )

    print(f"spam: raw error {1 - fid_raw:.4f} +/- {sig_raw:.4f}, "
          f"post-selected {1 - fid_post:.4f} +/- {sig_post:.4f}")
    summary = {
        "shots_per_state": args.shots,
        "seed": args.seed,
        "mode": args.mode,
        "errors": args.errors,
        "raw_average_error": 1 - fid_raw,
        "raw_uncertainty": sig_raw,
        "post_selected_average_error": 1 - fid_post,
        "post_selected_uncertainty": sig_post,
        "note": (
            "drift-free model: measured per-state errors ran about "
            "1.5 +/- 2 percentage points above the single-pulse prediction "
            "because parameters drift between calibration and data taking"
        ),
    }
    scaling = ([d, repr(float(o)), repr(float(wv))]
               for d, o, wv in zip(curves.d_values, curves.optimal, curves.worst))
    return [
        *((f"spam_{name}", {
            ".csv": partial(spam.write_confusion_csv, matrix=m),
            ".json": partial(_write_json, doc={
                "has_null": m.has_null,
                "shots": [int(s) for s in m.shots],
                "probs": [[float(x) for x in row] for row in m.probs],
            }),
        }) for name, m in (("raw", raw), ("post", post))),
        ("spam_scaling.csv", partial(
            _write_csv, header=["d", "optimal_fidelity", "worst_fidelity"], rows=scaling)),
        ("spam_summary.json", partial(_write_json, doc=summary)),
    ]


def _read_trace(path, trace, x, y):
    """A ``calib.FrequencyScan`` or ``calib.RabiTrace`` from a table's x, y and shots."""
    _, rows = _read_csv(path, lambda r: (_number(r[x]), _number(r[y]), int(r["shots"])))
    try:
        return trace(*zip(*rows))
    except ValueError as exc:
        raise TableError(f"{path}: {exc}") from None


def _snapshot(row):
    """A calibration session: f_offset_MHz, f_low_MHz, f_up_MHz, fN_MHz columns."""
    freqs = {
        int(k[1:-4]): _number(v)
        for k, v in row.items()
        if k.startswith("f") and k.endswith("_MHz") and k[1:-4].isdigit()
    }
    if not freqs:
        raise ValueError("no fN_MHz transition columns")
    return calib.CalSnapshot(
        f_offset=_number(row["f_offset_MHz"]),
        f_low=_number(row["f_low_MHz"]),
        f_up=_number(row["f_up_MHz"]),
        freqs=freqs,
    )


def cmd_fit(args):
    kind = args.kind
    path = args.input
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
        print(f"fit: intercept = {fit.intercept:.4f} +/- {fit.intercept_err:.4f}, "
              f"scale = {fit.scale:.4g} +/- {fit.scale_err:.4g}")
        rows = ([repr(float(xi)), repr(float(e)), repr(float(r))]
                for xi, (_, _, e), r in zip(x, points, resid))
        return [("fit_error_scaling.json", partial(_write_json, doc=doc)),
                ("fit_error_scaling_residuals.csv", partial(
                    _write_csv, header=["x_kappa2_tau2", "eps_spam", "residual"], rows=rows))]
    if kind == "lorentzian":
        fit = calib.fit_lorentzian(_read_trace(path, calib.FrequencyScan, "freq_kHz", "p_dark"))
        doc = {
            "center_kHz": fit.center_khz,
            "center_err_kHz": fit.center_err,
            "width_kHz": fit.width_khz,
            "amplitude": fit.amplitude,
            "offset": fit.offset,
            "at_boundary": fit.at_boundary,
        }
        print(f"fit: center = {fit.center_khz:.3f} +/- {fit.center_err:.3f} kHz"
              + (" (AT SCAN BOUNDARY)" if fit.at_boundary else ""))
        return [("fit_lorentzian.json", partial(_write_json, doc=doc))]
    if kind == "rabi":
        fit = calib.fit_rabi_flop(_read_trace(path, calib.RabiTrace, "t_us", "p_transition"))
        doc = {
            "amplitude": fit.amplitude,
            "offset": fit.offset,
            "t_peak_us": fit.t_peak_us,
            "t_scale_us": fit.t_scale_us,
            "eps_pi": fit.eps_pi,
            "window_us": list(fit.window),
        }
        print(f"fit: eps_pi = {fit.eps_pi:.4f} (t_peak {fit.t_peak_us:.2f} us)")
        return [("fit_rabi.json", partial(_write_json, doc=doc))]
    if kind == "calibration":
        model = calib.fit_calibration(_read_csv(path, _snapshot)[1])
        worst = max(model.residual_rms.values())
        print(f"fit: calibrated {len(model.a1)} transitions, "
              f"worst residual rms {worst * 1e3:.3f} kHz")
        return [("fit_calibration.json", model.to_json)]
    raise CliError(f"unknown fit kind {kind!r}")


def _splitting(row):
    """((ground, excited), frequency) of a measured-splittings row: columns
    transition (e.g. S:F2:m2->D:F4:m4) and freq_MHz."""
    g, e = (atomstruct.parse_atomic_state(key) for key in row["transition"].split("->"))
    return (g, e), _number(row["freq_MHz"])


def cmd_estimate_b(args):
    measured = {}
    for (g, e), freq in _read_csv(args.input, _splitting)[1]:
        if (g, e) in measured:
            raise TableError(f"{args.input}: transition {g.key}->{e.key} is listed twice")
        measured[g, e] = freq
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
    print(f"estimate-b: B = {est.B:.4f} G (residual rms {est.residual_rms * 1e3:.3f} kHz)")
    return [("estimate_b.json", partial(_write_json, doc={
        "B_gauss": est.B,
        "residual_rms_MHz": est.residual_rms,
        "per_transition_residual_MHz": residuals,
    }))]


def cmd_calibrate_demo(args):
    """Synthetic end-to-end run of the documented calibration procedure:
    coarse/fine scans at drifted fields, Lorentzian centers, linear model."""
    b_center, drift, sessions = args.b_center, args.drift, args.sessions
    if b_center < drift:  # a session field could then fall below zero
        raise CliError(f"--b-center must be at least --drift, got {b_center} < {drift}")
    rng = np.random.default_rng(args.seed)

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

    model = calib.fit_calibration(history)
    test_b = b_center + drift / 2
    truth = calib.synthetic_snapshot(test_b)
    worst = 0.0
    for n in truth.freqs:
        pred = calib.predict_frequency(model, truth.f_offset, truth.f_low, truth.f_up, n)
        worst = max(worst, abs(pred - truth.freqs[n]))
    print(f"calibrate-demo: {sessions} sessions within +/-{drift} G of {b_center} G")
    print(f"calibrate-demo: worst prediction error at B = {test_b:.3f} G: "
          f"{worst * 1e3:.3f} kHz")
    header = ["f_offset_MHz", "f_low_MHz", "f_up_MHz"] + [f"f{n}_MHz" for n in nominal.freqs]
    rows = (  # every snapshot's freqs follow nominal's keys
        [repr(float(x)) for x in (s.f_offset, s.f_low, s.f_up, *s.freqs.values())]
        for s in history
    )
    return [("calibration_history.csv", partial(_write_csv, header=header, rows=rows)),
            ("calibration_model.json", model.to_json)]


def cmd_budget(args):
    given_ms = {"fluorescence_check": args.fluorescence_ms, "awg_trigger": args.awg_ms,
                "optical_pump": args.optical_pump_ms}
    timings = replace(spam.reference_timings(args.fixtures_dir),
                      **{k: ms * 1e-3 for k, ms in given_ms.items() if ms is not None})
    budget = spam.timing_budget(spam.paper13_encoding(), timings, prepared=1)
    doc = {
        "measurement_total_ms": budget.measurement_total * 1e3,
        "preparation_total_ms": budget.preparation_total * 1e3,
        "breakdown_ms": {k: v * 1e3 for k, v in budget.breakdown},
    }
    print(f"budget: measurement {budget.measurement_total * 1e3:.2f} ms, "
          f"preparation {budget.preparation_total * 1e3:.3f} ms")
    for k, v in budget.breakdown:
        print(f"budget:   {k:<16s} {v * 1e3:9.3f} ms")
    return [("budget.json", partial(_write_json, doc=doc))]


# every command: its function, its help text and the parameters it reads
COMMANDS = {
    "levels": (cmd_levels, "state/transition frequencies vs field",
               ("level", "b_range", "b_mark")),
    "eigenstates": (cmd_eigenstates, "decomposition of one eigenstate vs field",
                    ("level", "f", "m", "b_range")),
    "strengths": (cmd_strengths, "relative transition-strength table",
                  ("b_gauss", "phi_deg", "gamma_deg", "threshold")),
    "spam": (cmd_spam, "simulate or analyze SPAM confusion matrices",
             ("errors", "shots", "mode", "seed")),
    "fit": (cmd_fit, "least-squares fits", ()),
    "estimate-b": (cmd_estimate_b, "field estimate from measured splittings", ()),
    "calibrate-demo": (cmd_calibrate_demo, "synthetic calibration workflow",
                       ("seed", "b_center", "drift", "sessions")),
    "budget": (cmd_budget, "SPAM timing budget",
               ("fluorescence_ms", "awg_ms", "optical_pump_ms")),
}


def _add_flag(p: argparse.ArgumentParser, key: str, default=None) -> None:
    param = PARAMS[key]
    p.add_argument(param.flag, dest=key, type={int: int, _NUMBER: float}.get(param.kind),
                   choices=param.choices, default=default, help=param.help)


def _add_global_args(p: argparse.ArgumentParser, suppress: bool) -> None:
    # the same flags are accepted before or after the subcommand; the
    # subparser copies use SUPPRESS so they only override when given
    d = argparse.SUPPRESS if suppress else None
    _add_flag(p, "seed", default=d)
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
    for name, (_, help_text, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_global_args(p, suppress=True)
        for key in keys:
            if key != "seed":  # a global flag, added above
                _add_flag(p, key)

    cmd = sub.choices  # the arguments that are not parameters
    cmd["strengths"].add_argument("--list-encodable", action="store_true")
    cmd["spam"].add_argument("--analyze", help="confusion CSV to analyze instead")
    cmd["fit"].add_argument("kind", choices=["error-scaling", "lorentzian", "rabi", "calibration"])
    cmd["fit"].add_argument("input")
    cmd["estimate-b"].add_argument("input")
    return parser


def _write(args, outputs) -> None:
    """Write a command's ``(name, write)`` outputs into --out, csv before json,
    and print one line per file.  A table in two formats is ``(stem, {suffix:
    write})``; --format picks among those and is refused if there are none."""
    formats = {None: [".csv"], "csv": [".csv"], "json": [".json"], "both": [".csv", ".json"]}
    if args.format is not None and not any(isinstance(w, dict) for _, w in outputs):
        raise CliError(f"--format: {args.command} writes no table in more than one format")
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    for name, write in outputs:
        files = ([(name + s, write[s]) for s in formats[args.format]]
                 if isinstance(write, dict) else [(name, write)])
        for file, write_file in files:
            write_file(out / file)
            print(f"{args.command}: wrote {out / file}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    func, _, keys = COMMANDS[args.command]
    try:
        _resolve(args, keys)
        _write(args, func(args))
    except (CliError, TableError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
