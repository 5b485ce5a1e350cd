"""Calibration procedures: line fitting, linear frequency calibration,
field estimation, Rabi-flop error extraction, and ratio-based pi times.

The frequency calibration needs only three empirically measured
transitions per session: an offset reference (the transition least
sensitive to field, so it pins the common optical offset) and a low/up
pair with the largest mutual sensitivity spread (so their difference
Delta f tracks the field).  Every other transition frequency is then
predicted as f_n = a_n1 * Delta f + f_offset + a_n2 with per-transition
coefficients regressed from drift history.

The Lorentzian and Rabi fits and the field estimate run on the package's
numpy least-squares solver (Levenberg-Marquardt on analytic Jacobians), so
this module needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from . import _lsq, atomstruct, transitions
from ._lsq import FitError
from .fixtures import _NUMBER, _json, _number, _read_json, _write_json

if TYPE_CHECKING:
    from .atomstruct import StateRef
    from .transitions import StrengthTable

__all__ = [
    "FrequencyScan",
    "LorentzianFit",
    "CalSnapshot",
    "CalibrationModel",
    "RabiTrace",
    "RabiFit",
    "FieldEstimate",
    "ScanPlan",
    "FitError",
    "fit_lorentzian",
    "fit_calibration",
    "predict_frequency",
    "estimate_field",
    "fit_rabi_flop",
    "ratio_pi_calibration",
    "detuned_rabi",
    "select_references",
    "scan_plan",
    "simulate_splittings",
    "paper13_transition_refs",
    "reference_trio",
    "synthetic_snapshot",
]


def _require_finite_arrays(**arrays: np.ndarray) -> None:
    """Raise ValueError naming the first array that holds a non-finite value."""
    for name, values in arrays.items():
        bad = values[~np.isfinite(values)]
        if bad.size:
            raise ValueError(f"{name} must be finite, got {float(bad[0])!r}")


@dataclass(frozen=True, eq=False)
class FrequencyScan:
    """Dark-probability vs laser-frequency offset, from a fine scan."""

    freq_khz: np.ndarray
    p_dark: np.ndarray
    shots: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "freq_khz", np.asarray(self.freq_khz, dtype=float))
        object.__setattr__(self, "p_dark", np.asarray(self.p_dark, dtype=float))
        object.__setattr__(self, "shots", np.asarray(self.shots))
        _require_finite_arrays(freq_khz=self.freq_khz, p_dark=self.p_dark)
        if not np.all(np.diff(self.freq_khz) > 0):
            raise ValueError("scan frequencies must be strictly increasing")
        if np.any((self.p_dark < 0) | (self.p_dark > 1)):
            raise ValueError("probabilities must be in [0, 1]")


@dataclass(frozen=True)
class LorentzianFit:
    center_khz: float
    width_khz: float  # half width at half maximum
    amplitude: float
    offset: float
    center_err: float
    covariance: np.ndarray = field(repr=False, compare=False, default=None)
    at_boundary: bool = False


def fit_lorentzian(scan: FrequencyScan) -> LorentzianFit:
    """Least-squares fit of p(f) = a w^2 / ((f - f0)^2 + w^2) + c to a fine
    frequency scan.

    A center within one grid step of either scan edge is flagged
    ``at_boundary`` (the scan window should be re-centered).
    """
    f, y = scan.freq_khz, scan.p_dark
    if len(f) < 5:
        raise FitError("need at least 5 scan points")
    c0 = float(min(y[0], y[-1]))
    a0 = float(y.max() - c0)
    if a0 <= 0:
        raise FitError("scan has no peak above the baseline")
    f0 = float(f[np.argmax(y)])
    w0 = max((f[-1] - f[0]) / 6.0, 1e-6)

    def resid_jac(p):
        f0, w, a, c = p
        d = f - f0
        w2 = w**2
        q = d**2 + w2
        q2 = q**2
        J = np.empty((f.size, 4))
        J[:, 0] = 2 * a * w2 * d / q2
        J[:, 1] = 2 * a * w * d**2 / q2
        J[:, 2] = w2 / q
        J[:, 3] = 1.0
        return a * w2 / q + c - y, J

    res = _lsq.least_squares(resid_jac, [f0, w0, a0, c0])
    if not res.converged:
        raise FitError(f"Lorentzian fit did not converge in {res.iterations} steps")
    cov = res.covariance()
    center, width = float(res.x[0]), float(abs(res.x[1]))
    step = float(np.min(np.diff(f)))
    boundary = center <= f[0] + step or center >= f[-1] - step
    return LorentzianFit(
        center_khz=center,
        width_khz=width,
        amplitude=float(res.x[2]),
        offset=float(res.x[3]),
        center_err=float(np.sqrt(cov[0, 0])),
        covariance=cov,
        at_boundary=bool(boundary),
    )


@dataclass(frozen=True, eq=False)
class CalSnapshot:
    """One calibration session: the three reference frequencies plus the
    measured frequency of every encoded transition (MHz)."""

    f_offset: float
    f_low: float
    f_up: float
    freqs: Mapping[int, float]


@dataclass(eq=False)
class CalibrationModel:
    """Per-transition linear model f_n = a_n1 (f_up - f_low) + f_offset + a_n2."""

    a1: dict[int, float]
    a2: dict[int, float]
    residual_rms: dict[int, float]
    references: tuple[str, str, str] = ("offset", "low", "up")

    def to_json(self, path) -> None:
        doc = {
            "references": list(self.references),
            "transitions": {
                str(n): {
                    "a1": self.a1[n],
                    "a2_MHz": self.a2[n],
                    "residual_rms_MHz": self.residual_rms[n],
                }
                for n in sorted(self.a1)
            },
        }
        _write_json(path, doc)

    @classmethod
    def from_json(cls, path) -> "CalibrationModel":
        """Read what ``to_json`` writes.  A file that is not such a document,
        or a coefficient that is not a finite number, raises TableError
        naming the file and the key at fault."""

        def read(doc, where):
            where.key = "references"
            references = tuple(_json(r, str) for r in _json(doc[where.key], list))
            a1, a2, rms = {}, {}, {}
            where.key = "transitions"
            for key, entry in _json(doc[where.key], dict).items():
                where.key = f"transitions {key}"
                n, entry = int(key), _json(entry, dict)
                for table, name in ((a1, "a1"), (a2, "a2_MHz"), (rms, "residual_rms_MHz")):
                    where.key = f"transitions {key} {name}"
                    table[n] = _number(_json(entry[name], _NUMBER))
            return cls(a1=a1, a2=a2, residual_rms=rms, references=references)

        return _read_json(path, read)


def fit_calibration(history: Sequence[CalSnapshot]) -> CalibrationModel:
    """Ordinary least squares of f_n - f_offset against Delta f = f_up - f_low,
    one regression per transition.  Needs >= 2 snapshots with distinct Delta f;
    a frequency that is not finite raises ValueError naming its session."""
    if len(history) < 2:
        raise FitError("need at least 2 calibration snapshots")
    for i, s in enumerate(history):
        named = [("f_offset", s.f_offset), ("f_low", s.f_low), ("f_up", s.f_up)]
        for name, f in named + [(f"transition {n}", f) for n, f in s.freqs.items()]:
            if not math.isfinite(f):
                raise ValueError(f"session {i}: {name} frequency must be finite, got {f!r}")
    dfs = np.array([s.f_up - s.f_low for s in history])
    if np.ptp(dfs) < 1e-12:
        raise FitError("rank-deficient history: all snapshots have equal Delta f")
    keys = set(history[0].freqs)
    for s in history[1:]:
        if set(s.freqs) != keys:
            raise FitError("snapshots disagree on which transitions were measured")
    a1, a2, rms = {}, {}, {}
    for n in sorted(keys):
        y = np.array([s.freqs[n] - s.f_offset for s in history])
        slope, intercept = np.polyfit(dfs, y, 1)
        a1[n] = float(slope)
        a2[n] = float(intercept)
        rms[n] = float(np.sqrt(np.mean((slope * dfs + intercept - y) ** 2)))
    return CalibrationModel(a1=a1, a2=a2, residual_rms=rms)


def predict_frequency(
    model: CalibrationModel, f_offset: float, f_low: float, f_up: float, n: int
) -> float:
    if n not in model.a1:
        raise KeyError(f"transition {n} not in the calibration model")
    for name, f in (("f_offset", f_offset), ("f_low", f_low), ("f_up", f_up)):
        if not math.isfinite(f):
            raise ValueError(f"{name} frequency must be finite, got {f!r}")
    return model.a1[n] * (f_up - f_low) + f_offset + model.a2[n]


@dataclass(frozen=True)
class FieldEstimate:
    B: float  # gauss
    residual_rms: float  # MHz
    reference: tuple


_GRID_STEP = 0.25  # G, the spacing of estimate_field's coarse grid
_GRID = np.arange(1e-4, 20.0 + _GRID_STEP, _GRID_STEP)
_GRID.setflags(write=False)


def estimate_field(measured: Mapping[tuple[StateRef, StateRef], float]) -> FieldEstimate:
    """Least-squares field estimate from measured transition frequencies.

    Frequencies are compared relative to the first transition in the map (any
    common optical offset drops out), so at least two transitions with
    distinct field sensitivity are required, and every frequency must be
    finite.  A coarse grid from 1e-4 G to 20 G in steps of 0.25 G finds the
    local minima; each is refined by Gauss-Newton on the Hellmann-Feynman
    slopes, clamped to its grid bracket.  The grid's energies are cached per
    level, so only the first estimate solves the grid, and a fresh field
    pays only its Gauss-Newton solves.  The residual and the Jacobian of a
    step read the same cached per-(level, field) solve.  Two separated
    minima that refine to the same cost make the data ambiguous and raise
    ``FitError``.  A best minimum pinned on the grid's first or last point
    means the field lies outside the grid, or the lines fit no field, and
    raises ``FitError`` too.  A true field of 0 G lies below the 1e-4 G floor,
    so it raises.
    """
    pairs = list(measured.keys())
    if len(pairs) < 2:
        raise ValueError("need at least two measured transitions")
    for (g, e), f in measured.items():
        if not math.isfinite(f):
            raise ValueError(f"measured frequency of {g.key}->{e.key} must be finite, got {f!r}")
    ref = pairs[0]
    meas = np.array([measured[p] - measured[ref] for p in pairs[1:]])
    rows = atomstruct._line_rows(pairs)

    def resid_jac(x) -> tuple[np.ndarray, np.ndarray]:
        sims, slopes = atomstruct._lines_at(rows, x[0])
        return sims[1:] - sims[:1] - meas, (slopes[1:] - slopes[0])[:, None]

    sims = atomstruct._frequencies(pairs, _GRID)
    values = np.sum((sims[:, 1:] - sims[:, :1] - meas) ** 2, axis=1)
    best = int(np.argmin(values))
    starts = {best} | {
        i
        for i in range(1, len(_GRID) - 1)
        if values[i] <= values[i - 1] and values[i] <= values[i + 1]
    }
    minima = []
    for i in sorted(starts):
        left, right = _GRID[max(i - 1, 0)], _GRID[min(i + 1, len(_GRID) - 1)]
        res = _lsq.least_squares(resid_jac, [_GRID[i]], lower=[left], upper=[right])
        if not res.converged:
            raise FitError(
                f"field estimate did not converge in {res.iterations} steps near B = {_GRID[i]} G"
            )
        minima.append((2.0 * res.cost, float(res.x[0])))
    sq, B = min(minima)

    # a second, separated minimum this deep means the data cannot pin the
    # field; report rather than silently picking one
    deep = [b for v, b in minima if v <= sq + 1e-9 * (1 + sq)]
    if max(deep) - min(deep) > 2 * _GRID_STEP:
        raise FitError(
            f"field estimate is ambiguous: near-equal minima at B = "
            f"{[round(b, 4) for b in deep]} G"
        )
    rms = math.sqrt(sq / max(len(meas), 1))
    if not _GRID[0] < B < _GRID[-1]:
        edge = "lower" if B <= _GRID[0] else "upper"
        raise FitError(
            f"field estimate is pinned at the {edge} edge of the grid, B = {B:.4f} G "
            f"(residual rms {rms * 1e3:.3f} kHz): no field in [{_GRID[0]:.4f}, "
            f"{_GRID[-1]:.4f}] G fits the lines"
        )
    return FieldEstimate(B=B, residual_rms=rms, reference=ref)


def simulate_splittings(
    transitions: Sequence[tuple[StateRef, StateRef]], B: float
) -> dict[tuple[StateRef, StateRef], float]:
    """Model-generated transition frequencies, e.g. for round-trip tests."""
    vals = atomstruct._lines_at(atomstruct._line_rows(transitions), B)[0]
    return dict(zip(transitions, vals.tolist()))


@dataclass(frozen=True, eq=False)
class RabiTrace:
    """Transition probability vs pulse duration."""

    t_us: np.ndarray
    p: np.ndarray
    shots: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t_us", np.asarray(self.t_us, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "shots", np.asarray(self.shots))
        _require_finite_arrays(t_us=self.t_us, p=self.p)
        if np.any(self.t_us < 0) or not np.all(np.diff(self.t_us) > 0):
            raise ValueError("times must be nonnegative and increasing")
        if np.any((self.p < 0) | (self.p > 1)):
            raise ValueError("probabilities must be in [0, 1]")


@dataclass(frozen=True)
class RabiFit:
    amplitude: float  # A
    offset: float  # C
    t_peak_us: float
    t_scale_us: float
    eps_pi: float  # 1 - A - C
    window: tuple[float, float]
    covariance: np.ndarray = field(repr=False, compare=False, default=None)


def _first_peak_time(t: np.ndarray, p: np.ndarray) -> float:
    """Time of the highest raw point within the first oscillation peak.

    The peak region ends at the first smoothed local minimum that falls
    below half maximum after the trace first comes within 80% of its top;
    noise bumps on the rising edge stay below both gates.
    """
    s = p.copy()
    if len(p) >= 3:
        s[1:-1] = (p[:-2] + p[1:-1] + p[2:]) / 3.0
    top = float(s.max())
    if top - float(s.min()) < 0.05:
        raise FitError("no identifiable first peak in the Rabi trace")
    i_top = int(np.argmax(s >= 0.8 * top))
    i_end = len(s) - 1
    for i in range(i_top + 1, len(s) - 1):
        if s[i] <= s[i - 1] and s[i] <= s[i + 1] and s[i] < 0.5 * top:
            i_end = i
            break
    window = slice(0, i_end + 1)
    return float(t[window][np.argmax(p[window])])


def fit_rabi_flop(trace: RabiTrace) -> RabiFit:
    """Extract the single-pulse error from the first Rabi oscillation peak.

    Fits p(t) = A cos^2(pi (t - t_peak) / (2 t_scale)) + C on the points
    between half and one-and-a-half times the empirical peak time; the
    pulse error is eps_pi = 1 - A - C.  Smoothing (3-point moving average)
    is used only to locate the peak, never in the fit.
    """
    t, p = trace.t_us, trace.p
    t_peak_r = _first_peak_time(t, p)
    mask = (t >= t_peak_r / 2.0) & (t <= 1.5 * t_peak_r)
    if int(mask.sum()) < 5:
        raise FitError(
            f"only {int(mask.sum())} points in the fit window around {t_peak_r} us"
        )
    tw, pw = t[mask], p[mask]

    p_max = float(pw.max())
    p_min = float(pw.min())
    x0 = [max(p_max - p_min, 0.1), p_min, t_peak_r, t_peak_r]
    # bounded fit: the window spans half an oscillation, so an unbounded
    # time scale is degenerate with the amplitude and wanders under noise
    lower = [0.0, -0.5, t_peak_r / 2.0, t_peak_r / 4.0]
    upper = [1.5, 0.5, 1.5 * t_peak_r, 4.0 * t_peak_r]
    x0 = np.clip(x0, lower, upper)

    def resid_jac(params):
        a, c, tp, ts = params
        theta = np.pi * (tw - tp) / (2.0 * ts)
        cos2 = np.cos(theta) ** 2
        sin2 = a * np.sin(2.0 * theta)
        J = np.empty((tw.size, 4))
        J[:, 0] = cos2
        J[:, 1] = 1.0
        J[:, 2] = sin2 * np.pi / (2.0 * ts)
        J[:, 3] = sin2 * theta / ts
        return a * cos2 + c - pw, J

    res = _lsq.least_squares(resid_jac, x0, lower=lower, upper=upper)
    if not res.converged:
        raise FitError(f"Rabi fit did not converge in {res.iterations} steps")
    a, c, tp, ts = res.x
    cov = res.covariance()
    return RabiFit(
        amplitude=float(a),
        offset=float(c),
        t_peak_us=float(tp),
        t_scale_us=float(abs(ts)),
        eps_pi=float(1.0 - a - c),
        window=(float(tw[0]), float(tw[-1])),
        covariance=cov,
    )


def ratio_pi_calibration(
    measured: Mapping[int, tuple[tuple, float]],
    strengths: StrengthTable,
    targets: Sequence[tuple],
) -> dict[tuple, tuple[float, float]]:
    """Predict Rabi frequencies from per-q anchor measurements.

    measured maps q -> ((ground label, excited label), Omega_rad_per_s) for
    one measured anchor transition per q.  Each target transition with the
    same Delta m = q is predicted as Omega' = (K'/K) Omega, which is
    laser-independent because the geometric factor cancels within a q
    class.  Cross-q ratios are refused: a target's q must have an anchor.
    Returns target -> (Omega, tau_pi = pi/Omega).
    """
    from .angmom import HalfInt

    def delta_m(pair) -> int:
        s_label, d_label = pair
        twice = HalfInt.coerce(d_label[1]).twice - HalfInt.coerce(s_label[1]).twice
        return twice // 2

    anchors = {}
    for q, (pair, omega) in measured.items():
        if delta_m(pair) != q:
            raise ValueError(
                f"anchor for q = {q} has Delta m = {delta_m(pair)}: cross-q "
                "ratios are not laser-independent and are refused"
            )
        strength = strengths.value(pair[1], pair[0])
        if strength <= 0.0:
            raise ValueError(f"anchor transition {pair} has zero strength")
        anchors[q] = (strength, omega)

    out = {}
    for pair in targets:
        q = delta_m(pair)
        if q not in anchors:
            raise KeyError(f"no anchor measured for q = {q} (target {pair})")
        k_anchor, omega_anchor = anchors[q]
        k_target = strengths.value(pair[1], pair[0])
        omega = omega_anchor * k_target / k_anchor
        if omega <= 0.0:
            out[pair] = (0.0, math.inf)
        else:
            out[pair] = (omega, math.pi / omega)
    return out


def detuned_rabi(omega: float, delta: float) -> float:
    """Effective Rabi frequency sqrt(Omega^2 + delta^2) off resonance."""
    return math.hypot(omega, delta)


def select_references(
    kappas: Mapping[object, float],
) -> tuple[object, object, object]:
    """(offset, low, up) references: minimum |kappa| pins the offset; the
    most negative / most positive kappa pair maximizes the Delta f lever.
    Operators may override, e.g. to prefer pure stretched transitions."""
    if len(kappas) < 3:
        raise ValueError("need at least three candidate transitions")
    offset = min(kappas, key=lambda k: abs(kappas[k]))
    low = min(kappas, key=lambda k: kappas[k])
    up = max(kappas, key=lambda k: kappas[k])
    if len({offset, low, up}) != 3:
        raise ValueError("reference transitions must be distinct")
    return offset, low, up


@dataclass(frozen=True)
class ScanPlan:
    """Two-stage frequency search: coarse grid, then fine grid at the
    coarse minimum (offsets in kHz relative to the last known center)."""

    coarse_offsets: tuple[float, ...]
    fine_span: float
    fine_step: float

    def fine_offsets(self, coarse_center: float) -> tuple[float, ...]:
        n = int(round(2 * self.fine_span / self.fine_step)) + 1
        return tuple(coarse_center - self.fine_span + i * self.fine_step for i in range(n))


def scan_plan() -> ScanPlan:
    """The session search: a 10 kHz grid over +/-50 kHz, then a 1 kHz grid
    over +/-10 kHz around the coarse minimum."""
    coarse_span, coarse_step = 50.0, 10.0
    n = int(round(2 * coarse_span / coarse_step)) + 1
    coarse = tuple(-coarse_span + i * coarse_step for i in range(n))
    return ScanPlan(coarse_offsets=coarse, fine_span=10.0, fine_step=1.0)


def paper13_transition_refs() -> dict[int, tuple[StateRef, StateRef]]:
    """Encoded transitions |0> <-> |n> of the 13-level scheme, n = 1..12,
    as pairs of the states of ``spam.paper13_encoding``."""
    states = transitions._PAPER13_STATES
    return {n: (states[0], states[n]) for n in range(1, len(states))}


def reference_trio() -> dict[str, tuple[StateRef, StateRef]]:
    """The published reference choice: the least field-sensitive encoded
    transition as offset, the two pure stretched transitions as low/up."""
    ref, s, d = atomstruct.StateRef.of, atomstruct.BA137_S12, atomstruct.BA137_D52
    return {
        "offset": (ref(s, 2, 2), ref(d, 2, 1)),
        "low": (ref(s, 2, -2), ref(d, 4, -4)),
        "up": (ref(s, 2, 2), ref(d, 4, 4)),
    }


def synthetic_snapshot(B: float) -> CalSnapshot:
    """Model-generated calibration session at one field value."""
    refs = reference_trio()
    trans = paper13_transition_refs()
    rows = atomstruct._line_rows([refs["offset"], refs["low"], refs["up"], *trans.values()])
    f = atomstruct._lines_at(rows, B)[0]
    f_offset, f_low, f_up, *freqs = f.tolist()
    return CalSnapshot(f_offset=f_offset, f_low=f_low, f_up=f_up, freqs=dict(zip(trans, freqs)))
