"""Filter-function model of magnetic-field dephasing during pi pulses.

The transition-frequency noise PSD is piecewise: 1/f with a low-frequency
cutoff, a mains peak, and a white floor, all scaled by the square of the
transition's field sensitivity kappa.  A pi pulse of Rabi frequency Omega
filters this noise; the overlap integral chi sets the pulse error
eps_pi = (1 - exp(-chi))/2, and the post-selected SPAM error follows as
eps_pi / (eps_pi + (1 - eps_pi)^2).

Angular frequencies are rad/s throughout.  kappa enters in MHz/G and is
converted to rad/s per gauss at the boundary, so the h parameters carry
the magnetic-field noise normalization (per-gauss PSD units).  Absolute
h values are not measurable here; only the PSD shape and the
kappa^2 tau_pi^2 scaling are exercised.

Under this PSD the chi integrand on each interval between the cutoff,
the mains-peak edges and the Rabi frequency is a sum of c, a/w, c/w^2 and
a/w^3, so ``chi_numeric`` is an exact sum of antiderivatives; the
error-scaling fit runs on the package's numpy least-squares solver.  The
field-noise PSD has no evaluator of its own: chi reads it one piece at a
time, and the pi-pulse filter function and the kappa^2 factor also enter
only through chi.  The module needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lsq
from .fixtures import _number, _read_csv, _write_csv, load_transition_params

__all__ = [
    "NoiseModel",
    "TransitionNoiseParams",
    "ErrorScalingFit",
    "ErrorBudget",
    "chi_numeric",
    "chi_closed_form",
    "pi_pulse_error",
    "spam_error_from_pi",
    "fit_error_scaling",
    "error_budget",
    "reference_scaling_points",
    "load_scaling_points",
    "write_scaling_points",
]

_KAPPA_TO_RAD = 2.0 * math.pi * 1e6  # MHz/G -> rad/s per gauss


def _kappa_to_rad(kappa_mhz_per_gauss: float) -> float:
    return _KAPPA_TO_RAD * kappa_mhz_per_gauss


def _require_finite(obj) -> None:
    # a dataclass's __match_args__ is its class's tuple of field names
    for name in obj.__match_args__:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class NoiseModel:
    """Piecewise PSD of the magnetic-field noise (per-gauss units).

    S_B(w) = h_a/omega_0              for w < omega_0
           = h_peak                   inside the mains peak
           = h_a/w + h_b              otherwise
    """

    h_a: float = 0.0
    h_b: float = 0.0
    h_peak: float = 0.0
    omega_0: float = 1.0  # rad/s, low-frequency cutoff
    omega_ac: float = 2.0 * math.pi * 60.0  # rad/s, mains frequency
    delta_omega_ac: float = 2.0 * math.pi * 1.0  # rad/s, mains peak width

    def __post_init__(self):
        _require_finite(self)
        if self.omega_0 <= 0:
            raise ValueError("omega_0 must be positive")
        if not 0 <= self.delta_omega_ac < self.omega_ac:
            raise ValueError("delta_omega_ac must be nonnegative and smaller than omega_ac")
        if min(self.h_a, self.h_b, self.h_peak) < 0:
            raise ValueError("PSD levels must be nonnegative")

    def _piece(self, omega: float) -> tuple[float, float]:
        """(a, c) with S_B = a/w + c on the piece of the PSD that holds omega."""
        if omega < self.omega_0:
            return 0.0, self.h_a / self.omega_0
        if self.omega_ac - self.delta_omega_ac / 2 < omega < self.omega_ac + self.delta_omega_ac / 2:
            return 0.0, self.h_peak
        return self.h_a, self.h_b


@dataclass(frozen=True)
class TransitionNoiseParams:
    """Per-transition sensitivity and pulse duration."""

    kappa: float  # MHz/G
    tau_pi: float  # s

    def __post_init__(self):
        _require_finite(self)
        if self.tau_pi <= 0:
            raise ValueError("tau_pi must be positive")

    @property
    def omega(self) -> float:
        """Rabi frequency pi/tau_pi in rad/s."""
        return math.pi / self.tau_pi


def chi_numeric(model: NoiseModel, params: TransitionNoiseParams) -> float:
    """chi = (1/pi) int_0^inf S(w) F(w) / w^2 dw, exactly.

    Between consecutive breakpoints (0, the PSD cutoff, the mains-peak
    edges, the Rabi frequency Omega, infinity) S = a/w + c, and F/w^2 is
    4/Omega^2 below Omega and 4/w^2 above it, so each interval adds an
    elementary antiderivative.
    """
    big_omega = params.omega
    half = model.delta_omega_ac / 2
    edges = sorted({model.omega_0, model.omega_ac - half, model.omega_ac + half, big_omega})
    total = 0.0
    for lo, hi in zip([0.0] + edges, edges + [math.inf]):
        a, c = model._piece(2.0 * lo if hi == math.inf else 0.5 * (lo + hi))
        if hi <= big_omega:
            # lo = 0 only below the cutoff, where a = 0
            log_term = a * math.log(hi / lo) if a else 0.0
            total += 4.0 * (c * (hi - lo) + log_term) / big_omega**2
        else:
            total += 4.0 * (c * (1.0 / lo - 1.0 / hi) + 0.5 * a * (1.0 / lo**2 - 1.0 / hi**2))
    return _kappa_to_rad(params.kappa) ** 2 * total / math.pi


def chi_closed_form(model: NoiseModel, params: TransitionNoiseParams) -> float:
    """Approximate closed form of chi, valid for omega_ac < Omega and
    omega_0 << Omega, delta_omega_ac << omega_ac, h_b << Omega^2 delta_omega_ac:

    chi = kappa^2 [ (4/pi Omega^2)(3 h_a/2 + h_a ln(Omega/omega_0)
                    + h_peak delta_omega_ac) + 8 h_b/(pi Omega) ]
    """
    big_omega = params.omega
    if model.omega_ac >= big_omega:
        raise ValueError(
            f"closed form requires omega_ac < Omega "
            f"(got omega_ac = {model.omega_ac:g}, Omega = {big_omega:g} rad/s)"
        )
    scale = _kappa_to_rad(params.kappa) ** 2
    bracket = (
        1.5 * model.h_a
        + model.h_a * math.log(big_omega / model.omega_0)
        + model.h_peak * model.delta_omega_ac
    )
    return scale * (
        4.0 * bracket / (math.pi * big_omega**2) + 8.0 * model.h_b / (math.pi * big_omega)
    )


def pi_pulse_error(chi: float) -> float:
    """eps_pi = (1 - exp(-chi)) / 2, in [0, 1/2)."""
    if not (math.isfinite(chi) and chi >= 0):
        raise ValueError(f"chi must be finite and nonnegative, got {chi!r}")
    return 0.5 * -math.expm1(-chi)


def spam_error_from_pi(eps_pi: float) -> float:
    """Post-selected SPAM error eps_pi / (eps_pi + (1 - eps_pi)^2)."""
    if not 0 <= eps_pi < 1:
        raise ValueError("eps_pi must be in [0, 1)")
    if eps_pi == 0.0:
        return 0.0
    return eps_pi / (eps_pi + (1.0 - eps_pi) ** 2)


@dataclass(frozen=True)
class ErrorScalingFit:
    """Two-parameter fit of SPAM error against x = (kappa tau_pi)^2."""

    scale: float  # c: chi per unit x
    intercept: float  # b: x-independent error floor
    covariance: np.ndarray  # 2x2, order (scale, intercept)

    @property
    def scale_err(self) -> float:
        return float(np.sqrt(self.covariance[0, 0]))

    @property
    def intercept_err(self) -> float:
        return float(np.sqrt(self.covariance[1, 1]))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return _scaling_model(self.scale, self.intercept, np.asarray(x, dtype=float))


def _scaling_model(c: float, b: float, x: np.ndarray) -> np.ndarray:
    eps = 0.5 * -np.expm1(-c * x)
    return b + eps / (eps + (1.0 - eps) ** 2)


def fit_error_scaling(points) -> ErrorScalingFit:
    """Fit eps(x) = b + spam(pi(c x)) with x = kappa^2 tau_pi^2.

    points: iterable of (kappa, tau_pi, eps_spam).  Damped Gauss-Newton
    (Levenberg-Marquardt) with an analytic Jacobian; initialized with
    b = min eps and c from the two extreme-x points; raises FitError if
    it does not converge.
    """
    pts = [(float(k), float(t), float(e)) for k, t, e in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    for i, point in enumerate(pts):
        if not all(map(math.isfinite, point)):
            raise ValueError(f"point {i} must be finite, got {point!r}")
    x = np.array([(k * t) ** 2 for k, t, _ in pts])
    y = np.array([e for _, _, e in pts])

    b0 = float(y.min())
    i_lo, i_hi = int(np.argmin(x)), int(np.argmax(x))
    if x[i_hi] > x[i_lo]:
        c0 = max((y[i_hi] - y[i_lo]) / (x[i_hi] - x[i_lo]), 0.0)
    else:
        c0 = 0.0

    def resid_jac(p):
        c, b = p
        eps = 0.5 * -np.expm1(-c * x)
        denom = eps + (1.0 - eps) ** 2
        # d(spam)/d(eps) and d(eps)/dc by the chain rule
        dspam_deps = ((1.0 - eps) * (1.0 + eps)) / denom**2
        deps_dc = 0.5 * x * np.exp(-c * x)
        # _scaling_model(c, b, x) - y, from the terms the Jacobian shares
        return b + eps / denom - y, np.column_stack([dspam_deps * deps_dc, np.ones_like(x)])

    res = _lsq.least_squares(resid_jac, [c0, b0])
    if not res.converged:
        raise _lsq.FitError(f"error-scaling fit did not converge in {res.iterations} steps")
    return ErrorScalingFit(
        scale=float(res.x[0]), intercept=float(res.x[1]), covariance=res.covariance()
    )


def _log_poisson_pmf(k: int, lam: float) -> float:
    return k * math.log(lam) - lam - math.lgamma(k + 1)


def _poisson_cdf(k: int, lam: float) -> float:
    """P[Poisson(lam) <= k] by direct log-space summation (lam <= ~30 here)."""
    if lam == 0.0:
        return 1.0
    return sum(math.exp(_log_poisson_pmf(i, lam)) for i in range(0, k + 1))


@dataclass(frozen=True)
class ErrorBudget:
    """Secondary error estimates, each reported separately."""

    decay: float  # spontaneous decay during the longest shelved interval
    off_resonant: float  # nearest-spectator excitation probability
    discrimination: float  # bright/dark Poisson threshold misclassification

    @property
    def total(self) -> float:
        return self.decay + self.off_resonant + self.discrimination


def error_budget(
    shelf_time: float,
    lifetime: float,
    omega_off: float,
    delta: float,
    lambda_dark: float,
    lambda_bright: float,
    threshold: int,
) -> ErrorBudget:
    """Three secondary error sources:

    decay          = 1 - exp(-shelf_time/lifetime)
    off_resonant   = omega^2 / (omega^2 + delta^2)   (omega, delta in Hz)
    discrimination = P[Poisson(lambda_dark) > threshold]
                   + P[Poisson(lambda_bright) <= threshold]
    """
    args = {"shelf_time": shelf_time, "lifetime": lifetime, "omega_off": omega_off,
            "delta": delta, "lambda_dark": lambda_dark, "lambda_bright": lambda_bright}
    for name, x in args.items():
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x!r}")
    for name in ("shelf_time", "lambda_dark", "lambda_bright"):
        if args[name] < 0:
            raise ValueError(f"{name} must be nonnegative, got {args[name]!r}")
    if lifetime <= 0:
        raise ValueError(f"lifetime must be positive, got {lifetime!r}")
    if not (math.isfinite(threshold) and threshold >= 0 and threshold == int(threshold)):
        raise ValueError(f"threshold must be a nonnegative integer, got {threshold!r}")
    decay = -math.expm1(-shelf_time / lifetime)
    off_res = omega_off**2 / (omega_off**2 + delta**2) if (omega_off or delta) else 0.0
    disc = (1.0 - _poisson_cdf(int(threshold), lambda_dark)) + _poisson_cdf(
        int(threshold), lambda_bright
    )
    return ErrorBudget(decay=decay, off_resonant=off_res, discrimination=disc)


def reference_scaling_points(fixtures_dir=None) -> list[tuple[float, float, float]]:
    """(kappa, tau_pi, eps_spam) triples from the bundled per-transition
    table, for the encoded metastable states (|0> carries no pulse)."""
    out = []
    for row in load_transition_params(fixtures_dir):
        if row.index in (None, 0):
            continue
        if None in (row.kappa, row.tau_pi_us, row.spam_error):
            continue
        out.append((row.kappa, row.tau_pi_us * 1e-6, row.spam_error))
    return out


def load_scaling_points(path) -> list[tuple[float, float, float]]:
    """Read (kappa, tau_pi, eps_spam) rows; CSV columns kappa_MHz_per_G,
    tau_pi_us, eps_spam.  tau is converted from microseconds to seconds."""

    def point(row):
        kappa, tau_us = _number(row["kappa_MHz_per_G"]), _number(row["tau_pi_us"])
        return kappa, tau_us * 1e-6, _number(row["eps_spam"])

    return _read_csv(path, point)[1]


def write_scaling_points(path, points) -> None:
    _write_csv(path, ["kappa_MHz_per_G", "tau_pi_us", "eps_spam"],
               ([f"{k:.10g}", f"{t * 1e6:.10g}", f"{e:.10g}"] for k, t, e in points))
