import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from ba137qudit import _lsq
from ba137qudit.noise import _kappa_to_rad
from ba137qudit.noise import (
    ErrorBudget,
    NoiseModel,
    TransitionNoiseParams,
    chi_closed_form,
    chi_numeric,
    error_budget,
    fit_error_scaling,
    load_scaling_points,
    pi_pulse_error,
    reference_scaling_points,
    spam_error_from_pi,
    write_scaling_points,
)
from oracles import (
    filter_function_pi,
    oracle_chi_quad,
    oracle_covariance,
    oracle_fit_error_scaling,
    scaling_residuals,
)


class TestPsd:
    MODEL = NoiseModel(h_a=2.0, h_b=0.5, h_peak=30.0, omega_0=10.0,
                       omega_ac=377.0, delta_omega_ac=6.0)

    def test_below_cutoff_flat(self):
        assert self.MODEL._piece(3.0) == pytest.approx((0.0, 2.0 / 10.0))

    def test_peak_branch(self):
        assert self.MODEL._piece(377.0) == pytest.approx((0.0, 30.0))

    def test_generic_branch(self):
        w = 3770.0
        a, c = self.MODEL._piece(w)
        assert a / w + c == pytest.approx(2.0 / w + 0.5)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(omega_0=0.0)
        with pytest.raises(ValueError):
            NoiseModel(omega_ac=100.0, delta_omega_ac=100.0)
        with pytest.raises(ValueError):
            NoiseModel(omega_ac=-5.0, delta_omega_ac=-10.0)
        with pytest.raises(ValueError):
            NoiseModel(h_a=-1.0)


class TestFilterFunction:
    def test_zero(self):
        assert filter_function_pi(0.0, 1e5) == 0.0

    def test_boundary(self):
        assert filter_function_pi(1e5, 1e5) == 4.0
        assert filter_function_pi(2e5, 1e5) == 4.0

    def test_half(self):
        assert filter_function_pi(5e4, 1e5) == 1.0


class TestChi:
    def test_all_levels_zero(self):
        model = NoiseModel(omega_0=1.0)
        params = TransitionNoiseParams(kappa=1.0, tau_pi=50e-6)
        assert chi_numeric(model, params) == pytest.approx(0.0, abs=1e-15)

    def test_pure_white_noise_analytic(self):
        # h_b only, omega_0 -> 0: chi = 8 h_b kappa^2 / (pi Omega) exactly
        params = TransitionNoiseParams(kappa=0.5, tau_pi=40e-6)
        model = NoiseModel(h_b=1e-4, omega_0=1e-8 * params.omega,
                           omega_ac=377.0, delta_omega_ac=1e-3)
        want = 8.0 * 1e-4 * _kappa_to_rad(0.5) ** 2 / (math.pi * params.omega)
        assert chi_numeric(model, params) == pytest.approx(want, rel=1e-6)

    def test_closed_form_requires_mains_below_rabi(self):
        params = TransitionNoiseParams(kappa=1.0, tau_pi=1.0)  # Omega ~ 3 rad/s
        model = NoiseModel(h_a=1.0, omega_0=0.1, omega_ac=377.0, delta_omega_ac=1.0)
        with pytest.raises(ValueError):
            chi_closed_form(model, params)

    def test_closed_form_white_term(self):
        params = TransitionNoiseParams(kappa=1.0, tau_pi=30e-6)
        model = NoiseModel(h_b=2e-5, omega_0=1.0, omega_ac=377.0, delta_omega_ac=1.0)
        want = 8.0 * 2e-5 * _kappa_to_rad(1.0) ** 2 / (math.pi * params.omega)
        assert chi_closed_form(model, params) == pytest.approx(want, rel=1e-12)

    def test_kappa_squared_scaling(self):
        params1 = TransitionNoiseParams(kappa=1.0, tau_pi=30e-6)
        params2 = TransitionNoiseParams(kappa=2.0, tau_pi=30e-6)
        model = NoiseModel(h_a=1e-5, h_b=1e-7, h_peak=1e-4, omega_0=1.0,
                           omega_ac=377.0, delta_omega_ac=3.0)
        assert chi_closed_form(model, params2) == pytest.approx(
            4.0 * chi_closed_form(model, params1), rel=1e-12
        )
        assert chi_numeric(model, params2) == pytest.approx(
            4.0 * chi_numeric(model, params1), rel=1e-9
        )

    def test_kappa_tau_product_invariance_in_one_over_omega_sq_regime(self):
        # with h_b = 0 the dominant terms scale as 1/Omega^2 ~ tau^2, so
        # (kappa, tau) and (kappa/2, 2 tau) give equal chi up to the ln term
        model = NoiseModel(h_a=1e-6, h_b=0.0, h_peak=1e-4, omega_0=1.0,
                           omega_ac=377.0, delta_omega_ac=3.0)
        a = chi_closed_form(model, TransitionNoiseParams(kappa=2.0, tau_pi=20e-6))
        b = chi_closed_form(model, TransitionNoiseParams(kappa=1.0, tau_pi=40e-6))
        # ln(Omega/omega_0) differs by ln 2 between the two; bound accordingly
        assert a == pytest.approx(b, rel=0.05)

    def test_closed_form_vs_quadrature_within_5pct(self):
        rng = np.random.default_rng(20240817)
        for _ in range(100):
            omega = 10 ** rng.uniform(4.0, 6.0)
            tau = math.pi / omega
            omega_0 = omega / 10 ** rng.uniform(2.0, 4.0)
            omega_ac = omega * rng.uniform(0.02, 0.8)
            omega_ac = max(omega_ac, 10 * omega_0 / 0.99)
            d_ac = omega_ac / 10 ** rng.uniform(2.0, 3.5)
            h_a = 10 ** rng.uniform(-8.0, -4.0)
            h_peak = 10 ** rng.uniform(-8.0, -4.0)
            h_b = omega**2 * d_ac / 10 ** rng.uniform(2.0, 5.0)
            model = NoiseModel(h_a=h_a, h_b=h_b, h_peak=h_peak, omega_0=omega_0,
                               omega_ac=omega_ac, delta_omega_ac=d_ac)
            params = TransitionNoiseParams(kappa=1.0, tau_pi=tau)
            approx = chi_closed_form(model, params)
            exact = chi_numeric(model, params)
            assert approx == pytest.approx(exact, rel=0.05)

    def test_monotone_in_noise_levels_and_kappa(self):
        rng = np.random.default_rng(7)
        base = dict(h_a=1e-6, h_b=1e-9, h_peak=1e-5, omega_0=5.0,
                    omega_ac=377.0, delta_omega_ac=3.0)
        params = TransitionNoiseParams(kappa=1.0, tau_pi=50e-6)
        for _ in range(20):
            cfg = dict(base)
            for h in ("h_a", "h_b", "h_peak"):
                cfg[h] *= rng.uniform(0.5, 2.0)
            chi0 = chi_numeric(NoiseModel(**cfg), params)
            for h in ("h_a", "h_b", "h_peak"):
                bumped = dict(cfg)
                bumped[h] *= 1.5
                assert chi_numeric(NoiseModel(**bumped), params) >= chi0
            k2 = TransitionNoiseParams(kappa=1.5, tau_pi=50e-6)
            assert chi_numeric(NoiseModel(**cfg), k2) >= chi0


class TestErrorMaps:
    def test_pi_pulse_error_limits(self):
        assert pi_pulse_error(0.0) == 0.0
        assert pi_pulse_error(1e9) == pytest.approx(0.5)
        assert pi_pulse_error(math.log(2)) == pytest.approx(0.25, abs=1e-15)

    def test_pi_pulse_error_monotone_bounded(self):
        chis = np.linspace(0, 20, 200)
        vals = [pi_pulse_error(c) for c in chis]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v < 0.5 for v in vals)

    def test_spam_error_examples(self):
        assert spam_error_from_pi(0.0) == 0.0
        assert spam_error_from_pi(0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert spam_error_from_pi(0.075) == pytest.approx(0.0806, abs=5e-5)

    @pytest.mark.parametrize("chi", [math.nan, math.inf, -0.1])
    def test_bad_chi_is_named(self, chi):
        with pytest.raises(ValueError, match=f"^chi must be finite and nonnegative, got {chi!r}$"):
            pi_pulse_error(chi)

    def test_spam_error_dominates_pi_error(self):
        for eps in np.linspace(0.001, 0.999, 97):
            assert spam_error_from_pi(eps) >= eps

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            pi_pulse_error(-0.1)
        with pytest.raises(ValueError):
            spam_error_from_pi(1.0)


class TestErrorScalingFit:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(3)
        c_true, b_true = 5e-6, 0.04
        kappas = rng.uniform(0.3, 3.0, 10)
        taus = rng.uniform(30.0, 200.0, 10)
        pts = []
        for k, t in zip(kappas, taus):
            x = (k * t) ** 2
            eps = pi_pulse_error(c_true * x)
            pts.append((k, t, b_true + spam_error_from_pi(eps)))
        fit = fit_error_scaling(pts)
        assert fit.scale == pytest.approx(c_true, rel=1e-6)
        assert fit.intercept == pytest.approx(b_true, rel=1e-6)

    def test_flat_data_degenerates(self):
        pts = [(k, 50.0, 0.07) for k in (0.5, 1.0, 2.0, 3.0)]
        fit = fit_error_scaling(pts)
        assert fit.scale == pytest.approx(0.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.07, abs=1e-12)

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            fit_error_scaling([(1.0, 50.0, 0.1), (2.0, 50.0, 0.2)])

    @staticmethod
    def noisy_sets(n):
        """The bundled points, then n draws of eps = b + spam(pi(c x)) plus
        0.003 Gaussian noise at the bundled kappa and tau_pi."""
        ref = reference_scaling_points()
        rng = np.random.default_rng(34)
        yield ref
        for _ in range(n):
            b, c = rng.uniform(0.02, 0.05), 10 ** rng.uniform(6.0, 6.7)
            yield [
                (k, t, b + spam_error_from_pi(pi_pulse_error(c * (k * t) ** 2))
                 + rng.normal(0.0, 0.003))
                for k, t, _ in ref
            ]

    @staticmethod
    def assert_matches_scipy(pts):
        # at least scipy's optimum from the same start
        fit = fit_error_scaling(pts)
        x_ref, cost_ref, (x, y) = oracle_fit_error_scaling(pts)
        r = scaling_residuals(x, y, [fit.scale, fit.intercept])
        assert 0.5 * r @ r <= cost_ref * (1 + 1e-9)
        assert fit.intercept == pytest.approx(x_ref[1], abs=1e-6)

    def test_matches_scipy_optimum(self):
        for pts in self.noisy_sets(50):
            self.assert_matches_scipy(pts)

    @settings(derandomize=True, deadline=None, database=None, max_examples=50)
    @given(st.floats(0.02, 0.05), st.floats(6.0, 6.7), st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, b, log_c, seed):
        # drawn b and c, then noise as noisy_sets adds it
        rng = np.random.default_rng(seed)
        self.assert_matches_scipy([
            (k, t, b + spam_error_from_pi(pi_pulse_error(10**log_c * (k * t) ** 2))
             + rng.normal(0.0, 0.003))
            for k, t, _ in reference_scaling_points()
        ])

    def test_covariance_matches_qr_oracle(self):
        # the bundled points come first: there J^T J has singular values 12
        # and 2e-15, so an unscaled pseudo-inverse drops the scale's variance
        for pts in self.noisy_sets(50):
            fit = fit_error_scaling(pts)
            x = np.array([(k * t) ** 2 for k, t, _ in pts])
            y = np.array([e for _, _, e in pts])
            params = [fit.scale, fit.intercept]
            ref = oracle_covariance(lambda q: scaling_residuals(x, y, q), params)
            np.testing.assert_allclose(fit.covariance, ref, rtol=1e-6)

    def test_bundled_error_bars(self):
        fit = fit_error_scaling(reference_scaling_points())
        assert fit.scale_err == pytest.approx(3.827e5, rel=1e-3)
        assert fit.intercept_err == pytest.approx(5.820e-3, rel=1e-3)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(_lsq, "_MAX_ITER", 1)
        with pytest.raises(RuntimeError, match="did not converge"):
            fit_error_scaling(next(self.noisy_sets(0)))

    def test_csv_roundtrip(self, tmp_path):
        pts = [(2.7992, 37.2e-6, 0.061), (1.1202, 29.7e-6, 0.042)]
        write_scaling_points(tmp_path / "p.csv", pts)
        back = load_scaling_points(tmp_path / "p.csv")
        for got, want in zip(back, pts):
            assert got == pytest.approx(want, rel=1e-12)

    def test_csv_missing_column(self, tmp_path):
        (tmp_path / "bad.csv").write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_scaling_points(tmp_path / "bad.csv")


class TestErrorBudget:
    def test_reference_numbers(self):
        budget = error_budget(0.12, 35.0, 10e3, 475e3, 0.651, 27.87, 11)
        assert budget.decay == pytest.approx(0.00342, abs=1e-4)
        assert budget.off_resonant == pytest.approx(4.43e-4, abs=1e-5)
        assert budget.discrimination <= 2.5e-4

    def test_poisson_tails_match_scipy(self):
        for lam in (0.3, 0.651, 5.0, 27.87):
            for thr in (0, 3, 11, 25):
                budget = error_budget(0.0, 1.0, 0.0, 1.0, lam, lam, thr)
                want = stats.poisson.sf(thr, lam) + stats.poisson.cdf(thr, lam)
                assert budget.discrimination == pytest.approx(want, rel=1e-10)

    def test_total_is_sum(self):
        budget = ErrorBudget(decay=0.1, off_resonant=0.2, discrimination=0.3)
        assert budget.total == pytest.approx(0.6)

    ARGS = {"shelf_time": 0.12, "lifetime": 35.0, "omega_off": 10e3, "delta": 475e3,
            "lambda_dark": 0.651, "lambda_bright": 27.87, "threshold": 11}

    @pytest.mark.parametrize("name, value, message", [
        ("shelf_time", math.nan, "must be finite"),
        ("lambda_dark", math.nan, "must be finite"),
        ("lambda_bright", math.inf, "must be finite"),
        ("delta", math.nan, "must be finite"),
        ("lambda_dark", -0.5, "must be nonnegative"),
        ("shelf_time", -1.0, "must be nonnegative"),
        ("lifetime", 0.0, "must be positive"),
        ("threshold", math.inf, "must be a nonnegative integer"),
    ])
    def test_bad_argument_is_named(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{name} {message}, got {value!r}$"):
            error_budget(**{**self.ARGS, name: value})

    def test_validation(self):
        with pytest.raises(ValueError):
            error_budget(-1.0, 35.0, 1.0, 1.0, 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            error_budget(0.1, 35.0, 1.0, 1.0, 1.0, 1.0, -2)


class TestChiMainsAboveRabi:
    def test_numeric_handles_peak_above_omega(self):
        # slow pulse: the mains peak sits above the Rabi frequency, where
        # the closed form is invalid but the exact sum stays well defined
        params = TransitionNoiseParams(kappa=1.0, tau_pi=20e-3)  # Omega ~ 157
        base = dict(h_a=1e-8, h_b=1e-12, omega_0=1.0,
                    omega_ac=377.0, delta_omega_ac=3.0)
        with pytest.raises(ValueError):
            chi_closed_form(NoiseModel(h_peak=1e-6, **base), params)
        lo = chi_numeric(NoiseModel(h_peak=1e-6, **base), params)
        hi = chi_numeric(NoiseModel(h_peak=2e-6, **base), params)
        assert hi > lo > 0.0


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda u: 10.0**u)


CHI_LAYOUTS = [
    "peak below Omega",
    "peak above Omega",
    "Omega inside peak",
    "omega_0 above peak",
    "omega_0 inside peak",
]


@st.composite
def chi_cases(draw, layout, white):
    """A model and pulse whose cutoff, mains peak and Rabi frequency Omega
    sit in the given order; h_b = 0 unless white."""
    big_omega = draw(log_uniform(2.0, 6.0))
    if layout == "peak above Omega":
        omega_ac = big_omega * draw(log_uniform(0.1, 3.0))
    elif layout == "Omega inside peak":
        omega_ac = big_omega * draw(log_uniform(-1e-3, 1e-3))
    else:
        omega_ac = big_omega * draw(log_uniform(-3.0, -0.1))
    d_ac = omega_ac * draw(log_uniform(-2.0, -0.5))
    if layout == "omega_0 above peak":
        omega_0 = (omega_ac + d_ac / 2) * draw(log_uniform(0.01, 2.0))
    elif layout == "omega_0 inside peak":
        omega_0 = omega_ac + d_ac * draw(st.floats(-0.49, 0.49))
    else:
        omega_0 = min(omega_ac - d_ac / 2, big_omega) * draw(log_uniform(-4.0, -0.01))
    h_a = draw(log_uniform(-8.0, -4.0))
    model = NoiseModel(
        h_a=h_a,
        h_b=h_a / big_omega * draw(log_uniform(-2.0, 2.0)) if white else 0.0,
        h_peak=draw(log_uniform(-8.0, -4.0)),
        omega_0=omega_0,
        omega_ac=omega_ac,
        delta_omega_ac=d_ac,
    )
    return model, TransitionNoiseParams(kappa=draw(st.floats(0.1, 3.0)), tau_pi=math.pi / big_omega)


@pytest.mark.parametrize("white", [True, False], ids=["white", "h_b=0"])
@pytest.mark.parametrize("layout", CHI_LAYOUTS)
def test_chi_matches_quadrature_property(layout, white):
    @settings(derandomize=True, deadline=None, database=None, max_examples=25)
    @given(chi_cases(layout, white))
    def check(case):
        model, params = case
        want = oracle_chi_quad(model, params)
        assert chi_numeric(model, params) == pytest.approx(want, rel=1e-12, abs=0.0)

    check()


@pytest.mark.parametrize("cls, name", [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in (NoiseModel, TransitionNoiseParams)
    for f in fields(cls)
])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_field_is_named(cls, name, value):
    base = {"kappa": 1.0, "tau_pi": 20e-6} if cls is TransitionNoiseParams else {}
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        cls(**{**base, name: value})
