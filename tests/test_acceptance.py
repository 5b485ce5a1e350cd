"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np

from ba137qudit.atomstruct import (
    BA137_D52,
    BA137_S12,
    StateRef,
    _row,
    diagonalize,
    field_sensitivity,
)
from ba137qudit.calib import (
    estimate_field,
    fit_calibration,
    paper13_transition_refs,
    predict_frequency,
    simulate_splittings,
    synthetic_snapshot,
)
from ba137qudit.fixtures import load_strength_fixture, load_transition_params
from ba137qudit.noise import (
    NoiseModel,
    TransitionNoiseParams,
    chi_closed_form,
    chi_numeric,
    error_budget,
    fit_error_scaling,
    reference_scaling_points,
)
from ba137qudit.spam import (
    ErrorParams,
    QuditEncoding,
    average_fidelity,
    build_measurement_sequence,
    load_reference_confusion,
    paper13_encoding,
    post_select,
    run_experiment,
    scaling_analysis,
)
from ba137qudit.transitions import PAPER13_GEOMETRY, strength_table

from oracles import oracle_enumerate_outcomes


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_zero_field_splittings():
    t0 = time.perf_counter()
    d0 = diagonalize(BA137_D52, 0.0)
    gap_d = d0.state(4, 0).energy - d0.state(3, 0).energy
    s0 = diagonalize(BA137_S12, 0.0)
    gap_s = s0.state(2, 2).energy - s0.state(1, 1).energy
    elapsed = time.perf_counter() - t0
    ok = (
        abs(gap_d - (-0.486)) < 1e-3
        and abs(gap_s - 8037.742) < 1e-3
        and elapsed < 1.0
    )
    report(
        1, ok,
        f"5D5/2 F4-F3 = {gap_d:+.4f} MHz, 6S1/2 = {gap_s:.3f} MHz "
        f"({elapsed * 1e3:.0f} ms)",
    )


def test_criterion_02_strength_table_regression():
    t0 = time.perf_counter()
    table = strength_table(8.35, PAPER13_GEOMETRY)
    _, s_keys, fixture = load_strength_fixture()
    dev = float(np.max(np.abs(table.values - fixture)))
    zeros_exact = bool(np.all(table.values[fixture == 0.0] < 5e-5))
    starred = fixture[:, s_keys.index("S:F2:m2")]
    starred_dev = float(
        np.max(np.abs(table.values[:, s_keys.index("S:F2:m2")] - starred))
    )
    elapsed = time.perf_counter() - t0
    ok = dev < 5e-5 and zeros_exact and starred_dev < 5e-5 and elapsed < 5.0
    report(
        2, ok,
        f"24x8 table max |dev| = {dev:.2e} (starred column {starred_dev:.2e}, "
        f"{elapsed:.2f} s)",
    )


def test_criterion_03_stretched_state_purity():
    worst = 0.0
    for b in np.linspace(0.0, 10.0, 41):
        sys_ = diagonalize(BA137_D52, float(b))
        for m in (4, -4):
            worst = max(worst, abs(sys_.state(4, m).amp_FmF[_row(BA137_D52, 4, m)] - 1.0))
    ok = worst < 1e-10
    report(3, ok, f"|F~=4, m=+/-4> overlap deviation <= {worst:.2e} for B in [0, 10] G")


def test_criterion_04_field_sensitivity_regression():
    ground = StateRef.of(BA137_S12, 2, 2)
    worst = 0.0
    anchor = None
    n = 0
    for row in load_transition_params():
        if row.kappa is None:
            continue
        f, m = row.atomic_state.split(":")[1][1:], row.atomic_state.split(":")[2][1:]
        excited = StateRef.of(BA137_D52, int(f), int(m))
        kappa = field_sensitivity(ground, excited, 8.35)
        worst = max(worst, abs(kappa - row.kappa))
        n += 1
        if row.index == 1:
            anchor = kappa
    ok = n == 14 and worst < 1e-3 and abs(anchor - 2.7992) < 1e-3
    report(
        4, ok,
        f"{n} sensitivities match to {worst:.2e} MHz/G (anchor |1> = {anchor:+.4f})",
    )


def test_criterion_05_fixture_analytics():
    e2 = load_reference_confusion("e2")
    e3 = load_reference_confusion("e3")
    fid2, sig2 = average_fidelity(e2)
    fid3, sig3 = average_fidelity(e3)
    post = post_select(e3)
    entry_dev = float(np.max(np.abs(np.round(post.probs, 3) - e2.probs)))
    ok = (
        abs(fid2 - 0.917) <= 0.003
        and abs((1.0 - fid3) - 0.131) <= 0.003
        and entry_dev <= 0.002 + 1e-12
    )
    report(
        5, ok,
        f"post-selected fidelity {fid2:.3f}, raw error {1 - fid3:.3f}, "
        f"post_select(e3) vs e2 max dev {entry_dev:.3f} (1000-shot rounding)",
    )


def test_criterion_06_monte_carlo_oracles():
    t0 = time.perf_counter()
    enc13 = paper13_encoding()
    two = QuditEncoding("two", enc13.states[:2])
    ok = True
    details = []
    for eps in (0.01, 0.1, 0.3):
        m = run_experiment(two, ErrorParams.uniform(two, eps), 10**6, seed=20240817)
        row = m.probs[1]
        want = eps / (eps + (1 - eps) ** 2)
        got = row[0] / (row[0] + row[1])
        n_eff = float(m.shots[1] * (row[0] + row[1]))
        sigma = math.sqrt(want * (1 - want) / n_eff)
        pull = abs(got - want) / sigma
        ok &= pull < 3.0
        details.append(f"eps={eps}: {pull:.1f} sigma")

    four = QuditEncoding("four", enc13.states[:4])
    keys = sorted(build_measurement_sequence(four).pulse_keys())
    errs = ErrorParams(
        eps_pi={k: e for k, e in zip(keys, (0.12, 0.25, 0.07))},
        prep_error=0.02,
        p_dark_given_s=0.01,
        p_bright_given_d=0.003,
    )
    shots = 200_000
    worst_pull = 0.0
    for prepared in range(4):
        exact = oracle_enumerate_outcomes(four, errs, prepared)
        m = run_experiment(four, errs, shots, seed=7)
        for outcome, p in exact.items():
            col = four.d if outcome is None else outcome
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / shots)
            worst_pull = max(worst_pull, abs(m.probs[prepared, col] - p) / sigma)
    ok &= worst_pull < 4.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(
        6, ok,
        f"analytic-formula pulls [{', '.join(details)}]; enumeration worst pull "
        f"{worst_pull:.1f} sigma at d=4 ({elapsed:.1f} s)",
    )


def test_criterion_07_error_scaling_intercept():
    t0 = time.perf_counter()
    fit = fit_error_scaling(reference_scaling_points())
    elapsed = time.perf_counter() - t0
    ok = 0.02 <= fit.intercept <= 0.06 and elapsed < 1.0
    report(
        7, ok,
        f"intercept b = {fit.intercept:.4f} +/- {fit.intercept_err:.4f} "
        f"({elapsed * 1e3:.0f} ms)",
    )


def test_criterion_08_chi_consistency():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        omega = 10 ** rng.uniform(4.0, 6.0)
        omega_0 = omega / 10 ** rng.uniform(2.0, 4.0)
        omega_ac = max(omega * rng.uniform(0.02, 0.8), 10.0 * omega_0)
        d_ac = omega_ac / 10 ** rng.uniform(2.0, 3.5)
        model = NoiseModel(
            h_a=10 ** rng.uniform(-8, -4),
            h_b=omega**2 * d_ac / 10 ** rng.uniform(2.0, 5.0),
            h_peak=10 ** rng.uniform(-8, -4),
            omega_0=omega_0,
            omega_ac=omega_ac,
            delta_omega_ac=d_ac,
        )
        params = TransitionNoiseParams(kappa=1.0, tau_pi=math.pi / omega)
        approx = chi_closed_form(model, params)
        exact = chi_numeric(model, params)
        worst = max(worst, abs(approx - exact) / exact)
    ok = worst <= 0.05
    report(8, ok, f"closed form vs exact integral: worst relative gap {worst:.3%} over 100 draws")


def test_criterion_09_error_budget():
    budget = error_budget(0.12, 35.0, 10e3, 475e3, 0.651, 27.87, 11)
    ok = (
        abs(budget.decay - 0.00342) <= 1e-4
        and abs(budget.off_resonant - 4.43e-4) <= 1e-5
        and budget.discrimination <= 2.5e-4
    )
    report(
        9, ok,
        f"decay {budget.decay:.5f}, off-resonant {budget.off_resonant:.2e}, "
        f"discrimination {budget.discrimination:.2e}",
    )


def test_criterion_10_field_round_trip_and_calibration():
    trans = paper13_transition_refs()
    pairs = [trans[n] for n in (1, 3, 5, 10)]
    worst_b = 0.0
    for b_true in (1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0):
        est = estimate_field(simulate_splittings(pairs, b_true))
        worst_b = max(worst_b, abs(est.B - b_true))
    ok = worst_b < 0.01

    model = fit_calibration([synthetic_snapshot(b) for b in (8.33, 8.35, 8.37)])
    worst_f = 0.0
    for b_test in (8.335, 8.345, 8.355, 8.365):
        snap = synthetic_snapshot(b_test)
        for n in range(1, 13):
            pred = predict_frequency(model, snap.f_offset, snap.f_low, snap.f_up, n)
            worst_f = max(worst_f, abs(pred - snap.freqs[n]))
    ok &= worst_f < 1e-3
    report(
        10, ok,
        f"field round trip within {worst_b * 1e3:.2f} mG on [1, 15] G; "
        f"calibration predicts 12 transitions within {worst_f * 1e3:.3f} kHz "
        f"over the +/-0.02 G window",
    )


def test_criterion_11_dimension_scaling():
    e2 = load_reference_confusion("e2")
    fids = {i: float(p) for i, p in enumerate(e2.diagonal())}
    curves = scaling_analysis(fids, range(2, 14))
    dominance = all(o >= w for o, w in zip(curves.optimal, curves.worst))
    # this fixture's optimal curve is non-increasing everywhere (each added
    # state has fidelity below the running mean)
    monotone = all(b <= a + 1e-12 for a, b in zip(curves.optimal, curves.optimal[1:]))
    fid13, _ = average_fidelity(e2)
    endpoints = (
        abs(curves.optimal[-1] - 0.917) < 5e-4
        and abs(curves.worst[-1] - 0.917) < 5e-4
        and abs(curves.optimal[-1] - fid13) < 1e-12
    )
    ok = dominance and monotone and endpoints
    report(
        11, ok,
        f"optimal >= worst at every d, optimal non-increasing, "
        f"d=13 endpoints at {curves.optimal[-1]:.3f}",
    )
