"""Magnetic-noise dephasing: from PSD shape to SPAM error scaling.

A pi pulse of Rabi frequency Omega filters transition-frequency noise
with F(w) = 4 w^2/Omega^2 below Omega and 4 above.  For a 1/f + mains
peak + white PSD the overlap chi is an exact sum of elementary
antiderivatives, and the paper's approximate closed form holds when the
mains frequency sits well below Omega; the pulse error follows as
(1 - exp(-chi))/2 and the post-selected SPAM error as
eps/(eps + (1-eps)^2).  Because chi scales as kappa^2 tau_pi^2, plotting
measured SPAM errors against that product collapses them onto one curve
whose intercept isolates the non-magnetic error floor.
"""

import math
import pathlib

import numpy as np

from ba137qudit import (
    NoiseModel,
    TransitionNoiseParams,
    chi_closed_form,
    chi_numeric,
    error_budget,
    fit_error_scaling,
    pi_pulse_error,
    spam_error_from_pi,
)
from ba137qudit.noise import reference_scaling_points, write_scaling_points

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

print("== chi: closed form vs exact piecewise integral ==")
model = NoiseModel(
    h_a=2e-6, h_b=1e-9, h_peak=4e-5,
    omega_0=2 * math.pi * 0.1,
    omega_ac=2 * math.pi * 60.0,
    delta_omega_ac=2 * math.pi * 0.5,
)
for tau_us in (30.0, 60.0, 120.0, 200.0):
    params = TransitionNoiseParams(kappa=2.0, tau_pi=tau_us * 1e-6)
    exact = chi_numeric(model, params)
    approx = chi_closed_form(model, params)
    eps = pi_pulse_error(exact)
    print(f"  tau_pi = {tau_us:5.1f} us: chi = {exact:.4e} "
          f"(closed form {approx:.4e}, gap {abs(approx - exact) / exact:.2%}), "
          f"eps_pi = {eps:.4f}, eps_SPAM = {spam_error_from_pi(eps):.4f}")

print("\n== error vs kappa^2 tau_pi^2 from the measured per-state data ==")
points = reference_scaling_points()
fit = fit_error_scaling(points)
print(f"two-parameter fit: intercept b = {fit.intercept:.4f} +/- {fit.intercept_err:.4f}")
print("the intercept is the error floor not attributable to field noise")
x = np.array([(k * t) ** 2 for k, t, _ in points])
pred = fit.predict(x)
for (k, t, e), p in sorted(zip(points, pred), key=lambda z: (z[0][0] * z[0][1]) ** 2):
    print(f"  kappa = {k:+.4f} MHz/G, tau = {t * 1e6:6.1f} us: "
          f"measured {e:.3f}, model {p:.3f}")

print("\n== secondary error budget ==")
budget = error_budget(
    shelf_time=0.12, lifetime=35.0,
    omega_off=10e3, delta=475e3,
    lambda_dark=0.651, lambda_bright=27.87, threshold=11,
)
print(f"  spontaneous decay (120 ms shelved / 35 s lifetime): {budget.decay:.2%}")
print(f"  off-resonant drive (10 kHz Rabi, 475 kHz away):     {budget.off_resonant:.3%}")
print(f"  bright/dark Poisson discrimination (threshold 11):  {budget.discrimination:.4%}")
print(f"  together below half a percent: {budget.total:.2%}")

write_scaling_points(OUT / "error_scaling_points.csv", points)
print(f"\nwrote {OUT / 'error_scaling_points.csv'}")
