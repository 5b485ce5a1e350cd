"""The shelve/de-shelve SPAM protocol, simulated end to end.

One measurement is a fluorescence check for |0> followed by de-shelve
pulse + check for each encoded state in ascending order.  Because each
de-shelve pulse also re-shelves population that already fluoresced, the
first bright check identifies the state in a single shot; records with no
bright check are detectable failures (Null) and get post-selected away.
"""

import pathlib

from ba137qudit import average_fidelity, paper13_encoding, post_select, run_experiment
from ba137qudit.spam import (
    ErrorParams,
    build_measurement_sequence,
    enumerate_outcomes,
    error_params_from_reference,
    load_reference_confusion,
    reference_timings,
    scaling_analysis,
    timing_budget,
    write_confusion_csv,
)

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

encoding = paper13_encoding()
plan = build_measurement_sequence(encoding)
print(f"== measurement plan for d = {encoding.d} ==")
print(f"{plan.n_checks} fluorescence checks, "
      f"{sum(1 for s in plan.steps if not hasattr(s, 'outcome'))} de-shelve pulses")

print("\n== noiseless readout, exact ==")
for prepared in (0, 3):
    row = enumerate_outcomes(encoding, ErrorParams.zero(encoding), prepared)
    shown = ", ".join(f"P(|{k}>) = {p:.3f}" for k, p in row.items())
    print(f"prepared |{prepared}>: {shown}; every other outcome and Null exactly 0")

print("\n== a single pulse error produces the characteristic branch ratio ==")
eps = 0.1
two = type(encoding)("two", encoding.states[:2])
exact = enumerate_outcomes(two, ErrorParams.uniform(two, eps), prepared=1)
print(f"eps_pi = {eps}: P(correct) = {exact[1]:.3f}, P(|0>) = {exact[0]:.3f}, "
      f"P(Null) = {exact[None]:.3f}")
print(f"post-selected error = {exact[0] / (exact[0] + exact[1]):.5f} "
      f"(= eps/(eps + (1-eps)^2) = {eps / (eps + (1 - eps) ** 2):.5f})")

print("\n== Monte Carlo with the measured per-transition pulse errors ==")
errors = error_params_from_reference()
raw = run_experiment(encoding, errors, shots_per_state=20000, seed=42)
post = post_select(raw)
fid_raw, sig_raw = average_fidelity(raw)
fid_post, sig_post = average_fidelity(post)
print(f"simulated raw error           = {1 - fid_raw:.3f} +/- {sig_raw:.3f}")
print(f"simulated post-selected error = {1 - fid_post:.3f} +/- {sig_post:.3f}")
ref = load_reference_confusion("e2")
fid_meas, sig_meas = average_fidelity(ref)
print(f"measured post-selected error  = {1 - fid_meas:.3f} +/- {sig_meas:.3f} "
      "(drifts account for the gap)")

print("\n== dimension scaling from the measured diagonal ==")
fids = {i: float(p) for i, p in enumerate(ref.diagonal())}
curves = scaling_analysis(fids, range(2, 14))
for d, o, w in zip(curves.d_values, curves.optimal, curves.worst):
    print(f"  d = {d:2d}: best choice {o:.4f}, worst choice {w:.4f}")

print("\n== timing budget ==")
budget = timing_budget(encoding, reference_timings(), prepared=1)
print(f"measurement total {budget.measurement_total * 1e3:.1f} ms "
      f"(preparation {budget.preparation_total * 1e3:.3f} ms)")
for name, value in budget.breakdown:
    print(f"  {name:<16s} {value * 1e3:8.3f} ms")

write_confusion_csv(OUT / "simulated_raw.csv", raw)
write_confusion_csv(OUT / "simulated_post.csv", post)
print(f"\nwrote {OUT / 'simulated_raw.csv'} and simulated_post.csv")
