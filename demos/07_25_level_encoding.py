"""Scaling the encoding to the full 25 distinguishable levels.

Of the 32 stable/metastable states, 7 metastable states must stay
unencoded: each encoded ground state other than |0> needs a private
parking state to be shelved into before the readout loop, otherwise it
would fluoresce during the |0> check.  That caps the encoding at 25
levels.  Preparation can still reach every encoded state from |0> with
at most three quadrupole pulses.
"""

import numpy as np

from ba137qudit.atomstruct import BA137_D52, BA137_S12
from ba137qudit.spam import (
    ErrorParams,
    PulseStep,
    average_fidelity,
    build_measurement_sequence,
    post_select,
    run_experiment,
    twenty_five_level_encoding,
)

enc = twenty_five_level_encoding()
plan = build_measurement_sequence(enc)

print(f"== encoding '{enc.name}': d = {enc.d} ==")
print("ground states encoded:", sum(1 for s in enc.states if s.level == BA137_S12))
print("metastable states encoded:", sum(1 for s in enc.states if s.level == BA137_D52))
print("parking assignments (shelved before the |0> check):")
for s_state, park in enc.parking.items():
    print(f"  {s_state}  ->  {park}")

print("\n== preparation pulse counts from |0> ==")
by_hops = {}
for n, path in enumerate(plan.prep_paths):
    by_hops.setdefault(len(path), []).append(n)
for hops in sorted(by_hops):
    print(f"  {hops} pulses: {len(by_hops[hops])} states")
three_hop = by_hops.get(3, [])
if three_hop:
    n = three_hop[0]
    route = " -> ".join(
        [str(enc.states[0])]
        + [str(p.d_state if enc.states[0].level == BA137_S12 and i % 2 == 0 else p.s_state)
           for i, p in enumerate(plan.prep_paths[n])]
    )
    print(f"  example three-pulse route to {enc.states[n]}: {route}")

print("\n== plan shape ==")
pulses = [s for s in plan.steps if isinstance(s, PulseStep)]
print(f"{plan.n_checks} checks, {len(pulses)} pulses "
      f"(7 shelve + {enc.d - 1} de-shelve)")

print("\n== Monte Carlo at uniform pulse error 0.02 ==")
errs = ErrorParams.uniform(enc, 0.02, prep_error=0.005)
raw = run_experiment(enc, errs, shots_per_state=2000, seed=99)
post = post_select(raw)
fid_raw, sig_raw = average_fidelity(raw)
fid_post, sig_post = average_fidelity(post)
print(f"raw average fidelity           {fid_raw:.3f} +/- {sig_raw:.3f}")
print(f"post-selected average fidelity {fid_post:.3f} +/- {sig_post:.3f}")
worst = int(np.argmin(post.diagonal()))
print(f"weakest state: |{worst}> = {enc.states[worst]} "
      f"(three-pulse preparation costs the most)")
