"""Deliberately wrong outputs, for the self-test of the output checks.

``inject(name)`` rebinds one library function so that it returns a wrong
answer; a run with a fault must count failed ops.  Only the self-test
passes ``--fault``.
"""

from __future__ import annotations

import dataclasses

from tracing import rebind

FAULTS = ("estimate_field", "run_experiment")


def _perturbed_field(estimate_field):
    def wrong(*args, **kwargs):
        est = estimate_field(*args, **kwargs)
        return dataclasses.replace(est, B=est.B + 0.05)

    return wrong


def _leaky_confusion(run_experiment, ConfusionMatrix):
    def wrong(*args, **kwargs):
        m = run_experiment(*args, **kwargs)
        probs = m.probs.copy()
        for i in range(probs.shape[0]):
            # move 5% of the diagonal to Null: rows still sum to 1
            probs[i, -1] += 0.05 * probs[i, i]
            probs[i, i] *= 0.95
        return ConfusionMatrix(probs=probs, shots=m.shots, has_null=m.has_null)

    return wrong


def inject(name: str) -> None:
    from ba137qudit import calib, spam

    if name == "estimate_field":
        original = calib.estimate_field
        rebind({id(original): _perturbed_field(original)})
    elif name == "run_experiment":
        original = spam.run_experiment
        rebind({id(original): _leaky_confusion(original, spam.ConfusionMatrix)})
    else:
        raise ValueError(f"unknown fault {name!r}; pick from {FAULTS}")
