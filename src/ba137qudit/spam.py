"""Shelving-based qudit SPAM protocol: plans, exact outcome model, and analysis.

The protocol encodes |0> in a fluorescing 6S1/2 state and |1>..|d-1> in
metastable 5D5/2 states (or, for encodings beyond 13 levels, additional
6S1/2 states that get shelved to reserved 5D5/2 parking states first).
One measurement is a fluorescence check for |0>, then alternating
de-shelve pulse / fluorescence check for each encoded state in ascending
index order.  A de-shelve pulse is simultaneously a re-shelve pulse for
population already read out, which is what makes first-bright
interpretation single-shot.  A state is an ``atomstruct.StateRef`` on
``BA137_S12`` or ``BA137_D52``, named in files by its key, e.g. ``S:F2:m2``.

The stochastic model is classical: every pi pulse is a Bernoulli swap
between its two endpoint states with failure probability eps_pi, every
fluorescence check a Bernoulli read flip, optical-pumping failure and
spontaneous decay park the ion in an inert bright ground state outside
the encoding.  Coherences play no role in SPAM statistics at this scale.

One shot is therefore a Markov chain over the atomic states, read out
through noisy checks.  ``_outcome_matrix`` evaluates it exactly with the
forward-backward recursion of hidden Markov models (Rabiner, Proc. IEEE
77, 257 (1989)).  A probability vector over atomic states per prepared
state is carried forward through the plan, and each check books its
bright mass as its outcome.  The strict-single-bright reading weights
that mass by the probability that every later check reads dark, which
one backward pass over the plan gives.  ``enumerate_outcomes`` is one row
of that matrix and ``run_experiment`` a seeded multinomial draw from it.

Three caches serve the evaluator.  Each keys on immutable content, never
on the mutable ``QuditEncoding`` or ``ErrorParams``:

- ``_shortest_path``, the breadth-first preparation-path search, keyed on
  the (|0>, target) pair of atomic states;
- ``_compile``, the one ``MeasurementPlan`` of each encoding content (name,
  states, parking items and de-shelve target items), which
  ``build_measurement_sequence`` returns.  It holds the plan's steps and
  preparation paths, and the same plan in integer codes;
- ``_forward``, the evaluation, keyed on the plan (by identity), the mode,
  the float64 bytes of the numbers a call gathers from its error model
  (the decay rate among them), the intervals (one number or a tuple) and
  the leak layout.  The intervals are checked on a miss, so a bad one
  raises on every call.  Its matrices are read-only, and only a matrix
  that passed the row-stochastic check is ever stored.

So every call reads the error model afresh, and evaluating content seen
before costs one lookup.  A gather reads each plan pulse's error straight
from ``eps_pi`` by its (6S state, 5D state) key.  Levels and ``HalfInt``
values are interned, so that key hashes and compares in C.
``ErrorParams.eps`` is called only to raise ``MissingTransitionError``
for a pulse the model lacks.  Each pulse updates the probability array in
place.  Codes follow the encoding and the plan, never a set order, so no
matrix depends on the hash seed.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache, partial
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .angmom import HalfInt
from .atomstruct import BA137_D52, BA137_S12, StateRef, parse_atomic_state
from .fixtures import (
    _NUMBER, _json, _read_confusion, _read_json, _write_csv, _write_json, fixture_path,
    load_transition_params,
)
from .transitions import _PAPER13_STATES

__all__ = [
    "QuditEncoding",
    "ErrorParams",
    "ConfusionMatrix",
    "PulseStep",
    "CheckStep",
    "MeasurementPlan",
    "Timings",
    "TimingBudget",
    "ScalingCurves",
    "EncodingError",
    "PlanError",
    "NullRowError",
    "parse_atomic_state",
    "paper13_encoding",
    "twenty_five_level_encoding",
    "build_measurement_sequence",
    "run_experiment",
    "enumerate_outcomes",
    "post_select",
    "average_fidelity",
    "scaling_analysis",
    "timing_budget",
    "reference_timings",
    "error_params_from_reference",
    "error_params_to_json",
    "error_params_from_json",
    "read_confusion_csv",
    "write_confusion_csv",
    "load_reference_confusion",
]


class EncodingError(ValueError):
    """The qudit encoding violates a structural invariant."""


class PlanError(ValueError):
    """No valid pulse plan exists for the encoding."""


class NullRowError(ValueError):
    """A confusion-matrix row has no non-Null mass to renormalize."""


class MissingTransitionError(KeyError):
    """ErrorParams carries no pi-pulse error for a required transition."""


_S = partial(StateRef.of, BA137_S12)
_D = partial(StateRef.of, BA137_D52)

# F~ up, m down: the order the path search tries partners in, so it picks the paths
ALL_S_STATES, ALL_D_STATES = (
    tuple(StateRef(level, F, HalfInt(tm)) for F in level.f_values()
          for tm in range(F.twice, -F.twice - 1, -2))
    for level in (BA137_S12, BA137_D52)
)

MAX_LEVELS = 25  # 32 stable/metastable states minus 7 reserved parking slots


def _quadrupole_allowed(s_state: StateRef, d_state: StateRef) -> bool:
    return abs(s_state.m.twice - d_state.m.twice) <= 4


@dataclass(eq=False)
class QuditEncoding:
    """Ordered computational states plus the shelving bookkeeping.

    states[0] must be a 6S1/2 state.  Any other 6S1/2-encoded state needs a
    reserved (unencoded) 5D5/2 parking state to be shelved into during
    measurement.  D-encoded states de-shelve into ``deshelve_targets``
    (default: the |0> state, as in the 13-level scheme).
    """

    name: str
    states: tuple[StateRef, ...]
    parking: Mapping[StateRef, StateRef] = field(default_factory=dict)
    deshelve_targets: Mapping[StateRef, StateRef] = field(default_factory=dict)

    def __post_init__(self):
        self.states = tuple(self.states)
        if not self.states:
            raise EncodingError("encoding needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise EncodingError("encoded states must be distinct")
        if len(self.states) > MAX_LEVELS:
            raise EncodingError(f"at most {MAX_LEVELS} levels are distinguishable")
        if self.states[0].level != BA137_S12:
            raise EncodingError("state |0> must be a 6S1/2 state")
        encoded = set(self.states)
        for s_state in self.states[1:]:
            if s_state.level != BA137_S12:
                continue
            park = self.parking.get(s_state)
            if park is None:
                raise EncodingError(f"6S-encoded state {s_state} has no parking state")
            if park.level != BA137_D52:
                raise EncodingError(f"parking state {park} must be a 5D5/2 state")
            if park in encoded:
                raise EncodingError(f"parking state {park} is itself encoded")
        if len(set(self.parking.values())) != len(self.parking):
            raise EncodingError("parking states must be distinct")

    @property
    def d(self) -> int:
        return len(self.states)

    def deshelve_target(self, d_state: StateRef) -> StateRef:
        return self.deshelve_targets.get(d_state, self.states[0])


def paper13_encoding() -> QuditEncoding:
    """The 13-level encoding: |0> = 6S1/2(F~=2, m=2) plus the twelve 5D5/2
    states reachable from it with relative strength above 0.03."""
    return QuditEncoding(name="paper13", states=_PAPER13_STATES)


def twenty_five_level_encoding() -> QuditEncoding:
    """A full 25-level encoding: all 8 ground states plus 17 metastable
    states, with the remaining 7 metastable states reserved as parking
    slots for shelving the non-|0> ground states.

    The distinguishability ceiling is exactly 32 - 7 = 25: each encoded
    ground state other than |0> consumes one unencoded metastable state.
    The specific choice of parking/encoded split here is one workable
    assignment (every shelve and de-shelve pulse satisfies |Delta m| <= 2
    and every state is preparable from |0> within three pulses); others
    exist.
    """
    s_states = [_S(2, 2), _S(2, 1), _S(2, 0), _S(2, -1), _S(2, -2),
                _S(1, 1), _S(1, 0), _S(1, -1)]
    parking = {
        _S(2, 1): _D(4, 3),
        _S(2, 0): _D(4, 2),
        _S(2, -1): _D(4, -3),
        _S(2, -2): _D(4, -4),
        _S(1, 1): _D(3, 3),
        _S(1, 0): _D(4, -2),
        _S(1, -1): _D(3, -3),
    }
    parked = set(parking.values())
    d_states = [d for d in ALL_D_STATES if d not in parked]
    deshelve = {
        d: _S(2, max(-2, min(2, int(float(d.m))))) for d in d_states
    }
    return QuditEncoding(
        name="full25",
        states=tuple(s_states + d_states),
        parking=parking,
        deshelve_targets=deshelve,
    )


@dataclass(frozen=True)
class PulseStep:
    """A pi pulse connecting one 6S1/2 and one 5D5/2 state."""

    s_state: StateRef
    d_state: StateRef

    @property
    def key(self) -> tuple[StateRef, StateRef]:
        return (self.s_state, self.d_state)


@dataclass(frozen=True)
class CheckStep:
    """A fluorescence check; first bright here means the given outcome."""

    outcome: int


@dataclass(frozen=True, eq=False)
class MeasurementPlan:
    """One encoding's readout and preparation, built once per encoding
    content by ``build_measurement_sequence`` and shared, so it is frozen
    and hashes by identity.

    ``steps`` shelve the 6S-encoded states, check |0>, then alternate
    de-shelve pulse and check in ascending state order; ``prep_paths`` holds
    each encoded state's pulses from |0>.  The underscored fields are the
    same plan in the integer codes the exact evaluator walks.
    """

    steps: tuple[Union[PulseStep, CheckStep], ...]
    prep_paths: tuple[tuple[PulseStep, ...], ...]  # per encoded index
    _pulses: tuple[tuple[StateRef, StateRef], ...]  # distinct, plan steps first
    _step_codes: tuple[int | None, ...]  # a pulse index, or None for a check
    _prep_codes: tuple[tuple[int, ...], ...]  # the pulses of each prep path
    _code: Mapping[StateRef, int]
    _pulse_codes: tuple[tuple[int, int], ...]  # (6S code, 5D code) of each pulse
    _is_d: tuple[bool, ...]  # by code
    _step_pulse: Mapping[tuple[StateRef, StateRef], int]  # pulses the steps apply

    @property
    def n_checks(self) -> int:
        return len(self.prep_paths)

    def pulse_keys(self) -> set[tuple[StateRef, StateRef]]:
        return set(self._pulses)


# every (|0>, target) pair of a valid encoding is one of 8 x 32
@lru_cache(maxsize=256)
def _shortest_path(start: StateRef, target: StateRef) -> tuple[PulseStep, ...] | None:
    """Shortest pulse path from start to target over quadrupole-allowed
    S<->D hops (breadth-first over all 32 states), or None when no path of
    at most three hops exists."""
    if target == start:
        return ()
    frontier = [(start, ())]
    seen = {start}
    while frontier:
        nxt = []
        for state, path in frontier:
            if len(path) >= 3:
                continue
            ground = state.level == BA137_S12
            for other in ALL_D_STATES if ground else ALL_S_STATES:
                if other in seen:
                    continue
                s_state, d_state = (state, other) if ground else (other, state)
                if not _quadrupole_allowed(s_state, d_state):
                    continue
                new_path = path + (PulseStep(s_state, d_state),)
                if other == target:
                    return new_path
                seen.add(other)
                nxt.append((other, new_path))
        frontier = nxt
    return None


def build_measurement_sequence(encoding: QuditEncoding) -> MeasurementPlan:
    """The encoding's measurement plan, looked up by the encoding's content:
    equal content gives the same shared plan, changed content a new one."""
    return _compile(
        encoding.name,
        tuple(encoding.states),
        tuple(encoding.parking.items()),
        tuple(encoding.deshelve_targets.items()),
    )


# every encoding an evaluation session revisits: the full encodings plus the
# sub-encodings a sweep draws
@lru_cache(maxsize=64)
def _compile(
    name: str,
    states: tuple[StateRef, ...],
    parking: tuple[tuple[StateRef, StateRef], ...],
    deshelve_targets: tuple[tuple[StateRef, StateRef], ...],
) -> MeasurementPlan:
    """The measurement plan of the encoding with this content.  Raises what
    ``QuditEncoding`` raises, and PlanError, naming the encoding, for a
    pulse with |Delta m| > 2 or a state more than three pulses from |0>."""
    encoding = QuditEncoding(name, states, dict(parking), dict(deshelve_targets))

    def pulse(s_state, d_state, what, source, dest):
        if not _quadrupole_allowed(s_state, d_state):
            raise PlanError(f"{name}: {what} {source} -> {dest} needs |Delta m| <= 2")
        return PulseStep(s_state, d_state)

    shelve = {s: pulse(s, encoding.parking[s], "shelving", s, encoding.parking[s])
              for s in states[1:] if s.level == BA137_S12}
    steps = [*shelve.values(), CheckStep(0)]
    for n, state in enumerate(states[1:], start=1):
        if state in shelve:
            readout = shelve[state]
        else:
            target = encoding.deshelve_target(state)
            readout = pulse(target, state, "de-shelving", state, target)
        steps += [readout, CheckStep(n)]
    prep_paths = tuple(_shortest_path(states[0], s) for s in states)
    for s, path in zip(states, prep_paths):
        if path is None:
            raise PlanError(
                f"{name}: state {s} is not reachable from {states[0]} "
                "within three quadrupole pulses"
            )

    step_keys = [s.key for s in steps if isinstance(s, PulseStep)]
    pulses = tuple(dict.fromkeys(step_keys + [p.key for path in prep_paths for p in path]))
    index = {key: i for i, key in enumerate(pulses)}
    # every atomic state a plan pulse can touch, encoded states first (so
    # state n has code n), then the parking states
    code = {s: i for i, s in enumerate(dict.fromkeys([
        *states, *(park for _, park in parking), *(st for key in pulses for st in key),
    ]))}
    return MeasurementPlan(
        steps=tuple(steps),
        prep_paths=prep_paths,
        _pulses=pulses,
        _step_codes=tuple(index[s.key] if isinstance(s, PulseStep) else None for s in steps),
        _prep_codes=tuple(tuple(index[p.key] for p in path) for path in prep_paths),
        _code=MappingProxyType(code),
        _pulse_codes=tuple((code[s_state], code[d_state]) for s_state, d_state in pulses),
        _is_d=tuple(s.level == BA137_D52 for s in code),
        _step_pulse=MappingProxyType({key: index[key] for key in step_keys}),
    )


@dataclass(eq=False)
class ErrorParams:
    """Stochastic error model of one SPAM experiment.

    eps_pi maps (6S state, 5D state) pulse pairs to failure probabilities.
    ``leak`` optionally redirects a pulse to a spectator pair with the
    given probability (off-resonant crosstalk to the nearest-frequency
    transition); it defaults to off.
    """

    eps_pi: Mapping[tuple[StateRef, StateRef], float] = field(default_factory=dict)
    prep_error: float = 0.0
    p_dark_given_s: float = 0.0  # bright ion read as dark
    p_bright_given_d: float = 0.0  # dark ion read as bright
    decay_rate: float = 0.0  # 1/s out of the 5D5/2 level
    leak: Mapping[
        tuple[StateRef, StateRef], tuple[tuple[StateRef, StateRef], float]
    ] = field(default_factory=dict)

    def __post_init__(self):
        # (name, pulse pair or None, value); only a failing entry's name is
        # formatted, as formatting every pair costs more than the checks
        probs = [(name, None, getattr(self, name)) for name in _PROBABILITIES]
        probs += [("eps_pi", k, p) for k, p in self.eps_pi.items()]
        probs += [("leak", k, p) for k, (_, p) in self.leak.items()]
        for name, pair, p in probs:
            if not 0.0 <= p <= 1.0:
                name = name if pair is None else f"{name} {_pair_key(pair)}"
                raise ValueError(f"{name} must be in [0, 1], got {p!r}")
        if not (math.isfinite(self.decay_rate) and self.decay_rate >= 0):
            raise ValueError(f"decay_rate must be finite and nonnegative, got {self.decay_rate!r}")

    def eps(self, key: tuple[StateRef, StateRef]) -> float:
        try:
            return self.eps_pi[key]
        except KeyError:
            raise MissingTransitionError(
                f"no pi-pulse error for transition {key[0]} <-> {key[1]}"
            ) from None

    @classmethod
    def zero(cls, encoding: QuditEncoding) -> "ErrorParams":
        return cls.uniform(encoding, 0.0)

    @classmethod
    def uniform(cls, encoding: QuditEncoding, eps: float, **kwargs) -> "ErrorParams":
        plan = build_measurement_sequence(encoding)
        return cls(eps_pi=dict.fromkeys(plan._pulses, eps), **kwargs)


# the scalar ErrorParams fields, as the JSON keys of the same names
_PROBABILITIES = ("prep_error", "p_dark_given_s", "p_bright_given_d")
_RATES = _PROBABILITIES + ("decay_rate",)


def _pair_key(pair: tuple[StateRef, StateRef]) -> str:
    return f"{pair[0].key}->{pair[1].key}"


def error_params_to_json(path, errors: ErrorParams) -> None:
    doc = {
        **{key: getattr(errors, key) for key in _RATES},
        "eps_pi": {_pair_key(k): p for k, p in errors.eps_pi.items()},
        "leak": {
            _pair_key(k): {"spectator": _pair_key(sp), "probability": p}
            for k, (sp, p) in errors.leak.items()
        },
    }
    _write_json(path, doc)


def _parse_pair(key: str) -> tuple[StateRef, StateRef]:
    a, _, b = key.partition("->")
    return parse_atomic_state(a), parse_atomic_state(b)


def error_params_from_json(path) -> ErrorParams:
    """Read what ``error_params_to_json`` writes.  A file that is not such a
    document raises TableError naming the file and the key at fault."""

    def read(doc, where):
        for where.key in doc:
            if where.key not in ("eps_pi", "leak") + _RATES:
                raise ValueError(f"unknown key; expected one of eps_pi, leak, {', '.join(_RATES)}")
        eps_pi, leak = {}, {}
        where.key = "eps_pi"
        for k, p in _json(doc.get(where.key, {}), dict).items():
            where.key = f"eps_pi {k}"
            eps_pi[_parse_pair(k)] = _json(p, _NUMBER)
        where.key = "leak"
        for k, v in _json(doc.get(where.key, {}), dict).items():
            where.key = f"leak {k}"
            spectator, p = _json(v, dict)["spectator"], v["probability"]
            leak[_parse_pair(k)] = (_parse_pair(_json(spectator, str)), _json(p, _NUMBER))
        rates = {}
        for where.key in _RATES:
            rates[where.key] = _json(doc.get(where.key, 0.0), _NUMBER)
        where.key = "values"
        return ErrorParams(eps_pi=eps_pi, leak=leak, **rates)

    return _read_json(path, read)


def error_params_from_reference(fixtures_dir=None) -> ErrorParams:
    """eps_pi from the bundled per-transition reference table (13-level
    encoding, single-transition-error column)."""
    ground = _S(2, 2)
    eps = {}
    for row in load_transition_params(fixtures_dir):
        if row.index is None or row.index == 0:
            continue
        if row.single_transition_error is None:
            continue
        eps[(ground, parse_atomic_state(row.atomic_state))] = row.single_transition_error
    return ErrorParams(eps_pi=eps)


_OTHER_GROUND = StateRef(BA137_S12, HalfInt(-2), HalfInt(0))  # inert bright sentinel, F~ = -1

MODES = ("first-bright", "strict-single-bright")


@dataclass(eq=False)
class ConfusionMatrix:
    """Prepared x measured probability table, optionally with a Null column."""

    probs: np.ndarray  # (n_prepared, n_outcomes [+1 Null])
    shots: np.ndarray  # effective shots per prepared row
    has_null: bool

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        self.shots = np.asarray(self.shots)
        if self.probs.ndim != 2 or len(self.shots) != self.probs.shape[0]:
            raise ValueError("probs must be 2-D with one shots entry per row")
        ok = (self.probs >= 0.0) & (self.probs <= 1.0)  # nan fails both
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            raise ValueError(f"probs[{i}, {j}] = {float(self.probs[i, j])!r} is not in [0, 1]")

    @classmethod
    def from_counts(cls, counts: np.ndarray, has_null: bool) -> "ConfusionMatrix":
        counts = np.asarray(counts)
        if not np.all(counts >= 0):
            raise ValueError("counts must be nonnegative")
        shots = counts.sum(axis=1)
        if np.any(shots == 0):
            raise ValueError("every prepared state needs at least one shot")
        return cls(probs=counts / shots[:, None], shots=shots, has_null=has_null)

    @property
    def n_prepared(self) -> int:
        return self.probs.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.probs.shape[1] - (1 if self.has_null else 0)

    def diagonal(self) -> np.ndarray:
        return self.probs.diagonal().copy()


def run_experiment(
    encoding: QuditEncoding,
    errors: ErrorParams,
    shots_per_state: int,
    seed: int,
    mode: str = "first-bright",
    intervals: float | Sequence[float] = 0.0,
) -> ConfusionMatrix:
    """Monte-Carlo confusion matrix with the Null column.

    Shots are i.i.d., so each prepared state's counts are one multinomial
    draw of ``shots_per_state`` from its row of the exact outcome matrix;
    the rows are drawn in order from ``default_rng(seed)``.  ``intervals``
    is the decay exposure in seconds before each check: entry j before
    check j, or one number for every check.  Entry 0 is ignored, as the
    first check follows preparation directly.
    """
    if not isinstance(shots_per_state, numbers.Integral) or shots_per_state < 1:
        raise ValueError(f"shots_per_state must be an integer >= 1, got {shots_per_state!r}")
    probs = _outcome_matrix(encoding, errors, mode, intervals)
    counts = np.random.default_rng(seed).multinomial(shots_per_state, probs)
    return ConfusionMatrix.from_counts(counts, has_null=True)


def enumerate_outcomes(
    encoding: QuditEncoding,
    errors: ErrorParams,
    prepared: int,
    mode: str = "first-bright",
    intervals: float | Sequence[float] = 0.0,
) -> dict:
    """Exact outcome distribution of one prepared state.

    One row of the exact outcome matrix.  Keys are outcome indices plus
    None for Null; outcomes of probability exactly zero are omitted.
    ``intervals`` is as for ``run_experiment``: entry j is the exposure
    before check j, a scalar applies to every check, and entry 0 is ignored.
    """
    _check_prepared(prepared, encoding.d)
    row = _outcome_matrix(encoding, errors, mode, intervals)[prepared].tolist()
    return {(None if k == encoding.d else k): p for k, p in enumerate(row) if p > 0.0}


def _check_prepared(prepared, d: int) -> None:
    index = isinstance(prepared, numbers.Integral) and not isinstance(prepared, bool)
    if not (index and 0 <= prepared < d):
        raise ValueError(f"prepared must be an index in [0, d) for d = {d}, got {prepared!r}")


def _swap(prob: np.ndarray, lo: int, hi: int, eps: float) -> None:
    """One pi pulse, in place: population of lo and hi trades places with
    probability 1 - eps."""
    new_lo = eps * prob[..., lo] + (1.0 - eps) * prob[..., hi]
    prob[..., hi] = eps * prob[..., hi] + (1.0 - eps) * prob[..., lo]
    prob[..., lo] = new_lo


def _outcome_matrix(
    encoding: QuditEncoding,
    errors: ErrorParams,
    mode: str,
    intervals: float | Sequence[float],
) -> np.ndarray:
    """Exact (d, d + 1) outcome probabilities, Null last, by forward
    propagation (``_forward``), as a read-only array.  Each call gathers the
    error model's numbers afresh, so it sees every change to the model."""
    if mode not in MODES:
        raise ValueError(f"unknown interpretation mode {mode!r}")
    plan = build_measurement_sequence(encoding)
    if not np.isscalar(intervals):
        intervals = tuple(intervals)
    try:
        params, extra, leaks = _gather(plan, errors)
    except MissingTransitionError:
        _check_intervals(intervals, plan.n_checks)  # a bad interval is named first
        raise
    return _forward(plan, mode, params, intervals, extra, leaks)


def _gather(plan: MeasurementPlan, errors: ErrorParams) -> tuple[bytes, tuple, tuple]:
    """``_forward``'s ``params``, ``extra`` and ``leaks``, from the error model."""
    eps_pi = errors.eps_pi
    try:
        params = [eps_pi[key] for key in plan._pulses]
    except KeyError:
        params = [errors.eps(key) for key in plan._pulses]  # raises, naming the pulse
    params += [errors.prep_error, errors.p_dark_given_s, errors.p_bright_given_d]
    # leak spectators outside the plan get the next codes, and the inert
    # ground the last one
    spectators = (st for spectator, p in errors.leak.values() if p > 0 for st in spectator)
    extra = tuple(st for st in dict.fromkeys([*spectators, _OTHER_GROUND]) if st not in plan._code)
    leaks = []
    if errors.leak:
        code = {**plan._code, **{st: len(plan._code) + k for k, st in enumerate(extra)}}
        for key, (spectator, p) in errors.leak.items():
            i = plan._step_pulse.get(key)
            if p > 0 and i is not None:
                leaks.append((i, code[spectator[0]], code[spectator[1]]))
                params += [p, errors.eps(spectator)]
    params.append(errors.decay_rate)
    return np.array(params, dtype=np.float64).tobytes(), extra, tuple(leaks)


def _check_intervals(intervals, n_checks: int) -> np.ndarray:
    """One exposure per check, each finite and nonnegative, from ``intervals``."""
    if np.isscalar(intervals):
        ivals = np.full(n_checks, float(intervals))
    else:
        ivals = np.asarray(intervals, dtype=float)
        if len(ivals) != n_checks:
            raise ValueError(f"need {n_checks} check intervals, got {len(ivals)}")
    if not np.all(np.isfinite(ivals) & (ivals >= 0)):
        raise ValueError(f"check intervals must be finite and nonnegative, got {ivals.tolist()}")
    return ivals


# a sweep reads one matrix row by row and then samples it; the memo only
# has to outlive that, and holds at most 8 x 25 x 26 floats
@lru_cache(maxsize=8)
def _forward(
    plan: MeasurementPlan,
    mode: str,
    params: bytes,
    intervals: float | tuple[float, ...],
    extra: tuple[StateRef, ...],
    leaks: tuple[tuple[int, int, int], ...],
) -> np.ndarray:
    """The forward pass over the plan's integer codes.

    ``params`` holds the float64 bytes (which keep -0.0 and 0.0 apart) of
    the error of each pulse, prep_error, p_dark_given_s, p_bright_given_d,
    the probability and spectator error of each leak, and the decay rate.
    ``intervals`` is as for ``run_experiment``.  ``extra`` are the states
    coded after the plan's, the inert ground among them; ``leaks`` holds
    (pulse, spectator 6S code, spectator 5D code) for each leaking pulse.

    ``prob[row, code]`` is the probability that the prepared state ``row``
    is in atomic state ``code`` with no bright check so far.  Check j
    applies decay and moves the bright part of ``prob`` to ``bright[j]``.
    Outcome j gets ``bright[j]`` times the weight ``weights[j, 0, code]``
    and Null the rest, plus the mass never bright.  In first-bright mode
    the weight is exactly 1, so ``bright[j]`` is booked whole; in strict
    mode it is the probability that every later check reads dark from
    ``code`` just after check j, which one backward pass over the steps
    gives (the backward half of the forward-backward recursion), on Python
    floats, as each of its pulses touches two entries.
    """
    values = np.frombuffer(params)
    n = len(plan._pulses) + 3
    *eps, prep_error, p_dark_given_s, p_bright_given_d = values[:n].tolist()
    *numbers, decay_rate = values[n:].tolist()
    leak_at = {i: (lo, hi, p, e) for (i, lo, hi), p, e in zip(leaks, numbers[::2], numbers[1::2])}
    d = plan.n_checks
    decay_p = -np.expm1(-decay_rate * _check_intervals(intervals, d))
    decay_p[0] = 0.0  # the first check follows preparation directly
    is_d_level = np.array(plan._is_d + tuple(s.level == BA137_D52 for s in extra))
    other = plan._code.get(_OTHER_GROUND, len(plan._code) + extra.index(_OTHER_GROUND))

    def pulse(prob, i):  # and its leak, if it leaks
        if i not in leak_at:
            _swap(prob, *plan._pulse_codes[i], eps[i])
            return prob
        lo, hi, leak_p, leak_eps = leak_at[i]
        leaked = prob.copy()
        _swap(leaked, lo, hi, leak_eps)
        _swap(prob, *plan._pulse_codes[i], eps[i])
        return (1.0 - leak_p) * prob + leak_p * leaked

    def swap_floats(beta, lo, hi, e):  # _swap, on a list of floats
        beta[lo], beta[hi] = (e * beta[lo] + (1.0 - e) * beta[hi],
                              e * beta[hi] + (1.0 - e) * beta[lo])

    def beta_pulse(beta, i):  # pulse, on a list of floats: the matrix is symmetric
        if i not in leak_at:
            swap_floats(beta, *plan._pulse_codes[i], eps[i])
            return beta
        lo, hi, leak_p, leak_eps = leak_at[i]
        leaked = beta.copy()
        swap_floats(leaked, lo, hi, leak_eps)
        swap_floats(beta, *plan._pulse_codes[i], eps[i])
        return [(1.0 - leak_p) * b + leak_p * c for b, c in zip(beta, leaked)]

    p_bright = np.where(is_d_level, p_bright_given_d, 1.0 - p_dark_given_s)
    p_dark = 1.0 - p_bright
    # per check, the factor decay leaves on each code: exactly 1.0 on S levels
    keep = np.where(is_d_level, 1.0 - decay_p[:, None], 1.0)
    if mode == "strict-single-bright":
        weights, beta, j = np.empty((d, 1, len(is_d_level))), [1.0] * len(is_d_level), d
        dark, keeps = p_dark.tolist(), keep.tolist()
        for i in reversed(plan._step_codes):
            if i is not None:
                beta = beta_pulse(beta, i)
                continue
            j -= 1
            weights[j, 0] = beta
            beta = [p * b for p, b in zip(dark, beta)]
            if decay_p[j] > 0:
                lost = beta[other]
                beta = [k * b + (1.0 - k) * lost for k, b in zip(keeps[j], beta)]

    prep_success = np.array([math.prod(1.0 - eps[i] for i in path) for path in plan._prep_codes])
    prob = np.zeros((d, len(is_d_level)))
    rows = np.arange(d)
    stay = 1.0 - prep_error
    prob[rows, rows] += stay * prep_success
    prob[rows, 0] += stay * (1.0 - prep_success)
    prob[:, other] += prep_error
    bright = np.empty((d, d, len(is_d_level)))  # [check, row, code]
    j = 0
    for i in plan._step_codes:
        if i is not None:
            prob = pulse(prob, i)
            continue
        if decay_p[j] > 0:
            lost = prob[:, is_d_level].sum(axis=-1) * decay_p[j]
            prob *= keep[j]
            prob[:, other] += lost
        np.multiply(prob, p_bright, out=bright[j])
        prob *= p_dark
        j += 1
    out = np.zeros((d, d + 1))
    if mode == "strict-single-bright":
        kept = bright * weights
        out[:, :d] += kept.sum(axis=-1).T
        out[:, d] += (bright - kept).sum(axis=(0, 2)) + prob.sum(axis=-1)
    else:  # every weight is exactly 1, so no bright mass goes to Null
        out[:, :d] += bright.sum(axis=-1).T
        out[:, d] += prob.sum(axis=-1)

    dev = np.abs(out.sum(axis=1) - 1.0).max()
    if out.min() < 0.0 or not dev <= 1e-12:
        raise ValueError(
            f"outcome matrix is not row-stochastic (min entry {out.min():.3g}, "
            f"row-sum deviation {dev:.3g})"
        )
    out.setflags(write=False)
    return out


def post_select(raw: ConfusionMatrix) -> ConfusionMatrix:
    """Drop the Null column and renormalize each row over real outcomes."""
    if not raw.has_null:
        raise ValueError("post_select needs a matrix with a Null column")
    body = raw.probs[:, :-1]
    mass = body.sum(axis=1)
    dead = np.where(mass <= 0)[0]
    if dead.size:
        raise NullRowError(f"rows {dead.tolist()} have no non-Null outcomes")
    probs = body / mass[:, None]
    shots = np.rint(raw.shots * mass).astype(int)
    return ConfusionMatrix(probs=probs, shots=shots, has_null=False)


def average_fidelity(matrix: ConfusionMatrix) -> tuple[float, float]:
    """Mean diagonal probability and its propagated binomial uncertainty."""
    diag = matrix.diagonal()
    fid = float(diag.mean())
    var = float(np.sum(diag * (1.0 - diag) / np.maximum(matrix.shots, 1)))
    return fid, math.sqrt(var) / matrix.n_prepared


@dataclass(frozen=True)
class ScalingCurves:
    """Average fidelity vs dimension for best- and worst-state choices."""

    d_values: tuple[int, ...]
    optimal: tuple[float, ...]
    worst: tuple[float, ...]
    optimal_choice: tuple[tuple[int, ...], ...]
    worst_choice: tuple[tuple[int, ...], ...]


def scaling_analysis(per_state_fidelity: Mapping[int, float], d_range: Iterable[int]) -> ScalingCurves:
    """Best/worst average fidelity vs qudit dimension, always keeping |0>.

    For each d the d-1 non-|0> states with the highest (lowest) fidelities
    are chosen; ties break toward the lower state index.  Each point is
    the correctly rounded sum (``math.fsum``) of the chosen fidelities / d.
    """
    if 0 not in per_state_fidelity:
        raise ValueError("need the fidelity of state 0")
    others = sorted(k for k in per_state_fidelity if k != 0)
    d_values = sorted(set(int(d) for d in d_range))
    if d_values and d_values[-1] - 1 > len(others):
        raise ValueError(
            f"d = {d_values[-1]} needs {d_values[-1] - 1} non-zero states, "
            f"have {len(others)}"
        )
    if d_values and d_values[0] < 1:
        raise ValueError("d must be >= 1")
    best_order = sorted(others, key=lambda k: (-per_state_fidelity[k], k))
    worst_order = sorted(others, key=lambda k: (per_state_fidelity[k], k))

    def curve(order):
        order = [0] + order
        values = [per_state_fidelity[k] for k in order]
        means, choices, chosen = [], [], []
        for d in d_values:  # ascending, so each choice extends the last
            for k in order[len(chosen):d]:
                bisect.insort(chosen, k)
            means.append(math.fsum(values[:d]) / d)
            choices.append(tuple(chosen))
        return tuple(means), tuple(choices)

    (optimal, optimal_choice), (worst, worst_choice) = curve(best_order), curve(worst_order)
    return ScalingCurves(tuple(d_values), optimal, worst, optimal_choice, worst_choice)


@dataclass(eq=False)
class Timings:
    """Durations (seconds) of the protocol phases."""

    fluorescence_check: float
    awg_trigger: float
    optical_pump: float = 0.0
    pi_pulse: Mapping[int, float] = field(default_factory=dict)  # encoded index -> tau_pi

    def __post_init__(self):
        durations = [(name, getattr(self, name))
                     for name in ("fluorescence_check", "awg_trigger", "optical_pump")]
        durations += [(f"pi_pulse {n}", t) for n, t in self.pi_pulse.items()]
        for name, t in durations:
            if not (math.isfinite(t) and t >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {t!r}")


@dataclass(frozen=True)
class TimingBudget:
    measurement_total: float
    preparation_total: float
    breakdown: tuple[tuple[str, float], ...]


def timing_budget(encoding: QuditEncoding, timings: Timings, prepared: int = 0) -> TimingBudget:
    """Duration of one experiment.

    Measurement: d fluorescence checks, one AWG trigger to enter the
    readout loop, then a trigger plus the de-shelve pi pulse per encoded
    state (plus shelve pulses and triggers for 6S-encoded states).  The
    in-loop optical-pumping slot after each check is charged to the budget
    even though the simulated physics omits it (it does not affect the
    first-bright statistics).  Preparation (initial optical pumping plus
    the prep pulse) is reported separately; ``prepared`` must be one of
    the encoding's d indices.
    """
    d = encoding.d
    _check_prepared(prepared, d)
    fluor = d * timings.fluorescence_check
    shelved = [n for n, s in enumerate(encoding.states) if n and s.level == BA137_S12]
    # one trigger per pulse plus the switch into the readout loop; a d = 1
    # measurement never touches the AWG at all
    triggers = (1 + len(shelved) + (d - 1)) * timings.awg_trigger if d > 1 else 0.0
    deshelve = sum(timings.pi_pulse.get(n, 0.0) for n in range(1, d))
    shelve = sum(timings.pi_pulse.get(n, 0.0) for n in shelved)
    inloop_pump = (d - 1) * timings.optical_pump
    measurement = fluor + triggers + deshelve + shelve + inloop_pump
    prep = timings.optical_pump + (timings.pi_pulse.get(prepared, 0.0) if prepared else 0.0)
    breakdown = (
        ("fluorescence", fluor),
        ("awg_triggers", triggers),
        ("deshelve_pulses", deshelve),
        ("shelve_pulses", shelve),
        ("inloop_optical_pump", inloop_pump),
        ("optical_pump", timings.optical_pump),
        ("prep_pulse", prep - timings.optical_pump),
    )
    return TimingBudget(measurement, prep, breakdown)


def reference_timings(fixtures_dir=None) -> Timings:
    """5 ms fluorescence, 4 ms AWG trigger, pi times from the reference table."""
    pi = {}
    for row in load_transition_params(fixtures_dir):
        if row.index not in (None, 0) and row.tau_pi_us is not None:
            pi[row.index] = row.tau_pi_us * 1e-6
    return Timings(fluorescence_check=5e-3, awg_trigger=4e-3, optical_pump=0.0, pi_pulse=pi)


def write_confusion_csv(path, matrix: ConfusionMatrix) -> None:
    """Header: prepared,0,1,...,[Null]; one row per prepared state."""
    header = ["prepared"] + [str(i) for i in range(matrix.n_outcomes)]
    if matrix.has_null:
        header.append("Null")
    _write_csv(path, header, ([str(i)] + [repr(float(x)) for x in row]
                              for i, row in enumerate(matrix.probs)))


# shots per prepared state behind the confusion tables the package reads
_TABLE_SHOTS = 1000


def read_confusion_csv(path) -> ConfusionMatrix:
    """Read a confusion CSV (probability form) of 1000 shots per row.

    Header: prepared,0,1,...,d-1 and an optional Null column; each row
    sums to 1 within the printed precision."""
    _, _, probs, has_null = _read_confusion(path)
    return ConfusionMatrix(probs=probs, shots=np.full(len(probs), _TABLE_SHOTS), has_null=has_null)


def load_reference_confusion(name: str, fixtures_dir=None) -> ConfusionMatrix:
    """Bundled confusion fixture ('e2', 'e3', 's1', 's2') as a matrix of
    1000 shots per row, read and checked by ``read_confusion_csv``."""
    return read_confusion_csv(fixture_path(f"table_{name}.csv", fixtures_dir))
