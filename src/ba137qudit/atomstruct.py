"""Hyperfine + Zeeman structure of a fine-structure level at arbitrary field.

The Hamiltonian is built in the |m_I, m_J> product basis, in MHz:

    H = A_D I.J
      + B_Q [3(I.J)^2 + (3/2) I.J - I(I+1)J(J+1)] / [2I(2I-1)J(2J-1)]
      + B mu_B/h (g_J m_J + g_I m_I)

with mu_B/h = ``MU_B_OVER_H``, the one physical constant the structure uses.

It conserves m = m_I + m_J, so each m block is diagonalized independently:
all requested fields and all blocks of one size in one stacked
eigendecomposition, from one cached per-level table of everything that does
not depend on the field.
Eigenstates are labeled |F~, m_F~> by energy rank: levels of one block
cannot cross (von Neumann-Wigner), so the k-th lowest eigenvalue of a block
carries the k-th lowest closed-form E(F) of that block at every field.  A
gap guard raises ``LabelingError`` when two eigenvalues of a block, at zero
field or at the requested field, come closer than ``_GAP_MIN``, or when an
eigenvalue is not finite.
The hyperfine terms are traceless over the level, so energies come out
relative to the level centroid, and ``transition_frequency`` gives
splittings relative to the two level centroids.  Line frequencies at many
fields (the field estimate's grid, the ``levels`` scan) are read straight
from the stacked energies by ``_frequencies``, without building eigenstates.

Four caches: ``_table`` and ``_check_zero_field`` keyed on the level;
``_grid_energies``, the energies ``_frequencies`` reads, keyed on (level,
the fields' bytes), so the field estimate's grid is solved once per level;
and ``_field_solve``, one field's energies, eigenvectors and Hellmann-Feynman
slopes keyed on (level, field), which ``diagonalize``, ``field_sensitivity``,
``transitions.strength_table`` and ``_lines_at`` read.  ``_lines_at`` gives
the line frequencies at one field: the field estimate's Gauss-Newton steps
and ``calib``'s simulated splittings and snapshots read them.  ``StateRef``
is the package's one state type, and ``parse_atomic_state`` reads its key.
Levels, like ``HalfInt`` values, are interned (one instance per content),
so a ref hashes and compares in C.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .angmom import HalfInt, clebsch_gordan
from .fixtures import _write_csv

__all__ = [
    "MU_B_OVER_H",
    "LevelConstants",
    "LabeledEigenstate",
    "EigenSystem",
    "StateRef",
    "LabelingError",
    "FieldMismatchError",
    "BA137_S12",
    "BA137_D52",
    "zero_field_energy",
    "diagonalize",
    "diagonalize_range",
    "decomposition_scan",
    "transition_frequency",
    "field_sensitivity",
    "write_decomposition_scan",
]


MU_B_OVER_H = 1.3996245  # Bohr magneton / Planck constant, MHz/G

# MHz: smallest in-block gap (and largest zero-field deviation from the
# closed-form E(F)) at which rank labels are trusted
_GAP_MIN = 1e-6


class LabelingError(RuntimeError):
    """Rank labels are ambiguous: two eigenvalues of one m block lie closer
    than ``_GAP_MIN``, an eigenvalue is not finite, or the zero-field
    spectrum disagrees with E(F)."""


class FieldMismatchError(ValueError):
    """Two eigenstates from different magnetic fields were combined."""


# every level in use, by its coerced field values; a level nothing else
# holds drops out
_LEVELS: "weakref.WeakValueDictionary[tuple, LevelConstants]" = weakref.WeakValueDictionary()
_LEVELS_LOCK = threading.Lock()


@dataclass(frozen=True, eq=False, init=False)
class LevelConstants:
    """Hyperfine and Zeeman parameters of one fine-structure level.

    g_J defaults must be supplied by the caller; for 137Ba+ the bundled
    ``BA137_S12`` / ``BA137_D52`` presets use Lande values g_J = 2 and 6/5
    with g_I = 0, which reproduce the measured field sensitivities.

    Interned by content: ``I`` and ``J`` are coerced to ``HalfInt`` and the
    four numbers to floats (-0.0 read as 0.0), and a level whose fields
    then equal an existing level's is that level, so a twin of a preset is
    the preset.  Equality and hashing are by identity and run in C, and
    ``copy``, ``deepcopy`` and ``pickle`` return the same instance.
    """

    name: str
    I: HalfInt
    J: HalfInt
    A_D: float  # MHz
    B_Q: float  # MHz
    g_J: float
    g_I: float = 0.0

    def __new__(cls, name, I, J, A_D, B_Q, g_J, g_I=0.0):
        I, J = HalfInt.coerce(I), HalfInt.coerce(J)
        values = (name, I, J, *(float(x) + 0.0 for x in (A_D, B_Q, g_J, g_I)))
        with _LEVELS_LOCK:
            level = _LEVELS.get(values)
            if level is not None:
                return level
            if I.twice < 0 or J.twice < 0:
                raise ValueError("I and J must be nonnegative")
            if values[4] != 0.0 and (I.twice < 2 or J.twice < 2):
                raise ValueError(
                    f"{name}: B_Q != 0 requires I >= 1 and J >= 1 "
                    "(the quadrupole denominator vanishes otherwise)"
                )
            level = _LEVELS[values] = object.__new__(cls)
            for f, value in zip(fields(cls), values):
                object.__setattr__(level, f.name, value)
            return level

    def __reduce__(self):
        return LevelConstants, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def dim(self) -> int:
        return (self.I.twice + 1) * (self.J.twice + 1)

    def f_values(self) -> tuple[HalfInt, ...]:
        tmin = abs(self.I.twice - self.J.twice)
        tmax = self.I.twice + self.J.twice
        return tuple(HalfInt(t) for t in range(tmin, tmax + 1, 2))


BA137_S12 = LevelConstants("6S1/2", HalfInt(3), HalfInt(1), 4018.871, 0.0, 2.0)
BA137_D52 = LevelConstants("5D5/2", HalfInt(3), HalfInt(5), -12.028, 59.533, 1.2)

# the side letter that names a preset level in a state's text key
_SIDES = {BA137_S12: "S", BA137_D52: "D"}
_LEVEL_OF_SIDE = {side: level for level, side in _SIDES.items()}


class StateRef(NamedTuple):
    """A (level, F~, m_F~) state; rank labels survive re-diagonalization.

    ``key`` (also ``str``) is its text, ``S:F2:m2`` or ``D:F4:m-3`` on the
    two presets; on any other level the level's name replaces the letter.
    """

    level: LevelConstants
    F: HalfInt
    m: HalfInt

    @classmethod
    def of(cls, level: LevelConstants, F, m) -> "StateRef":
        return cls(level, HalfInt.coerce(F), HalfInt.coerce(m))

    @property
    def key(self) -> str:
        return f"{_SIDES.get(self.level, self.level.name)}:F{self.F}:m{self.m}"

    def __str__(self) -> str:
        return self.key


def parse_atomic_state(key: str) -> StateRef:
    """Parse 'S:F2:m2' / 'D:F4:m-3' style keys (fractions like 3/2 allowed)
    into a ref on ``BA137_S12`` or ``BA137_D52``."""

    def half(txt: str) -> HalfInt:
        num, *den = txt.split("/")
        if den not in ([], ["2"]):
            raise ValueError(f"bad half-integer {txt!r}")
        return HalfInt(int(num) * (2 - len(den)))

    try:
        side, ftxt, mtxt = key.split(":")
        if side not in _LEVEL_OF_SIDE or not ftxt.startswith("F") or not mtxt.startswith("m"):
            raise ValueError
        return StateRef(_LEVEL_OF_SIDE[side], half(ftxt[1:]), half(mtxt[1:]))
    except ValueError as exc:
        raise ValueError(f"cannot parse atomic state key {key!r}") from exc


def _spin_matrices(twice_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(jz, jp, jm) for spin j = twice_j/2, basis m = -j..j ascending."""
    j = twice_j / 2.0
    ms = np.arange(-twice_j, twice_j + 1, 2) / 2.0
    jp = np.diag(np.sqrt(j * (j + 1) - ms[:-1] * (ms[:-1] + 1)), -1)
    return np.diag(ms), jp, jp.T


class _Table(NamedTuple):
    """The field-independent facts of one level."""

    basis: tuple[tuple[int, int], ...]  # (2 m_I, 2 m_J); index = i_I * dim_J + i_J
    h0: np.ndarray  # field-free Hamiltonian over the product basis, MHz
    moment: np.ndarray  # g_J m_J + g_I m_I: dH/dB in units of mu_B/h
    labels: tuple[tuple[HalfInt, HalfInt], ...]  # (F, m_F) by row: F up, m_F down
    row: dict  # (2F, 2m_F) -> row
    u: np.ndarray  # U[basis index, row] = <I m_I; J m_J | F m_F>
    e_f: np.ndarray  # closed-form E(F) by row
    off_block: np.ndarray  # [row, row']: True where the two m_F differ
    # per m-block size, the blocks of that size stacked in ascending m:
    # (product-basis indices (k, s), label rows by ascending closed-form E(F)
    # (k, s), the blocks of h0 (k, s, s), the blocks' moments as diagonal
    # matrices (k, s, s)), so one eigh solves every block of a size
    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]


@lru_cache(maxsize=32)
def _table(level: LevelConstants) -> _Table:
    basis = tuple((tmi, tmj) for tmi in range(-level.I.twice, level.I.twice + 1, 2)
                  for tmj in range(-level.J.twice, level.J.twice + 1, 2))
    iz, ip, im = _spin_matrices(level.I.twice)
    jz, jp, jm = _spin_matrices(level.J.twice)
    idot = np.kron(iz, jz) + 0.5 * (np.kron(ip, jm) + np.kron(im, jp))
    I, J = float(level.I), float(level.J)
    quad = 0.0 if level.B_Q == 0.0 else (  # B_Q != 0 only where I, J >= 1
        3.0 * (idot @ idot) + 1.5 * idot - I * (I + 1) * J * (J + 1) * np.eye(level.dim)
    ) / (2.0 * I * (2 * I - 1) * J * (2 * J - 1))
    h0 = level.A_D * idot + level.B_Q * quad
    tmi, tmj = np.array(basis).T
    moment = level.g_J * (tmj / 2.0) + level.g_I * (tmi / 2.0)
    keys = [(F.twice, tm) for F in level.f_values() for tm in range(F.twice, -F.twice - 1, -2)]
    u = np.array([[
        clebsch_gordan(level.I, HalfInt(ti), level.J, HalfInt(tj), HalfInt(tf), HalfInt(tmf))
        if ti + tj == tmf else 0.0 for tf, tmf in keys
    ] for ti, tj in basis])
    e_f = np.array([zero_field_energy(level, HalfInt(tf)) for tf, _ in keys])
    tm, tm_f = tmi + tmj, np.array([tmf for _, tmf in keys])
    by_size = {}
    for m in sorted(set(tm.tolist())):
        idx = np.flatnonzero(tm == m)
        rows = np.array(sorted(np.flatnonzero(tm_f == m), key=lambda k: e_f[k]))
        block = (idx, rows, h0[np.ix_(idx, idx)], np.diag(moment[idx]))
        by_size.setdefault(idx.size, []).append(block)
    blocks = tuple(tuple(map(np.array, zip(*group))) for group in by_size.values())
    labels = tuple((HalfInt(tf), HalfInt(tmf)) for tf, tmf in keys)
    row = {key: k for k, key in enumerate(keys)}
    off_block = np.not_equal.outer(tm_f, tm_f)
    return _Table(basis, h0, moment, labels, row, u, e_f, off_block, blocks)


def zero_field_energy(level: LevelConstants, F) -> float:
    """Closed-form hyperfine energy E(F) in MHz, relative to the centroid."""
    F = float(HalfInt.coerce(F))
    I, J = float(level.I), float(level.J)
    K = F * (F + 1) - I * (I + 1) - J * (J + 1)
    e = level.A_D * K / 2.0
    if level.B_Q != 0.0:
        e += (
            level.B_Q
            * (0.75 * K * (K + 1) - I * (I + 1) * J * (J + 1))
            / (2.0 * I * (2 * I - 1) * J * (2 * J - 1))
        )
    return e


@dataclass(frozen=True, eq=False)
class LabeledEigenstate:
    """One |F~, m_F~> eigenstate at a given field.

    ``amp_mImJ`` is the (real) amplitude vector over the |m_I, m_J> product
    basis; ``amp_FmF`` the amplitudes over the zero-field |F, m_F> basis.
    Only |F, m_F = m_F~> components can be nonzero.  The global sign is fixed
    so the largest-magnitude |F, m_F> amplitude is positive, which makes the
    B -> 0 limit equal to +1 on the state's own |F, m_F> entry.
    """

    level: LevelConstants
    F_tilde: HalfInt
    m_F_tilde: HalfInt
    energy: float  # MHz, relative to the level centroid
    B: float  # gauss
    amp_mImJ: np.ndarray
    amp_FmF: np.ndarray

    def __post_init__(self):
        self.amp_mImJ.setflags(write=False)
        self.amp_FmF.setflags(write=False)

    @property
    def ref(self) -> StateRef:
        return StateRef(self.level, self.F_tilde, self.m_F_tilde)


def _row(level: LevelConstants, F, m) -> int:
    """Row of the label |F, m_F> (or |F~, m_F~>) in the level's table."""
    F, m = HalfInt.coerce(F), HalfInt.coerce(m)
    if (F.twice, m.twice) not in _table(level).row:
        raise KeyError(f"no state |F={F}, m={m}> in {level.name}")
    return _table(level).row[F.twice, m.twice]


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """All labeled eigenstates of one level at one field value.

    States are ordered by (F~ ascending, m_F~ descending), i.e. by label
    rather than by raw energy.  A label is the state's energy rank inside
    its m block, which levels of one block never exchange, so state
    identity is stable across level anticrossings.
    """

    level: LevelConstants
    B: float
    states: tuple[LabeledEigenstate, ...]

    def state(self, F, m) -> LabeledEigenstate:
        return self.states[_row(self.level, F, m)]

    def __iter__(self):
        return iter(self.states)


def _solve(level: LevelConstants, bs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(energies, amp_mImJ, amp_FmF) at every field of ``bs``, of shapes
    (n, dim), (n, dim, dim) and (n, dim, dim); row k of a field belongs to
    the label ``_table(level).labels[k]``, its rank in its m block."""
    t = _table(level)
    for b in bs:
        if not 0.0 <= b < math.inf:
            raise ValueError(f"B must be finite and nonnegative, got {b}")
    n = len(bs)
    energies = np.empty((n, level.dim))
    amps = np.zeros((n, level.dim, level.dim))
    # a field too large for floats is reported by the guard below, not by
    # numpy's overflow and invalid-value warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # + 0.0 makes a field of -0.0 the zero field
        zeeman = (np.array(bs, dtype=float) + 0.0)[:, None, None, None] * MU_B_OVER_H
        for idx, rows, h0, moment in t.blocks:
            # entry for entry the blocks of _table(level).h0 + diag(B mu_B/h moment)
            w, v = np.linalg.eigh(h0 + zeeman * moment)
            gap = np.diff(w).min(axis=-1, initial=np.inf)  # per (field, block)
            # written so that NaN fails it; the spread is not finite when an
            # eigenvalue is not, or when two lie too far apart to subtract
            spread = w[..., -1] - w[..., 0]
            bad = ~((gap >= _GAP_MIN) & np.isfinite(spread))
            if bad.any():
                j, k = np.argwhere(bad)[0]
                why = (f"in-block gap {gap[j, k]:.3e} MHz at B = {bs[j]} G is below {_GAP_MIN} "
                       "MHz, so rank labels are ambiguous")
                if not (np.isfinite(w[j, k]).all() and np.isfinite(spread[j, k])):
                    why = f"the eigenvalues at B = {bs[j]} G are not finite or too far apart"
                raise LabelingError(f"{level.name}, m={t.labels[rows[k, 0]][1]}: {why}")
            energies[:, rows] = w
            amps[:, rows[..., None], idx[:, None]] = v.transpose(0, 1, 3, 2)
    # not amps @ u: only the batched matrix-vector form is bit-equal to U.T @ vec
    amp_f = np.matmul(t.u.T, amps[..., None])[..., 0]
    mag = np.abs(amp_f)
    flip = amp_f[np.arange(n)[:, None], np.arange(level.dim), mag.argmax(axis=-1)] < 0
    amps[flip] *= -1.0
    amp_f[flip] *= -1.0
    mag *= t.off_block  # the F-basis amplitudes must respect m conservation exactly
    if mag.any():
        raise LabelingError("m_F component leaked outside the m block")
    return energies, amps, amp_f


@lru_cache(maxsize=32)
def _check_zero_field(level: LevelConstants) -> None:
    """Check that the zero-field eigenvalues match the closed-form E(F): the
    rank order every field inherits."""
    t = _table(level)
    e0 = _solve(level, [0.0])[0][0]
    k = np.argmax(np.abs(e0 - t.e_f))
    if abs(e0[k] - t.e_f[k]) > _GAP_MIN:
        raise LabelingError(f"{level.name}: zero-field eigenvalue {e0[k]:.9f} MHz does not "
                            f"match the closed-form E(F={t.labels[k][0]}) = {t.e_f[k]:.9f} MHz")


def _labeled_solve(level: LevelConstants, bs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_solve`` at the fields ``bs`` after the zero-field check, with the
    closed-form E(F) as the energies at B = 0."""
    _check_zero_field(level)
    energies, amps, amp_f = _solve(level, bs)
    energies[np.equal(bs, 0.0)] = _table(level).e_f
    return energies, amps, amp_f


def _system(level: LevelConstants, B: float, energies, amps, amp_f) -> EigenSystem:
    """The EigenSystem of one field's row of ``_labeled_solve``."""
    return EigenSystem(level, B, tuple(
        LabeledEigenstate(level, F, m, e, B, amps[k], amp_f[k])
        for k, ((F, m), e) in enumerate(zip(_table(level).labels, energies.tolist()))
    ))


def diagonalize_range(level: LevelConstants, b_values: Sequence[float]) -> list[EigenSystem]:
    """Labeled eigensystems at every requested field, in the given order.

    The distinct fields are solved together: one stacked eigendecomposition
    per m-block size, labeled by energy rank.  At B = 0 the energies are the
    closed-form E(F).  Repeated fields share one EigenSystem.
    """
    bs = [float(b) + 0.0 for b in b_values]  # + 0.0: a field of -0.0 is the zero field
    new = list(dict.fromkeys(bs))
    systems = {b: _system(level, b, *row) for b, *row in zip(new, *_labeled_solve(level, new))}
    return [systems[b] for b in bs]


# fields per stacked solve of a caller that keeps one row per field: the
# eigenvectors and Hamiltonian stacks of a solve take about 16 kB per field
# on 5D5/2, so a long scan solved at once would hold gigabytes of them
_CHUNK = 1024


def _chunked(level: LevelConstants, bs, keep) -> np.ndarray:
    """``keep(*_labeled_solve(...))``, a row of ``level.dim`` numbers per field
    of ``bs``, solved ``_CHUNK`` fields at a time, each through every guard."""
    kept = np.empty((len(bs), level.dim))
    for i in range(0, len(bs), _CHUNK):
        kept[i:i + _CHUNK] = keep(*_labeled_solve(level, bs[i:i + _CHUNK]))
    return kept


def _energies(level: LevelConstants, bs) -> np.ndarray:
    """``_labeled_solve``'s energies at the fields ``bs``, by ``_chunked``."""
    return _chunked(level, bs, lambda energies, amps, amp_f: energies)


# keyed on (level, the fields as float64 bytes).  The field estimate asks
# for the same grid on every call, and a miss on that grid costs about 3 ms;
# a few entries hold it beside a ``levels`` scan or two
@lru_cache(maxsize=8)
def _grid_energies(level: LevelConstants, grid: bytes) -> np.ndarray:
    """``_energies`` at the fields packed in ``grid``, read-only, as they
    are shared."""
    energies = _energies(level, np.frombuffer(grid))
    energies.setflags(write=False)
    return energies


def _line_rows(pairs: Sequence[tuple[StateRef, StateRef]]) -> list[tuple[LevelConstants, int]]:
    """(level, table row) of each state of the (ground, excited) pairs,
    ground then excited, pair by pair."""
    return [(r.level, _row(r.level, r.F, r.m)) for pair in pairs for r in pair]


def _frequencies(pairs: Sequence[tuple[StateRef, StateRef]], b_values) -> np.ndarray:
    """E_excited - E_ground in MHz of every (ground, excited) pair at every
    field, shape (n_fields, n_pairs): each level is solved once for all the
    fields, and at B = 0 its energies are the closed-form E(F)."""
    rows = _line_rows(pairs)
    grid = np.array(b_values, dtype=float).tobytes()
    energies = {level: _grid_energies(level, grid) for level in dict.fromkeys(l for l, _ in rows)}
    cols = np.array([energies[level][:, k] for level, k in rows])
    cols = cols.reshape(len(pairs), 2, len(b_values))
    return (cols[:, 1] - cols[:, 0]).T


# keyed on (level, field).  A miss costs one eigendecomposition per block
# size (about 0.13 ms on 6S1/2, 0.27 ms on 5D5/2), so the cache only needs
# to hold the fields one computation revisits: a field estimate's
# Gauss-Newton steps visit about four fields per local minimum, and read
# both levels at each
@lru_cache(maxsize=32)
def _field_solve(level: LevelConstants, B: float) -> tuple[np.ndarray, ...]:
    """(energies, amp_mImJ, amp_FmF, slopes) of one level at the one field B:
    ``_labeled_solve`` at [B] plus every state's Hellmann-Feynman slope in
    MHz/G, <psi| mu_B/h (g_J m_J + g_I m_I) |psi>, the expectation of dH/dB
    in that state.  The arrays are read-only, as they are shared."""
    (energies,), (amps,), (amp_f,) = _labeled_solve(level, [B])
    moment = _table(level).moment
    # a stack of row-by-column products sums each state as its own dot
    # a**2 @ moment does; amps**2 @ moment, einsum and .sum round differently
    slopes = MU_B_OVER_H * np.matmul((amps**2)[:, None, :], moment[:, None])[:, 0, 0]
    for x in (energies, amps, amp_f, slopes):
        x.setflags(write=False)
    return energies, amps, amp_f, slopes


def _lines_at(rows: Sequence[tuple[LevelConstants, int]], B: float) -> tuple[np.ndarray, ...]:
    """(E_excited - E_ground in MHz, its slope in MHz/G) at the one field B,
    from ``_field_solve``, of every (ground, excited) pair whose states
    ``_line_rows`` gives."""
    solved = {level: _field_solve(level, float(B)) for level in dict.fromkeys(l for l, _ in rows)}
    energy = np.array([solved[level][0][k] for level, k in rows]).reshape(-1, 2)
    slope = np.array([solved[level][3][k] for level, k in rows]).reshape(-1, 2)
    return energy[:, 1] - energy[:, 0], slope[:, 1] - slope[:, 0]


def diagonalize(level: LevelConstants, B: float) -> EigenSystem:
    """Labeled eigensystem of one level at field B (gauss)."""
    B = float(B) + 0.0  # a field of -0.0 is the zero field
    return _system(level, B, *_field_solve(level, B)[:3])


@dataclass(frozen=True, eq=False)
class DecompositionScan:
    """|F, m_F> amplitudes of one labeled state across a field range."""

    level: LevelConstants
    F_tilde: HalfInt
    m_F_tilde: HalfInt
    b_values: np.ndarray
    components: tuple[tuple[HalfInt, HalfInt], ...]  # (F, m_F) per column
    amplitudes: np.ndarray  # shape (len(b_values), len(components))


def decomposition_scan(
    level: LevelConstants, F, m, b_values: Sequence[float]
) -> DecompositionScan:
    """Track one eigenstate's |F, m_F> decomposition over a field range.

    Identically-zero components (everything with m_F != m_F~, plus any
    accidental zeros) are omitted.
    """
    F, m = HalfInt.coerce(F), HalfInt.coerce(m)
    k = _row(level, F, m)
    bs = np.asarray(list(b_values), dtype=float)
    amps = _chunked(level, bs, lambda energies, amps, amp_f: amp_f[:, k])
    keep = np.flatnonzero(np.max(np.abs(amps), axis=0) > 1e-12)
    comps = tuple(_table(level).labels[i] for i in keep)
    return DecompositionScan(level, F, m, bs, comps, amps[:, keep])


def transition_frequency(ground: LabeledEigenstate, excited: LabeledEigenstate) -> float:
    """E_excited - E_ground in MHz: the splitting relative to the two level
    centroids.  Both states must come from the same field.
    """
    if ground.B != excited.B:
        raise FieldMismatchError(
            f"ground at B = {ground.B} G but excited at B = {excited.B} G"
        )
    return excited.energy - ground.energy


def field_sensitivity(ground: StateRef, excited: StateRef, B: float) -> float:
    """Magnetic-field sensitivity d(E_excited - E_ground)/dB in MHz/G.

    Hellmann-Feynman: each eigenvalue's slope is <psi| mu_B/h (g_J m_J +
    g_I m_I) |psi>, the expectation of dH/dB in its eigenstate.  At B = 0
    this is the slope into B > 0.
    """
    return float(_lines_at(_line_rows([(ground, excited)]), B)[1][0])


def write_decomposition_scan(path, scan: DecompositionScan) -> None:
    """CSV rows: B_gauss, F, m_F, amplitude (zero components omitted)."""
    _write_csv(path, ["B_gauss", "F", "m_F", "amplitude"], (
        [repr(float(b)), str(F), str(m), repr(float(scan.amplitudes[i, k]))]
        for i, b in enumerate(scan.b_values)
        for k, (F, m) in enumerate(scan.components)
    ))
