"""Hyperfine + Zeeman structure of a fine-structure level at arbitrary field.

The Hamiltonian is built in the |m_I, m_J> product basis, in MHz:

    H = A_D I.J
      + B_Q [3(I.J)^2 + (3/2) I.J - I(I+1)J(J+1)] / [2I(2I-1)J(2J-1)]
      + B mu_B/h (g_J m_J + g_I m_I)

It conserves m = m_I + m_J, so each m block is diagonalized independently.
Eigenstates are labeled |F~, m_F~> by energy rank: levels of one block
cannot cross (von Neumann-Wigner), so the k-th lowest eigenvalue of a block
carries the k-th lowest closed-form E(F) of that block at every field.  A
gap guard raises ``LabelingError`` when two eigenvalues of a block, at zero
field or at the requested field, come closer than ``_GAP_MIN``.
The hyperfine terms are traceless over the level, so energies come out
relative to the level centroid; absolute optical frequencies enter only as
an explicit offset in ``transition_frequency``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .angmom import HalfInt, clebsch_gordan

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "LevelConstants",
    "LabeledEigenstate",
    "EigenSystem",
    "StateRef",
    "LabelingError",
    "FieldMismatchError",
    "BA137_S12",
    "BA137_D52",
    "build_hamiltonian",
    "zero_field_energy",
    "diagonalize",
    "diagonalize_range",
    "decomposition_scan",
    "transition_frequency",
    "transition_frequency_at",
    "field_sensitivity",
    "write_level_scan",
    "write_decomposition_scan",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Single source of truth for unit conversions used by all modules."""

    mu_B_over_h: float = 1.3996245  # Bohr magneton / Planck constant, MHz/G


CONSTANTS = PhysicalConstants()

# MHz: smallest in-block gap (and largest zero-field deviation from the
# closed-form E(F)) at which rank labels are trusted
_GAP_MIN = 1e-6


class LabelingError(RuntimeError):
    """Rank labels are ambiguous: two eigenvalues of one m block lie closer
    than ``_GAP_MIN``, or the zero-field spectrum disagrees with E(F)."""


class FieldMismatchError(ValueError):
    """Two eigenstates from different magnetic fields were combined."""


@dataclass(frozen=True)
class LevelConstants:
    """Hyperfine and Zeeman parameters of one fine-structure level.

    g_J defaults must be supplied by the caller; for 137Ba+ the bundled
    ``BA137_S12`` / ``BA137_D52`` presets use Lande values g_J = 2 and 6/5
    with g_I = 0, which reproduce the measured field sensitivities.
    """

    name: str
    I: HalfInt
    J: HalfInt
    A_D: float  # MHz
    B_Q: float  # MHz
    g_J: float
    g_I: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "I", HalfInt.coerce(self.I))
        object.__setattr__(self, "J", HalfInt.coerce(self.J))
        if self.I.twice < 0 or self.J.twice < 0:
            raise ValueError("I and J must be nonnegative")
        if self.B_Q != 0.0 and (self.I.twice < 2 or self.J.twice < 2):
            raise ValueError(
                f"{self.name}: B_Q != 0 requires I >= 1 and J >= 1 "
                "(the quadrupole denominator vanishes otherwise)"
            )

    @property
    def dim(self) -> int:
        return (self.I.twice + 1) * (self.J.twice + 1)

    def f_values(self) -> tuple[HalfInt, ...]:
        tmin = abs(self.I.twice - self.J.twice)
        tmax = self.I.twice + self.J.twice
        return tuple(HalfInt(t) for t in range(tmin, tmax + 1, 2))


BA137_S12 = LevelConstants("6S1/2", HalfInt(3), HalfInt(1), 4018.871, 0.0, 2.0)
BA137_D52 = LevelConstants("5D5/2", HalfInt(3), HalfInt(5), -12.028, 59.533, 1.2)


class StateRef(NamedTuple):
    """A (level, F~, m_F~) handle that survives re-diagonalization."""

    level: LevelConstants
    F: HalfInt
    m: HalfInt

    @classmethod
    def of(cls, level: LevelConstants, F, m) -> "StateRef":
        return cls(level, HalfInt.coerce(F), HalfInt.coerce(m))


def _spin_matrices(twice_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(jz, jp, jm) for spin j = twice_j/2, basis m = -j..j ascending."""
    j = twice_j / 2.0
    dim = twice_j + 1
    ms = np.arange(-twice_j, twice_j + 1, 2) / 2.0
    jz = np.diag(ms)
    jp = np.zeros((dim, dim))
    for i in range(dim - 1):
        m = ms[i]
        jp[i + 1, i] = np.sqrt(j * (j + 1) - m * (m + 1))
    return jz, jp, jp.T


@lru_cache(maxsize=32)
def _basis(level: LevelConstants) -> tuple[tuple[int, int], ...]:
    """Product basis as (2*m_I, 2*m_J) pairs; index = i_I * dim_J + i_J."""
    tmis = range(-level.I.twice, level.I.twice + 1, 2)
    tmjs = list(range(-level.J.twice, level.J.twice + 1, 2))
    return tuple((tmi, tmj) for tmi in tmis for tmj in tmjs)


@lru_cache(maxsize=32)
def _hyperfine_parts(level: LevelConstants) -> tuple[np.ndarray, np.ndarray]:
    """(I.J matrix, quadrupole matrix without B_Q) in the product basis."""
    iz, ip, im = _spin_matrices(level.I.twice)
    jz, jp, jm = _spin_matrices(level.J.twice)
    idot = (
        np.kron(iz, jz)
        + 0.5 * (np.kron(ip, jm) + np.kron(im, jp))
    )
    if level.B_Q == 0.0 or level.I.twice < 2 or level.J.twice < 2:
        quad = np.zeros_like(idot)
    else:
        I, J = float(level.I), float(level.J)
        num = 3.0 * (idot @ idot) + 1.5 * idot - I * (I + 1) * J * (J + 1) * np.eye(level.dim)
        quad = num / (2.0 * I * (2 * I - 1) * J * (2 * J - 1))
    return idot, quad


def _moment(level: LevelConstants) -> np.ndarray:
    """g_J m_J + g_I m_I over the product basis: dH/dB in units of mu_B/h."""
    tmi = np.array([p[0] for p in _basis(level)]) / 2.0
    tmj = np.array([p[1] for p in _basis(level)]) / 2.0
    return level.g_J * tmj + level.g_I * tmi


def build_hamiltonian(
    level: LevelConstants, B: float, constants: PhysicalConstants = CONSTANTS
) -> np.ndarray:
    """Hamiltonian matrix in MHz over the |m_I, m_J> basis at field B (gauss)."""
    if not 0.0 <= B < math.inf:
        raise ValueError(f"B must be finite and nonnegative, got {B}")
    idot, quad = _hyperfine_parts(level)
    h = level.A_D * idot + level.B_Q * quad
    zeeman = B * constants.mu_B_over_h * _moment(level)
    return h + np.diag(zeeman)


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

    def f_component(self, F, m) -> float:
        """Amplitude on the zero-field state |F, m_F=m>."""
        key = (HalfInt.coerce(F).twice, HalfInt.coerce(m).twice)
        for i, (tf, tm) in enumerate(_f_basis(self.level)):
            if (tf, tm) == key:
                return float(self.amp_FmF[i])
        raise KeyError(f"no |F={F}, m={m}> state in {self.level.name}")


@lru_cache(maxsize=32)
def _f_basis(level: LevelConstants) -> tuple[tuple[int, int], ...]:
    out = []
    for F in level.f_values():
        for tm in range(F.twice, -F.twice - 1, -2):
            out.append((F.twice, tm))
    return tuple(out)


@lru_cache(maxsize=32)
def _f_transform(level: LevelConstants) -> np.ndarray:
    """U[(mI,mJ) index, (F,mF) index] = <I mI; J mJ | F mF>."""
    basis = _basis(level)
    fbasis = _f_basis(level)
    u = np.zeros((len(basis), len(fbasis)))
    for a, (tmi, tmj) in enumerate(basis):
        for b, (tf, tmf) in enumerate(fbasis):
            if tmi + tmj != tmf:
                continue
            u[a, b] = clebsch_gordan(
                level.I, HalfInt(tmi), level.J, HalfInt(tmj), HalfInt(tf), HalfInt(tmf)
            )
    return u


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
    _index: dict = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        for k, s in enumerate(self.states):
            self._index[(s.F_tilde.twice, s.m_F_tilde.twice)] = k

    def state(self, F, m) -> LabeledEigenstate:
        key = (HalfInt.coerce(F).twice, HalfInt.coerce(m).twice)
        try:
            return self.states[self._index[key]]
        except KeyError:
            raise KeyError(
                f"no state |F~={HalfInt(key[0])}, m={HalfInt(key[1])}> in {self.level.name}"
            ) from None

    def __iter__(self):
        return iter(self.states)

    def energies(self) -> dict[tuple[HalfInt, HalfInt], float]:
        return {(s.F_tilde, s.m_F_tilde): s.energy for s in self.states}


def _block_indices(level: LevelConstants) -> dict[int, np.ndarray]:
    basis = _basis(level)
    tm = np.array([a + b for a, b in basis])
    return {m: np.where(tm == m)[0] for m in sorted(set(tm.tolist()))}


@lru_cache(maxsize=32)
def _rank_order(level: LevelConstants) -> dict[int, tuple[int, ...]]:
    """Twice-F labels of each m block, by ascending closed-form E(F)."""
    return {
        tm: tuple(sorted(
            (F.twice for F in level.f_values() if F.twice >= abs(tm)),
            key=lambda tf: zero_field_energy(level, HalfInt(tf)),
        ))
        for tm in _block_indices(level)
    }


def _solve_blocks(
    level: LevelConstants, B: float, constants: PhysicalConstants
) -> tuple[dict[int, dict[int, np.ndarray]], dict[int, dict[int, float]]]:
    """Rank-labeled eigenpairs at B: ({twice_m: {twice_F: vector-in-block}},
    {twice_m: {twice_F: energy}})."""
    h = build_hamiltonian(level, B, constants)
    block_idx = _block_indices(level)
    vectors: dict[int, dict[int, np.ndarray]] = {}
    energies: dict[int, dict[int, float]] = {}
    for tm, order in _rank_order(level).items():
        idx = block_idx[tm]
        w, v = np.linalg.eigh(h[np.ix_(idx, idx)])
        gap = np.min(np.diff(w), initial=np.inf)
        if gap < _GAP_MIN:
            raise LabelingError(
                f"{level.name}, m={HalfInt(tm)}: in-block gap {gap:.3e} MHz at B = {B} G "
                f"is below {_GAP_MIN} MHz, so rank labels are ambiguous"
            )
        vectors[tm] = {tf: v[:, k] for k, tf in enumerate(order)}
        energies[tm] = {tf: float(w[k]) for k, tf in enumerate(order)}
    return vectors, energies


def _assemble(
    level: LevelConstants,
    B: float,
    blocks: dict[int, dict[int, np.ndarray]],
    energies: dict[int, dict[int, float]],
) -> EigenSystem:
    u = _f_transform(level)
    tm_f = np.array([tm for _, tm in _f_basis(level)])
    block_idx = _block_indices(level)
    states = []
    for F in level.f_values():
        for tm in range(F.twice, -F.twice - 1, -2):
            vec = np.zeros(level.dim)
            vec[block_idx[tm]] = blocks[tm][F.twice]
            amp_f = u.T @ vec
            if amp_f[np.argmax(np.abs(amp_f))] < 0:
                vec = -vec
                amp_f = -amp_f
            # sanity: the F-basis amplitudes must respect m conservation exactly
            if np.any(amp_f[tm_f != tm]):
                raise LabelingError("m_F component leaked outside the m block")
            states.append(
                LabeledEigenstate(
                    level=level,
                    F_tilde=F,
                    m_F_tilde=HalfInt(tm),
                    energy=energies[tm][F.twice],
                    B=B,
                    amp_mImJ=vec,
                    amp_FmF=amp_f,
                )
            )
    return EigenSystem(level=level, B=B, states=tuple(states))


@lru_cache(maxsize=32)
def _zero_field_system(level: LevelConstants) -> EigenSystem:
    """Eigensystem at B = 0 with the closed-form E(F) as energies.

    Checks the rank order that every field inherits: each zero-field
    eigenvalue must match the closed-form E(F) its rank assigns.
    """
    vectors, energies = _solve_blocks(level, 0.0, CONSTANTS)
    for block in energies.values():
        for tf, w in block.items():
            block[tf] = zero_field_energy(level, HalfInt(tf))
            if abs(w - block[tf]) > _GAP_MIN:
                raise LabelingError(
                    f"{level.name}: zero-field eigenvalue {w:.9f} MHz does not match "
                    f"the closed-form E(F={HalfInt(tf)}) = {block[tf]:.9f} MHz"
                )
    return _assemble(level, 0.0, vectors, energies)


def diagonalize_range(
    level: LevelConstants,
    b_values: Sequence[float],
    constants: PhysicalConstants = CONSTANTS,
) -> list[EigenSystem]:
    """Labeled eigensystems at every requested field, in the given order.

    Each field is solved on its own: one eigendecomposition per m block,
    labeled by energy rank.  Repeated fields share one EigenSystem.
    """
    bs = [float(b) for b in b_values]
    zero = _zero_field_system(level)
    systems: dict[float, EigenSystem] = {}
    for b in bs:
        if b not in systems:
            systems[b] = zero if b == 0.0 else _assemble(
                level, b, *_solve_blocks(level, b, constants)
            )
    return [systems[b] for b in bs]


# a miss costs one field's eigendecompositions (about a millisecond), so the
# cache only needs to hold the fields one computation revisits
@lru_cache(maxsize=256)
def _diag_cached(level: LevelConstants, B: float, constants: PhysicalConstants) -> EigenSystem:
    return diagonalize_range(level, [B], constants)[0]


def diagonalize(
    level: LevelConstants, B: float, constants: PhysicalConstants = CONSTANTS
) -> EigenSystem:
    """Labeled eigensystem of one level at field B (gauss)."""
    return _diag_cached(level, float(B), constants)


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
    level: LevelConstants,
    F,
    m,
    b_values: Sequence[float],
    constants: PhysicalConstants = CONSTANTS,
) -> DecompositionScan:
    """Track one eigenstate's |F, m_F> decomposition over a field range.

    Identically-zero components (everything with m_F != m_F~, plus any
    accidental zeros) are omitted.
    """
    F = HalfInt.coerce(F)
    m = HalfInt.coerce(m)
    systems = diagonalize_range(level, list(b_values), constants)
    systems[0].state(F, m)  # raises KeyError early on an unknown label
    fbasis = _f_basis(level)
    amps = np.array([sys.state(F, m).amp_FmF for sys in systems])
    keep = np.where(np.max(np.abs(amps), axis=0) > 1e-12)[0]
    comps = tuple((HalfInt(fbasis[i][0]), HalfInt(fbasis[i][1])) for i in keep)
    return DecompositionScan(
        level=level,
        F_tilde=F,
        m_F_tilde=m,
        b_values=np.asarray(list(b_values), dtype=float),
        components=comps,
        amplitudes=amps[:, keep],
    )


def transition_frequency(
    ground: LabeledEigenstate, excited: LabeledEigenstate, optical_offset: float = 0.0
) -> float:
    """E_excited - E_ground + optical_offset, in MHz.

    With the default zero offset this is the splitting relative to the two
    level centroids; pass the optical carrier explicitly to get absolute
    frequencies.  Both states must come from the same field.
    """
    if ground.B != excited.B:
        raise FieldMismatchError(
            f"ground at B = {ground.B} G but excited at B = {excited.B} G"
        )
    return excited.energy - ground.energy + optical_offset


def transition_frequency_at(
    ground: StateRef,
    excited: StateRef,
    B: float,
    optical_offset: float = 0.0,
    constants: PhysicalConstants = CONSTANTS,
) -> float:
    g = diagonalize(ground.level, B, constants).state(ground.F, ground.m)
    e = diagonalize(excited.level, B, constants).state(excited.F, excited.m)
    return transition_frequency(g, e, optical_offset)


def field_sensitivity(
    ground: StateRef,
    excited: StateRef,
    B: float,
    constants: PhysicalConstants = CONSTANTS,
) -> float:
    """Magnetic-field sensitivity d(E_excited - E_ground)/dB in MHz/G.

    Hellmann-Feynman: each eigenvalue's slope is <psi| mu_B/h (g_J m_J +
    g_I m_I) |psi>, the expectation of dH/dB in its eigenstate.  At B = 0
    this is the slope into B > 0.
    """

    def slope(ref: StateRef) -> float:
        state = diagonalize(ref.level, B, constants).state(ref.F, ref.m)
        return constants.mu_B_over_h * float(state.amp_mImJ**2 @ _moment(ref.level))

    return slope(excited) - slope(ground)


def write_level_scan(
    path,
    level: LevelConstants,
    b_values: Sequence[float],
    constants: PhysicalConstants = CONSTANTS,
) -> None:
    """CSV of state energies vs field: columns B_gauss, state_label, energy_MHz."""
    systems = diagonalize_range(level, list(b_values), constants)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["B_gauss", "state_label", "energy_MHz"])
        for sys in systems:
            for s in sys:
                w.writerow(
                    [
                        repr(float(sys.B)),
                        f"F{s.F_tilde}_m{s.m_F_tilde}",
                        repr(float(s.energy)),
                    ]
                )


def write_decomposition_scan(path, scan: DecompositionScan) -> None:
    """CSV rows: B_gauss, F, m_F, amplitude (zero components omitted)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["B_gauss", "F", "m_F", "amplitude"])
        for i, b in enumerate(scan.b_values):
            for k, (F, m) in enumerate(scan.components):
                w.writerow([repr(float(b)), str(F), str(m), repr(float(scan.amplitudes[i, k]))])
