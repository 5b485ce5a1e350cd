"""Relative quadrupole transition strengths between 6S1/2 and 5D5/2.

A transition |S~> -> |D~> with q = m_D - m_S is driven with amplitude

    g^(q)(gamma, phi) * sum_{m_I} sum_{m_J} c*_D c_S <J_S m_J; 2 q | J_D m_J + q>

in units of the reduced matrix element <J_D||Q||J_S>, with m_I conserved.
Only the magnitude is reported; relative phases between transitions are
dropped.  The geometric factor g^(q) encodes the laser direction phi
(wavevector vs quantization axis) and linear polarization angle gamma
(relative to the k-B plane).

``strength_table`` gives every 5D5/2 x 6S1/2 pair at one field in one
array expression: the eigenvectors of both levels from the stacked solve
(``atomstruct._field_solve``) on either side of one coupling matrix Q that
holds the Clebsch-Gordan coefficients of all five q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angmom import HalfInt, clebsch_gordan
from .atomstruct import BA137_D52, BA137_S12, StateRef, _field_solve, _table
from .fixtures import _write_csv, _write_json

__all__ = [
    "LaserGeometry",
    "StrengthTable",
    "PAPER13_GEOMETRY",
    "PAPER13_D_STATES",
    "geometric_factor",
    "strength_table",
    "encodable_states",
]


@dataclass(frozen=True)
class LaserGeometry:
    """Laser direction and linear-polarization angles, in degrees.

    phi: angle between the laser wavevector and the magnetic field.
    gamma: polarization angle relative to the plane spanned by the
    wavevector and the field.  Both are normalized into [0, 180).
    """

    phi: float
    gamma: float

    def __post_init__(self):
        for name in ("phi", "gamma"):
            angle = float(getattr(self, name))
            if not math.isfinite(angle):
                raise ValueError(f"{name} must be a finite angle in degrees, got {angle!r}")
            object.__setattr__(self, name, angle % 180.0)


# 1762 nm beam at 45 deg to the field, polarization rotated 58 deg off the
# Delta m = 0 optimum so Delta m = +/-1 transitions are driven as well
PAPER13_GEOMETRY = LaserGeometry(phi=45.0, gamma=58.0)

# qudit index order |1>..|12> of the 13-level encoding; index |0> is the
# 6S1/2 (F~=2, m=2) state.  This assignment is data, not derivable.
PAPER13_D_STATES: tuple[tuple[HalfInt, HalfInt], ...] = tuple(
    (HalfInt(2 * f), HalfInt(2 * m))
    for f, m in [
        (4, 4), (4, 3), (4, 2), (4, 1), (4, 0),
        (3, 2), (3, 1), (3, 0),
        (2, 2), (2, 1), (2, 0),
        (1, 0),
    ]
)
# the 13 states in qudit index order, |0> first: the states of
# spam.paper13_encoding and the ends of calib.paper13_transition_refs
_PAPER13_STATES = (StateRef.of(BA137_S12, 2, 2),) + tuple(
    StateRef(BA137_D52, f, m) for f, m in PAPER13_D_STATES
)


def geometric_factor(q: int, geometry: LaserGeometry) -> float:
    """Laser-geometry weight g^(q) for a Delta m = q quadrupole transition.

    g^(0)    = 1/2 |cos(gamma) sin(2 phi)|
    g^(+-1)  = 1/sqrt6 |-+ cos(gamma) cos(2 phi) + i sin(gamma) cos(phi)|
    g^(+-2)  = 1/sqrt6 |1/2 cos(gamma) sin(2 phi) -+ i sin(gamma) sin(phi)|
    """
    if q not in (-2, -1, 0, 1, 2):
        raise ValueError(f"quadrupole q must be in [-2, 2], got {q}")
    g = math.radians(geometry.gamma)
    p = math.radians(geometry.phi)
    if q == 0:
        return 0.5 * abs(math.cos(g) * math.sin(2 * p))
    if abs(q) == 1:
        re = -math.cos(g) * math.cos(2 * p) if q > 0 else math.cos(g) * math.cos(2 * p)
        im = math.sin(g) * math.cos(p)
        return math.hypot(re, im) / math.sqrt(6)
    re = 0.5 * math.cos(g) * math.sin(2 * p)
    im = -math.sin(g) * math.sin(p) if q > 0 else math.sin(g) * math.sin(p)
    return math.hypot(re, im) / math.sqrt(6)


@lru_cache(maxsize=None)
def _coupling() -> np.ndarray:
    """Q[5D5/2 basis index, 6S1/2 basis index] = delta_{m_I} <J_S m_J; 2 q |
    J_D m_J+q> over the two |m_I, m_J> product bases, q fixed by the two m_J:
    one matrix for every |q| <= 2, zero elsewhere."""
    return np.array([[
        clebsch_gordan(BA137_S12.J, HalfInt(tj_s), 2, HalfInt(tj_d - tj_s),
                       BA137_D52.J, HalfInt(tj_d))
        if ti_d == ti_s and abs(tj_d - tj_s) <= 4 else 0.0
        for ti_s, tj_s in _table(BA137_S12).basis
    ] for ti_d, tj_d in _table(BA137_D52).basis])


def _index(labels, label, level) -> int:
    """Position of the (F~, m) label among a level's labels in a table."""
    key = (HalfInt.coerce(label[0]), HalfInt.coerce(label[1]))
    if key not in labels:
        raise KeyError(f"no state |F~={key[0]}, m={key[1]}> in {level.name} of the strength table")
    return labels.index(key)


@dataclass(frozen=True, eq=False)
class StrengthTable:
    """Relative strengths for every excited x ground eigenstate pair.

    Values are magnitudes in units of the reduced matrix element, carried
    symbolically as ``reduced_element`` (default 1).  Rows follow the
    excited level (F~ ascending, m descending), columns the ground level
    (F~ ascending, m ascending).
    """

    geometry: LaserGeometry
    B: float
    d_labels: tuple[tuple[HalfInt, HalfInt], ...]
    s_labels: tuple[tuple[HalfInt, HalfInt], ...]
    values: np.ndarray
    reduced_element: float = 1.0

    def value(self, d_label, s_label) -> float:
        i = _index(self.d_labels, d_label, BA137_D52)
        return float(self.values[i, _index(self.s_labels, s_label, BA137_S12)])

    def column(self, s_label) -> dict[tuple[HalfInt, HalfInt], float]:
        j = _index(self.s_labels, s_label, BA137_S12)
        return {d: float(self.values[i, j]) for i, d in enumerate(self.d_labels)}

    def to_csv(self, path) -> None:
        _write_csv(path, ["d_state"] + [StateRef(BA137_S12, *s).key for s in self.s_labels], (
            [StateRef(BA137_D52, *d).key] + [repr(float(x)) for x in row]
            for d, row in zip(self.d_labels, self.values)
        ))

    def to_json(self, path) -> None:
        entries = []
        for i, (df, dm) in enumerate(self.d_labels):
            for j, (sf, sm) in enumerate(self.s_labels):
                entries.append(
                    {
                        "excited": {"F": str(df), "m": str(dm)},
                        "ground": {"F": str(sf), "m": str(sm)},
                        "strength": float(self.values[i, j]),
                    }
                )
        doc = {
            "B_gauss": self.B,
            "phi_deg": self.geometry.phi,
            "gamma_deg": self.geometry.gamma,
            "reduced_element": self.reduced_element,
            "entries": entries,
        }
        _write_json(path, doc)


def _s_rows() -> list[int]:
    """The 6S1/2 level's table rows in a strength table's column order."""
    labels = _table(BA137_S12).labels
    return sorted(range(len(labels)), key=labels.__getitem__)


def _strength_keys() -> tuple[list[str], list[str]]:
    """The row and column state keys of every strength table, in its order."""
    s_labels = _table(BA137_S12).labels
    return ([StateRef(BA137_D52, *d).key for d in _table(BA137_D52).labels],
            [StateRef(BA137_S12, *s_labels[k]).key for k in _s_rows()])


def strength_table(B: float, geometry: LaserGeometry) -> StrengthTable:
    """Full 5D5/2 x 6S1/2 relative-strength table at one field: every pair's
    g^(q) |A_D Q A_S^T| from the two levels' eigenvectors at that field."""
    b = float(B) + 0.0  # a field of -0.0 is the zero field
    s_table, d_labels, s_rows = _table(BA137_S12), _table(BA137_D52).labels, _s_rows()
    s_labels = tuple(s_table.labels[k] for k in s_rows)
    amp_s = _field_solve(BA137_S12, b)[1][s_rows]
    amp_d = _field_solve(BA137_D52, b)[1]
    q = np.subtract.outer([m.twice for _, m in d_labels], [m.twice for _, m in s_labels]) // 2
    g = np.array([geometric_factor(k, geometry) for k in range(-2, 3)])
    amp = amp_d @ _coupling() @ amp_s.T
    values = np.where(np.abs(q) <= 2, g[np.clip(q, -2, 2) + 2] * np.abs(amp), 0.0)
    values.setflags(write=False)
    return StrengthTable(geometry=geometry, B=b, d_labels=d_labels, s_labels=s_labels,
                         values=values)


def encodable_states(
    table: StrengthTable, threshold: float = 0.03
) -> tuple[tuple[HalfInt, HalfInt], ...]:
    """Excited states reachable from the ground state |6S1/2, F~=2, m=2>
    above a strength cut.

    Ordered by (F~ descending, m descending); for the default threshold
    this reproduces the |1>..|12> index assignment of the 13-level encoding.
    """
    column = table.column((2, 2))
    picked = [lab for lab, s in column.items() if s > threshold]
    picked.sort(key=lambda lab: (-lab[0].twice, -lab[1].twice))
    return tuple(picked)
