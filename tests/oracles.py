"""Independent reference implementations shared by the test suite.

Everything here is deliberately written from scratch against textbook
formulas (plain floats, no exact arithmetic, no reuse of package
internals) so it can serve as an oracle for the package implementations.

One exception: ``table_hamiltonian`` reads the package's field-free matrix
``atomstruct._table(level).h0`` and Zeeman moments, and ``oracle_solve_field``
diagonalizes it.  That oracle checks the stacked solve bit for bit, which
needs the very same matrix entries.  The entries themselves are checked
against ``oracle_hamiltonian``, the textbook operator built here.

A second: ``oracle_forward_strict`` is the package's earlier block-tensor
forward pass, and takes the plan codes and gathered numbers that
``spam._forward`` takes.  That lets a test check the one-pass evaluator
bit for bit on the same inputs; ``oracle_enumerate_outcomes`` checks both
against the model itself.
"""

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize

from ba137qudit import atomstruct
from ba137qudit.angmom import HalfInt, clebsch_gordan
from ba137qudit.atomstruct import (
    BA137_D52,
    BA137_S12,
    MU_B_OVER_H,
    LabelingError,
    StateRef,
    zero_field_energy,
)
from ba137qudit.spam import _OTHER_GROUND, PulseStep, build_measurement_sequence
from ba137qudit.transitions import geometric_factor


def oracle_cg(j1, m1, j2, m2, J, M):
    """Clebsch-Gordan coefficient via the brute-force Racah sum, in plain
    floats: within 5e-16 of the exact value for j1, j2 up to 8."""
    if m1 + m2 != M:
        return 0.0
    if J < abs(j1 - j2) or J > j1 + j2:
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(M) > J:
        return 0.0
    f = lambda x: math.factorial(int(round(x)))
    pre = (2 * J + 1) * f(J + j1 - j2) * f(J - j1 + j2) * f(j1 + j2 - J) / f(j1 + j2 + J + 1)
    pre *= f(J + M) * f(J - M) * f(j1 - m1) * f(j1 + m1) * f(j2 - m2) * f(j2 + m2)
    kmin = int(round(max(0, -(J - j2 + m1), -(J - j1 - m2))))
    kmax = int(round(min(j1 + j2 - J, j1 - m1, j2 + m2)))
    s = 0.0
    for k in range(kmin, kmax + 1):
        s += (-1) ** k / (
            f(k) * f(j1 + j2 - J - k) * f(j1 - m1 - k) * f(j2 + m2 - k)
            * f(J - j2 + m1 + k) * f(J - j1 - m2 + k)
        )
    return math.sqrt(pre) * s


def oracle_geometric_factor(q, gamma_deg, phi_deg):
    """g^(q) evaluated literally as the complex-magnitude expressions."""
    g = math.radians(gamma_deg)
    p = math.radians(phi_deg)
    if q == 0:
        return 0.5 * abs(math.cos(g) * math.sin(2 * p))
    if q in (1, -1):
        sgn = -1 if q == 1 else +1
        z = sgn * math.cos(g) * math.cos(2 * p) + 1j * math.sin(g) * math.cos(p)
        return abs(z) / math.sqrt(6)
    if q in (2, -2):
        sgn = -1 if q == 2 else +1
        z = 0.5 * math.cos(g) * math.sin(2 * p) + sgn * 1j * math.sin(g) * math.sin(p)
        return abs(z) / math.sqrt(6)
    raise ValueError(q)


def oracle_pure_f_strength(I, J_s, J_d, F_s, m_s, F_d, m_d, gamma_deg, phi_deg):
    """Relative strength between pure |F, m_F> states via two-step coupling:
    decompose each F state into |m_I, m_J> with CG coefficients, then apply
    the rank-2 coupling on the electronic part with m_I conserved."""
    q = m_d - m_s
    if abs(q) > 2:
        return 0.0
    total = 0.0
    ti = int(round(2 * I))
    for tmi in range(-ti, ti + 1, 2):
        mi = tmi / 2
        mjs = m_s - mi
        mjd = m_d - mi
        if abs(mjs) > J_s or abs(mjd) > J_d:
            continue
        total += (
            oracle_cg(I, mi, J_d, mjd, F_d, m_d)
            * oracle_cg(I, mi, J_s, mjs, F_s, m_s)
            * oracle_cg(J_s, mjs, 2, q, J_d, mjd)
        )
    return oracle_geometric_factor(q, gamma_deg, phi_deg) * abs(total)


@lru_cache(maxsize=None)
def _oracle_coupling(ground_level, excited_level, twice_q):
    """Q[excited basis index, ground basis index] = delta_{m_I}
    <J_S m_J; 2 q | J_D m_J+q> for the one q, over the |m_I, m_J> product
    bases (index = i_I * (2J+1) + i_J, both m ascending)."""
    def basis(level):
        return [(tmi, tmj) for tmi in range(-level.I.twice, level.I.twice + 1, 2)
                for tmj in range(-level.J.twice, level.J.twice + 1, 2)]

    out = np.zeros((excited_level.dim, ground_level.dim))
    for a, (tmi_g, tmj_g) in enumerate(basis(ground_level)):
        for b, (tmi_e, tmj_e) in enumerate(basis(excited_level)):
            if tmi_e == tmi_g and tmj_e - tmj_g == twice_q:
                out[b, a] = clebsch_gordan(ground_level.J, HalfInt(tmj_g), 2, HalfInt(twice_q),
                                           excited_level.J, HalfInt(tmj_e))
    return out


def oracle_relative_strength(ground, excited, geometry):
    """Strength between two eigenstates of one field, pair by pair: the
    per-q coupling matrix between the two amplitude vectors, its magnitude
    times g^(q).  |Delta m| > 2 gives 0."""
    twice_q = excited.m_F_tilde.twice - ground.m_F_tilde.twice
    if abs(twice_q) > 4 or twice_q % 2:
        return 0.0
    qmat = _oracle_coupling(ground.level, excited.level, twice_q)
    amp = excited.amp_mImJ @ qmat @ ground.amp_mImJ
    return geometric_factor(twice_q // 2, geometry) * abs(amp)


def _oracle_spin(j):
    """(jz, j+, j-) for spin j in the basis m = -j..j ascending."""
    ms = [-j + k for k in range(int(round(2 * j)) + 1)]
    jz = np.diag(ms)
    jp = np.zeros((len(ms), len(ms)))
    for k in range(len(ms) - 1):
        jp[k + 1, k] = math.sqrt(j * (j + 1) - ms[k] * (ms[k] + 1))
    return ms, jz, jp, jp.T


@lru_cache(maxsize=None)
def _oracle_operators(level):
    """(m_I values, m_J values, I.J, field-free H, g_J m_J + g_I m_I) over
    the |m_I, m_J> product basis (index = i_I * (2J+1) + i_J, both m
    ascending); the arrays are read-only, as they are shared."""
    I, J = float(level.I), float(level.J)
    mis, iz, ip, im = _oracle_spin(I)
    mjs, jz, jp, jm = _oracle_spin(J)
    idot = np.kron(iz, jz) + 0.5 * (np.kron(ip, jm) + np.kron(im, jp))
    h0 = level.A_D * idot
    if level.B_Q:
        h0 = h0 + level.B_Q * (
            3 * idot @ idot + 1.5 * idot - I * (I + 1) * J * (J + 1) * np.eye(len(idot))
        ) / (2 * I * (2 * I - 1) * J * (2 * J - 1))
    moment = np.array([level.g_J * mj + level.g_I * mi for mi in mis for mj in mjs])
    for x in (idot, h0, moment):
        x.setflags(write=False)
    return mis, mjs, idot, h0, moment


def oracle_hamiltonian(level, B):
    """The textbook hyperfine + Zeeman Hamiltonian in MHz at field B (G),

    H = A I.J + B_Q [3(I.J)^2 + (3/2) I.J - I(I+1)J(J+1)] / [2I(2I-1)J(2J-1)]
        + B mu_B/h (g_J m_J + g_I m_I),

    over the |m_I, m_J> basis, from the spin ladder operators."""
    _, _, _, h0, moment = _oracle_operators(level)
    return h0 + np.diag(B * MU_B_OVER_H * moment)


def oracle_zero_field_energy(level, F):
    """Hyperfine energy of the F manifold in MHz, relative to the centroid,
    from the Casimir K = F(F+1) - I(I+1) - J(J+1):

    E(F) = A K/2 + B_Q [(3/2) K(K+1) - 2 I(I+1) J(J+1)] / [4 I(2I-1) J(2J-1)].
    """
    I, J = float(level.I), float(level.J)
    K = F * (F + 1) - I * (I + 1) - J * (J + 1)
    e = level.A_D * K / 2
    if level.B_Q:
        e += level.B_Q * (1.5 * K * (K + 1) - 2 * I * (I + 1) * J * (J + 1)) / (
            4 * I * (2 * I - 1) * J * (2 * J - 1)
        )
    return e


def oracle_lande_g(level, F):
    """g_F = g_J [F(F+1) - I(I+1) + J(J+1)] / 2F(F+1)
           + g_I [F(F+1) + I(I+1) - J(J+1)] / 2F(F+1),
    the first-order Zeeman factor of the F manifold (0 for F = 0)."""
    I, J = float(level.I), float(level.J)
    f2 = F * (F + 1)
    if f2 == 0:
        return 0.0
    return (level.g_J * (f2 - I * (I + 1) + J * (J + 1))
            + level.g_I * (f2 + I * (I + 1) - J * (J + 1))) / (2 * f2)


def table_hamiltonian(level, B):
    """The package's Hamiltonian at field B: its field-free table entries
    ``_table(level).h0`` plus diag(B mu_B/h moment), entry for entry what
    its stacked solve diagonalizes block by block."""
    table = atomstruct._table(level)
    return table.h0 + np.diag(B * MU_B_OVER_H * table.moment)


def oracle_walk_energies(level, b_values, step=0.02):
    """Adiabatic labels by walking up from B = 0 in fixed small steps.

    H is ``oracle_hamiltonian``.  Each m block is diagonalized at every
    step.  At B = 0 a state's label F comes from <F^2> = F(F+1); after that
    each label follows the new eigenvector of largest overlap, greedily,
    largest overlaps first.

    Returns one {(F, m_F): energy in MHz} dict per requested field (floats).
    """
    I, J = float(level.I), float(level.J)
    mis, mjs, idot, h0, _ = _oracle_operators(level)
    f2 = (I * (I + 1) + J * (J + 1)) * np.eye(len(idot)) + 2 * idot
    m_tot = [mi + mj for mi in mis for mj in mjs]
    blocks = {}
    for k, m in enumerate(m_tot):
        blocks.setdefault(m, []).append(k)

    labels = {}  # m -> list of (F, vector, energy)
    for m, idx in blocks.items():
        w, v = np.linalg.eigh(h0[np.ix_(idx, idx)])
        f2_block = f2[np.ix_(idx, idx)]
        labels[m] = []
        for c in range(len(idx)):
            x = v[:, c] @ f2_block @ v[:, c]
            F = round(-0.5 + math.sqrt(0.25 + x), 6)
            labels[m].append((F, v[:, c], w[c]))

    def advance(b):
        h = oracle_hamiltonian(level, b)
        for m, idx in blocks.items():
            w, v = np.linalg.eigh(h[np.ix_(idx, idx)])
            old = labels[m]
            overlap = np.abs(np.array([vec for _, vec, _ in old]) @ v)
            pairs = sorted(
                ((overlap[r, c], r, c) for r in range(len(old)) for c in range(len(w))),
                reverse=True,
            )
            new = [None] * len(old)
            taken = set()
            for _, r, c in pairs:
                if new[r] is None and c not in taken:
                    new[r] = (old[r][0], v[:, c], w[c])
                    taken.add(c)
            labels[m] = new

    out = {}
    b_cur = 0.0
    for b in sorted(set(float(x) for x in b_values)):
        n = math.ceil((b - b_cur) / step - 1e-9)
        for k in range(1, n + 1):
            advance(b_cur + (b - b_cur) * k / n)
        b_cur = b
        out[b] = {(F, m): e for m, states in labels.items() for F, _, e in states}
    return [out[float(b)] for b in b_values]


def oracle_breit_rabi(I, A, g_J, g_I, mu_B_over_h, F, m, B):
    """(energy in MHz, dE/dB in MHz/G) of the state |F, m> of a J = 1/2
    level, H = A I.J + B mu_B/h (g_J J_z + g_I I_z), in closed form by the
    Breit-Rabi formula (Breit & Rabi, Phys. Rev. 38, 2082 (1931)).

    With dE = A (I + 1/2) and x = (g_J - g_I) mu_B/h B / dE,

        E(F = I +- 1/2, m) = -dE / (2 (2I + 1)) + g_I mu_B/h B m
                             +- (dE / 2) sqrt(1 + 4 m x / (2I + 1) + x^2).

    F names the branch by its zero-field end: the radicand stays positive
    for |m| < I + 1/2, so the two states of one m never cross.  The
    stretched states |m| = I + 1/2 are the product states |m_I = +-I,
    m_J = +-1/2> and linear in B.  Energies are relative to the centroid.
    """
    mu = mu_B_over_h
    if abs(m) == I + 0.5:
        sign = math.copysign(1.0, m)
        slope = sign * mu * (g_J / 2 + g_I * I)
        return A * I / 2 + slope * B, slope
    if abs(F - I) != 0.5 or abs(m) > F:
        raise ValueError(f"no state |F={F}, m={m}> for I = {I}, J = 1/2")
    sign = 1.0 if F > I else -1.0
    d_e = A * (I + 0.5)
    x = (g_J - g_I) * mu * B / d_e
    root = math.sqrt(1 + 4 * m * x / (2 * I + 1) + x * x)
    energy = -d_e / (2 * (2 * I + 1)) + g_I * mu * B * m + sign * d_e / 2 * root
    slope = g_I * mu * m + sign * (g_J - g_I) * mu / 2 * (2 * m / (2 * I + 1) + x) / root
    return energy, slope


def oracle_solve_field(level, B):
    """(energies, amp_mImJ, amp_FmF) of one level at one field, one field at
    a time, as rows by label: F ascending, m_F descending.

    Per m block: one eigh of the block of ``table_hamiltonian``, a gap
    guard, and rank labels by ascending closed-form E(F); at B = 0 the
    closed-form E(F) replace the eigenvalues once they match.  Then, per
    vector, the F-basis amplitudes U.T @ vec, the sign rule (largest |F, m_F>
    amplitude positive) and the m-conservation check.  Raises
    ``LabelingError`` where the package must.  This is the per-field solve
    the stacked solve replaced; it must agree with it bit for bit, so it
    reads the package's matrix entries rather than ``oracle_hamiltonian``'s,
    which agree with them only to a few ulps.
    """
    gap_min = 1e-6
    h = table_hamiltonian(level, B)
    basis = [
        (tmi, tmj)
        for tmi in range(-level.I.twice, level.I.twice + 1, 2)
        for tmj in range(-level.J.twice, level.J.twice + 1, 2)
    ]
    fbasis = [(F.twice, tm) for F in level.f_values() for tm in range(F.twice, -F.twice - 1, -2)]
    u = np.zeros((len(basis), len(fbasis)))
    for a, (tmi, tmj) in enumerate(basis):
        for b, (tf, tmf) in enumerate(fbasis):
            if tmi + tmj == tmf:
                u[a, b] = clebsch_gordan(
                    level.I, HalfInt(tmi), level.J, HalfInt(tmj), HalfInt(tf), HalfInt(tmf)
                )
    energy_f = {tf: zero_field_energy(level, HalfInt(tf)) for tf, _ in fbasis}
    tm = np.array([a + b for a, b in basis])
    energies = np.empty(level.dim)
    amps = np.zeros((level.dim, level.dim))
    for m in sorted(set(tm.tolist())):
        idx = np.where(tm == m)[0]
        labels = np.array(sorted(
            (k for k, (_, tmf) in enumerate(fbasis) if tmf == m),
            key=lambda k: energy_f[fbasis[k][0]],
        ))
        w, v = np.linalg.eigh(h[np.ix_(idx, idx)])
        if np.min(np.diff(w), initial=np.inf) < gap_min:
            raise LabelingError(f"in-block gap below {gap_min} MHz at B = {B} G, m = {m}/2")
        if B == 0.0:
            closed = [energy_f[fbasis[k][0]] for k in labels]
            if any(abs(e - c) > gap_min for e, c in zip(w, closed)):
                raise LabelingError("zero-field eigenvalues differ from the closed-form E(F)")
            w = closed
        energies[labels] = w
        amps[labels[:, None], idx] = v.T
    amp_f = np.array([u.T @ vec for vec in amps])
    flip = amp_f[np.arange(level.dim), np.argmax(np.abs(amp_f), axis=1)] < 0
    amps[flip] *= -1.0
    amp_f[flip] *= -1.0
    tm_f = np.array([tmf for _, tmf in fbasis])
    if np.any(amp_f[np.not_equal.outer(tm_f, tm_f)]):
        raise LabelingError("m_F component leaked outside the m block")
    return energies, amps, amp_f


def oracle_slopes(level, amps):
    """Hellmann-Feynman slope in MHz/G of each state, a row of ``amps`` over
    the product basis: one dot of its squared amplitudes with the table's
    moments per state, the form the package's batched slopes must equal
    bit for bit."""
    moment = atomstruct._table(level).moment
    return np.array([MU_B_OVER_H * float(a**2 @ moment) for a in amps])


def oracle_label_row(ref):
    """Row of a (level, F, m) state ref in ``oracle_solve_field``'s output."""
    below = sum(F.twice + 1 for F in ref.level.f_values() if F < ref.F)
    return below + (ref.F.twice - ref.m.twice) // 2


# Shelving SPAM: the preparation path search, written as an exhaustive walk.

# every 6S1/2 (F~ = 1, 2) and 5D5/2 (F~ = 1..4) state, built here rather than
# read from the package
_ORACLE_STATES = tuple(
    StateRef(level, HalfInt(2 * f), HalfInt(tm))
    for level, fs in ((BA137_S12, (1, 2)), (BA137_D52, (1, 2, 3, 4)))
    for f in fs
    for tm in range(-2 * f, 2 * f + 1, 2)
)


def oracle_prep_path(start, target):
    """A shortest pulse path from start to target, by trying every walk of
    one, two and then three hops through all 32 states; a hop joins a 6S and
    a 5D state whose m differ by at most 2.  None when no walk of at most
    three hops arrives, or the target is not one of the 32 states."""
    if start == target:
        return ()
    if target not in _ORACLE_STATES:
        return None
    for hops in (1, 2, 3):
        for middle in itertools.product(_ORACLE_STATES, repeat=hops - 1):
            walk = (start, *middle, target)
            if all(a.level != b.level and abs(a.m.twice - b.m.twice) <= 4
                   for a, b in zip(walk, walk[1:])):
                return tuple(
                    PulseStep(a, b) if a.level == BA137_S12 else PulseStep(b, a)
                    for a, b in zip(walk, walk[1:])
                )
    return None


# Shelving SPAM: per-shot references for the forward-evaluated outcome model.
# Both take the pulse plan from build_measurement_sequence and nothing else
# from the package's evaluator: decay, read flips, leak and interpretation
# are written out here shot by shot or branch by branch.

_INERT = StateRef(BA137_S12, "inert", "inert")  # decayed / unpumped: bright, never pulsed


def _oracle_decay(errors, intervals, n_checks):
    if isinstance(intervals, (int, float)):
        intervals = [intervals] * n_checks
    assert len(intervals) == n_checks
    return [0.0] + [1.0 - math.exp(-errors.decay_rate * t) for t in intervals[1:]]


def _oracle_outcome(reads, mode, check_outcomes):
    n_bright = sum(reads)
    if n_bright == 0 or (mode == "strict-single-bright" and n_bright > 1):
        return None
    return check_outcomes[reads.index(True)]


@dataclass(frozen=True)
class ShotRecord:
    """Outcome of one simulated experiment: the ordered fluorescence reads."""

    prepared: int
    reads: tuple


def simulate_shot(prepared, encoding, errors, rng, plan=None, intervals=0.0):
    """One experiment drawn step by step with scalar random numbers."""
    if plan is None:
        plan = build_measurement_sequence(encoding)
    if not 0 <= prepared < encoding.d:
        raise ValueError(f"prepared index {prepared} out of range")
    decay_p = _oracle_decay(errors, intervals, plan.n_checks)

    state = encoding.states[0]
    if errors.prep_error > 0 and rng.random() < errors.prep_error:
        state = _INERT
    if prepared != 0 and state == encoding.states[0]:
        success = 1.0
        for pulse in plan.prep_paths[prepared]:
            success *= 1.0 - errors.eps(pulse.key)
        if rng.random() < success:
            state = encoding.states[prepared]

    reads = []
    for step in plan.steps:
        if isinstance(step, PulseStep):
            key = step.key
            if key in errors.leak:
                spectator, p_leak = errors.leak[key]
                if rng.random() < p_leak:
                    key = spectator
                    step = PulseStep(*spectator)
            if state in (step.s_state, step.d_state) and rng.random() >= errors.eps(key):
                state = step.d_state if state == step.s_state else step.s_state
        else:
            if state.level == BA137_D52 and rng.random() < decay_p[len(reads)]:
                state = _INERT
            bright = state.level == BA137_S12
            flip = errors.p_dark_given_s if bright else errors.p_bright_given_d
            if flip > 0 and rng.random() < flip:
                bright = not bright
            reads.append(bright)
    return ShotRecord(prepared=prepared, reads=tuple(reads))


def oracle_enumerate_outcomes(encoding, errors, prepared, mode="first-bright", intervals=0.0):
    """Exact outcome distribution by enumerating every (state, reads) branch.

    Cost grows as 2^(number of checks), so this is for small encodings.
    Keys are outcome indices plus None for Null; zero-probability outcomes
    are omitted.
    """
    plan = build_measurement_sequence(encoding)
    decay_p = _oracle_decay(errors, intervals, plan.n_checks)
    start = encoding.states[0]

    def add(table, key, p):
        if p > 0.0:
            table[key] = table.get(key, 0.0) + p

    prep = {}
    add(prep, _INERT, errors.prep_error)
    stay = 1.0 - errors.prep_error
    if prepared != 0:
        success = 1.0
        for pulse in plan.prep_paths[prepared]:
            success *= 1.0 - errors.eps(pulse.key)
        add(prep, encoding.states[prepared], stay * success)
        add(prep, start, stay * (1.0 - success))
    else:
        add(prep, start, stay)
    branches = {(state, ()): p for state, p in prep.items()}

    check_idx = 0
    for step in plan.steps:
        new = {}
        if isinstance(step, PulseStep):
            leak_to, leak_p = errors.leak.get(step.key, (None, 0.0))
            variants = [(step, 1.0 - leak_p)]
            if leak_to is not None and leak_p > 0:
                variants.append((PulseStep(*leak_to), leak_p))
            for (state, reads), p in branches.items():
                for pulse, p_var in variants:
                    eps = errors.eps(pulse.key)
                    if state in (pulse.s_state, pulse.d_state):
                        other = pulse.d_state if state == pulse.s_state else pulse.s_state
                        add(new, (other, reads), p * p_var * (1.0 - eps))
                        add(new, (state, reads), p * p_var * eps)
                    else:
                        add(new, (state, reads), p * p_var)
        else:
            p_decay = decay_p[check_idx]
            check_idx += 1
            for (state, reads), p in branches.items():
                split = [(state, p)]
                if state.level == BA137_D52:
                    split = [(_INERT, p * p_decay), (state, p * (1.0 - p_decay))]
                for st, q in split:
                    bright = st.level == BA137_S12
                    flip = errors.p_dark_given_s if bright else errors.p_bright_given_d
                    add(new, (st, reads + (bright,)), q * (1.0 - flip))
                    add(new, (st, reads + (not bright,)), q * flip)
        branches = new

    out = {}
    for (_, reads), p in branches.items():
        outcome = _oracle_outcome(reads, mode, range(plan.n_checks))
        out[outcome] = out.get(outcome, 0.0) + p
    return out


def oracle_forward_strict(plan, mode, params, intervals, extra, leaks):
    """The package's forward pass as it was before strict mode gained its
    backward pass: strict mode carries one block of the probability array
    per check that could be the single bright one.  Takes the arguments of
    ``spam._forward`` and returns its (d, d + 1) matrix; the one-pass
    evaluator must match it bit for bit in first-bright mode and within
    1e-14 in strict mode."""

    def swap(prob, lo, hi, eps):
        new_lo = eps * prob[..., lo] + (1.0 - eps) * prob[..., hi]
        prob[..., hi] = eps * prob[..., hi] + (1.0 - eps) * prob[..., lo]
        prob[..., lo] = new_lo

    values = np.frombuffer(params)
    n = len(plan._pulses) + 3
    *eps, prep_error, p_dark_given_s, p_bright_given_d = values[:n].tolist()
    numbers = values[n:n + 2 * len(leaks)].tolist()
    leak_at = {i: (lo, hi, p, e) for (i, lo, hi), p, e in zip(leaks, numbers[::2], numbers[1::2])}
    decay_rate = values[-1]
    d = len(plan._prep_codes)
    exposure = np.broadcast_to(np.asarray(intervals, dtype=float), (d,))
    decay_p = np.concatenate([[0.0], -np.expm1(-decay_rate * exposure[1:])])
    outcomes = range(d)
    strict = mode == "strict-single-bright"
    is_d_level = np.array(plan._is_d + tuple(s.level == BA137_D52 for s in extra))
    other = plan._code.get(_OTHER_GROUND, len(plan._code) + extra.index(_OTHER_GROUND))

    prep_success = np.array([math.prod(1.0 - eps[i] for i in path) for path in plan._prep_codes])
    n_blocks = 1 + (len(outcomes) if strict else 0)
    prob = np.zeros((d, n_blocks, len(is_d_level)))
    rows = np.arange(d)
    stay = 1.0 - prep_error
    prob[rows, 0, rows] += stay * prep_success
    prob[rows, 0, 0] += stay * (1.0 - prep_success)
    prob[:, 0, other] += prep_error
    p_bright = np.where(is_d_level, p_bright_given_d, 1.0 - p_dark_given_s)
    p_dark = 1.0 - p_bright
    keep = np.where(is_d_level, 1.0 - decay_p[:, None], 1.0)

    out = np.zeros((d, d + 1))
    ci = 0
    for i in plan._step_codes:
        if i is not None:
            lo, hi, leak_p, leak_eps = leak_at.get(i, (0, 0, 0.0, 0.0))
            if leak_p > 0:
                leaked = prob.copy()
                swap(leaked, lo, hi, leak_eps)
            swap(prob, *plan._pulse_codes[i], eps[i])
            if leak_p > 0:
                prob = (1.0 - leak_p) * prob + leak_p * leaked
            continue
        if decay_p[ci] > 0:
            lost = prob[..., is_d_level].sum(axis=-1) * decay_p[ci]
            prob *= keep[ci]
            prob[..., other] += lost
        bright = prob * p_bright
        prob *= p_dark
        if strict:
            out[:, d] += bright[:, 1:].sum(axis=(1, 2))
            prob[:, 1 + ci] = bright[:, 0]
        else:
            out[:, outcomes[ci]] += bright[:, 0].sum(axis=-1)
        ci += 1
    out[:, d] += prob[:, 0].sum(axis=-1)
    if strict:
        for j, outcome in enumerate(outcomes):
            out[:, outcome] += prob[:, 1 + j].sum(axis=-1)
    return out


def filter_function_pi(omega, big_omega):
    """Pi-pulse filter function: 4 w^2/Omega^2 below Omega, 4 above."""
    if big_omega <= 0:
        raise ValueError("Omega must be positive")
    if omega < big_omega:
        return 4.0 * omega**2 / big_omega**2
    return 4.0


def oracle_chi_quad(model, params):
    """chi = (1/pi) int_0^inf S(w) F(w) / w^2 dw by adaptive quadrature.

    The quadrature the package used before its exact sum, with the PSD and
    the pi-pulse filter function written out here and no decade point
    placed on top of an edge.  The integrand is split
    at the PSD cutoff, the mains-peak edges, the Rabi frequency and decade
    points; above an upper truncation point the analytic tail of the
    w >= Omega branch (4 h_b/L + 2 h_a/L^2) is appended.
    """
    big_omega = math.pi / params.tau_pi
    scale = (2.0 * math.pi * 1e6 * params.kappa) ** 2
    peak_lo = model.omega_ac - model.delta_omega_ac / 2
    peak_hi = model.omega_ac + model.delta_omega_ac / 2

    def integrand(w):
        if w < model.omega_0:
            s = model.h_a / model.omega_0
        elif peak_lo < w < peak_hi:
            s = model.h_peak
        else:
            s = model.h_a / w + model.h_b
        return s * filter_function_pi(w, big_omega) / w**2

    cut = 1e3 * max(big_omega, peak_hi, model.omega_0)
    edges = {model.omega_0, peak_lo, peak_hi, big_omega}
    breaks = set(edges)
    # decade subdivisions keep quad accurate on the slowly-decaying tails;
    # one that rounds to within 1e-9 of an edge would leave a sliver
    # interval holding the PSD step, where quad reports bad behaviour
    w = min(model.omega_0, peak_lo, big_omega) if model.omega_0 > 0 else big_omega
    while w < cut:
        if all(abs(w - e) > 1e-9 * e for e in edges):
            breaks.add(w)
        w *= 10.0
    points = sorted(p for p in breaks if 0.0 < p < cut)
    total = 0.0
    err_total = 0.0
    lo = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        for hi in points + [cut]:
            if hi <= lo:
                continue
            val, abserr = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-10, limit=200)
            total += val
            err_total += abserr
            lo = hi
    assert total == 0.0 or err_total <= 1e-6 * total, (total, err_total)
    total += 4.0 * model.h_b / cut + 2.0 * model.h_a / cut**2
    return scale * total / math.pi


# Reference fits: scipy's solvers on the same problems the package fits
# (model, start point, bounds and window), as the package called them before
# it had its own least-squares solver.  Each returns the parameters and the
# cost |r|^2 / 2 at them, so a fit can be checked against the optimum here.


def oracle_lm_reference(fun, jac, x0, lower=None, upper=None):
    """The package's Levenberg-Marquardt loop as it was before its
    per-iteration numpy calls were cut: index sets, outer products and
    identity matrices on every path, and clipping with infinite bounds.
    Returns (x, cost, Jacobian, iterations, converged); the lean loop must
    match every one of them bit for bit."""
    max_iter, xtol, ftol = 200, 1e-12, 1e-15

    def solve(M, b):
        try:
            return np.linalg.solve(M, b)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(M, b, rcond=None)[0]

    x = np.asarray(x0, dtype=float)
    lo = np.full(x.size, -np.inf) if lower is None else np.asarray(lower, dtype=float)
    hi = np.full(x.size, np.inf) if upper is None else np.asarray(upper, dtype=float)
    x = np.minimum(np.maximum(x, lo), hi)
    r = fun(x)
    J = jac(x)
    cost = 0.5 * float(r @ r)
    scale = np.zeros(x.size)
    lam, nu = 1e-3, 2.0
    for it in range(1, max_iter + 1):
        g = J.T @ r
        A = J.T @ J
        scale = np.maximum(scale, np.sqrt(np.diag(A)))
        d = np.where(scale > 0, scale, 1.0)
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        if cost == 0.0 or not np.any(g[free]):
            return x, cost, J, it - 1, True
        idx = np.flatnonzero(free)
        M = A[np.ix_(idx, idx)] / np.outer(d[idx], d[idx]) + lam * np.eye(idx.size)
        step = np.zeros(x.size)
        step[idx] = solve(M, -g[idx] / d[idx]) / d[idx]
        trial = x + step
        x_new = np.minimum(np.maximum(trial, lo), hi)
        clipped = np.any(x_new != trial)
        step = x_new - x
        predicted = -(g @ step + 0.5 * step @ A @ step)
        if np.linalg.norm(d * step) <= xtol * (np.linalg.norm(d * x) + xtol) or (
            not clipped and predicted <= ftol * cost
        ):
            return x, cost, J, it, True
        r_new = fun(x_new)
        cost_new = 0.5 * float(r_new @ r_new)
        if predicted > 0 and cost_new < cost:
            rho = (cost - cost_new) / predicted
            x, r, cost = x_new, r_new, cost_new
            J = jac(x)
            # Nielsen's damping update: shrink by at most 3 on a good step
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            lam *= nu
            nu *= 2.0
    return x, cost, J, max_iter, False


def oracle_covariance(residuals, params, rel_step=1e-4):
    """s^2 (J^T J)^-1 at ``params``, s^2 = |r|^2 / (m - n), with J from
    central differences of ``residuals`` and the inverse from a QR
    factorisation J = QR: (J^T J)^-1 = R^-1 R^-T, never forming J^T J."""
    p = np.asarray(params, dtype=float)
    r = residuals(p)
    cols = []
    for k in range(p.size):
        h = np.zeros(p.size)
        h[k] = rel_step * max(abs(p[k]), 1.0)
        cols.append((residuals(p + h) - residuals(p - h)) / (2.0 * h[k]))
    J = np.column_stack(cols)
    _, R = np.linalg.qr(J)
    R_inv = np.linalg.solve(R, np.eye(p.size))
    return (r @ r) / (len(r) - p.size) * R_inv @ R_inv.T


def oracle_pinv_covariance(jac, cost):
    """s^2 (J^T J)^-1, s^2 = 2 cost / (m - n), with J^T J inverted by the
    pseudo-inverse with unit-norm columns: the package's covariance before it
    took a Cholesky factor."""
    m, n = jac.shape
    A = jac.T @ jac
    d = np.sqrt(np.diag(A))
    d = np.where(d > 0, d, 1.0)
    outer = np.outer(d, d)
    return 2.0 * cost / max(m - n, 1) * np.linalg.pinv(A / outer) / outer


def lorentzian_residuals(f, y, params):
    f0, w, a, c = params
    return a * w**2 / ((f - f0) ** 2 + w**2) + c - y


def oracle_fit_lorentzian(f, y):
    """MINPACK Levenberg-Marquardt with a finite-difference Jacobian."""
    f, y = np.asarray(f, dtype=float), np.asarray(y, dtype=float)
    c0 = float(min(y[0], y[-1]))
    x0 = [float(f[np.argmax(y)]), max((f[-1] - f[0]) / 6.0, 1e-6), float(y.max() - c0), c0]
    res = optimize.least_squares(
        lambda p: lorentzian_residuals(f, y, p), x0, method="lm", max_nfev=5000
    )
    assert res.success, res.message
    return res.x, res.cost


def rabi_residuals(t, p, params):
    a, c, tp, ts = params
    return a * np.cos(np.pi * (t - tp) / (2.0 * ts)) ** 2 + c - p


def oracle_fit_rabi(t, p):
    """Bounded trust-region reflective fit on the first-peak window.

    Returns the window too.  The peak locator is the package's: it defines
    the problem, not the solver under test.
    """
    from ba137qudit.calib import _first_peak_time

    t, p = np.asarray(t, dtype=float), np.asarray(p, dtype=float)
    t_peak = _first_peak_time(t, p)
    mask = (t >= t_peak / 2.0) & (t <= 1.5 * t_peak)
    tw, pw = t[mask], p[mask]
    lower = [0.0, -0.5, t_peak / 2.0, t_peak / 4.0]
    upper = [1.5, 0.5, 1.5 * t_peak, 4.0 * t_peak]
    x0 = np.clip([max(pw.max() - pw.min(), 0.1), pw.min(), t_peak, t_peak], lower, upper)
    res = optimize.least_squares(
        lambda q: rabi_residuals(tw, pw, q), x0, bounds=(lower, upper), method="trf",
        max_nfev=5000,
    )
    assert res.success, res.message
    return res.x, res.cost, (tw, pw)


def scaling_residuals(x, y, params):
    c, b = params
    eps = 0.5 * -np.expm1(-c * x)
    return b + eps / (eps + (1.0 - eps) ** 2) - y


def oracle_fit_error_scaling(points):
    """MINPACK Levenberg-Marquardt with a finite-difference Jacobian."""
    x = np.array([(k * t) ** 2 for k, t, _ in points])
    y = np.array([e for _, _, e in points])
    i_lo, i_hi = int(np.argmin(x)), int(np.argmax(x))
    c0 = max((y[i_hi] - y[i_lo]) / (x[i_hi] - x[i_lo]), 0.0) if x[i_hi] > x[i_lo] else 0.0
    res = optimize.least_squares(
        lambda q: scaling_residuals(x, y, q), [c0, float(y.min())], method="lm", max_nfev=2000
    )
    assert res.success, res.message
    return res.x, res.cost, (x, y)


def field_sum_of_squares(measured, B):
    """Sum of squared residuals of the splittings relative to the first,
    from the energies of ``oracle_solve_field``."""
    pairs = list(measured)
    levels = {ref.level for pair in pairs for ref in pair}
    energies = {level: oracle_solve_field(level, B)[0] for level in levels}
    sims = {
        (g, e): energies[e.level][oracle_label_row(e)] - energies[g.level][oracle_label_row(g)]
        for g, e in pairs
    }
    return sum(
        ((sims[q] - sims[pairs[0]]) - (measured[q] - measured[pairs[0]])) ** 2
        for q in pairs[1:]
    )


def oracle_estimate_field(measured, step=0.25):
    """0.25 G grid from 1e-4 G to 20 G, then bounded Brent (xatol 1e-5 G) in
    the best point's bracket."""
    grid = np.arange(1e-4, 20.0 + step, step)
    values = [field_sum_of_squares(measured, b) for b in grid]
    best = int(np.argmin(values))
    bracket = (grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)])
    res = optimize.minimize_scalar(
        lambda b: field_sum_of_squares(measured, b), bounds=bracket, method="bounded",
        options={"xatol": 1e-5},
    )
    return float(res.x), float(res.fun)
