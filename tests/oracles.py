"""Independent reference implementations shared by the test suite.

Everything here is deliberately written from scratch against textbook
formulas (plain floats, no exact arithmetic, no reuse of package
internals) so it can serve as an oracle for the package implementations.
"""

import math

import numpy as np


def oracle_cg(j1, m1, j2, m2, J, M):
    """Clebsch-Gordan coefficient via the brute-force Racah sum."""
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


def _oracle_spin(j):
    """(jz, j+, j-) for spin j in the basis m = -j..j ascending."""
    ms = [-j + k for k in range(int(round(2 * j)) + 1)]
    jz = np.diag(ms)
    jp = np.zeros((len(ms), len(ms)))
    for k in range(len(ms) - 1):
        jp[k + 1, k] = math.sqrt(j * (j + 1) - ms[k] * (ms[k] + 1))
    return ms, jz, jp, jp.T


def oracle_walk_energies(I, J, A, B_Q, g_J, g_I, mu_B_over_h, b_values, step=0.02):
    """Adiabatic labels by walking up from B = 0 in fixed small steps.

    H = A I.J + B_Q [3(I.J)^2 + (3/2) I.J - I(I+1)J(J+1)] / [2I(2I-1)J(2J-1)]
        + B mu_B/h (g_J m_J + g_I m_I), built in the |m_I, m_J> basis.
    Each m block is diagonalized at every step.  At B = 0 a state's label
    F comes from <F^2> = F(F+1); after that each label follows the new
    eigenvector of largest overlap, greedily, largest overlaps first.

    Returns one {(F, m_F): energy in MHz} dict per requested field (floats).
    """
    mis, iz, ip, im = _oracle_spin(I)
    mjs, jz, jp, jm = _oracle_spin(J)
    idot = np.kron(iz, jz) + 0.5 * (np.kron(ip, jm) + np.kron(im, jp))
    dim = len(mis) * len(mjs)
    h0 = A * idot
    if B_Q:
        h0 = h0 + B_Q * (
            3 * idot @ idot + 1.5 * idot - I * (I + 1) * J * (J + 1) * np.eye(dim)
        ) / (2 * I * (2 * I - 1) * J * (2 * J - 1))
    f2 = (I * (I + 1) + J * (J + 1)) * np.eye(dim) + 2 * idot
    m_tot = [mi + mj for mi in mis for mj in mjs]
    moment = np.array([g_J * mj + g_I * mi for mi in mis for mj in mjs])
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
        h = h0 + b * mu_B_over_h * np.diag(moment)
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
