import copy
import dataclasses
import pickle
import re
import sys
import threading
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ba137qudit import atomstruct
from ba137qudit.angmom import HalfInt
from ba137qudit.atomstruct import (
    BA137_D52,
    BA137_S12,
    FieldMismatchError,
    LabelingError,
    LevelConstants,
    MU_B_OVER_H,
    StateRef,
    decomposition_scan,
    diagonalize,
    diagonalize_range,
    field_sensitivity,
    transition_frequency,
    write_decomposition_scan,
    zero_field_energy,
)
from ba137qudit.calib import paper13_transition_refs, reference_trio, simulate_splittings

from oracles import (
    oracle_breit_rabi,
    oracle_hamiltonian,
    oracle_label_row,
    oracle_lande_g,
    oracle_slopes,
    oracle_solve_field,
    oracle_walk_energies,
    oracle_zero_field_energy,
    table_hamiltonian,
)


def _f_squared(level):
    """(I+J)^2 matrix built from scratch over the table's product basis, as
    an independent symmetry probe."""
    basis = atomstruct._table(level).basis
    I, J = float(level.I), float(level.J)
    f2 = (I * (I + 1) + J * (J + 1)) * np.eye(level.dim)
    for a, (tmi, tmj) in enumerate(basis):
        mi, mj = tmi / 2, tmj / 2
        f2[a, a] += 2.0 * mi * mj
        if (tmi + 2, tmj - 2) in basis:  # I+ J- and its transpose I- J+
            b = basis.index((tmi + 2, tmj - 2))
            f2[b, a] = f2[a, b] = np.sqrt(I * (I + 1) - mi * (mi + 1)) * np.sqrt(
                J * (J + 1) - mj * (mj - 1)
            )
    return f2


class TestLevelConstants:
    def test_quadrupole_requires_large_spins(self):
        with pytest.raises(ValueError):
            LevelConstants("bad", HalfInt(3), HalfInt(1), 1.0, 2.0, 2.0)

    def test_presets(self):
        assert BA137_S12.dim == 8
        assert BA137_D52.dim == 24
        assert [str(f) for f in BA137_S12.f_values()] == ["1", "2"]
        assert [str(f) for f in BA137_D52.f_values()] == ["1", "2", "3", "4"]

    def test_twin_is_the_preset_and_agrees_with_equality(self):
        twin = LevelConstants("6S1/2", HalfInt(3), HalfInt(1), 4018.871, 0.0, 2.0)
        assert twin == BA137_S12 and hash(twin) == hash(BA137_S12) and twin is BA137_S12
        shifted = LevelConstants("6S1/2", HalfInt(3), HalfInt(1), 4000.0, 0.0, 2.0)
        assert shifted != BA137_S12 and {BA137_S12: 0}.get(shifted) is None

    def test_twin_built_from_coercible_values_is_the_preset(self):
        # ints, floats and -0.0 coerce to the preset's fields, and building
        # the twin leaves the shared instance as it was
        twin = LevelConstants("6S1/2", 1.5, 0.5, 4018.871, -0.0, 2, -0.0)
        assert twin is BA137_S12
        assert (BA137_S12.I, BA137_S12.J) == (HalfInt(3), HalfInt(1))
        floats = (BA137_S12.B_Q, BA137_S12.g_J, BA137_S12.g_I)
        assert [repr(x) for x in floats] == ["0.0", "2.0", "0.0"]
        assert dataclasses.replace(BA137_D52, A_D=-12.028) is BA137_D52

    def test_copy_deepcopy_and_pickle_keep_the_preset(self):
        for level in (BA137_S12, BA137_D52):
            assert copy.copy(level) is level and copy.deepcopy(level) is level
            assert pickle.loads(pickle.dumps(level)) is level

    def test_assignment_raises(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            BA137_S12.A_D = 1.0

    def test_concurrent_construction_gives_one_instance_per_value(self):
        # HalfInt values and levels nothing has built yet, from 8 threads
        # switching every microsecond: a lost check-then-insert would hand
        # two threads different instances of one value
        results = []

        def build():
            results.append([(HalfInt(t), LevelConstants(f"stress {t}", 3, 1, float(t), 0.0, 2.0))
                            for t in range(100_001, 100_201)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and len(results) == 8
        for built in results[1:]:
            assert all(a is b for pair, first in zip(built, results[0]) for a, b in zip(pair, first))


class TestStateRefKey:
    def test_preset_keys(self):
        assert StateRef.of(BA137_S12, 2, 2).key == "S:F2:m2"
        assert str(StateRef.of(BA137_D52, 4, -3)) == "D:F4:m-3"

    def test_parsed_ref_hits_the_entry_of_a_preset_ref(self):
        table = {(StateRef.of(BA137_S12, 2, 2), StateRef.of(BA137_D52, 4, 4)): 0.5}
        key = (atomstruct.parse_atomic_state("S:F2:m2"), atomstruct.parse_atomic_state("D:F4:m4"))
        assert table[key] == 0.5 and key[1].level is BA137_D52 and key[1].m is HalfInt(8)

    def test_other_level_is_named_by_its_name(self):
        level = LevelConstants("X", HalfInt(3), HalfInt(3), 10.0, 1.0, 0.8)
        assert str(StateRef.of(level, "1.5", -0.5)) == "X:F3/2:m-1/2"


class TestHamiltonian:
    def test_zero_field_splitting_s12(self):
        # hand evaluation: I.J eigenvalues K/2 = 0.75 and -1.25
        h = table_hamiltonian(BA137_S12, 0.0)
        w = np.sort(np.linalg.eigvalsh(h))
        assert w[-1] - w[0] == pytest.approx(2 * 4018.871, abs=1e-9)
        assert w[-1] == pytest.approx(0.75 * 4018.871, abs=1e-9)
        assert w[0] == pytest.approx(-1.25 * 4018.871, abs=1e-9)

    def test_diagonal_zeeman_entry(self):
        level = LevelConstants("test", HalfInt(3), HalfInt(1), 0.0, 0.0, 2.0, 0.0)
        h = table_hamiltonian(level, 1.0)
        basis_mj = [tmj / 2 for (_, tmj) in atomstruct._table(level).basis]
        i = basis_mj.index(0.5)
        assert h[i, i] == pytest.approx(1.3996245, abs=1e-12)

    @pytest.mark.parametrize("level", [BA137_S12, BA137_D52])
    def test_commutes_with_f_squared_at_zero_field(self, level):
        h = table_hamiltonian(level, 0.0)
        f2 = _f_squared(level)
        assert np.max(np.abs(h @ f2 - f2 @ h)) < 1e-9

    @pytest.mark.parametrize("level", [BA137_S12, BA137_D52])
    @pytest.mark.parametrize("B", [0.0, 1.0, 8.35])
    def test_hermitian_and_block_structure(self, level, B):
        h = table_hamiltonian(level, B)
        assert np.array_equal(h, h.T)
        tm = np.array([a + b for a, b in atomstruct._table(level).basis])
        off_block = h[np.not_equal.outer(tm, tm)]
        assert np.all(off_block == 0.0)

    @pytest.mark.parametrize("level", [BA137_S12, BA137_D52])
    @pytest.mark.parametrize("B", [0.0, 4.2, 10.0])
    def test_trace_preserved(self, level, B):
        h = table_hamiltonian(level, B)
        assert abs(np.sum(np.linalg.eigvalsh(h)) - np.trace(h)) < 1e-8

    def test_rejects_negative_field(self):
        with pytest.raises(ValueError):
            diagonalize(BA137_S12, -1.0)
        with pytest.raises(ValueError):
            diagonalize_range(BA137_S12, [-1.0])

    @pytest.mark.parametrize("B", [float("nan"), float("inf")])
    def test_rejects_non_finite_field(self, B):
        with pytest.raises(ValueError):
            diagonalize_range(BA137_D52, [1.0, B])
        with pytest.raises(ValueError):
            diagonalize(BA137_D52, B)

    @pytest.mark.parametrize("level", [BA137_S12, BA137_D52])
    def test_zero_field_matches_closed_form(self, level):
        sys0 = diagonalize(level, 0.0)
        for s in sys0:
            assert s.energy == pytest.approx(
                zero_field_energy(level, s.F_tilde), abs=1e-9
            )


class TestDiagonalize:
    def test_d52_hyperfine_inversion(self):
        # F=4 sits 486 kHz below F=3: 4*A_D + 0.8*B_Q
        sys0 = diagonalize(BA137_D52, 0.0)
        gap = sys0.state(4, 0).energy - sys0.state(3, 0).energy
        assert gap == pytest.approx(4 * (-12.028) + 0.8 * 59.533, abs=1e-9)
        assert gap == pytest.approx(-0.4856, abs=1e-6)

    def test_zero_field_states_are_pure(self):
        for level in (BA137_S12, BA137_D52):
            for s in diagonalize(level, 0.0):
                row = atomstruct._row(level, s.F_tilde, s.m_F_tilde)
                assert s.amp_FmF[row] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("B", [0.0, 0.2, 2.0, 8.35, 10.0])
    def test_stretched_states_stay_pure(self, B):
        sys = diagonalize(BA137_D52, B)
        for m in (4, -4):
            assert abs(sys.state(4, m).amp_FmF[atomstruct._row(BA137_D52, 4, m)] - 1.0) < 1e-10

    @pytest.mark.parametrize("level", [BA137_S12, BA137_D52])
    def test_orthonormal_complete(self, level):
        sys = diagonalize(level, 8.35)
        vecs = np.array([s.amp_mImJ for s in sys])
        assert vecs.shape[0] == level.dim
        gram = vecs @ vecs.T
        assert np.max(np.abs(gram - np.eye(level.dim))) < 1e-10
        famps = np.array([s.amp_FmF for s in sys])
        gram_f = famps @ famps.T
        assert np.max(np.abs(gram_f - np.eye(level.dim))) < 1e-10

    def test_ground_stretched_linear_zeeman(self):
        # |F~=2, m=+/-2> are pure product states: slope exactly +/- g_J mu_B / 2
        for B in (1.0, 5.0, 8.35):
            sys = diagonalize(BA137_S12, B)
            sys0 = diagonalize(BA137_S12, 0.0)
            for sgn in (1, -1):
                slope = (sys.state(2, 2 * sgn).energy - sys0.state(2, 2 * sgn).energy) / B
                assert slope == pytest.approx(sgn * MU_B_OVER_H, abs=1e-12)

    @pytest.mark.parametrize("level", [BA137_S12, BA137_D52])
    def test_label_continuity(self, level):
        # each label's eigenvector moves continuously: neighbours 0.01 G
        # apart overlap almost fully, through the 5D5/2 anticrossings too
        systems = diagonalize_range(level, [0.01 * i for i in range(5001)])
        amps = np.array([[s.amp_mImJ for s in sys_] for sys_ in systems])
        overlap = np.abs(np.einsum("fsk,fsk->fs", amps[:-1], amps[1:]))
        assert overlap.min() > 0.99

    @pytest.mark.parametrize("level", [BA137_S12, BA137_D52])
    def test_labels_match_oracle_walk(self, level):
        bs = np.linspace(0.0, 100.0, 201)
        walk = oracle_walk_energies(level, bs)
        for ref, sys_ in zip(walk, diagonalize_range(level, bs)):
            got = {(float(s.F_tilde), float(s.m_F_tilde)): s.energy for s in sys_}
            assert got.keys() == ref.keys()
            for key, energy in ref.items():
                assert got[key] == pytest.approx(energy, abs=1e-9), (sys_.B, key)

    def test_state_lookup_error(self):
        with pytest.raises(KeyError):
            diagonalize(BA137_D52, 1.0).state(5, 0)


class TestDecompositionScan:
    def test_pure_at_zero_field(self):
        scan = decomposition_scan(BA137_D52, 4, 1, [0.0, 8.35])
        col = scan.components.index((HalfInt(8), HalfInt(2)))
        assert scan.amplitudes[0, col] == pytest.approx(1.0, abs=1e-12)

    def test_strong_mixing_at_operating_field(self):
        scan = decomposition_scan(BA137_D52, 4, 1, [8.35])
        big = np.sum(np.abs(scan.amplitudes[0]) > 0.1)
        assert big >= 2

    def test_components_share_m(self):
        scan = decomposition_scan(BA137_D52, 3, -2, np.linspace(0, 10, 11))
        assert all(m == HalfInt.coerce(-2) for (_, m) in scan.components)

    def test_unknown_label(self):
        with pytest.raises(KeyError):
            decomposition_scan(BA137_D52, 4, 5, [1.0])


class TestTransitionFrequency:
    def test_zero_field_degeneracy(self):
        s0 = diagonalize(BA137_S12, 0.0).state(2, 2)
        d0 = diagonalize(BA137_D52, 0.0)
        freqs = {transition_frequency(s0, d0.state(4, m)) for m in range(-4, 5)}
        assert max(freqs) - min(freqs) < 1e-9

    def test_stretched_pair_splitting(self):
        # pure stretched states: slopes g_J m_J mu_B exactly, so the m=+4 / m=-4
        # transition gap from a fixed ground is 6 mu_B B (Lande g_J = 6/5)
        B = 8.35
        f_hi = transition_frequency(
            diagonalize(BA137_S12, B).state(2, 2), diagonalize(BA137_D52, B).state(4, 4)
        )
        f_lo = transition_frequency(
            diagonalize(BA137_S12, B).state(2, 2), diagonalize(BA137_D52, B).state(4, -4)
        )
        assert f_hi - f_lo == pytest.approx(6 * MU_B_OVER_H * B, abs=1e-9)

    def test_antisymmetric(self):
        s = diagonalize(BA137_S12, 3.0).state(1, 0)
        d = diagonalize(BA137_D52, 3.0).state(2, 1)
        assert transition_frequency(s, d) == -transition_frequency(d, s)

    def test_field_mismatch(self):
        s = diagonalize(BA137_S12, 1.0).state(2, 2)
        d = diagonalize(BA137_D52, 2.0).state(4, 4)
        with pytest.raises(FieldMismatchError):
            transition_frequency(s, d)


class TestFieldSensitivity:
    def test_stretched_anchor(self):
        kappa = field_sensitivity(
            StateRef.of(BA137_S12, 2, 2), StateRef.of(BA137_D52, 4, 4), 8.35
        )
        assert kappa == pytest.approx(2.7992, abs=1e-4)

    def test_f4_m2_value(self):
        kappa = field_sensitivity(
            StateRef.of(BA137_S12, 2, 2), StateRef.of(BA137_D52, 4, 2), 8.35
        )
        assert kappa == pytest.approx(-0.3554, abs=1e-3)

    def test_smooth_in_field(self):
        g = StateRef.of(BA137_S12, 2, 2)
        e = StateRef.of(BA137_D52, 2, 1)
        k1 = field_sensitivity(g, e, 8.35)
        k2 = field_sensitivity(g, e, 8.36)
        assert abs(k1 - k2) < 1e-2

    @pytest.mark.parametrize("B", [0.5, 8.35, 15.0])
    def test_matches_central_difference(self, B):
        from ba137qudit.spam import paper13_encoding

        ground, *encoded = paper13_encoding().states
        g = StateRef.of(BA137_S12, ground.F, ground.m)
        h = 1e-3
        assert len(encoded) == 12
        for d in encoded:
            e = StateRef.of(BA137_D52, d.F, d.m)
            diff = (
                simulate_splittings([(g, e)], B + h)[g, e]
                - simulate_splittings([(g, e)], B - h)[g, e]
            ) / (2 * h)
            assert field_sensitivity(g, e, B) == pytest.approx(diff, abs=1e-6), d

    def test_zero_field_slope(self):
        # stretched states are pure at every field: slope (3 - 1) mu_B/h
        kappa = field_sensitivity(
            StateRef.of(BA137_S12, 2, 2), StateRef.of(BA137_D52, 4, 4), 0.0
        )
        assert kappa == pytest.approx(2 * MU_B_OVER_H, abs=1e-12)

    @pytest.mark.parametrize("B", [-0.5, float("nan"), float("inf")])
    def test_rejects_bad_field(self, B):
        g = StateRef.of(BA137_S12, 2, 2)
        e = StateRef.of(BA137_D52, 4, 4)
        with pytest.raises(ValueError):
            field_sensitivity(g, e, B)


class TestCsvEmitters:
    def test_decomposition_csv(self, tmp_path):
        path = tmp_path / "dec.csv"
        scan = decomposition_scan(BA137_D52, 4, 1, [0.0, 5.0])
        write_decomposition_scan(path, scan)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "B_gauss,F,m_F,amplitude"
        assert len(rows) == 1 + 2 * len(scan.components)


class TestLabelingFailure:
    def test_reported_not_silent(self):
        # every F of this level is degenerate at zero field, so the rank
        # order is undefined and must surface as an error at every field
        deg = LevelConstants("deg", 3, 5, 0.0, 0.0, 1.2)
        pair = (StateRef.of(BA137_S12, 2, 2), StateRef.of(deg, 4, 4))
        for B in (0.0, 8.35):
            with pytest.raises(LabelingError):
                diagonalize_range(deg, [B])
            with pytest.raises(LabelingError):
                atomstruct._frequencies([pair], [B])

    def test_gap_guard_at_requested_field(self, monkeypatch):
        # 5D5/2 has in-block gaps of 0.4856 MHz at zero field and 0.4717 MHz
        # at 0.05 G; a 0.48 MHz tolerance passes the first and trips the second
        monkeypatch.setattr(atomstruct, "_GAP_MIN", 0.48)
        diagonalize_range(BA137_D52, [0.0])
        with pytest.raises(LabelingError, match="B = 0.05 G"):
            diagonalize_range(BA137_D52, [0.05])

    @pytest.mark.parametrize("B", [1e308, 1.7e308])
    def test_field_beyond_float_range(self, B):
        message = rf"^6S1/2, m=-?\d: the eigenvalues at B = {re.escape(str(B))} G are not finite"
        with pytest.raises(LabelingError, match=message):
            diagonalize_range(BA137_S12, [8.35, B])

    def test_nan_eigenvalue_fails_the_guard(self):
        eigh = np.linalg.eigh

        def nan_eigh(a):
            w, v = eigh(a)
            return np.full_like(w, np.nan), v

        with mock.patch.object(np.linalg, "eigh", nan_eigh):
            with pytest.raises(LabelingError, match=r"^5D5/2, m=.*B = 3.25 G are not finite"):
                atomstruct._solve(BA137_D52, [3.25])


def _rows(systems):
    """(energies, amp_mImJ, amp_FmF) stacked over fields, rows by label."""
    return (
        np.array([[s.energy for s in sys_] for sys_ in systems]),
        np.array([[s.amp_mImJ for s in sys_] for sys_ in systems]),
        np.array([[s.amp_FmF for s in sys_] for sys_ in systems]),
    )


def _identical(a, b):
    """Equal bit for bit, the signs of zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _oracle_rows(level, b_values):
    return tuple(np.array(x) for x in zip(*(oracle_solve_field(level, b) for b in b_values)))


class TestStackedSolve:
    @pytest.mark.parametrize("level", [BA137_S12, BA137_D52])
    def test_matches_per_field_oracle_bit_for_bit(self, level):
        grid = [i * 0.05 for i in range(4001)]  # 0-200 G
        got = _rows(diagonalize_range(level, grid))
        for g, want in zip(got, _oracle_rows(level, grid)):
            assert _identical(g, want)

    def test_frequencies_match_oracle_bit_for_bit(self):
        # the paper's lines, the reference trio, and every label of both levels
        pairs = [*paper13_transition_refs().values(), *reference_trio().values()]
        s22, d44 = StateRef.of(BA137_S12, 2, 2), StateRef.of(BA137_D52, 4, 4)
        pairs += [(s22, StateRef(BA137_D52, F, m)) for F, m in atomstruct._table(BA137_D52).labels]
        pairs += [(StateRef(BA137_S12, F, m), d44) for F, m in atomstruct._table(BA137_S12).labels]
        grid = [i * 0.05 for i in range(401)] + [0.0, -0.0, 8.35, 8.35]  # 0-20 G
        oracle = {level: _oracle_rows(level, grid)[0] for level in (BA137_S12, BA137_D52)}
        want = np.column_stack([
            oracle[e.level][:, oracle_label_row(e)] - oracle[g.level][:, oracle_label_row(g)]
            for g, e in pairs
        ])
        got = atomstruct._frequencies(pairs, grid)
        assert got.shape == (len(grid), len(pairs))
        assert _identical(got, want)

    @pytest.mark.parametrize("level", [BA137_S12, BA137_D52])
    def test_chunked_energies_match_one_solve_bit_for_bit(self, level):
        # three chunks, the last one partial; zeros of both signs on either
        # side of the first chunk edge
        n = atomstruct._CHUNK
        rng = np.random.default_rng(7)
        grid = [0.0, *rng.uniform(0.0, 20.0, n - 2).tolist(), -0.0, 0.0, -0.0,
                *rng.exponential(300.0, n).tolist()]
        with mock.patch.object(atomstruct, "_labeled_solve",
                               wraps=atomstruct._labeled_solve) as solve:
            got = atomstruct._energies(level, grid)
        assert solve.call_count == 3
        assert got.tobytes() == atomstruct._labeled_solve(level, grid)[0].tobytes()
        # a field that fails the gap guard fails it with the same message
        bad = grid[:n + 1] + [1e308] + grid[n + 1:]
        messages = []
        for energies in (atomstruct._energies, lambda lv, bs: atomstruct._labeled_solve(lv, bs)[0]):
            with pytest.raises(LabelingError) as failure:
                energies(level, bad)
            messages.append(str(failure.value))
        assert messages[0] == messages[1] and "B = 1e+308 G" in messages[0]

    @pytest.mark.parametrize("level", [BA137_S12, BA137_D52])
    def test_chunked_scan_matches_one_solve_bit_for_bit(self, level, tmp_path):
        # two chunks; zeros of both signs on either side of the chunk edge
        n = atomstruct._CHUNK
        grid = [*np.linspace(0.0, 30.0, n - 2).tolist(), -0.0, 0.0, -0.0, 0.0, 8.35, 0.0]
        F, m = atomstruct._table(level).labels[1]
        with mock.patch.object(atomstruct, "_labeled_solve",
                               wraps=atomstruct._labeled_solve) as solve:
            scan = decomposition_scan(level, F, m, grid)
        assert solve.call_count == 2
        # the scan as one solve over every field gives it
        amps = atomstruct._labeled_solve(level, grid)[2][:, atomstruct._row(level, F, m)]
        keep = np.flatnonzero(np.max(np.abs(amps), axis=0) > 1e-12)
        whole = atomstruct.DecompositionScan(
            level, F, m, scan.b_values, tuple(atomstruct._table(level).labels[i] for i in keep),
            amps[:, keep])
        for name, s in (("chunked.csv", scan), ("whole.csv", whole)):
            write_decomposition_scan(tmp_path / name, s)
        assert len(scan.components) > 1
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_edge_requests(self):
        assert diagonalize_range(BA137_D52, []) == []
        systems = diagonalize_range(BA137_D52, [-0.0, 0.0, 3.0, 3.0])
        assert systems[0] is systems[1]
        assert systems[0].B == 0.0 and not np.signbit(systems[0].B)
        assert systems[2] is systems[3]
        with pytest.raises(ValueError):
            diagonalize_range(BA137_S12, [1.0, -1.0])


@pytest.mark.parametrize("level", [BA137_S12, BA137_D52])
def test_one_eigh_per_block_size(level):
    # 6S1/2 has blocks of sizes 1 and 2, 5D5/2 of sizes 1 to 4
    sizes = set(Counter(tmi + tmj for tmi, tmj in atomstruct._table(level).basis).values())
    atomstruct._check_zero_field(level)  # cached apart from the field solve
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        atomstruct._field_solve.__wrapped__(level, 8.35)
    assert eigh.call_count == len(sizes) == {BA137_S12: 2, BA137_D52: 4}[level]


@pytest.mark.parametrize("level", [BA137_S12, BA137_D52])
def test_field_solve_slopes_match_per_state_dots_bit_for_bit(level):
    rng = np.random.default_rng(41)
    fields = [0.0, -0.0, 1e-300, 8.35, *rng.uniform(0.0, 20.0, 150), *rng.exponential(300.0, 50)]
    for B in fields:
        _, amps, _, slopes = atomstruct._field_solve.__wrapped__(level, B)
        assert _identical(slopes, oracle_slopes(level, amps)), B


@st.composite
def drawn_levels(draw, degenerate=False):
    """A level with I, J up to 5/2 (both at least 1/2 if degenerate, with
    A_D = B_Q = 0); B_Q only when I, J >= 1."""
    low = 1 if degenerate else 0
    I, J = draw(st.integers(low, 5)), draw(st.integers(low, 5))
    coupling = st.floats(-5000.0, 5000.0, allow_nan=False)
    a_d = 0.0 if degenerate else draw(coupling)
    b_q = draw(coupling) if I >= 2 and J >= 2 and not degenerate else 0.0
    g_j = draw(st.floats(-3.0, 3.0))
    g_i = draw(st.floats(-0.01, 0.01))
    return LevelConstants("drawn", HalfInt(I), HalfInt(J), a_d, b_q, g_j, g_i)


field_stacks = st.lists(st.floats(0.0, 200.0), min_size=1, max_size=6)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(drawn_levels(), field_stacks)
def test_rank_labels_property(level, b_values):
    try:
        want = _oracle_rows(level, [0.0, *b_values])
    except LabelingError:
        with pytest.raises(LabelingError):
            diagonalize_range(level, b_values)
        return
    systems = diagonalize_range(level, b_values)
    for g, w in zip(_rows(systems), want):
        assert _identical(g, w[1:])
    for sys_ in systems:  # in each m block energy order is closed-form E(F) order
        for m in {s.m_F_tilde for s in sys_}:
            block = sorted(
                (s for s in sys_ if s.m_F_tilde == m),
                key=lambda s: zero_field_energy(level, s.F_tilde),
            )
            assert all(a.energy < b.energy for a, b in zip(block, block[1:]))


@settings(derandomize=True, deadline=None, database=None, max_examples=20)
@given(drawn_levels(degenerate=True), field_stacks)
def test_degenerate_level_fails_at_every_field(level, b_values):
    for b in b_values:
        with pytest.raises(LabelingError):
            diagonalize_range(level, [b])


# ulps of the level's energy scale (of its slope scale for dE/dB); 3000
# seeded draws over the ranges below stayed within 4 (6)
BREIT_RABI_ULPS = 16


def assert_matches_breit_rabi(level, B, pair):
    """Every state's energy and Hellmann-Feynman slope from ``_field_solve``,
    and ``field_sensitivity`` of one (ground, excited) label pair, against
    the closed-form Breit-Rabi energies of a J = 1/2 level."""
    I, mu = float(level.I), MU_B_OVER_H
    energy_scale = abs(level.A_D) * (I + 0.5) + mu * B * (abs(level.g_J) / 2 + abs(level.g_I) * I)
    slope_tol = BREIT_RABI_ULPS * np.spacing(mu * (abs(level.g_J) / 2 + abs(level.g_I) * I))
    energies, _, _, slopes = atomstruct._field_solve(level, B)
    want = {}
    for k, (F, m) in enumerate(atomstruct._table(level).labels):
        e, slope = want[F, m] = oracle_breit_rabi(
            I, level.A_D, level.g_J, level.g_I, mu, float(F), float(m), B
        )
        assert abs(energies[k] - e) <= BREIT_RABI_ULPS * np.spacing(energy_scale), (F, m)
        assert abs(slopes[k] - slope) <= slope_tol, (F, m)
    ground, excited = (atomstruct._table(level).labels[k] for k in pair)
    refs = StateRef.of(level, *ground), StateRef.of(level, *excited)
    assert all(str(ref).endswith(f":F{ref.F}:m{ref.m}") for ref in refs)
    got = field_sensitivity(*refs, B)
    assert abs(got - (want[excited][1] - want[ground][1])) <= 2 * slope_tol


@pytest.mark.parametrize("B", [0.0, 1e-3, 0.5, 8.35, 20.0, 200.0, 2000.0])
def test_s12_preset_matches_breit_rabi(B):
    assert_matches_breit_rabi(BA137_S12, B, (atomstruct._row(BA137_S12, 2, 2), 0))


@st.composite
def breit_rabi_cases(draw):
    """A J = 1/2 level with I up to 9/2, |A| of 1 to 5000 MHz of either
    sign, any g_J and g_I != 0 of either sign; a field; a pair of rows."""
    I = draw(st.integers(0, 9))
    a = draw(st.floats(1.0, 5000.0)) * draw(st.sampled_from([-1.0, 1.0]))
    g_j = draw(st.floats(-3.0, 3.0))
    g_i = draw(st.floats(1e-4, 0.5)) * draw(st.sampled_from([-1.0, 1.0]))
    level = LevelConstants("drawn", HalfInt(I), HalfInt(1), a, 0.0, g_j, g_i)
    rows = st.integers(0, level.dim - 1)
    return level, draw(st.floats(0.0, 2000.0)), (draw(rows), draw(rows))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(breit_rabi_cases())
def test_j_half_levels_match_breit_rabi_property(case):
    assert_matches_breit_rabi(*case)


# The package's Hamiltonian against the textbook operator, its zero-field
# spectrum against the closed-form E(F), and its zero-field slopes against
# the Lande g_F.  Bounds are in ulps of the named scale; 3000 seeded draws
# over the ranges of ``hyperfine_levels`` stayed within 3, 20, 0 and 11.
HAMILTONIAN_ULPS = 4  # of the largest entry of the matrix: max|h0| at B = 0
ZERO_FIELD_ULPS = 32  # of max|h0|, for the eigenvalues of the oracle's h0
CLOSED_FORM_ULPS = 4  # of max|h0|, the package's E(F) against the oracle's
# of the slope scale mu_B/h (|g_J| J + |g_I| I) times max|h0| over the
# smallest gap between two E(F): the conditioning of the zero-field vectors
LANDE_ULPS = 16
D52_WITH_G_I = LevelConstants("5D5/2 g_I", HalfInt(3), HalfInt(5), -12.028, 59.533, 1.2, -0.0009)


def _closed_form_gap(level):
    """Smallest distance between two of the level's oracle E(F), MHz."""
    e = sorted(oracle_zero_field_energy(level, float(F)) for F in level.f_values())
    return min(np.diff(e), default=np.inf)


@st.composite
def hyperfine_levels(draw):
    """A level with I up to 5/2 and J of 1/2 to 5/2, |A| of 1 to 5000 MHz of
    either sign, B_Q up to 5000 MHz when I, J >= 1, any g_J and g_I != 0 of
    either sign; its E(F) lie at least 1e-3 of max|h0| apart, so rank
    labels hold at zero field."""
    I, J = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    a_d = draw(st.floats(1.0, 5000.0)) * draw(st.sampled_from([-1.0, 1.0]))
    b_q = draw(st.floats(-5000.0, 5000.0)) if I >= 2 and J >= 2 else 0.0
    g_j = draw(st.floats(-3.0, 3.0))
    g_i = draw(st.floats(1e-4, 0.01)) * draw(st.sampled_from([-1.0, 1.0]))
    level = LevelConstants("drawn", HalfInt(I), HalfInt(J), a_d, b_q, g_j, g_i)
    assume(_closed_form_gap(level) >= 1e-3 * np.abs(atomstruct._table(level).h0).max())
    return level


@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(hyperfine_levels(), st.floats(0.0, 200.0))
@example(BA137_S12, 0.0)
@example(BA137_D52, 0.0)
@example(BA137_S12, 8.35)
@example(BA137_D52, 8.35)
@example(D52_WITH_G_I, 200.0)
def test_hamiltonian_matches_textbook_operator(level, B):
    got = table_hamiltonian(level, B)
    ulp = np.spacing(np.abs(got).max())
    assert np.abs(got - oracle_hamiltonian(level, B)).max() <= HAMILTONIAN_ULPS * ulp


@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(hyperfine_levels())
@example(BA137_S12)
@example(BA137_D52)
def test_zero_field_spectrum_matches_closed_form(level):
    h0 = oracle_hamiltonian(level, 0.0)
    ulp = np.spacing(np.abs(h0).max())
    closed = {F: oracle_zero_field_energy(level, float(F)) for F in level.f_values()}
    want = np.sort([closed[F] for F in level.f_values() for _ in range(F.twice + 1)])
    assert np.abs(np.linalg.eigvalsh(h0) - want).max() <= ZERO_FIELD_ULPS * ulp
    # the package's zero-field energies are its own closed form
    got = np.array([s.energy for s in diagonalize(level, 0.0)])
    want = np.array([closed[F] for F, _ in atomstruct._table(level).labels])
    assert np.abs(got - want).max() <= CLOSED_FORM_ULPS * ulp


@settings(derandomize=True, deadline=None, database=None, max_examples=50)
@given(hyperfine_levels())
@example(BA137_S12)
@example(BA137_D52)
@example(D52_WITH_G_I)
def test_zero_field_slopes_are_lande(level):
    """At B = 0 each state's slope, and each line's ``field_sensitivity``,
    is the first-order g_F mu_B/h m_F, with g_I in g_F."""
    labels = atomstruct._table(level).labels
    want = np.array([MU_B_OVER_H * oracle_lande_g(level, float(F)) * float(m) for F, m in labels])
    scale = MU_B_OVER_H * (abs(level.g_J) * float(level.J) + abs(level.g_I) * float(level.I))
    conditioning = max(1.0, np.abs(atomstruct._table(level).h0).max() / _closed_form_gap(level))
    tol = LANDE_ULPS * np.spacing(scale) * conditioning
    assert np.abs(atomstruct._field_solve(level, 0.0)[3] - want).max() <= tol
    ground = StateRef(level, *labels[0])
    for k, (F, m) in enumerate(labels):
        got = field_sensitivity(ground, StateRef(level, F, m), 0.0)
        assert abs(got - (want[k] - want[0])) <= 2 * tol, (F, m)
