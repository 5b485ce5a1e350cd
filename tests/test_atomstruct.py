import numpy as np
import pytest

from ba137qudit import atomstruct
from ba137qudit.angmom import HalfInt
from ba137qudit.atomstruct import (
    BA137_D52,
    BA137_S12,
    CONSTANTS,
    FieldMismatchError,
    LabelingError,
    LevelConstants,
    StateRef,
    build_hamiltonian,
    decomposition_scan,
    diagonalize,
    diagonalize_range,
    field_sensitivity,
    transition_frequency,
    transition_frequency_at,
    write_decomposition_scan,
    write_level_scan,
    zero_field_energy,
)

from oracles import oracle_walk_energies


def _f_squared(level):
    """(I+J)^2 matrix built from scratch, as an independent symmetry probe."""
    from ba137qudit.atomstruct import _hyperfine_parts

    idot, _ = _hyperfine_parts(level)
    I, J = float(level.I), float(level.J)
    return (I * (I + 1) + J * (J + 1)) * np.eye(level.dim) + 2.0 * idot


class TestLevelConstants:
    def test_quadrupole_requires_large_spins(self):
        with pytest.raises(ValueError):
            LevelConstants("bad", HalfInt(3), HalfInt(1), 1.0, 2.0, 2.0)

    def test_presets(self):
        assert BA137_S12.dim == 8
        assert BA137_D52.dim == 24
        assert [str(f) for f in BA137_S12.f_values()] == ["1", "2"]
        assert [str(f) for f in BA137_D52.f_values()] == ["1", "2", "3", "4"]


class TestHamiltonian:
    def test_zero_field_splitting_s12(self):
        # hand evaluation: I.J eigenvalues K/2 = 0.75 and -1.25
        h = build_hamiltonian(BA137_S12, 0.0)
        w = np.sort(np.linalg.eigvalsh(h))
        assert w[-1] - w[0] == pytest.approx(2 * 4018.871, abs=1e-9)
        assert w[-1] == pytest.approx(0.75 * 4018.871, abs=1e-9)
        assert w[0] == pytest.approx(-1.25 * 4018.871, abs=1e-9)

    def test_diagonal_zeeman_entry(self):
        level = LevelConstants("test", HalfInt(3), HalfInt(1), 0.0, 0.0, 2.0, 0.0)
        h = build_hamiltonian(level, 1.0)
        basis_mj = [tmj / 2 for (_, tmj) in __import__("ba137qudit.atomstruct", fromlist=["_basis"])._basis(level)]
        i = basis_mj.index(0.5)
        assert h[i, i] == pytest.approx(1.3996245, abs=1e-12)

    @pytest.mark.parametrize("level", [BA137_S12, BA137_D52])
    def test_commutes_with_f_squared_at_zero_field(self, level):
        h = build_hamiltonian(level, 0.0)
        f2 = _f_squared(level)
        assert np.max(np.abs(h @ f2 - f2 @ h)) < 1e-9

    @pytest.mark.parametrize("level", [BA137_S12, BA137_D52])
    @pytest.mark.parametrize("B", [0.0, 1.0, 8.35])
    def test_hermitian_and_block_structure(self, level, B):
        from ba137qudit.atomstruct import _basis

        h = build_hamiltonian(level, B)
        assert np.array_equal(h, h.T)
        tm = np.array([a + b for a, b in _basis(level)])
        off_block = h[np.not_equal.outer(tm, tm)]
        assert np.all(off_block == 0.0)

    @pytest.mark.parametrize("level", [BA137_S12, BA137_D52])
    @pytest.mark.parametrize("B", [0.0, 4.2, 10.0])
    def test_trace_preserved(self, level, B):
        h = build_hamiltonian(level, B)
        assert abs(np.sum(np.linalg.eigvalsh(h)) - np.trace(h)) < 1e-8

    def test_rejects_negative_field(self):
        with pytest.raises(ValueError):
            build_hamiltonian(BA137_S12, -1.0)

    @pytest.mark.parametrize("B", [float("nan"), float("inf")])
    def test_rejects_non_finite_field(self, B):
        with pytest.raises(ValueError):
            build_hamiltonian(BA137_D52, B)
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
                assert s.f_component(s.F_tilde, s.m_F_tilde) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("B", [0.0, 0.2, 2.0, 8.35, 10.0])
    def test_stretched_states_stay_pure(self, B):
        sys = diagonalize(BA137_D52, B)
        for m in (4, -4):
            assert abs(sys.state(4, m).f_component(4, m) - 1.0) < 1e-10

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
                assert slope == pytest.approx(sgn * CONSTANTS.mu_B_over_h, abs=1e-12)

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
        walk = oracle_walk_energies(
            float(level.I), float(level.J), level.A_D, level.B_Q,
            level.g_J, level.g_I, CONSTANTS.mu_B_over_h, bs,
        )
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
        f_hi = transition_frequency_at(
            StateRef.of(BA137_S12, 2, 2), StateRef.of(BA137_D52, 4, 4), B
        )
        f_lo = transition_frequency_at(
            StateRef.of(BA137_S12, 2, 2), StateRef.of(BA137_D52, 4, -4), B
        )
        assert f_hi - f_lo == pytest.approx(6 * CONSTANTS.mu_B_over_h * B, abs=1e-9)

    def test_antisymmetric(self):
        s = diagonalize(BA137_S12, 3.0).state(1, 0)
        d = diagonalize(BA137_D52, 3.0).state(2, 1)
        assert transition_frequency(s, d) == -transition_frequency(d, s)

    def test_offset_applied(self):
        s = diagonalize(BA137_S12, 1.0).state(2, 2)
        d = diagonalize(BA137_D52, 1.0).state(4, 4)
        assert transition_frequency(s, d, 100.0) == transition_frequency(s, d) + 100.0

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
                transition_frequency_at(g, e, B + h) - transition_frequency_at(g, e, B - h)
            ) / (2 * h)
            assert field_sensitivity(g, e, B) == pytest.approx(diff, abs=1e-6), d

    def test_zero_field_slope(self):
        # stretched states are pure at every field: slope (3 - 1) mu_B/h
        kappa = field_sensitivity(
            StateRef.of(BA137_S12, 2, 2), StateRef.of(BA137_D52, 4, 4), 0.0
        )
        assert kappa == pytest.approx(2 * CONSTANTS.mu_B_over_h, abs=1e-12)

    @pytest.mark.parametrize("B", [-0.5, float("nan"), float("inf")])
    def test_rejects_bad_field(self, B):
        g = StateRef.of(BA137_S12, 2, 2)
        e = StateRef.of(BA137_D52, 4, 4)
        with pytest.raises(ValueError):
            field_sensitivity(g, e, B)


class TestCsvEmitters:
    def test_level_scan_csv(self, tmp_path):
        path = tmp_path / "scan.csv"
        write_level_scan(path, BA137_S12, [0.0, 1.0])
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "B_gauss,state_label,energy_MHz"
        assert len(rows) == 1 + 2 * 8

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
        for B in (0.0, 8.35):
            with pytest.raises(LabelingError):
                diagonalize_range(deg, [B])

    def test_gap_guard_at_requested_field(self, monkeypatch):
        # 5D5/2 has in-block gaps of 0.4856 MHz at zero field and 0.4717 MHz
        # at 0.05 G; a 0.48 MHz tolerance passes the first and trips the second
        monkeypatch.setattr(atomstruct, "_GAP_MIN", 0.48)
        diagonalize_range(BA137_D52, [0.0])
        with pytest.raises(LabelingError, match="B = 0.05 G"):
            diagonalize_range(BA137_D52, [0.05])
