import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ba137qudit.angmom import HalfInt
from ba137qudit.atomstruct import BA137_D52, BA137_S12, diagonalize
from ba137qudit.fixtures import load_strength_fixture
from ba137qudit.transitions import (
    PAPER13_D_STATES,
    PAPER13_GEOMETRY,
    LaserGeometry,
    encodable_states,
    geometric_factor,
    strength_table,
)

from oracles import oracle_geometric_factor, oracle_pure_f_strength, oracle_relative_strength


class TestGeometricFactor:
    def test_delta_m_zero_at_45(self):
        assert geometric_factor(0, LaserGeometry(45, 0)) == pytest.approx(0.5, abs=1e-15)

    def test_delta_m_one_vanishes_at_45_0(self):
        geom = LaserGeometry(45, 0)
        assert geometric_factor(1, geom) == pytest.approx(0.0, abs=1e-15)
        assert geometric_factor(-1, geom) == pytest.approx(0.0, abs=1e-15)

    def test_derived_value(self):
        assert geometric_factor(0, PAPER13_GEOMETRY) == pytest.approx(0.26496, abs=5e-6)

    def test_matches_independent_reimplementation(self):
        for gamma in np.linspace(0, 179, 25):
            for phi in np.linspace(0, 179, 25):
                geom = LaserGeometry(phi, gamma)
                for q in (-2, -1, 0, 1, 2):
                    assert geometric_factor(q, geom) == pytest.approx(
                        oracle_geometric_factor(q, gamma, phi), abs=1e-12
                    )

    def test_q_sign_symmetry_at_special_angles(self):
        for phi in np.linspace(0, 179, 37):
            geom = LaserGeometry(phi, 0.0)
            for q in (1, 2):
                assert geometric_factor(q, geom) == pytest.approx(
                    geometric_factor(-q, geom), abs=1e-14
                )
        for gamma in np.linspace(0, 179, 37):
            geom = LaserGeometry(90.0, gamma)
            for q in (1, 2):
                assert geometric_factor(q, geom) == pytest.approx(
                    geometric_factor(-q, geom), abs=1e-14
                )

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            geometric_factor(3, PAPER13_GEOMETRY)

    def test_angle_normalization(self):
        assert LaserGeometry(225.0, -122.0) == LaserGeometry(45.0, 58.0)

    @pytest.mark.parametrize("phi, gamma, name", [
        (float("nan"), 58.0, "phi"), (45.0, float("inf"), "gamma"), (float("-inf"), 0.0, "phi"),
    ])
    def test_non_finite_angle_named(self, phi, gamma, name):
        with pytest.raises(ValueError, match=f"^{name} must be a finite angle"):
            LaserGeometry(phi, gamma)


@pytest.fixture(scope="module")
def table_835():
    return strength_table(8.35, PAPER13_GEOMETRY)


class TestRelativeStrength:
    def test_stretched_transition(self, table_835):
        assert table_835.value((4, 4), (2, 2)) == pytest.approx(0.2676, abs=5e-5)

    def test_forbidden_delta_m(self, table_835):
        assert table_835.value((4, -4), (2, 2)) == 0.0
        assert table_835.value((4, -4), (1, -1)) == 0.0


def assert_table_matches_oracle(B, geometry):
    """The whole table, bit for bit, against the per-pair formula over the
    labeled eigenstates of both levels at B."""
    table = strength_table(B, geometry)
    excited = diagonalize(BA137_D52, B).states
    ground = sorted(diagonalize(BA137_S12, B), key=lambda g: (g.F_tilde, g.m_F_tilde))
    want = np.array([[oracle_relative_strength(g, e, geometry) for g in ground] for e in excited])
    assert type(table.B) is float and repr(table.B) == repr(float(B) + 0.0)
    assert table.d_labels == tuple((e.F_tilde, e.m_F_tilde) for e in excited)
    assert table.s_labels == tuple((g.F_tilde, g.m_F_tilde) for g in ground)
    assert np.array_equal(table.values, want)
    assert np.array_equal(np.signbit(table.values), np.signbit(want))
    assert not table.values.flags.writeable


@pytest.mark.parametrize("B", [0.0, -0.0, 1e-5, 1e-3, 8.35, 20.0])
def test_table_matches_oracle_at_fields(B):
    assert_table_matches_oracle(B, PAPER13_GEOMETRY)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.floats(0.0, 20.0), st.floats(0.0, 360.0, exclude_max=True),
       st.floats(0.0, 360.0, exclude_max=True))
def test_table_matches_oracle_property(B, phi, gamma):
    assert_table_matches_oracle(B, LaserGeometry(phi, gamma))


class TestStrengthTable:
    def test_full_fixture_regression(self):
        table = strength_table(8.35, PAPER13_GEOMETRY)
        d_keys, s_keys, fixture = load_strength_fixture()
        assert table.values.shape == (24, 8) == fixture.shape
        dev = np.abs(table.values - fixture)
        assert dev.max() < 5e-5
        # |Delta m| > 2 entries are exactly zero, not merely small
        for i, (df, dm) in enumerate(table.d_labels):
            for j, (sf, sm) in enumerate(table.s_labels):
                if abs(dm.twice - sm.twice) > 4:
                    assert table.values[i, j] == 0.0
        assert np.all(table.values[fixture == 0.0] < 5e-5)

    def test_spot_values(self, table_835):
        assert table_835.value((3, 3), (2, 2)) == pytest.approx(0.0036, abs=5e-5)
        assert table_835.value((2, 1), (2, 2)) == pytest.approx(0.0724, abs=5e-5)

    def test_value_names_unknown_label(self, table_835):
        with pytest.raises(KeyError, match=r"no state \|F~=5, m=5> in 5D5/2"):
            table_835.value((5, 5), (2, 2))
        with pytest.raises(KeyError, match=r"no state \|F~=2, m=3> in 6S1/2"):
            table_835.value((4, 4), (2, 3))

    def test_column_names_unknown_label(self, table_835):
        with pytest.raises(KeyError, match=r"no state \|F~=3, m=2> in 6S1/2"):
            table_835.column((3, 2))

    @pytest.mark.parametrize(
        "B,tol",
        [
            # the 486 kHz F=3/F=4 near-degeneracy mixes states at first order
            # in B (~3.5e-3 amplitude per mG), so the pure-F limit is only
            # reached linearly: deviation ~4.8e-4 at 1 mG, ~4.8e-6 at 0.01 mG
            (1e-5, 1e-5),
            (1e-3, 1e-3),
        ],
    )
    def test_low_field_matches_pure_f_basis_oracle(self, B, tol):
        table = strength_table(B, PAPER13_GEOMETRY)
        for i, (df, dm) in enumerate(table.d_labels):
            for j, (sf, sm) in enumerate(table.s_labels):
                want = oracle_pure_f_strength(
                    1.5, 0.5, 2.5,
                    float(sf), float(sm), float(df), float(dm),
                    PAPER13_GEOMETRY.gamma, PAPER13_GEOMETRY.phi,
                )
                assert table.values[i, j] == pytest.approx(want, abs=tol)

    def test_strength_squared_sum_field_invariant(self):
        # fixed (B-independent) stretched ground states: sum_D strength^2 is
        # invariant under the excited-basis rotation with B
        totals = {}
        for B in (0.0, 4.0, 8.35):
            table = strength_table(B, PAPER13_GEOMETRY)
            for ground in ((2, 2), (2, -2)):
                j = table.s_labels.index((HalfInt(2 * ground[0]), HalfInt(2 * ground[1])))
                totals.setdefault(ground, []).append(np.sum(table.values[:, j] ** 2))
        for ground, vals in totals.items():
            assert max(vals) - min(vals) < 1e-8

    def test_csv_json_roundtrip(self, tmp_path):
        table = strength_table(8.35, PAPER13_GEOMETRY)
        table.to_csv(tmp_path / "t.csv")
        table.to_json(tmp_path / "t.json")
        import csv as _csv
        import json as _json

        rows = list(_csv.reader(open(tmp_path / "t.csv")))
        assert len(rows) == 25 and len(rows[0]) == 9
        doc = _json.load(open(tmp_path / "t.json"))
        assert doc["B_gauss"] == 8.35
        assert len(doc["entries"]) == 192


@pytest.mark.parametrize("B, want", [(np.float32(8.35), float(np.float32(8.35))), (-0.0, 0.0),
                                     (np.float64(8.35), 8.35), (3, 3.0)])
def test_table_keeps_the_field_it_was_computed_at(tmp_path, B, want):
    table = strength_table(B, LaserGeometry(phi=0.7, gamma=0.3))
    assert type(table.B) is float and repr(table.B) == repr(want)
    table.to_json(tmp_path / "t.json")
    written = json.loads((tmp_path / "t.json").read_text())["B_gauss"]
    assert repr(written) == repr(want)
    assert np.array_equal(table.values, strength_table(want, table.geometry).values)


class TestEncodableStates:
    def test_thirteen_level_choice(self):
        table = strength_table(8.35, PAPER13_GEOMETRY)
        picked = encodable_states(table)
        assert len(picked) == 12
        assert picked == PAPER13_D_STATES

    def test_threshold_one_empty(self):
        table = strength_table(8.35, PAPER13_GEOMETRY)
        assert encodable_states(table, threshold=1.0) == ()

    def test_threshold_zero_counts_nonzero_column(self):
        # Delta m in [-2, 2] from m=2 reaches m_D in [0, 4]: 2+3+4+5 = 14
        # states, matching the nonzero entries of the reference column
        table = strength_table(8.35, PAPER13_GEOMETRY)
        picked = encodable_states(table, threshold=0.0)
        assert len(picked) == 14
        d_keys, s_keys, fixture = load_strength_fixture()
        nonzero_fixture = int(np.sum(fixture[:, s_keys.index("S:F2:m2")] > 0))
        assert len(picked) == nonzero_fixture
