import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ba137qudit import atomstruct
from ba137qudit.angmom import HalfInt
from ba137qudit.atomstruct import BA137_D52, BA137_S12, StateRef
from ba137qudit.spam import (
    CheckStep,
    ConfusionMatrix,
    EncodingError,
    ErrorParams,
    MissingTransitionError,
    NullRowError,
    PlanError,
    PulseStep,
    QuditEncoding,
    Timings,
    average_fidelity,
    ALL_D_STATES,
    ALL_S_STATES,
    build_measurement_sequence,
    enumerate_outcomes,
    error_params_from_json,
    error_params_from_reference,
    error_params_to_json,
    load_reference_confusion,
    paper13_encoding,
    reference_timings,
    parse_atomic_state,
    post_select,
    read_confusion_csv,
    run_experiment,
    scaling_analysis,
    timing_budget,
    twenty_five_level_encoding,
    write_confusion_csv,
)
from ba137qudit import spam

from oracles import (
    _oracle_outcome, oracle_enumerate_outcomes, oracle_forward_strict, oracle_prep_path,
    simulate_shot,
)


def S(f, m):
    return parse_atomic_state(f"S:F{f}:m{m}")


def D(f, m):
    return parse_atomic_state(f"D:F{f}:m{m}")


def two_level():
    enc = paper13_encoding()
    return QuditEncoding("two", (enc.states[0], enc.states[1]))


def twenty_five_level():
    return twenty_five_level_encoding()


class TestEncoding:
    def test_paper13(self):
        enc = paper13_encoding()
        assert enc.d == 13
        assert enc.states[0] == S(2, 2)
        assert enc.states[1] == D(4, 4)
        assert enc.states[12] == D(1, 0)

    def test_index_zero_must_be_ground(self):
        with pytest.raises(EncodingError):
            QuditEncoding("bad", (D(4, 4), S(2, 2)))

    def test_duplicate_states(self):
        with pytest.raises(EncodingError):
            QuditEncoding("bad", (S(2, 2), D(4, 4), D(4, 4)))

    def test_ground_state_needs_parking(self):
        with pytest.raises(EncodingError):
            QuditEncoding("bad", (S(2, 2), S(2, 1)))

    def test_parking_must_not_be_encoded(self):
        with pytest.raises(EncodingError):
            QuditEncoding(
                "bad", (S(2, 2), S(2, 1), D(4, 3)), parking={S(2, 1): D(4, 3)}
            )

    def test_25_levels_accepted(self):
        enc = twenty_five_level()
        assert enc.d == 25

    def test_label_parse_roundtrip(self):
        for key in ("S:F2:m2", "D:F4:m-3", "D:F1:m0"):
            assert parse_atomic_state(key).key == key
        with pytest.raises(ValueError):
            parse_atomic_state("X:F2:m1")

    def test_every_state_parses_back_from_its_key(self):
        # the structure solve's labels, in its row order: F~ up, m down
        want = tuple(StateRef(level, F, m) for level in (BA137_S12, BA137_D52)
                     for F, m in atomstruct._table(level).labels)
        assert ALL_S_STATES + ALL_D_STATES == want and len(want) == 32
        for state in want:
            assert parse_atomic_state(state.key) == state
        assert parse_atomic_state("D:F5/2:m-3/2") == StateRef(BA137_D52, HalfInt(5), HalfInt(-3))
        for key in ("D:F5/4:m0", "D:F2/:m0", "D:F1/2/2:m0", "6S1/2:F2:m2"):
            with pytest.raises(ValueError, match="cannot parse atomic state key"):
                parse_atomic_state(key)


class TestMeasurementPlan:
    def test_paper13_shape(self):
        plan = build_measurement_sequence(paper13_encoding())
        assert plan.n_checks == 13
        assert isinstance(plan.steps[0], CheckStep)
        pulses = [s for s in plan.steps if isinstance(s, PulseStep)]
        assert len(pulses) == 12
        assert [s.outcome for s in plan.steps if isinstance(s, CheckStep)] == list(range(13))

    def test_single_level(self):
        enc = QuditEncoding("d1", (S(2, 2),))
        plan = build_measurement_sequence(enc)
        assert plan.steps == (CheckStep(0),)

    def test_two_level(self):
        plan = build_measurement_sequence(two_level())
        assert len(plan.steps) == 3
        assert plan.n_checks == 2

    def test_25_level_plan(self):
        enc = twenty_five_level()
        plan = build_measurement_sequence(enc)
        assert plan.n_checks == 25
        shelves = [s for s in plan.steps if isinstance(s, PulseStep)][:7]
        assert all(p.s_state.level == BA137_S12 and p.d_state.level == BA137_D52 for p in shelves)
        # every state preparable within three pulses
        assert all(len(p) <= 3 for p in plan.prep_paths)
        # negative-m metastable states genuinely need the three-pulse route
        assert len(plan.prep_paths[enc.states.index(D(4, -1))]) == 3

    def test_unreachable_parking_rejected(self):
        # parking D(4,4) from S(2,-2) would need |Delta m| = 6
        enc = QuditEncoding(
            "bad", (S(2, 2), S(2, -2)), parking={S(2, -2): D(4, 4)}
        )
        with pytest.raises(PlanError):
            build_measurement_sequence(enc)


    def test_equal_content_shares_one_plan(self):
        first, second = paper13_encoding(), paper13_encoding()
        assert first is not second
        assert build_measurement_sequence(first) is build_measurement_sequence(second)

    def test_plan_is_frozen(self):
        plan = build_measurement_sequence(twenty_five_level())
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.steps = ()
        with pytest.raises(TypeError):
            plan._code[S(2, 2)] = 1
        with pytest.raises(TypeError):
            plan._step_pulse[plan.steps[0].key] = 0

    def test_mutated_parking_or_target_gives_a_new_plan(self):
        ground = S(2, 2)
        enc = QuditEncoding("parked", (ground, S(2, 1), D(2, 1)), parking={S(2, 1): D(4, 3)},
                            deshelve_targets={D(2, 1): ground})
        plans = [build_measurement_sequence(enc)]
        enc.parking[S(2, 1)] = D(3, 2)
        plans.append(build_measurement_sequence(enc))
        enc.deshelve_targets[D(2, 1)] = S(2, 1)
        plans.append(build_measurement_sequence(enc))
        shelve = [PulseStep(S(2, 1), D(4, 3))] + [PulseStep(S(2, 1), D(3, 2))] * 2
        deshelve = [PulseStep(ground, D(2, 1))] * 2 + [PulseStep(S(2, 1), D(2, 1))]
        for plan, shelf, target in zip(plans, shelve, deshelve):
            assert plan.steps == (shelf, CheckStep(0), shelf, CheckStep(1), target, CheckStep(2))
        assert len({id(plan) for plan in plans}) == 3

    @pytest.mark.parametrize("make", [paper13_encoding, twenty_five_level],
                             ids=["paper13", "full25"])
    def test_uniform_errors_follow_plan_order(self, make):
        enc = make()
        plan = build_measurement_sequence(enc)
        pulses = [s.key for s in plan.steps if isinstance(s, PulseStep)]
        pulses += [p.key for path in plan.prep_paths for p in path]
        assert list(ErrorParams.uniform(enc, 0.01).eps_pi) == list(dict.fromkeys(pulses))


class TestSimulateShot:
    def test_deterministic_prepared_three(self):
        enc = paper13_encoding()
        rec = simulate_shot(3, enc, ErrorParams.zero(enc), np.random.default_rng(0))
        assert rec.reads == tuple(i == 3 for i in range(13))

    def test_deterministic_prepared_zero(self):
        # bright first, then re-shelved by the |1> pulse: dark ever after
        enc = paper13_encoding()
        rec = simulate_shot(0, enc, ErrorParams.zero(enc), np.random.default_rng(0))
        assert rec.reads == (True,) + (False,) * 12

    def test_forced_prep_failure(self):
        enc = paper13_encoding()
        errs = ErrorParams.uniform(enc, 0.0)
        eps = dict(errs.eps_pi)
        eps[(S(2, 2), D(4, 2))] = 1.0  # prep transition for |3>
        errs = ErrorParams(eps_pi=eps)
        rec = simulate_shot(3, enc, errs, np.random.default_rng(0))
        assert rec.reads[0] is True or rec.reads[0] == True  # noqa: E712
        assert _oracle_outcome(rec.reads, "first-bright", range(13)) == 0

    def test_missing_transition_error(self):
        enc = two_level()
        with pytest.raises(MissingTransitionError):
            simulate_shot(1, enc, ErrorParams(eps_pi={}), np.random.default_rng(0))

    def test_prepared_out_of_range(self):
        enc = two_level()
        with pytest.raises(ValueError):
            simulate_shot(5, enc, ErrorParams.zero(enc), np.random.default_rng(0))


class TestInterpret:
    def test_single_bright(self):
        reads = [False] * 13
        reads[3] = True
        assert _oracle_outcome(reads, "first-bright", range(13)) == 3
        assert _oracle_outcome(reads, "strict-single-bright", range(13)) == 3

    def test_double_bright(self):
        reads = [False] * 13
        reads[3] = reads[7] = True
        assert _oracle_outcome(reads, "first-bright", range(13)) == 3
        assert _oracle_outcome(reads, "strict-single-bright", range(13)) is None

    def test_all_dark(self):
        assert _oracle_outcome([False] * 13, "first-bright", range(13)) is None
        assert _oracle_outcome([False] * 13, "strict-single-bright", range(13)) is None

    def test_modes_agree_on_single_bright(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            reads = [False] * 8
            reads[rng.integers(8)] = True
            assert _oracle_outcome(reads, "first-bright", range(8)) == _oracle_outcome(
                reads, "strict-single-bright", range(8)
            )

    def test_unknown_mode(self):
        enc = two_level()
        with pytest.raises(ValueError):
            enumerate_outcomes(enc, ErrorParams.zero(enc), 0, mode="majority")


class TestRunExperiment:
    def test_zero_errors_identity(self):
        enc = paper13_encoding()
        m = run_experiment(enc, ErrorParams.zero(enc), 100, seed=1)
        assert np.array_equal(m.probs[:, :-1], np.eye(13))
        assert m.has_null and np.all(m.probs[:, -1] == 0.0)

    def test_deterministic_and_schedule_independent(self):
        enc = two_level()
        errs = ErrorParams.uniform(enc, 0.05, prep_error=0.01, p_dark_given_s=0.002)
        a = run_experiment(enc, errs, 30000, seed=9)
        b = run_experiment(enc, errs, 30000, seed=9)
        assert np.array_equal(a.probs, b.probs)
        d = run_experiment(enc, errs, 30000, seed=10)
        assert not np.array_equal(a.probs, d.probs)

    def test_rows_stochastic(self):
        enc = paper13_encoding()
        errs = dataclasses.replace(error_params_from_reference(), prep_error=0.002)
        m = run_experiment(enc, errs, 2000, seed=3)
        assert np.max(np.abs(m.probs.sum(axis=1) - 1.0)) < 1e-12

    def test_analytic_post_selection_oracle(self):
        enc = two_level()
        for eps in (0.01, 0.1, 0.3):
            errs = ErrorParams.uniform(enc, eps)
            m = run_experiment(enc, errs, 10**6, seed=7)
            row = m.probs[1]
            n_eff = m.shots[1] * (row[0] + row[1])
            got = row[0] / (row[0] + row[1])
            want = eps / (eps + (1 - eps) ** 2)
            sigma = math.sqrt(want * (1 - want) / n_eff)
            assert abs(got - want) < 3 * sigma
            # raw Null rate: prep success then de-shelve failure
            null_want = eps * (1 - eps)
            null_sigma = math.sqrt(null_want * (1 - null_want) / m.shots[1])
            assert abs(row[2] - null_want) < 4 * null_sigma

    def test_reference_errors_track_spam_error_column(self):
        # drift-free simulation lands within a few points of the measured
        # post-selected errors for the well-behaved (eps < 0.1) states
        enc = paper13_encoding()
        errs = error_params_from_reference()
        m = post_select(run_experiment(enc, errs, 20000, seed=5))
        ref = load_reference_confusion("e2")
        from ba137qudit.fixtures import load_transition_params

        for row in load_transition_params():
            if row.index in (None, 0) or row.single_transition_error is None:
                continue
            if row.single_transition_error >= 0.1:
                continue
            sim_err = 1.0 - m.probs[row.index, row.index]
            meas_err = 1.0 - ref.probs[row.index, row.index]
            assert abs(sim_err - meas_err) < 0.05


class TestEnumerationOracle:
    def assert_mc_matches(self, enc, errs, prepared, mode, shots=200_000, **kw):
        exact = oracle_enumerate_outcomes(enc, errs, prepared, mode, **kw)
        m = run_experiment(enc, errs, shots, seed=123, mode=mode, **kw)
        row = m.probs[prepared]
        for outcome, p in exact.items():
            col = enc.d if outcome is None else outcome
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / shots)
            assert abs(row[col] - p) < 4 * sigma, (outcome, row[col], p)
        assert abs(sum(exact.values()) - 1.0) < 1e-12

    def test_d4_arbitrary_errors(self):
        enc13 = paper13_encoding()
        enc = QuditEncoding("four", enc13.states[:4])
        eps = {k: e for k, e in zip(
            sorted(build_keys(enc)), (0.08, 0.2, 0.13)
        )}
        errs = ErrorParams(
            eps_pi=eps, prep_error=0.03, p_dark_given_s=0.01, p_bright_given_d=0.004
        )
        for prepared in range(4):
            for mode in ("first-bright", "strict-single-bright"):
                self.assert_mc_matches(enc, errs, prepared, mode)

    def test_with_decay_and_leak(self):
        enc13 = paper13_encoding()
        enc = QuditEncoding("three", enc13.states[:3])
        keys = sorted(build_keys(enc))
        eps = {k: 0.1 for k in keys}
        leak = {keys[0]: (keys[1], 0.05)}
        errs = ErrorParams(eps_pi=eps, decay_rate=2.0, leak=leak)
        self.assert_mc_matches(enc, errs, 1, "first-bright", intervals=0.05)

    def test_with_shelving(self):
        enc = QuditEncoding(
            "mixed", (S(2, 2), S(2, 1), D(4, 4)), parking={S(2, 1): D(4, 3)}
        )
        errs = ErrorParams.uniform(enc, 0.07, prep_error=0.02)
        for prepared in range(3):
            self.assert_mc_matches(enc, errs, prepared, "first-bright")


def build_keys(enc):
    return build_measurement_sequence(enc).pulse_keys()


class TestPostSelect:
    def test_reference_row_five(self):
        raw = load_reference_confusion("e3")
        post = post_select(raw)
        ref = load_reference_confusion("e2")
        assert post.probs[5, 0] == pytest.approx(ref.probs[5, 0], abs=0.002)
        assert post.probs[5, 5] == pytest.approx(ref.probs[5, 5], abs=0.002)

    def test_reference_entrywise_after_rounding(self):
        raw = load_reference_confusion("e3")
        post = post_select(raw)
        ref = load_reference_confusion("e2")
        rounded = np.round(post.probs, 3)
        assert np.max(np.abs(rounded - ref.probs)) <= 0.002 + 1e-12

    def test_zero_null_unchanged(self):
        probs = np.hstack([np.eye(3), np.zeros((3, 1))])
        m = ConfusionMatrix(probs=probs, shots=np.full(3, 100), has_null=True)
        post = post_select(m)
        assert np.array_equal(post.probs, np.eye(3))

    def test_half_null_renormalizes(self):
        probs = np.array([[0.5, 0.0, 0.5]])
        m = ConfusionMatrix(probs=probs, shots=np.array([100]), has_null=True)
        post = post_select(m)
        assert post.probs[0, 0] == 1.0
        assert post.shots[0] == 50

    def test_all_null_row_is_error(self):
        probs = np.array([[0.0, 0.0, 1.0]])
        m = ConfusionMatrix(probs=probs, shots=np.array([100]), has_null=True)
        with pytest.raises(NullRowError):
            post_select(m)

    def test_requires_null(self):
        m = ConfusionMatrix(probs=np.eye(3), shots=np.full(3, 10), has_null=False)
        with pytest.raises(ValueError):
            post_select(m)


class TestAverageFidelity:
    def test_post_selected_reference(self):
        fid, sigma = average_fidelity(load_reference_confusion("e2"))
        assert fid == pytest.approx(0.917, abs=0.003)
        assert 0.001 < sigma < 0.005

    def test_raw_reference_error(self):
        fid, sigma = average_fidelity(load_reference_confusion("e3"))
        assert 1.0 - fid == pytest.approx(0.131, abs=0.003)

    def test_strict_reference_errors(self):
        # the strict reading is worse raw (more Nulls) but comparable
        # after post-selection
        raw_fid, _ = average_fidelity(load_reference_confusion("s1"))
        post_fid, _ = average_fidelity(load_reference_confusion("s2"))
        assert raw_fid == pytest.approx(0.8103, abs=0.003)
        assert post_fid == pytest.approx(0.9136, abs=0.003)
        first_bright_raw, _ = average_fidelity(load_reference_confusion("e3"))
        assert raw_fid < first_bright_raw

    def test_identity(self):
        m = ConfusionMatrix(probs=np.eye(4), shots=np.full(4, 100), has_null=False)
        fid, sigma = average_fidelity(m)
        assert fid == 1.0 and sigma == 0.0


class TestScalingAnalysis:
    def fids(self):
        ref = load_reference_confusion("e2")
        return {i: float(p) for i, p in enumerate(ref.diagonal())}

    def test_d13_equals_overall_average(self):
        curves = scaling_analysis(self.fids(), range(2, 14))
        fid, _ = average_fidelity(load_reference_confusion("e2"))
        assert curves.optimal[-1] == pytest.approx(fid, abs=1e-12)
        assert curves.worst[-1] == pytest.approx(fid, abs=1e-12)

    def test_d2_optimal(self):
        curves = scaling_analysis(self.fids(), [2])
        assert curves.optimal[0] == pytest.approx((0.999 + 0.970) / 2, abs=1e-12)
        assert curves.optimal_choice[0] == (0, 3)

    def test_optimal_dominates_worst(self):
        curves = scaling_analysis(self.fids(), range(1, 14))
        assert all(o >= w for o, w in zip(curves.optimal, curves.worst))

    def test_insufficient_states(self):
        with pytest.raises(ValueError):
            scaling_analysis({0: 0.99, 1: 0.9}, [3])

    @pytest.mark.parametrize("table", ["e2", "e3", "s1", "s2"])
    def test_points_within_one_ulp_of_exact_mean(self, table):
        fids = {i: float(p) for i, p in enumerate(load_reference_confusion(table).diagonal())}
        curves = scaling_analysis(fids, range(1, 14))
        for points, choices in ((curves.optimal, curves.optimal_choice),
                                (curves.worst, curves.worst_choice)):
            for got, choice in zip(points, choices):
                exact = sum(Fraction(fids[k]) for k in choice) / len(choice)
                assert abs(Fraction(got) - exact) <= Fraction(math.ulp(got)), (table, choice)


class TestTimingBudget:
    def test_reference_defaults_near_100ms(self):
        enc = paper13_encoding()
        budget = timing_budget(enc, reference_timings())
        assert 0.090 <= budget.measurement_total <= 0.130

    def test_single_level(self):
        enc = QuditEncoding("d1", (S(2, 2),))
        t = Timings(fluorescence_check=5e-3, awg_trigger=4e-3)
        budget = timing_budget(enc, t)
        assert budget.measurement_total == pytest.approx(5e-3)

    def test_fast_readout_order_5ms(self):
        # demonstrated-fast fluorescence and no trigger overhead
        enc = paper13_encoding()
        ref = reference_timings()
        t = Timings(fluorescence_check=0.35e-3, awg_trigger=0.0, pi_pulse=ref.pi_pulse)
        budget = timing_budget(enc, t)
        assert 0.004 < budget.measurement_total < 0.010

    @pytest.mark.parametrize("name, value", [
        ("fluorescence_check", -1.0), ("awg_trigger", math.nan), ("optical_pump", math.inf),
        ("pi_pulse 3", -37e-6),
    ])
    def test_bad_duration_is_named(self, name, value):
        args = {"fluorescence_check": 5e-3, "awg_trigger": 4e-3, "pi_pulse": {1: 37e-6}}
        if name == "pi_pulse 3":
            args["pi_pulse"] = {1: 37e-6, 3: value}
        else:
            args[name] = value
        message = f"^{name} must be finite and nonnegative, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            Timings(**args)

    def test_prep_reported_separately(self):
        enc = paper13_encoding()
        budget = timing_budget(enc, reference_timings(), prepared=3)
        assert budget.preparation_total == pytest.approx(37.5e-6)

    @pytest.mark.parametrize("prepared", [13, 99, -1, 1.5, True])
    def test_prepared_outside_encoding_refused(self, prepared):
        message = re.escape(f"prepared must be an index in [0, d) for d = 13, got {prepared!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            timing_budget(paper13_encoding(), reference_timings(), prepared=prepared)


class TestConfusionIO:
    def test_roundtrip(self, tmp_path):
        enc = two_level()
        m = run_experiment(enc, ErrorParams.uniform(enc, 0.1), 1000, seed=2)
        write_confusion_csv(tmp_path / "m.csv", m)
        back = read_confusion_csv(tmp_path / "m.csv")
        assert back.has_null
        assert np.allclose(back.probs, m.probs, atol=1e-9)

    def test_rejects_bad_rows(self, tmp_path):
        (tmp_path / "bad.csv").write_text("prepared,0,1,Null\n0,0.5,0.1,0.1\n")
        with pytest.raises(ValueError):
            read_confusion_csv(tmp_path / "bad.csv")

    @pytest.mark.parametrize("row", [[1.5, -0.5], [np.nan, 1.0], [np.inf, 0.0]],
                             ids=["outside", "nan", "inf"])
    def test_rejects_non_probabilities(self, row):
        with pytest.raises(ValueError, match=r"^probs\[0, 0\] = .+ is not in \[0, 1\]$"):
            ConfusionMatrix(probs=[row], shots=[10], has_null=False)

    def test_from_counts_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="counts must be nonnegative"):
            ConfusionMatrix.from_counts(np.array([[3, 1, 0], [-1, 4, 1]]), has_null=True)


class TestTwentyFiveLevels:
    def test_full_monte_carlo(self):
        enc = twenty_five_level()
        errs = ErrorParams.uniform(enc, 0.04, prep_error=0.01)
        m = run_experiment(enc, errs, 1000, seed=13)
        assert m.probs.shape == (25, 26)
        assert np.max(np.abs(m.probs.sum(axis=1) - 1.0)) < 1e-12
        # worst case is a three-hop preparation: (1-eps)^3 prep then one
        # de-shelve, about 0.84 raw correct; 0.78 leaves ~5 sigma of room
        assert np.all(m.diagonal() > 0.78)

    def test_zero_errors_identity(self):
        enc = twenty_five_level()
        m = run_experiment(enc, ErrorParams.zero(enc), 50, seed=1)
        assert np.array_equal(m.probs[:, :-1], np.eye(25))


class TestRunExperimentValidation:
    def test_requires_positive_shots(self):
        enc = two_level()
        with pytest.raises(ValueError):
            run_experiment(enc, ErrorParams.zero(enc), 0, seed=1)

    def test_rejects_unknown_mode(self):
        enc = two_level()
        with pytest.raises(ValueError):
            run_experiment(enc, ErrorParams.zero(enc), 10, seed=1, mode="other")

    @pytest.mark.parametrize("shots", [2.5, 3.0, "3", -1], ids=repr)
    def test_rejects_shots_that_are_not_a_positive_integer(self, shots):
        enc = two_level()
        with pytest.raises(ValueError, match="shots_per_state must be an integer >= 1"):
            run_experiment(enc, ErrorParams.zero(enc), shots, seed=1)

    def test_accepts_numpy_integer_shots(self):
        enc = two_level()
        m = run_experiment(enc, ErrorParams.zero(enc), np.int64(3), seed=1)
        assert m.shots.tolist() == [3, 3]


class TestInLoopPumping:
    def test_charged_to_measurement_budget(self):
        enc = paper13_encoding()
        base = reference_timings()
        pumped = Timings(
            fluorescence_check=base.fluorescence_check,
            awg_trigger=base.awg_trigger,
            optical_pump=1e-3,
            pi_pulse=base.pi_pulse,
        )
        plain = timing_budget(enc, base).measurement_total
        with_pump = timing_budget(enc, pumped).measurement_total
        assert with_pump - plain == pytest.approx((enc.d - 1) * 1e-3)


class TestScalarPathMatchesEnumerator:
    def test_simulate_shot_distribution(self):
        # the shot-by-shot oracle samples the distribution the forward
        # evaluator computes
        enc13 = paper13_encoding()
        enc = QuditEncoding("three", enc13.states[:3])
        keys = sorted(build_keys(enc))
        errs = ErrorParams(
            eps_pi={k: e for k, e in zip(keys, (0.15, 0.08))},
            prep_error=0.03,
            p_dark_given_s=0.02,
            p_bright_given_d=0.01,
        )
        plan = build_measurement_sequence(enc)
        rng = np.random.default_rng(314159)
        shots = 40000
        counts = {}
        for _ in range(shots):
            rec = simulate_shot(1, enc, errs, rng, plan=plan)
            outcome = _oracle_outcome(rec.reads, "first-bright", range(plan.n_checks))
            counts[outcome] = counts.get(outcome, 0) + 1
        exact = enumerate_outcomes(enc, errs, prepared=1)
        for outcome, p in exact.items():
            got = counts.get(outcome, 0) / shots
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / shots)
            assert abs(got - p) < 4 * sigma, (outcome, got, p)


class TestStrictModeRelation:
    def test_strict_never_beats_first_bright(self):
        # strict reading only moves mass from real outcomes into Null
        enc = paper13_encoding()
        errs = dataclasses.replace(error_params_from_reference(), prep_error=0.01)
        a = spam._outcome_matrix(enc, errs, "first-bright", 0.0)
        b = spam._outcome_matrix(enc, errs, "strict-single-bright", 0.0)
        assert np.all(b[:, :-1] <= a[:, :-1] + 1e-15)
        assert np.all(b[:, -1] >= a[:, -1])
        assert np.any(b[:, -1] > a[:, -1] + 1e-3)
        # and post-selection keeps both row-stochastic
        for probs in (a, b):
            m = post_select(ConfusionMatrix(probs, np.full(enc.d, 4000), has_null=True))
            assert np.max(np.abs(m.probs.sum(axis=1) - 1.0)) < 1e-12


def random_sub_encoding(rng, d, shelving):
    """d-level encoding keeping |0>: paper13 states, or full25 states with
    at least one shelved ground state and full25's parking and targets."""
    if not shelving:
        enc13 = paper13_encoding()
        picks = rng.choice(np.arange(1, 13), d - 1, replace=False)
        return QuditEncoding("sub13", (enc13.states[0],) + tuple(enc13.states[i] for i in picks))
    full = twenty_five_level_encoding()
    grounds = [s for s in full.states[1:] if s.level == BA137_S12]
    metas = [s for s in full.states if s.level == BA137_D52]
    n_s = int(rng.integers(1, min(d - 1, len(grounds)) + 1))
    s_pick = [grounds[i] for i in rng.choice(len(grounds), n_s, replace=False)]
    d_pick = [metas[i] for i in rng.choice(len(metas), d - 1 - n_s, replace=False)]
    order = rng.permutation(d - 1)
    others = [(s_pick + d_pick)[i] for i in order]
    return QuditEncoding(
        "sub25",
        (full.states[0],) + tuple(others),
        parking={s: full.parking[s] for s in s_pick},
        deshelve_targets={s: full.deshelve_targets[s] for s in d_pick},
    )


def random_errors(rng, enc):
    """Random pulse errors on every plan pulse, one leak, read flips, decay."""
    plan = build_measurement_sequence(enc)
    keys = sorted(plan.pulse_keys())
    pulses = [s.key for s in plan.steps if isinstance(s, PulseStep)]
    leak = {}
    if pulses and len(keys) > 1:
        src = pulses[rng.integers(len(pulses))]
        dst = [k for k in keys if k != src][rng.integers(len(keys) - 1)]
        leak = {src: (dst, float(rng.uniform(0.0, 0.2)))}
    errs = ErrorParams(
        eps_pi={k: float(rng.uniform(0.0, 0.3)) for k in keys},
        prep_error=float(rng.uniform(0.0, 0.05)),
        p_dark_given_s=float(rng.uniform(0.0, 0.05)),
        p_bright_given_d=float(rng.uniform(0.0, 0.05)),
        decay_rate=float(rng.uniform(0.0, 5.0)),
        leak=leak,
    )
    intervals = rng.uniform(0.0, 0.05, plan.n_checks).tolist()
    return errs, intervals


def leak_outside_plan(rng, errs):
    """Point the one leak of ``errs`` at a random 6S/5D pair, most likely
    one the plan never pulses."""
    ((source, (_, p)),) = errs.leak.items()
    pair = (spam.ALL_S_STATES[rng.integers(8)], spam.ALL_D_STATES[rng.integers(24)])
    errs.eps_pi.setdefault(pair, 0.1)
    errs.leak[source] = (pair, p)


def evaluator_cases(seed):
    """paper13 and full25 twice, and sub-encodings of d = 2..8 with and
    without shelving, each with random errors and decay and with its leak
    inside and then outside the plan."""
    rng = np.random.default_rng(seed)
    encs = [paper13_encoding(), twenty_five_level_encoding()] * 2
    encs += [random_sub_encoding(rng, d, shelving) for d in range(2, 9) for shelving in (False, True)]
    for enc in encs:
        for outside in (False, True):
            errs, intervals = random_errors(rng, enc)
            if outside and errs.leak:
                leak_outside_plan(rng, errs)
            yield enc, errs, intervals


def assert_matches_block_tensor_pass(enc, errs, intervals):
    """The evaluator's matrices against ``oracle_forward_strict`` on the same
    gathered numbers: first-bright bit for bit, signs of zeros included, and
    strict within 1e-14."""
    for mode in spam.MODES:
        with mock.patch.object(spam, "_forward", wraps=spam._forward) as forward:
            got = spam._outcome_matrix(enc, errs, mode, intervals)
        want = oracle_forward_strict(*forward.call_args.args)
        if mode == "first-bright":
            assert got.tobytes() == want.tobytes(), enc.states
        else:
            assert np.abs(got - want).max() <= 1e-14, enc.states


class TestForwardEvaluator:
    @pytest.mark.parametrize("shelving", [False, True], ids=["paper13", "full25"])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_branch_enumerator(self, d, shelving):
        rng = np.random.default_rng(1000 * d + shelving)
        for _ in range(2):
            enc = random_sub_encoding(rng, d, shelving)
            errs, intervals = random_errors(rng, enc)
            for mode in ("first-bright", "strict-single-bright"):
                for prepared in range(d):
                    got = enumerate_outcomes(enc, errs, prepared, mode, intervals)
                    want = oracle_enumerate_outcomes(enc, errs, prepared, mode, intervals)
                    for outcome in set(got) | set(want):
                        assert got.get(outcome, 0.0) == pytest.approx(
                            want.get(outcome, 0.0), abs=1e-12
                        ), (enc.states, mode, prepared, outcome)

    def test_matches_block_tensor_pass(self):
        for case in evaluator_cases(28):
            assert_matches_block_tensor_pass(*case)

    def test_zero_probabilities_omitted(self):
        enc = paper13_encoding()
        assert enumerate_outcomes(enc, ErrorParams.zero(enc), 4) == {4: 1.0}

    def test_25_level_zero_errors_identity(self):
        enc = twenty_five_level()
        m = spam._outcome_matrix(enc, ErrorParams.zero(enc), "first-bright", 0.0)
        assert np.array_equal(m, np.hstack([np.eye(25), np.zeros((25, 1))]))

    @pytest.mark.parametrize("mode", ["first-bright", "strict-single-bright"])
    def test_25_level_rows_sum_to_one(self, mode):
        enc = twenty_five_level()
        errs = ErrorParams.uniform(
            enc, 0.04, prep_error=0.01, p_dark_given_s=0.01, p_bright_given_d=0.005,
            decay_rate=1.0,
        )
        m = spam._outcome_matrix(enc, errs, mode, 0.01)
        assert m.shape == (25, 26)
        assert np.all(m >= 0.0)
        assert np.max(np.abs(m.sum(axis=1) - 1.0)) < 1e-12

    @staticmethod
    def break_swap(monkeypatch):
        """Make every pi pulse gain 1% probability: the real in-place swap,
        then an in-place scale.  The matrix memo is emptied, so no matrix
        computed before the break is served."""
        swap = spam._swap
        spam._forward.cache_clear()

        def broken(prob, *args):
            swap(prob, *args)
            prob *= 1.01

        monkeypatch.setattr(spam, "_swap", broken)

    def test_row_check_rejects_broken_propagation(self, monkeypatch):
        enc = two_level()
        self.break_swap(monkeypatch)
        with pytest.raises(ValueError, match="row-stochastic"):
            run_experiment(enc, ErrorParams.uniform(enc, 0.1), 10, seed=1)

    def test_row_check_rejects_broken_leaking_pulse(self, monkeypatch):
        enc = two_level()
        uniform = ErrorParams.uniform(enc, 0.1)
        (pulse,) = uniform.eps_pi
        spectator = (S(2, 1), D(3, 1))
        errs = ErrorParams(eps_pi={**uniform.eps_pi, spectator: 0.05},
                           leak={pulse: (spectator, 0.2)})
        run_experiment(enc, errs, 10, seed=1)
        self.break_swap(monkeypatch)
        with pytest.raises(ValueError, match="row-stochastic"):
            run_experiment(enc, errs, 10, seed=1)

    def test_repeated_matrices_search_each_path_once(self):
        encs = [paper13_encoding(), twenty_five_level(), paper13_encoding()]
        spam._shortest_path.cache_clear()
        spam._compile.cache_clear()
        for enc in encs * 2:
            errs = ErrorParams.uniform(enc, 0.01)
            for mode in spam.MODES:
                spam._outcome_matrix(enc, errs, mode, 0.0)
        searched = {(enc.states[0], state) for enc in encs for state in enc.states}
        assert spam._shortest_path.cache_info().misses == len(searched)
        # paper13 twice over is one content, so two compiles in all
        assert spam._compile.cache_info().misses == len({enc.name for enc in encs}) == 2

    def test_prepared_out_of_range(self):
        # a bool or a float is refused by name, not by a numpy indexing error
        enc = two_level()
        for prepared in (2, -1, True, 1.5):
            message = re.escape(f"prepared must be an index in [0, d) for d = 2, got {prepared!r}")
            with pytest.raises(ValueError, match=f"^{message}$"):
                enumerate_outcomes(enc, ErrorParams.zero(enc), prepared)

    def test_missing_transition_error(self):
        enc = two_level()
        with pytest.raises(MissingTransitionError):
            enumerate_outcomes(enc, ErrorParams(eps_pi={}), 1)


def fresh_matrix(enc, errs, mode, intervals):
    """The outcome matrix with every evaluator cache emptied first."""
    for cache in (spam._shortest_path, spam._compile, spam._forward):
        cache.cache_clear()
    return spam._outcome_matrix(enc, errs, mode, intervals)


class TestEvaluatorCaches:
    """The compiled plan and the matrix memo key on content: a call sees every
    change to the encoding or the error model, and equal content gives the
    matrix a fresh evaluation gives."""

    def evaluate(self, enc, errs, intervals):
        """Both modes through the caches, each equal to a fresh evaluation and
        within 1e-12 of the branch enumerator."""
        got = [spam._outcome_matrix(enc, errs, mode, intervals) for mode in spam.MODES]
        for mode, m in zip(spam.MODES, got):
            assert np.array_equal(m, fresh_matrix(enc, errs, mode, intervals)), mode
        assert_rows_match_oracle(enc, errs, intervals)
        return got

    def assert_sees_change(self, enc, errs, intervals, change):
        before = self.evaluate(enc, errs, intervals)
        change()
        after = self.evaluate(enc, errs, intervals)
        for old, new in zip(before, after):
            assert not np.array_equal(old, new)

    def case(self, seed, shelving=False):
        rng = np.random.default_rng(seed)
        enc = random_sub_encoding(rng, 5, shelving)
        return (enc, *random_errors(rng, enc))

    def test_sees_mutated_pulse_error(self):
        enc, errs, intervals = self.case(1)
        key = min(errs.eps_pi)
        self.assert_sees_change(enc, errs, intervals,
                                lambda: errs.eps_pi.update({key: errs.eps_pi[key] + 0.1}))

    def test_sees_mutated_leak(self):
        enc, errs, intervals = self.case(2)
        ((source, (spectator, p)),) = errs.leak.items()
        self.assert_sees_change(enc, errs, intervals,
                                lambda: errs.leak.update({source: (spectator, p + 0.3)}))

    def test_sees_mutated_decay_rate(self):
        enc, errs, intervals = self.case(3)
        self.assert_sees_change(enc, errs, intervals,
                                lambda: setattr(errs, "decay_rate", errs.decay_rate + 20.0))

    def test_sees_mutated_parking(self):
        ground = S(2, 2)
        enc = QuditEncoding("parked", (ground, S(2, 1), D(4, 4)), parking={S(2, 1): D(4, 3)})
        moved = D(3, 2)  # unencoded, |Delta m| = 1 from S(2, 1)
        eps = {(ground, D(4, 4)): 0.02, (S(2, 1), D(4, 3)): 0.1, (S(2, 1), moved): 0.3}
        for path in build_measurement_sequence(enc).prep_paths:
            eps.update({pulse.key: 0.05 for pulse in path})
        errs = ErrorParams(eps_pi=eps, p_dark_given_s=0.01, p_bright_given_d=0.02)
        self.assert_sees_change(enc, errs, 0.0, lambda: enc.parking.update({S(2, 1): moved}))

    def test_sees_mutated_deshelve_target(self):
        ground = S(2, 2)
        enc = QuditEncoding("targets", (ground, S(2, 1), D(2, 1)), parking={S(2, 1): D(4, 3)},
                            deshelve_targets={D(2, 1): ground})
        eps = {(ground, D(2, 1)): 0.02, (S(2, 1), D(4, 3)): 0.1, (S(2, 1), D(2, 1)): 0.3}
        for path in build_measurement_sequence(enc).prep_paths:
            eps.update({pulse.key: 0.05 for pulse in path})
        errs = ErrorParams(eps_pi=eps, p_dark_given_s=0.01, p_bright_given_d=0.02)
        self.assert_sees_change(enc, errs, 0.0,
                                lambda: enc.deshelve_targets.update({D(2, 1): S(2, 1)}))

    # the matrices entry by entry, for either sign of a zero pulse error; the
    # first-bright pins are the block-tensor pass's, kept bit for bit
    SIGNED_ZERO_REPRS = {
        "first-bright": [
            ["0.9899999999999999", "0.002982983012142557", "0.0004113657134731767",
             "0.0066056512743842746"],
            ["0.284325", "0.5373220795505281", "0.01038660067029885", "0.1679663197791729"],
            ["0.0491", "0.03756744691996046", "0.904199227549239", "0.009133325530800401"],
        ],
        "strict-single-bright": [
            ["0.6539594761640426", "0.0024001625562324325", "0.0004113657134731767",
             "0.3432289955662518"],
            ["0.1668862778565326", "0.5025726463448166", "0.01038660067029885",
             "0.3201544751283519"],
            ["0.00018936378634286534", "0.00037567446919960495", "0.904199227549239",
             "0.09523573419521839"],
        ],
    }
    # the strict pins of the block-tensor pass, which the backward pass
    # reproduces up to rounding
    BLOCK_TENSOR_STRICT_REPRS = [
        ["0.6539594761640424", "0.0024001625562324325", "0.0004113657134731767",
         "0.34322899556625175"],
        ["0.1668862778565326", "0.5025726463448165", "0.01038660067029885",
         "0.3201544751283518"],
        ["0.00018936378634286537", "0.00037567446919960495", "0.904199227549239",
         "0.09523573419521839"],
    ]

    def test_strict_pins_within_rounding_of_block_tensor_pins(self):
        new = np.array(self.SIGNED_ZERO_REPRS["strict-single-bright"], dtype=float)
        old = np.array(self.BLOCK_TENSOR_STRICT_REPRS, dtype=float)
        assert np.abs(new - old).max() <= 1e-14

    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero_errors_are_distinct_keys(self, first, second):
        enc = QuditEncoding("three", paper13_encoding().states[:3])
        keys = sorted(build_measurement_sequence(enc).pulse_keys())

        def errors(zero):
            return ErrorParams(eps_pi={keys[0]: zero, keys[1]: 0.25}, prep_error=0.03,
                               p_dark_given_s=0.01, p_bright_given_d=0.02, decay_rate=2.0)

        intervals = [0.0, 0.01, 0.02]
        for mode, want in self.SIGNED_ZERO_REPRS.items():
            fresh_matrix(enc, errors(first), mode, intervals)
            misses = spam._forward.cache_info().misses
            got = spam._outcome_matrix(enc, errors(second), mode, intervals)
            assert spam._forward.cache_info().misses == misses + 1
            assert [[repr(x) for x in row] for row in got.tolist()] == want

    def test_matrix_is_read_only(self):
        enc, errs, intervals = self.case(4, shelving=True)
        for mode in spam.MODES:
            m = spam._outcome_matrix(enc, errs, mode, intervals)
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 0.5
            assert spam._outcome_matrix(enc, errs, mode, intervals) is m

    def test_missing_transition_raises_on_every_call(self):
        enc, errs, intervals = self.case(5)
        spam._outcome_matrix(enc, errs, "first-bright", intervals)
        del errs.eps_pi[max(errs.eps_pi)]
        for _ in range(2):
            with pytest.raises(MissingTransitionError):
                spam._outcome_matrix(enc, errs, "first-bright", intervals)

    def test_memo_counts_one_miss_per_decay_rate_and_intervals(self):
        enc, errs, intervals = self.case(6)
        spam._forward.cache_clear()

        def misses_after(intervals, calls=3):
            for _ in range(calls):
                spam._outcome_matrix(enc, errs, "first-bright", intervals)
            return spam._forward.cache_info().misses

        # a list, a tuple and an array of the same numbers are one key
        assert misses_after(intervals) == 1
        assert misses_after(tuple(intervals)) == misses_after(np.array(intervals)) == 1
        errs.decay_rate += 1.0
        assert misses_after(intervals) == 2
        changed = list(intervals)
        changed[-1] += 0.01
        assert misses_after(changed) == 3
        assert spam._forward.cache_info().currsize == 3

        n = len(intervals)
        faults = [(intervals[:-1], f"^need {n} check intervals, got {n - 1}$"),
                  ([*intervals[:-1], math.nan], "^check intervals must be finite and nonnegative")]
        for bad, message in faults:
            for _ in range(2):
                with pytest.raises(ValueError, match=message):
                    spam._outcome_matrix(enc, errs, "first-bright", bad)
        assert spam._forward.cache_info().currsize == 3

    def test_bad_intervals_are_named_before_a_missing_transition(self):
        enc, errs, intervals = self.case(7)
        del errs.eps_pi[max(errs.eps_pi)]
        for bad in (intervals[:-1], -1.0):
            with pytest.raises(ValueError, match="intervals"):
                spam._outcome_matrix(enc, errs, "first-bright", bad)

    def test_plan_error_raises_on_every_call_naming_the_encoding(self):
        ground = paper13_encoding().states[0]
        first, second = (QuditEncoding(name, (ground, D(5, 3))) for name in ("first", "second"))
        for enc in (first, first, second, second):
            with pytest.raises(PlanError, match=f"^{enc.name}: "):
                spam._outcome_matrix(enc, ErrorParams(), "first-bright", 0.0)


# hashes seeded exact matrices: paper13, full25 and full25 sub-encodings, both
# modes, with decay, read flips and a leak in or outside the plan; then the
# key order of ErrorParams.uniform for paper13 and full25
HASH_SEED_PROBE = """
import hashlib
import numpy as np
from ba137qudit import spam
from test_spam import leak_outside_plan, random_errors, random_sub_encoding

rng = np.random.default_rng(16)
encs = [spam.paper13_encoding(), spam.twenty_five_level_encoding()] * 3
encs += [random_sub_encoding(rng, d, True) for d in range(3, 9)]
digest = hashlib.sha256()
for enc in encs:
    for outside in (False, True):
        errs, intervals = random_errors(rng, enc)
        if outside:
            leak_outside_plan(rng, errs)
        for mode in spam.MODES:
            digest.update(spam._outcome_matrix(enc, errs, mode, intervals).tobytes())
for enc in (spam.paper13_encoding(), spam.twenty_five_level_encoding()):
    keys = spam.ErrorParams.uniform(enc, 0.01).eps_pi
    digest.update(" ".join(map(spam._pair_key, keys)).encode())
print(digest.hexdigest())
"""


def test_matrices_do_not_depend_on_the_hash_seed():
    """String hashes change from process to process; no matrix may follow
    them through a set or dict order."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here),
                                         os.environ.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen([sys.executable, "-c", HASH_SEED_PROBE], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True,
                         env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)})
        for seed in range(4)
    ]
    digests = set()
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        digests.add(out.strip())
    assert len(digests) == 1, digests


class TestPrepPathSearch:
    """The memoised shortest-path search against an exhaustive walk."""

    @pytest.mark.parametrize("start", ALL_S_STATES, ids=str)
    def test_paths_are_valid_minimal_and_cache_independent(self, start):
        for target in ALL_S_STATES + ALL_D_STATES:
            path = spam._shortest_path(start, target)
            want = oracle_prep_path(start, target)
            assert want is not None and len(path) == len(want), (start, target)
            here = start
            for pulse in path:
                assert here in pulse.key, (start, target, path)
                assert abs(pulse.s_state.m.twice - pulse.d_state.m.twice) <= 4
                here = pulse.d_state if here == pulse.s_state else pulse.s_state
            assert here == target
            spam._shortest_path.cache_clear()
            assert spam._shortest_path(start, target) == path

    def test_plan_error_names_the_asking_encoding(self):
        ground = paper13_encoding().states[0]
        nowhere = D(5, 3)  # no 5D5/2 state has F~ = 5
        assert oracle_prep_path(ground, nowhere) is None
        first, second = (QuditEncoding(name, (ground, nowhere)) for name in ("first", "second"))
        spam._shortest_path.cache_clear()
        with pytest.raises(PlanError, match="^first: "):
            build_measurement_sequence(first)
        with pytest.raises(PlanError, match="^second: "):
            build_measurement_sequence(second)
        assert spam._shortest_path.cache_info().hits >= 1


class TestDecayValidation:
    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_decay_rate(self, rate):
        with pytest.raises(ValueError):
            ErrorParams(decay_rate=rate)

    @pytest.mark.parametrize("intervals", [
        -0.01, float("nan"), float("inf"), [0.0, -0.01], [0.0, float("nan")],
    ])
    def test_rejects_bad_intervals(self, intervals):
        enc = two_level()
        errs = ErrorParams.uniform(enc, 0.1, decay_rate=1.0)
        with pytest.raises(ValueError, match="intervals"):
            enumerate_outcomes(enc, errs, 1, intervals=intervals)
        with pytest.raises(ValueError, match="intervals"):
            run_experiment(enc, errs, 10, seed=1, intervals=intervals)


def assert_rows_match_oracle(enc, errs, intervals=0.0):
    """Every row of the evaluator's matrix, in both modes, sums to 1 and
    matches the branch enumerator within 1e-12."""
    for mode in spam.MODES:
        m = spam._outcome_matrix(enc, errs, mode, intervals)
        assert np.max(np.abs(m.sum(axis=1) - 1.0)) <= 1e-12
        for prepared, row in enumerate(m):
            want = oracle_enumerate_outcomes(enc, errs, prepared, mode, intervals)
            for k, p in enumerate(row):
                assert p == pytest.approx(
                    want.get(None if k == enc.d else k, 0.0), abs=1e-12
                ), (enc.states, mode, prepared, k)


class TestLeakOutsidePlan:
    def case(self, leak_p):
        """paper13's |0>, |1>, |5>, |9>, the first plan pulse leaking to
        S:F2:m1 <-> D:F3:m1, a pair no plan pulse touches."""
        enc13 = paper13_encoding()
        enc = QuditEncoding("sub13", tuple(enc13.states[i] for i in (0, 1, 5, 9)))
        plan = build_measurement_sequence(enc)
        spectator = (S(2, 1), D(3, 1))
        assert not set(spectator) & {st for key in plan.pulse_keys() for st in key}
        errs = ErrorParams.uniform(enc, 0.02)
        first = next(s.key for s in plan.steps if isinstance(s, PulseStep))
        eps = {**errs.eps_pi, spectator: 0.03}
        return enc, ErrorParams(eps_pi=eps, leak={first: (spectator, leak_p)}), errs

    def test_matches_oracle(self):
        enc, errs, _ = self.case(0.1)
        assert_rows_match_oracle(enc, errs)

    def test_zero_probability_leak_is_ignored(self):
        enc, errs, no_leak = self.case(0.0)
        for mode in spam.MODES:
            assert np.array_equal(
                spam._outcome_matrix(enc, errs, mode, 0.0),
                spam._outcome_matrix(enc, no_leak, mode, 0.0),
            )


@st.composite
def spam_cases(draw):
    """A paper13 sub-encoding of d <= 6 states with eps on every plan pulse,
    an optional leak to a pair in or out of the plan, read flips, decay and
    per-check intervals."""
    enc13 = paper13_encoding()
    d = draw(st.integers(2, 6))
    picks = draw(st.lists(st.integers(1, 12), min_size=d - 1, max_size=d - 1, unique=True))
    enc = QuditEncoding("sub13", (enc13.states[0],) + tuple(enc13.states[i] for i in picks))
    plan = build_measurement_sequence(enc)
    prob = st.floats(0.0, 0.3)
    eps = {key: draw(prob) for key in sorted(plan.pulse_keys())}
    pulses = [s.key for s in plan.steps if isinstance(s, PulseStep)]
    leak = {}
    if pulses and draw(st.booleans()):
        source = draw(st.sampled_from(pulses))
        in_plan = [key for key in sorted(plan.pulse_keys()) if key != source]
        anywhere = [(s, d) for s in ALL_S_STATES for d in ALL_D_STATES if (s, d) != source]
        spectator = draw(st.sampled_from(in_plan if in_plan and draw(st.booleans()) else anywhere))
        eps.setdefault(spectator, draw(prob))
        leak = {source: (spectator, draw(prob))}
    errs = ErrorParams(
        eps_pi=eps,
        prep_error=draw(st.floats(0.0, 0.05)),
        p_dark_given_s=draw(st.floats(0.0, 0.05)),
        p_bright_given_d=draw(st.floats(0.0, 0.05)),
        decay_rate=draw(st.floats(0.0, 5.0)),
        leak=leak,
    )
    intervals = draw(st.lists(
        st.floats(0.0, 0.05), min_size=plan.n_checks, max_size=plan.n_checks
    ))
    return enc, errs, intervals


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(spam_cases())
def test_evaluator_matches_oracle_property(case):
    assert_rows_match_oracle(*case)
    assert_matches_block_tensor_pass(*case)


class TestErrorParamsJson:
    def test_round_trip(self, tmp_path):
        enc = paper13_encoding()
        key = next(iter(sorted(build_measurement_sequence(enc).pulse_keys())))
        errs = dataclasses.replace(
            error_params_from_reference(), prep_error=0.01, p_dark_given_s=0.02, p_bright_given_d=0.003, decay_rate=0.5,
            leak={key: ((S(2, 1), D(3, 1)), 0.1)},
        )
        error_params_to_json(tmp_path / "errors.json", errs)
        back = error_params_from_json(tmp_path / "errors.json")
        assert back.eps_pi == errs.eps_pi
        assert back.leak == errs.leak
        for name in ("prep_error", "p_dark_given_s", "p_bright_given_d", "decay_rate"):
            assert getattr(back, name) == getattr(errs, name)

    @pytest.mark.parametrize("text, message", [
        ('{"prep_error": "x"}', "prep_error: expected a number"),
        ('{"prep_error": true}', "prep_error: expected a number, got True"),
        ("[1, 2]", r"document: expected an object, got \[1, 2\]"),
        ("{bad", "document"),
        ('{"leak": {"S:F2:m2->D:F4:m4": {"probability": 0.1}}}',
         "leak S:F2:m2->D:F4:m4: missing key 'spectator'"),
        ('{"prep_eror": 0.5}', "prep_eror: unknown key"),
        ('{"eps_pi": {"S:F2:m2": 0.1}}', "eps_pi S:F2:m2: cannot parse"),
        ('{"decay_rate": -1}', "decay_rate"),
    ])
    def test_malformed_file_names_file_and_key(self, tmp_path, text, message):
        path = tmp_path / "errors.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as exc:
            error_params_from_json(path)
        assert str(path) in str(exc.value)
