import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisespec import (ContinuousModulation, GridRangeError, ModulationSet,
                       PulseSequence, as_sequence, eval_continuous,
                       eval_modulation, fo_sequence, repair_switch_times,
                       staircase_split, to_step_function)
from noisespec.modulation import sequence_from_csv, sequence_to_csv


class TestSequences:
    def test_fo_first_filter_has_no_pulses(self):
        assert fo_sequence(1, 20, 11.5, 5.0).n_switches == 0

    def test_fo_second_filter_single_zero(self):
        seq = fo_sequence(2, 20, 11.5, 5.0)
        # cos(0.575 t) = 0 at t = pi / (2 * 0.575); the next zero exceeds T
        np.testing.assert_allclose(seq.switch_times, [2.7318196987737085])

    def test_fo_vanishing_duration(self):
        assert fo_sequence(3, 20, 11.5, 1e-9).n_switches == 0

    def test_as_first_filter_zeros(self):
        seq = as_sequence(1, 20, 10.0, 25.0)
        np.testing.assert_allclose(
            seq.switch_times, [2 * math.pi, 4 * math.pi, 6 * math.pi])

    def test_as_highest_filter_spacing(self):
        seq = as_sequence(20, 20, 10.0, 25.0)
        np.testing.assert_allclose(np.diff(seq.switch_times), math.pi / 10.0)

    def test_as_no_interior_zero(self):
        # omega'' * T < pi leaves no pulse
        assert as_sequence(1, 20, 10.0, 0.3).n_switches == 0

    def test_switch_times_must_increase(self):
        with pytest.raises(ValueError):
            PulseSequence(np.array([1.0, 1.0]), 2.0)
        with pytest.raises(ValueError):
            PulseSequence(np.array([0.0]), 2.0)


class TestStaircase:
    def test_single_qubit_is_sign_of_cosine(self):
        mset = staircase_split(1.0, 1, 5.0)
        np.testing.assert_allclose(mset.sequences[0].switch_times,
                                   [math.pi / 2, 3 * math.pi / 2])

    def test_single_qubit_matches_fo_sequence_exactly(self):
        for k in (2, 5, 11, 20):
            rate = 11.5 * (k - 1) / 20
            mset = staircase_split(rate, 1, 5.0)
            seq = fo_sequence(k, 20, 11.5, 5.0)
            assert np.array_equal(mset.sequences[0].switch_times,
                                  seq.switch_times)

    def test_two_qubit_levels(self):
        mset = staircase_split(1.3, 2, 8.0)
        t = np.linspace(0.0, 8.0, 4001)
        levels = eval_modulation(mset, t)
        assert set(np.unique(levels)) <= {-2.0, 0.0, 2.0}

    def test_four_qubit_quantizer_error(self):
        mset = staircase_split(1.0, 4, 6.0)
        t = np.linspace(0.0, 6.0, 6001)
        y = eval_modulation(mset, t)
        assert set(np.unique(y)) <= {-4.0, -2.0, 0.0, 2.0, 4.0}
        # nearest-level quantization of 4 cos(t): off by at most the half
        # step except exactly at crossings
        target = 4 * np.cos(t)
        err = np.abs(y - target)
        assert np.percentile(err, 99) <= 1.0 + 1e-6

    def test_zero_frequency_constant_level(self):
        mset = staircase_split(0.0, 3, 5.0)
        assert all(s.n_switches == 0 for s in mset.sequences)
        assert eval_modulation(mset, 2.5) == pytest.approx(3.0)


class TestEvaluation:
    def test_empty_sequence_constant(self):
        seq = PulseSequence(np.array([]), 4.0)
        assert eval_modulation(seq, 0.0) == 1.0
        assert eval_modulation(seq, 4.0) == 1.0

    def test_right_continuity_at_switch(self):
        seq = PulseSequence(np.array([1.0]), 2.0)
        assert eval_modulation(seq, 1.0 - 1e-12) == 1.0
        assert eval_modulation(seq, 1.0) == -1.0

    def test_outside_range_raises(self):
        seq = PulseSequence(np.array([1.0]), 2.0)
        with pytest.raises(GridRangeError):
            eval_modulation(seq, 2.5)
        with pytest.raises(GridRangeError):
            eval_modulation(seq, -0.1)

    def test_identical_sequences_add(self):
        seq = fo_sequence(4, 20, 11.5, 5.0)
        trio = ModulationSet((seq, seq, seq))
        t = np.linspace(0, 5, 101)
        np.testing.assert_allclose(eval_modulation(trio, t),
                                   3 * eval_modulation(seq, t))

    @given(st.lists(st.floats(min_value=0.01, max_value=4.99),
                    min_size=0, max_size=15, unique=True))
    @example(times=[4.99, 4.989999999999999])
    @settings(max_examples=60, deadline=None)
    def test_sign_changes_equal_switch_count(self, times):
        seq = PulseSequence(np.sort(np.asarray(times)), 5.0)
        # y is right-continuous, so a probe at each switch time sees the new
        # level even when two switches are 1 ulp apart
        t = np.sort(np.concatenate([np.linspace(0, 5, 501), seq.switch_times]))
        y = eval_modulation(seq, t)
        flips = np.count_nonzero(np.diff(np.sign(y)))
        assert flips == seq.n_switches


class TestContinuous:
    def test_zero_coefficients(self):
        mod = ContinuousModulation(duration=3.0)
        y, z = eval_continuous(mod, np.linspace(0, 3, 7))
        np.testing.assert_allclose(y, 1.0)
        np.testing.assert_allclose(z, 0.0)

    def test_constant_pi_phase(self):
        mod = ContinuousModulation(duration=3.0, terms=((0.0, math.pi, 0.0),))
        y, z = eval_continuous(mod, 1.5)
        assert y == pytest.approx(-1.0)
        assert z == pytest.approx(0.0, abs=1e-12)

    @given(st.lists(st.tuples(st.floats(0.1, 8.0), st.floats(-2, 2),
                              st.floats(-2, 2)), min_size=0, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_unit_circle(self, terms):
        mod = ContinuousModulation(duration=5.0, linear_rate=1.3,
                                   terms=tuple(terms))
        t = np.linspace(0, 5, 97)
        y, z = eval_continuous(mod, t)
        assert np.max(np.abs(y ** 2 + z ** 2 - 1.0)) < 1e-12


class TestStepFunction:
    def test_merged_levels(self):
        a = PulseSequence(np.array([1.0, 3.0]), 4.0)
        b = PulseSequence(np.array([2.0]), 4.0)
        bounds, values = to_step_function(ModulationSet((a, b)))
        np.testing.assert_allclose(bounds, [0, 1, 2, 3, 4])
        np.testing.assert_allclose(values, [2, 0, -2, 0])

    def test_repair_cancels_duplicates(self):
        times = repair_switch_times([2.0, 1.0, 1.0, 3.0], 5.0)
        np.testing.assert_allclose(times, [2.0, 3.0])

    def test_repair_clips_into_open_interval(self):
        times = repair_switch_times([-1.0, 2.0, 9.0], 5.0)
        assert times[0] > 0 and times[-1] < 5.0
        assert times.size == 3


def test_sequence_csv_round_trip(tmp_path):
    seq = fo_sequence(5, 20, 11.5, 5.0)
    path = tmp_path / "seq.csv"
    sequence_to_csv(seq, path)
    back = sequence_from_csv(path)
    assert back.duration == seq.duration
    assert back.initial_sign == seq.initial_sign
    np.testing.assert_allclose(back.switch_times, seq.switch_times)
