import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisespec import (ContinuousModulation, GridRangeError, ModulationSet, NoiseSpecError,
                       NonFiniteInputError, OutOfRangeError, PulseSequence, as_sequence,
                       eval_continuous, eval_modulation, fo_sequence,
                       staircase_split, to_step_function)
from noisespec.modulation import merge_trains, repair_trains


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

    def test_switch_times_are_a_read_only_copy(self):
        # the caller's array stays its own: writing into it afterwards
        # leaves the validated train as it was
        times = np.array([1.0, 2.0, 3.0])
        seq = PulseSequence(times, 5.0)
        times[:] = [4.0, 2.0, 9.0]
        assert seq.switch_times.tolist() == [1.0, 2.0, 3.0]
        assert not seq.switch_times.flags.writeable
        with pytest.raises(ValueError):
            seq.switch_times[0] = 4.0

    def test_trains_built_once_read_only(self):
        mset = ModulationSet((PulseSequence([1.0, 3.0], 4.0), PulseSequence([2.0], 4.0, -1)))
        first, again = mset.trains(), mset.trains()
        assert all(a is b for a, b in zip(first, again, strict=True))
        assert all(not arr.flags.writeable for arr in first)
        times, qubits, signs = first
        assert times.tolist() == [1.0, 3.0, 2.0]
        assert qubits.tolist() == [0, 0, 1] and signs.tolist() == [1, -1]

    def test_read_only_through_pickle(self):
        # pickle rebuilds arrays writeable; a set pickled after its trains
        # were built carries them, and both come back read-only
        mset = ModulationSet((PulseSequence([1.0, 3.0], 4.0), PulseSequence([2.0], 4.0, -1)))
        built = mset.trains()
        back = pickle.loads(pickle.dumps(mset))
        assert "_trains" in vars(back)
        for arr, orig in zip(back.trains(), built, strict=True):
            assert not arr.flags.writeable and arr.tobytes() == orig.tobytes()
        for seq, orig in zip(back.sequences, mset.sequences, strict=True):
            assert not seq.switch_times.flags.writeable
            assert seq.switch_times.tobytes() == orig.switch_times.tobytes()
        with pytest.raises(ValueError):
            back.sequences[0].switch_times[0] = 0.5

    @pytest.mark.parametrize("times, duration, field", [
        (np.array([]), math.nan, "duration"),
        ([1.0], math.inf, "duration"),
        ([math.nan], 5.0, "switch_times"),
        ([1.0, -math.inf, 2.0], 5.0, "switch_times"),
    ])
    def test_non_finite_input_named(self, times, duration, field):
        with pytest.raises(NonFiniteInputError, match=f"^{field} must be finite"):
            PulseSequence(times, duration)


@pytest.mark.parametrize("call, message", [
    (lambda: PulseSequence([1.0], 0.0), "duration must be > 0, got 0.0"),
    (lambda: PulseSequence([1.0], 2.0, 0), r"initial_sign must be \+1 or -1"),
    (lambda: PulseSequence([1.0, 1.0], 2.0), "switch times must be strictly increasing"),
    (lambda: PulseSequence([2.0], 2.0), r"switch times must lie strictly inside \(0, T\)"),
    (lambda: ModulationSet(()), "need at least one sequence"),
    (lambda: ModulationSet((PulseSequence([], 1.0), PulseSequence([], 2.0))),
     "all sequences must share the same duration"),
    (lambda: ContinuousModulation(-1.0), "duration must be > 0, got -1.0"),
    (lambda: fo_sequence(0, 5, 10.0, 1.0), "k must be in 1..5, got 0"),
    (lambda: as_sequence(1, 5, 10.0, 0.0), "omega_max and duration must be > 0"),
    (lambda: staircase_split(1.0, 0, 5.0), "n_qubits must be >= 1, got 0"),
    (lambda: staircase_split(1.0, 2, -5.0), "duration must be > 0"),
    (lambda: staircase_split(-1.0, 2, 5.0), "target_frequency must be >= 0")],
    ids=["pulse-duration", "pulse-sign", "pulse-order", "pulse-inside", "set-empty",
         "set-durations", "continuous-duration", "zero-train-k", "zero-train-range",
         "staircase-qubits", "staircase-duration", "staircase-frequency"])
def test_out_of_range_refused(call, message):
    # before, each of these raised a bare ValueError, not a NoiseSpecError
    with pytest.raises(OutOfRangeError, match=f"^{message}$") as info:
        call()
    assert isinstance(info.value, NoiseSpecError) and isinstance(info.value, ValueError)


class TestStaircase:
    def test_single_qubit_is_sign_of_cosine(self):
        mset = staircase_split(1.0, 1, 5.0)
        np.testing.assert_allclose(mset.sequences[0].switch_times,
                                   [math.pi / 2, 3 * math.pi / 2])

    def test_single_qubit_matches_fo_sequence_exactly(self):
        """Every one-qubit fo train, the tracking blocks' (K = 10 and 6 at
        omega_max = 11.5) included, is the staircase split of its
        frequency, switch times bit for bit."""
        for K in (1, 6, 10, 20, 33):
            for omega_max in (1.0, 7.3, 11.5, 23.0):
                for T in (0.5, 2.0, 5.0, 7.3, 10.0):
                    for k in range(1, K + 1):
                        train, = staircase_split(omega_max * (k - 1) / K, 1, T).sequences
                        seq = fo_sequence(k, K, omega_max, T)
                        assert train.switch_times.tobytes() == seq.switch_times.tobytes()
                        assert train.initial_sign == seq.initial_sign

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

    def test_coincident_switches_share_one_boundary(self):
        # qubits 0 and 1 both switch at 1.5: one boundary carries both jumps,
        # byte-equal to boundaries taken from np.unique
        times = np.array([1.5, 3.0, 0.5, 1.5, 2.25])
        qubits = np.array([0, 0, 1, 1, 1])
        signs = np.array([1.0, -1.0])
        bounds, values = merge_trains(times, qubits, signs, 4.0)
        uniq = np.unique(np.concatenate(([0.0, 4.0], times)))
        assert bounds.tobytes() == uniq.tobytes()
        assert bounds.tolist() == [0.0, 0.5, 1.5, 2.25, 3.0, 4.0]
        # qubit 0: +1 -> -1 at 1.5 -> +1 at 3; qubit 1: -1 -> +1 at 0.5 -> -1 at 1.5 -> +1
        assert values.tolist() == [0.0, 2.0, -2.0, 0.0, 2.0]

    def test_repair_cancels_duplicates(self):
        times = repair_trains([2.0, 1.0, 1.0, 3.0], np.zeros(4, dtype=int), 5.0)[0]
        np.testing.assert_allclose(times, [2.0, 3.0])

    def test_repair_clips_into_open_interval(self):
        times = repair_trains([-1.0, 2.0, 9.0], np.zeros(3, dtype=int), 5.0)[0]
        assert times[0] > 0 and times[-1] < 5.0
        assert times.size == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_repair_refuses_non_finite_times(self, bad):
        with pytest.raises(NonFiniteInputError, match="^switch_times must be finite"):
            repair_trains([1.0, bad], np.zeros(2, dtype=int), 5.0)
        with pytest.raises(NonFiniteInputError, match="^switch_times must be finite"):
            repair_trains(np.array([1.0, 2.0, bad]), np.array([0, 1, 1]), 5.0)

    @given(st.lists(st.sampled_from([-0.5, 0.0, 1e-13, 0.7, 1.25, 2.5, 4.9, 5.0, 6.0])
                    | st.floats(-1.0, 6.0), max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_repair_matches_unique_counts(self, times):
        # the repair as a clip, a sort and np.unique's counts, bit for bit
        T = 5.0
        t = np.sort(np.clip(np.asarray(times, dtype=float), 1e-12 * T, T - 1e-12 * T))
        uniq, counts = np.unique(t, return_counts=True)
        repaired = repair_trains(times, np.zeros(len(times), dtype=int), T)[0]
        assert repaired.tobytes() == uniq[counts % 2 == 1].tobytes()

    @given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from([0.5, 1.0, 2.5, 3.75])
                              | st.floats(0.01, 4.99)), max_size=20),
           st.lists(st.sampled_from([-1, 1]), min_size=5, max_size=5))
    # two switches 1 ulp apart: a segment midpoint rounds onto its end
    @example(switches=[(0, 0.010000000000000002), (0, 0.01)], signs=[-1] * 5)
    @settings(max_examples=80, deadline=None)
    def test_merged_levels_match_per_train_sums(self, switches, signs):
        # the merge against each train's level summed at the left end of
        # every segment (y is right-continuous), bit for bit; shared times
        # across trains merge into one boundary
        T = 4.0
        n_q = 1 + max((q for q, _ in switches), default=0)
        trains = [[t for q, t in switches if q == j] for j in range(n_q)]
        seqs = tuple(PulseSequence(repair_trains(times, np.zeros(len(times), dtype=int), T)[0],
                                   T, sign) for times, sign in zip(trains, signs))
        bounds, values = to_step_function(ModulationSet(seqs))
        cuts = np.unique(np.concatenate([[0.0, T]] + [s.switch_times for s in seqs]))
        levels = np.zeros(cuts.size - 1)
        for seq in seqs:
            flips = np.searchsorted(seq.switch_times, cuts[:-1], side="right")
            levels += seq.initial_sign * (-1.0) ** flips
        assert bounds.tobytes() == cuts.tobytes()
        assert values.tobytes() == levels.tobytes()
        # a lone train is the one-train set: [0, t_1, ..., T] and sign * (-1)**j
        for seq in seqs:
            bounds, values = to_step_function(seq)
            assert bounds.tobytes() == np.concatenate([[0.0], seq.switch_times, [T]]).tobytes()
            assert values.tobytes() == (seq.initial_sign
                                        * (-1.0) ** np.arange(seq.n_switches + 1)).tobytes()
