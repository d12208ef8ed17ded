import dataclasses
import math

import numpy as np
import pytest

from noisespec import (CalibrationError, GridRangeError, ModulationSet, NoiseSpecError,
                       NonFiniteInputError, SpectralDensity, UndefinedObjectiveError,
                       staircase_split, xi_normalized)
from noisespec import filterfn, ocf
from noisespec.filterfn import (FilterFunction, FrequencyGrid, continuous_norm,
                                filter_function, filter_values)
from noisespec.modulation import ContinuousModulation, PulseSequence, repair_trains
from noisespec.ocf import (OcfProblem, _continuous_search, _discrete_search, _inner_search,
                           _Objective, _solve, _warper, OcfSolution, ocf_grid,
                           optimize_continuous, optimize_discrete)
from noisespec.seeding import derive_seed

LORENTZIAN = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0)])


def banded(grid, values, omega_c=10.0):
    """Samples with no weight beyond ``omega_c`` once linearly interpolated.

    ``omega_c`` is a node of the grid, so the sample there is zeroed too;
    keeping it would leave the interpolant nonzero on the next half cell.
    """
    vals = np.array(values, dtype=float)
    vals[grid.omegas >= omega_c] = 0.0
    return vals


class TestObjective:
    def test_aligned_filter_reaches_unity(self):
        grid = ocf_grid(10.0)
        svals = banded(grid, LORENTZIAN.evaluate(grid.omegas))
        spec = SpectralDensity.from_grid(grid.omegas, svals)
        filt = FilterFunction(grid=grid, values=3.7 * svals, generator=None,
                              operation_time=5.0)
        assert xi_normalized(filt, spec, 10.0) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_filter_zero(self):
        grid = FrequencyGrid(30.0, 3001)
        svals = np.where(grid.omegas < 5.0, 1.0, 0.0)
        fvals = np.where((grid.omegas > 5.0) & (grid.omegas < 10.0), 1.0, 0.0)
        spec = SpectralDensity.from_grid(grid.omegas, svals)
        filt = FilterFunction(grid=grid, values=fvals, generator=None,
                              operation_time=5.0)
        assert xi_normalized(filt, spec, 10.0) == pytest.approx(0.0, abs=1e-9)

    def test_zero_filter_rejected(self):
        grid = FrequencyGrid(30.0, 301)
        filt = FilterFunction(grid=grid, values=np.zeros(grid.size),
                              generator=None, operation_time=5.0)
        with pytest.raises(UndefinedObjectiveError):
            xi_normalized(filt, LORENTZIAN, 10.0)

    @pytest.mark.parametrize("call", [
        lambda zero: xi_normalized(staircase_split(2.0, 1, 5.0), zero, 10.0),
        lambda zero: optimize_discrete(OcfProblem(spectrum=zero, duration=5.0, n_qubits=1,
                                                  superiterations=1, seed=5))],
        ids=["xi-normalized", "optimize-discrete"])
    def test_zero_in_band_spectrum_refused(self, call):
        zero = SpectralDensity.lorentzian_mixture([(0.0, 2.0, 1.0)])
        with pytest.raises(CalibrationError, match="vanishes"):
            call(zero)

    def test_cauchy_schwarz_ceiling(self):
        grid = ocf_grid(10.0)
        svals = banded(grid, LORENTZIAN.evaluate(grid.omegas))
        spec = SpectralDensity.from_grid(grid.omegas, svals)
        rng = np.random.default_rng(3)
        for trial in range(100):
            times = np.sort(rng.uniform(0.1, 4.9, rng.integers(0, 9)))
            mod = PulseSequence(np.unique(times), 5.0)
            val = xi_normalized(mod, spec, 10.0, grid=grid)
            assert val <= 1.0 + 1e-6

    def test_alignment_residual_identity(self):
        # for unit vectors, ||f - s||^2 = 2 (1 - <f, s>) exactly
        grid = ocf_grid(10.0)
        svals = banded(grid, LORENTZIAN.evaluate(grid.omegas))
        spec = SpectralDensity.from_grid(grid.omegas, svals)
        from noisespec import filter_function
        mod = staircase_split(2.0, 2, 5.0)
        fid = xi_normalized(mod, spec, 10.0, grid=grid)
        filt_vals = filter_function(mod, grid).values
        f_hat = filt_vals / continuous_norm(filt_vals, 10.0, grid)
        s_hat = svals / continuous_norm(svals, 10.0, grid)
        resid = continuous_norm(f_hat - s_hat, 10.0, grid)
        # S vanishes beyond omega_c, so the full-range xi numerator equals the
        # band inner product and the identity holds to rounding
        assert resid == pytest.approx(math.sqrt(2 * (1 - fid)), abs=1e-12)


    def test_products_match_three_sums(self):
        """The objective's two dot products against the three ``np.sum``
        forms of each integral, on random pulse-train filters: within 32
        ulp relative to the terms' scale (3.1e-15 measured over 600)."""
        rng = np.random.default_rng(12)
        grid = ocf_grid(10.0)
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.4, 6.0, 0.5)])
        obj = _Objective(spec, grid, 10.0, 1.0)
        w_full, w_band = grid.trap_weights(), grid.trap_weights(10.0)
        tol = 32 * np.finfo(float).eps
        for _ in range(40):
            T = float(rng.uniform(0.5, 25.0))
            f = filter_values(_random_trains(rng, int(rng.integers(1, 7)), T), grid)
            norm = math.sqrt(float(np.sum(w_band * f ** 2)))
            xi = float(np.sum(w_full * spec.evaluate(grid.omegas) * f)) / norm
            out = float(np.sum((w_full - w_band) * f)) / norm
            penalized, normalized = obj.from_values(f)
            assert abs(penalized - (xi - obj.s_rms * out)) <= tol * (xi + obj.s_rms * out)
            assert abs(normalized - xi / obj.s_norm) <= tol * xi / obj.s_norm


class TestOptimizers:
    def test_zero_budget_returns_initial(self):
        prob = OcfProblem(spectrum=LORENTZIAN, duration=5.0, n_qubits=2,
                          superiterations=0, seed=5)
        sol = optimize_discrete(prob)
        init = staircase_split(2.0, 2, 5.0)
        assert len(sol.trace) == 1
        for got, want in zip(sol.modulation.sequences, init.sequences):
            # the movable boundary spare is the only addition
            np.testing.assert_allclose(got.switch_times[:want.n_switches],
                                       want.switch_times)

    def test_trace_monotone_and_deterministic(self):
        prob = OcfProblem(spectrum=LORENTZIAN, duration=4.0, n_qubits=1,
                          superiterations=4, inner_evals=25, seed=9)
        sol1 = optimize_discrete(prob)
        sol2 = optimize_discrete(prob)
        assert sol1.trace == sol2.trace
        assert all(b >= a - 1e-15 for a, b in zip(sol1.trace, sol1.trace[1:]))

    def test_first_superiteration_never_decreases(self):
        prob = OcfProblem(spectrum=LORENTZIAN, duration=4.0,
                          superiterations=1, inner_evals=20, seed=2)
        sol = optimize_continuous(prob)
        assert sol.trace[1] >= sol.trace[0]

    def test_continuous_beats_single_qubit(self):
        cont = optimize_continuous(OcfProblem(
            spectrum=LORENTZIAN, duration=5.0,
            superiterations=6, inner_evals=40, seed=3))
        disc = optimize_discrete(OcfProblem(
            spectrum=LORENTZIAN, duration=5.0, n_qubits=1,
            superiterations=6, inner_evals=40, seed=3))
        assert cont.normalized_fidelity > disc.normalized_fidelity

    def test_seed_changes_search(self):
        sols = [optimize_discrete(OcfProblem(
                    spectrum=LORENTZIAN, duration=5.0, n_qubits=1,
                    superiterations=2, inner_evals=15,
                    seed=derive_seed(1, r)))
                for r in range(2)]
        assert sols[0].trace != sols[1].trace

    @pytest.mark.parametrize("continuous", [False, True], ids=["discrete", "continuous"])
    def test_solution_filter_is_the_stored_filter(self, continuous):
        prob = OcfProblem(spectrum=LORENTZIAN, duration=5.0, n_qubits=2,
                          superiterations=2, inner_evals=10, seed=4)
        sol = (optimize_continuous if continuous else optimize_discrete)(prob)
        filt = sol.filter
        fresh = filter_function(sol.modulation, prob.grid)
        assert filt.values.tobytes() == fresh.values.tobytes()
        assert filt.grid is prob.grid and filt.generator is sol.modulation
        assert filt.operation_time == fresh.operation_time == 5.0
        assert not filt.values.flags.writeable

    @pytest.mark.parametrize("continuous", [False, True], ids=["discrete", "continuous"])
    def test_states_are_modulations_scored_once_each(self, monkeypatch, continuous):
        """A design scores its initial state and each superiteration's best
        candidate through ``filter_values`` and nothing else; a discrete
        design builds one ModulationSet for its spare-extended initial state
        and one per superiteration, however many candidates it scores."""
        scored, built = [], []
        monkeypatch.setattr(ocf, "filter_values",
                            lambda state, grid: scored.append(state) or filter_values(state, grid))
        monkeypatch.setattr(ocf, "ModulationSet",
                            lambda seqs: built.append(seqs) or ModulationSet(seqs))
        prob = OcfProblem(spectrum=LORENTZIAN, duration=5.0, n_qubits=3,
                          superiterations=5, inner_evals=25, seed=11)
        sol = (optimize_continuous if continuous else optimize_discrete)(prob)
        assert sol.evaluations == 1 + 5 * 26 and len(set(sol.trace)) > 1
        assert len(scored) == 5 + 1 and any(state is sol.modulation for state in scored)
        assert len(built) == (0 if continuous else 5 + 1)

    def test_solution_fields(self):
        assert [f.name for f in dataclasses.fields(OcfSolution)] == [
            "modulation", "normalized_fidelity", "evaluations", "trace", "filter"]

    def test_zero_budget_transforms_once(self, monkeypatch):
        # the initial state's evaluation is the accepted one: no re-transform
        calls = []
        kernel = filterfn._mirror_sums

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(filterfn, "_mirror_sums", counted)
        sol = optimize_continuous(OcfProblem(spectrum=LORENTZIAN, duration=5.0,
                                             superiterations=0, seed=4))
        assert len(calls) == 1 and sol.evaluations == 1
        assert sol.filter.values.tobytes() == filter_values(sol.modulation,
                                                            ocf_grid(10.0)).tobytes()

    def test_vanishing_candidate_never_accepted(self, monkeypatch):
        """A candidate whose filter vanishes on the band is undefined: the
        search sees +inf for it, it is never accepted, the trace keeps the
        initial objective, and every scoring counts as an evaluation."""
        searched = []
        inner = ocf._inner_search

        def recording(fun, *args, **kwargs):
            return inner(lambda x: searched.append(fun(x)) or searched[-1], *args, **kwargs)

        monkeypatch.setattr(ocf, "_inner_search", recording)
        prob = OcfProblem(spectrum=LORENTZIAN, duration=5.0, superiterations=3,
                          inner_evals=12, seed=4)
        initial = staircase_split(2.0, 1, 5.0)
        scored = []

        def values(state, grid):
            scored.append(state)
            return filter_values(initial, grid) if state is initial else np.zeros(grid.size)

        monkeypatch.setattr(ocf, "filter_values", values)
        sol = _solve(prob, initial, lambda state, s, freqs: (
            lambda x: values(("vanishing", s), prob.grid), lambda x: ("vanishing", s)))
        assert searched == [math.inf] * 3 * 12
        assert sol.modulation is initial
        assert math.isfinite(sol.trace[0]) and sol.trace == (sol.trace[0],) * 4
        assert sol.evaluations == len(scored) == 1 + 3 * (12 + 1)
        assert sol.normalized_fidelity == xi_normalized(initial, LORENTZIAN, 10.0,
                                                        grid=prob.grid)

    @pytest.mark.parametrize("field, value", [
        ("duration", math.nan), ("duration", math.inf), ("omega_c", math.nan),
        ("omega_c", math.inf), ("omega_c", 0.0), ("omega_c", -1.0),
        ("penalty_weight", math.inf), ("penalty_weight", math.nan),
        ("penalty_weight", -1.0)])
    def test_bad_problem_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            OcfProblem(spectrum=LORENTZIAN, grid=ocf_grid(10.0),
                       **{"duration": 5.0, field: value})

    @pytest.mark.parametrize("field, value", [
        ("superiterations", 1.5), ("superiterations", -1), ("n_qubits", 2.5),
        ("n_qubits", 0), ("n_qubits", True), ("inner_evals", 2.5), ("inner_evals", 0),
        ("basis_size", 1.5), ("basis_size", 0), ("seed", 0.5), ("seed", "1")])
    def test_bad_count_refused(self, field, value):
        # before, 1.5 superiterations or 2.5 qubits ended in a TypeError
        # inside the search, and 2.5 inner evaluations ran three
        with pytest.raises(NoiseSpecError, match=f"^{field} must be an integer") as info:
            OcfProblem(spectrum=LORENTZIAN, duration=5.0, **{field: value})
        assert isinstance(info.value, ValueError)

    def test_counts_of_any_integer_type(self):
        prob = OcfProblem(spectrum=LORENTZIAN, duration=5.0, n_qubits=np.int64(2),
                          superiterations=np.uint8(0), inner_evals=np.int32(3), seed=2 ** 64 - 1)
        assert optimize_discrete(prob).evaluations == 1

    @pytest.mark.parametrize("grid", [FrequencyGrid(9.0, 901), FrequencyGrid(10.0 - 1e-6, 11)])
    def test_grid_below_band_refused(self, grid):
        # before, the search refused it only when it started
        with pytest.raises(GridRangeError, match="^grid ends at") as info:
            OcfProblem(spectrum=LORENTZIAN, duration=5.0, grid=grid)
        assert isinstance(info.value, NoiseSpecError) and isinstance(info.value, ValueError)

    def test_two_worker_designs_read_only_like_serial(self):
        # a fork pool returns its designs pickled: their arrays come back
        # read-only and equal, as the serial twins hold them
        from noisespec.reconstruct import run_jobs

        def design(i):
            prob = OcfProblem(spectrum=LORENTZIAN, duration=5.0, n_qubits=2,
                              superiterations=2, inner_evals=8, seed=3)
            return (optimize_continuous if i == 0 else optimize_discrete)(prob)

        def arrays(sol):
            if isinstance(sol.modulation, ModulationSet):
                yield from sol.modulation.trains()
                yield from (seq.switch_times for seq in sol.modulation.sequences)
            yield sol.filter.values
            yield sol.filter.grid.omegas

        serial, pooled = run_jobs(design, 2, 1), run_jobs(design, 2, 2)
        for ours, twin in zip(pooled, serial, strict=True):
            assert ours.modulation is not twin.modulation
            pairs = list(zip(arrays(ours), arrays(twin), strict=True))
            assert len(pairs) == (2 if ours is pooled[0] else 3 + 2 + 2)
            for arr, ref in pairs:
                assert not arr.flags.writeable and not ref.flags.writeable
                assert arr.tobytes() == ref.tobytes()

    def test_grid_ending_at_band_edge_accepted(self):
        grid = FrequencyGrid(10.0, 1001)
        assert OcfProblem(spectrum=LORENTZIAN, duration=5.0, grid=grid).grid is grid


def _object_candidate(mset, target, freqs, x):
    """A search candidate built train by train: warp the times of qubit
    ``target`` (every qubit if None), repair each warped train and wrap it
    in a PulseSequence."""
    T = mset.duration
    amp = T / 12.0

    def warp(times):
        out = times.copy()
        for j, nu in enumerate(freqs):
            out = out + amp * x[2 * j] * np.sin(nu * times) \
                      + amp * x[2 * j + 1] * (1.0 - np.cos(nu * times))
        return out

    return ModulationSet(tuple(
        PulseSequence(repair_trains(warp(seq.switch_times),
                                    np.zeros(seq.switch_times.size, dtype=int), T)[0],
                      T, seq.initial_sign)
        if target is None or q == target else seq
        for q, seq in enumerate(mset.sequences)))


def _same_candidate(mset, target, freqs, x, grid):
    """Assert the array candidate equals the train-by-train one, bit for bit,
    in its filter values and in the switch times of its modulation; the
    train-by-train candidate."""
    done = _discrete_search(mset, target, freqs, grid)[1](np.asarray(x, dtype=float))
    ref = _object_candidate(mset, target, freqs, np.asarray(x, dtype=float))
    assert filter_values(done, grid).tobytes() == filter_values(ref, grid).tobytes()
    assert done.n_qubits == ref.n_qubits and done.duration == ref.duration
    for ours, theirs in zip(done.sequences, ref.sequences):
        assert ours.switch_times.tobytes() == theirs.switch_times.tobytes()
        assert ours.initial_sign == theirs.initial_sign
    return ref


def _random_trains(rng, n_q, T):
    """Trains with a few random times each, times shared across qubits, times
    near 0 and near T, and sometimes no switch at all."""
    shared = rng.uniform(0.0, T, 2)
    seqs = []
    for _ in range(n_q):
        pool = [rng.uniform(0.0, T, rng.integers(0, 5)),
                shared[rng.random(2) < 0.5],
                rng.uniform(0.0, 0.05 * T, rng.integers(0, 3)),
                T - rng.uniform(0.0, 0.05 * T, rng.integers(0, 3))]
        times = np.concatenate(pool)
        times = repair_trains(times, np.zeros(times.size, dtype=int), T)[0]
        seqs.append(PulseSequence(times, T, int(rng.choice([-1, 1]))))
    return ModulationSet(tuple(seqs))


class TestArrayCandidates:
    """The search's candidates, repaired as flat arrays, against candidates
    built train by train through PulseSequence and ModulationSet."""

    GRID = ocf_grid(10.0)

    @pytest.mark.parametrize("warp_all", [True, False], ids=["all", "one"])
    @pytest.mark.parametrize("n_q", range(1, 7))
    def test_random_candidates(self, n_q, warp_all):
        rng = np.random.default_rng(1000 * n_q + warp_all)
        for _ in range(12):
            T = float(rng.uniform(1.0, 10.0))
            mset = _random_trains(rng, n_q, T)
            target = None if warp_all else int(rng.integers(n_q))
            freqs = rng.uniform(0.0, 12.0, 3)
            # large coefficients fold times past 0 and past T
            x = rng.normal(0.0, rng.choice([0.3, 3.0, 30.0]), 6)
            _same_candidate(mset, target, freqs, x, self.GRID)

    @pytest.mark.parametrize("target", [None, 0])
    def test_coincident_flips_cancel_and_merge(self, target):
        T = 5.0
        mset = ModulationSet((
            PulseSequence([0.05, 0.1, 2.0, 4.6, 4.8], T),
            PulseSequence([2.0, 3.0], T, -1),
            PulseSequence([4.6, 4.8], T)))
        # a pulls 0.05, 0.1 and 2.0 below 0, b pushes 4.6 and 4.8 past T
        ref = _same_candidate(mset, target, [1.0], [-100.0, 10.0], self.GRID)
        eps = 1e-12 * T
        # three flips fold onto eps (one is left), two onto T - eps (none)
        assert ref.sequences[0].switch_times.tolist() == [eps]
        if target is None:
            # the second train shares eps with the first; the third is empty
            assert ref.sequences[1].switch_times.tolist() == [eps, T - eps]
            assert ref.sequences[2].n_switches == 0

    def test_empty_trains(self):
        mset = ModulationSet((PulseSequence([], 3.0), PulseSequence([1.0], 3.0)))
        for target in (None, 0, 1):
            _same_candidate(mset, target, [2.0, 5.0], [0.4, -0.2, 0.1, 0.3], self.GRID)

    def test_non_finite_warp_refused_before_scoring(self, monkeypatch):
        prob = OcfProblem(spectrum=LORENTZIAN, duration=5.0, n_qubits=2,
                          superiterations=1, inner_evals=5)
        scored = []

        def values(state, grid):
            scored.append(state)
            return filter_values(state, grid)

        def nan_search(state, s, freqs):
            values, candidate = _discrete_search(state, None, freqs, prob.grid)
            return (lambda x: values(np.where(np.arange(x.size) == 0, np.nan, x)),
                    lambda x: candidate(np.where(np.arange(x.size) == 0, np.nan, x)))

        monkeypatch.setattr(ocf, "filter_values", values)
        with pytest.raises(NonFiniteInputError, match="^switch_times must be finite"):
            _solve(prob, staircase_split(2.0, 2, 5.0), nan_search)
        assert len(scored) == 1  # the initial state alone


def _loop_warp(amp, times, freqs, x):
    """The time warp as a loop over basis frequencies, one sum per term."""
    out = times
    for j, nu in enumerate(freqs):
        phase = nu * times
        out = out + amp * x[2 * j] * np.sin(phase) + amp * x[2 * j + 1] * (1.0 - np.cos(phase))
    return out


class TestWarp:
    """The warp's one outer product and ordered row sum against the loop."""

    def test_same_bits_as_loop(self):
        rng = np.random.default_rng(21)
        amp = 7.0 / 12.0
        for _ in range(400):
            times = rng.uniform(0.0, 7.0, rng.integers(0, 22))
            freqs = rng.uniform(0.0, 12.0, rng.integers(1, 5))
            x = rng.normal(0.0, rng.choice([0.3, 3.0, 30.0]), 2 * freqs.size)
            ref = _loop_warp(amp, times, freqs, x)
            for f in (freqs, freqs.tolist()):
                got = _warper(times, f, amp)(x)
                assert got.shape == times.shape and got.tobytes() == ref.tobytes()

    def test_empty_qubit_slice(self):
        mset = ModulationSet((PulseSequence([], 3.0), PulseSequence([1.0], 3.0)))
        times, qubits, _ = mset.trains()
        lo, hi = np.searchsorted(qubits, (0, 1))
        assert hi == lo
        warp = _warper(times[lo:hi], [2.0, 5.0], 3.0 / 12.0)
        assert warp(np.array([0.4, -0.2, 0.1, 0.3])).shape == (0,)


def _kernel_gap(mset, target, freqs, xs, grid):
    """Largest ``|values(x) - F|`` over ``xs`` relative to max F, with F the
    kernel's filter of ``candidate(x)`` on ``grid``.

    The scorer's rounding scales with its terms, not with F: where the
    trains nearly cancel (folded onto eps and T - eps, or opposite signs at
    one time), max F falls to 1e-21 while the gap stays near 1e-25.  So max
    F is floored at 1e-4 of ``(4/pi) (N T)**2``, the most F any N trains of
    length T reach."""
    values, candidate = _discrete_search(mset, target, freqs, grid)
    floor = 1e-4 * 4.0 / np.pi * (mset.n_qubits * mset.duration) ** 2
    gap = 0.0
    for x in xs:
        ref = filter_values(candidate(x), grid)
        gap = max(gap, float(np.max(np.abs(values(x) - ref)) / max(np.max(ref), floor)))
    return gap


class TestSearchScorer:
    """Each search's scorer against the kernel's filter of its candidate."""

    GRID = ocf_grid(10.0)

    @pytest.mark.parametrize("target", ["all", "first", "middle", "last", "empty"])
    @pytest.mark.parametrize("n_q", range(1, 7))
    def test_discrete_within_rounding(self, n_q, target):
        # the unmerged sums split the kernel's: over 300 random candidates
        # each, gaps reached 6.2e-15 of max F for all-qubit warps and 5.1e-15
        # for one-qubit warps
        rng = np.random.default_rng(100 * n_q + len(target))
        for _ in range(4):
            T = float(rng.uniform(1.0, 10.0))
            mset = _random_trains(rng, n_q, T)
            q = {"all": None, "first": 0, "middle": n_q // 2, "last": n_q - 1,
                 "empty": int(rng.integers(n_q))}[target]
            if target == "empty":
                seqs = list(mset.sequences)
                seqs[q] = PulseSequence([], T, seqs[q].initial_sign)
                mset = ModulationSet(tuple(seqs))
            freqs = rng.uniform(0.0, 12.0, 3)
            # large coefficients fold times past 0 and past T
            xs = [rng.normal(0.0, scale, 6) for scale in (0.3, 3.0, 30.0) for _ in range(3)]
            assert _kernel_gap(mset, q, freqs, xs, self.GRID) <= 1e-13

    @pytest.mark.parametrize("target", [None, 0, 1, 2])
    def test_discrete_coincident_and_cancelled_flips(self, target):
        T = 5.0
        mset = ModulationSet((
            PulseSequence([0.05, 0.1, 2.0, 4.6, 4.8], T),
            PulseSequence([2.0, 3.0], T, -1),
            PulseSequence([4.6, 4.8], T)))
        # a pulls switches below 0, b pushes them past T, where they fold
        # onto eps and T - eps and cancel in pairs; x = 0 leaves coincident
        # switches of different qubits
        xs = [np.array([-100.0, 10.0]), np.zeros(2), np.array([0.3, -0.2])]
        assert _kernel_gap(mset, target, [1.0], xs, self.GRID) <= 1e-13

    def _continuous(self, monkeypatch):
        """A state with terms, its search, and the modulations that the
        continuous kernel ``_mirror_sums`` receives."""
        state = ContinuousModulation(5.0, 2.0, ((3.0, 0.2, -0.1), (7.5, -0.05, 0.3)))
        seen = []
        kernel = filterfn._mirror_sums

        def recording(mod, omega):
            seen.append(mod)
            return kernel(mod, omega)

        monkeypatch.setattr(filterfn, "_mirror_sums", recording)
        return state, _continuous_search(state, np.array([1.5, 4.0, 11.0]), self.GRID), seen

    def test_continuous_same_bits(self, monkeypatch):
        state, (values, candidate), seen = self._continuous(monkeypatch)
        panels = []
        plan = filterfn._gauss_plan
        monkeypatch.setattr(filterfn, "_gauss_plan",
                            lambda *key: panels.append(key[1]) or plan(*key))
        rng = np.random.default_rng(8)
        for scale in (0.3, 3.0, 0.3, 30.0, 3.0):
            x = rng.normal(0.0, scale, 6)
            got = values(x)
            light = seen[-1]
            ref = candidate(x)
            assert ref.terms[:2] == state.terms and len(ref.terms) == 5
            assert light.phase_rate_bound() == ref.phase_rate_bound()
            assert got.tobytes() == filter_values(ref, self.GRID).tobytes()
        # the large coefficients change the panel count, and scores at an
        # earlier count reuse that count's held phase
        assert panels[0::2] == panels[1::2] and len(set(panels)) > 2

    def test_continuous_nan_refused_before_transform(self, monkeypatch):
        _, (values, _), seen = self._continuous(monkeypatch)
        with pytest.raises(NonFiniteInputError, match="^b must be finite"):
            values(np.array([0.1, 0.2, 0.3, math.nan, 0.5, 0.6]))
        assert seen == []

    @pytest.mark.parametrize("continuous", [False, True], ids=["discrete", "continuous"])
    def test_search_as_by_kernel(self, monkeypatch, continuous):
        """A search scored by its scorer keeps the evaluations, the trace
        and the design of one that scores every candidate by the kernel."""
        solve = ocf._solve

        def by_kernel(problem, initial, search):
            def kernel_search(state, s, freqs):
                candidate = search(state, s, freqs)[1]
                return (lambda x: filter_values(candidate(x), problem.grid)), candidate
            return solve(problem, initial, kernel_search)

        optimize = optimize_continuous if continuous else optimize_discrete
        prob = OcfProblem(spectrum=LORENTZIAN, duration=5.0, n_qubits=3,
                          superiterations=5, inner_evals=25, seed=11)
        ours = optimize(prob)
        monkeypatch.setattr(ocf, "_solve", by_kernel)
        ref = optimize(prob)
        assert ours.evaluations == ref.evaluations == 1 + 5 * 26
        assert ours.trace == ref.trace and len(set(ours.trace)) > 1
        assert ours.filter.values.tobytes() == ref.filter.values.tobytes()
        if continuous:
            assert ours.modulation.terms == ref.modulation.terms
        else:
            for a, b in zip(ours.modulation.sequences, ref.modulation.sequences, strict=True):
                assert a.switch_times.tobytes() == b.switch_times.tobytes()


def _reference_repair(times, qubits, duration):
    """:func:`repair_trains` in its reference form: ``np.clip``, and the
    run-parity cancellation run on every call."""
    eps = 1e-12 * duration
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.isfinite(t).all():
        raise NonFiniteInputError("switch_times must be finite")
    t = np.clip(t, eps, duration - eps)
    order = np.lexsort((t, qubits))
    t, q = t[order], qubits[order]
    edge = np.ones(t.size + 1, dtype=bool)
    edge[1:-1] = (t[1:] != t[:-1]) | (q[1:] != q[:-1])
    starts = np.flatnonzero(edge)
    keep = starts[:-1][np.diff(starts) % 2 == 1]
    return t[keep], q[keep]


def _reference_sums(weights, points, grid):
    """The grid path of ``filterfn._phase_sums`` in its reference form: one
    exponential call per factor table."""
    coarse = np.empty((-(-grid.size // 64), points.size), dtype=complex)
    fine = np.empty((64, points.size), dtype=complex)
    for table, step in ((coarse, 64 * grid.spacing), (fine, grid.spacing)):
        table[0] = 1.0
        table[1:] = np.exp(1j * (step * points))
        np.cumprod(table, axis=0, out=table)
    lhs = (coarse[:, None, :] * weights[None, :, :]).reshape(-1, points.size)
    prod = (lhs @ fine.T).reshape(coarse.shape[0], weights.shape[0], 64)
    return prod.transpose(1, 0, 2).reshape(weights.shape[0], -1)[:, :grid.size]


def _reference_filter(sums, moments, grid, T):
    """``filterfn._filter_from`` on a grid in its reference form: the
    small-phase prefix found from the whole grid on every call."""
    out = sums.real ** 2
    out += sums.imag ** 2
    out *= filterfn._grid_scale(grid)
    n = int(np.searchsorted(grid.omegas * T, 1e-6))
    om = grid.omegas[:n]
    if om.size:
        m0, m1, m2 = moments
        out[:n] = (4.0 / np.pi) * ((m0 - om ** 2 * m2) ** 2 + (om * m1) ** 2)
    return out


def _reference_values(state, target, freqs, grid):
    """``values(x)`` of :func:`_discrete_search` in its reference form:
    :func:`_reference_repair`, ``np.append`` and the reference kernel."""
    times, qubits, signs = state.trains()
    T = state.duration
    lo, hi = ((0, times.size) if target is None
              else np.searchsorted(qubits, (target, target + 1)))
    warp = _warper(times[lo:hi], freqs, T / 12.0)

    def coefficients(q):
        rank = np.arange(q.size) - np.searchsorted(q, q)
        return np.where(rank % 2 == 1, -2.0, 2.0) * signs[q]

    held_t, held_q = _reference_repair(np.delete(times, np.s_[lo:hi]),
                                       np.delete(qubits, np.s_[lo:hi]), T)
    held_c = coefficients(held_q)
    points = np.append(0.0, held_t)
    weights = np.append(-float(np.sum(signs)), held_c)
    held_sums = _reference_sums(weights[None, :], points, grid)[0]
    held_moments = filterfn._point_moments(points, weights)
    end = float(np.sum(signs)) - float(np.sum(held_c))

    def values(x):
        t, q = _reference_repair(warp(x), qubits[lo:hi], T)
        c = coefficients(q)
        points = np.append(t, T)
        weights = np.append(c, end - np.sum(c))
        sums = _reference_sums(weights[None, :], points, grid)[0]
        sums += held_sums
        return _reference_filter(sums, held_moments + filterfn._point_moments(points, weights),
                                 grid, T)
    return values, warp, qubits[lo:hi]


class TestScorerReference:
    """The discrete scorer and :func:`repair_trains` keep the bits of their
    reference forms: the cancellation skipped where no two times are equal,
    both step exponentials from one call, the small-phase prefix cached and
    the points and weights written into one pair of arrays change no output."""

    GRID = ocf_grid(10.0)

    def _same(self, mset, target, freqs, xs):
        values = _discrete_search(mset, target, freqs, self.GRID)[0]
        ref, warp, qubits = _reference_values(mset, target, freqs, self.GRID)
        for x in xs:
            got = repair_trains(warp(x), qubits, mset.duration)
            want = _reference_repair(warp(x), qubits, mset.duration)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()
            assert values(x).tobytes() == ref(x).tobytes()

    @pytest.mark.parametrize("warp_all", [True, False], ids=["all", "one"])
    @pytest.mark.parametrize("n_q", range(1, 7))
    def test_random_candidates(self, n_q, warp_all):
        rng = np.random.default_rng(500 * n_q + warp_all)
        for _ in range(6):
            T = float(rng.uniform(1.0, 10.0))
            mset = _random_trains(rng, n_q, T)
            target = None if warp_all else int(rng.integers(n_q))
            freqs = rng.uniform(0.0, 12.0, 3)
            # large coefficients fold times past 0 and past T
            xs = [rng.normal(0.0, scale, 6) for scale in (0.3, 3.0, 30.0) for _ in range(2)]
            self._same(mset, target, freqs, xs)

    @pytest.mark.parametrize("target", [None, 0, 1, 2])
    def test_clipped_reordered_and_coincident(self, target):
        T = 5.0
        mset = ModulationSet((
            PulseSequence([0.05, 0.1, 2.0, 4.6, 4.8], T),
            PulseSequence([2.0, 3.0], T, -1),
            PulseSequence([], T)))
        # a pulls three switches below 0 (a run of 3 at eps), b pushes two
        # past T (a run of 2 at T - eps); the middle pair reorders switches;
        # qubit 2 is an empty moved train
        xs = [np.array([-100.0, 10.0]), np.array([40.0, -3.0]), np.zeros(2),
              np.array([0.3, -0.2])]
        self._same(mset, target, [1.0], xs)

    def test_weights_follow_the_repaired_labels(self):
        # consecutive candidates whose repaired labels change: qubit 0's
        # pair folds onto eps and cancels, then no pair cancels, then qubit
        # 1's pair folds onto T - eps and cancels (as many labels as the
        # first, other qubits), then qubit 0's again.  The switchless qubit 2
        # makes the initial signs sum to 1, so that F tells the weights of
        # the two pairs apart (they are opposite)
        T = 5.0
        mset = ModulationSet((PulseSequence([0.05, 0.1], T), PulseSequence([2.5, 3.0], T, -1),
                              PulseSequence([], T)))
        xs = [np.array([-5.0, 0.0]), np.array([0.3, -0.2]), np.array([0.0, 5.0]),
              np.array([-5.0, 0.0])]
        _, warp, qubits = _reference_values(mset, None, [1.0], self.GRID)
        labels = [repair_trains(warp(x), qubits, T)[1].tolist() for x in xs]
        assert labels == [[1, 1], [0, 0, 1, 1], [0, 0], [1, 1]]
        self._same(mset, None, [1.0], xs)

    @pytest.mark.parametrize("times, qubits, kept", [
        ([-1.0, 2.0, 9.0], [0, 0, 0], [1e-12 * 5.0, 2.0, 5.0 - 1e-12 * 5.0]),
        ([3.0, 1.0, 2.0, 0.5], [1, 0, 1, 0], [0.5, 1.0, 2.0, 3.0]),
        ([2.0, 1.0, 1.0, 3.0], [0, 0, 0, 0], [2.0, 3.0]),
        ([1.0, 1.0, 2.0, 1.0], [0, 0, 0, 0], [1.0, 2.0]),
        ([1.0, 1.0, 1.0, 1.0, 2.0], [0, 1, 0, 0, 1], [1.0, 1.0, 2.0]),
        ([], [], [])],
        ids=["clipped", "reordered", "run-of-2", "run-of-3", "runs-across-qubits", "empty"])
    def test_repair_cases(self, times, qubits, kept):
        times, qubits = np.array(times, dtype=float), np.array(qubits, dtype=int)
        got, want = repair_trains(times, qubits, 5.0), _reference_repair(times, qubits, 5.0)
        assert got[0].tolist() == kept
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def _bowl(x):
    """Tilted quadratic with its minimum off the initial simplex."""
    c = np.linspace(0.35, -0.2, x.size)
    return float(np.sum((1.0 + np.arange(x.size)) * (x - c) ** 2) + 0.3 * x[0] * x[-1])


def _walled(x):
    """The bowl, undefined (inf) beyond a wall across the search region."""
    return math.inf if x[0] > 0.2 else _bowl(x)


def _pinhole(x):
    """Defined only near the origin: reflections and contractions fail, so
    every step shrinks, and the initial simplex holds tied infs."""
    return float(np.sum(x ** 2)) if np.sum(x ** 2) < 0.01 else math.inf


def _recorded(objective):
    """The objective, logging each point and then overwriting its argument
    (a search that reused the array it passed would go astray)."""
    points = []

    def fun(x):
        points.append(x.copy())
        value = objective(x)
        x[...] = np.nan
        return value
    return fun, points


def _scipy_search(fun, dim, step, max_evals):
    """The call the OCF inner search made through scipy."""
    from scipy.optimize import minimize

    simplex = np.zeros((dim + 1, dim))
    simplex[1:, :] = step * np.eye(dim)
    return minimize(fun, np.zeros(dim), method="Nelder-Mead",
                    options={"maxfev": max_evals, "initial_simplex": simplex,
                             "xatol": 1e-10, "fatol": 1e-12}).x


def _same_as_scipy(objective, dim, max_evals, step=0.6):
    """Assert the in-package search evaluates the same points as scipy's and
    returns the same x, bit for bit; the points."""
    fun, ours = _recorded(objective)
    x = _inner_search(fun, dim, step=step, max_evals=max_evals)
    ref_fun, theirs = _recorded(objective)
    ref = _scipy_search(ref_fun, dim, step, max_evals)
    assert len(ours) == len(theirs)
    assert np.array_equal(np.array(ours), np.array(theirs))
    assert np.array_equal(x, ref)
    return ours


class TestNelderMead:
    """The in-package Nelder-Mead against ``scipy.optimize.minimize``."""

    @pytest.mark.parametrize("objective", [_bowl, _walled, _pinhole])
    @pytest.mark.parametrize("max_evals", [1, 3, 7, 10, 60, 500])
    @pytest.mark.parametrize("dim", [2, 6])
    def test_same_points_and_result_as_scipy(self, objective, dim, max_evals):
        assert len(_same_as_scipy(objective, dim, max_evals)) <= max_evals

    def test_budget_ends_inside_shrink(self):
        # 7 simplex vertices, a reflection, an inside contraction, then the
        # first of 6 shrink vertices: the budget stops the shrink
        points = _same_as_scipy(_pinhole, 6, 10)
        assert len(points) == 10
        assert np.count_nonzero(points[-1]) == 1 and np.max(points[-1]) == 0.3
        assert np.count_nonzero(points[-2]) > 1

    def test_tolerance_stops_early(self):
        assert len(_same_as_scipy(_bowl, 2, 500)) < 500
