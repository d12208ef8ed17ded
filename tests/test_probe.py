import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from noisespec import (ContinuousModulation, FrequencyGrid, LorentzianComponent,
                       NoiseModel, NoiseSpecError, NonFiniteInputError,
                       SpectralDensity, UnsupportedOracleError, as_sequence,
                       autocorrelation, chi_time_domain, filter_function,
                       fo_sequence, invert_probability, measure, measure_batch,
                       signal_overlap, staircase_split, survival_probability)
from noisespec.probe import _SATURATION_MARGIN, _StepAutocorrelation, _invert
from noisespec.modulation import PulseSequence, to_step_function
from noisespec import seeding
from noisespec.seeding import (derive_seed, derive_seed_array, first_uniform,
                               make_rng, splitmix64, splitmix64_array)

EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]


class TestSurvivalProbability:
    def test_zero_exponent(self):
        assert survival_probability(0.0, 0.0, 5.0) == 0.0

    def test_unit_coefficient(self):
        assert survival_probability(1.0, 0.0, 5.0) == pytest.approx(
            0.5 * (1 - math.exp(-1)))

    def test_with_dephasing(self):
        assert survival_probability(1.0, 0.4, 5.0) == pytest.approx(
            0.5 * (1 - math.exp(-3.0)))

    @given(c=st.floats(0, 5), extra=st.floats(0.001, 2))
    @settings(max_examples=40, deadline=None)
    def test_strictly_increasing(self, c, extra):
        assert survival_probability(c + extra, 0.0, 1.0) > survival_probability(c, 0.0, 1.0)


class TestNonFiniteInput:
    @pytest.mark.parametrize("c, gamma, T", [
        (math.nan, 0.1, 5.0), (-math.inf, 0.1, 5.0), (1.0, math.nan, 5.0),
        (1.0, math.inf, 5.0), (1.0, 0.1, math.nan), (1.0, 0.1, math.inf)])
    def test_survival_rejects(self, c, gamma, T):
        with pytest.raises(ValueError):
            survival_probability(c, gamma, T)

    def test_nan_coefficient_rejected_by_measure(self):
        with pytest.raises(ValueError):
            measure(math.nan, NoiseModel(gamma=0.1, seed=1), 5.0)

    def test_infinite_coefficient_saturates(self):
        assert survival_probability(math.inf, 0.1, 5.0) == 0.5
        rec = measure(math.inf, NoiseModel(gamma=0.1, seed=1), 5.0)
        assert rec.saturated and rec.c_estimate == math.inf

    @pytest.mark.parametrize("build", [
        lambda: NoiseModel(gamma=math.nan),
        lambda: NoiseModel(gamma=math.inf),
        lambda: LorentzianComponent(math.nan, 1.0, 1.0),
        lambda: FrequencyGrid(math.inf, 10),
        lambda: ContinuousModulation(duration=math.nan),
    ], ids=["noise-gamma-nan", "noise-gamma-inf", "lorentzian-nan", "grid-inf",
            "continuous-duration-nan"])
    def test_constructor_rejects(self, build):
        with pytest.raises(NonFiniteInputError) as info:
            build()
        assert isinstance(info.value, NoiseSpecError)
        assert isinstance(info.value, ValueError)


def _reference_readout(c, gamma, T, dp, stream_seed):
    """One readout spelled out with numpy's generator and libm scalars."""
    p = 0.5 * (1.0 - math.exp(-c - gamma * T))
    if dp > 0:
        p = p + make_rng(stream_seed).uniform(-dp, dp)
    p = min(1.0, max(0.0, p))
    if p >= 0.5 - 1e-9:
        return math.inf, True
    return max(0.0, -math.log1p(-2.0 * p) - gamma * T), False


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestExactStream:
    """The vectorized readout stream equals numpy's generator bit for bit;
    a numpy release that changes SeedSequence or PCG64 fails here."""

    def test_splitmix_and_derive_seed_arrays(self):
        rng = np.random.default_rng(1)
        xs = [int(v) for v in rng.integers(0, 2 ** 63, 200)] + EDGE_SEEDS
        assert splitmix64_array(np.array(xs, dtype=np.uint64)).tolist() == [
            splitmix64(x) for x in xs]
        masters = xs[:20] + [-7, 2 ** 70 + 5]
        got = derive_seed_array(np.array(masters[:20], dtype=np.uint64)[:, None, None],
                                np.arange(3)[:, None], np.arange(4))
        assert got.shape == (20, 3, 4)
        for i, m in enumerate(masters[:20]):
            for r in range(3):
                for k in range(4):
                    assert int(got[i, r, k]) == derive_seed(m, r, k)
        for m in masters:
            assert int(derive_seed_array(m, 5, -1)) == derive_seed(m, 5, -1)

    @pytest.mark.parametrize("dp", [0.0, 0.01, 0.49])
    def test_first_uniform_matches_generator(self, dp):
        rng = np.random.default_rng(2)
        seeds = EDGE_SEEDS + [int(v) for v in rng.integers(0, 2 ** 64, 3000,
                                                           dtype=np.uint64)]
        expected = [make_rng(s).uniform(-dp, dp) for s in seeds]
        got = first_uniform(np.array(seeds, dtype=np.uint64), -dp, dp)
        np.testing.assert_array_equal(_bits(got), _bits(expected))

    def test_seed_sequence_state_matches_numpy(self):
        rng = np.random.default_rng(4)
        seeds = EDGE_SEEDS + [int(v) for v in rng.integers(0, 2 ** 64, 2000,
                                                           dtype=np.uint64)]
        state = seeding._seed_sequence_state(np.array(seeds, dtype=np.uint64))
        assert [a.dtype for a in state] == [np.uint64] * 4
        got = np.column_stack(state)
        expected = np.array([np.random.SeedSequence(s).generate_state(4, np.uint64)
                             for s in seeds])
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seeds, shape", [
        (2 ** 64 - 1, ()), (np.array(2 ** 32, dtype=np.uint64), ()),
        (np.array(7, dtype=np.uint64), ()), (np.array([], dtype=np.uint64), (0,)),
        (np.zeros((0, 5), dtype=np.uint64), (0, 5))],
        ids=["int", "0-d-high-word", "0-d", "empty", "empty-2d"])
    def test_first_uniform_shapes(self, seeds, shape):
        got = np.asarray(first_uniform(seeds, -0.3, 0.3))
        assert got.shape == shape and got.dtype == np.float64
        expected = [make_rng(int(s)).uniform(-0.3, 0.3) for s in np.ravel(seeds)]
        np.testing.assert_array_equal(_bits(got.ravel()), _bits(expected))

    def test_uint64_seeds_are_not_copied(self):
        seeds = np.arange(6, dtype=np.uint64)
        assert seeding._u64(seeds) is seeds

    @pytest.mark.parametrize("dp", [0.0, 0.01, 0.49])
    def test_measure_batch_matches_reference(self, dp):
        gamma, T = 0.4, 2.0
        # 0 and a large c saturate at the top or clamp at the bottom
        c = np.array([0.0, 1e-6, 0.3, 1.0, 2.5, 40.0, math.inf])
        rng = np.random.default_rng(3)
        masters = EDGE_SEEDS + [int(v) for v in rng.integers(0, 2 ** 64, 60,
                                                             dtype=np.uint64)]
        seeds = derive_seed_array(np.array(masters, dtype=np.uint64)[:, None],
                                  np.arange(c.size))
        # the edge seeds are also drawn as stream seeds themselves
        seeds[:len(EDGE_SEEDS), 0] = EDGE_SEEDS
        c_hat, saturated = measure_batch(c, NoiseModel(dp_max=dp, gamma=gamma), T, seeds)
        assert c_hat.shape == saturated.shape == seeds.shape
        assert saturated.any() and not saturated.all()
        for (r, k), s in np.ndenumerate(seeds):
            ref_c, ref_sat = _reference_readout(float(c[k]), gamma, T, dp, int(s))
            assert _bits(c_hat[r, k]) == _bits(ref_c)
            assert saturated[r, k] == ref_sat

    def test_measure_is_the_batch_view(self):
        noise = NoiseModel(dp_max=0.05, gamma=0.1, seed=2 ** 64 - 1)
        c = np.array([0.2, 0.9, 3.0])
        c_hat, saturated = measure_batch(c, noise, 5.0,
                                         derive_seed_array(noise.seed, np.arange(3)))
        for k in range(3):
            rec = measure(c[k], noise, 5.0, filter_index=k)
            assert _bits(rec.c_estimate) == _bits(c_hat[k])
            assert rec.saturated == saturated[k]

    def test_shots_fallback_equals_measure(self):
        noise = NoiseModel(dp_max=0.01, shots=500, seed=17)
        c = np.array([[0.5, 1.0, 2.0], [0.1, 4.0, 30.0]])
        seeds = derive_seed_array(noise.seed, np.arange(2)[:, None], np.arange(3))
        c_hat, saturated = measure_batch(c, noise, 3.0, seeds)
        for r in range(2):
            row_noise = NoiseModel(dp_max=0.01, shots=500, seed=derive_seed(17, r))
            for k in range(3):
                rec = measure(c[r, k], row_noise, 3.0, filter_index=k)
                assert _bits(rec.c_estimate) == _bits(c_hat[r, k])
                assert rec.saturated == saturated[r, k]


class TestInversion:
    @given(c=st.floats(0.0, 5.0))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, c):
        p = survival_probability(c, 0.2, 3.0)
        c_hat, saturated = invert_probability(p, 0.2, 3.0)
        assert not saturated
        assert c_hat == pytest.approx(c, abs=1e-10)

    def test_zero_probability_clamps(self):
        c_hat, saturated = invert_probability(0.0, 0.7, 4.0)
        assert (c_hat, saturated) == (0.0, False)

    def test_saturation_flag(self):
        c_hat, saturated = invert_probability(0.499999999, 0.0, 1.0)
        assert saturated
        assert math.isinf(c_hat)

    @staticmethod
    def _entry_by_entry(p, gamma, T):
        """``_invert`` one readout at a time, with libm's ``math.log1p``."""
        out = []
        for x in p.ravel().tolist():
            if x >= 0.5 - _SATURATION_MARGIN:
                out.append(math.inf)
            else:
                out.append(max(0.0, -math.log1p(-2.0 * x) - gamma * T))
        return np.array(out, dtype=float).reshape(p.shape)

    @pytest.mark.parametrize("gamma", [0.0, 0.2])
    def test_block_bits_equal_libm_per_entry(self, gamma):
        edge = 0.5 - _SATURATION_MARGIN
        p = np.concatenate(([0.0, edge, np.nextafter(edge, 0.0), edge + 1e-12, 0.5, 1.0],
                            np.random.default_rng(5).uniform(0.0, 0.5, 994))).reshape(20, 50)
        c_hat, saturated = _invert(p, gamma, 3.0)
        ref = self._entry_by_entry(p, gamma, 3.0)
        assert c_hat.tobytes() == ref.tobytes()
        assert saturated.tolist() == np.isinf(ref).tolist()
        assert saturated.ravel()[[1, 3, 4, 5]].all() and not saturated.ravel()[[0, 2]].any()
        assert c_hat.ravel()[0] == 0.0

    @pytest.mark.parametrize("p", [np.full((3, 4), 0.5 - _SATURATION_MARGIN), np.ones(5),
                                   np.empty(0)], ids=["at-margin", "one", "empty"])
    def test_no_free_readout(self, p):
        c_hat, saturated = _invert(p, 0.2, 3.0)
        assert c_hat.shape == p.shape and saturated.all()
        assert c_hat.tobytes() == self._entry_by_entry(p, 0.2, 3.0).tobytes()


class TestMeasure:
    def test_noiseless_exact(self):
        rec = measure(1.0, NoiseModel(seed=1), 5.0)
        assert rec.p_measured == survival_probability(1.0, 0.0, 5.0)
        assert rec.c_estimate == pytest.approx(1.0, abs=1e-12)

    def test_detector_error_bounded(self):
        p0 = survival_probability(1.0, 0.0, 5.0)
        for rep in range(200):
            rec = measure(1.0, NoiseModel(dp_max=0.01, seed=derive_seed(3, rep)), 5.0)
            assert abs(rec.p_measured - p0) <= 0.01 + 1e-15

    def test_shot_noise_scale(self):
        shots = 10 ** 6
        p0 = survival_probability(1.0, 0.0, 5.0)
        draws = np.array([
            measure(1.0, NoiseModel(shots=shots, seed=derive_seed(9, rep)), 5.0).p_measured
            for rep in range(2000)])
        expected = math.sqrt(p0 * (1 - p0) / shots)
        assert draws.std(ddof=1) == pytest.approx(expected, rel=0.1)

    def test_seed_determinism(self):
        a = measure(1.0, NoiseModel(dp_max=0.01, seed=42), 5.0, filter_index=3)
        b = measure(1.0, NoiseModel(dp_max=0.01, seed=42), 5.0, filter_index=3)
        c = measure(1.0, NoiseModel(dp_max=0.01, seed=42), 5.0, filter_index=4)
        assert a == b
        assert a.p_measured != c.p_measured


class TestAutocorrelation:
    def test_against_quadrature(self):
        from scipy.integrate import quad
        spec = SpectralDensity.lorentzian_mixture([(0.8, 3.1, 1.7)])

        def brute(tau):
            comp = spec.components[0]
            val, _ = quad(lambda w: comp.evaluate(w) * math.cos(w * tau),
                          0, 4000, limit=4000)
            return val / math.pi

        for tau in (0.0, 0.05, 0.8, 4.0):
            assert autocorrelation(spec, tau) == pytest.approx(
                brute(tau), rel=2e-4, abs=1e-9)

    def test_zero_centered_component(self):
        spec = SpectralDensity.lorentzian_mixture([(2.0, 0.0, 4.0)])
        # even extension of a zero-centered line is the full Lorentzian
        assert autocorrelation(spec, 0.0) == pytest.approx(2.0 / (2 * 2.0))
        assert autocorrelation(spec, 3.0) == pytest.approx(
            (2.0 / 4.0) * math.exp(-1.5))

    def test_grid_spectrum_rejected(self):
        spec = SpectralDensity.from_grid([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(UnsupportedOracleError):
            autocorrelation(spec, 1.0)


class TestStepAutocorrelation:
    def test_zero_lag_is_energy(self):
        seq = fo_sequence(6, 20, 11.5, 5.0)
        acf = _StepAutocorrelation(seq)
        bounds, values = to_step_function(seq)
        assert acf(0.0) == pytest.approx(
            float(np.sum(values ** 2 * np.diff(bounds))))

    def test_against_brute_force(self):
        rng = np.random.default_rng(11)
        times = np.sort(rng.uniform(0.2, 4.8, 7))
        seq = PulseSequence(times, 5.0)
        acf = _StepAutocorrelation(seq)
        tgrid = np.linspace(0, 5, 20001)
        y = np.where(np.searchsorted(times, tgrid, side="right") % 2 == 0, 1.0, -1.0)
        for tau in (0.0, 0.37, 1.9, 4.2):
            shift = int(round(tau / (tgrid[1] - tgrid[0])))
            brute = trapezoid(y[shift:] * y[:y.size - shift], dx=tgrid[1] - tgrid[0])
            assert acf(tau) == pytest.approx(float(brute), abs=5e-3)


class TestOracle:
    def grid_for(self, omega_end=300.0):
        return FrequencyGrid(omega_end, int(omega_end / 0.005) + 1)

    def test_zero_spectrum(self):
        spec = SpectralDensity.lorentzian_mixture([(0.0, 2.0, 1.0)])
        assert chi_time_domain(fo_sequence(5, 20, 11.5, 5.0), spec) == pytest.approx(0.0, abs=1e-12)

    def test_white_noise_limit(self):
        # very broad line: chi ~ S(0) * 4T, cross-checked spectrally
        spec = SpectralDensity.lorentzian_mixture([(1.0, 0.0, 1e-4)])
        seq = fo_sequence(5, 20, 11.5, 5.0)
        grid = FrequencyGrid(2000.0, 200001)
        c_spec = signal_overlap(spec, filter_function(seq, grid))
        c_time = chi_time_domain(seq, spec)
        assert c_time == pytest.approx(c_spec, rel=1e-2)

    def test_double_lorentzian_cross_check(self):
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
        seq = fo_sequence(5, 20, 11.5, 5.0)
        filt = filter_function(seq, self.grid_for())
        c_spec = signal_overlap(spec, filt)
        c_time = chi_time_domain(seq, spec)
        assert c_time == pytest.approx(c_spec, rel=1e-3)

    def test_multi_qubit_cross_check(self):
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (5.0, 20.0, 1.0)])
        mset = staircase_split(3.45, 3, 4.0)
        filt = filter_function(mset, self.grid_for())
        c_spec = signal_overlap(spec, filt)
        c_time = chi_time_domain(mset, spec)
        assert c_time == pytest.approx(c_spec, rel=1e-3)

    def test_grid_spectrum_unsupported(self):
        spec = SpectralDensity.from_grid([0.0, 50.0], [1.0, 1.0])
        with pytest.raises(UnsupportedOracleError):
            chi_time_domain(fo_sequence(2, 20, 11.5, 5.0), spec)

    def test_duration_mismatch(self):
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0)])
        with pytest.raises(ValueError):
            chi_time_domain(fo_sequence(2, 20, 11.5, 5.0), spec, operation_time=4.0)
