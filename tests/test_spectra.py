import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisespec import (CalibrationError, CompositeSignal, GridMismatchError, GridRangeError,
                       LorentzianComponent, NoiseModel, NoiseSpecError, NonFiniteInputError,
                       OutOfRangeError,
                       ProtocolContext, SpectralDensity, build_fio, calibrate_amplitude,
                       track_ocf)
from noisespec.filterfn import (FrequencyGrid, FilterFunction, continuous_norm, default_grid,
                                filter_function, filter_values, signal_overlap)
from noisespec.modulation import as_sequence, fo_sequence, staircase_split
from noisespec.reconstruct import fidelity, run_repetitions, scan_optimal_time
from noisespec import spectra


def double_lorentzian(scale=1.0):
    return SpectralDensity.lorentzian_mixture(
        [(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)], scale=scale)


class TestEvaluate:
    def test_peak_value_at_center(self):
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0)])
        assert spec.evaluate(2.0) == pytest.approx(1.0)

    def test_tail_decay(self):
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0)])
        assert spec.evaluate(1e6) < 1e-10

    def test_double_lorentzian_at_two(self):
        # 1 + 0.7 / (1 + 2 * 16), frozen by direct arithmetic
        assert double_lorentzian().evaluate(2.0) == pytest.approx(
            1.0212121212121212, abs=1e-15)

    def test_negative_frequency_rejected(self):
        with pytest.raises(GridRangeError):
            double_lorentzian().evaluate(-0.5)

    @given(alpha=st.floats(min_value=0.0, max_value=100.0),
           omega=st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=50, deadline=None)
    def test_linearity_in_scale(self, alpha, omega):
        base = double_lorentzian()
        scaled = base.with_scale(alpha)
        assert scaled.evaluate(omega) == pytest.approx(
            alpha * base.evaluate(omega), rel=1e-12, abs=1e-300)

    def test_vector_evaluation(self):
        spec = double_lorentzian()
        omegas = np.linspace(0, 10, 7)
        np.testing.assert_allclose(
            spec.evaluate(omegas), [spec.evaluate(w) for w in omegas])


class TestGridForm:
    def test_interpolates_linearly(self):
        spec = SpectralDensity.from_grid([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        assert spec.evaluate(0.5) == pytest.approx(1.0)
        assert spec.evaluate(1.5) == pytest.approx(1.0)

    def test_extrapolation_refused(self):
        spec = SpectralDensity.from_grid([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(GridRangeError):
            spec.evaluate(1.5)

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ValueError):
            SpectralDensity.from_grid([0.0, 2.0, 1.0], [1.0, 1.0, 1.0])

    def test_grid_arrays_are_read_only_copies(self):
        # the caller's arrays stay their own, before and after pickle
        omegas, values = np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 0.0])
        spec = SpectralDensity(grid_omegas=omegas, grid_values=values)
        omegas[1], values[1] = 1.5, 7.0
        assert spec.grid_omegas.tolist() == [0.0, 1.0, 2.0]
        assert spec.grid_values.tolist() == [0.0, 2.0, 0.0]
        assert spec.evaluate(0.5) == pytest.approx(1.0)
        for density in (spec, pickle.loads(pickle.dumps(spec))):
            for arr in (density.grid_omegas, density.grid_values):
                assert not arr.flags.writeable
            with pytest.raises(ValueError):
                density.grid_values[1] = 3.0

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("# frequency,value\n0.0,1.0\n5.0,2.0\n10.0,0.5\n")
        spec = SpectralDensity.from_csv(path)
        assert spec.evaluate(5.0) == pytest.approx(2.0)
        assert not spec.is_analytic

    def test_csv_negative_power_refused(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("0.0,1.0\n5.0,-0.05\n10.0,0.5\n")
        with pytest.raises(ValueError, match="spectral power must be >= 0, got -0.05"):
            SpectralDensity.from_csv(path)


class TestComponentValidation:
    @pytest.mark.parametrize("amp,center,width", [
        (-1.0, 2.0, 1.0), (1.0, -2.0, 1.0), (1.0, 2.0, 0.0), (1.0, 2.0, -1.0)])
    def test_invalid_components(self, amp, center, width):
        with pytest.raises(ValueError):
            LorentzianComponent(amp, center, width)


class TestComposite:
    def make(self, omega_osc=0.1):
        s1 = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0)])
        return CompositeSignal(omega_osc, s1, double_lorentzian())

    def test_t_zero_gives_second_component(self):
        sig = self.make()
        assert sig.evaluate(3.0, 0.0) == pytest.approx(
            sig.component_two.evaluate(3.0))

    def test_quarter_phase_equal_mixture(self):
        omega_osc = 0.25
        sig = self.make(omega_osc)
        t = (math.pi / 4) / omega_osc
        expected = 0.5 * (sig.component_one.evaluate(3.0)
                          + sig.component_two.evaluate(3.0))
        assert sig.evaluate(3.0, t) == pytest.approx(expected)

    def test_weights_sum_to_one(self):
        sig = self.make(0.0125)
        t = np.random.default_rng(3).uniform(0, 500, 100)
        s1, s2 = sig.weights(t)
        assert np.max(np.abs(s1 + s2 - 1.0)) < 1e-12


class TestCalibration:
    def box_filter(self, lo, hi, height, grid):
        values = np.where((grid.omegas >= lo) & (grid.omegas <= hi), height, 0.0)
        return FilterFunction(grid=grid, values=values, generator=None,
                              operation_time=1.0)

    def test_single_filter_inverse(self):
        grid = FrequencyGrid(10.0, 1001)
        flat = SpectralDensity.from_grid([0.0, 10.0], [1.0, 1.0])
        filt = self.box_filter(0.0, 2.0, 1.0, grid)  # raw overlap 2
        assert calibrate_amplitude(flat, [filt]) == pytest.approx(0.5, rel=5e-3)

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8, 20, 21])
    def test_median_is_np_median_bit_for_bit(self, size):
        rng = np.random.default_rng(size)
        for _ in range(300):
            values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9)
            if size > 2:
                values[1] = values[0]  # a tie
            assert spectra._median(values).hex() == float(np.median(values)).hex()
        values[-1] = math.nan
        assert math.isnan(spectra._median(values)) and math.isnan(np.median(values))

    def test_median_of_three(self):
        grid = FrequencyGrid(10.0, 10001)
        flat = SpectralDensity.from_grid([0.0, 10.0], [1.0, 1.0])
        filters = [self.box_filter(0.0, w, 1.0, grid) for w in (1.0, 2.0, 3.0)]
        assert calibrate_amplitude(flat, filters) == pytest.approx(0.5, rel=5e-3)

    def test_zero_overlap_raises(self):
        grid = FrequencyGrid(10.0, 101)
        spec = SpectralDensity.from_grid([0.0, 10.0], [0.0, 0.0])
        filt = self.box_filter(0.0, 5.0, 1.0, grid)
        with pytest.raises(CalibrationError):
            calibrate_amplitude(spec, [filt])

    def test_no_filters_raises(self):
        with pytest.raises(CalibrationError, match="no filters"):
            calibrate_amplitude(double_lorentzian(), [])

    def test_mixed_grids_raise(self):
        # the filters share one spectrum sample, so they must share a grid
        flat = SpectralDensity.from_grid([0.0, 10.0], [1.0, 1.0])
        filters = [self.box_filter(0.0, 2.0, 1.0, FrequencyGrid(10.0, n)) for n in (101, 201)]
        with pytest.raises(GridMismatchError):
            calibrate_amplitude(flat, filters)

    @pytest.mark.parametrize("T", [1.0, 2.0, 5.0, 10.0])
    def test_protocol_scenario_median_near_one(self, T):
        spec = double_lorentzian()
        grid = default_grid(11.5)
        filters = [filter_function(fo_sequence(k, 20, 11.5, T), grid)
                   for k in range(1, 21)]
        scale = calibrate_amplitude(spec, filters)
        scaled = spec.with_scale(scale)
        overlaps = [signal_overlap(scaled, f) for f in filters]
        assert 0.99 <= float(np.median(overlaps)) <= 1.01


def _square_filter():
    return filter_function(fo_sequence(3, 20, 11.5, 5.0), default_grid(11.5))


@pytest.mark.parametrize("call, error, message", [
    (lambda: SpectralDensity.lorentzian_mixture([(-1.0, 2.0, 1.0)]), OutOfRangeError,
     "amplitude must be >= 0, got -1.0"),
    (lambda: SpectralDensity.lorentzian_mixture([]), OutOfRangeError,
     "mixture needs at least one component"),
    (lambda: LorentzianComponent(1.0, -2.0, 1.0), GridRangeError,
     "center must be >= 0, got -2.0"),
    (lambda: NoiseModel(gamma=-1.0), OutOfRangeError, "gamma must be >= 0, got -1.0"),
    (lambda: filter_values(fo_sequence(3, 20, 11.5, 5.0), -1.0), GridRangeError,
     "omega must be >= 0"),
    (lambda: _square_filter().tail_integral(0.0), GridRangeError, "omega_from must be > 0"),
    (lambda: continuous_norm(np.ones(5), 10.0), OutOfRangeError,
     "a grid is required for raw sample arrays"),
    (lambda: ProtocolContext("xx", double_lorentzian(), 2.0), OutOfRangeError,
     "unknown protocol 'xx'"),
    (lambda: track_ocf(None, [_square_filter()], 10.0, NoiseModel()), OutOfRangeError,
     "filter_pair must hold exactly two filters"),
    (lambda: build_fio([_square_filter()], [0.1, 0.2]), OutOfRangeError,
     "filters and probabilities differ in length"),
    # a NaN frequency is named as a NaN, not as a grid out of order
    (lambda: SpectralDensity.from_grid([0.0, math.nan, 2.0], [1.0, 1.0, 1.0]),
     NonFiniteInputError, "grid samples must be finite"),
    (lambda: SpectralDensity.from_grid([math.nan, 1.0, 2.0], [1.0, 1.0, 1.0]),
     NonFiniteInputError, "grid samples must be finite"),
    # each of these raised a bare ValueError or OverflowError, or returned NaN
    (lambda: staircase_split(math.nan, 1, 1.0), NonFiniteInputError,
     "target_frequency must be finite, got nan"),
    (lambda: staircase_split(2.0, 2, math.inf), NonFiniteInputError,
     "duration must be finite, got inf"),
    (lambda: fo_sequence(3, 20, math.nan, 5.0), NonFiniteInputError,
     "omega_max must be finite, got nan"),
    (lambda: as_sequence(1, 5, math.nan, 1.0), NonFiniteInputError,
     "omega_max must be finite, got nan"),
    (lambda: as_sequence(1, 5, 10.0, math.inf), NonFiniteInputError,
     "duration must be finite, got inf"),
    (lambda: fidelity(double_lorentzian(), np.array([1.0, math.nan]), [1.0, 2.0]),
     NonFiniteInputError, "estimate must be finite"),
    (lambda: fidelity(double_lorentzian(), double_lorentzian(), [1.0, math.nan]),
     NonFiniteInputError, "omega_points must be finite"),
    (lambda: _square_filter().tail_integral(math.nan), NonFiniteInputError,
     "omega_from must be finite, got nan"),
    (lambda: double_lorentzian().peak_frequency(omega_max=math.nan), NonFiniteInputError,
     "omega_max must be finite, got nan"),
    (lambda: run_repetitions([], -1), OutOfRangeError,
     "repetitions must be an integer >= 0, got -1"),
    (lambda: run_repetitions([], 2.5), OutOfRangeError,
     "repetitions must be an integer >= 0, got 2.5"),
    (lambda: scan_optimal_time([], -1), OutOfRangeError,
     "repetitions must be an integer >= 1, got -1"),
    (lambda: scan_optimal_time([], 2.5), OutOfRangeError,
     "repetitions must be an integer >= 1, got 2.5")],
    ids=["spectra-amplitude", "spectra-empty", "spectra-center", "probe-gamma",
         "filterfn-omega", "filterfn-tail", "filterfn-norm-grid", "reconstruct-protocol",
         "tracking-pair", "fisher-lengths", "spectra-nan-inner-frequency",
         "spectra-nan-first-frequency", "modulation-staircase-nan-frequency",
         "modulation-staircase-inf-duration", "modulation-fo-nan-omega-max",
         "modulation-as-nan-omega-max", "modulation-as-inf-duration",
         "reconstruct-fidelity-nan-estimate", "reconstruct-fidelity-nan-point",
         "filterfn-tail-nan", "spectra-peak-nan", "reconstruct-repetitions-negative",
         "reconstruct-repetitions-fraction", "reconstruct-scan-repetitions-negative",
         "reconstruct-scan-repetitions-fraction"])
def test_public_input_refused_as_noisespec_error(call, error, message):
    # before, each of these raised a bare ValueError, not a NoiseSpecError
    with pytest.raises(error, match=f"^{message}$") as info:
        call()
    assert isinstance(info.value, NoiseSpecError) and isinstance(info.value, ValueError)
