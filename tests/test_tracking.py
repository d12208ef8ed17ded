import math

import numpy as np
import pytest

from noisespec import (CompositeSignal, DegenerateComponentsError, NoiseModel,
                       SpectralDensity, default_grid, filter_function,
                       fo_sequence, track_fo, track_ocf)
from noisespec.filterfn import FilterFunction, continuous_norm
from noisespec.spectra import calibrate_amplitude


def components(grid):
    s1 = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0)])
    s2 = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
    n1 = continuous_norm(s1, 10.0, grid)
    n2 = continuous_norm(s2, 10.0, grid)
    return s1.with_scale(1.0 / n1), s2.with_scale(1.0 / n2)


@pytest.fixture(scope="module")
def setup():
    grid = default_grid(11.5)
    s_one, s_two = components(grid)
    filters = [filter_function(fo_sequence(k, 10, 11.5, 5.0), grid)
               for k in range(1, 11)]
    alpha = calibrate_amplitude(
        SpectralDensity.lorentzian_mixture(
            [(0.5 * s_one.scale, 2.0, 1.0),
             (0.5 * s_two.scale, 2.0, 1.0), (0.35 * s_two.scale, 6.0, 2.0)]),
        filters)
    return grid, s_one.with_scale(s_one.scale * alpha), s_two.with_scale(s_two.scale * alpha)


class TestSampleCounts:
    def test_block_sampling_arithmetic(self, setup):
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.004 * math.pi, s_one, s_two)
        run = track_fo(sig, 10, 5.0, 500.0, NoiseModel(seed=1), grid=grid)
        assert run.n_samples == 10
        assert run.block_duration == 50.0

    def test_pair_sampling_arithmetic(self, setup):
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.004 * math.pi, s_one, s_two)
        pair = [filter_function(fo_sequence(3, 10, 11.5, 5.0), grid),
                filter_function(fo_sequence(9, 10, 11.5, 5.0), grid)]
        run = track_ocf(sig, pair, 5.0, 500.0, NoiseModel(seed=1))
        assert run.n_samples == 50
        assert run.block_duration == 10.0


class TestStaticRecovery:
    def test_fo_exact_noiseless(self, setup):
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.0, s_one, s_two)  # frozen at s2 = 1
        run = track_fo(sig, 10, 5.0, 200.0, NoiseModel(seed=3), grid=grid)
        np.testing.assert_allclose(run.s2_estimate, 1.0, atol=1e-6)
        np.testing.assert_allclose(run.s1_estimate, 0.0, atol=1e-6)
        assert run.rms_error() < 1e-6

    def test_ocf_exact_noiseless(self, setup):
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.0, s_one, s_two)
        pair = [filter_function(fo_sequence(3, 10, 11.5, 5.0), grid),
                filter_function(fo_sequence(9, 10, 11.5, 5.0), grid)]
        run = track_ocf(sig, pair, 5.0, 200.0, NoiseModel(seed=3))
        np.testing.assert_allclose(run.s2_estimate, 1.0, atol=1e-9)
        np.testing.assert_allclose(run.s1_estimate, 0.0, atol=1e-9)

    def test_drift_diagnostic_small_with_noise(self, setup):
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.004 * math.pi, s_one, s_two)
        run = track_fo(sig, 10, 5.0, 500.0, NoiseModel(dp_max=0.002, seed=5),
                       grid=grid)
        assert run.sum_drift() < 0.25


class TestDegenerate:
    def test_identical_components_rejected_fo(self, setup):
        grid, s_one, _ = setup
        sig = CompositeSignal(0.01, s_one, s_one)
        with pytest.raises(DegenerateComponentsError):
            track_fo(sig, 10, 5.0, 100.0, NoiseModel(seed=1), grid=grid)

    def test_identical_filters_rejected_ocf(self, setup):
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.01, s_one, s_two)
        filt = filter_function(fo_sequence(3, 10, 11.5, 5.0), grid)
        with pytest.raises(DegenerateComponentsError):
            track_ocf(sig, [filt, filt], 5.0, 100.0, NoiseModel(seed=1))


class TestDenseRms:
    def test_aliased_sampling_detected(self, setup):
        # at omega_osc = 0.01 pi the block sampler aliases onto a flat line;
        # the dense-grid error must still report the failure to follow
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.01 * math.pi, s_one, s_two)
        run = track_fo(sig, 10, 5.0, 500.0, NoiseModel(dp_max=0.002, seed=7),
                       grid=grid)
        assert run.rms_error() > 0.25
        good = np.isfinite(run.s2_estimate)
        at_samples = np.sqrt(np.mean((run.s2_estimate[good] - run.s2_true[good]) ** 2))
        assert at_samples < run.rms_error()
