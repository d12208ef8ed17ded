import math

import numpy as np
import pytest

from noisespec import (CompositeSignal, DegenerateComponentsError,
                       IllConditionedInversionError, NoiseModel,
                       SpectralDensity, default_grid, filter_function,
                       fo_sequence, overlap_matrix, reconstruct, track_fo, track_ocf,
                       tracking)
from noisespec.filterfn import FilterFunction, continuous_norm, signal_overlap
from noisespec.probe import measure, measure_batch
from noisespec.reconstruct import DEFAULT_TAU
from noisespec.seeding import derive_seed
from noisespec.spectra import calibrate_amplitude


def components(grid):
    s1 = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0)])
    s2 = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
    n1 = continuous_norm(s1, 10.0, grid)
    n2 = continuous_norm(s2, 10.0, grid)
    return s1.with_scale(1.0 / n1), s2.with_scale(1.0 / n2)


@pytest.fixture(scope="module")
def block():
    """The ten fo basis filters of one tracking block at T = 5."""
    grid = default_grid(11.5)
    return [filter_function(fo_sequence(k, 10, 11.5, 5.0), grid) for k in range(1, 11)]


def pair_of(grid, T=5.0):
    return [filter_function(fo_sequence(3, 10, 11.5, T), grid),
            filter_function(fo_sequence(9, 10, 11.5, T), grid)]


@pytest.fixture(scope="module")
def setup(block):
    grid = block[0].grid
    s_one, s_two = components(grid)
    alpha = calibrate_amplitude(
        SpectralDensity.lorentzian_mixture(
            [(0.5 * s_one.scale, 2.0, 1.0),
             (0.5 * s_two.scale, 2.0, 1.0), (0.35 * s_two.scale, 6.0, 2.0)]),
        block)
    return grid, s_one.with_scale(s_one.scale * alpha), s_two.with_scale(s_two.scale * alpha)


class TestSampleCounts:
    def test_block_sampling_arithmetic(self, setup, block):
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.004 * math.pi, s_one, s_two)
        run = track_fo(sig, block, 500.0, NoiseModel(seed=1))
        assert run.n_samples == 10
        assert run.block_duration == 50.0

    def test_pair_sampling_arithmetic(self, setup):
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.004 * math.pi, s_one, s_two)
        pair = [filter_function(fo_sequence(3, 10, 11.5, 5.0), grid),
                filter_function(fo_sequence(9, 10, 11.5, 5.0), grid)]
        run = track_ocf(sig, pair, 500.0, NoiseModel(seed=1))
        assert run.n_samples == 50
        assert run.block_duration == 10.0


class TestStaticRecovery:
    def test_fo_exact_noiseless(self, setup, block):
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.0, s_one, s_two)  # frozen at s2 = 1
        run = track_fo(sig, block, 200.0, NoiseModel(seed=3))
        np.testing.assert_allclose(run.s2_estimate, 1.0, atol=1e-6)
        np.testing.assert_allclose(run.s1_estimate, 0.0, atol=1e-6)
        assert run.rms_error() < 1e-6

    def test_ocf_exact_noiseless(self, setup):
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.0, s_one, s_two)
        pair = [filter_function(fo_sequence(3, 10, 11.5, 5.0), grid),
                filter_function(fo_sequence(9, 10, 11.5, 5.0), grid)]
        run = track_ocf(sig, pair, 200.0, NoiseModel(seed=3))
        np.testing.assert_allclose(run.s2_estimate, 1.0, atol=1e-9)
        np.testing.assert_allclose(run.s1_estimate, 0.0, atol=1e-9)

    def test_drift_diagnostic_small_with_noise(self, setup, block):
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.004 * math.pi, s_one, s_two)
        run = track_fo(sig, block, 500.0, NoiseModel(dp_max=0.002, seed=5))
        assert run.sum_drift() < 0.25


class TestDegenerate:
    def test_identical_components_rejected_fo(self, setup, block):
        grid, s_one, _ = setup
        sig = CompositeSignal(0.01, s_one, s_one)
        with pytest.raises(DegenerateComponentsError):
            track_fo(sig, block, 100.0, NoiseModel(seed=1))

    def test_identical_filters_rejected_ocf(self, setup):
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.01, s_one, s_two)
        filt = filter_function(fo_sequence(3, 10, 11.5, 5.0), grid)
        with pytest.raises(DegenerateComponentsError):
            track_ocf(sig, [filt, filt], 100.0, NoiseModel(seed=1))

    @pytest.mark.parametrize("method", ["fo", "ocf"])
    def test_proportional_components_carry_condition(self, setup, block, method):
        """Both trackers refuse through the one inversion guard: the error
        is an IllConditionedInversionError with its condition number."""
        grid, s_one, _ = setup
        sig = CompositeSignal(0.01, s_one, s_one.with_scale(2.0 * s_one.scale))
        with pytest.raises(DegenerateComponentsError) as info:
            if method == "fo":
                track_fo(sig, block, 100.0, NoiseModel(seed=1))
            else:
                track_ocf(sig, pair_of(grid), 100.0, NoiseModel(seed=1))
        assert isinstance(info.value, IllConditionedInversionError)
        assert info.value.condition_number > reconstruct._COND_LIMIT


class TestDenseRms:
    def test_aliased_sampling_detected(self, setup, block):
        # at omega_osc = 0.01 pi the block sampler aliases onto a flat line;
        # the dense-grid error must still report the failure to follow
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.01 * math.pi, s_one, s_two)
        run = track_fo(sig, block, 500.0, NoiseModel(dp_max=0.002, seed=7))
        assert run.rms_error() > 0.25
        good = np.isfinite(run.s2_estimate)
        at_samples = np.sqrt(np.mean((run.s2_estimate[good] - run.s2_true[good]) ** 2))
        assert at_samples < run.rms_error()


class TestSampler:
    @pytest.mark.parametrize("method", ["fo", "ocf"])
    def test_readouts_are_midpoint_measurements(self, setup, block, monkeypatch, method):
        # filter i of sample n reads the coefficients frozen at its own
        # midpoint, on the stream derive_seed(noise seed, n, i)
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.01 * math.pi, s_one, s_two)
        noise = NoiseModel(dp_max=0.05, gamma=0.1, seed=11)
        readouts = []

        def recording(*args):
            out = measure_batch(*args)
            readouts.append(out[0])
            return out

        monkeypatch.setattr(tracking, "measure_batch", recording)
        filters = block if method == "fo" else pair_of(grid)
        G = np.array([[signal_overlap(s, f) for s in (s_one, s_two)] for f in filters])
        if method == "fo":
            run = track_fo(sig, filters, 100.0, noise)
        else:
            run = track_ocf(sig, filters, 100.0, noise)
            G = G / np.diag(G).copy()[:, None]
        (c_hats,) = readouts
        T, k = 5.0, len(filters)
        assert c_hats.shape == (run.n_samples, k)
        expected = np.empty_like(c_hats)
        for n in range(run.n_samples):
            for i in range(k):
                s1, s2 = sig.weights(n * k * T + (i + 0.5) * T)
                stream = NoiseModel(dp_max=0.05, gamma=0.1, seed=derive_seed(11, n))
                expected[n, i] = measure(s1 * G[i, 0] + s2 * G[i, 1], stream, T,
                                         filter_index=i).c_estimate
        np.testing.assert_array_equal(c_hats, expected)

    def test_truth_is_weights_at_sample_midpoints(self, setup, block):
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.01 * math.pi, s_one, s_two)
        run = track_fo(sig, block, 200.0, NoiseModel(seed=2))
        for n, t in enumerate(run.sample_times.tolist()):
            assert t == n * 50.0 + 25.0
            s1, s2 = sig.weights(t)
            assert (run.s1_true[n], run.s2_true[n]) == (s1, s2)

    def test_mismatched_operation_times_rejected(self, setup, block):
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.01, s_one, s_two)
        mixed = [pair_of(grid)[0], pair_of(grid, T=3.0)[1]]
        with pytest.raises(ValueError, match="operation time"):
            track_ocf(sig, mixed, 100.0, NoiseModel(seed=1))
        with pytest.raises(ValueError, match="operation time"):
            track_fo(sig, block[:9] + [pair_of(grid, T=3.0)[0]], 100.0, NoiseModel(seed=1))

    def test_saturated_readout_fits_on_kept_subset(self, setup, block, monkeypatch):
        # a block whose filter 3 saturated fits exactly as the block of the
        # nine other filters would on the same readouts
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.0, s_one, s_two)
        c_true = np.array([signal_overlap(s_two, f) for f in block])
        c_hat = c_true * (1.0 + 0.01 * np.random.default_rng(0).standard_normal(10))
        c_hat[3] = math.inf
        kept = [i for i in range(10) if i != 3]
        rows = iter([c_hat, c_hat[kept]])
        monkeypatch.setattr(tracking, "measure_batch",
                            lambda c, noise, T, seeds: (next(rows)[None, :], None))
        full = track_fo(sig, block, 50.0, NoiseModel(seed=1))
        subset = track_fo(sig, [block[i] for i in kept], 45.0, NoiseModel(seed=1))
        assert full.n_samples == subset.n_samples == 1
        assert np.isfinite(full.s2_estimate[0])
        np.testing.assert_allclose([full.s1_estimate[0], full.s2_estimate[0]],
                                   [subset.s1_estimate[0], subset.s2_estimate[0]],
                                   rtol=1e-9, atol=1e-12)
        assert abs(full.s2_estimate[0] - 1.0) < 0.1

    @pytest.mark.parametrize("eig_keep", [0, 2.0])
    def test_rule_retaining_nothing_gives_nan(self, setup, block, eig_keep):
        # no retained basis, so no sample has a fit
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.01, s_one, s_two)
        run = track_fo(sig, block, 100.0, NoiseModel(seed=1), eig_keep=eig_keep)
        assert run.n_samples == 2
        assert np.isnan(run.s1_estimate).all() and np.isnan(run.s2_estimate).all()

    @pytest.mark.parametrize("eig_keep", [-1, -0.5, math.nan, "loo"])
    def test_bad_rule_rejected(self, setup, block, eig_keep):
        grid, s_one, s_two = setup
        sig = CompositeSignal(0.01, s_one, s_two)
        with pytest.raises(ValueError, match="^(unknown retention rule|retention rule must)"):
            track_fo(sig, block, 100.0, NoiseModel(seed=1), eig_keep=eig_keep)


def _three_reconstruction_fit(A, c_hat, G, eig_keep):
    """The block fit as three reconstructions: ``P`` from the retained
    eigenpairs of the kept block, ``b = P c``, ``b_i = P G[:, i]``, and the
    least squares of ``b`` against the ``b_i`` in the metric of the block."""
    kept = np.flatnonzero(np.isfinite(c_hat))
    sub = A[np.ix_(kept, kept)]
    rule = reconstruct._resolve_rule(sub, c_hat[kept], eig_keep)
    lam, U = np.linalg.eigh(sub)
    lam, U = lam[::-1], U[:, ::-1]
    r = reconstruct._retained_count(lam, rule)
    P = (U[:, :r] / lam[:r]) @ U[:, :r].T
    b = P @ c_hat[kept]
    bs = [P @ G[kept, i] for i in range(2)]
    gram = np.array([[b_i @ sub @ b_j for b_j in bs] for b_i in bs])
    return np.linalg.solve(gram, np.array([b_i @ sub @ b for b_i in bs]))


class TestFitBlock:
    @pytest.mark.parametrize("eig_keep", [DEFAULT_TAU, "cv"])
    @pytest.mark.parametrize("saturated", [False, True], ids=["finite", "one-inf"])
    @pytest.mark.parametrize("K", [6, 10])
    def test_is_the_three_reconstruction_fit(self, setup, K, saturated, eig_keep):
        grid, s_one, s_two = setup
        filters = [filter_function(fo_sequence(k, K, 11.5, 5.0), grid) for k in range(1, K + 1)]
        G = np.array([[signal_overlap(s, f) for s in (s_one, s_two)] for f in filters])
        A = overlap_matrix(filters, 10.0)
        rng = np.random.default_rng(K)
        for s1 in np.linspace(0.0, 1.0, 6):
            c_hat = (G @ [s1, 1.0 - s1]) * (1.0 + 0.05 * rng.standard_normal(K))
            if saturated:
                c_hat[rng.integers(K)] = math.inf
            np.testing.assert_allclose(tracking._fit_block(A, c_hat, G, eig_keep),
                                       _three_reconstruction_fit(A, c_hat, G, eig_keep),
                                       rtol=1e-11, atol=1e-12)

    @pytest.mark.parametrize("eig_keep", [0, 2.0])
    def test_rule_retaining_nothing_gives_nan(self, setup, block, eig_keep):
        grid, s_one, s_two = setup
        G = np.array([[signal_overlap(s, f) for s in (s_one, s_two)] for f in block])
        fit = tracking._fit_block(overlap_matrix(block, 10.0), G.sum(axis=1), G, eig_keep)
        assert np.isnan(fit).all()
