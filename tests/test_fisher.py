import math

import numpy as np
import pytest

from noisespec import (EmptyOperatorError, FrequencyGrid, SpectralDensity,
                       build_fio, cramer_rao, default_grid, directional_fisher,
                       filter_function, fio_rank, fo_sequence)
from noisespec.filterfn import FilterFunction, signal_overlaps
from noisespec.fisher import ml_deviation_estimate
from noisespec.probe import NoiseModel, _readouts, survival_probability
from noisespec.reconstruct import ProtocolContext
from noisespec.seeding import derive_seed


#: survival probability of unit information per shot:
#: (1 - 2p)^2 / (4p(1 - p)) = 1 at p = (2 - sqrt 2) / 4
P_UNIT = (2.0 - math.sqrt(2.0)) / 4.0


def box(grid, lo, hi, height=1.0):
    values = np.where((grid.omegas >= lo) & (grid.omegas <= hi), height, 0.0)
    return FilterFunction(grid=grid, values=values, generator=None,
                          operation_time=1.0)


@pytest.fixture(scope="module")
def fo_filters():
    grid = default_grid(11.5)
    return [filter_function(fo_sequence(k, 20, 11.5, 5.0), grid)
            for k in range(1, 21)]


class TestBuild:
    def test_unit_weights(self, fo_filters):
        fio = build_fio(fo_filters, np.full(20, P_UNIT))
        np.testing.assert_allclose(fio.weights, 1.0)

    def test_weight_is_the_model_information(self, fo_filters):
        # p = (1 - exp(-x)) / 2 carries 1 / (exp(2x) - 1) per shot
        x = np.linspace(0.05, 3.0, 20)
        fio = build_fio(fo_filters, 0.5 * (1.0 - np.exp(-x)))
        np.testing.assert_allclose(fio.weights, 1.0 / np.expm1(2.0 * x), rtol=1e-12)

    def test_half_probability_carries_no_information(self, fo_filters):
        probs = np.full(20, 0.4)
        probs[[1, 7]] = 0.5
        fio = build_fio(fo_filters, probs)
        assert fio.n_terms == 18
        assert dict(fio.excluded) == {1: "zero-weight", 7: "zero-weight"}

    def test_degenerate_probabilities_excluded(self, fo_filters):
        probs = np.full(20, 0.4)
        probs[2] = 0.0
        probs[5] = 1.0
        fio = build_fio(fo_filters, probs)
        assert fio.n_terms == 18
        assert dict(fio.excluded) == {2: "divergent-weight", 5: "zero-weight"}

    def test_all_degenerate(self, fo_filters):
        with pytest.raises(EmptyOperatorError):
            build_fio(fo_filters, np.zeros(20))


class TestDirectional:
    def test_single_unit_overlap(self):
        grid = FrequencyGrid(10.0, 10001)
        filt = box(grid, 0.0, 1.0)
        direction = SpectralDensity.from_grid([0.0, 10.0], [1.0, 1.0])
        fio = build_fio([filt], [P_UNIT])
        # the box covers the nodes 0..1 inclusive; composite trapezoid weights
        # give that sampled box the integral 1 + d/2, and P_UNIT weighs it by 1
        overlap = 1.0 + 0.5 * grid.spacing
        assert directional_fisher(fio, direction) == pytest.approx(overlap ** 2,
                                                                   rel=1e-12)

    def test_orthogonal_direction(self):
        grid = FrequencyGrid(10.0, 1001)
        filt = box(grid, 0.0, 2.0)
        direction = SpectralDensity.from_grid([0.0, 2.005, 2.01, 10.0],
                                              [0.0, 0.0, 1.0, 1.0])
        fio = build_fio([filt], [P_UNIT])
        assert directional_fisher(fio, direction) == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_homogeneity(self, fo_filters):
        direction = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0)])
        fio = build_fio(fo_filters, np.full(20, 0.3))
        base = directional_fisher(fio, direction)
        doubled = directional_fisher(fio, direction.with_scale(2.0))
        assert doubled == pytest.approx(4 * base, rel=1e-12)

    def test_positive_semidefinite(self, fo_filters):
        fio = build_fio(fo_filters, np.full(20, 0.35))
        rng = np.random.default_rng(4)
        for _ in range(100):
            comps = [(rng.uniform(0.1, 2.0), rng.uniform(0, 10), rng.uniform(0.5, 3))]
            direction = SpectralDensity.lorentzian_mixture(comps)
            assert directional_fisher(fio, direction) >= 0.0

    def test_additivity_over_unions(self, fo_filters):
        direction = SpectralDensity.lorentzian_mixture([(1.0, 3.0, 1.0)])
        probs = np.linspace(0.2, 0.45, 20)
        fio_a = build_fio(fo_filters[:8], probs[:8])
        fio_b = build_fio(fo_filters[8:], probs[8:])
        fio_all = build_fio(fo_filters, probs)
        total = directional_fisher(fio_a, direction) + directional_fisher(fio_b, direction)
        # the terms are identical and positive; only the summation order
        # differs, so the sums agree to n * eps relative, not bit for bit
        assert directional_fisher(fio_all, direction) == pytest.approx(
            total, rel=20 * np.finfo(float).eps)


class TestCramerRao:
    def test_inverse_square_root(self):
        grid = FrequencyGrid(10.0, 10001)
        filt = box(grid, 0.0, 2.0)  # overlap 2 for flat S -> info 4 at P_UNIT
        direction = SpectralDensity.from_grid([0.0, 10.0], [1.0, 1.0])
        fio = build_fio([filt], [P_UNIT])
        assert cramer_rao(fio, direction) == pytest.approx(0.5, rel=1e-2)

    def test_infinite_bound(self):
        grid = FrequencyGrid(10.0, 1001)
        filt = box(grid, 0.0, 2.0)
        direction = SpectralDensity.from_grid([0.0, 2.005, 2.01, 10.0],
                                              [0.0, 0.0, 1.0, 1.0])
        fio = build_fio([filt], [P_UNIT])
        assert math.isinf(cramer_rao(fio, direction))


class TestRank:
    def test_full_rank_filter_set(self, fo_filters):
        fio = build_fio(fo_filters, np.full(20, 0.4))
        assert fio_rank(fio, tolerance=1e-12) == 20

    def test_duplicate_filter_reduces_rank(self, fo_filters):
        filters = list(fo_filters) + [fo_filters[10]]
        fio = build_fio(filters, np.full(21, 0.4))
        assert fio_rank(fio, tolerance=1e-12) == 20

    def test_rank_matches_overlap_matrix(self, fo_filters):
        from noisespec import overlap_matrix
        fio = build_fio(fo_filters, np.full(20, 0.4))
        A = overlap_matrix(fo_filters, fo_filters[0].grid.omega_max_grid)
        svals = np.linalg.svd(A, compute_uv=False)
        rank_a = int(np.count_nonzero(svals >= 1e-12 * svals[0]))
        assert fio_rank(fio, tolerance=1e-12) == rank_a


class TestMonteCarloBound:
    @pytest.mark.parametrize("gamma, shots", [(0.0, 2000), (0.0, 8000), (0.4, 2000),
                                              (0.4, 8000)],
                             ids=["gamma0-2000", "gamma0-8000", "gamma0.4-2000",
                                  "gamma0.4-8000"])
    def test_ml_estimator_respects_bound(self, gamma, shots):
        """The spread of the ML estimate from the probe's own shot readouts
        (raw frequencies, no detector error) meets the Cramer-Rao bound."""
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
        T = 5.0
        ctx = ProtocolContext("fo", spec, T)
        direction = SpectralDensity.lorentzian_mixture([(0.6, 4.0, 1.2)])
        repeats = 300
        c_base = ctx.c_true
        probs = survival_probability(c_base, gamma, T)
        fio = build_fio(ctx.filters, probs)
        d = signal_overlaps(direction, fio.filters)
        info = float(np.sum(fio.weights * d ** 2))
        bound = 1.0 / math.sqrt(shots * info)
        seeds = np.array([[derive_seed(55, rep, k) for k in range(ctx.K)]
                          for rep in range(repeats)], dtype=np.uint64)
        freqs, _, _ = _readouts(c_base, NoiseModel(gamma=gamma, shots=shots), T, seeds)
        estimates = np.array([ml_deviation_estimate(c_base, d, counts, shots, gamma=gamma,
                                                    operation_time=T)
                              for counts in np.rint(freqs * shots)])
        sd = estimates.std(ddof=1)
        se_sd = sd / math.sqrt(2 * (repeats - 1))
        # the ML estimate is efficient at these shot counts: its spread lies
        # within 3 se of the bound, on either side
        assert abs(sd - bound) <= 3 * se_sd
