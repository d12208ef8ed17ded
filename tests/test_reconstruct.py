import math
import multiprocessing
import multiprocessing.pool

import numpy as np
import pytest

from noisespec import (DegenerateBasisError, NoiseModel, SpectralDensity,
                       UndefinedFidelityError, as_reconstruct, default_grid,
                       fidelity, filter_function, fo_reconstruct, fo_sequence,
                       measure, overlap_matrix, run_repetitions, scan_optimal_time)
from noisespec import cli
from noisespec.filterfn import FilterFunction, signal_overlap
from noisespec.reconstruct import DEFAULT_TAU, ProtocolContext, bin_matrix
from noisespec.seeding import derive_seed

OMEGA_C = 10.0


@pytest.fixture(scope="module")
def fo_setup():
    grid = default_grid(11.5)
    filters = [filter_function(fo_sequence(k, 20, 11.5, 5.0), grid)
               for k in range(1, 21)]
    A = overlap_matrix(filters, OMEGA_C)
    return grid, filters, A


def banded_spectrum(grid, filters, coefficients, omega_c=OMEGA_C):
    """Positive filter combination with support restricted to [0, omega_c].

    The sample at the node ``omega_c`` stays: it is in band, and zeroing it
    would take the spectrum out of the filter span.  Its interpolant reaches
    half a cell past ``omega_c``, so overlaps meant to match the band-limited
    overlap matrix must be integrated with ``omega_int_max=omega_c``.
    """
    values = np.zeros(grid.size)
    for a, f in zip(coefficients, filters):
        values += a * f.values
    values[grid.omegas > omega_c] = 0.0
    return SpectralDensity.from_grid(grid.omegas, values)


class TestInSpanExactness:
    def test_reproduces_span_member(self, fo_setup):
        grid, filters, A = fo_setup
        rng = np.random.default_rng(0)
        coeffs = rng.uniform(0.05, 1.0, 20)
        spec = banded_spectrum(grid, filters, coeffs)
        # integrate the noiseless coefficients over the analysis band; a
        # full-range trapezoid would split the support-edge cell differently
        # from the overlap matrix and leave a boundary artifact ~1e-3
        c = np.array([signal_overlap(spec, f, omega_int_max=OMEGA_C)
                      for f in filters])
        rec = fo_reconstruct(filters, c, OMEGA_C, eig_keep=20, overlap=A)
        truth = spec.evaluate(rec.omegas)
        err = np.linalg.norm(rec.values - truth) / np.linalg.norm(truth)
        assert err < 1e-6

    def test_orthonormality_of_retained_basis(self, fo_setup):
        grid, filters, A = fo_setup
        lam, U = np.linalg.eigh(A)
        lam, U = lam[::-1], U[:, ::-1]
        retained = 14
        w = grid.trap_weights(OMEGA_C)
        stacked = np.vstack([f.values for f in filters])
        f_tilde = (U[:, :retained] / np.sqrt(lam[:retained])).T @ stacked
        gram = (f_tilde * w) @ f_tilde.T
        assert np.max(np.abs(gram - np.eye(retained))) < 1e-8

    def test_projection_residual_orthogonal(self, fo_setup):
        grid, filters, A = fo_setup
        spec = SpectralDensity.lorentzian_mixture(
            [(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
        values = spec.evaluate(grid.omegas)
        values[grid.omegas > OMEGA_C] = 0.0
        banded = SpectralDensity.from_grid(grid.omegas, values)
        # band-integrated coefficients, as in test_reproduces_span_member: the
        # nonzero sample at the node omega_c leaks half a cell past the band
        c = np.array([signal_overlap(banded, f, omega_int_max=OMEGA_C)
                      for f in filters])
        retained = 14
        rec = fo_reconstruct(filters, c, OMEGA_C, eig_keep=retained, overlap=A)
        w = grid.trap_weights(OMEGA_C)
        residual = banded.evaluate(grid.omegas[:rec.omegas.size]) - rec.values
        lam, U = np.linalg.eigh(A)
        lam, U = lam[::-1], U[:, ::-1]
        stacked = np.vstack([f.values[:rec.omegas.size] for f in filters])
        f_tilde = (U[:, :retained] / np.sqrt(lam[:retained])).T @ stacked
        inner = f_tilde @ (w[:rec.omegas.size] * residual)
        assert np.max(np.abs(inner)) < 1e-6

    def test_degenerate_basis_raises(self, fo_setup):
        grid, _, _ = fo_setup
        zero = FilterFunction(grid=grid, values=np.zeros(grid.size),
                              generator=None, operation_time=1.0)
        with pytest.raises(DegenerateBasisError):
            fo_reconstruct([zero, zero], np.array([0.1, 0.2]), OMEGA_C)

    def test_saturated_filters_dropped(self, fo_setup):
        grid, filters, A = fo_setup
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0)])
        c = np.array([signal_overlap(spec, f) for f in filters])
        c_bad = c.copy()
        c_bad[3] = math.inf
        rec = fo_reconstruct(filters, c_bad, OMEGA_C, eig_keep=10, overlap=A)
        assert 3 not in rec.kept_indices
        assert rec.kept_indices.size == 19


class TestPointwise:
    def test_forward_inverse_consistency(self, fo_setup):
        from noisespec import as_sequence
        grid, _, _ = fo_setup
        K, T, omega_max = 20, 25.0, 10.0
        filters = [filter_function(as_sequence(k, K, omega_max, T), grid)
                   for k in range(1, K + 1)]
        M = bin_matrix(filters, omega_max)
        rng = np.random.default_rng(1)
        s_true = rng.uniform(0.2, 1.0, K)
        c = M @ s_true
        rec = as_reconstruct(filters, c, omega_max, bins=M)
        np.testing.assert_allclose(rec.values, s_true, rtol=1e-2)

    def test_delta_approx_mode(self, fo_setup):
        grid, _, _ = fo_setup
        import noisespec as ns
        K, T, omega_max = 20, 25.0, 10.0
        filters = [filter_function(ns.as_sequence(k, K, omega_max, T), grid)
                   for k in range(1, K + 1)]
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
        c = np.array([signal_overlap(spec, f) for f in filters])
        rec = as_reconstruct(filters, c, omega_max, delta_approx=True)
        fid = fidelity(spec, rec, rec.omegas)
        assert fid > 0.99


class TestFidelity:
    def simple(self):
        return SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0)])

    def test_identity(self):
        spec = self.simple()
        pts = np.linspace(0.5, 10, 20)
        assert fidelity(spec, spec, pts) == pytest.approx(1.0)

    def test_scale_invariance(self):
        spec = self.simple()
        pts = np.linspace(0.5, 10, 20)
        assert fidelity(spec, spec.with_scale(7.3), pts) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        spec = SpectralDensity.from_grid([0, 1, 2, 3], [1.0, 0.0, 0.0, 0.0])
        other = SpectralDensity.from_grid([0, 1, 2, 3], [0.0, 0.0, 1.0, 0.0])
        assert fidelity(spec, other, [0.0, 2.0]) == pytest.approx(0.0)

    def test_zero_norm_error(self):
        spec = self.simple()
        zero = SpectralDensity.from_grid([0, 20], [0.0, 0.0])
        with pytest.raises(UndefinedFidelityError):
            fidelity(spec, zero, [1.0, 2.0])

    def test_bounded(self):
        rng = np.random.default_rng(2)
        pts = np.linspace(0.5, 10, 20)
        base = SpectralDensity.from_grid(np.linspace(0, 10, 21),
                                         rng.uniform(0, 1, 21))
        for _ in range(20):
            other = SpectralDensity.from_grid(np.linspace(0, 10, 21),
                                              rng.uniform(-1, 1, 21))
            val = fidelity(base, other, pts)
            assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


class TestRetention:
    def test_truncation_helps_under_heavy_noise(self):
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
        ctx = ProtocolContext("fo", spec, 5.0)
        wins = 0
        seeds = 100
        for rep in range(seeds):
            noise = NoiseModel(dp_max=0.05, gamma=0.4,
                               seed=derive_seed(13, rep))
            records = [measure(ctx.c_true[k], noise, 5.0, filter_index=k)
                       for k in range(20)]
            c_hat = np.array([r.c_estimate for r in records])
            fids = {}
            for R in (10, 20):
                try:
                    rec = fo_reconstruct(ctx.filters, c_hat, OMEGA_C,
                                         eig_keep=R, overlap=ctx.overlap)
                    fids[R] = fidelity(ctx.spectrum, rec, ctx.fidelity_points)
                except DegenerateBasisError:
                    fids[R] = 0.0
            if fids[10] > fids[20]:
                wins += 1
        assert wins >= 60

    def test_cv_rule_runs_and_limits_retention(self):
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
        ctx = ProtocolContext("fo", spec, 2.0)
        noise = NoiseModel(dp_max=0.01, gamma=0.0, seed=7)
        records = [measure(ctx.c_true[k], noise, 2.0, filter_index=k)
                   for k in range(20)]
        c_hat = np.array([r.c_estimate for r in records])
        rec = fo_reconstruct(ctx.filters, c_hat, OMEGA_C, eig_keep="cv",
                             overlap=ctx.overlap)
        assert 1 <= rec.retained_count <= 12


class TestScan:
    def test_scan_shapes_and_determinism(self):
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
        res1 = scan_optimal_time("fo", spec, 0.4, [2.0, 7.0], repetitions=5,
                                 master_seed=99)
        res2 = scan_optimal_time("fo", spec, 0.4, [2.0, 7.0], repetitions=5,
                                 master_seed=99)
        np.testing.assert_array_equal(res1.fidelity_mean, res2.fidelity_mean)
        assert res1.best_time == 2.0
        assert res1.fidelity_se.shape == (2,)

    def test_empty_candidates_rejected(self):
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0)])
        with pytest.raises(ValueError):
            scan_optimal_time("fo", spec, 0.0, [], repetitions=2, master_seed=1)

    def test_workers_keep_the_scan(self):
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
        serial, pooled = (scan_optimal_time("fo", spec, 0.4, [2.0, 7.0], repetitions=5,
                                            master_seed=99, workers=w) for w in (1, 2))
        np.testing.assert_array_equal(serial.fidelity_mean, pooled.fidelity_mean)
        np.testing.assert_array_equal(serial.fidelity_se, pooled.fidelity_se)
        assert serial.best_time == pooled.best_time


@pytest.fixture(scope="module")
def engine_cells():
    spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
    fo = ProtocolContext("fo", spec, 2.0, K=10)
    as_ = ProtocolContext("as", spec, 10.0, K=10)
    return [(fo, NoiseModel(dp_max=0.01, gamma=0.4, seed=derive_seed(5, 0)), DEFAULT_TAU, False),
            (as_, NoiseModel(dp_max=0.02, seed=derive_seed(5, 1)), DEFAULT_TAU, True),
            (fo, NoiseModel(dp_max=0.05, shots=200, seed=derive_seed(5, 2)), 4, False)]


class TestRepetitionEngine:
    def test_worker_count_keeps_every_fidelity(self, engine_cells):
        serial = run_repetitions(engine_cells, 6)
        assert serial.shape == (3, 6)
        np.testing.assert_array_equal(run_repetitions(engine_cells, 6, workers=2), serial)

    def test_rows_follow_the_documented_seeds(self, engine_cells):
        fids = run_repetitions(engine_cells, 4)
        for row, (ctx, noise, eig_keep, as_delta) in zip(fids, engine_cells):
            for rep, fid in enumerate(row):
                expected, _ = ctx.run_once(
                    NoiseModel(dp_max=noise.dp_max, gamma=noise.gamma, shots=noise.shots,
                               seed=derive_seed(noise.seed, rep)),
                    eig_keep=eig_keep, as_delta=as_delta)
                assert fid == expected

    def test_serial_fallback_without_fork(self, engine_cells, monkeypatch):
        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        np.testing.assert_array_equal(run_repetitions(engine_cells, 3, workers=2),
                                      run_repetitions(engine_cells, 3))

    def test_one_pool_per_run(self, tmp_path, monkeypatch):
        pools = []
        init = multiprocessing.pool.Pool.__init__

        def counting_init(self, *args, **kwargs):
            pools.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", counting_init)
        cfg = cli.preset_config("fig3-fidelity-vs-gamma", quick=True)
        cli.run_scenario(cfg, str(tmp_path), workers=2)
        assert len(pools) == 1
