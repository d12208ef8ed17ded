import math
import multiprocessing
import multiprocessing.pool
import os
from dataclasses import replace

import numpy as np
import pytest

from noisespec import (CalibrationError, DegenerateBasisError, GridRangeError,
                       IllConditionedInversionError, NoiseModel,
                       NonFiniteInputError, SpectralDensity, UndefinedFidelityError,
                       as_reconstruct, default_grid,
                       fidelity, filter_function, fo_reconstruct, fo_sequence,
                       measure, measure_batch, overlap_matrix, run_repetitions,
                       scan_optimal_time)
from noisespec import cli, reconstruct
from noisespec.filterfn import FilterFunction, signal_overlap
from noisespec.reconstruct import DEFAULT_TAU, ProtocolContext, bin_matrix, run_jobs
from noisespec.seeding import derive_seed, derive_seed_array

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

    def test_cv_decomposes_each_kept_set_once(self, monkeypatch):
        """A block under "cv" builds the cross-validation folds once per kept
        set, and every row gets the threshold its own full selection picks."""
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
        ctx = ProtocolContext("fo", spec, 5.0, eig_keep="cv")
        rows = _estimate_rows(ctx, _SATURATING, 40)
        rows[::5, 2] = math.inf
        rows[1::7, [0, 9]] = math.inf
        kept = np.isfinite(rows)
        kept_sets = {m.tobytes() for m in kept}
        assert len(kept_sets) >= 3
        folds, rules = [], []
        cv_folds, cv_threshold = reconstruct._cv_folds, reconstruct._cv_threshold
        monkeypatch.setattr(reconstruct, "_cv_folds",
                            lambda A: folds.append(A.shape) or cv_folds(A))
        monkeypatch.setattr(reconstruct, "_cv_threshold",
                            lambda f, c: rules.append(cv_threshold(f, c)) or rules[-1])
        ctx._score_block(rows)
        assert len(folds) == len(kept_sets)
        monkeypatch.undo()
        assert rules == [reconstruct.select_retention_threshold(
            ctx.overlap[np.ix_(m, m)], row[m]) for row, m in zip(rows, kept)]

    def test_unknown_rule_rejected(self):
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0)])
        with pytest.raises(ValueError, match="unknown retention rule 'loo'"):
            ProtocolContext("fo", spec, 2.0, K=6, eig_keep="loo")

    @pytest.mark.parametrize("eig_keep", [-1, -3, -0.5, math.nan])
    def test_negative_rule_rejected(self, eig_keep, monkeypatch):
        """Before building anything: a negative count kept -1 terms and
        scored a NaN-laden or negative fidelity."""
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0)])
        monkeypatch.setattr(reconstruct, "filter_function",
                            lambda *a: pytest.fail("built filters under a bad rule"))
        with pytest.raises(ValueError, match=f"retention rule must be >= 0, got {eig_keep}"):
            ProtocolContext("fo", spec, 2.0, K=6, eig_keep=eig_keep)

    @pytest.mark.parametrize("eig_keep", ["loo", -1, -3, -0.5, math.nan])
    def test_bad_rule_rejected_by_fo_reconstruct(self, fo_setup, eig_keep):
        grid, filters, A = fo_setup
        with pytest.raises(ValueError, match="^(unknown retention rule|retention rule must)"):
            fo_reconstruct(filters, np.ones(20), OMEGA_C, eig_keep=eig_keep, overlap=A)


class TestContextInput:
    @pytest.mark.parametrize("kwargs", [{"operation_time": math.nan},
                                        {"operation_time": math.inf},
                                        {"operation_time": 2.0, "omega_c": math.nan}])
    def test_non_finite_rejected(self, kwargs):
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0)])
        with pytest.raises(NonFiniteInputError):
            ProtocolContext("fo", spec, **kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        ({"operation_time": 2.0, "omega_c": -1.0}, "omega_c"),
        ({"operation_time": 2.0, "omega_c": 0.0}, "omega_c"),
        ({"operation_time": 2.0, "omega_max": -3.0}, "omega_max"),
        ({"operation_time": -2.0}, "operation_time"),
        ({"operation_time": 0.0}, "operation_time")])
    def test_non_positive_rejected(self, kwargs, name):
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0)])
        with pytest.raises(GridRangeError, match=f"^{name} must be > 0"):
            ProtocolContext("fo", spec, **kwargs)

    @pytest.mark.parametrize("K", [0, -1])
    def test_no_filters_rejected(self, K):
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0)])
        with pytest.raises(CalibrationError, match=f"^K must be >= 1, got {K}"):
            ProtocolContext("fo", spec, 2.0, K=K)


def _fo_scan(spec, gamma, times, seed):
    """fo contexts at ``times`` under detector error 0.01 and ``gamma``."""
    return ([ProtocolContext("fo", spec, T) for T in times],
            NoiseModel(dp_max=0.01, gamma=gamma, seed=seed))


@pytest.fixture(scope="module")
def uneven_scans():
    """Scans of fo at three times and as at one, each at two gammas, with
    the noise at ``derive_seed(7, gi, pi)``, as a gamma scan builds them."""
    spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
    rows = [[ProtocolContext("fo", spec, T, K=10) for T in (1.0, 2.0, 5.0)],
            [ProtocolContext("as", spec, 25.0, K=10)]]
    return [(row, NoiseModel(dp_max=0.01, gamma=gamma, seed=derive_seed(7, gi, pi)))
            for pi, row in enumerate(rows) for gi, gamma in enumerate((0.0, 0.4))]


def _same_scans(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        for name in ("times", "fidelity_mean", "fidelity_se"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert a.best == b.best and a.best_time == b.best_time


class TestScan:
    def test_scan_shapes_and_determinism(self):
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
        res1, = scan_optimal_time([_fo_scan(spec, 0.4, [2.0, 7.0], 99)], repetitions=5)
        res2, = scan_optimal_time([_fo_scan(spec, 0.4, [2.0, 7.0], 99)], repetitions=5)
        np.testing.assert_array_equal(res1.fidelity_mean, res2.fidelity_mean)
        assert res1.best_time == 2.0
        assert res1.fidelity_se.shape == (2,)

    def test_empty_candidates_rejected(self):
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0)])
        with pytest.raises(ValueError):
            scan_optimal_time([_fo_scan(spec, 0.0, [], 1)], repetitions=2)

    def test_workers_keep_the_scan(self):
        spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
        serial, pooled = (scan_optimal_time([_fo_scan(spec, 0.4, [2.0, 7.0], 99)],
                                            repetitions=5, workers=w)[0] for w in (1, 2))
        np.testing.assert_array_equal(serial.fidelity_mean, pooled.fidelity_mean)
        np.testing.assert_array_equal(serial.fidelity_se, pooled.fidelity_se)
        assert serial.best_time == pooled.best_time

    def test_several_scans_equal_each_alone(self, uneven_scans):
        together = scan_optimal_time(uneven_scans, repetitions=4)
        _same_scans(together, [scan_optimal_time([scan], repetitions=4)[0]
                               for scan in uneven_scans])
        # candidate t of the scan at derive_seed(7, gi, pi) draws from
        # derive_seed(7, gi, pi, t), the seed of a flat (protocol, gamma, T) cell
        for (gi, pi), (contexts, noise), result in zip(
                [(0, 0), (1, 0), (0, 1), (1, 1)], uneven_scans, together):
            cells = [(ctx, replace(noise, seed=derive_seed(7, gi, pi, ti)))
                     for ti, ctx in enumerate(contexts)]
            means = [reconstruct.mean_se(f)[0] for f in run_repetitions(cells, 4)]
            assert np.array(means).tobytes() == result.fidelity_mean.tobytes()

    def test_rows_of_unequal_length(self, uneven_scans):
        results = scan_optimal_time(uneven_scans, repetitions=4)
        assert [r.times.tolist() for r in results] == [[1.0, 2.0, 5.0]] * 2 + [[25.0]] * 2
        for r in results:
            assert r.fidelity_mean.shape == r.fidelity_se.shape == r.times.shape
            assert r.best == int(np.argmax(r.fidelity_mean))
            assert r.best_time == r.times[r.best]

    def test_empty_row_rejected(self, uneven_scans, monkeypatch):
        monkeypatch.setattr(reconstruct, "run_repetitions",
                            lambda *a, **k: pytest.fail("ran a scan with an empty row"))
        with pytest.raises(ValueError, match="at least one candidate"):
            scan_optimal_time([*uneven_scans, ([], uneven_scans[0][1])], repetitions=4)

    def test_workers_keep_several_scans(self, uneven_scans):
        _same_scans(scan_optimal_time(uneven_scans, repetitions=4, workers=2),
                    scan_optimal_time(uneven_scans, repetitions=4))


@pytest.fixture(scope="module")
def engine_cells():
    spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
    return [(ProtocolContext("fo", spec, 2.0, K=10),
             NoiseModel(dp_max=0.01, gamma=0.4, seed=derive_seed(5, 0))),
            (ProtocolContext("as", spec, 10.0, K=10, as_delta=True),
             NoiseModel(dp_max=0.02, seed=derive_seed(5, 1))),
            (ProtocolContext("fo", spec, 2.0, K=10, eig_keep=4),
             NoiseModel(dp_max=0.05, shots=200, seed=derive_seed(5, 2)))]


_BLOCK = reconstruct._BLOCK
# repetition counts within one block and across the edge of the first:
# 1, _BLOCK - 1 and _BLOCK make one job, _BLOCK + 1 makes two
_BLOCK_EDGES = sorted({1, 255, 256, 257, _BLOCK - 1, _BLOCK, _BLOCK + 1})


@pytest.fixture(scope="module")
def run_once_fidelities(engine_cells):
    """``run_once`` of each engine cell at its first ``_BLOCK + 1``
    repetition seeds."""
    return np.array([[ctx.run_once(replace(noise, seed=derive_seed(noise.seed, rep)))[0]
                      for rep in range(max(_BLOCK_EDGES))]
                     for ctx, noise in engine_cells])


class TestRepetitionEngine:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("repetitions", _BLOCK_EDGES)
    def test_blocks_equal_run_once(self, engine_cells, run_once_fidelities,
                                   repetitions, workers):
        fids = run_repetitions(engine_cells, repetitions, workers=workers)
        np.testing.assert_array_equal(fids, run_once_fidelities[:, :repetitions])

    def test_worker_count_keeps_every_fidelity(self, engine_cells):
        serial = run_repetitions(engine_cells, 6)
        assert serial.shape == (3, 6)
        np.testing.assert_array_equal(run_repetitions(engine_cells, 6, workers=2), serial)

    def test_rows_follow_the_documented_seeds(self, engine_cells):
        fids = run_repetitions(engine_cells, 4)
        for row, (ctx, noise) in zip(fids, engine_cells):
            for rep, fid in enumerate(row):
                expected, _ = ctx.run_once(
                    NoiseModel(dp_max=noise.dp_max, gamma=noise.gamma, shots=noise.shots,
                               seed=derive_seed(noise.seed, rep)))
                assert fid == expected

    def test_cells_with_different_rules_equal_each_alone(self, two_line_spectrum):
        """One run over contexts that differ only in their rule or variant,
        under one noise model, equals each context run alone."""
        noise = NoiseModel(dp_max=0.02, gamma=0.3, seed=31)
        cells = [(ProtocolContext(protocol, two_line_spectrum, T, K=10, eig_keep=eig_keep,
                                  as_delta=as_delta), noise)
                 for protocol, T, eig_keep, as_delta in [
                     ("fo", 5.0, "cv", False), ("fo", 5.0, 3, False),
                     ("fo", 5.0, DEFAULT_TAU, False), ("as", 10.0, DEFAULT_TAU, False),
                     ("as", 10.0, DEFAULT_TAU, True)]]
        together = run_repetitions(cells, 300)
        alone = np.vstack([run_repetitions([cell], 300) for cell in cells])
        assert together.tobytes() == alone.tobytes()
        assert len({row.tobytes() for row in together}) == len(cells)

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

    @pytest.mark.parametrize("workers, repetitions, processes", [
        (2, 1, []), (9, 1, []), (9, _BLOCK // 2 + 1, []), (2, 600, [2]),
        (9, _BLOCK + 1, [2])])
    def test_pool_size(self, engine_cells, monkeypatch, workers, repetitions, processes):
        """A pool has no more processes than jobs, and a single job runs
        without one; whatever it asks for, at most 2 start here."""
        asked = _clamped_pools(monkeypatch)
        cell = engine_cells[:1]
        np.testing.assert_array_equal(run_repetitions(cell, repetitions, workers=workers),
                                      run_repetitions(cell, repetitions))
        assert asked == processes


def _clamped_pools(monkeypatch):
    """The process counts asked of every pool, each started with at most 2."""
    asked = []
    init = multiprocessing.pool.Pool.__init__

    def counting_init(self, processes=None, *args, **kwargs):
        asked.append(processes)
        init(self, min(processes, 2), *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", counting_init)
    return asked


def _square(i):
    return np.full(3, float(i * i))


class TestRunJobs:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_serial(self, workers):
        """A closure (which pickle refuses) reaches the workers, and with a
        pool every job runs in a child process."""
        table = {i: _square(i) for i in range(7)}
        got = run_jobs(lambda i: (table[i], os.getpid()), 7, workers)
        for i, (value, pid) in enumerate(got):
            np.testing.assert_array_equal(value, _square(i))
            assert (pid == os.getpid()) == (workers == 1)

    def test_serial_fallback_without_fork(self, monkeypatch):
        def no_fork(method=None):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        pid = os.getpid()
        assert run_jobs(lambda i: (i, os.getpid()), 3, 2) == [(0, pid), (1, pid), (2, pid)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_job_error_raised_once(self, tmp_path, workers):
        """A job's error reaches the caller with its type and fields, and no
        job runs twice (a rerun would find its marker file and fail with
        FileExistsError instead)."""
        def job(i):
            (tmp_path / str(i)).touch(exist_ok=False)
            if i == 2:
                raise IllConditionedInversionError("job 2 failed", condition_number=5.0)
            return i

        with pytest.raises(IllConditionedInversionError, match="job 2 failed") as info:
            run_jobs(job, 4, workers)
        assert info.value.condition_number == 5.0
        assert (tmp_path / "2").exists()

    @pytest.mark.parametrize("workers, n, processes", [
        (2, 0, []), (2, 1, []), (9, 1, []), (1, 5, []), (2, 5, [2]), (9, 3, [3])])
    def test_pool_size(self, monkeypatch, workers, n, processes):
        """A pool has min(workers, n) processes, and one job or one worker
        runs without a pool; whatever it asks for, at most 2 start here."""
        asked = _clamped_pools(monkeypatch)
        got = run_jobs(_square, n, workers)
        assert asked == processes
        assert len(got) == n
        for i, value in enumerate(got):
            np.testing.assert_array_equal(value, _square(i))

    @pytest.mark.parametrize("name", ["fig8-ocf-lorentzian", "fig10-ocf-double",
                                      "fig12-tracking-slow"])
    def test_one_pool_per_design_run(self, tmp_path, monkeypatch, name):
        asked = _clamped_pools(monkeypatch)
        cli.run_scenario(cli.preset_config(name, quick=True), str(tmp_path), workers=2)
        assert len(asked) == 1


def _estimate_rows(ctx, noise, repetitions):
    """Inverted readouts of ``repetitions`` runs, as the engine draws them."""
    seeds = derive_seed_array(noise.seed, np.arange(repetitions)[:, None],
                              np.arange(ctx.K))
    return measure_batch(ctx.c_true, noise, ctx.operation_time, seeds)[0]


@pytest.fixture(scope="module")
def two_line_spectrum():
    return SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])


def _run_once_rows(ctx, noise, repetitions):
    """``run_once`` at the first ``repetitions`` seeds, next to the rows of
    estimates the engine draws for them."""
    runs = [ctx.run_once(replace(noise, seed=derive_seed(noise.seed, rep)))
            for rep in range(repetitions)]
    return _estimate_rows(ctx, noise, repetitions), runs


# gamma * T = 1.5 puts the largest fo coefficients at T = 5 within dp of p = 1/2
_SATURATING = NoiseModel(dp_max=0.02, gamma=0.3, seed=4)


class TestCachedDecomposition:
    """``run_once`` writes a fresh reconstruction's bytes and scores its row
    through the block kernel, within 1e-12 of the per-row reference."""

    @pytest.mark.parametrize("eig_keep", [DEFAULT_TAU, 7, "cv"])
    @pytest.mark.parametrize("saturate", [False, True], ids=["finite", "saturated"])
    def test_fo_equals_uncached(self, two_line_spectrum, eig_keep, saturate):
        ctx = ProtocolContext("fo", two_line_spectrum, 5.0, eig_keep=eig_keep)
        noise = _SATURATING if saturate else NoiseModel(dp_max=0.01, gamma=0.1, seed=11)
        rows, runs = _run_once_rows(ctx, noise, 12)
        assert np.isinf(rows).any(axis=1).sum() >= (3 if saturate else 0)
        for row, (fid, result) in zip(rows, runs):
            ref = fo_reconstruct(ctx.filters, row, OMEGA_C, eig_keep=eig_keep,
                                 overlap=ctx.overlap)
            assert result.values.tobytes() == ref.values.tobytes()
            assert result.retained_count == ref.retained_count
            np.testing.assert_array_equal(result.kept_indices, ref.kept_indices)
            assert abs(fid - fidelity(ctx.spectrum, ref, ctx.fidelity_points)) <= 1e-12
            assert result.fidelity == fid

    def test_fo_readouts_that_saturate(self, two_line_spectrum):
        ctx = ProtocolContext("fo", two_line_spectrum, 5.0)
        rows = _estimate_rows(ctx, _SATURATING, 40)
        assert np.isinf(rows).any(axis=1).sum() >= 5
        assert np.isfinite(rows).all(axis=1).sum() >= 5
        fids, degenerate = ctx._score_block(rows)
        for rep, (row, fid) in enumerate(zip(rows, fids)):
            ref = _reference_score(ctx, row)
            assert abs(fid - ref) <= 1e-12
            assert degenerate[rep] == (ref == 0.0)
            # run_once draws the same row from the repetition's own seed
            once, _ = ctx.run_once(replace(_SATURATING, seed=derive_seed(_SATURATING.seed, rep)))
            assert once == fid

    @pytest.mark.parametrize("as_delta", [False, True])
    @pytest.mark.parametrize("saturate", [False, True], ids=["finite", "saturated"])
    def test_as_equals_uncached(self, two_line_spectrum, as_delta, saturate):
        # at T = 5 and gamma = 0.4 about a quarter of the as rows saturate
        ctx = ProtocolContext("as", two_line_spectrum, 5.0 if saturate else 10.0,
                              as_delta=as_delta)
        noise = NoiseModel(dp_max=0.01, gamma=0.4 if saturate else 0.0, seed=12)
        rows, runs = _run_once_rows(ctx, noise, 12)
        assert np.isinf(rows).any(axis=1).sum() >= (2 if saturate else 0)
        for row, (fid, result) in zip(rows, runs):
            ref = as_reconstruct(ctx.filters, row, ctx.omega_max, delta_approx=as_delta)
            assert result.values.tobytes() == ref.values.tobytes()
            assert result.condition_number == ref.condition_number or as_delta
            assert abs(fid - fidelity(ctx.spectrum, ref, ctx.fidelity_points)) <= 1e-12

    def test_run_once_equals_readout_by_readout(self, two_line_spectrum):
        ctx = ProtocolContext("fo", two_line_spectrum, 2.0)
        noise = NoiseModel(dp_max=0.01, gamma=0.2, seed=8)
        c_hat = np.array([measure(ctx.c_true[k], noise, 2.0, filter_index=k).c_estimate
                          for k in range(ctx.K)])
        ref = fo_reconstruct(ctx.filters, c_hat, OMEGA_C, overlap=ctx.overlap)
        fid, result = ctx.run_once(noise)
        assert result.values.tobytes() == ref.values.tobytes()
        assert abs(fid - fidelity(ctx.spectrum, ref, ctx.fidelity_points)) <= 1e-12


def _reference_score(ctx, row):
    """A repetition's fidelity by the per-row path under the context's rule
    or variant: reconstruct from the filters, then ``fidelity``; 0 where
    the inversion degenerates."""
    try:
        if ctx.protocol == "fo":
            rec = fo_reconstruct(ctx.filters, row, OMEGA_C, eig_keep=ctx.eig_keep,
                                 overlap=ctx.overlap)
        else:
            rec = as_reconstruct(ctx.filters, row, ctx.omega_max, delta_approx=ctx.as_delta)
        return fidelity(ctx.spectrum, rec, ctx.fidelity_points)
    except (DegenerateBasisError, IllConditionedInversionError, UndefinedFidelityError):
        return 0.0


_KERNEL_CASES = {"fo-tau": ("fo", 2.0, DEFAULT_TAU, False), "fo-7": ("fo", 2.0, 7, False),
                 "as": ("as", 10.0, DEFAULT_TAU, False),
                 "as-delta": ("as", 10.0, DEFAULT_TAU, True)}


@pytest.fixture(scope="module", params=list(_KERNEL_CASES))
def kernel_case(request, two_line_spectrum):
    """(context with the case's rule or variant, 257 rows of estimates);
    every 17th row has a saturated readout, so blocks mix kept sets."""
    protocol, T, eig_keep, as_delta = _KERNEL_CASES[request.param]
    ctx = ProtocolContext(protocol, two_line_spectrum, T, eig_keep=eig_keep, as_delta=as_delta)
    rows = _estimate_rows(ctx, NoiseModel(dp_max=0.01, gamma=0.1, seed=21), 257)
    rows[::17, 4] = math.inf
    return ctx, rows


def _fids(ctx, rows):
    return ctx._score_block(rows)[0]


def _stacked_fids(ctx, rows):
    """The block kernel as it was with one (K, P, R) stack of every row's
    map, ``maps[:, :, index]``: the reference of the per-term gather."""
    kept = np.isfinite(rows)
    groups = {}
    index = [groups.setdefault(m.tobytes(), len(groups)) for m in kept]
    maps = np.zeros((ctx.K, ctx.fidelity_points.size, len(groups)))
    for m, g in groups.items():
        m = np.frombuffer(m, dtype=bool)
        W = ctx._linear_map(np.flatnonzero(m), ctx.eig_keep)
        if W is not None:
            maps[m, :, g] = W
    W = maps[:, :, index]
    terms = np.where(kept, rows, 0.0).T
    s_est = W[0] * terms[0]
    for w, c in zip(W[1:], terms[1:]):
        s_est += w * c
    s_true = ctx._s_true
    dot = s_true[0] * s_est[0]
    sq = s_est[0] * s_est[0]
    for s, est in zip(s_true[1:], s_est[1:]):
        dot += s * est
        sq += est * est
    n_est = np.sqrt(sq)
    fids = np.zeros(n_est.size)
    np.divide(dot, ctx._n_true * n_est, out=fids, where=n_est != 0.0)
    return fids


def _assert_degenerate(ctx, noise, repetitions):
    """The engine's rows score exactly 0 as degenerate, and ``run_once``
    writes no result for them."""
    rows, runs = _run_once_rows(ctx, noise, repetitions)
    assert [_reference_score(ctx, row) for row in rows] == [0.0] * len(rows)
    fids, degenerate = ctx._score_block(rows)
    assert fids.tolist() == [0.0] * len(rows) and degenerate.all()
    assert runs == [(0.0, None)] * len(rows)


class TestBlockKernel:
    """Every row is scored through the linear map of its kept set."""

    @pytest.mark.parametrize("R", [1, 255, 256, 257])
    def test_bits_independent_of_block_size(self, kernel_case, R):
        ctx, rows = kernel_case
        full = _fids(ctx, rows)
        for start in sorted({0, (257 - R) // 2, 257 - R}):
            part = _fids(ctx, rows[start:start + R])
            assert part.tobytes() == full[start:start + R].tobytes()

    @pytest.mark.parametrize("case", ["fo-tau", "as", "as-delta"])
    def test_gather_equals_stacked_maps(self, two_line_spectrum, case):
        protocol, T, eig_keep, as_delta = _KERNEL_CASES[case]
        ctx = ProtocolContext(protocol, two_line_spectrum, T, eig_keep=eig_keep,
                              as_delta=as_delta)
        rows = _estimate_rows(ctx, NoiseModel(dp_max=0.01, gamma=0.1, seed=24),
                              reconstruct._BLOCK)
        rows[::17, 4] = math.inf
        rows[::23, 9] = math.inf
        assert len({m.tobytes() for m in np.isfinite(rows)}) >= 3
        assert _fids(ctx, rows).tobytes() == _stacked_fids(ctx, rows).tobytes()

    @pytest.mark.parametrize("protocol, T", [("fo", 2.0), ("as", 10.0)])
    def test_empty_block(self, two_line_spectrum, protocol, T):
        ctx = ProtocolContext(protocol, two_line_spectrum, T)
        fids, degenerate = ctx._score_block(np.empty((0, ctx.K)))
        assert fids.shape == degenerate.shape == (0,)
        assert fids.dtype == float and degenerate.dtype == bool

    def test_bits_independent_of_position(self, kernel_case):
        ctx, rows = kernel_case
        full = _fids(ctx, rows)
        perm = np.random.default_rng(3).permutation(len(rows))
        assert _fids(ctx, rows[perm]).tobytes() == full[perm].tobytes()
        for r in (0, 1, 17, 128, 256):
            assert _fids(ctx, rows[r:r + 1])[0] == full[r]

    def test_agrees_with_reference(self, kernel_case):
        ctx, rows = kernel_case
        fids = _fids(ctx, rows)
        for row, fid in zip(rows, fids):
            ref = _reference_score(ctx, row)
            assert abs(fid - ref) <= 1e-12
            assert ref > 0.5

    @pytest.mark.parametrize("case", ["cv", "retain-none", "tau-above-one", "saturated"])
    def test_fo_per_row_cases_unchanged(self, two_line_spectrum, case):
        eig_keep = {"cv": "cv", "retain-none": 0, "tau-above-one": 2.0}.get(case, DEFAULT_TAU)
        ctx = ProtocolContext("fo", two_line_spectrum, 2.0, eig_keep=eig_keep)
        noise = NoiseModel(dp_max=0.01, gamma=0.2, seed=22)
        if case in ("retain-none", "tau-above-one"):
            _assert_degenerate(ctx, noise, 6)
            return
        rows = _estimate_rows(ctx, noise, 6)
        if case == "saturated":
            rows[:, [3, 11]] = math.inf
        expected = [_reference_score(ctx, row) for row in rows]
        fids, degenerate = ctx._score_block(rows)
        np.testing.assert_allclose(fids, expected, rtol=0, atol=1e-12)
        assert not degenerate.any()

    def test_ill_conditioned_as_unchanged(self, two_line_spectrum, monkeypatch):
        monkeypatch.setattr(reconstruct, "_COND_LIMIT", 1.0)
        ctx = ProtocolContext("as", two_line_spectrum, 10.0)
        noise = NoiseModel(dp_max=0.01, seed=23)
        _assert_degenerate(ctx, noise, 6)
        # a kept subset is checked too, not only the full set
        rows = _estimate_rows(ctx, noise, 6)
        rows[:, [0, 7]] = math.inf
        assert [_reference_score(ctx, row) for row in rows] == [0.0] * 6
        fids, degenerate = ctx._score_block(rows)
        assert fids.tolist() == [0.0] * 6 and degenerate.all()

    @pytest.mark.parametrize("protocol, as_delta", [("fo", False), ("as", False), ("as", True)])
    def test_zero_estimate_scores_zero(self, two_line_spectrum, protocol, as_delta, monkeypatch):
        ctx = ProtocolContext(protocol, two_line_spectrum, 10.0, as_delta=as_delta)
        zero = np.zeros((3, ctx.K))
        assert _reference_score(ctx, zero[0]) == 0.0
        fids, degenerate = ctx._score_block(zero)
        assert fids.tolist() == [0.0] * 3 and degenerate.all()
        monkeypatch.setattr(reconstruct, "measure_batch",
                            lambda c_true, *args: (np.zeros_like(c_true), None))
        assert ctx.run_once(NoiseModel(seed=1)) == (0.0, None)

    @pytest.mark.parametrize("protocol, eig_keep, as_delta", [
        ("fo", "cv", False), ("fo", DEFAULT_TAU, False), ("fo", 7, False),
        ("as", DEFAULT_TAU, False), ("as", DEFAULT_TAU, True)],
        ids=["fo-cv", "fo-tau", "fo-7", "as", "as-delta"])
    def test_mixed_saturation_patterns(self, two_line_spectrum, protocol, eig_keep, as_delta):
        ctx = ProtocolContext(protocol, two_line_spectrum, 5.0, eig_keep=eig_keep,
                              as_delta=as_delta)
        rows = _estimate_rows(ctx, _SATURATING, 60)
        rows[::5, 2] = math.inf
        rows[1::7, [0, 9]] = math.inf
        rows[3::11, 1:] = math.inf  # one kept readout
        rows[4] = math.inf  # none kept
        assert len({row.tobytes() for row in np.isfinite(rows)}) >= 6
        fids, degenerate = ctx._score_block(rows)
        for row, fid, zero in zip(rows, fids, degenerate):
            ref = _reference_score(ctx, row)
            assert abs(fid - ref) <= 1e-12
            assert zero == (ref == 0.0)
        assert degenerate[4] and degenerate.sum() < 10


class TestSingleKeptReadout:
    """The "cv" rule with one finite estimate keeps that filter."""

    def test_fo_reconstruct(self, fo_setup):
        grid, filters, A = fo_setup
        c = np.full(20, math.inf)
        c[6] = 0.8
        rec = fo_reconstruct(filters, c, OMEGA_C, eig_keep="cv")
        assert rec.kept_indices.tolist() == [6] and rec.retained_count == 1
        assert rec.params["tau_used"] == max(reconstruct.TAU_GRID)
        np.testing.assert_allclose(rec.values, 0.8 / A[6, 6] * filters[6].values[:rec.omegas.size],
                                   rtol=1e-12)

    def test_score_block(self, two_line_spectrum):
        ctx = ProtocolContext("fo", two_line_spectrum, 2.0, eig_keep="cv")
        rows = _estimate_rows(ctx, NoiseModel(dp_max=0.01, seed=24), 3)
        rows[:, 1:] = math.inf
        fids, degenerate = ctx._score_block(rows)
        expected = [_reference_score(ctx, row) for row in rows]
        np.testing.assert_allclose(fids, expected, rtol=0, atol=1e-12)
        assert min(expected) > 0 and not degenerate.any()


class TestWorkDoneOnce:
    """A context samples its spectrum once per filter set, and an "as" kept
    subset is factorized once, by its own ``lstsq``."""

    @pytest.mark.parametrize("protocol, n_qubits", [("fo", 1), ("fo", 2), ("as", 1)])
    def test_context_overlaps_equal_per_filter(self, two_line_spectrum, protocol, n_qubits):
        ctx = ProtocolContext(protocol, two_line_spectrum, 5.0, n_qubits=n_qubits)
        unit = two_line_spectrum.with_scale(1.0)
        scale = 1.0 / float(np.median([signal_overlap(unit, f) for f in ctx.filters]))
        c_true = np.array([signal_overlap(two_line_spectrum.with_scale(scale), f)
                           for f in ctx.filters])
        assert ctx.scale == scale
        assert ctx.c_true.tobytes() == c_true.tobytes()

    @pytest.mark.parametrize("protocol", ["fo", "as"])
    def test_context_samples_spectrum_twice(self, two_line_spectrum, protocol, monkeypatch):
        calls = []
        evaluate = SpectralDensity.evaluate
        monkeypatch.setattr(SpectralDensity, "evaluate",
                            lambda self, omega: calls.append(np.size(omega))
                            or evaluate(self, omega))
        ctx = ProtocolContext(protocol, two_line_spectrum, 5.0)
        # calibration and c_true on the grid; the truth at the K fidelity points
        assert calls.count(ctx.grid.size) == 2 and len(calls) == 3

    @staticmethod
    def _counted_factorizations(monkeypatch):
        counts = {"lstsq": 0, "svd": 0}
        for name in counts:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        return counts

    @pytest.mark.parametrize("with_full_set", [False, True])
    def test_one_lstsq_per_kept_subset(self, two_line_spectrum, monkeypatch, with_full_set):
        ctx = ProtocolContext("as", two_line_spectrum, 10.0)
        rows = _estimate_rows(ctx, NoiseModel(dp_max=0.01, seed=25), 12)
        rows[0::3, 4] = math.inf
        rows[1::3, [0, 7]] = math.inf
        if not with_full_set:
            rows[2::3, 19] = math.inf
        expected = [_reference_score(ctx, row) for row in rows]
        counts = self._counted_factorizations(monkeypatch)
        fids, degenerate = ctx._score_block(rows)
        assert counts == {"lstsq": 3 if not with_full_set else 2, "svd": int(with_full_set)}
        np.testing.assert_allclose(fids, expected, rtol=0, atol=1e-12)
        assert not degenerate.any()

    def test_subset_past_limit_scores_zero(self, two_line_spectrum, monkeypatch):
        # at T = 10 the full set's condition number is 2.235, without filter
        # 8 it is 2.210 and without filters 1 and 8 it is 2.159
        monkeypatch.setattr(reconstruct, "_COND_LIMIT", 2.2)
        ctx = ProtocolContext("as", two_line_spectrum, 10.0)
        rows = _estimate_rows(ctx, NoiseModel(dp_max=0.01, seed=26), 9)
        rows[0::3, 7] = math.inf
        rows[1::3, [0, 7]] = math.inf
        expected = [_reference_score(ctx, row) for row in rows]
        fids, degenerate = ctx._score_block(rows)
        assert degenerate.tolist() == [True, False, True] * 3
        assert fids[degenerate].tolist() == [0.0] * 6
        assert [expected[i] for i in range(0, 9, 3)] == [0.0] * 3
        np.testing.assert_allclose(fids, expected, rtol=0, atol=1e-12)
        assert min(fids[1::3]) > 0.5
