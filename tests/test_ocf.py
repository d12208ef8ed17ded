import math

import numpy as np
import pytest

from noisespec import (SpectralDensity, UndefinedObjectiveError,
                       staircase_split, xi_normalized)
from noisespec.filterfn import FilterFunction, FrequencyGrid, continuous_norm
from noisespec.modulation import PulseSequence
from noisespec.ocf import (OcfProblem, ocf_grid, optimize_continuous,
                           optimize_discrete, solution_filter)
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
        prob = OcfProblem(spectrum=LORENTZIAN, duration=4.0, continuous=True,
                          superiterations=1, inner_evals=20, seed=2)
        sol = optimize_continuous(prob)
        assert sol.trace[1] >= sol.trace[0]

    def test_continuous_beats_single_qubit(self):
        cont = optimize_continuous(OcfProblem(
            spectrum=LORENTZIAN, duration=5.0, continuous=True,
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
