import math
import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisespec import (ContinuousModulation, FrequencyGrid, GridMismatchError, GridRangeError,
                       ModulationSet, NonFiniteInputError, PulseSequence, SpectralDensity,
                       as_sequence, continuous_norm, default_grid, filter_function,
                       fo_sequence, fourier_piecewise, overlap_matrix,
                       signal_overlap, signal_overlaps, staircase_split,
                       transform_continuous)
from noisespec import filterfn
from noisespec.filterfn import MAX_GRID_NODES, FilterFunction, _gauss_plan, filter_values
from noisespec.modulation import to_step_function
from noisespec.ocf import ocf_grid


def _stretched(gen, factor):
    """``gen`` with its duration and every switch time scaled by ``factor``."""
    seqs = gen.sequences if isinstance(gen, ModulationSet) else (gen,)
    return ModulationSet(tuple(PulseSequence(s.switch_times * factor, s.duration * factor,
                                             s.initial_sign) for s in seqs))


def box_filter(grid, lo, hi, height=1.0):
    values = np.where((grid.omegas >= lo) & (grid.omegas <= hi), height, 0.0)
    return FilterFunction(grid=grid, values=values, generator=None,
                          operation_time=1.0)


class TestTransform:
    def test_free_evolution_at_zero(self):
        seq = PulseSequence(np.array([]), 5.0)
        assert fourier_piecewise(seq, 0.0) == pytest.approx(5.0)

    def test_free_evolution_closed_form(self):
        # (e^{i pi} - 1) / (i pi / 5) = 10 i / pi
        seq = PulseSequence(np.array([]), 5.0)
        val = fourier_piecewise(seq, math.pi / 5)
        assert val == pytest.approx(1j * 10 / math.pi, abs=1e-12)

    def test_balanced_switch_cancels_dc(self):
        seq = PulseSequence(np.array([2.5]), 5.0)
        assert fourier_piecewise(seq, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_series_matches_direct_form_at_crossover(self):
        from noisespec.modulation import to_step_function
        seq = fo_sequence(5, 20, 11.5, 5.0)
        omega = 0.99e-6 / seq.duration  # just below the series switch
        series = fourier_piecewise(seq, omega)
        bounds, values = to_step_function(seq)
        segments = values * (np.exp(1j * omega * bounds[1:])
                             - np.exp(1j * omega * bounds[:-1])) / (1j * omega)
        direct = complex(np.sum(segments))
        assert series == pytest.approx(direct, rel=1e-8)

    @pytest.mark.parametrize("gen", [PulseSequence([0.035, 0.105, 0.245], 0.35),
                                     staircase_split(3.0, 3, 0.35)],
                             ids=["train", "staircase"])
    def test_small_phase_prefix_on_grid(self, gen, monkeypatch):
        # three nodes lie below |w| T = 1e-6: on the grid they are a prefix,
        # as an array they are selected by mask
        grid = FrequencyGrid(1e-5, 11)
        small = np.count_nonzero(grid.omegas * gen.duration < 1e-6)
        assert small == 3
        on_grid = fourier_piecewise(gen, grid)
        as_array = fourier_piecewise(gen, grid.omegas.copy())
        assert on_grid[:small].tobytes() == as_array[:small].tobytes()
        # with the phase sums taken the same way, every node agrees bit for bit
        sums = filterfn._phase_sums
        monkeypatch.setattr(filterfn, "_phase_sums", lambda weights, points, omega: sums(
            weights, points, omega.omegas if isinstance(omega, FrequencyGrid) else omega))
        assert (fourier_piecewise(gen, grid).tobytes()
                == fourier_piecewise(gen, grid.omegas.copy()).tobytes())
        # the grid's prefix is cached per duration: at twice the duration two
        # nodes are small, and both durations keep every node's bits
        longer = _stretched(gen, 2.0)
        assert np.count_nonzero(grid.omegas * longer.duration < 1e-6) == 2
        for g in (longer, gen, longer):
            assert (fourier_piecewise(g, grid).tobytes()
                    == fourier_piecewise(g, grid.omegas.copy()).tobytes())

    def test_modulation_set_is_sum_of_transforms(self):
        mset = staircase_split(2.0, 3, 5.0)
        omegas = np.linspace(0, 20, 101)
        total = fourier_piecewise(mset, omegas)
        parts = sum(fourier_piecewise(s, omegas) for s in mset.sequences)
        np.testing.assert_allclose(total, parts, rtol=1e-12)


class TestFilterFunction:
    @pytest.mark.parametrize("gen", [staircase_split(3.0, 2, 5.0),
                                     ContinuousModulation(5.0, 2.0, ((1.7, 0.4, -0.3),))],
                             ids=["staircase", "continuous"])
    def test_read_only_through_pickle(self, gen):
        filt = filter_function(gen, ocf_grid(10.0))
        back = pickle.loads(pickle.dumps(filt))
        assert back.values.tobytes() == filt.values.tobytes()
        for arr in (filt.values, back.values, back.grid.omegas):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            back.values[0] = 1.0

    def test_free_evolution_peak(self):
        # F(0) = (4 / pi) T^2 for the pulse-free filter
        grid = default_grid(11.5)
        filt = filter_function(fo_sequence(1, 20, 11.5, 5.0), grid)
        assert filt.values[0] == pytest.approx(31.83098861837907, abs=1e-12)

    def test_single_centered_switch_kills_dc(self):
        grid = default_grid(11.5)
        filt = filter_function(PulseSequence(np.array([2.5]), 5.0), grid)
        assert filt.values[0] == pytest.approx(0.0, abs=1e-20)

    def test_values_nonnegative_and_finite(self):
        grid = default_grid(11.5)
        for k in (1, 7, 20):
            filt = filter_function(fo_sequence(k, 20, 11.5, 5.0), grid)
            assert np.all(filt.values >= 0)
            assert np.all(np.isfinite(filt.values))

    def test_continuous_zero_phase_matches_free_evolution(self):
        grid = FrequencyGrid(30.0, 1501)
        pulse = filter_function(PulseSequence(np.array([]), 5.0), grid)
        cont = filter_function(ContinuousModulation(duration=5.0), grid)
        np.testing.assert_allclose(cont.values, pulse.values,
                                   rtol=1e-9, atol=1e-9)

    def test_continuous_transform_against_quadrature(self):
        """Against adaptive quadrature in time, which shares nothing with
        the Gauss panels: the fixed phase at T = 3 and seeded random phases
        (0-3 terms, coefficients of order 1-3) at T = 1, 5 and 25, up to
        the top of ``ocf_grid(10)``, where the panels are widest in phase."""
        cases = [(ContinuousModulation(duration=3.0, linear_rate=2.0,
                                       terms=((1.7, 0.4, -0.3), (5.1, -0.2, 0.6))),
                  (0.0, 1.3, 7.9))]
        rng = np.random.default_rng(8)
        for T in (1.0, 5.0, 25.0):
            cases += [(mod, (0.0, float(rng.uniform(0.0, 30.0)), 30.0))
                      for mod in _random_phases(T, rng)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the oracle met its own tolerance
            for mod, omegas in cases:
                for omega in omegas:
                    Y, Z = transform_continuous(mod, omega)
                    Y_quad, Z_quad = _quad_transform(mod, omega)
                    assert abs(Y - Y_quad) <= 1e-10 * mod.duration
                    assert abs(Z - Z_quad) <= 1e-10 * mod.duration


def _random_phases(T, rng):
    """One phase of each term count 0-3, as the OCF search builds them:
    a linear rate below omega_c = 10, term frequencies below 1.2 omega_c and
    coefficients of magnitude 1-3, which Nelder-Mead steps of 0.6 reach."""
    def term():
        a, b = rng.uniform(1.0, 3.0, 2) * rng.choice([-1.0, 1.0], 2)
        return rng.uniform(0.0, 12.0), a, b

    return [ContinuousModulation(duration=T, linear_rate=rng.uniform(0.0, 10.0),
                                 terms=tuple(term() for _ in range(n_terms)))
            for n_terms in range(4)]


def _quad_transform(mod, omega):
    """``(Y, Z)`` at one frequency by ``scipy.integrate.quad`` on pieces of
    [0, T] that each span at most 20 radians of the fastest oscillation,
    with the phase summed in scalar ``math``."""
    from scipy.integrate import quad

    def phi(t):
        return mod.linear_rate * t + sum(a * math.cos(nu * t) + b * math.sin(nu * t)
                                         for nu, a, b in mod.terms)

    T = mod.duration
    edges = np.linspace(0.0, T, math.ceil((mod.phase_rate_bound() + omega) * T / 20.0) + 2)
    parts = []
    for part in (math.cos, math.sin):
        re, im = (sum(quad(lambda t: part(phi(t)) * osc(omega * t), lo, hi,
                           epsabs=1e-13, epsrel=0.0, limit=200)[0]
                      for lo, hi in zip(edges[:-1], edges[1:]))
                  for osc in (math.cos, math.sin))
        parts.append(complex(re, im))
    return tuple(parts)


# grid sizes that are not multiples of the 64-node block, plus the
# protocol grid of the fo filters
KERNEL_GRIDS = [FrequencyGrid(3.0, 2), FrequencyGrid(7.0, 65),
                FrequencyGrid(30.0, 3001), default_grid(11.5)]


def _kernel_generators():
    gens = {}
    for T in (1.0, 5.0, 25.0):
        gens[f"fo-T{T:g}"] = fo_sequence(7, 20, 11.5, T)
        gens[f"as-T{T:g}"] = as_sequence(13, 20, 10.0, T)
        for n_q in (1, 2, 6):
            gens[f"staircase{n_q}-T{T:g}"] = staircase_split(4.6, n_q, T)
    gens["continuous"] = ContinuousModulation(
        duration=5.0, linear_rate=2.0, terms=((1.7, 0.4, -0.3), (5.1, -0.2, 0.6)))
    return gens


KERNEL_GENERATORS = _kernel_generators()


class TestGridKernel:
    """The block-factored grid path against the direct path on the same
    frequencies."""

    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=lambda g: f"n{g.size}")
    @pytest.mark.parametrize("gen", list(KERNEL_GENERATORS.values()),
                             ids=list(KERNEL_GENERATORS))
    def test_agrees_with_direct_form(self, gen, grid):
        on_grid = filter_values(gen, grid)
        direct = filter_values(gen, grid.omegas)
        assert on_grid.shape == (grid.size,)
        assert np.max(np.abs(on_grid - direct)) <= 1e-12 * np.max(direct)

    @pytest.mark.parametrize("T", [1.0, 5.0, 25.0])
    def test_zero_node_is_free_evolution_peak(self, T):
        filt = filter_function(PulseSequence(np.array([]), T), default_grid(11.5))
        assert filt.values[0] == pytest.approx((4 / math.pi) * T ** 2, rel=1e-15)

    def test_plans_keyed_by_grid_values(self):
        mod = ContinuousModulation(duration=5.0, linear_rate=2.0)
        _gauss_plan.cache_clear()
        # equal size, different span: same panel count, distinct plans
        for grid in (FrequencyGrid(30.0, 3001), FrequencyGrid(29.0, 3001)):
            on_grid = filter_values(mod, grid)
            direct = filter_values(mod, grid.omegas)
            assert np.max(np.abs(on_grid - direct)) <= 1e-12 * np.max(direct)
        assert _gauss_plan.cache_info().currsize == 2
        # an equal grid built anew reuses its plan
        filter_values(mod, FrequencyGrid(29.0, 3001))
        assert _gauss_plan.cache_info().hits == 1


class TestPulseFilter:
    """The one pulse-train filter kernel, ``F = |S|^2 (4/pi) / omega^2``
    from the phase sums, against ``(4/pi) |Y|^2`` of the transform."""

    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=lambda g: f"n{g.size}")
    def test_agrees_with_transform(self, grid):
        # both forms take the same phase sums, so every node, small or not,
        # agrees within a few roundings of itself (5.1 ulp measured over
        # 600 random trains on ocf_grid(10) and default_grid(11.5))
        for name, gen in KERNEL_GENERATORS.items():
            if isinstance(gen, ContinuousModulation):
                continue
            for omega in (grid, grid.omegas):
                kernel = filter_values(gen, omega)
                ref = (4.0 / np.pi) * np.abs(fourier_piecewise(gen, omega)) ** 2
                assert np.all(np.abs(kernel - ref) <= 16 * np.finfo(float).eps * ref), name

    @pytest.mark.parametrize("gen", [PulseSequence([0.035, 0.105, 0.245], 0.35),
                                     staircase_split(3.0, 3, 0.35)],
                             ids=["train", "staircase"])
    def test_small_phase_prefix_on_grid(self, gen, monkeypatch):
        # three nodes lie below |w| T = 1e-6: on the grid they are a prefix,
        # as an array they are selected by mask
        grid = FrequencyGrid(1e-5, 11)
        small = np.count_nonzero(grid.omegas * gen.duration < 1e-6)
        assert small == 3
        on_grid = filter_values(gen, grid)
        as_array = filter_values(gen, grid.omegas.copy())
        assert on_grid[:small].tobytes() == as_array[:small].tobytes()
        # the series' |Y|^2, its imaginary part included (the train's y has
        # zero mean, so the imaginary part is most of the value)
        ref = (4.0 / np.pi) * np.abs(fourier_piecewise(gen, grid)) ** 2
        assert np.all(np.abs(on_grid - ref) <= 16 * np.finfo(float).eps * ref)
        # with the phase sums taken the same way, every node agrees bit for bit
        sums = filterfn._phase_sums
        monkeypatch.setattr(filterfn, "_phase_sums", lambda weights, points, omega: sums(
            weights, points, omega.omegas if isinstance(omega, FrequencyGrid) else omega))
        assert (filter_values(gen, grid).tobytes()
                == filter_values(gen, grid.omegas.copy()).tobytes())
        # the grid's prefix is cached per duration: at twice the duration two
        # nodes are small, and both durations keep every node's bits
        longer = _stretched(gen, 2.0)
        assert np.count_nonzero(grid.omegas * longer.duration < 1e-6) == 2
        for g in (longer, gen, longer):
            assert (filter_values(g, grid).tobytes()
                    == filter_values(g, grid.omegas.copy()).tobytes())

    @pytest.mark.parametrize("grid, T, prefix", [(ocf_grid(10.0), 5.0, 1),
                                                 (FrequencyGrid(1e-5, 11), 0.35, 3)],
                             ids=["zero-node-alone", "several-nodes"])
    def test_zero_node_alone_keeps_series_bits(self, grid, T, prefix):
        # the same sums and moments through the grid's prefix rule and the
        # array's mask, which takes the series at every small node
        assert filterfn._small_prefix(grid, T) == prefix
        rng = np.random.default_rng(prefix)
        gens = [PulseSequence([], T), PulseSequence([0.5 * T], T)]  # m0 = T, 0
        gens += [PulseSequence(np.sort(rng.uniform(0.0, T, n)), T, sign)
                 for n in rng.integers(1, 40, 30) for sign in (1, -1)]
        for gen in gens:
            bounds, values = to_step_function(gen)
            sums = filterfn._phase_sums(
                filterfn._boundary_coefficients(bounds, values)[None, :], bounds, grid)[0]
            moments = filterfn._moments(bounds, values)
            on_grid = filterfn._filter_from(sums, moments, grid, T)
            series = filterfn._filter_from(sums, moments, grid.omegas.copy(), T)
            assert on_grid.tobytes() == series.tobytes()

    def test_scalar_is_the_array_value(self):
        gen = staircase_split(3.0, 2, 5.0)
        for omega in (0.0, 1e-9, 2.5):
            value = filter_values(gen, omega)
            assert np.ndim(value) == 0
            assert value == filter_values(gen, np.array([omega]))[0]

    def test_scale_table_shared_by_equal_grids(self):
        gen = staircase_split(3.0, 2, 5.0)
        filterfn._grid_scale.cache_clear()
        first = filter_values(gen, FrequencyGrid(30.0, 3001))
        # an equal grid built anew reads the same table
        again = filter_values(gen, FrequencyGrid(30.0, 3001))
        info = filterfn._grid_scale.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert first.tobytes() == again.tobytes()
        grid = FrequencyGrid(30.0, 3001)
        table = filterfn._grid_scale(grid)
        assert not table.flags.writeable and table.shape == (3001,) and table.nbytes == 8 * 3001
        assert table[0] == 0.0
        assert table[1:].tobytes() == ((4.0 / np.pi) / grid.omegas[1:] ** 2).tobytes()
        filter_values(gen, FrequencyGrid(29.0, 3001))
        assert filterfn._grid_scale.cache_info().currsize == 2


def _factor_points():
    """Named point sets of the kernel: the switch times of every pulse
    generator and the Gauss nodes of the continuous one."""
    points = {}
    for name, gen in KERNEL_GENERATORS.items():
        if isinstance(gen, ContinuousModulation):
            points[name] = filterfn._gauss_panels(gen.duration, 12)[0]
        else:
            points[name] = to_step_function(gen)[0]
    return points


class TestBlockFactors:
    """The running-product factor tables: a column depends only on its own
    point, grids far larger than the presets' stay within the kernel's
    bound, and the small-phase moments come from one product."""

    @pytest.mark.parametrize("grid", KERNEL_GRIDS, ids=lambda g: f"n{g.size}")
    def test_columns_equal_points_built_alone(self, grid):
        for name, points in _factor_points().items():
            tables = filterfn._block_factors(grid.spacing, grid.size, points)
            for i in range(points.size):
                alone = filterfn._block_factors(grid.spacing, grid.size, points[i:i + 1])
                for table, one in zip(tables, alone):
                    assert table[:, i].tobytes() == one[:, 0].tobytes(), (name, i)

    def test_large_grid_agrees_with_direct_form(self):
        # 1563 blocks, so the coarse running products are 1562 rows deep;
        # the direct form runs on every fifth node, which meets every block
        # and each filter's peak (nodes 690, 1300 and 920)
        grid = FrequencyGrid(500.0, 100_001)
        for gen in (fo_sequence(7, 20, 11.5, 25.0), as_sequence(13, 20, 10.0, 25.0),
                    staircase_split(4.6, 6, 25.0)):
            on_grid = filter_values(gen, grid)[::5]
            direct = filter_values(gen, grid.omegas[::5])
            assert np.max(np.abs(on_grid - direct)) <= 1e-12 * np.max(direct)

    @pytest.mark.parametrize("name", [k for k, g in KERNEL_GENERATORS.items()
                                      if not isinstance(g, ContinuousModulation)])
    def test_moments_equal_three_dots(self, name):
        bounds, values = to_step_function(KERNEL_GENERATORS[name])
        moments = filterfn._moments(bounds, values)
        for k, scale in enumerate((1.0, 2.0, 6.0)):
            powers = np.diff(bounds ** (k + 1))
            three_dots = float(values @ powers) / scale
            # relative to the integral of |y| t^k / k!, which bounds the rounding
            assert abs(moments[k] - three_dots) <= 1e-15 * float(np.abs(values) @ powers) / scale


class TestContinuousPanels:
    """The Gauss panel rule of continuous transforms: each panel spans at
    most 15 radians of the fastest oscillation, and more panels change
    nothing."""

    @pytest.mark.parametrize("T", [1.0, 5.0, 25.0])
    def test_values_equal_four_times_the_panels(self, T, monkeypatch):
        grid = ocf_grid(10.0)
        mods = _random_phases(T, np.random.default_rng(int(T)))
        values = [filter_values(mod, grid) for mod in mods]
        plan = _gauss_plan.__wrapped__
        monkeypatch.setattr(filterfn, "_gauss_plan",
                            lambda duration, n_panels, spacing, size:
                            plan(duration, 4 * n_panels, spacing, size))
        for mod, on_plan in zip(mods, values):
            refined = filter_values(mod, grid)
            assert np.max(np.abs(on_plan - refined)) <= 1e-13 * np.max(refined)

    def test_long_phases_equal_four_times_the_panels(self, monkeypatch):
        # at T = 25 the panels come closest to their 15-radian bound: over
        # these 48 phases the gap to 4x the panels reached 1.9e-14 of max F,
        # and 2.0e-13 with panels of at most 18 radians
        grid = ocf_grid(10.0)
        mods = [mod for seed in range(12)
                for mod in _random_phases(25.0, np.random.default_rng(seed))]
        values = [filter_values(mod, grid) for mod in mods]
        plan = _gauss_plan.__wrapped__
        monkeypatch.setattr(filterfn, "_gauss_plan",
                            lambda duration, n_panels, spacing, size:
                            plan(duration, 4 * n_panels, spacing, size))
        for mod, on_plan in zip(mods, values):
            refined = filter_values(mod, grid)
            assert np.max(np.abs(on_plan - refined)) <= 1e-13 * np.max(refined)

    @settings(max_examples=60, deadline=None)
    @given(T=st.floats(0.1, 30.0), linear_rate=st.floats(-10.0, 10.0),
           terms=st.lists(st.tuples(st.floats(0.0, 12.0), st.floats(-3.0, 3.0),
                                    st.floats(-3.0, 3.0)), max_size=3),
           omega_max=st.floats(0.5, 40.0), size=st.integers(2, 400),
           on_grid=st.booleans())
    def test_panel_spans_at_most_15_radians(self, T, linear_rate, terms, omega_max, size,
                                            on_grid):
        mod = ContinuousModulation(duration=T, linear_rate=linear_rate, terms=tuple(terms))
        grid = FrequencyGrid(omega_max, size)
        top_rate = omega_max + mod.phase_rate_bound()
        panels = []
        panels_of = filterfn._gauss_panels
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filterfn, "_gauss_panels", lambda duration, n_panels:
                       panels.append(n_panels) or panels_of(duration, n_panels))
            if on_grid:
                _gauss_plan.cache_clear()
            transform_continuous(mod, grid if on_grid else grid.omegas)
        assert len(panels) == 1
        (n_panels,) = panels
        assert T / n_panels * top_rate <= 15.0
        # one spare panel, rounded up to an even count
        assert n_panels % 2 == 0 and n_panels < top_rate * T / 15.0 + 3

    @pytest.mark.parametrize("preset", ["fig8-ocf-lorentzian", "fig10-ocf-double"])
    def test_design_builds_each_plan_once(self, preset):
        from noisespec import cli
        from noisespec.ocf import OcfProblem, optimize_continuous
        cfg = cli.preset_config(preset, quick=True)
        oc = cfg["ocf"]
        problem = OcfProblem(
            spectrum=cli._spectrum_from(cfg, "spectrum"), duration=oc["T"],
            omega_c=oc["omega_c"], penalty_weight=oc["penalty_weight"],
            superiterations=oc["superiterations"], inner_evals=oc["inner_evals"],
            basis_size=oc["basis_size"],
            grid=ocf_grid(oc["omega_c"], oc["grid_spacing"], oc["grid_span_factor"]))
        _gauss_plan.cache_clear()
        optimize_continuous(problem)
        info = _gauss_plan.cache_info()
        # no plan was built twice, so none was evicted
        assert info.hits > 0 and info.misses == info.currsize <= info.maxsize


def _complex_reference(mod, omegas):
    """``(Y, Z)`` at ``omegas`` by the direct complex sums ``sum_t w
    cos(phi(t)) e^{i omega t}`` (and ``sin``) over the whole composite
    16-point Gauss rule on [0, T], built here without mirroring, with the
    panel count of :func:`transform_continuous`."""
    T = mod.duration
    n_panels = filterfn._panel_count(
        float(np.max(omegas, initial=0.0)) + mod.phase_rate_bound(), T)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, T, n_panels + 1)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[:-1] + edges[1:])
    t = (mid[:, None] + half[:, None] * nodes).ravel()
    w = (half[:, None] * weights).ravel()
    phi = mod.phase(t)
    phases = np.exp(1j * np.outer(omegas, t))
    return phases @ (w * np.cos(phi)), phases @ (w * np.sin(phi))


def _reference_filter(mod, omegas):
    Y, Z = _complex_reference(mod, omegas)
    return (4.0 / np.pi) * (np.abs(Y) ** 2 + np.abs(Z) ** 2)


class TestMirrorKernel:
    """The mirror-rule continuous kernel against the complex reference:
    within 1e-13 of max F (2.2e-14 measured over these phases)."""

    MODS = [mod for T in (1.0, 5.0, 25.0) for mod in _random_phases(T, np.random.default_rng(
        int(T) + 40))] + [KERNEL_GENERATORS["continuous"]]

    @pytest.mark.parametrize("grid", [ocf_grid(10.0), FrequencyGrid(7.0, 1000)],
                             ids=["ocf", "n1000"])
    def test_filter_on_grid_and_array(self, grid):
        assert grid.size % 64 != 0
        for mod in self.MODS:
            ref = _reference_filter(mod, grid.omegas)
            for omega in (grid, grid.omegas):
                got = filter_values(mod, omega)
                assert got.shape == (grid.size,)
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(ref)

    def test_scalar_omega(self):
        # a scalar is the one-node array; the bound is 1e-13 of the largest
        # F that a duration allows, (4/pi) T^2 at omega = 0 for a zero phase
        for mod in self.MODS:
            peak = (4.0 / np.pi) * mod.duration ** 2
            for omega in (0.0, 1.3, 29.5):
                value = filter_values(mod, omega)
                assert np.ndim(value) == 0
                assert value == filter_values(mod, np.array([omega]))[0]
                assert abs(value - _reference_filter(mod, np.array([omega]))[0]) <= 1e-13 * peak
                Y, Z = transform_continuous(mod, omega)
                Y_ref, Z_ref = _complex_reference(mod, np.array([omega]))
                assert isinstance(Y, complex) and isinstance(Z, complex)
                assert max(abs(Y - Y_ref[0]), abs(Z - Z_ref[0])) <= 1e-13 * mod.duration

    @pytest.mark.parametrize("on_grid", [True, False], ids=["grid", "array"])
    def test_public_transform(self, on_grid):
        # the phase factor e^{i omega T/2} restores Y and Z themselves
        grid = FrequencyGrid(7.0, 1000)
        for mod in self.MODS:
            Y_ref, Z_ref = _complex_reference(mod, grid.omegas)
            scale = math.sqrt(np.max(np.abs(Y_ref) ** 2 + np.abs(Z_ref) ** 2))
            Y, Z = transform_continuous(mod, grid if on_grid else grid.omegas)
            assert Y.shape == Z.shape == (grid.size,) and Y.dtype == complex
            for got, ref in ((Y, Y_ref), (Z, Z_ref)):
                assert np.max(np.abs(got - ref)) <= 1e-13 * scale

    @pytest.mark.parametrize("drop", [1, 3, [1, 3], [0, 2]],
                             ids=["odd-Y", "odd-Z", "odd-both", "even-both"])
    def test_mutant_fails(self, drop, monkeypatch):
        # the check catches a kernel that drops a part of the sums
        grid = ocf_grid(10.0)
        mod = KERNEL_GENERATORS["continuous"]
        ref = _reference_filter(mod, grid.omegas)
        kernel = filterfn._mirror_sums

        def mutant(*args):
            parts, nodes, scalar = kernel(*args)
            parts[:, drop] = 0.0
            return parts, nodes, scalar

        monkeypatch.setattr(filterfn, "_mirror_sums", mutant)
        for omega in (grid, grid.omegas):
            assert np.max(np.abs(filter_values(mod, omega) - ref)) > 1e-3 * np.max(ref)

    def test_rule_is_mirrored(self):
        tau, t, w = filterfn._gauss_panels(5.0, 12)
        assert tau.size == w.size == 6 * 16 and t.size == 2 * tau.size
        assert np.all((tau > 0) & (tau < 2.5))
        assert t[:tau.size].tobytes() == (2.5 - tau).tobytes()
        assert t[tau.size:].tobytes() == (2.5 + tau).tobytes()
        assert 2 * math.fsum(w) == pytest.approx(5.0, rel=1e-15)


class TestFrequencyInput:
    """Both transforms check their frequencies the same way."""

    GENERATORS = [PulseSequence([0.5, 1.2], 2.0), staircase_split(4.6, 2, 2.0),
                  ContinuousModulation(duration=2.0, linear_rate=3.0,
                                       terms=((1.7, 0.4, -0.3),))]
    IDS = ["train", "staircase", "continuous"]

    @pytest.mark.parametrize("gen", GENERATORS, ids=IDS)
    def test_empty_array_gives_empty_transforms(self, gen):
        if isinstance(gen, ContinuousModulation):
            transforms = transform_continuous(gen, np.array([]))
        else:
            transforms = (fourier_piecewise(gen, np.array([])),)
        for out in transforms:
            assert out.shape == (0,) and out.dtype == complex
        assert filter_values(gen, []).shape == (0,)

    @pytest.mark.parametrize("omega", [math.inf, -math.inf, math.nan,
                                       np.array([1.0, math.nan]), np.array([math.inf, 2.0])],
                             ids=["inf", "-inf", "nan", "nan-in-array", "inf-in-array"])
    @pytest.mark.parametrize("gen", GENERATORS, ids=IDS)
    def test_non_finite_refused(self, gen, omega):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInputError, match="omega must be finite"):
                filter_values(gen, omega)
            transform = (transform_continuous if isinstance(gen, ContinuousModulation)
                         else fourier_piecewise)
            with pytest.raises(NonFiniteInputError, match="omega must be finite"):
                transform(gen, omega)

    @pytest.mark.parametrize("gen", GENERATORS, ids=IDS)
    def test_negative_refused(self, gen):
        with pytest.raises(ValueError, match="omega must be >= 0"):
            filter_values(gen, np.array([1.0, -0.5]))


class TestParseval:
    @pytest.mark.parametrize("gen", [
        fo_sequence(1, 20, 11.5, 5.0),
        fo_sequence(13, 20, 11.5, 5.0),
        as_sequence(7, 20, 10.0, 25.0),
        staircase_split(4.6, 4, 5.0),
    ])
    def test_energy_identity_with_exact_tail(self, gen):
        omega_from = 200.0 / gen.duration if hasattr(gen, "duration") else 40.0
        grid = FrequencyGrid(omega_from, int(omega_from / 0.005) + 1)
        filt = filter_function(gen, grid)
        main = float(np.sum(grid.trap_weights() * filt.values))
        total = main + filt.tail_integral(omega_from)
        assert total == pytest.approx(filt.energy_time_domain(), rel=5e-3)


def test_missing_scipy_names_the_extra(monkeypatch):
    """scipy is the oracle extra: without it, the analytic tail names the
    install that brings it."""
    filt = filter_function(fo_sequence(13, 20, 11.5, 5.0), FrequencyGrid(40.0, 801))
    monkeypatch.setitem(sys.modules, "scipy.special", None)
    with pytest.raises(ModuleNotFoundError, match=r"pip install noisespec\[oracle\]"):
        filt.tail_integral(40.0)


class TestOverlapMatrix:
    def test_constant_filter_norm(self):
        grid = FrequencyGrid(20.0, 2001)
        filt = box_filter(grid, 0.0, 20.0)
        A = overlap_matrix([filt], 10.0)
        assert A[0, 0] == pytest.approx(10.0)

    def test_exactly_symmetric(self):
        grid = default_grid(11.5)
        filters = [filter_function(fo_sequence(k, 20, 11.5, 3.0), grid)
                   for k in range(1, 21)]
        A = overlap_matrix(filters, 10.0)
        assert np.max(np.abs(A - A.T)) == 0.0
        assert np.min(np.linalg.eigvalsh(A)) > -1e-9 * np.max(A)

    def test_disjoint_boxes_orthogonal(self):
        grid = FrequencyGrid(10.0, 1001)
        A = overlap_matrix([box_filter(grid, 0.0, 3.0),
                            box_filter(grid, 5.0, 8.0)], 10.0)
        assert A[0, 1] == 0.0

    def test_grid_mismatch(self):
        f1 = box_filter(FrequencyGrid(10.0, 101), 0, 5)
        f2 = box_filter(FrequencyGrid(10.0, 201), 0, 5)
        with pytest.raises(GridMismatchError):
            overlap_matrix([f1, f2], 5.0)


class TestSignalOverlap:
    def test_zero_spectrum(self):
        grid = default_grid(11.5)
        filt = filter_function(fo_sequence(3, 20, 11.5, 5.0), grid)
        zero = SpectralDensity.from_grid([0.0, 60.0], [0.0, 0.0])
        assert signal_overlap(zero, filt) == 0.0

    def test_flat_spectrum_parseval(self):
        # chi = S0 * integral F = 4 S0 T for a flat spectrum over the support
        T = 5.0
        omega_from = 2000.0 / T
        grid = FrequencyGrid(omega_from, int(omega_from / 0.01) + 1)
        filt = filter_function(fo_sequence(1, 20, 11.5, T), grid)
        flat = SpectralDensity.from_grid([0.0, omega_from], [1.0, 1.0])
        val = signal_overlap(flat, filt)
        assert val == pytest.approx(4 * T, rel=1e-3)

    def test_peak_filter_dominates_tail_filter(self):
        spec = SpectralDensity.lorentzian_mixture(
            [(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
        grid = default_grid(11.5)
        near_peak = filter_function(fo_sequence(5, 20, 11.5, 5.0), grid)   # ~2.3
        near_tail = filter_function(fo_sequence(17, 20, 11.5, 5.0), grid)  # ~9.2
        assert signal_overlap(spec, near_peak) > 3 * signal_overlap(spec, near_tail)


def _per_filter_overlap(spectrum, filt, omega_int_max=None):
    """The one-filter overlap with its own spectrum sample, as it was
    written before :func:`signal_overlaps` shared one sample per set."""
    grid = filt.grid
    w = grid.trap_weights(omega_int_max)
    active = w > 0
    svals = np.zeros(grid.size)
    svals[active] = spectrum.evaluate(grid.omegas[active])
    return float(np.sum(w * svals * filt.values))


_OVERLAP_SETS = {
    "fo": lambda: [fo_sequence(k, 20, 11.5, 5.0) for k in range(1, 21)],
    "as": lambda: [as_sequence(k, 20, 11.5, 10.0) for k in range(1, 21)],
    "staircase-2q": lambda: [staircase_split(11.5 * (k - 1) / 12, 2, 5.0)
                             for k in range(1, 13)],
}


class TestSignalOverlaps:
    """One spectrum sample per filter set gives every overlap's bits."""

    @pytest.fixture(scope="class")
    def spectra(self, tmp_path_factory):
        analytic = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
        omegas = np.linspace(0.0, 60.0, 601)
        path = tmp_path_factory.mktemp("spectrum") / "spec.csv"
        np.savetxt(path, np.column_stack((omegas, analytic.evaluate(omegas))),
                   delimiter=",", header="omega,S")
        return {"analytic": analytic, "csv": SpectralDensity.from_csv(path)}

    @pytest.mark.parametrize("cut", [None, 10.0, 7.3337])
    @pytest.mark.parametrize("kind", ["analytic", "csv"])
    @pytest.mark.parametrize("family", list(_OVERLAP_SETS))
    def test_bits_equal_per_filter(self, spectra, family, kind, cut):
        grid = default_grid(11.5)
        filters = [filter_function(g, grid) for g in _OVERLAP_SETS[family]()]
        spec = spectra[kind]
        both = signal_overlaps(spec, filters, omega_int_max=cut)
        one = np.array([signal_overlap(spec, f, omega_int_max=cut) for f in filters])
        ref = np.array([_per_filter_overlap(spec, f, cut) for f in filters])
        assert both.dtype == np.float64 and both.shape == (len(filters),)
        assert both.tobytes() == one.tobytes() == ref.tobytes()
        assert np.all(both > 0)

    def test_one_spectrum_sample(self, spectra, monkeypatch):
        grid = default_grid(11.5)
        filters = [filter_function(g, grid) for g in _OVERLAP_SETS["fo"]()]
        calls = []
        evaluate = SpectralDensity.evaluate
        monkeypatch.setattr(SpectralDensity, "evaluate",
                            lambda self, omega: calls.append(np.size(omega))
                            or evaluate(self, omega))
        signal_overlaps(spectra["analytic"], filters)
        assert calls == [grid.size]

    def test_empty_and_mixed_grids(self, spectra):
        assert signal_overlaps(spectra["analytic"], []).shape == (0,)
        f1 = box_filter(FrequencyGrid(10.0, 101), 0, 5)
        f2 = box_filter(FrequencyGrid(10.0, 201), 0, 5)
        with pytest.raises(GridMismatchError):
            signal_overlaps(spectra["analytic"], [f1, f2])


class TestContinuousNorm:
    def test_constant_one(self):
        grid = FrequencyGrid(20.0, 4001)
        assert continuous_norm(box_filter(grid, 0.0, 20.0), 10.0) == pytest.approx(
            math.sqrt(10.0))

    def test_homogeneity(self):
        grid = FrequencyGrid(20.0, 801)
        rng = np.random.default_rng(5)
        vals = rng.uniform(0, 1, grid.size)
        base = continuous_norm(vals, 12.0, grid)
        assert continuous_norm(3.5 * vals, 12.0, grid) == pytest.approx(3.5 * base)

    def test_parallelogram_identity(self):
        grid = FrequencyGrid(20.0, 801)
        rng = np.random.default_rng(6)
        for _ in range(5):
            a = rng.uniform(0, 1, grid.size)
            b = rng.uniform(0, 1, grid.size)
            lhs = (continuous_norm(a + b, 15.0, grid) ** 2
                   + continuous_norm(a - b, 15.0, grid) ** 2)
            rhs = 2 * (continuous_norm(a, 15.0, grid) ** 2
                       + continuous_norm(b, 15.0, grid) ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_grid_convergence_of_overlaps():
    spec = SpectralDensity.lorentzian_mixture([(1.0, 2.0, 1.0), (0.7, 6.0, 2.0)])
    coarse = default_grid(11.5)
    fine = FrequencyGrid(coarse.omega_max_grid, 2 * coarse.size - 1)
    for k in (2, 9, 20):
        seq = fo_sequence(k, 20, 11.5, 5.0)
        c1 = signal_overlap(spec, filter_function(seq, coarse))
        c2 = signal_overlap(spec, filter_function(seq, fine))
        assert abs(c1 - c2) / abs(c2) < 1e-3


class TestGridInput:
    """A grid that cannot hold two nodes over a positive span raises
    GridRangeError, in place of a ZeroDivisionError or a bare ValueError."""

    @pytest.mark.parametrize("omega_max_grid, size", [(1.0, 1), (1.0, -11499), (0.0, 11),
                                                      (-3.0, 11)])
    def test_frequency_grid(self, omega_max_grid, size):
        with pytest.raises(GridRangeError):
            FrequencyGrid(omega_max_grid, size)

    @pytest.mark.parametrize("kwargs", [{"spacing": 0.0}, {"spacing": -0.005},
                                        {"spacing": -1e-300}, {"span_factor": 0.0},
                                        {"span_factor": -1.0}])
    def test_default_grid(self, kwargs):
        with pytest.raises(GridRangeError):
            default_grid(11.5, **kwargs)

    @pytest.mark.parametrize("make", [default_grid, ocf_grid])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["omega_max", "span_factor", "spacing"])
    def test_non_finite_refused(self, make, name, value):
        """Each non-finite argument is named, where a non-finite omega_max
        or span_factor raised a bare ValueError or an OverflowError and an
        infinite spacing a size error."""
        kwargs = {"span_factor": 5.0, "spacing": 0.01, name: value}
        omega_max = kwargs.pop("omega_max", 1.0)
        with pytest.raises(NonFiniteInputError, match=f"^{name} must be finite"):
            make(omega_max, **kwargs)

    @pytest.mark.parametrize("args, span", [((1e200, 1e200), "inf"), ((1.0, 5.0, 1e-310), "5.0")],
                             ids=["span", "spacing"])
    def test_node_count_overflow_refused(self, args, span):
        """A node count past the float range names the span and the
        spacing, where it raised a bare OverflowError."""
        with pytest.raises(GridRangeError, match=f"^span {span} at spacing "):
            default_grid(*args)

    def test_node_count_cap(self):
        """A finite node count past ``MAX_GRID_NODES`` is named, where it
        ended in a 418 TiB allocation once the nodes were built."""
        with pytest.raises(GridRangeError, match="^size 57500000000001 exceeds the 16777216 "):
            default_grid(11.5, 5.0, 1e-12)
        with pytest.raises(GridRangeError, match="^size 16777217 exceeds"):
            FrequencyGrid(1.0, MAX_GRID_NODES + 1)
        assert FrequencyGrid(1.0, MAX_GRID_NODES).size == MAX_GRID_NODES

    @pytest.mark.parametrize("spacing, span_factor", [(0.0, 3.0), (0.01, -1.0)])
    def test_ocf_grid(self, spacing, span_factor):
        with pytest.raises(GridRangeError):
            ocf_grid(10.0, spacing, span_factor)

    @pytest.mark.parametrize("omega_c, spacing, span_factor", [
        (10.0, 0.01, 3.0), (7.3, 0.013, 2.5), (10.0, 0.005, 5.0)])
    def test_ocf_grid_is_a_default_grid(self, omega_c, spacing, span_factor):
        span = span_factor * omega_c
        grid = ocf_grid(omega_c, spacing, span_factor)
        assert (grid.omega_max_grid, grid.size) == (span, int(math.ceil(span / spacing)) + 1)

    @pytest.mark.parametrize("cut", [-0.5, -1e-300, math.nan, 10.0 * (1 + 2e-9), 11.0],
                             ids=["negative", "tiny-negative", "nan", "past-tolerance", "above"])
    def test_cut_outside_grid(self, cut):
        """A cut outside ``[0, omega_max_grid]`` raises GridRangeError, in
        trap_weights and in each band integral built on it; a negative cut
        would otherwise index the grid's top nodes."""
        grid = FrequencyGrid(10.0, 11)
        filt = box_filter(grid, 0.0, 10.0)
        spectrum = SpectralDensity.from_grid([0.0, 10.0], [1.0, 1.0])
        for call in (lambda: grid.trap_weights(cut), lambda: overlap_matrix([filt], cut),
                     lambda: signal_overlaps(spectrum, [filt], cut)):
            with pytest.raises(GridRangeError, match="outside grid range"):
                call()

    @pytest.mark.parametrize("cut, total", [(0.0, 0.0), (10.0 * (1 + 5e-10), 10.0)],
                             ids=["zero", "within-tolerance"])
    def test_cut_at_the_range_ends(self, cut, total):
        assert FrequencyGrid(10.0, 11).trap_weights(cut).sum() == pytest.approx(total)


class TestGridEquality:
    def test_equal_fields_equal_grids(self):
        a, b = FrequencyGrid(10.0, 11), FrequencyGrid(10.0, 11)
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1

    @pytest.mark.parametrize("other", [FrequencyGrid(10.0, 12), FrequencyGrid(11.0, 11)],
                             ids=["size", "span"])
    def test_different_fields_differ(self, other):
        assert FrequencyGrid(10.0, 11) != other

    def test_filters_on_equal_grids_share_an_overlap_matrix(self):
        a, b = FrequencyGrid(10.0, 1001), FrequencyGrid(10.0, 1001)
        filters = [box_filter(a, 0.0, 3.0), box_filter(b, 2.0, 8.0)]
        same = overlap_matrix([filters[0], box_filter(a, 2.0, 8.0)], 10.0)
        assert overlap_matrix(filters, 10.0).tobytes() == same.tobytes()
        assert same[0, 1] > 0
