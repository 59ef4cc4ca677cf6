"""The engines' windows of levels at large N, against full sums over every level."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_model import ground_reference

from su2qpt import model, thermo
from su2qpt.model import Spectrum, analytic_spectrum, critical_couplings, ground_level
from su2qpt.spin_algebra import Multiplet
from su2qpt.thermo import COLUMNS, observables, observables_grid

ULP_BOUND = 8
FLOOR = model._BLOCK_ELEMENTS


def full_sum_columns(s: Spectrum, beta: float, lam: float) -> np.ndarray:
    """The ``COLUMNS`` of one point from every level, as the engine computed
    them before it had windows: the reference the windowed kernel must meet."""
    d = s.slopes * lam + s.intercepts
    e_min = d.min()
    d = d - e_min
    w = np.exp(-beta * d)
    w_sum = np.add.reduce(w)
    w_excited = np.vecdot(w, w < 1.0)
    log_w_sum = np.log1p(np.rint(w_sum - w_excited) - 1.0 + w_excited)
    p = w / w_sum
    delta = np.vecdot(p, d)
    centered = d - delta
    mean_slope = np.vecdot(p, s.slopes)
    cov = np.vecdot(p, (s.slopes - mean_slope) * centered)
    var = np.vecdot(p, centered * centered)
    return np.array(
        [
            beta,
            lam,
            -beta * e_min + log_w_sum,
            e_min + delta,
            beta * delta + log_w_sum,
            -var,
            mean_slope - beta * cov,
            beta * beta * var,
        ]
    )


def thermal_reach(s: Spectrum, beta: float, lam: float) -> slice:
    return model._levels(s, lam, lambda e_min: thermo._UNDERFLOW / beta)


def ulps(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    return np.where(got == want, 0.0, np.abs(got - want) / np.spacing(np.abs(want)))


def crossing(n: int, e_gap: float, k: int) -> float:
    return critical_couplings(Multiplet(n), e_gap)[k].item()


@given(
    st.integers(min_value=4096, max_value=10_000),
    st.floats(min_value=0.05, max_value=20.0),
    st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=-0.5, max_value=2.0),
)
@example(4095, 1.0, 110.0, 0.34)
@example(4096, 1.0, 110.0, 0.34)
@example(4097, 1.0, 110.0, 0.34)
@example(5000, 0.37, 110.0, 0.0)
@example(5000, 0.37, 1e4, 0.0)
@example(5000, 1.0, 110.0, crossing(5000, 1.0, 2499))
@example(9999, 2.5, 1e4, crossing(9999, 2.5, 4000))
@example(5000, 1.0, 110.0, -0.25)
@example(5000, 1.0, 0.0, 0.34)
@example(10_000, 1.0, 1e4, 2.0)
@example(10_000, 0.05, 1e-3, 1e-3)
def test_windowed_kernels_match_full_sums(n, e_gap, beta, lam):
    s = analytic_spectrum(Multiplet(n), e_gap)
    got = observables_grid(s, beta, [lam])[0]
    want = full_sum_columns(s, beta, lam)
    whole = n + 1 <= FLOOR or beta == 0 or lam < 0
    if whole:
        assert np.array_equal(got, want)
    else:
        worst = ulps(got, want)
        assert worst.max() <= ULP_BOUND, dict(zip(COLUMNS, worst))
    assert ground_level(s, lam) == ground_reference(s, lam)


@pytest.mark.parametrize("n_levels, rows", [(2048, 2), (4096, 1), (4097, 1)])
def test_blocks_share_points_only_over_every_level(n_levels, rows):
    # the driver's contract: several points share a block only when it sums
    # every level, and past N+1 = FLOOR every block is one point in a window
    s = analytic_spectrum(Multiplet(n_levels - 1))
    lams = np.linspace(0.0, 1.2, 7)
    blocks = list(model._blocks(s, lams, lambda point, e_min: thermo._UNDERFLOW / 110.0))
    assert [b[0] for b in blocks] == [slice(i, i + rows) for i in range(0, lams.size, rows)]
    for points, levels, d, e_min in blocks:
        if n_levels <= FLOOR:
            assert levels == slice(None)
        else:
            assert levels == thermal_reach(s, 110.0, lams[points].item())
            assert levels.stop - levels.start == FLOOR
        assert d.shape == (lams[points].size, FLOOR if n_levels > FLOOR else n_levels)
        assert np.array_equal(e_min, [s.energies(lam).min() for lam in lams[points]])


def permuted(s: Spectrum, seed: int) -> Spectrum:
    order = np.random.default_rng(seed).permutation(s.slopes.size)
    return Spectrum(s.intercepts[order], s.slopes[order])


@pytest.mark.parametrize("seed", [0, 1])
def test_non_convex_spectrum_takes_the_full_sum(seed):
    s = permuted(analytic_spectrum(Multiplet(5000)), seed)
    assert not s._convex
    lams = [0.0, 0.34, crossing(5000, 1.0, 2000), 1.7]
    for lam in lams:
        assert thermal_reach(s, 110.0, lam) == slice(None)
        for beta in (0.0, 110.0, 1e4):
            assert np.array_equal(observables_grid(s, beta, [lam])[0], full_sum_columns(s, beta, lam))
        assert ground_level(s, lam) == ground_reference(s, lam)


def test_negative_coupling_takes_the_full_sum():
    s = analytic_spectrum(Multiplet(5000), 0.37)
    for lam in (-0.5, -1e-3, -0.0 - 1e-300):
        assert thermal_reach(s, 110.0, lam) == slice(None)
        for beta in (1.0, 110.0, 1e4):
            assert np.array_equal(observables_grid(s, beta, [lam])[0], full_sum_columns(s, beta, lam))
        assert ground_level(s, lam) == ground_reference(s, lam)


def test_overflowing_minimum_takes_the_full_sum():
    # the lowest levels overflow to -inf: the full sum raises, as it did
    # before windows, rather than a window summing over infinities
    s = analytic_spectrum(Multiplet(5000))
    assert thermal_reach(s, 110.0, 1e305) == slice(None)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            observables_grid(s, 110.0, [1e305])
        with pytest.raises(FloatingPointError):
            ground_level(s, 1e305)


@given(
    st.integers(min_value=1, max_value=40_000),
    st.floats(min_value=1e-3, max_value=1e3),
)
@example(1, 1.0)
@example(40_000, 0.37)
def test_analytic_spectra_are_convex(n, e_gap):
    assert analytic_spectrum(Multiplet(n), e_gap)._convex


def test_shifted_spectra_of_the_acceptance_suite_are_convex():
    # the shift invariance check (criterion 6) moves every intercept by 0.37
    for n in (2, 4, 8, 5000):
        s = analytic_spectrum(Multiplet(n))
        assert Spectrum(s.intercepts + 0.37, s.slopes)._convex


@pytest.mark.parametrize("at", [1, 100, 16383, 16384, 16385, 16386, 32769, 39_999])
@pytest.mark.parametrize("field", ["intercepts", "slopes"])
def test_convexity_check_finds_one_dent_in_any_chunk(at, field):
    s = analytic_spectrum(Multiplet(40_000))
    arrays = {"intercepts": s.intercepts.copy(), "slopes": s.slopes.copy()}
    # lift one level above the line through its neighbours
    arrays[field][at] = 0.5 * (arrays[field][at - 1] + arrays[field][at + 1]) + 1e-3
    assert not Spectrum(arrays["intercepts"], arrays["slopes"])._convex


@pytest.fixture(scope="module")
def s_million():
    return analytic_spectrum(Multiplet(1_000_000))


def reach_bound(beta: float, lam: float) -> float:
    # E_M - E_min = lam*(M - M*)^2 - lam*(M0 - M*)^2 with |M0 - M*| <= 1/2,
    # so the levels within R lie within sqrt(R/lam) + 1/2 of M*: at most
    # 2*sqrt(R/lam) + 2 of them, and one more for rounding at the edge
    return 2.0 * math.sqrt(thermo._UNDERFLOW / (beta * lam)) + 3.0


@pytest.mark.parametrize(
    "beta, lam", [(110.0, 0.34), (110.0, 1e-5), (1e4, 2.0), (1e-3, 0.01), (0.5, 1e-4)]
)
def test_window_width_at_a_million_particles(s_million, beta, lam):
    levels = thermal_reach(s_million, beta, lam)
    start, stop, _ = levels.indices(s_million.slopes.size)
    assert stop - start <= max(FLOOR, reach_bound(beta, lam))
    obs = observables(s_million, beta, lam)
    p = obs.occupations
    assert p.shape == (1_000_001,)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert not p[:start].any() and not p[stop:].any()
    # the left-out levels are those whose weight would underflow to zero
    want = full_sum_columns(s_million, beta, lam)
    assert ulps(observables_grid(s_million, beta, [lam])[0], want).max() <= ULP_BOUND


def test_reach_widens_the_window_past_its_floor(s_million):
    beta, lam = 1e-3, 0.01
    start, stop, _ = thermal_reach(s_million, beta, lam).indices(s_million.slopes.size)
    assert stop - start > FLOOR
    d = s_million.energies(lam)
    d -= d.min()
    inside = np.zeros(d.size, bool)
    inside[start:stop] = True
    # every level that keeps a non-zero weight is in the window
    assert not np.any(~inside & (np.exp(-beta * d) > 0))


def test_grid_rows_equal_zero_d_calls_at_a_million_particles(s_million):
    crit = critical_couplings(Multiplet(1_000_000))
    lams = np.array([0.0, 0.3001, crit[-2], crit[-1], 1.2, -0.1])
    for beta in (0.0, 110.0, 1e4):
        grid = observables_grid(s_million, beta, lams)
        for row, lam in zip(grid, lams):
            o = observables(s_million, beta, lam)
            want = [o.beta, o.lam] + [getattr(o, name) for name in COLUMNS[2:]]
            assert np.array_equal(row, want), (beta, lam)
    energy, slope, degeneracy = ground_level(s_million, lams)
    for i, lam in enumerate(lams):
        assert (energy[i], slope[i], degeneracy[i]) == ground_level(s_million, lam)
    assert degeneracy.tolist() == [1, 1, 2, 2, 1, 1]
