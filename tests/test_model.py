import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su2qpt import model
from su2qpt.model import (
    DEGENERACY_RTOL,
    Spectrum,
    analytic_spectrum,
    critical_couplings,
    ground_level,
)
from su2qpt.spin_algebra import Multiplet


def pairs(s: Spectrum):
    return list(zip(s.intercepts.tolist(), s.slopes.tolist()))


def per_level_reference(m: Multiplet, e_gap: float):
    """The closed form evaluated one level at a time, in Python floats."""
    j_sq = m.j * m.j
    ms = [float(mm) for mm in m.m_values()]
    return ms, [e_gap * mm for mm in ms], [mm * mm - j_sq for mm in ms]


def same_bits(got: np.ndarray, want: list) -> bool:
    want = np.array(want)
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_analytic_pairs_n2():
    assert pairs(analytic_spectrum(Multiplet(2))) == [
        (-1.0, 0.0),
        (0.0, -1.0),
        (1.0, 0.0),
    ]


def test_analytic_pairs_n4():
    assert pairs(analytic_spectrum(Multiplet(4))) == [
        (-2.0, 0.0),
        (-1.0, -3.0),
        (0.0, -4.0),
        (1.0, -3.0),
        (2.0, 0.0),
    ]


def test_analytic_pairs_n8():
    assert pairs(analytic_spectrum(Multiplet(8))) == [
        (-4.0, 0.0),
        (-3.0, -7.0),
        (-2.0, -12.0),
        (-1.0, -15.0),
        (0.0, -16.0),
        (1.0, -15.0),
        (2.0, -12.0),
        (3.0, -7.0),
        (4.0, 0.0),
    ]


def test_e_gap_scales_intercepts_only():
    s = analytic_spectrum(Multiplet(4), e_gap=2.5)
    assert pairs(s) == [
        (-5.0, 0.0),
        (-2.5, -3.0),
        (0.0, -4.0),
        (2.5, -3.0),
        (5.0, 0.0),
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 1001])
@pytest.mark.parametrize("e_gap", [1.0, 0.37, 2.5])
def test_arrays_match_per_level_loop_bitwise(n, e_gap):
    mult = Multiplet(n)
    s = analytic_spectrum(mult, e_gap)
    ms, intercepts, slopes = per_level_reference(mult, e_gap)
    assert same_bits(s.m_values, ms)
    assert same_bits(s.intercepts, intercepts)
    assert same_bits(s.slopes, slopes)
    assert s.m_values.size == n + 1


def test_spectrum_rejects_malformed_arrays():
    with pytest.raises(ValueError):
        Spectrum([], [], [])
    with pytest.raises(ValueError):
        Spectrum([-0.5, 0.5], [-1.0, 1.0], [0.0])
    with pytest.raises(ValueError):
        Spectrum([[-0.5, 0.5]], [[-1.0, 1.0]], [[0.0, 0.0]])


def test_spectrum_arrays_are_frozen_copies():
    ms = np.array([-0.5, 0.5])
    intercepts = np.array([-1.0, 1.0])
    slopes = np.array([0.0, 0.0])
    s = Spectrum(ms, intercepts, slopes)
    for arr in (s.m_values, s.intercepts, s.slopes):
        with pytest.raises(ValueError):
            arr[0] = 9.0
    ms[0] = intercepts[0] = slopes[0] = 9.0
    assert np.array_equal(s.m_values, [-0.5, 0.5])
    assert np.array_equal(s.intercepts, [-1.0, 1.0])
    assert np.array_equal(s.slopes, [0.0, 0.0])


def test_spectrum_accessors():
    s = analytic_spectrum(Multiplet(4))
    assert np.array_equal(s.m_values, [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert np.array_equal(s.intercepts, [-2.0, -1.0, 0.0, 1.0, 2.0])
    assert np.array_equal(s.slopes, [0.0, -3.0, -4.0, -3.0, 0.0])
    assert np.array_equal(s.energies(0.5), [-2.0, -2.5, -2.0, -0.5, 2.0])


@pytest.mark.parametrize("e_gap", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_e_gap_must_be_finite_and_positive(e_gap):
    # an infinite gap would turn the intercepts and couplings into inf/nan
    with pytest.raises(ValueError, match="positive and finite"):
        analytic_spectrum(Multiplet(4), e_gap)
    with pytest.raises(ValueError, match="positive and finite"):
        critical_couplings(Multiplet(4), e_gap)


def test_critical_couplings_exact():
    got = {
        n: [cp.lambda_c for cp in critical_couplings(Multiplet(n))]
        for n in (2, 4, 8)
    }
    assert got == {2: [1.0], 4: [1 / 3, 1.0], 8: [1 / 7, 1 / 5, 1 / 3, 1.0]}


def test_critical_couplings_crossing_pairs():
    cps = critical_couplings(Multiplet(8))
    assert [(cp.n, cp.lower_m, cp.upper_m) for cp in cps] == [
        (1, -4.0, -3.0),
        (2, -3.0, -2.0),
        (3, -2.0, -1.0),
        (4, -1.0, 0.0),
    ]
    s = analytic_spectrum(Multiplet(8))
    ms = list(s.m_values)
    for cp in cps:
        lo, hi = ms.index(cp.lower_m), ms.index(cp.upper_m)
        e = s.energies(cp.lambda_c)
        assert abs(e[lo] - e[hi]) <= 1e-12
        assert s.slopes[lo] != s.slopes[hi]  # genuine crossing, not a tangency


def test_critical_couplings_scale_with_gap():
    base = [cp.lambda_c for cp in critical_couplings(Multiplet(8))]
    scaled = [cp.lambda_c for cp in critical_couplings(Multiplet(8), e_gap=2.5)]
    assert scaled == [2.5 / 7, 2.5 / 5, 2.5 / 3, 2.5]
    assert all(s > b for s, b in zip(scaled, base))


def test_critical_couplings_below_two_particles():
    assert critical_couplings(Multiplet(1)) == []


@pytest.mark.parametrize("n", [3, 5, 9])
def test_odd_n_stops_at_half_the_gap(n):
    # N // 2 crossings; the last has denominator N - (2*(N // 2) - 1) = 2
    cps = critical_couplings(Multiplet(n), e_gap=0.37)
    assert [cp.n for cp in cps] == list(range(1, n // 2 + 1))
    assert cps[-1].lambda_c == 0.37 / 2


def ground_reference(s: Spectrum, lam: float):
    """Ground energy, mean ground slope and degeneracy, one level at a time.

    The documented rule in Python floats: the levels within a relative
    DEGENERACY_RTOL of the minimum, and the mean of their slopes.
    """
    energies = [c + k * lam for c, k in zip(s.intercepts.tolist(), s.slopes.tolist())]
    e0 = min(energies)
    tol = DEGENERACY_RTOL * max(1.0, abs(e0))
    ground = [k for e, k in zip(energies, s.slopes.tolist()) if e - e0 <= tol]
    return e0, sum(ground) / len(ground), len(ground)


def named_levels(s: Spectrum, lam: float, ms: list[float]):
    """Lowest energy, mean slope and count of the levels labelled by ms."""
    idx = [s.m_values.tolist().index(m) for m in ms]
    return min(s.energies(lam)[idx]), sum(s.slopes[idx].tolist()) / len(ms), len(ms)


def test_ground_state_energy_examples():
    s = analytic_spectrum(Multiplet(4))
    for lam, e0, ms in ((0.2, -2.0, [-2.0]), (0.5, -2.5, [-1.0]), (2.0, -8.0, [0.0])):
        assert ground_level(s, lam) == named_levels(s, lam, ms)
        assert ground_level(s, lam)[0] == e0
    e, slope, degeneracy = ground_level(s, 1 / 3)
    assert (e, slope, degeneracy) == named_levels(s, 1 / 3, [-2.0, -1.0])
    assert degeneracy == 2
    assert abs(e - (-2.0)) <= 1e-12


def test_ground_slope_examples():
    s = analytic_spectrum(Multiplet(4))
    assert ground_level(s, 0.2)[1] == 0.0
    assert ground_level(s, 0.5)[1] == -3.0
    assert ground_level(s, 2.0)[1] == -4.0
    assert ground_level(s, 1 / 3)[1] == -1.5
    assert ground_level(s, 1.0)[1] == -3.5


def test_ground_level_is_energy_and_slope_in_one_pass():
    # one kernel pass gives what the per-level rule gives, bit for bit
    for n in range(2, 65):
        mult = Multiplet(n)
        s = analytic_spectrum(mult)
        lams = [0.0, 0.37, 2.0] + [cp.lambda_c for cp in critical_couplings(mult)]
        for lam in lams:
            got = ground_level(s, lam)
            assert got == ground_reference(s, lam), (n, lam)
            assert [np.ndim(x) for x in got] == [0, 0, 0]
        grid = ground_level(s, lams)
        assert [x.shape for x in grid] == [(len(lams),)] * 3
        assert list(zip(*(x.tolist() for x in grid))) == [ground_reference(s, x) for x in lams]


def test_ground_level_keeps_the_shape_of_lam():
    s = analytic_spectrum(Multiplet(8))
    lams = np.linspace(0.0, 1.5, 12).reshape(3, 4)
    energy, slope, degeneracy = ground_level(s, lams)
    assert energy.shape == slope.shape == degeneracy.shape == (3, 4)
    assert degeneracy.dtype.kind == "i"
    for idx in np.ndindex(lams.shape):
        assert (energy[idx], slope[idx], degeneracy[idx]) == ground_level(s, lams[idx])
    assert [x.shape for x in ground_level(s, [])] == [(0,)] * 3


@pytest.mark.parametrize("n, shape", [(8, (7, 200)), (5000, (4, 6))])
def test_ground_level_of_a_2d_lam_equals_per_point_calls(n, shape):
    # at N = 8 the 1400 couplings span four blocks of at most 455 points,
    # whose edges cut across the rows of lam; at N = 5000 every block is one
    # point summed over its own window (the whole spectrum where lam < 0)
    mult = Multiplet(n)
    s = analytic_spectrum(mult)
    lams = np.linspace(-0.2, 1.5, math.prod(shape))
    crit = critical_couplings(mult)
    at = np.linspace(1, lams.size - 2, 4).astype(int)
    lams[at] = [cp.lambda_c for cp in (crit[0], crit[1], crit[len(crit) // 2], crit[-1])]
    lams = lams.reshape(shape)
    energy, slope, degeneracy = ground_level(s, lams)
    assert energy.shape == slope.shape == degeneracy.shape == shape
    for idx in np.ndindex(shape):
        single = ground_level(s, lams[idx])
        for got, want in zip((energy[idx], slope[idx], degeneracy[idx]), single):
            assert got == want and np.signbit(got) == np.signbit(want), (lams[idx], got, want)
    assert 2 in degeneracy


def assert_rows_equal_zero_d(s: Spectrum, lams: np.ndarray) -> None:
    rows = ground_level(s, lams)
    for i, lam in enumerate(lams):
        single = ground_level(s, lam)
        for got, want in zip(rows, single):
            # bit for bit, sign of zero included
            assert got[i] == want and np.signbit(got[i]) == np.signbit(want), (lam, got[i], want)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=64),
    st.floats(min_value=1.0, max_value=3.5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
# grids of exactly one, two and three blocks, and one point past a block
@example(7, 1.0, 0)
@example(1, 2.0, 1)
@example(63, 3.0, 2)
@example(63, 65 / 64, 3)
def test_grid_rows_equal_zero_d_ground_level_bitwise(n, blocks, seed):
    mult = Multiplet(n)
    s = analytic_spectrum(mult)
    # a grid several blocks long, with every exact crossing on it
    length = int(blocks * max(1, model._BLOCK_ELEMENTS // (n + 1)))
    rng = np.random.default_rng(seed)
    lams = np.sort(rng.uniform(0.0, 2.0, length))
    crossings = [cp.lambda_c for cp in critical_couplings(mult)]
    lams[rng.choice(length, size=min(len(crossings), length), replace=False)] = crossings[:length]
    assert_rows_equal_zero_d(s, lams)


def test_grid_rows_equal_zero_d_ground_level_at_large_n():
    mult = Multiplet(300000)
    s = analytic_spectrum(mult)
    crit = critical_couplings(mult)
    lams = np.array([0.0, 0.3001, crit[-2].lambda_c, crit[-1].lambda_c, 0.98221818181818177])
    assert_rows_equal_zero_d(s, lams)
    assert ground_level(s, lams)[2].tolist() == [1, 1, 2, 2, 1]


def test_every_crossing_is_twofold_degenerate():
    for n in range(2, 65):
        mult = Multiplet(n)
        s = analytic_spectrum(mult)
        for cp in critical_couplings(mult):
            got = ground_level(s, cp.lambda_c)
            assert got == named_levels(s, cp.lambda_c, [cp.lower_m, cp.upper_m])


def test_no_spurious_degeneracy_at_large_n():
    # the M = 0 level sits only 8e-13*|E0| above the unique ground level
    # M = -1 here, yet thousands of ulp away
    s = analytic_spectrum(Multiplet(300000))
    lam = 0.98221818181818177
    assert ground_level(s, lam) == named_levels(s, lam, [-1.0])
    assert ground_level(s, lam)[1] == -22499999999.0


@given(
    st.integers(min_value=2, max_value=16),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_staircase_never_increases(n, a, b):
    lo, hi = min(a, b), max(a, b)
    s = analytic_spectrum(Multiplet(n))
    (e_lo, slope_lo, _), (e_hi, slope_hi, _) = ground_level(s, lo), ground_level(s, hi)
    assert slope_lo >= slope_hi
    # the slope never turns positive, so the ground energy only descends
    assert slope_hi <= 0.0
    assert e_lo >= e_hi


@given(st.integers(min_value=1, max_value=32), st.floats(min_value=0.0, max_value=2.0))
def test_ground_energy_is_spectrum_min(n, lam):
    s = analytic_spectrum(Multiplet(n))
    e, _, degeneracy = ground_level(s, lam)
    assert e == float(s.energies(lam).min())
    assert degeneracy >= 1
