import dataclasses
import math
import tracemalloc

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
from su2qpt.transitions import SweepTable


def pairs(s: Spectrum):
    return list(zip(s.intercepts.tolist(), s.slopes.tolist()))


def per_level_reference(m: Multiplet, e_gap: float):
    """The closed form evaluated one level at a time, in Python floats."""
    j_sq = m.j * m.j
    ms = [i - m.j for i in range(m.dim)]
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
    assert same_bits(mult.m_values(), ms)
    assert same_bits(s.intercepts, intercepts)
    assert same_bits(s.slopes, slopes)
    assert s.intercepts.size == n + 1


def test_spectrum_rejects_malformed_arrays():
    with pytest.raises(ValueError):
        Spectrum([], [])
    with pytest.raises(ValueError):
        Spectrum([-1.0, 1.0], [0.0])
    with pytest.raises(ValueError):
        Spectrum([[-1.0, 1.0]], [[0.0, 0.0]])
    with pytest.raises(ValueError):
        Spectrum([-1.0, 1.0], [[0.0, 0.0]])


def test_spectrum_arrays_are_frozen_copies():
    intercepts = np.array([-1.0, 1.0])
    slopes = np.array([0.0, 0.0])
    s = Spectrum(intercepts, slopes)
    assert [f.name for f in dataclasses.fields(s)] == ["intercepts", "slopes"]
    assert not hasattr(s, "m_values")
    for arr in (s.intercepts, s.slopes):
        with pytest.raises(ValueError):
            arr[0] = 9.0
    intercepts[0] = slopes[0] = 9.0
    assert np.array_equal(s.intercepts, [-1.0, 1.0])
    assert np.array_equal(s.slopes, [0.0, 0.0])

    # a read-only view is copied too: its writable base could still change it
    base = np.array([-1.0, 0.0, 1.0])
    view = base[:]
    view.setflags(write=False)
    s = Spectrum(view, view)
    base[0] = 9.0
    assert np.array_equal(s.intercepts, [-1.0, 0.0, 1.0])
    assert np.array_equal(s.slopes, [-1.0, 0.0, 1.0])
    # a fresh read-only array that owns its data is kept, not copied again
    fresh = np.array([-1.0, 0.0, 1.0])
    fresh.setflags(write=False)
    s = Spectrum(fresh, fresh)
    assert s.intercepts is fresh and s.slopes is fresh

    # the same holds for a sweep table
    values = np.zeros((2, len(SweepTable.COLUMNS)))
    table = SweepTable(values)
    with pytest.raises(ValueError):
        table.values[0, 0] = 9.0
    values[0, 0] = 9.0
    view = values[:]
    view.setflags(write=False)
    table = SweepTable(view)
    values[1, 0] = 9.0
    assert table.values[1, 0] == 0.0
    values.setflags(write=False)
    assert SweepTable(values).values is values


def test_analytic_spectrum_holds_its_arrays_once():
    # its two arrays plus 4 kB for the spectrum object itself: no
    # temporary, and no third level array, of M labels or a copy, ever exists
    m = Multiplet(300_000)
    nbytes = 8 * m.dim
    tracemalloc.start()
    try:
        s = analytic_spectrum(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.slopes.nbytes == nbytes
    assert peak <= 2 * nbytes + 4096


def test_spectrum_accessors():
    s = analytic_spectrum(Multiplet(4))
    assert np.array_equal(Multiplet(4).m_values(), [-2.0, -1.0, 0.0, 1.0, 2.0])
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
    got = {n: critical_couplings(Multiplet(n)).tolist() for n in (2, 4, 8)}
    assert got == {2: [1.0], 4: [1 / 3, 1.0], 8: [1 / 7, 1 / 5, 1 / 3, 1.0]}


def test_critical_couplings_crossing_pairs():
    # crossing n pairs levels n-1 and n, labelled by the multiplet's m_values()
    crit = critical_couplings(Multiplet(8))
    s = analytic_spectrum(Multiplet(8))
    ms = Multiplet(8).m_values().tolist()
    assert [(n, ms[n - 1], ms[n]) for n in range(1, crit.size + 1)] == [
        (1, -4.0, -3.0),
        (2, -3.0, -2.0),
        (3, -2.0, -1.0),
        (4, -1.0, 0.0),
    ]
    for n, lam_c in enumerate(crit.tolist(), 1):
        e = s.energies(lam_c)
        assert abs(e[n - 1] - e[n]) <= 1e-12
        assert s.slopes[n - 1] != s.slopes[n]  # genuine crossing, not a tangency


def test_critical_couplings_scale_with_gap():
    base = critical_couplings(Multiplet(8)).tolist()
    scaled = critical_couplings(Multiplet(8), e_gap=2.5).tolist()
    assert scaled == [2.5 / 7, 2.5 / 5, 2.5 / 3, 2.5]
    assert all(s > b for s, b in zip(scaled, base))


def test_critical_couplings_below_two_particles():
    crit = critical_couplings(Multiplet(1))
    assert crit.shape == (0,) and crit.dtype == np.float64


@pytest.mark.parametrize("n", [3, 5, 9])
def test_odd_n_stops_at_half_the_gap(n):
    # N // 2 crossings; the last has denominator N - (2*(N // 2) - 1) = 2
    crit = critical_couplings(Multiplet(n), e_gap=0.37)
    assert crit.shape == (n // 2,)
    assert crit[-1] == 0.37 / 2


@pytest.mark.parametrize("e_gap", [1.0, 0.37, 1e-300, 1e300])
def test_critical_couplings_are_the_scalar_divisions_at_any_gap(e_gap):
    # every crossing, at gaps near both ends of the float range
    for n in (1, 2, 3, 4, 5, 8, 33, 129, 300_000):
        want = [e_gap / (n - (2 * i - 1)) for i in range(1, n // 2 + 1)]
        assert critical_couplings(Multiplet(n), e_gap).tolist() == want


def test_critical_couplings_hold_little_past_their_result():
    # the denominators are the result's own float array, divided in place;
    # built over an int64 arange, their temporaries took another 1.27 MB
    m = Multiplet(300_000)
    critical_couplings(m, 0.37)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        crit = critical_couplings(m, 0.37)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= crit.nbytes + 4096


@given(
    st.floats(min_value=0.0, max_value=6.0).map(lambda x: int(10.0**x)),
    st.floats(min_value=-3.0, max_value=3.0).map(lambda x: 10.0**x),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(1, 1.0, 0)  # no crossing
@example(2, 1.0, 0)
@example(3, 0.37, 0)
@example(4096, 2.5, 0)  # the largest spectrum summed whole
@example(4097, 0.37, 0)  # the smallest windowed one
@example(10**6, 1.0, 0)
def test_critical_couplings_are_the_ground_crossings(n, e_gap, seed):
    mult = Multiplet(n)
    crit = critical_couplings(mult, e_gap)
    k = n // 2
    assert crit.dtype == np.float64 and crit.shape == (k,)
    assert not crit.flags.writeable
    assert np.all(crit[1:] > crit[:-1])
    if not k:
        return
    # at most 2,000 crossings, always the first and the last
    rng = np.random.default_rng(seed)
    inner = rng.choice(np.arange(2, k), size=min(max(k - 2, 0), 1998), replace=False)
    sample = np.unique(np.concatenate(([1, k], inner))).tolist()
    lams = crit[np.subtract(sample, 1)]
    assert lams.tolist() == [e_gap / (n - (2 * i - 1)) for i in sample]
    # crossing i pairs levels i-1 and i, M = -J + i - 1 and M = -J + i; both
    # are among the levels tied for ground there (a third may tie at large N)
    s = analytic_spectrum(mult, e_gap)
    assert mult.m_values()[sample].tolist() == [-mult.j + i for i in sample]
    tied = set()
    for points, _, point, level in model._ties(s, lams):
        tied.update(zip((point + points.start).tolist(), level.tolist()))
    for p, i in enumerate(sample):
        assert {(p, i - 1), (p, i)} <= tied, (n, e_gap, i)


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
    """Lowest energy, mean slope and count of the analytic levels labelled by ms."""
    labels = Multiplet(s.slopes.size - 1).m_values().tolist()
    idx = [labels.index(m) for m in ms]
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
        lams = [0.0, 0.37, 2.0] + critical_couplings(mult).tolist()
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
    lams[at] = crit[[0, 1, len(crit) // 2, -1]]
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
    crossings = critical_couplings(mult).tolist()
    lams[rng.choice(length, size=min(len(crossings), length), replace=False)] = crossings[:length]
    assert_rows_equal_zero_d(s, lams)


def test_grid_rows_equal_zero_d_ground_level_at_large_n():
    mult = Multiplet(300000)
    s = analytic_spectrum(mult)
    crit = critical_couplings(mult)
    lams = np.array([0.0, 0.3001, crit[-2], crit[-1], 0.98221818181818177])
    assert_rows_equal_zero_d(s, lams)
    assert ground_level(s, lams)[2].tolist() == [1, 1, 2, 2, 1]


def test_every_crossing_is_twofold_degenerate():
    for n in range(2, 65):
        mult = Multiplet(n)
        s = analytic_spectrum(mult)
        # crossing n pairs M = -J + n - 1 and M = -J + n
        for n_c, lam_c in enumerate(critical_couplings(mult).tolist(), 1):
            got = ground_level(s, lam_c)
            assert got == named_levels(s, lam_c, [-mult.j + n_c - 1, -mult.j + n_c])


def test_no_spurious_degeneracy_at_large_n():
    # the M = 0 level sits only 8e-13*|E0| above the unique ground level
    # M = -1 here, yet thousands of ulp away
    s = analytic_spectrum(Multiplet(300000))
    lam = 0.98221818181818177
    assert ground_level(s, lam) == named_levels(s, lam, [-1.0])
    assert ground_level(s, lam)[1] == -22499999999.0


@given(
    st.floats(min_value=math.log10(2.0), max_value=6.0).map(lambda x: round(10.0**x)),
    st.floats(min_value=-3.0, max_value=3.0).map(lambda x: 10.0**x),
)
@example(4095, 1.0)  # 4096 levels, the most summed whole
@example(4097, 0.37)  # windowed
@example(10**6, 1.0)
def test_ground_slope_approaches_the_thermodynamic_limit(n, e_gap):
    # In the scaled coupling g = lam*N/e_gap the crossings crowd into one
    # transition at g = 1, and the slope per J^2 tends to
    # L(g) = -(1 - min(1, 1/g)^2).  The bound comes from the label count.
    # Crossing k lies below lam iff k < x = (N + 1 - N/g)/2, so the ground
    # label is M0 = -J + ceil(x) - 1 = -u + d with u = J/g and
    # d in [-1/2, 1/2] (both ends at a crossing, where the slope is the
    # mean of the two).  Then slope/J^2 - L = (d^2 - 2*u*d)/J^2, at most
    # (u + 1/4)/J^2 = 2/(g*N) + 1/N^2 past g = 1, and 0 up to it, where no
    # crossing lies below lam.  A label one level off, d -/+ 1, breaks it
    # at every g but those just beside a crossing.  The 1e-12 is float
    # rounding: the values compared are at most 1 and exact to a few ulp.
    j = n / 2
    lam = np.linspace(0.2, 5.0, 97) * e_gap / n
    g = lam * n / e_gap  # the scaled couplings evaluated
    slope = ground_level(analytic_spectrum(Multiplet(n), e_gap), lam)[1]
    limit = -(1.0 - np.minimum(1.0, 1.0 / g) ** 2)
    bound = np.where(g > 1.0, (j / g + 0.25) / j**2, 0.0)
    assert np.all(np.abs(slope / j**2 - limit) <= bound + 1e-12), (n, e_gap)


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
