import math
from dataclasses import astuple
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su2qpt import thermo, transitions
from su2qpt.model import CriticalPoint, Spectrum, analytic_spectrum, critical_couplings
from su2qpt.spin_algebra import Multiplet
from su2qpt.thermo import observables
from su2qpt.transitions import (
    CSV_HEADER,
    PeakEstimate,
    SweepTable,
    _bisect,
    _golden_min,
    detect_jumps,
    find_peaks,
    phase_diagram,
    qpt_from_ceq,
    track_peaks_to_zero_t,
)

S2 = analytic_spectrum(Multiplet(2))
S4 = analytic_spectrum(Multiplet(4))
S8 = analytic_spectrum(Multiplet(8))
CRIT4 = critical_couplings(Multiplet(4))

# 2*u where tanh(u) = 1/u: flank offset of a two-level variance remnant
# is 2u/(beta*|slope gap|)
TWO_U_STAR = 2.3993572805154716


class TestFindPeaks:
    def test_four_flanks_at_beta_110(self):
        peaks = find_peaks(S4, 110.0, (0.02, 1.4), 1000)
        assert len(peaks) == 4
        lams = [p.lambda_at_peak for p in peaks]
        assert lams == sorted(lams)
        # flank pairs sit symmetrically around each crossing
        assert abs((lams[0] + lams[1]) / 2.0 - 1 / 3) <= 1e-6
        assert abs((lams[2] + lams[3]) / 2.0 - 1.0) <= 1e-6
        # two-level theory pins the offsets: 2u*/(beta*s), slope gaps 3 and 1
        for lam, (lam_c, s_gap) in zip(lams, [(1 / 3, 3.0), (1 / 3, 3.0), (1.0, 1.0), (1.0, 1.0)]):
            assert abs(abs(lam - lam_c) - TWO_U_STAR / (110.0 * s_gap)) <= 1e-6
        for p in peaks:
            assert p.height > 0.0
            assert p.width > 0.0
            assert p.beta == 110.0

    def test_flank_pair_heights_agree(self):
        peaks = find_peaks(S4, 110.0, (0.9, 1.1), 512)
        assert len(peaks) == 2
        a, b = peaks
        assert math.isclose(a.height, b.height, rel_tol=1e-6)
        assert math.isclose(a.width, b.width, rel_tol=1e-6)

    def test_no_peaks_on_a_flat_stretch(self):
        # between the crossings the variance is U-shaped, no interior max
        assert find_peaks(S4, 110.0, (0.4, 0.6), 128) == []

    @pytest.mark.parametrize("window, side", [((0.97, 1.1), "left"), ((0.9, 1.03), "right")])
    def test_window_edge_clamps_a_cut_flank(self, window, side):
        # the window cuts one flank of a peak above half height: the width
        # runs from that window edge to the bisected crossing on the other
        # flank
        def half_crossing(peak, outside):
            inside, half = peak.lambda_at_peak, 0.5 * peak.height
            for _ in range(60):
                mid = 0.5 * (inside + outside)
                if observables(S4, 110.0, mid).energy_variance >= half:
                    inside = mid
                else:
                    outside = mid
            return inside

        peaks = find_peaks(S4, 110.0, window, 512)
        if side == "left":
            (pk,) = [p for p in peaks if p.lambda_at_peak < 1.0]
            want = half_crossing(pk, 1.0) - window[0]
        else:
            (pk,) = [p for p in peaks if p.lambda_at_peak > 1.0]
            want = window[1] - half_crossing(pk, 1.0)
        assert abs(pk.width - want) <= 1e-9

    def test_peak_narrower_than_the_grid(self):
        # on 64 points the remnant flank near 1/4 of N = 5 is narrower than
        # a grid cell, so its top sample lies below half height; the width
        # must still be the one a fine scan resolves
        s5 = analytic_spectrum(Multiplet(5))
        coarse = find_peaks(s5, 90.0, (0.1, 1.3), 64)[0]
        fine = min(
            find_peaks(s5, 90.0, (0.1, 0.4), 4096),
            key=lambda p: abs(p.lambda_at_peak - coarse.lambda_at_peak),
        )
        assert abs(coarse.lambda_at_peak - fine.lambda_at_peak) <= 1e-7
        assert math.isclose(coarse.width, fine.width, rel_tol=1e-7)

    def test_float_noise_on_a_flat_tail_is_no_peak(self):
        # past the last crossing of N = 5 the variance is ~1e-31 and its
        # float noise has strict local maxima; only the four remnant
        # flanks (heights ~9e-5) are peaks
        peaks = find_peaks(analytic_spectrum(Multiplet(5)), 70.0, (0.1, 1.3), 4096)
        assert len(peaks) == 4
        assert all(p.height > 1e-5 for p in peaks)
        lams = [p.lambda_at_peak for p in peaks]
        assert abs((lams[0] + lams[1]) / 2.0 - 0.25) <= 1e-6
        assert abs((lams[2] + lams[3]) / 2.0 - 0.5) <= 1e-6

    def test_refinement_never_calls_scalar_observables(self, monkeypatch):
        # the scan and every refinement probe go through observables_grid
        def scalar(*args):
            raise AssertionError("find_peaks called thermo.observables")

        monkeypatch.setattr(thermo, "observables", scalar)
        assert len(find_peaks(S8, 110.0, (0.02, 1.4))) == 8

    @given(
        st.integers(2, 32),
        st.floats(0.1, 10.0),
        st.floats(5.0, 1e3),
        st.integers(16, 1024),
        st.data(),
    )
    @settings(max_examples=40)
    def test_lockstep_refinement_equals_one_search_per_peak(self, n, e_gap, beta, points, data):
        # one window edge falls among the remnant peaks of a crossing (they
        # sit about 2.4/(beta*slope gap) from it), so windows often cut a flank
        crit = [cp.lambda_c for cp in critical_couplings(Multiplet(n), e_gap)]
        cut = data.draw(st.sampled_from(crit)) + data.draw(st.floats(-4.0, 4.0)) / beta
        span = 1.2 * crit[-1]
        window = (cut - span, cut) if data.draw(st.booleans()) else (cut, cut + span)
        s = analytic_spectrum(Multiplet(n), e_gap)
        got = [(p.lambda_at_peak, p.height, p.width) for p in find_peaks(s, beta, window, points)]
        assert got == _one_search_per_peak(s, beta, window, points)

    def test_validation(self):
        with pytest.raises(ValueError):
            find_peaks(S4, 0.0, (0.0, 1.0))
        with pytest.raises(ValueError):
            find_peaks(S4, 10.0, (1.0, 1.0))
        with pytest.raises(ValueError):
            find_peaks(S4, 10.0, (0.0, 1.0), grid_points=8)


# The refinement layer as it ran before it was batched, one bracket at a
# time on Python floats: the references for the lockstep ``_golden_min``
# and ``_bisect``, which must end each bracket on the same bits.
def _golden_min_one(f, a, b, xtol):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol and a < c < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _bisect_one(inside, a, b, xtol):
    while abs(b - a) > xtol:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        if inside(mid):
            a = mid
        else:
            b = mid
    return a, b


def _one_search_per_peak(s, beta, window, grid_points):
    """(lambda*, height, width) of each peak, refined one peak at a time.

    The reference for ``find_peaks``: a scalar golden-section search per
    maximum and a scalar bisection per flank, every probe one
    ``observables`` call, as the peak route ran before its refinement was
    batched.  The batched route must reproduce it bit for bit.
    """

    def var_at(x):
        return observables(s, beta, x).energy_variance

    def flank(k, lam_star, half, step):
        def above_half(x):
            return var_at(x) >= half

        if y[k] < half:
            past = k if (grid[k] - lam_star) * step > 0 else k + step
            return 0.5 * sum(_bisect_one(above_half, lam_star, float(grid[past]), 1e-10))
        while 0 <= k + step < len(grid) and y[k + step] >= half:
            k += step
        if not 0 <= k + step < len(grid):
            return float(grid[k])
        return 0.5 * sum(_bisect_one(above_half, float(grid[k]), float(grid[k + step]), 1e-10))

    grid = np.linspace(window[0], window[1], grid_points)
    y = np.array([var_at(x) for x in grid])
    peaks = []
    for i in range(1, grid_points - 1):
        if y[i - 1] < y[i] > y[i + 1] and y[i] > 1e-12 * y.max():
            lo, hi = float(grid[i - 1]), float(grid[i + 1])
            lam = _golden_min_one(lambda x: -var_at(x), lo, hi, 1e-8)
            height = var_at(lam)
            half = 0.5 * height
            peaks.append((lam, height, flank(i, lam, half, +1) - flank(i, lam, half, -1)))
    deduped = []
    for pk in sorted(peaks, key=lambda p: p[0]):
        if deduped and abs(pk[0] - deduped[-1][0]) < 2e-8:
            if pk[1] > deduped[-1][1]:
                deduped[-1] = pk
        else:
            deduped.append(pk)
    return deduped


class TestTrackPeaks:
    def test_resolved_tracking_has_no_warnings(self):
        res = track_peaks_to_zero_t(S4, (70.0, 90.0, 110.0), (0.02, 1.4), 512, critical_points=CRIT4)
        assert res.warnings == ()
        assert {t.nearest_critical for t in res.peaks} == {1 / 3, 1.0}
        assert all(t.offset < 0.05 for t in res.peaks)

    def test_offsets_shrink_with_beta(self):
        res = track_peaks_to_zero_t(S4, (70.0, 90.0, 110.0), (0.9, 1.1), 512, critical_points=CRIT4)
        worst = {b: max(t.offset for t in res.peaks if t.beta == b) for b in (70.0, 90.0, 110.0)}
        assert worst[70.0] > worst[90.0] > worst[110.0]

    def test_merged_remnants_are_flagged(self):
        # at beta ~ 10 the two crossings share one broad basin
        res = track_peaks_to_zero_t(S4, (8.0, 12.0, 16.0), (0.02, 1.4), 512, critical_points=CRIT4)
        assert len(res.warnings) > 0
        assert "not" in res.warnings[0] and "resolved" in res.warnings[0]

    def test_inferred_gap_for_scaled_model(self):
        s = analytic_spectrum(Multiplet(4), e_gap=2.0)
        crit = critical_couplings(Multiplet(4), e_gap=2.0)
        res = track_peaks_to_zero_t(s, (70.0, 90.0, 110.0), (0.5, 2.4), 512, critical_points=crit)
        assert res.peaks
        assert {t.nearest_critical for t in res.peaks} == {2 / 3, 2.0}

    @given(
        st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=6, unique=True),
        st.lists(st.floats(-2.5, 3.5), max_size=6),
    )
    @example([0.25, 0.75], [0.5, 0.25, 0.75, 1.0, -1.0])  # a tie goes to the lower crossing
    @example([1.0], [0.2, 1.0, 7.0])  # one crossing: no gap, so no warning
    @example([0.0, 5e-301, 0.5], [1.0])  # rounding ties crossings that are not neighbours
    def test_each_peak_takes_its_nearest_crossing(self, crit, lams):
        points = [CriticalPoint(n, c, 0.0, 0.0) for n, c in enumerate(sorted(crit), 1)]
        peaks = [PeakEstimate(lam, 1.0, 0.1, 70.0) for lam in lams]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transitions, "find_peaks", lambda *args: peaks)
            res = track_peaks_to_zero_t(S4, (70.0, 90.0, 110.0), (0.0, 1.4), critical_points=points)
        want, warned = [], 0
        for lam in lams:
            # the rule as two scans over every crossing, ascending
            nearest = min(sorted(crit), key=lambda c: abs(lam - c))
            want.append((nearest, abs(lam - nearest)))
            gap = min((abs(nearest - c) for c in crit if c != nearest), default=math.inf)
            warned += abs(lam - nearest) > 0.25 * gap
        assert [(t.nearest_critical, t.offset) for t in res.peaks] == want * 3
        assert all(type(t.nearest_critical) is float for t in res.peaks)
        assert len(res.warnings) == 3 * warned

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            track_peaks_to_zero_t(S4, (70.0, 90.0), (0.0, 1.4), critical_points=CRIT4)
        with pytest.raises(ValueError):
            track_peaks_to_zero_t(S4, (70.0, 70.0, 90.0), (0.0, 1.4), critical_points=CRIT4)
        with pytest.raises(ValueError):
            track_peaks_to_zero_t(
                analytic_spectrum(Multiplet(1)),
                (70.0, 90.0, 110.0),
                (0.0, 1.4),
                critical_points=critical_couplings(Multiplet(1)),
            )


def _envelope_vertices(intercepts, slopes, lo, hi):
    """Exact (lam, left, right, midpoint) at each envelope vertex in [lo, hi).

    A vertex is a crossing where both levels are minimal; the levels tied
    there step from the largest slope to the smallest, and the on-point
    value is their mean, which is also the left value at lo itself.
    """
    b, a = [Fraction(v) for v in intercepts], [Fraction(v) for v in slopes]
    crossings = {
        (b[j] - b[i]) / (a[i] - a[j]) for i, j in combinations(range(len(a)), 2) if a[i] != a[j]
    }
    out = []
    for x in sorted(c for c in crossings if lo <= c < hi):
        e = [bi + ai * x for bi, ai in zip(b, a)]
        tied = [ai for ai, ei in zip(a, e) if ei == min(e)]
        if max(tied) == min(tied):
            continue
        mean = sum(tied) / len(tied)
        left = mean if x == lo else max(tied)
        out.append((float(x), float(left), float(min(tied)), float(mean)))
    return out


class TestDetectJumps:
    def test_n4_staircase(self):
        jumps = detect_jumps(S4, (0.0, 1.4))
        assert len(jumps) == 2
        assert abs(jumps[0].lam - 1 / 3) <= 1e-9
        assert abs(jumps[1].lam - 1.0) <= 1e-9
        assert (jumps[0].left_value, jumps[0].right_value) == (0.0, -3.0)
        assert (jumps[1].left_value, jumps[1].right_value) == (-3.0, -4.0)
        assert jumps[0].midpoint_value == -1.5
        assert jumps[1].midpoint_value == -3.5

    def test_n8_staircase(self):
        jumps = detect_jumps(S8, (0.0, 1.4))
        want_lams = [1 / 7, 1 / 5, 1 / 3, 1.0]
        want_plateaus = [0.0, -7.0, -12.0, -15.0, -16.0]
        assert len(jumps) == 4
        for jp, lam_c in zip(jumps, want_lams):
            assert abs(jp.lam - lam_c) <= 1e-9
        assert [jumps[0].left_value] + [j.right_value for j in jumps] == want_plateaus
        assert [j.midpoint_value for j in jumps] == [-3.5, -9.5, -13.5, -15.5]

    def test_matches_analytic_couplings_up_to_n16(self):
        for n in (2, 4, 8, 16):
            s = analytic_spectrum(Multiplet(n))
            want = [cp.lambda_c for cp in critical_couplings(Multiplet(n))]
            jumps = detect_jumps(s, (0.0, 1.4))
            assert len(jumps) == len(want)
            for jp, lam_c in zip(jumps, want):
                assert abs(jp.lam - lam_c) <= 1e-9
                # exactly two levels cross, so the on-point value is the mean
                assert abs(jp.midpoint_value - (jp.left_value + jp.right_value) / 2.0) <= 1e-9

    def test_n2_single_jump(self):
        jumps = detect_jumps(S2, (0.0, 2.0))
        assert len(jumps) == 1
        assert abs(jumps[0].lam - 1.0) <= 1e-9
        assert (jumps[0].left_value, jumps[0].right_value) == (0.0, -1.0)
        assert jumps[0].midpoint_value == -0.5

    def test_grid_point_exactly_on_crossing(self):
        # the window of --lambda-grid 0.25:1.25:17, whose dyadic grid holds
        # 1.0 exactly; the jump must not split into two half-steps
        grid = np.linspace(0.25, 1.25, 17)
        assert 1.0 in grid
        jumps = detect_jumps(S4, (0.25, 1.25))
        assert [round(j.lam, 9) for j in jumps] == [round(1 / 3, 9), 1.0]
        assert [(j.left_value, j.right_value) for j in jumps] == [(0.0, -3.0), (-3.0, -4.0)]

    def test_window_ends_exactly_on_crossing(self):
        jumps = detect_jumps(S4, (0.0, 1.0))
        assert len(jumps) == 1
        assert abs(jumps[0].lam - 1 / 3) <= 1e-9

    def test_window_is_half_open(self):
        # a crossing exactly at the right end lies outside [lo, hi)
        assert detect_jumps(S4, (0.0, 1 / 3)) == []

    def test_window_starts_exactly_on_crossing(self):
        # the left plateau lies outside the window, so the visible left
        # value is the on-crossing midpoint
        jumps = detect_jumps(S4, (1 / 3, 1.25))
        assert len(jumps) == 2
        assert abs(jumps[0].lam - 1 / 3) <= 1e-9
        assert jumps[0].left_value == -1.5
        assert jumps[0].right_value == -3.0

    def test_many_jumps_in_one_coarse_cell(self):
        # the window of --lambda-grid 0:1.2:16 at N = 2100; one walk must
        # resolve all 1050 crossings without recursing once per jump
        m = Multiplet(2100)
        want = [cp.lambda_c for cp in critical_couplings(m)]
        jumps = detect_jumps(analytic_spectrum(m), (0.0, 1.2))
        assert len(jumps) == len(want) == 1050
        assert all(abs(jp.lam - lam_c) <= 1e-9 for jp, lam_c in zip(jumps, want))

    def test_triple_crossing_is_one_jump(self):
        # three levels meet at lam = 1; the walk steps straight to the steepest
        s = Spectrum([0, 1, 2], [0, 1, 2], [0, -1, -2])
        jumps = detect_jumps(s, (0.0, 2.0))
        assert [astuple(j) for j in jumps] == [(1.0, 0.0, -2.0, -1.0)]

    def test_descending_levels_window_starts_on_crossing(self):
        # at the window's left end the walk starts on the shallower of the
        # two tied levels, whatever the level order
        s = Spectrum(S8.m_values[::-1], S8.intercepts[::-1], S8.slopes[::-1])
        jumps = detect_jumps(s, (1 / 3, 1.4))
        assert [(j.left_value, j.right_value) for j in jumps] == [(-13.5, -15.0), (-15.0, -16.0)]
        assert abs(jumps[0].lam - 1 / 3) <= 1e-15
        assert jumps[1].lam == 1.0

    @given(st.integers(2, 400), st.floats(0.1, 10.0))
    def test_every_crossing_once_with_exact_plateaus(self, n, e_gap):
        m = Multiplet(n)
        crit = critical_couplings(m, e_gap)
        jumps = detect_jumps(analytic_spectrum(m, e_gap), (0.0, 1.2 * crit[-1].lambda_c))
        assert len(jumps) == len(crit)
        for jp, cp in zip(jumps, crit):
            assert abs(jp.lam - cp.lambda_c) <= 1e-12 * cp.lambda_c
        plateaus = [jumps[0].left_value] + [j.right_value for j in jumps]
        want = [crit[0].lower_m**2 - m.j**2] + [cp.upper_m**2 - m.j**2 for cp in crit]
        assert plateaus == want

    def test_no_jumps_inside_a_plateau(self):
        assert detect_jumps(S4, (0.4, 0.9)) == []

    def test_validation(self):
        for window in [(1.0, 0.0), (0.5, 0.5), (0.0, math.inf), (-math.inf, 1.0),
                       (math.nan, 1.0), (0.0, math.nan)]:
            with pytest.raises(ValueError):
                detect_jumps(S4, window)

    @given(
        st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=2, max_size=12),
        st.integers(-256, 255),
        st.integers(1, 512),
    )
    # plateau gaps of 0.25, inside the window and at its left end
    @example(levels=[(0, 0), (1, -1)], lo64=0, width64=128)
    @example(levels=[(0, 0), (0, 1)], lo64=0, width64=1)
    def test_every_envelope_vertex_exactly(self, levels, lo64, width64):
        # each level is (4 * intercept, 4 * slope): quarter-integer lines make
        # every product, sum and crossing float exact or correctly rounded,
        # so equal rational crossings give equal floats; the window ends sit
        # on a 1/64 lattice
        intercepts, slopes = ([k / 4 for k in col] for col in zip(*levels))
        lo, hi = lo64 / 64, (lo64 + width64) / 64
        s = Spectrum(list(range(len(levels))), intercepts, slopes)
        got = [astuple(j) for j in detect_jumps(s, (lo, hi))]
        assert got == _envelope_vertices(intercepts, slopes, lo, hi)


class TestRefinementTermination:
    # above about 5.2e5 neighbouring floats sit more than 1e-10 apart, and
    # above about 6.7e7 more than 1e-8, so neither bracket can shrink to xtol
    def test_bisect_stops_at_neighbouring_floats(self):
        a, b = _bisect(lambda x: x < 7e5, 6e5, 8e5, 1e-10)
        assert a < 7e5 <= b
        assert b == np.nextafter(a, math.inf)

    def test_golden_min_stops_when_probes_collide(self):
        target = 1e8 + 0.3
        x = _golden_min(lambda x: (x - target) ** 2, 1e8 - 1.0, 1e8 + 1.0, xtol=1e-8)
        assert abs(x - target) <= 1e-7

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.floats(-10.0, 10.0), st.floats(1e7, 1e9)), st.floats(1e-9, 10.0)
            ),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from([1e-10, 1e-8, 1e-3]),
    )
    def test_lockstep_brackets_end_as_searches_of_their_own(self, brackets, xtol):
        # brackets of different widths, some past the point where probes
        # collide, stop at different steps; a stopped one must stay put
        a = np.array([lo for lo, _ in brackets])
        b = a + np.array([w for _, w in brackets])

        def f(x):
            return (x - 0.3) * (x - 0.3) * (x + 2.0)

        def inside(x):
            return f(x) < 1.0

        want = [_golden_min_one(f, lo, hi, xtol) for lo, hi in zip(a.tolist(), b.tolist())]
        assert _golden_min(f, a, b, xtol).tolist() == want
        want = [_bisect_one(inside, lo, hi, xtol) for lo, hi in zip(a.tolist(), b.tolist())]
        assert list(zip(*(end.tolist() for end in _bisect(inside, a, b, xtol)))) == want


class TestCeqSearch:
    def test_beta_200_converges_to_crossing(self):
        res = qpt_from_ceq(200.0, (0.5, 1.5))
        assert res.converged
        assert abs(res.xi - 1.0) <= 1e-6
        assert res.residual >= 0.0

    def test_misaligned_interval_still_converges(self):
        res = qpt_from_ceq(200.0, (0.4, 1.4))
        assert res.converged
        assert abs(res.xi - 1.0) <= 1e-6

    def test_small_beta_reports_unconverged(self):
        res = qpt_from_ceq(0.1, (0.5, 1.5))
        assert not res.converged

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            qpt_from_ceq(200.0, (1.5, 0.5))
        with pytest.raises(ValueError):
            qpt_from_ceq(200.0, (1.1, 1.5))
        with pytest.raises(ValueError):
            qpt_from_ceq(200.0, (0.5, 1.5), grid_points=8)
        with pytest.raises(ValueError):
            qpt_from_ceq(0.0, (0.5, 1.5))


class TestPhaseDiagram:
    def test_row_order_outer_beta_inner_lambda(self):
        table = phase_diagram(S4, [1.0, 2.0], [0.1, 0.2])
        got = table.values[:, :2].tolist()
        assert got == [[1.0, 0.1], [1.0, 0.2], [2.0, 0.1], [2.0, 0.2]]

    def test_values_are_a_frozen_checked_array(self):
        table = phase_diagram(S4, [1.0, 2.0], [0.1, 0.2, 0.3])
        assert table.values.shape == (6, len(SweepTable.COLUMNS))
        assert ",".join(SweepTable.COLUMNS) == CSV_HEADER
        with pytest.raises(ValueError):
            table.values[0, 0] = 9.0
        with pytest.raises(ValueError):
            SweepTable(np.zeros((2, 7)))
        with pytest.raises(ValueError):
            SweepTable(np.zeros(8))

    def test_rejects_empty_grids(self):
        with pytest.raises(ValueError):
            phase_diagram(S4, [], [0.1])
        with pytest.raises(ValueError):
            phase_diagram(S4, [1.0], [])

    def test_csv_header_and_line_ends(self):
        table = phase_diagram(S4, [110.0], [0.3, 0.4])
        text = table.csv_text()
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER == (
            "beta,lambda,log_z,mean_energy,entropy,c_star_beta,c_star_lambda,specific_heat"
        )
        assert text.endswith("\n")
        assert "\r" not in text
        assert len(lines) == 4  # header + 2 rows + trailing empty piece

    def test_csv_rows_format_like_format_17g(self):
        # csv_text formats a row with one '%.17g' string; that must print
        # exactly what format(x, '.17g') prints, for any float
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(float)
        special = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
        values = np.concatenate([bits, special])
        values = np.resize(values, (values.size // 8 + 1) * 8).reshape(-1, 8)
        text = SweepTable(values).csv_text()
        want = [CSV_HEADER] + [",".join(format(v, ".17g") for v in row) for row in values.tolist()]
        assert text == "\n".join(want) + "\n"

    def test_csv_round_trip_reproduces_rows(self):
        table = phase_diagram(S8, [0.5, 70.0], [0.1, 1 / 3, 1.2])
        text = table.csv_text()
        body = text.strip().split("\n")[1:]
        for line in body:
            fields = line.split(",")
            beta, lam = float(fields[0]), float(fields[1])
            o = observables(S8, beta, lam)
            rebuilt = ",".join(
                format(v, ".17g")
                for v in (
                    o.beta,
                    o.lam,
                    o.log_z,
                    o.mean_energy,
                    o.entropy,
                    o.c_star_beta,
                    o.c_star_lambda,
                    o.specific_heat,
                )
            )
            assert rebuilt == line
