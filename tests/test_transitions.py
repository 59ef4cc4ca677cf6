import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su2qpt import _cells, cli, thermo, transitions
from su2qpt.model import Spectrum, analytic_spectrum, critical_couplings, ground_level
from su2qpt.spin_algebra import Multiplet
from su2qpt.thermo import observables
from su2qpt.transitions import (
    JUMP_COLUMNS,
    PEAK_COLUMNS,
    SweepTable,
    _bisect,
    _golden_min,
    detect_jumps,
    find_peaks,
    phase_diagram,
    qpt_from_ceq,
)

S2 = analytic_spectrum(Multiplet(2))
S4 = analytic_spectrum(Multiplet(4))
S8 = analytic_spectrum(Multiplet(8))
CRIT4 = critical_couplings(Multiplet(4))

# 2*u where tanh(u) = 1/u: flank offset of a two-level variance remnant
# is 2u/(beta*|slope gap|)
TWO_U_STAR = 2.3993572805154716

# C = beta**2 Var(E) as the engine rounds it is within EPS_C of itself
# (about 450 ulp), and on the axis u = ln(beta) a two-level C near its
# maximum is C_max * (1 - KAPPA * (u - u*)**2 / 2) with KAPPA = TWO_U_STAR**2 / 2
EPS_C = 1e-13
KAPPA = TWO_U_STAR**2 / 2
SPECIFIC_HEAT = thermo.COLUMNS.index("specific_heat")

# the columns of the route tables
BETA = PEAK_COLUMNS.index("beta")
LAM = PEAK_COLUMNS.index("lambda_at_peak")
HEIGHT = PEAK_COLUMNS.index("height")
WIDTH = PEAK_COLUMNS.index("width")
NEAREST = cli._TRACKED_COLUMNS.index("nearest_critical")
OFFSET = cli._TRACKED_COLUMNS.index("offset")
JUMP = JUMP_COLUMNS.index("lambda")
LEFT = JUMP_COLUMNS.index("left_value")
RIGHT = JUMP_COLUMNS.index("right_value")
MID = JUMP_COLUMNS.index("midpoint_value")


@pytest.mark.parametrize("n, delta", [(2, 1e-4), (4, 1e-4), (8, 1e-5), (16, 1e-5), (64, 1e-6)])
def test_specific_heat_peaks_in_beta_at_the_twin_peak_constant(n, delta):
    # at lam = lam_c + delta the two levels crossing at the first crossing
    # are ds * delta apart, ds their slope gap, and C peaks over beta where
    # x = beta * ds * delta solves x tanh(x/2) = 2: the constant of the twin
    # peaks' offset in lambda.  The law holds while delta is small against
    # the distance to the next crossing, where a third level comes down
    s = analytic_spectrum(Multiplet(n))
    lam = critical_couplings(Multiplet(n))[0] + delta
    ds = abs(s.slopes[1] - s.slopes[0]).item()
    energies = np.sort(s.energies(lam))
    third = (energies[2] - energies[0]).item()  # the third level's excitation

    def minus_c(u: np.ndarray) -> np.ndarray:
        return -thermo.observables_grid(s, np.exp(u), np.full(u.shape, lam))[:, SPECIFIC_HEAT]

    # within a decade of the law's beta: a wider bracket finds the
    # high-temperature peak of the whole spectrum instead
    u_law, xtol = math.log(TWO_U_STAR / (ds * delta)), 1e-7
    (u,) = _golden_min(minus_c, [u_law - math.log(10)], [u_law + math.log(10)], xtol)
    beta = math.exp(u)
    # the third level, of weight w against the ground level, adds about
    # w * (beta * third)**2 to C / C_max, which moves the maximum in u by
    # at most w * (beta * third)**3 / (C_max * KAPPA) with C_max * KAPPA > 1
    pull = math.exp(-beta * third) * (beta * third) ** 3
    assert pull <= xtol, "delta is not small against the gap to the next crossing"
    # lam and the energies round: the gap is ds * delta to within gap_error
    gap_error = (ds * math.ulp(lam) + 4 * math.ulp(np.abs(energies).max().item())) / (ds * delta)
    tol = (
        xtol  # the bracket the search stops at
        + math.sqrt(4 * EPS_C / KAPPA)  # the flat top, where rounding orders C at random
        + gap_error
        + pull
    )
    assert abs(math.log(beta * ds * delta / TWO_U_STAR)) <= tol


class TestFindPeaks:
    def test_four_flanks_at_beta_110(self):
        peaks = find_peaks(S4, 110.0, (0.02, 1.4), 1000)
        assert len(peaks) == 4
        lams = peaks[:, LAM].tolist()
        assert lams == sorted(lams)
        # flank pairs sit symmetrically around each crossing
        assert abs((lams[0] + lams[1]) / 2.0 - 1 / 3) <= 1e-6
        assert abs((lams[2] + lams[3]) / 2.0 - 1.0) <= 1e-6
        # two-level theory pins the offsets: 2u*/(beta*s), slope gaps 3 and 1
        for lam, (lam_c, s_gap) in zip(lams, [(1 / 3, 3.0), (1 / 3, 3.0), (1.0, 1.0), (1.0, 1.0)]):
            assert abs(abs(lam - lam_c) - TWO_U_STAR / (110.0 * s_gap)) <= 1e-6
        for p in peaks:
            assert p[HEIGHT] > 0.0
            assert p[WIDTH] > 0.0
            assert p[BETA] == 110.0

    def test_flank_pair_heights_agree(self):
        peaks = find_peaks(S4, 110.0, (0.9, 1.1), 512)
        assert len(peaks) == 2
        a, b = peaks
        assert math.isclose(a[HEIGHT], b[HEIGHT], rel_tol=1e-6)
        assert math.isclose(a[WIDTH], b[WIDTH], rel_tol=1e-6)

    def test_no_peaks_on_a_flat_stretch(self):
        # between the crossings the variance is U-shaped, no interior max
        assert find_peaks(S4, 110.0, (0.4, 0.6), 128).shape == (0, len(PEAK_COLUMNS))

    @pytest.mark.parametrize("window, side", [((0.97, 1.1), "left"), ((0.9, 1.03), "right")])
    def test_window_edge_clamps_a_cut_flank(self, window, side):
        # the window cuts one flank of a peak above half height: the width
        # runs from that window edge to the bisected crossing on the other
        # flank
        def half_crossing(peak, outside):
            inside, half = peak[LAM], 0.5 * peak[HEIGHT]
            for _ in range(60):
                mid = 0.5 * (inside + outside)
                if -observables(S4, 110.0, mid).c_star_beta >= half:
                    inside = mid
                else:
                    outside = mid
            return inside

        peaks = find_peaks(S4, 110.0, window, 512)
        if side == "left":
            (pk,) = peaks[peaks[:, LAM] < 1.0]
            want = half_crossing(pk, 1.0) - window[0]
        else:
            (pk,) = peaks[peaks[:, LAM] > 1.0]
            want = window[1] - half_crossing(pk, 1.0)
        assert abs(pk[WIDTH] - want) <= 1e-9

    def test_peak_narrower_than_the_grid(self):
        # on 64 points the remnant flank near 1/4 of N = 5 is narrower than
        # a grid cell, so its top sample lies below half height; the width
        # must still be the one a fine scan resolves
        s5 = analytic_spectrum(Multiplet(5))
        coarse = find_peaks(s5, 90.0, (0.1, 1.3), 64)[0]
        fine = min(
            find_peaks(s5, 90.0, (0.1, 0.4), 4096),
            key=lambda p: abs(p[LAM] - coarse[LAM]),
        )
        assert abs(coarse[LAM] - fine[LAM]) <= 1e-7
        assert math.isclose(coarse[WIDTH], fine[WIDTH], rel_tol=1e-7)

    def test_float_noise_on_a_flat_tail_is_no_peak(self):
        # past the last crossing of N = 5 the variance is ~1e-31 and its
        # float noise has strict local maxima; only the four remnant
        # flanks (heights ~9e-5) are peaks
        peaks = find_peaks(analytic_spectrum(Multiplet(5)), 70.0, (0.1, 1.3), 4096)
        assert len(peaks) == 4
        assert all(p[HEIGHT] > 1e-5 for p in peaks)
        lams = peaks[:, LAM].tolist()
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
        crit = critical_couplings(Multiplet(n), e_gap).tolist()
        cut = data.draw(st.sampled_from(crit)) + data.draw(st.floats(-4.0, 4.0)) / beta
        span = 1.2 * crit[-1]
        window = (cut - span, cut) if data.draw(st.booleans()) else (cut, cut + span)
        s = analytic_spectrum(Multiplet(n), e_gap)
        got = find_peaks(s, beta, window, points)[:, [LAM, HEIGHT, WIDTH]].tolist()
        assert got == [list(pk) for pk in _one_search_per_peak(s, beta, window, points)]

    @given(
        st.integers(2, 64),
        st.floats(0.1, 10.0),
        st.lists(st.floats(1.0, 1e3), min_size=1, max_size=4, unique=True).map(sorted),
        st.integers(16, 256),
    )
    @settings(max_examples=25)
    @example(8, 1.0, [0.01, 70.0, 110.0], 512)  # at beta = 0.01 the variance has no maximum
    @example(4095, 1.0, [70.0, 110.0], 16)  # N+1 = 4096: the last spectrum summed whole
    @example(4096, 1.0, [70.0, 110.0], 16)  # windowed, each point by its own beta's reach
    def test_a_schedule_finds_each_beta_s_peaks(self, n, e_gap, schedule, points):
        # one lockstep search over the schedule, the same bits as one search per beta
        crit = critical_couplings(Multiplet(n), e_gap)
        window = (0.8 * crit[0], 1.2 * crit[-1])
        s = analytic_spectrum(Multiplet(n), e_gap)
        got = find_peaks(s, schedule, window, points)
        want = np.vstack([find_peaks(s, beta, window, points) for beta in schedule])
        assert got.tolist() == want.tolist()

    def test_a_beta_without_peaks_leaves_the_others(self):
        peaks = find_peaks(S4, [0.01, 110.0], (0.02, 1.4), 1000)
        assert find_peaks(S4, 0.01, (0.02, 1.4), 1000).shape == (0, len(PEAK_COLUMNS))
        assert peaks.tolist() == find_peaks(S4, 110.0, (0.02, 1.4), 1000).tolist()
        assert len(peaks) == 4

    def test_peaks_of_neighbouring_betas_are_kept_apart(self):
        # betas one ulp apart put their one peak in the window (the lower
        # flank of lambda_c = 1) within the dedupe distance; the dedupe is per beta
        schedule = [110.0, math.nextafter(110.0, math.inf)]
        peaks = find_peaks(S4, schedule, (0.9, 1.0), 512)
        assert peaks[:, BETA].tolist() == schedule
        assert abs(peaks[0, LAM] - peaks[1, LAM]) < 2e-8

    def test_coincident_maxima_keep_the_highest(self):
        # on a window of 2e-9 around a remnant flank of N = 4 float noise makes
        # 53 strict maxima that all refine to within the dedupe distance; each
        # is compared with the one before, so the chain is one peak, not one
        # per pair of neighbours
        lam = 0.3260625533296134
        window = (lam - 1e-9, lam + 1e-9)
        peaks = find_peaks(S4, 110.0, window, 512)
        assert len(peaks) == 1
        got = peaks[:, [LAM, HEIGHT, WIDTH]].tolist()
        assert got == [list(pk) for pk in _one_search_per_peak(S4, 110.0, window, 512)]

    def test_a_chain_of_maxima_is_one_peak(self, monkeypatch):
        # three maxima of one beta refine 1.5e-8 apart on a falling flank, the
        # first the highest: each is within 2e-8 of the one before, so the
        # chain is one peak, though its ends are 3e-8 apart
        lams = 0.345 + 1.5e-8 * np.arange(3)

        def refined(f, a, b, xtol):
            assert np.shape(a) == lams.shape
            return lams.copy()

        monkeypatch.setattr(transitions, "_golden_min", refined)
        peaks = find_peaks(S4, 110.0, (0.2, 1.0), 512)
        heights = [-observables(S4, 110.0, lam).c_star_beta for lam in lams]
        assert heights[0] > heights[1] > heights[2]
        assert peaks[:, [LAM, HEIGHT]].tolist() == [[lams[0], heights[0]]]

    def test_validation(self):
        with pytest.raises(ValueError):
            find_peaks(S4, [70.0, 0.0], (0.0, 1.0))
        with pytest.raises(ValueError):
            find_peaks(S4, 0.0, (0.0, 1.0))
        with pytest.raises(ValueError):
            find_peaks(S4, 10.0, (1.0, 1.0))
        with pytest.raises(ValueError):
            find_peaks(S4, 10.0, (0.0, 1.0), grid_points=8)
        # a window holding every crossing, but with no end to scan to
        for window in [(0.0, math.inf), (-math.inf, 1.4)]:
            with pytest.raises(ValueError, match="interval ends must be finite"):
                find_peaks(S4, 110.0, window, 64)


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
        return -observables(s, beta, x).c_star_beta

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
    # the route's own rule, not an oracle of it: each maximum within 2e-8 of
    # the one before joins its chain, and a chain keeps its first highest
    deduped, previous = [], None
    for pk in sorted(peaks, key=lambda p: p[0]):
        if deduped and abs(pk[0] - previous) < 2e-8:
            if pk[1] > deduped[-1][1]:
                deduped[-1] = pk
        else:
            deduped.append(pk)
        previous = pk[0]
    return deduped


def _tracked(s, schedule, window, grid_points, crit):
    """The critical report's peak tracking: its table of rows, and its warnings.

    ``cli._peaks_block`` pairs the ``find_peaks`` rows with
    ``nearest_crossing`` of the closed-form crossings; the window's ends
    and grid size reach it as a ``--lambda-grid`` would.  The block's
    columns are views of one (rows, 6) table, which is returned as it is.
    """
    cfg = {"beta": np.array(schedule), "lambda_grid": np.linspace(*window, grid_points)}
    block = cli._peaks_block(cfg, s, np.asarray(crit, dtype=float))
    columns = block["tracked"].columns
    table = columns[0].base
    assert all(c.base is table for c in columns)
    return table, block["warnings"]


class TestTrackPeaks:
    def test_resolved_tracking_has_no_warnings(self):
        tracked, warnings = _tracked(S4, (70.0, 90.0, 110.0), (0.02, 1.4), 512, CRIT4)
        assert warnings == []
        assert set(tracked[:, NEAREST].tolist()) == {1 / 3, 1.0}
        assert all(tracked[:, OFFSET] < 0.05)

    def test_offsets_shrink_with_beta(self):
        tracked, _ = _tracked(S4, (70.0, 90.0, 110.0), (0.9, 1.1), 512, CRIT4)
        worst = {b: tracked[tracked[:, BETA] == b, OFFSET].max() for b in (70.0, 90.0, 110.0)}
        assert worst[70.0] > worst[90.0] > worst[110.0]

    def test_merged_remnants_are_flagged(self):
        # at beta ~ 10 the two crossings share one broad basin
        _, warnings = _tracked(S4, (8.0, 12.0, 16.0), (0.02, 1.4), 512, CRIT4)
        assert len(warnings) > 0
        assert "not" in warnings[0] and "resolved" in warnings[0]

    def test_inferred_gap_for_scaled_model(self):
        s = analytic_spectrum(Multiplet(4), e_gap=2.0)
        crit = critical_couplings(Multiplet(4), e_gap=2.0)
        tracked, _ = _tracked(s, (70.0, 90.0, 110.0), (0.5, 2.4), 512, crit)
        assert len(tracked)
        assert set(tracked[:, NEAREST].tolist()) == {2 / 3, 2.0}

    @given(
        st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=6, unique=True),
        st.lists(st.floats(-2.5, 3.5), max_size=6),
    )
    @example([0.25, 0.75], [0.5, 0.25, 0.75, 1.0, -1.0])  # a tie goes to the lower crossing
    @example([1.0], [0.2, 1.0, 7.0])  # one crossing: no gap, so no warning
    @example([0.0, 5e-301, 0.5], [1.0])  # rounding ties crossings that are not neighbours
    def test_each_peak_takes_its_nearest_crossing(self, crit, lams):
        def peaks(s, schedule, *args):
            # one call for the whole schedule: the same peaks at every beta
            rows = [(beta, lam, 1.0, 0.1) for beta in schedule for lam in lams]
            return np.array(rows, dtype=float).reshape(-1, len(PEAK_COLUMNS))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transitions, "find_peaks", peaks)
            tracked, warnings = _tracked(S4, (70.0, 90.0, 110.0), (0.0, 1.4), 512, crit)
        want, warned = [], 0
        for lam in lams:
            # the rule as two scans over every crossing, ascending
            nearest = min(sorted(crit), key=lambda c: abs(lam - c))
            want.append((nearest, abs(lam - nearest)))
            gap = min((abs(nearest - c) for c in crit if c != nearest), default=math.inf)
            warned += abs(lam - nearest) > 0.25 * gap
        assert [tuple(row) for row in tracked[:, [NEAREST, OFFSET]].tolist()] == want * 3
        assert tracked.dtype == np.float64
        assert len(warnings) == 3 * warned

    @pytest.mark.parametrize(
        "crit, lams",
        [([0.25, 0.5], [math.nan]), ([0.25, 0.5], [0.3, math.inf]), ([0.25, -math.inf], [0.3])],
        ids=["nan-coupling", "infinite-coupling", "infinite-crossing"],
    )
    def test_nearest_crossing_rejects_non_finite_input(self, crit, lams):
        with pytest.raises(ValueError, match="must be finite"):
            transitions.nearest_crossing(crit, lams)

    def test_nearest_crossing_rejects_no_crossings(self):
        with pytest.raises(ValueError, match="must not be empty"):
            transitions.nearest_crossing([], [0.5])

    def test_schedule_validation(self, capsys):
        # a schedule not strictly increasing and a model without crossings
        # each exit 1 with a reason
        cases = [
            (["--n", "4", "--beta", "70,70,90"], "must be strictly increasing"),
            (["--n", "1"], "no crossings exist below 2 particles"),
        ]
        for argv, reason in cases:
            assert cli.main(["critical", "--method", "peaks", *argv]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("su2qpt: error: ") and reason in err


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
        assert abs(jumps[0, JUMP] - 1 / 3) <= 1e-9
        assert abs(jumps[1, JUMP] - 1.0) <= 1e-9
        assert (jumps[0, LEFT], jumps[0, RIGHT]) == (0.0, -3.0)
        assert (jumps[1, LEFT], jumps[1, RIGHT]) == (-3.0, -4.0)
        assert jumps[0, MID] == -1.5
        assert jumps[1, MID] == -3.5

    def test_n8_staircase(self):
        jumps = detect_jumps(S8, (0.0, 1.4))
        want_lams = [1 / 7, 1 / 5, 1 / 3, 1.0]
        want_plateaus = [0.0, -7.0, -12.0, -15.0, -16.0]
        assert len(jumps) == 4
        for jp, lam_c in zip(jumps, want_lams):
            assert abs(jp[JUMP] - lam_c) <= 1e-9
        assert [jumps[0, LEFT]] + jumps[:, RIGHT].tolist() == want_plateaus
        assert jumps[:, MID].tolist() == [-3.5, -9.5, -13.5, -15.5]

    def test_matches_analytic_couplings_up_to_n16(self):
        for n in (2, 4, 8, 16):
            s = analytic_spectrum(Multiplet(n))
            want = critical_couplings(Multiplet(n)).tolist()
            jumps = detect_jumps(s, (0.0, 1.4))
            assert len(jumps) == len(want)
            for jp, lam_c in zip(jumps, want):
                assert abs(jp[JUMP] - lam_c) <= 1e-9
                # exactly two levels cross, so the on-point value is the mean
                assert abs(jp[MID] - (jp[LEFT] + jp[RIGHT]) / 2.0) <= 1e-9

    def test_n2_single_jump(self):
        jumps = detect_jumps(S2, (0.0, 2.0))
        assert len(jumps) == 1
        assert abs(jumps[0, JUMP] - 1.0) <= 1e-9
        assert (jumps[0, LEFT], jumps[0, RIGHT]) == (0.0, -1.0)
        assert jumps[0, MID] == -0.5

    def test_grid_point_exactly_on_crossing(self):
        # the window of --lambda-grid 0.25:1.25:17, whose dyadic grid holds
        # 1.0 exactly; the jump must not split into two half-steps
        grid = np.linspace(0.25, 1.25, 17)
        assert 1.0 in grid
        jumps = detect_jumps(S4, (0.25, 1.25))
        assert [round(lam, 9) for lam in jumps[:, JUMP].tolist()] == [round(1 / 3, 9), 1.0]
        assert jumps[:, [LEFT, RIGHT]].tolist() == [[0.0, -3.0], [-3.0, -4.0]]

    def test_window_ends_exactly_on_crossing(self):
        jumps = detect_jumps(S4, (0.0, 1.0))
        assert len(jumps) == 1
        assert abs(jumps[0, JUMP] - 1 / 3) <= 1e-9

    def test_window_is_half_open(self):
        # a crossing exactly at the right end lies outside [lo, hi)
        assert detect_jumps(S4, (0.0, 1 / 3)).shape == (0, len(JUMP_COLUMNS))

    def test_window_starts_exactly_on_crossing(self):
        # the left plateau lies outside the window, so the visible left
        # value is the on-crossing midpoint
        jumps = detect_jumps(S4, (1 / 3, 1.25))
        assert len(jumps) == 2
        assert abs(jumps[0, JUMP] - 1 / 3) <= 1e-9
        assert jumps[0, LEFT] == -1.5
        assert jumps[0, RIGHT] == -3.0

    def test_many_jumps_in_one_coarse_cell(self):
        # the window of --lambda-grid 0:1.2:16 at N = 2100; one walk must
        # resolve all 1050 crossings without recursing once per jump
        m = Multiplet(2100)
        want = critical_couplings(m).tolist()
        jumps = detect_jumps(analytic_spectrum(m), (0.0, 1.2))
        assert len(jumps) == len(want) == 1050
        assert all(abs(jp[JUMP] - lam_c) <= 1e-9 for jp, lam_c in zip(jumps, want))

    def test_triple_crossing_is_one_jump(self):
        # three levels meet at lam = 1; the walk steps straight to the steepest
        s = Spectrum([0, 1, 2], [0, -1, -2])
        jumps = detect_jumps(s, (0.0, 2.0))
        assert jumps.tolist() == [[1.0, 0.0, -2.0, -1.0]]

    def test_triple_crossing_rounded_apart_is_one_jump(self):
        # three lines meet at -1/3, but in floats the two steeper ones cross
        # 3 ulp right of where the middle one crosses the start level; a pop
        # compares both crossings with the start level, so the middle level
        # is popped rather than kept as a second jump
        s = Spectrum([-0.1, -0.4, -3 * 0.1], [0.6, -0.3, 0.0])
        jumps = detect_jumps(s, (-1.25, 0.0))
        assert jumps.tolist() == [[-0.3333333333333334, 0.6, -0.3, 0.09999999999999999]]

    def test_descending_levels_window_starts_on_crossing(self):
        # at the window's left end the walk starts on the shallower of the
        # two tied levels, whatever the level order
        s = Spectrum(S8.intercepts[::-1], S8.slopes[::-1])
        jumps = detect_jumps(s, (1 / 3, 1.4))
        assert jumps[:, [LEFT, RIGHT]].tolist() == [[-13.5, -15.0], [-15.0, -16.0]]
        assert abs(jumps[0, JUMP] - 1 / 3) <= 1e-15
        assert jumps[1, JUMP] == 1.0

    @given(st.integers(2, 400), st.floats(0.1, 10.0))
    def test_every_crossing_once_with_exact_plateaus(self, n, e_gap):
        m = Multiplet(n)
        crit = critical_couplings(m, e_gap)
        jumps = detect_jumps(analytic_spectrum(m, e_gap), (0.0, 1.2 * crit[-1]))
        assert len(jumps) == len(crit)
        for jp, lam_c in zip(jumps, crit.tolist()):
            assert abs(jp[JUMP] - lam_c) <= 1e-12 * lam_c
        plateaus = [jumps[0, LEFT]] + jumps[:, RIGHT].tolist()
        # crossing k lifts the ground label from M = -J + k - 1 to M = -J + k
        want = [(-m.j) ** 2 - m.j**2] + [(-m.j + k) ** 2 - m.j**2 for k in range(1, len(crit) + 1)]
        assert plateaus == want

    @pytest.mark.parametrize("n", [8, 129, 1000])
    @pytest.mark.parametrize("e_gap", [1.0, 0.37])
    def test_level_order_and_an_energy_shift_keep_the_jumps(self, n, e_gap):
        # the permuted spectra of tests/test_window.py and the shift by 0.37
        # of the acceptance suite's shift invariance check
        s = analytic_spectrum(Multiplet(n), e_gap)
        window = (0.0, 1.2 * critical_couplings(Multiplet(n), e_gap)[-1])
        plain = detect_jumps(s, window)
        order = np.random.default_rng(n).permutation(s.slopes.size)
        permuted = Spectrum(s.intercepts[order], s.slopes[order])
        assert np.array_equal(detect_jumps(permuted, window), plain)
        lifted = s.intercepts + 0.37
        shifted = detect_jumps(Spectrum(lifted, s.slopes), window)
        assert np.array_equal(shifted[:, LEFT:], plain[:, LEFT:])
        # the shift rounds each intercept by at most half an ulp of the
        # largest, so a vertex moves by that over its slope gap, plus its
        # own rounding
        gap = plain[:, LEFT] - plain[:, RIGHT]
        bound = 2 * np.finfo(float).eps * (np.abs(lifted).max() / gap + plain[:, JUMP])
        assert (np.abs(shifted[:, JUMP] - plain[:, JUMP]) <= bound).all()

    def test_no_jumps_inside_a_plateau(self):
        assert detect_jumps(S4, (0.4, 0.9)).shape == (0, len(JUMP_COLUMNS))

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
    # parallel levels with different intercepts, the higher one listed first
    @example(levels=[(0, 0), (8, -4), (4, -4), (12, -8)], lo64=0, width64=192)
    # duplicate levels
    @example(levels=[(0, 0), (4, -4), (4, -4), (0, 0)], lo64=0, width64=128)
    # a triple point inside the window, its middle level listed first
    @example(levels=[(4, -4), (8, -8), (0, 0)], lo64=0, width64=128)
    # lo exactly on a crossing, with a second crossing inside the window
    @example(levels=[(0, 0), (4, -4), (12, -8)], lo64=64, width64=128)
    # a level on the stack until a steeper one crosses the start level first
    @example(levels=[(0, 0), (8, -4), (4, -8)], lo64=0, width64=192)
    def test_every_envelope_vertex_exactly(self, levels, lo64, width64):
        # each level is (4 * intercept, 4 * slope): quarter-integer lines make
        # every product, sum and crossing float exact or correctly rounded,
        # so equal rational crossings give equal floats; the window ends sit
        # on a 1/64 lattice
        intercepts, slopes = ([k / 4 for k in col] for col in zip(*levels))
        lo, hi = lo64 / 64, (lo64 + width64) / 64
        s = Spectrum(intercepts, slopes)
        got = [tuple(j) for j in detect_jumps(s, (lo, hi)).tolist()]
        assert got == _envelope_vertices(intercepts, slopes, lo, hi)
        # the CLI's first plateau is a 0-d call at lo; it must be this left value
        if got:
            assert got[0][1] == ground_level(s, lo)[1]


class TestRouteTables:
    @pytest.mark.parametrize(
        "route, columns, rows",
        [
            (lambda: find_peaks(S4, [70.0, 110.0], (0.02, 1.4), 512), PEAK_COLUMNS, 8),
            (lambda: find_peaks(S4, 0.01, (0.02, 1.4), 512), PEAK_COLUMNS, 0),
            (
                lambda: _tracked(S4, (70.0, 90.0, 110.0), (0.02, 1.4), 512, CRIT4)[0],
                cli._TRACKED_COLUMNS,
                12,
            ),
            (
                lambda: _tracked(S4, (0.01, 0.02, 0.03), (0.02, 1.4), 512, CRIT4)[0],
                cli._TRACKED_COLUMNS,
                0,
            ),
            (lambda: detect_jumps(S8, (0.0, 1.4)), JUMP_COLUMNS, 4),
            (lambda: detect_jumps(S4, (0.4, 0.9)), JUMP_COLUMNS, 0),
        ],
        ids=["peaks", "no-peaks", "tracked", "none-tracked", "jumps", "no-jumps"],
    )
    def test_a_read_only_float_table_of_its_columns(self, route, columns, rows):
        table = route()
        assert type(table) is np.ndarray and table.dtype == np.float64
        assert table.shape == (rows, len(columns))
        with pytest.raises(ValueError):
            table[...] = 0.0

    def test_tracked_rows_extend_the_peak_rows(self):
        # the critical report's tracked rows are the find_peaks rows, then the
        # nearest crossing and the offset from it; none when no peak is found
        for schedule, rows in [((70.0, 90.0, 110.0), 12), ((0.01, 0.02, 0.03), 0)]:
            tracked, _ = _tracked(S4, schedule, (0.02, 1.4), 512, CRIT4)
            peaks = find_peaks(S4, schedule, (0.02, 1.4), 512)
            assert cli._TRACKED_COLUMNS[: len(PEAK_COLUMNS)] == PEAK_COLUMNS
            assert tracked.dtype == np.float64
            assert tracked.shape == (rows, len(cli._TRACKED_COLUMNS))
            assert tracked[:, : len(PEAK_COLUMNS)].tolist() == peaks.tolist()


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

    def test_one_residual_call_per_scan_and_golden_step(self, monkeypatch):
        # the scan is one call on the grid and each golden step one on its
        # probe; a residual lifted point by point would make hundreds
        calls = []
        residual = thermo.ceq_scaled_residual

        def counted(xi, beta):
            calls.append(np.shape(xi))
            return residual(xi, beta)

        monkeypatch.setattr(thermo, "ceq_scaled_residual", counted)
        res = qpt_from_ceq(200.0, (0.5, 1.5))
        assert len(calls) <= 40 and calls[0] == (257,)
        assert (res.xi, res.converged) == (1.0000000024058955, True)

    def test_misaligned_interval_still_converges(self):
        res = qpt_from_ceq(200.0, (0.4, 1.4))
        assert res.converged
        assert abs(res.xi - 1.0) <= 1e-6

    def test_small_beta_reports_unconverged(self):
        res = qpt_from_ceq(0.1, (0.5, 1.5))
        assert not res.converged

    def test_refinement_ending_on_its_bracket_is_unconverged(self):
        # at beta 1500 the humps fall between grid points, and the bracket
        # around the grid minimum 1 + 1/256 does not hold the dip
        res = qpt_from_ceq(1500.0, (0.5, 1.5))
        assert not res.converged

    def test_grid_minimum_refines_without_humps(self):
        # a window too narrow for the humps: the grid minimum is refined
        res = qpt_from_ceq(200.0, (0.99, 1.01))
        assert res.converged
        assert abs(res.xi - 1.0) <= 1e-6

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            qpt_from_ceq(200.0, (1.5, 0.5))
        with pytest.raises(ValueError):
            qpt_from_ceq(200.0, (1.1, 1.5))
        with pytest.raises(ValueError):
            qpt_from_ceq(200.0, (0.5, 1.5), grid_points=8)
        with pytest.raises(ValueError):
            qpt_from_ceq(0.0, (0.5, 1.5))
        with pytest.raises(ValueError, match="interval ends must be finite"):
            qpt_from_ceq(200.0, (0.5, math.inf))


class TestPhaseDiagram:
    def test_row_order_outer_beta_inner_lambda(self):
        table = phase_diagram(S4, [1.0, 2.0], [0.1, 0.2])
        got = table.values[:, :2].tolist()
        assert got == [[1.0, 0.1], [1.0, 0.2], [2.0, 0.1], [2.0, 0.2]]

    def test_values_are_a_frozen_checked_array(self):
        table = phase_diagram(S4, [1.0, 2.0], [0.1, 0.2, 0.3])
        assert table.values.shape == (6, len(SweepTable.COLUMNS))
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
        text = "".join(table.csv_text())
        lines = text.split("\n")
        assert lines[0] == ",".join(SweepTable.COLUMNS)
        assert lines[0] == (
            "beta,lambda,log_z,mean_energy,entropy,c_star_beta,c_star_lambda,specific_heat"
        )
        assert text.endswith("\n")
        assert "\r" not in text
        assert len(lines) == 4  # header + 2 rows + trailing empty piece

    def test_csv_rows_format_like_format_17g(self):
        # csv_text renders whole arrays in _cells' numpy kernel; each cell
        # must print exactly what format(x, '.17g') prints, for any float
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(float)
        special = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
        values = np.concatenate([bits, special])
        values = np.resize(values, (values.size // 8 + 1) * 8).reshape(-1, 8)
        lines = "".join(SweepTable(values).csv_text()).split("\n")
        want = [",".join(SweepTable.COLUMNS)]
        want += [",".join(format(v, ".17g") for v in row) for row in values.tolist()]
        assert len(lines) == len(want) + 1 and lines[-1] == ""
        assert [(i, a, b) for i, (a, b) in enumerate(zip(lines, want)) if a != b][:3] == []

    def test_csv_round_trip_reproduces_rows(self):
        table = phase_diagram(S8, [0.5, 70.0], [0.1, 1 / 3, 1.2])
        text = "".join(table.csv_text())
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


def _csv_cells(values) -> list[str]:
    """Each value of an array as its CSV cell from ``_cells``, in flat order."""
    flat = np.asarray(values, dtype=float).ravel()
    return "".join(_cells.csv_lines(flat[None, :]))[:-1].split(",")


def _misformatted(values) -> list:
    """The first few (x, its cell, format(x, '.17g')) that differ; a short failure report."""
    values = np.asarray(values, dtype=float).ravel().tolist()
    cells = _csv_cells(values)
    assert len(cells) == len(values)
    return [(x, c, format(x, ".17g")) for x, c in zip(values, cells) if c != format(x, ".17g")][:5]


class TestCsvCells:
    # the kernel's cells against format(x, '.17g'), which '%.17g' % x equals
    @given(st.floats())
    @example(0.0)
    @example(-0.0)
    @example(math.nan)
    @example(-math.inf)
    # the ends of the float range, which the exponent tables span
    @example(5e-324)
    @example(1e-323)
    @example(2.225073858507201e-308)  # the largest subnormal
    @example(2.2250738585072014e-308)  # the least normal float
    @example(1.7976931348623155e308)
    @example(-1.7976931348623157e308)
    # where exponent notation gives way to fixed, and fixed to exponent
    @example(9.999999999999999e-06)
    @example(1e-05)
    @example(1.0000000000000003e-05)
    @example(9.999999999999999e-05)
    @example(0.0001)
    @example(0.00010000000000000002)
    @example(9999999999999998.0)
    @example(1e16)
    @example(1.0000000000000002e16)
    @example(9.999999999999998e16)
    @example(1e17)
    @example(1.0000000000000002e17)
    @example(1e-14)  # its 17 digits round up to the next power of ten
    @example(1e-280)  # 9.9999999999999996e-281: E is that of the unrounded value
    @example(2.0**53)
    @example(2.0**57)
    @example(1 + 2**-17)  # a tie at the 17th digit, so '%.17g' itself formats it
    @example(1.0000090481717197)  # 2**-36 past a tie, inside the tie margin
    @example(-123456789012345678.0)
    def test_a_cell_is_format_17g(self, x):
        assert _csv_cells([x]) == [format(x, ".17g")]

    def test_every_power_of_two_and_ten_is_format_17g(self):
        powers = [math.ldexp(1.0, k) for k in range(-1074, 1024)]
        powers += [float(f"1e{k}") for k in range(-323, 309)]
        powers = np.concatenate([powers, np.negative(powers)])
        neighbours = [np.nextafter(powers, -math.inf), powers, np.nextafter(powers, math.inf)]
        assert _misformatted(neighbours) == []

    def test_a_table_is_its_rows_rendered_one_by_one(self):
        # 3000 rows of 7 span several of the kernel's passes, and a pass
        # can end inside a row
        rng = np.random.default_rng(11)
        values = rng.integers(0, 2**64, size=(3000, 7), dtype=np.uint64).view(float)
        values[::5] = rng.normal(size=(600, 7))
        columns = [f"c{j}" for j in range(7)]
        lines = "".join(_cells.csv_text(columns, values)).split("\n")
        rows = ["".join(_cells.csv_text(columns, row[None, :])) for row in values]
        rows = [text.split("\n")[1] for text in rows]
        assert len(lines) == len(rows) + 2
        assert lines[0] == ",".join(columns) and lines[-1] == ""
        assert [(i, a, b) for i, (a, b) in enumerate(zip(lines[1:], rows)) if a != b][:3] == []

    @pytest.mark.parametrize(
        "columns, shape",
        [(["a", "b"], (2, 2, 1)), (["a"], (0, 3)), (["a"], (2, 2)), (["a", "b"], (4,)), ([], (1, 1))],
    )
    def test_rejects_values_not_of_one_column_per_name(self, columns, shape):
        with pytest.raises(ValueError):
            _cells.csv_text(columns, np.zeros(shape))

    def test_tables_without_rows_or_columns(self):
        assert "".join(_cells.csv_text(["a", "b", "c"], np.zeros((0, 3)))) == "a,b,c\n"
        assert "".join(_cells.csv_text([], np.zeros((2, 0)))) == "\n\n\n"
        assert "".join(_cells.csv_lines(np.zeros((1, 0)))) == "\n"
