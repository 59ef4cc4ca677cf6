import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from su2qpt.model import (
    ModelParams,
    Spectrum,
    analytic_spectrum,
    build_hamiltonian,
    critical_couplings,
    ground_level,
    ground_slope,
    ground_state_energy,
)
from su2qpt.spin_algebra import Multiplet, build_jz


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


def test_build_hamiltonian_frozen_n4():
    h = build_hamiltonian(ModelParams(multiplet=Multiplet(4), lam=0.5))
    assert np.array_equal(h.entries, np.diag([-2.0, -2.5, -2.0, -0.5, 2.0]))


def test_hamiltonian_pieces_commute_exactly():
    m = Multiplet(6)
    h0 = build_hamiltonian(ModelParams(multiplet=m, lam=0.0))
    h = build_hamiltonian(ModelParams(multiplet=m, lam=0.8))
    a, b, jz = h0.entries, h.entries, build_jz(m).entries
    assert np.array_equal(a @ b - b @ a, np.zeros((7, 7)))
    assert np.array_equal(b @ jz - jz @ b, np.zeros((7, 7)))


@given(
    st.integers(min_value=1, max_value=32),
    st.integers(min_value=0, max_value=49),
)
def test_hamiltonian_diagonal_equals_spectrum_bitwise(n, k):
    # both paths round only the final slope*lam product, so the match
    # is exact, not approximate
    lam = k * (2.0 / 49.0)
    mult = Multiplet(n)
    h = build_hamiltonian(ModelParams(multiplet=mult, lam=lam))
    s = analytic_spectrum(mult)
    assert np.array_equal(np.diag(h.entries), s.energies(lam))
    off = h.entries - np.diag(np.diag(h.entries))
    assert np.array_equal(off, np.zeros_like(off))


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(multiplet=Multiplet(2), e_gap=0.0)
    with pytest.raises(ValueError):
        ModelParams(multiplet=Multiplet(2), e_gap=-1.0)


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


def test_ground_state_energy_examples():
    s = analytic_spectrum(Multiplet(4))
    assert ground_state_energy(s, 0.2) == (-2.0, [-2.0])
    assert ground_state_energy(s, 0.5) == (-2.5, [-1.0])
    assert ground_state_energy(s, 2.0) == (-8.0, [0.0])
    e, ms = ground_state_energy(s, 1 / 3)
    assert ms == [-2.0, -1.0]
    assert abs(e - (-2.0)) <= 1e-12


def test_ground_slope_examples():
    s = analytic_spectrum(Multiplet(4))
    assert ground_slope(s, 0.2) == 0.0
    assert ground_slope(s, 0.5) == -3.0
    assert ground_slope(s, 2.0) == -4.0
    assert ground_slope(s, 1 / 3) == -1.5
    assert ground_slope(s, 1.0) == -3.5


def test_ground_level_is_energy_and_slope_in_one_pass():
    for n in range(2, 65):
        mult = Multiplet(n)
        s = analytic_spectrum(mult)
        lams = [0.0, 0.37, 2.0] + [cp.lambda_c for cp in critical_couplings(mult)]
        for lam in lams:
            e0, ms = ground_state_energy(s, lam)
            assert ground_level(s, lam) == (e0, ms, ground_slope(s, lam))


def test_every_crossing_is_twofold_degenerate():
    for n in range(2, 65):
        mult = Multiplet(n)
        s = analytic_spectrum(mult)
        for cp in critical_couplings(mult):
            assert ground_state_energy(s, cp.lambda_c)[1] == [cp.lower_m, cp.upper_m]


def test_no_spurious_degeneracy_at_large_n():
    # the M = 0 level sits only 8e-13*|E0| above the unique ground level
    # M = -1 here, yet thousands of ulp away
    s = analytic_spectrum(Multiplet(300000))
    lam = 0.98221818181818177
    assert ground_state_energy(s, lam)[1] == [-1.0]
    assert ground_slope(s, lam) == -22499999999.0


@given(
    st.integers(min_value=2, max_value=16),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_staircase_never_increases(n, a, b):
    lo, hi = min(a, b), max(a, b)
    s = analytic_spectrum(Multiplet(n))
    assert ground_slope(s, lo) >= ground_slope(s, hi)
    # the slope never turns positive, so the ground energy only descends
    assert ground_slope(s, hi) <= 0.0
    assert ground_state_energy(s, lo)[0] >= ground_state_energy(s, hi)[0]


@given(st.integers(min_value=1, max_value=32), st.floats(min_value=0.0, max_value=2.0))
def test_ground_energy_is_spectrum_min(n, lam):
    s = analytic_spectrum(Multiplet(n))
    e, ms = ground_state_energy(s, lam)
    assert e == float(s.energies(lam).min())
    assert len(ms) >= 1
