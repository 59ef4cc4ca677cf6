import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from su2qpt import model
from su2qpt.model import Spectrum, analytic_spectrum, critical_couplings, ground_level
from su2qpt.spin_algebra import Multiplet
from su2qpt.thermo import (
    COLUMNS,
    ceq_scaled_residual,
    n2_closed_forms,
    observables,
    observables_grid,
    zero_t_c_star_lambda,
)
from su2qpt.transitions import find_peaks

S2 = analytic_spectrum(Multiplet(2))
S4 = analytic_spectrum(Multiplet(4))
S8 = analytic_spectrum(Multiplet(8))


def test_log_partition_frozen_values():
    # N=2 at xi=1: Z = e^-1 + 2e
    want = math.log(math.exp(-1.0) + 2.0 * math.exp(1.0))
    assert math.isclose(observables(S2, 1.0, 1.0).log_z, want, rel_tol=1e-14)
    # infinite temperature: every level weighs 1
    assert observables(S4, 0.0, 0.7).log_z == math.log(5.0)
    # deep in the lam=0 phase the ground term is everything
    assert observables(S4, 200.0, 0.0).log_z == 400.0


def test_negative_beta_rejected():
    with pytest.raises(ValueError):
        observables(S4, -0.1, 0.0)
    with pytest.raises(ValueError):
        observables(S4, -1.0, 0.5)


@pytest.mark.parametrize(
    "entry, args",
    [
        (observables, (S4, math.nan, 0.5)),
        (observables, (S4, math.inf, 0.5)),
        (observables_grid, (S4, math.nan, [0.5, 1.0])),
        (observables_grid, (S4, math.inf, [0.5, 1.0])),
        (ceq_scaled_residual, (0.9, math.nan)),
        (ceq_scaled_residual, (0.9, math.inf)),
        (ceq_scaled_residual, (math.nan, 10.0)),
        (n2_closed_forms, (0.9, math.nan)),
        (n2_closed_forms, (0.9, math.inf)),
        (find_peaks, (S4, math.inf, (0.02, 1.4))),
    ],
    ids=[
        "observables-nan",
        "observables-inf",
        "grid-nan",
        "grid-inf",
        "ceq-nan",
        "ceq-inf",
        "ceq-xi-nan",
        "n2-nan",
        "n2-inf",
        "find_peaks-inf",
    ],
)
def test_non_finite_beta_and_xi_rejected(entry, args):
    # a NaN or infinite beta (or a NaN xi) would give NaN results, or inf*0
    # warnings, instead of an error
    with pytest.raises(ValueError):
        entry(*args)


def test_occupations_module_level():
    p = observables(S4, 0.0, 1.3).occupations
    assert np.allclose(p, np.full(5, 0.2), rtol=0, atol=1e-15)
    p2 = observables(S4, 2.0, 0.6).occupations
    assert abs(float(p2.sum()) - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        p2[0] = 0.5


def test_equal_split_at_crossing():
    # at lambda_c the two crossing levels share the weight at low T
    lam_c = critical_couplings(Multiplet(4))[0].lambda_c
    p = observables(S4, 300.0, lam_c).occupations
    assert abs(p[0] - 0.5) <= 1e-8
    assert abs(p[1] - 0.5) <= 1e-8
    assert p[2] + p[3] + p[4] <= 1e-8


def test_specific_heat_identity_bitwise():
    for beta in (0.5, 5.0, 50.0, 300.0):
        for lam in (0.0, 0.1, 1 / 3, 0.9, 1.2):
            o = observables(S8, beta, lam)
            assert o.specific_heat == -(beta * beta) * o.c_star_beta
            # same summation path, so the cancellation is exact
            assert o.c_star_beta + o.energy_variance == 0.0
            assert o.specific_heat >= 0.0
            assert o.c_star_beta <= 0.0
            assert o.energy_variance >= 0.0


@given(
    st.sampled_from([2, 4, 8]),
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
def test_shift_invariance(n, beta, lam, shift):
    s = analytic_spectrum(Multiplet(n))
    shifted = Spectrum(s.m_values, s.intercepts + shift, s.slopes)
    a = observables(s, beta, lam)
    b = observables(shifted, beta, lam)

    def close(x, y, tol=1e-9):
        return abs(x - y) <= tol * max(1.0, abs(x), abs(y))

    assert close(b.log_z, a.log_z - beta * shift)
    assert close(b.mean_energy, a.mean_energy + shift)
    assert close(b.energy_variance, a.energy_variance)
    assert close(b.c_star_beta, a.c_star_beta)
    assert close(b.c_star_lambda, a.c_star_lambda)
    assert close(b.entropy, a.entropy)
    assert float(np.abs(b.occupations - a.occupations).max()) <= 1e-9


@given(
    st.sampled_from([2, 4, 8, 16]),
    st.floats(min_value=0.0, max_value=1000.0),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_entropy_never_negative(n, beta, lam):
    s = analytic_spectrum(Multiplet(n))
    assert observables(s, beta, lam).entropy >= 0.0


def test_entropy_limits():
    for n, s in ((2, S2), (4, S4), (8, S8)):
        assert abs(observables(s, 0.0, 0.9).entropy - math.log(n + 1)) <= 1e-15
        for cp in critical_couplings(Multiplet(n)):
            assert abs(observables(s, 300.0, cp.lambda_c).entropy - math.log(2.0)) <= 1e-6
    # far from any crossing the ground state is unique: entropy ~ 0
    assert observables(S4, 300.0, 0.15).entropy <= 1e-6


def _mp_mean_energy(s, beta, lam):
    e = [mpf(float(i)) + mpf(float(sl)) * lam for i, sl in zip(s.intercepts, s.slopes)]
    e_min = min(e)
    w = [mp.e ** (-beta * (x - e_min)) for x in e]
    return e_min + sum(wi * (x - e_min) for wi, x in zip(w, e)) / sum(w)


@pytest.mark.parametrize("beta,lam", [(0.5, 0.3), (5.0, 0.9), (50.0, 0.34)])
def test_moment_derivatives_match_high_precision_fd(beta, lam):
    o = observables(S4, beta, lam)
    with mp.workdps(50):
        hb = mpf(1e-5 * max(1.0, 1.0 / beta))
        fd_b = float(
            (_mp_mean_energy(S4, mpf(beta) + hb, mpf(lam)) - _mp_mean_energy(S4, mpf(beta) - hb, mpf(lam)))
            / (2 * hb)
        )
        hl = mpf(1e-6)
        fd_l = float(
            (_mp_mean_energy(S4, mpf(beta), mpf(lam) + hl) - _mp_mean_energy(S4, mpf(beta), mpf(lam) - hl))
            / (2 * hl)
        )
    assert abs(o.c_star_beta - fd_b) <= 1e-5 * max(abs(fd_b), 1e-300)
    assert abs(o.c_star_lambda - fd_l) <= 1e-5 * max(abs(fd_l), 1e-300)


def test_zero_t_c_star_lambda_is_ground_slope():
    lams = (0.1, 1 / 3, 0.7, 1.0, 1.3)
    for lam in lams:
        assert zero_t_c_star_lambda(S4, lam) == ground_level(S4, lam)[1]
    assert zero_t_c_star_lambda(S4, lams).tolist() == [0.0, -1.5, -3.0, -3.5, -4.0]


def test_n2_closed_forms_frozen():
    forms = n2_closed_forms(1.0, 1.0)
    want_z = math.exp(-1.0) + 2.0 * math.exp(1.0)
    assert math.isclose(forms.z, want_z, rel_tol=1e-15)
    assert math.isclose(forms.z, 5.804443098089532, rel_tol=1e-15)


def test_n2_g_changes_sign_across_crossing():
    assert n2_closed_forms(0.95, 30.0).g_xi > 0.0
    assert n2_closed_forms(1.05, 30.0).g_xi < 0.0


def test_n2_closed_forms_overflow_guard():
    with pytest.raises(OverflowError):
        n2_closed_forms(1.2, 700.0)
    with pytest.raises(OverflowError):
        n2_closed_forms(0.5, 701.0)
    # boundary still evaluates: beta*max(1, xi) = 700 exactly
    assert math.isfinite(n2_closed_forms(0.5, 700.0).z)


@pytest.mark.parametrize(
    "xi,beta",
    [(0.3, 1.0), (0.95, 30.0), (1.0, 10.0), (1.6, 100.0), (0.5, 600.0), (1.1, 600.0)],
)
def test_n2_closed_forms_match_generic_engine(xi, beta):
    forms = n2_closed_forms(xi, beta)
    o = observables(S2, beta, xi)
    assert math.isclose(forms.z, math.exp(o.log_z), rel_tol=1e-12)
    assert math.isclose(forms.mean_e, o.mean_energy, rel_tol=1e-10)
    # g_xi is d<E>/d(xi), the same observable the engine calls c_star_lambda
    assert math.isclose(forms.g_xi, o.c_star_lambda, rel_tol=1e-9)
    # dZ/dbeta = -<E> Z
    assert math.isclose(forms.dz_dbeta, -forms.mean_e * forms.z, rel_tol=1e-12)


def test_ceq_residual_frozen_at_infinite_temperature():
    # beta = 0: 4 + (xi-1)^2 + (xi+1)^2 with every exponential equal to 1
    assert ceq_scaled_residual(0.5, 0.0) == 6.5


def test_ceq_residual_matches_direct_expansion_at_small_beta():
    for xi in (0.2, 0.8, 1.0, 1.4):
        for beta in (0.5, 2.0, 5.0):
            direct = (
                4.0
                + (xi - 1.0) ** 2 * math.exp(beta * (1.0 + xi))
                + (xi + 1.0) ** 2 * math.exp(beta * (xi - 1.0))
            ) * math.exp(-2.0 * beta * max(1.0, xi))
            got = ceq_scaled_residual(xi, beta)
            assert math.isclose(got, direct, rel_tol=1e-9)


@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=1e4),
)
def test_ceq_residual_positive_and_finite(xi, beta):
    r = ceq_scaled_residual(xi, beta)
    assert r >= 0.0
    assert math.isfinite(r)


def test_ceq_residual_rejects_negative_xi():
    with pytest.raises(ValueError):
        ceq_scaled_residual(-0.1, 1.0)


def test_variance_against_two_point_formula():
    # two levels dominate near a crossing: Var -> (gap/2 sech(beta*gap/2))^2
    beta = 40.0
    lam = 1.02
    gap = abs((-1.0 - 3.0 * lam) - (-4.0 * lam))  # N=4 crossing pair at lam_c=1
    want = (gap / 2.0 / math.cosh(beta * gap / 2.0)) ** 2
    got = observables(S4, beta, lam).energy_variance
    assert math.isclose(got, want, rel_tol=1e-10)


def _scalar_row(s, beta, lam):
    o = observables(s, beta, lam)
    return np.array([getattr(o, name) for name in ("beta", "lam") + COLUMNS[2:]])


def _assert_rows_equal_scalar(s, beta, lams):
    grid = observables_grid(s, beta, lams)
    assert grid.shape == (len(lams), len(COLUMNS))
    for i in range(len(lams)):
        # bit for bit, not allclose: a CSV row must re-evaluate to itself
        assert np.array_equal(grid[i], _scalar_row(s, beta, lams[i])), (beta, lams[i])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=64),
    st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=1.0, max_value=3.5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
# grids of exactly one, two and three blocks, and one point past a block
@example(7, 110.0, 1.0, 0)
@example(1, 0.0, 2.0, 1)
@example(63, 1e4, 3.0, 2)
@example(63, 70.0, 65 / 64, 3)
def test_grid_rows_equal_scalar_observables_bitwise(n, beta, blocks, seed):
    mult = Multiplet(n)
    s = analytic_spectrum(mult)
    # a grid several blocks long, with every exact crossing on it
    length = int(blocks * max(1, model._BLOCK_ELEMENTS // (n + 1)))
    rng = np.random.default_rng(seed)
    lams = np.sort(rng.uniform(0.0, 2.0, length))
    crossings = [cp.lambda_c for cp in critical_couplings(mult)]
    lams[rng.choice(length, size=min(len(crossings), length), replace=False)] = crossings[:length]
    _assert_rows_equal_scalar(s, beta, lams)


def test_grid_rows_equal_scalar_observables_at_large_n():
    mult = Multiplet(300000)
    s = analytic_spectrum(mult)
    lams = np.array([0.0, 0.3001, critical_couplings(mult)[-2].lambda_c, 0.98221818181818177])
    for beta in (0.0, 110.0):
        _assert_rows_equal_scalar(s, beta, lams)


def test_grid_columns_and_validation():
    grid = observables_grid(S4, 70.0, [0.1, 0.2, 0.3])
    assert grid.shape == (3, 8)
    assert np.array_equal(grid[:, 0], [70.0] * 3)
    assert np.array_equal(grid[:, 1], [0.1, 0.2, 0.3])
    assert observables_grid(S4, 70.0, []).shape == (0, 8)
    with pytest.raises(ValueError):
        observables_grid(S4, -1.0, [0.1])
    with pytest.raises(ValueError):
        observables_grid(S4, 1.0, [[0.1, 0.2]])


def _mp_entropy(s, beta, lam):
    # from the engine's float64 level energies, at 50 digits
    e = s.intercepts + s.slopes * lam
    with mp.workdps(50):
        d = [mpf(float(x)) - mpf(float(e.min())) for x in e]
        w = [mp.exp(-mpf(beta) * x) for x in d]
        z = mp.fsum(w)
        return float(mpf(beta) * mp.fsum(wi * di for wi, di in zip(w, d)) / z + mp.log(z))


@pytest.mark.parametrize("lam", [0.17, 0.25, 0.5, 0.7, 1.3])
def test_small_entropy_matches_high_precision(lam):
    # beta = 110 away from any crossing: S is far below 1, where ln of a
    # weight sum next to 1 used to lose most of its digits
    want = _mp_entropy(S8, 110.0, lam)
    assert 0.0 < want < 1e-3
    got = observables(S8, 110.0, lam).entropy
    assert math.isclose(got, want, rel_tol=1e-12), (got, want)
    assert observables_grid(S8, 110.0, [lam])[0, COLUMNS.index("entropy")] == got
