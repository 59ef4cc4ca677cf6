import numpy as np
import pytest

from su2qpt import eigensolver
from su2qpt.eigensolver import NonConvergenceError, jacobi_eigenvalues
from su2qpt.model import analytic_spectrum
from su2qpt.spin_algebra import Multiplet
from su2qpt.validation import _x_axis_hamiltonian


def test_two_by_two_frozen():
    res = jacobi_eigenvalues([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(res.values, [1.0, 3.0], rtol=0, atol=1e-14)
    assert res.sweeps_used >= 1
    assert res.off_norm <= 1e-12


def test_diagonal_input_short_circuits():
    res = jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0]))
    assert res.sweeps_used == 0
    assert np.array_equal(res.values, [-1.0, 2.0, 3.0])


@pytest.mark.parametrize("lam", [0.0, 0.1, 1 / 3, 0.5, 1.0, 1.7])
def test_matches_analytic_spectrum(lam):
    # the x-axis form is not diagonal, so every solve has to rotate
    for n in range(1, 17):
        mult = Multiplet(n)
        res = jacobi_eigenvalues(_x_axis_hamiltonian(mult, lam))
        want = np.sort(analytic_spectrum(mult).energies(lam))
        assert res.sweeps_used >= 1
        assert np.abs(res.values - want).max() <= 1e-10


def test_tridiagonal_toeplitz_plain_array():
    tri = [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]]
    a = jacobi_eigenvalues(tri).values
    # the 3x3 tridiagonal Toeplitz matrix has eigenvalues 2 - sqrt2, 2, 2 + sqrt2
    root2 = np.sqrt(2.0)
    assert np.allclose(a, [2.0 - root2, 2.0, 2.0 + root2], rtol=0, atol=1e-12)


def test_matches_lapack_on_random_symmetric():
    rng = np.random.default_rng(1234)
    for d in (2, 3, 5, 8, 12):
        raw = rng.standard_normal((d, d))
        a = (raw + raw.T) / 2.0
        got = jacobi_eigenvalues(a).values
        want = np.linalg.eigvalsh(a)
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() <= 1e-10 * scale


def test_a_tiny_pair_against_a_large_gap_takes_the_huge_theta_rotation():
    # pair (0, 1) has theta = (1 - 0) / (2 * 1e-160) = 5e159, past 1e150,
    # where the tangent is 1 / (2 theta) instead of the hypot form
    a = [[0.0, 1e-160, 1.0], [1e-160, 1.0, 0.0], [1.0, 0.0, 2.0]]
    got = jacobi_eigenvalues(a).values
    assert np.abs(got - np.linalg.eigvalsh(a)).max() <= 1e-12


def test_invariants_trace_and_frobenius():
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((9, 9))
    a = (raw + raw.T) / 2.0
    vals = jacobi_eigenvalues(a).values
    assert abs(vals.sum() - np.trace(a)) <= 1e-10
    assert abs((vals**2).sum() - (a**2).sum()) <= 1e-9


def test_permutation_similarity_invariance():
    rng = np.random.default_rng(42)
    raw = rng.standard_normal((7, 7))
    a = (raw + raw.T) / 2.0
    perm = rng.permutation(7)
    b = a[np.ix_(perm, perm)]
    assert np.abs(jacobi_eigenvalues(a).values - jacobi_eigenvalues(b).values).max() <= 1e-10


def test_rejects_asymmetric_matrix():
    with pytest.raises(ValueError):
        jacobi_eigenvalues([[0.0, 1.0], [0.0, 0.0]])


def test_rejects_non_square():
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.zeros((2, 3)))


@pytest.mark.parametrize("n,sweeps", [(4, [5, 5, 5, 4, 4, 5]), (8, [6, 6, 6, 6, 4, 5])])
def test_sweep_counts_of_the_acceptance_matrices(n, sweeps):
    # criterion 2's matrices, at its six couplings: the README's "4 to 6
    # sweeps", and a solver that rotated the same pairs in another order
    # or tested convergence at another point would count differently
    lams = (0.0, 0.1, 1 / 3, 0.5, 1.0, 1.7)
    got = [jacobi_eigenvalues(_x_axis_hamiltonian(Multiplet(n), lam)).sweeps_used for lam in lams]
    assert got == sweeps


@pytest.mark.parametrize(
    "a",
    [
        _x_axis_hamiltonian(Multiplet(4), 0.5),
        # asymmetric within the 1e-12 the solver folds away
        np.array([[2.0, 1.0, 0.0], [1.0 + 5e-13, 2.0, 1.0], [0.0, 1.0, 2.0]]),
    ],
    ids=["float64", "near-symmetric"],
)
def test_leaves_the_callers_array_untouched(a):
    # a float64 ndarray comes through np.asarray as the caller's own array
    before = a.copy()
    assert jacobi_eigenvalues(a).sweeps_used >= 1
    assert np.array_equal(a, before)


def test_nonconvergence_after_one_and_two_sweeps(monkeypatch):
    a = _x_axis_hamiltonian(Multiplet(4), 0.5)  # takes 4 sweeps
    partials = []
    for budget in (1, 2):
        monkeypatch.setattr(eigensolver, "_MAX_SWEEPS", budget)
        with pytest.raises(NonConvergenceError, match=f"after {budget} sweeps$") as exc_info:
            jacobi_eigenvalues(a)
        partials.append(exc_info.value.partial)
    assert [p.sweeps_used for p in partials] == [1, 2]
    assert partials[0].off_norm > partials[1].off_norm > 0.0


def test_nonconvergence_carries_partial_result(monkeypatch):
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    monkeypatch.setattr(eigensolver, "_MAX_SWEEPS", 0)
    with pytest.raises(NonConvergenceError) as exc_info:
        jacobi_eigenvalues(a)
    partial = exc_info.value.partial
    assert partial.values.shape == (2,)
    assert partial.sweeps_used == 0
    assert partial.off_norm > 0.0
