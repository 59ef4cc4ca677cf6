import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from su2qpt.spin_algebra import Multiplet, OperatorMatrix, build_j2, build_jz


def raising(m: Multiplet) -> np.ndarray:
    """J_+ in the ascending-M basis: amplitude sqrt(J(J+1) - M(M+1)) one
    place below the diagonal, the position [J_z, J_+] = +J_+ pins."""
    below = m.m_values()[:-1]
    return np.diag(np.sqrt(m.casimir - below * (below + 1.0)), k=-1)


def test_multiplet_basics():
    m = Multiplet(4)
    assert m.j == 2.0
    assert m.dim == 5
    assert m.casimir == 6.0
    assert np.array_equal(m.m_values(), [-2.0, -1.0, 0.0, 1.0, 2.0])

    odd = Multiplet(1)
    assert odd.j == 0.5
    assert odd.dim == 2
    assert odd.casimir == 0.75
    assert np.array_equal(odd.m_values(), [-0.5, 0.5])


@pytest.mark.parametrize("bad", [0, -1, 1.5, True, "4", None])
def test_multiplet_rejects_bad_counts(bad):
    with pytest.raises(ValueError):
        Multiplet(bad)


def test_jz_is_diagonal_and_frozen():
    jz = build_jz(Multiplet(4))
    assert np.array_equal(jz.entries, np.diag([-2.0, -1.0, 0.0, 1.0, 2.0]))
    assert jz.is_symmetric()
    with pytest.raises(ValueError):
        jz.entries[0, 0] = 99.0


def test_j2_is_casimir_identity_matrix():
    m = Multiplet(3)
    assert np.array_equal(build_j2(m).entries, m.casimir * np.eye(4))


@given(st.integers(min_value=1, max_value=64))
def test_ladder_commutators(n):
    m = Multiplet(n)
    jz = build_jz(m).entries
    plus = raising(m)
    minus = plus.T

    # m_r*amp and m_c*amp round separately inside the matmul, so the
    # identity holds entrywise to ~1e-13 at N=64, not bitwise
    assert np.allclose(jz @ plus - plus @ jz, plus, rtol=0, atol=1e-12)
    assert np.allclose(jz @ minus - minus @ jz, -minus, rtol=0, atol=1e-12)
    assert np.allclose(plus @ minus - minus @ plus, 2.0 * jz, rtol=0, atol=1e-12)


@given(st.integers(min_value=1, max_value=64))
def test_casimir_from_components(n):
    m = Multiplet(n)
    plus = raising(m)
    jx = (plus + plus.T) / 2.0
    diff = plus - plus.T
    jy2 = -0.25 * (diff @ diff)
    jz = build_jz(m).entries
    total = jx @ jx + jy2 + jz @ jz
    assert np.allclose(total, build_j2(m).entries, rtol=0, atol=1e-12)


def test_operator_matrix_validation():
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros((2, 2)), np.zeros(3))
    asym = OperatorMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([-0.5, 0.5]))
    assert not asym.is_symmetric()
    assert asym.dim == 2


