"""Exact and floating kernel tests.

Frozen oracles in this file were computed by hand or by an independent
brute-force formula written inline (never by calling the function under
test): small circulant/negacirculant layouts, the rank-one projector at
n = 2, eigenvalue residuals, and cyclotomic polynomial tables.
"""

import cmath
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewframes.algebra import (
    CycloPoly,
    RootIndex,
    circulant,
    circulant_eigenvalue,
    cyclo_conj_transpose,
    cyclo_equal,
    cyclo_identity,
    cyclo_matmul,
    cyclotomic_idempotent,
    cyclotomic_idempotent_exact,
    cyclotomic_polynomial,
    is_circulant,
    is_negacirculant,
    lcm,
    nega_cyclotomic_idempotent,
    nega_cyclotomic_idempotent_exact,
    negacirculant,
    negacirculant_eigenvalue,
    root_power,
)

rng = np.random.default_rng(20240811)


# ---------------------------------------------------------------------------
# roots of unity as (order, index) pairs


def test_root_index_normalizes_index():
    assert RootIndex(4, 5) == RootIndex(4, 1)
    assert RootIndex(4, -1) == RootIndex(4, 3)


def test_root_index_value_matches_cmath():
    for order in (1, 2, 3, 4, 5, 8, 12):
        for k in range(order):
            want = cmath.exp(-2j * cmath.pi * k / order)
            assert abs(RootIndex(order, k).value - want) < 1e-12


def test_root_index_conjugate_and_power():
    z = RootIndex(8, 3)
    assert z.conjugate() == RootIndex(8, 5)
    assert z.power(2) == RootIndex(8, 6)
    assert abs(z.power(3).value - z.value ** 3) < 1e-12


def test_root_index_real_detection():
    assert RootIndex(2, 1).is_real()
    assert RootIndex(6, 3).is_real()  # equals -1
    assert RootIndex(1, 0).is_real()
    assert not RootIndex(4, 1).is_real()


def test_annihilates_and_negates():
    z = RootIndex(8, 1)  # primitive 8th root
    assert z.annihilates(8)
    assert not z.annihilates(4)
    assert z.negates(4)
    assert not z.negates(8)


def test_root_power_wraps():
    assert abs(root_power(4, 5) - root_power(4, 1)) < 1e-15
    assert abs(root_power(4, 1) - (-1j)) < 1e-15


# ---------------------------------------------------------------------------
# circulant / negacirculant layout


def test_circulant_frozen_3x3():
    C = circulant([1, 2, 3])
    assert np.array_equal(C, np.array([[1, 2, 3], [3, 1, 2], [2, 3, 1]]))


def test_negacirculant_frozen_2x2():
    N = negacirculant((1, -1))
    assert np.array_equal(N, np.array([[1, -1], [1, 1]]))


def test_negacirculant_frozen_3x3():
    # row i: entries v[j-i] for j >= i, -v[n+j-i] below the diagonal
    N = negacirculant([1, 2, 3])
    assert np.array_equal(N, np.array([[1, 2, 3], [-3, 1, 2], [-2, -3, 1]]))


@given(st.integers(2, 9), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_recognizers_accept_their_constructors(n, seed):
    g = np.random.default_rng(seed)
    v = g.normal(size=n) + 1j * g.normal(size=n)
    assert is_circulant(circulant(v))
    assert is_negacirculant(negacirculant(v))


def test_recognizers_reject_perturbations():
    v = rng.normal(size=5)
    C = circulant(v).astype(complex)
    C[2, 3] += 1e-3
    assert not is_circulant(C)
    N = negacirculant(v).astype(complex)
    N[4, 0] += 1e-3
    assert not is_negacirculant(N)


def test_circulants_closed_under_product_and_adjoint():
    for _ in range(10):
        u = rng.normal(size=6) + 1j * rng.normal(size=6)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert is_circulant(circulant(u) @ circulant(v))
        assert is_circulant(circulant(u).conj().T)
        assert is_negacirculant(negacirculant(u) @ negacirculant(v))
        assert is_negacirculant(negacirculant(u).conj().T)


# ---------------------------------------------------------------------------
# spectral projectors


def test_cyclotomic_idempotent_frozen_row():
    E = cyclotomic_idempotent(4, RootIndex(4, 1))
    want = np.array([1, -1j, -1, 1j]) / 4
    assert np.allclose(E[0], want, atol=1e-12)


def test_nega_idempotent_frozen_2x2():
    K = nega_cyclotomic_idempotent(2, RootIndex(4, 1))
    want = np.array([[1, 1j], [-1j, 1]]) / 2
    assert np.allclose(K, want, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_cyclotomic_system_resolves_identity(n):
    total = np.zeros((n, n), dtype=complex)
    mats = []
    for k in range(n):
        E = cyclotomic_idempotent(n, RootIndex(n, k))
        assert np.allclose(E @ E, E, atol=1e-12)
        assert np.allclose(E.conj().T, E, atol=1e-12)
        assert is_circulant(E)
        assert np.linalg.matrix_rank(E, tol=1e-9) == 1
        mats.append(E)
        total += E
    assert np.allclose(total, np.eye(n), atol=1e-12)
    for i in range(n):
        for j in range(i + 1, n):
            assert np.allclose(mats[i] @ mats[j], 0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_nega_system_resolves_identity(n):
    roots = [RootIndex(2 * n, 2 * k + 1) for k in range(n)]
    total = np.zeros((n, n), dtype=complex)
    mats = []
    for z in roots:
        K = nega_cyclotomic_idempotent(n, z)
        assert np.allclose(K @ K, K, atol=1e-12)
        assert np.allclose(K.conj().T, K, atol=1e-12)
        assert is_negacirculant(K)
        mats.append(K)
        total += K
    assert np.allclose(total, np.eye(n), atol=1e-12)
    for i in range(n):
        for j in range(i + 1, n):
            assert np.allclose(mats[i] @ mats[j], 0, atol=1e-12)


def test_idempotent_rejects_wrong_root():
    with pytest.raises(ValueError):
        cyclotomic_idempotent(4, RootIndex(8, 1))
    with pytest.raises(ValueError):
        nega_cyclotomic_idempotent(4, RootIndex(4, 1))


# ---------------------------------------------------------------------------
# eigenvalues against the defining property


def test_circulant_eigenvalue_defining_property():
    # the returned scalar must satisfy C E = a E exactly; for the cyclic
    # shift at n = 3 that scalar is conj(zeta), not zeta.
    C = circulant([0, 1, 0])
    z = RootIndex(3, 1)
    a = circulant_eigenvalue(C, z)
    E = cyclotomic_idempotent(3, z)
    assert np.max(np.abs(C @ E - a * E)) < 1e-12
    assert abs(a - z.conjugate().value) < 1e-12
    assert abs(a - z.value) > 1.0  # the two candidate formulas differ here


def test_negacirculant_eigenvalue_defining_property():
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    N = negacirculant(v)
    for k in range(6):
        z = RootIndex(12, 2 * k + 1)
        a = negacirculant_eigenvalue(N, z)
        K = nega_cyclotomic_idempotent(6, z)
        assert np.max(np.abs(N @ K - a * K)) < 1e-9
        assert abs(a - sum(v[j] * z.value ** j for j in range(6))) < 1e-9


def test_eigenvalue_rejects_unstructured_matrix():
    M = rng.normal(size=(4, 4))
    with pytest.raises(ValueError):
        circulant_eigenvalue(M, RootIndex(4, 1))
    with pytest.raises(ValueError):
        negacirculant_eigenvalue(M, RootIndex(8, 1))


def test_eigenvalues_diagonalize_products():
    u = rng.normal(size=5)
    v = rng.normal(size=5)
    A, B = circulant(u), circulant(v)
    for k in range(5):
        z = RootIndex(5, k)
        a = circulant_eigenvalue(A @ B, z)
        assert abs(a - circulant_eigenvalue(A, z) * circulant_eigenvalue(B, z)) < 1e-9


# ---------------------------------------------------------------------------
# cyclotomic polynomials and the exact cyclotomic ring


def test_cyclotomic_polynomial_table():
    # low degree first; classical values
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclopoly_reduction_and_equality():
    z = CycloPoly.root(8, 1)
    minus_one = CycloPoly.rational(8, -1)
    assert z * z * z * z == minus_one
    assert not (z * z == minus_one)
    i = CycloPoly.gaussian(8, 0, 1)
    assert i == z * z * z * z * z * z  # exp(-2 pi i * 6/8) = i
    assert i * i == minus_one
    assert z.conjugate() * z == CycloPoly.rational(8, 1)


def test_cyclopoly_matches_float_value():
    z = CycloPoly.root(12, 5, coeff=Fraction(3, 7))
    want = Fraction(3, 7) * 1.0 * cmath.exp(-2j * cmath.pi * 5 / 12)
    assert abs(z.to_complex() - complex(want)) < 1e-12


def test_cyclopoly_rescale_preserves_value():
    z = CycloPoly.root(6, 1) + CycloPoly.rational(6, Fraction(1, 2))
    w = z.rescaled(24)
    assert abs(z.to_complex() - w.to_complex()) < 1e-12


def test_exact_idempotents_square_exactly():
    for n, z in ((3, RootIndex(3, 1)), (4, RootIndex(4, 3))):
        E = cyclotomic_idempotent_exact(n, z)
        assert cyclo_equal(cyclo_matmul(E, E), E)
        assert cyclo_equal(cyclo_conj_transpose(E), E)
    for n, z in ((2, RootIndex(4, 1)), (3, RootIndex(6, 1))):
        K = nega_cyclotomic_idempotent_exact(n, z)
        assert cyclo_equal(cyclo_matmul(K, K), K)
        assert cyclo_equal(cyclo_conj_transpose(K), K)


def test_exact_nega_system_sums_to_identity():
    n = 4
    ring = 8
    total = None
    for k in range(n):
        K = nega_cyclotomic_idempotent_exact(n, RootIndex(2 * n, 2 * k + 1), ring)
        total = K if total is None else [
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, K)
        ]
    assert cyclo_equal(total, cyclo_identity(ring, n))


def test_lcm():
    assert lcm(4, 6) == 12
    assert lcm(1, 9) == 9
    assert lcm(8, 8) == 8
