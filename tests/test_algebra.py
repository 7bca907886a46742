"""Exact and floating kernel tests.

Frozen oracles in this file were computed by hand or by an independent
brute-force formula written inline (never by calling the function under
test): small circulant/negacirculant layouts, the rank-one projector at
n = 2, and cyclotomic polynomial tables.
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
    cyclo_add,
    cyclo_conj_transpose,
    cyclo_equal,
    cyclo_identity,
    cyclo_is_zero,
    cyclo_matmul,
    cyclotomic_idempotent_exact,
    cyclotomic_polynomial,
    is_circulant,
    is_negacirculant,
    lcm,
    nega_cyclotomic_idempotent_exact,
    negacirculant,
    root_power,
    _exact_dtype,
    _reduce,
    _reduction_array,
    _scaled_entries,
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


def evaluate(M):
    return np.array([[x.to_complex() for x in row] for row in M])


def test_cyclotomic_idempotent_frozen_row():
    E = evaluate(cyclotomic_idempotent_exact(4, RootIndex(4, 1)))
    want = np.array([1, -1j, -1, 1j]) / 4
    assert np.allclose(E[0], want, atol=1e-12)


def test_nega_idempotent_frozen_2x2():
    K = evaluate(nega_cyclotomic_idempotent_exact(2, RootIndex(4, 1)))
    want = np.array([[1, 1j], [-1j, 1]]) / 2
    assert np.allclose(K, want, atol=1e-12)


def check_resolution_of_identity(mats, order, n, shift_algebra):
    """Exact idempotent, self-adjoint, pairwise orthogonal, summing to I;
    in floats, rank one and in the shift algebra."""
    for M in mats:
        assert cyclo_equal(cyclo_matmul(M, M), M)
        assert cyclo_equal(cyclo_conj_transpose(M), M)
        assert shift_algebra(evaluate(M))
        assert np.linalg.matrix_rank(evaluate(M), tol=1e-9) == 1
    total = mats[0]
    for M in mats[1:]:
        total = cyclo_add(total, M)
    assert cyclo_equal(total, cyclo_identity(order, n))
    for i in range(n):
        for j in range(i + 1, n):
            assert cyclo_is_zero(cyclo_matmul(mats[i], mats[j]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_cyclotomic_system_resolves_identity(n):
    mats = [cyclotomic_idempotent_exact(n, RootIndex(n, k)) for k in range(n)]
    check_resolution_of_identity(mats, n, n, is_circulant)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_nega_system_resolves_identity(n):
    mats = [nega_cyclotomic_idempotent_exact(n, RootIndex(2 * n, 2 * k + 1)) for k in range(n)]
    check_resolution_of_identity(mats, 2 * n, n, is_negacirculant)


def test_idempotent_rejects_wrong_root():
    for build, n, zeta, ring_order in [
        (cyclotomic_idempotent_exact, 4, RootIndex(8, 1), None),  # zeta**4 = -1
        (nega_cyclotomic_idempotent_exact, 4, RootIndex(4, 1), None),  # zeta**4 = 1
        (cyclotomic_idempotent_exact, 4, RootIndex(4, 1), 6),  # 4 does not divide 6
        (nega_cyclotomic_idempotent_exact, 2, RootIndex(4, 1), 6),
    ]:
        with pytest.raises(ValueError):
            build(n, zeta, ring_order)


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


def test_cyclopoly_arithmetic_rejects_mixed_orders():
    z8, z12 = CycloPoly.root(8, 1), CycloPoly.root(12, 1)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a == b):
        with pytest.raises(ValueError, match="mixed cyclotomic orders"):
            op(z8, z12)
    with pytest.raises(ValueError, match="mixed cyclotomic orders"):
        cyclo_equal([[z8]], [[z12]])
    assert z8 * 3 == CycloPoly.root(8, 1, coeff=3)


@pytest.mark.parametrize("make", [
    lambda c: CycloPoly(8, {0: c}),
    lambda c: CycloPoly.root(8, 0, coeff=c),
    lambda c: CycloPoly.rational(8, c),
    lambda c: CycloPoly.gaussian(8, c, 0),
    lambda c: CycloPoly.rational(8, 1) * c,
], ids=["init", "root", "rational", "gaussian", "coerce"])
def test_cyclopoly_numpy_integers_become_python_ints(make):
    # a numpy int64 numerator would wrap at 2**63: 3e9 cubed is 2.7e28
    x = make(np.int64(3_000_000_000))
    assert all(type(c.numerator) is int and type(c.denominator) is int
               for c in x.coeffs.values())
    assert (x * x * x).coeffs == {0: Fraction(27 * 10 ** 27)}


def test_cyclopoly_equality_with_other_types_is_false():
    one = CycloPoly.rational(8, 1)
    assert one == 1 and one == Fraction(2, 2)
    assert not one == "x"
    assert one != "x" and "x" != one
    assert one != None  # noqa: E711
    assert one != [1]


def test_elementwise_ops_reject_mismatched_shapes():
    # zipping rows would truncate the longer operand and compare a prefix
    a, b = CycloPoly.root(8, 1), CycloPoly.root(8, 3)
    for A, B in (([[a], [b]], [[a]]), ([[a]], [[a], [b]]), ([[a, b]], [[a]]),
                 ([[a], [b]], [[a, b]])):
        with pytest.raises(ValueError):
            cyclo_equal(A, B)
        with pytest.raises(ValueError):
            cyclo_add(A, B)
    # empty operands have equal shapes and nothing to compare
    assert cyclo_equal([], []) and cyclo_equal([[]], [[]]) and cyclo_is_zero([])


def test_cyclopoly_matches_float_value():
    z = CycloPoly.root(12, 5, coeff=Fraction(3, 7))
    want = Fraction(3, 7) * 1.0 * cmath.exp(-2j * cmath.pi * 5 / 12)
    assert abs(z.to_complex() - complex(want)) < 1e-12


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


# ---------------------------------------------------------------------------
# integer kernels of the exact layer, against the dict-of-Fraction
# algorithms they replaced, kept here as oracles

# every ring order exact_ring_order produces for n <= 15 (multiples of 8
# up to 120), and 105, the least order whose table holds a 2
TABLE_ORDERS = list(range(8, 121, 8)) + [105]


def long_division_remainder(p):
    """Remainder of p modulo Phi_order by dense Fraction long division."""
    phi = cyclotomic_polynomial(p.order)
    deg = len(phi) - 1
    dense = [Fraction(0)] * p.order
    for e, c in p.coeffs.items():
        dense[e] += c
    for pos in range(p.order - 1, deg - 1, -1):
        c = dense[pos]
        if c:
            dense[pos] = Fraction(0)
            for i in range(deg):
                dense[pos - deg + i] -= c * phi[i]
    return tuple(dense[:deg])


def naive_matmul(A, B):
    """Entrywise sums of products of {exponent: Fraction} dicts."""
    m = A[0][0].order
    out = []
    for row in A:
        out_row = []
        for j in range(len(B[0])):
            acc = {}
            for a, brow in zip(row, B):
                for e1, c1 in a.coeffs.items():
                    for e2, c2 in brow[j].coeffs.items():
                        e = (e1 + e2) % m
                        acc[e] = acc.get(e, Fraction(0)) + c1 * c2
            out_row.append({e: c for e, c in acc.items() if c})
        out.append(out_row)
    return out


def random_cyclo_matrix(m, rows, cols, scale=1):
    """Entries of up to five terms, exponents in range(2m), numerators up
    to about 20 * scale and denominators up to 12."""
    def num():
        return int(rng.integers(-20, 21)) * scale + int(rng.integers(-20, 21))

    return [[CycloPoly(m, {int(rng.integers(0, 2 * m)): Fraction(num(), int(rng.integers(1, 13)))
                           for _ in range(int(rng.integers(0, 6)))})
             for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("m", TABLE_ORDERS)
def test_reduction_table_rows_are_long_division_remainders(m):
    table = _reduction_array(m)[0]
    assert len(table) == m
    for e, row in enumerate(table.tolist()):
        assert tuple(row) == long_division_remainder(CycloPoly.root(m, e))
    assert max(abs(c) for row in table for c in row) == (2 if m == 105 else 1)


@pytest.mark.parametrize("m", [8, 24, 56, 105, 120])
def test_reduced_and_is_zero_match_long_division(m):
    for _ in range(40):
        p = random_cyclo_matrix(m, 1, 1, scale=1 << 70)[0][0]
        want = long_division_remainder(p)
        assert p.reduced() == want
        assert p.is_zero() == (not any(want))


def test_is_zero_sees_relations_of_the_field():
    # 1 + zeta^(m/2) and 1 + zeta^(m/3) + zeta^(2m/3) vanish in Q(zeta_m)
    # although no coefficient of them does
    m = 120
    assert CycloPoly(m, {0: Fraction(1), 60: Fraction(1)}).is_zero()
    assert CycloPoly(m, {7: Fraction(3, 5), 47: Fraction(3, 5), 87: Fraction(3, 5)}).is_zero()
    assert not CycloPoly(m, {7: Fraction(3, 5), 47: Fraction(3, 5), 87: Fraction(3, 4)}).is_zero()


@pytest.mark.parametrize("m", [8, 24, 56, 105, 120])
def test_cyclo_matmul_matches_naive_product(m):
    for rows, k, cols in ((1, 1, 1), (2, 3, 4), (5, 2, 1), (3, 4, 3)):
        A = random_cyclo_matrix(m, rows, k)
        B = random_cyclo_matrix(m, k, cols)
        C = cyclo_matmul(A, B)
        assert all(x.order == m for row in C for x in row)
        assert [[x.coeffs for x in row] for row in C] == naive_matmul(A, B)


def test_cyclo_matmul_is_exact_past_int64():
    # numerators of 2^40 give product coefficients past 2^79, which no
    # int64 holds, so a correct product came from the exact-int path;
    # one entry of 2^70 does not fit int64 even before the product
    m = 24
    A = random_cyclo_matrix(m, 3, 2, scale=1 << 40)
    B = random_cyclo_matrix(m, 2, 3, scale=1 << 40)
    A[0][0] = CycloPoly(m, {1: Fraction(1 << 40, 7)})
    B[0][0] = CycloPoly(m, {2: Fraction(-(1 << 40), 5)})
    B[1][2] = CycloPoly(m, {3: Fraction(1 << 70, 11), 30: Fraction(1, 3)})
    want = naive_matmul(A, B)
    assert max(abs(c.numerator) for row in want for d in row for c in d.values()) > 1 << 79
    assert [[x.coeffs for x in row] for row in cyclo_matmul(A, B)] == want


def test_cyclo_matmul_int64_bound_counts_the_inner_size_and_order():
    # every coefficient of A and B is 2^29 and every exponent is present,
    # so each product coefficient is k * m * 2^58 = 2^63 with k = 4 and
    # m = 8: past int64, although max|A| * max|B| times k or m alone is not
    m, k = 8, 4
    full = CycloPoly(m, {e: Fraction(1 << 29) for e in range(m)})
    A = [[full] * k]
    B = [[full] for _ in range(k)]
    C = cyclo_matmul(A, B)
    assert C[0][0].coeffs == {e: Fraction(1 << 63) for e in range(m)}
    assert [[x.coeffs for x in row] for row in C] == naive_matmul(A, B)


@pytest.mark.parametrize("past", [False, True])
def test_cyclo_matmul_float64_bound_is_2_53(past):
    # A holds a at every exponent of both entries except one, which holds
    # a - 1, and B holds b everywhere, so every product coefficient sums
    # k * m terms to b * (k * m * a - 1), an odd integer.  Past 2^53 (no
    # double holds it) the bound k * m * a * b is under 2^54 and picks
    # int64; just under 2^53 it picks float64
    m, k = 8, 2
    kma, b = (1 << 27, (1 << 26) + 1) if past else (1 << 30, (1 << 23) - 1)
    a = kma // (k * m)
    coef = b * (kma - 1)
    assert coef % 2 == 1 and (coef > 1 << 53) == past and abs(coef - (1 << 53)) < 1 << 31
    A = [[CycloPoly(m, {e: Fraction(a - (e == 0)) for e in range(m)}),
          CycloPoly(m, {e: Fraction(a) for e in range(m)})]]
    B = [[CycloPoly(m, {e: Fraction(b) for e in range(m)})] for _ in range(k)]
    C = cyclo_matmul(A, B)
    assert C[0][0].coeffs == {e: Fraction(coef) for e in range(m)}
    assert [[x.coeffs for x in row] for row in C] == naive_matmul(A, B)
    assert _exact_dtype(a, b, k * m) is (np.int64 if past else np.float64)


def test_cyclo_matmul_stores_a_big_entry_beside_a_zero_operand():
    # max|A| * max|B| is 0, but 2^70 fits neither int64 nor a double, and
    # 2^53 + 1 fits int64 and no double
    for c in (1 << 70, (1 << 53) + 1):
        big, zero = [[CycloPoly(8, {0: Fraction(c)})]], [[CycloPoly(8)]]
        for A, B in ((big, zero), (zero, big)):
            assert [[x.coeffs for x in row] for row in cyclo_matmul(A, B)] == [[{}]]
    assert _exact_dtype(1 << 70, 0, 8) is object
    assert _exact_dtype(0, (1 << 53) + 1, 8) is np.int64


def test_cyclo_matmul_rejects_mismatched_operands():
    A = random_cyclo_matrix(8, 2, 3)
    with pytest.raises(ValueError):
        cyclo_matmul(A, random_cyclo_matrix(8, 2, 2))
    with pytest.raises(ValueError):
        cyclo_matmul(A, random_cyclo_matrix(16, 3, 2))


def test_cyclo_arithmetic_rejects_ragged_matrices():
    # a short row used to act as though it ended in zeros, and cyclo_equal
    # keyed positions by the first row's length, so rows could overlap
    x = CycloPoly.root(8, 1)
    for A, B in (([[x, x], [x]], [[x], [x]]), ([[x, x]], [[x], [x, x]])):
        with pytest.raises(ValueError, match="ragged"):
            cyclo_matmul(A, B)
    with pytest.raises(ValueError, match="ragged"):
        cyclo_equal([[x, x], [x]], [[x, x], [x]])
    with pytest.raises(ValueError, match="ragged"):
        cyclo_is_zero([[x], [x, -x]])


def repeated_value_matrix(gen, m, rows, cols, scale):
    """Entries of up to four terms whose coefficients come from a set of
    six values, scale times +-1/3, +-1/2, 1 and -2; scaled to integers,
    the largest |coefficient| lies between scale and 12 * scale."""
    values = [Fraction(c * scale) for c in (Fraction(1, 3), Fraction(-1, 3), Fraction(1, 2),
                                            Fraction(-1, 2), 1, -2)]
    return [[CycloPoly(m, {int(gen.integers(0, m)): values[int(gen.integers(0, 6))]
                           for _ in range(int(gen.integers(0, 5)))})
             for _ in range(cols)] for _ in range(rows)]


# with k * m = 120, the middle scale puts the tier bound between 2^54 and
# 2^61.3 whatever the draw
@pytest.mark.parametrize("scale, tier", [(1, np.float64), (3 << 22, np.int64),
                                         (1 << 40, object)])
def test_cyclo_matmul_with_repeated_values_matches_naive_product(scale, tier):
    gen = np.random.default_rng(scale)
    m, rows, k, cols = 24, 4, 5, 3
    A = repeated_value_matrix(gen, m, rows, k, scale)
    B = repeated_value_matrix(gen, m, k, cols, scale)
    a_max, b_max = (max(map(abs, _scaled_entries(M, m)[0].values())) for M in (A, B))
    assert _exact_dtype(a_max, b_max, k * m) is tier
    C = cyclo_matmul(A, B)
    assert [[x.coeffs for x in row] for row in C] == naive_matmul(A, B)
    # equal coefficients are one shared Fraction
    coeffs = [c for row in C for x in row for c in x.coeffs.values()]
    assert len(coeffs) > 2 * len(set(coeffs))
    assert len({id(c) for c in coeffs}) == len(set(coeffs))


def test_cyclo_matmul_entries_own_their_coefficient_dicts():
    m, gen = 8, np.random.default_rng(8)
    A, B = repeated_value_matrix(gen, m, 3, 3, 1), repeated_value_matrix(gen, m, 3, 3, 1)
    C = cyclo_matmul(A, B)
    want = naive_matmul(A, B)
    assert len({id(x.coeffs) for row in C for x in row}) == 9
    C[0][0].coeffs.clear()
    C[1][2].coeffs[5] = Fraction(7)
    want[0][0], want[1][2] = {}, {**want[1][2], 5: Fraction(7)}
    assert [[x.coeffs for x in row] for row in C] == want


def test_cyclo_matmul_with_an_all_zero_operand():
    m = 24
    zero = [[CycloPoly(m) for _ in range(3)] for _ in range(2)]
    for A, B, shape in ((zero, random_cyclo_matrix(m, 3, 4), (2, 4)),
                        (random_cyclo_matrix(m, 4, 2), zero, (4, 3))):
        C = cyclo_matmul(A, B)
        assert [[x.coeffs for x in row] for row in C] == [[{}] * shape[1]] * shape[0]
        assert all(x.order == m for row in C for x in row)
        assert cyclo_is_zero(C)


def test_cyclopoly_times_a_numpy_integer():
    x = CycloPoly(8, {1: Fraction(3, 4), 5: Fraction(-1)})
    y = x * np.int64(2)
    assert y.coeffs == {1: Fraction(3, 2), 5: Fraction(-2)}
    assert all(type(c.numerator) is int for c in y.coeffs.values())


def test_cyclopoly_times_a_float_is_a_type_error():
    x = CycloPoly.root(8, 1)
    with pytest.raises(TypeError):
        x * 2.5
    with pytest.raises(TypeError):
        2.5 * x


def test_cyclopoly_plus_an_integer():
    x = CycloPoly.root(8, 1)
    assert (x + 1).coeffs == {1: Fraction(1), 0: Fraction(1)}
    assert x + 1 == x - (-1) == x + Fraction(2, 2)
    assert (x - np.int64(1)).coeffs == {1: Fraction(1), 0: Fraction(-1)}
    with pytest.raises(TypeError):
        x + "1"


def test_cyclopoly_reflected_add_and_subtract():
    x = CycloPoly.root(8, 1)
    y = CycloPoly(8, {3: Fraction(1, 2)})
    assert (1 + x).coeffs == (x + 1).coeffs == {1: Fraction(1), 0: Fraction(1)}
    assert (1 - x).coeffs == {0: Fraction(1), 1: Fraction(-1)}
    assert (Fraction(1, 3) - y).coeffs == {0: Fraction(1, 3), 3: Fraction(-1, 2)}
    assert sum([x, y]).coeffs == (x + y).coeffs
    assert (np.int64(2) - x).coeffs == {0: Fraction(2), 1: Fraction(-1)}
    with pytest.raises(TypeError):
        "1" + x
    with pytest.raises(TypeError):
        2.5 - x


def test_exact_checks_reject_broken_projectors():
    # n = 15, projective flavor: the ring order is 120
    n, m = 15, 120
    P0 = nega_cyclotomic_idempotent_exact(n, RootIndex(2 * n, 1), m)
    P1 = nega_cyclotomic_idempotent_exact(n, RootIndex(2 * n, 3), m)
    assert cyclo_equal(cyclo_matmul(P0, P0), P0)
    assert cyclo_is_zero(cyclo_matmul(P0, P1))
    assert not cyclo_is_zero(cyclo_matmul(P0, P0))
    broken = [row[:] for row in P0]
    broken[2][5] = broken[2][5] + CycloPoly.root(m, 8, Fraction(1, n * n))
    assert not cyclo_equal(cyclo_matmul(broken, broken), broken)
    # adding 1 + zeta^60 = 0 changes the dict, not the element
    same = [row[:] for row in P0]
    same[2][5] = same[2][5] + CycloPoly(m, {0: Fraction(1), 60: Fraction(1)})
    assert cyclo_equal(cyclo_matmul(same, same), P0)


def vanishing_element(m, scale=1):
    """Rational multiples of x**k * Phi_m(x): zero in Q(zeta_m), although
    their coefficients are not."""
    phi = cyclotomic_polynomial(m)
    out = {}
    for _ in range(int(rng.integers(1, 3))):
        k = int(rng.integers(0, m))
        c = Fraction(int(rng.integers(1, 21)) * scale, int(rng.integers(1, 13)))
        for i, p in enumerate(phi):
            out[(k + i) % m] = out.get((k + i) % m, Fraction(0)) + c * p
    return CycloPoly(m, out)


def check_against_long_division(m, scale=1):
    """Zero and equality tests of whole matrices, and reduced()/is_zero()
    of their entries, against long division: on a random matrix A, a
    matrix Z of vanishing elements, B = A + Z, and B with one entry
    moved by a nonzero element."""
    A = random_cyclo_matrix(m, 3, 4, scale)
    Z = [[vanishing_element(m, scale) for _ in range(4)] for _ in range(3)]
    B = [[a + z for a, z in zip(ra, rz)] for ra, rz in zip(A, Z)]
    moved = [row[:] for row in B]
    moved[2][1] = moved[2][1] + CycloPoly.root(m, int(rng.integers(0, m)), Fraction(1, 7))
    mats = {"A": A, "Z": Z, "B": B, "moved": moved}
    want = {}
    for name, M in mats.items():
        want[name] = [[long_division_remainder(x) for x in row] for row in M]
        assert [[x.reduced() for x in row] for row in M] == want[name]
        assert ([[x.is_zero() for x in row] for row in M]
                == [[not any(r) for r in row] for row in want[name]])
        assert cyclo_is_zero(M) == (not any(any(r) for row in want[name] for r in row))
    for x, y in (("A", "B"), ("B", "A"), ("A", "moved"), ("moved", "B"), ("A", "A")):
        assert cyclo_equal(mats[x], mats[y]) == (want[x] == want[y])
    # both verdicts occur, so the comparisons above are not vacuous
    assert cyclo_is_zero(Z) and cyclo_equal(A, B) and cyclo_equal(B, A)
    assert not cyclo_equal(A, moved) and not cyclo_is_zero(moved)


@pytest.mark.parametrize("m", TABLE_ORDERS)
def test_matrix_reduction_matches_long_division(m):
    check_against_long_division(m)


def test_matrix_reduction_is_exact_past_int64():
    # coefficients of 2^70 do not fit int64 at all
    for m in (24, 105):
        check_against_long_division(m, scale=1 << 70)
    # coefficients of 2^58 fit int64, but the remainder does not: with the
    # signs of column k of the table, coefficient k of the remainder is
    # 2^58 times that column's absolute sum, which is at least 32 at m = 105
    m = 105
    R = _reduction_array(m)[0]
    k = int(np.argmax(np.abs(R).sum(axis=0)))
    assert np.abs(R[:, k]).sum() >= 32
    p = CycloPoly(m, {e: Fraction(int(np.sign(R[e, k])) << 58) for e in range(m) if R[e, k]})
    want = long_division_remainder(p)
    assert abs(want[k]) >= 1 << 63
    assert p.reduced() == want
    assert not p.is_zero() and not cyclo_is_zero([[p]])
    assert cyclo_equal([[p]], [[CycloPoly(m, {i: c for i, c in enumerate(want)})]])


def test_matrix_reduction_int64_bound_counts_the_table_entries():
    # at m = 105 the table holds a 2, so a coefficient c with c * m just
    # under 2^62 gives a bound c * 2 * m past it: exact Python ints
    m = 105
    c = ((1 << 62) - 1) // m
    assert max(abs(x) for row in _reduction_array(m)[0].tolist() for x in row) == 2
    assert _reduce({0: c}, 1, m).dtype == object
    assert _reduce({0: c // 2}, 1, m).dtype == np.int64


@pytest.mark.parametrize("m", [2, 6])
@pytest.mark.parametrize("past", [False, True])
def test_matrix_reduction_float64_bound_is_2_53(m, past):
    # coefficient 0 of the remainder is the sum of p[e] * R[e, 0]; p[e] is
    # x with the sign of R[e, 0], one of them x - 1, so it is the odd
    # integer |R[:, 0]|.sum() * x - 1, a partial sum of the product as well.
    # At m = 2 (Phi = x + 1) and m = 6 (Phi = x^2 - x + 1) that column sum
    # is 2 and 4 of m, so it passes 2^53 while the bound m * x is under
    # 2^54 and picks int64; with the largest x the float64 tier takes it
    # stays under (2^53 - 3 at m = 2)
    R = _reduction_array(m)[0]
    col = int(np.abs(R[:, 0]).sum())
    x = (1 << 53) // col + 1 if past else ((1 << 53) - 1) // m
    support = [e for e in range(m) if R[e, 0]]
    p = CycloPoly(m, {e: Fraction(int(np.sign(R[e, 0])) * (x - (e == support[-1])))
                      for e in support})
    want = long_division_remainder(p)
    assert want[0] == col * x - 1 and want[0] % 2 == 1 and (want[0] > 1 << 53) == past
    assert p.reduced() == want
    got = _reduce({e: int(c) for e, c in p.coeffs.items()}, 1, m)
    assert got.dtype == np.int64 and tuple(got[0].tolist()) == want
    assert not p.is_zero()
    assert cyclo_equal([[p]], [[CycloPoly(m, dict(enumerate(want)))]])
    assert _exact_dtype(x, 1, m) is (np.int64 if past else np.float64)
