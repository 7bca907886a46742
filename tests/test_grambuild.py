"""Tests for the spectral Gram-matrix builder.

Frozen facts used as oracles:
- the strict root set for n = 4 is {1, i, -1, -i} as RootIndex(4, k);
- the projective root set for n = 2 is {zeta_4, zeta_4^3} = {-i, i};
- an all-mixed partition yields a regular Gram matrix, any full/empty
  roots break regularity;
- the built X = G/2 is a rank-n self-adjoint idempotent for every valid
  pair assignment, and the real part of the upper-left block does not
  depend on the pairs at all.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from grambuild_oracle import (
    float_projector,
    kron_tight_idempotent,
    per_entry_tight_idempotent_exact,
)
from skewframes.algebra import CycloPoly, RootIndex, cyclo_equal, cyclo_identity, cyclo_matmul
from skewframes.frames import DihedralFlavor, GramMatrix, analyze_gram_structure
from skewframes.grambuild import (
    InvalidPairsError,
    InvalidPartitionError,
    SpectralPartition,
    exact_pair_from_rationals,
    exact_ring_order,
    full_root_set,
    is_regular_gram,
    random_exact_pairs,
    tight_idempotent_exact,
)

STRICT = DihedralFlavor.STRICT
PROJECTIVE = DihedralFlavor.PROJECTIVE


def all_mixed(n, flavor):
    return SpectralPartition(n, flavor, full_root_set(n, flavor))


def evaluate(X):
    return np.array([[x.to_complex() for x in row] for row in X])


def built_projection(part, rng):
    """X of tight_idempotent_exact on random exact pairs, evaluated entry by entry."""
    return evaluate(tight_idempotent_exact(part, random_exact_pairs(part, rng)))


# ---------------------------------------------------------------------------
# root sets and partitions


def test_full_root_set_strict():
    roots = full_root_set(4, STRICT)
    assert roots == frozenset(RootIndex(4, k) for k in range(4))
    assert len(roots) == 4


def test_full_root_set_projective_is_odd_indices():
    roots = full_root_set(2, PROJECTIVE)
    assert roots == frozenset({RootIndex(4, 1), RootIndex(4, 3)})
    # projective roots square to nontrivial n-th roots: none is an
    # n-th root of unity itself
    for z in full_root_set(3, PROJECTIVE):
        assert abs(z.value ** 3 + 1.0) < 1e-12  # 6th roots with odd index


def test_full_root_set_rejects_bad_input():
    with pytest.raises(ValueError):
        full_root_set(0, STRICT)


def test_partition_accepts_valid_split():
    # n = 4 strict: mixed {1, -1}, full {i}, empty {-i} fails closure;
    # use full {i, -i}? then empty is empty and sizes differ.  A valid
    # split needs conjugation-closed full/empty of equal size:
    # mixed {1, -1}, full {}, empty {} is not a partition of 4 roots.
    # Valid: mixed {1, -1}, full {i, -i} has no empty of equal size, so
    # the only balanced option at n = 4 keeps i, -i split impossible;
    # go to n = 5 where {z, conj z} can be full and another pair empty.
    roots = sorted(full_root_set(5, STRICT), key=lambda z: z.index)
    one, z1, z2, z3, z4 = roots  # indices 0..4; conj(z1) = z4, conj(z2) = z3
    part = SpectralPartition(5, STRICT, frozenset({one}),
                             frozenset({z1, z4}), frozenset({z2, z3}))
    assert not is_regular_gram(part)
    assert is_regular_gram(all_mixed(5, STRICT))


def test_partition_rejects_non_partition():
    roots = full_root_set(4, STRICT)
    some = frozenset(list(roots)[:2])
    with pytest.raises(InvalidPartitionError):
        SpectralPartition(4, STRICT, some)  # misses two roots
    with pytest.raises(InvalidPartitionError):
        # overlapping parts double-count
        SpectralPartition(4, STRICT, roots, roots, frozenset())
    with pytest.raises(InvalidPartitionError):
        # wrong universe entirely
        SpectralPartition(4, STRICT, full_root_set(4, PROJECTIVE))


def test_partition_rejects_unbalanced_full_empty():
    roots = sorted(full_root_set(5, STRICT), key=lambda z: z.index)
    one, z1, z2, z3, z4 = roots
    with pytest.raises(InvalidPartitionError):
        SpectralPartition(5, STRICT, frozenset({one, z2, z3}),
                          frozenset({z1, z4}), frozenset())


def test_partition_rejects_conjugation_broken_parts():
    roots = sorted(full_root_set(5, STRICT), key=lambda z: z.index)
    one, z1, z2, z3, z4 = roots
    with pytest.raises(InvalidPartitionError):
        SpectralPartition(5, STRICT, frozenset({one, z3, z4}),
                          frozenset({z1}), frozenset({z2}))


# ---------------------------------------------------------------------------
# unit pairs {root: (u, v)}, checked by the builder


def test_pairs_must_cover_exactly_the_mixed_roots():
    part = all_mixed(2, PROJECTIVE)
    one = CycloPoly.rational(exact_ring_order(part), 1)
    with pytest.raises(InvalidPairsError, match="exactly by the mixed roots"):
        tight_idempotent_exact(part, {})
    z = RootIndex(4, 1)
    extra = {z: (one, 0 * one), z.conjugate(): (0 * one, one), RootIndex(4, 0): (one, 0 * one)}
    with pytest.raises(InvalidPairsError, match="exactly by the mixed roots"):
        tight_idempotent_exact(part, extra)


def test_pairs_must_be_unit_vectors():
    part = all_mixed(2, PROJECTIVE)
    one = CycloPoly.rational(exact_ring_order(part), 1)
    z = RootIndex(4, 1)
    with pytest.raises(InvalidPairsError, match="unit vector"):
        tight_idempotent_exact(part, {z: (one, one), z.conjugate(): (one, one)})


def test_conjugate_roots_require_the_plain_swap():
    part = all_mixed(2, PROJECTIVE)
    z = RootIndex(4, 1)
    u, v = exact_pair_from_rationals(exact_ring_order(part), Fraction(1, 3), Fraction(2, 5))
    tight_idempotent_exact(part, {z: (u, v), z.conjugate(): (v, u)})  # plain swap passes
    # swapping with an extra conjugation does not
    bad = {z: (u, v), z.conjugate(): (v.conjugate(), u.conjugate())}
    with pytest.raises(InvalidPairsError, match="swapped pairs"):
        tight_idempotent_exact(part, bad)


def test_self_conjugate_roots_need_the_half_half_pair():
    part = all_mixed(1, STRICT)  # single root 1, self-conjugate
    z = RootIndex(1, 0)
    order = exact_ring_order(part)
    one, i = CycloPoly.rational(order, 1), CycloPoly.gaussian(order, 0, 1)
    r = random_exact_pairs(part, np.random.default_rng(0))[z][0]
    tight_idempotent_exact(part, {z: (r, r)})
    tight_idempotent_exact(part, {z: (r, -r)})
    with pytest.raises(InvalidPairsError, match="self-conjugate"):
        tight_idempotent_exact(part, {z: (one, 0 * one)})
    with pytest.raises(InvalidPairsError, match="self-conjugate"):
        tight_idempotent_exact(part, {z: (r, r * i)})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("flavor", [STRICT, PROJECTIVE])
def test_random_pairs_always_validate(n, flavor):
    rng = np.random.default_rng(100 * n + (flavor is STRICT))
    part = all_mixed(n, flavor)
    for _ in range(5):
        tight_idempotent_exact(part, random_exact_pairs(part, rng))


def test_conjugate_swap_pairs_break_the_block_structure():
    # The motivating fact behind the swap rule: building X with the
    # conjugated swap leaves the upper-right block visibly non-real.
    n = 2
    z = RootIndex(4, 1)
    t, s = 0.7, 1.3
    u = np.cos(t)
    v = np.exp(1j * s) * np.sin(t)

    def build(vc, uc):
        X = np.zeros((4, 4), dtype=complex)
        for w, (a, b) in [(z, (u, v)), (z.conjugate(), (vc, uc))]:
            K = float_projector(n, w, PROJECTIVE)
            X[:n, :n] += (a * np.conj(a)) * K
            X[:n, n:] += (a * np.conj(b)) * K
            X[n:, :n] += (b * np.conj(a)) * K
            X[n:, n:] += (b * np.conj(b)) * K
        return X

    plain = build(v, u)
    assert float(np.max(np.abs(plain[:n, n:].imag))) < 1e-12
    twisted = build(np.conj(v), np.conj(u))
    assert float(np.max(np.abs(twisted[:n, n:].imag))) > 0.1


# ---------------------------------------------------------------------------
# the built Gram matrix


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("flavor", [STRICT, PROJECTIVE])
def test_exact_builder_matches_the_kron_oracle(n, flavor):
    rng = np.random.default_rng(41 * n + (flavor is STRICT))
    parts = every_partition(n, flavor) if n <= 5 else [all_mixed(n, flavor)]
    for part in parts:
        pairs = random_exact_pairs(part, rng)
        X = evaluate(tight_idempotent_exact(part, pairs))
        assert X.shape == (2 * n, 2 * n)
        float_pairs = {z: (u.to_complex(), v.to_complex()) for z, (u, v) in pairs.items()}
        assert float(np.max(np.abs(X - kron_tight_idempotent(part, float_pairs)))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
@pytest.mark.parametrize("flavor", [STRICT, PROJECTIVE])
def test_built_gram_is_rank_n_projection_with_unit_diagonal(n, flavor):
    rng = np.random.default_rng(7 * n + (flavor is STRICT))
    X = built_projection(all_mixed(n, flavor), rng)
    assert float(np.max(np.abs(X @ X - X))) < 1e-10
    assert float(np.max(np.abs(X - X.conj().T))) < 1e-12
    assert abs(np.trace(X).real - n) < 1e-10
    G = GramMatrix(2.0 * X)
    assert np.allclose(np.diag(G.values), 1.0, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("flavor", [STRICT, PROJECTIVE])
def test_built_gram_carries_the_flavor_block_structure(n, flavor):
    rng = np.random.default_rng(13 * n + (flavor is STRICT))
    G = GramMatrix(2.0 * built_projection(all_mixed(n, flavor), rng))
    report = analyze_gram_structure(G)
    assert report.ambiguous or report.flavor is flavor


def test_partition_with_full_roots_is_still_a_projection():
    roots = sorted(full_root_set(5, PROJECTIVE), key=lambda z: z.index)
    # indices 1, 3, 5, 7, 9 of order 10; conj pairs (1, 9) and (3, 7);
    # index 5 is the self-conjugate root -1
    by_index = {z.index: z for z in roots}
    part = SpectralPartition(
        5, PROJECTIVE,
        frozenset({by_index[5]}),
        frozenset({by_index[1], by_index[9]}),
        frozenset({by_index[3], by_index[7]}),
    )
    X = built_projection(part, np.random.default_rng(3))
    assert float(np.max(np.abs(X @ X - X))) < 1e-10
    assert abs(np.trace(X).real - 5) < 1e-10
    assert not is_regular_gram(part)


def test_regularity_of_built_gram_matches_partition_predicate():
    # all-mixed partition -> regular Gram; a partition with full/empty
    # roots -> not regular.
    rng = np.random.default_rng(11)
    part = all_mixed(5, PROJECTIVE)
    G = GramMatrix(2.0 * built_projection(part, rng))
    cfg_free = analyze_gram_structure(G)
    assert cfg_free.flavor is PROJECTIVE or cfg_free.ambiguous
    assert is_regular_gram(part)
    A = G.values[:5, :5]
    off = ~np.eye(5, dtype=bool)
    assert float(np.max(np.abs(A[off].real))) < 1e-9

    roots = sorted(full_root_set(5, PROJECTIVE), key=lambda z: z.index)
    by_index = {z.index: z for z in roots}
    lumpy = SpectralPartition(
        5, PROJECTIVE,
        frozenset({by_index[5]}),
        frozenset({by_index[1], by_index[9]}),
        frozenset({by_index[3], by_index[7]}),
    )
    H = GramMatrix(2.0 * built_projection(lumpy, rng))
    assert not is_regular_gram(lumpy)
    A2 = H.values[:5, :5]
    assert float(np.max(np.abs(A2[off].real))) > 1e-3


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("flavor", [STRICT, PROJECTIVE])
def test_upper_block_real_part_is_pair_independent(n, flavor):
    rng = np.random.default_rng(17 * n + (flavor is STRICT))
    part = all_mixed(n, flavor)
    # the mixed roots contribute half their projector, the full roots all
    # of it, whatever the unit pairs
    A = np.zeros((n, n), dtype=complex)
    for z in part.mixed:
        A += 0.5 * float_projector(n, z, flavor)
    for z in part.full:
        A += float_projector(n, z, flavor)
    assert float(np.max(np.abs(A.imag))) < 1e-12
    predicted = 2.0 * A.real
    for _ in range(3):
        G = GramMatrix(2.0 * built_projection(part, rng))
        assert np.allclose(G.values[:n, :n].real, predicted, atol=1e-10)


# ---------------------------------------------------------------------------
# exact builder over the cyclotomic ring


def test_exact_ring_order_contains_flavor_roots_i_and_sqrt2():
    assert exact_ring_order(all_mixed(3, STRICT)) % 3 == 0
    assert exact_ring_order(all_mixed(3, STRICT)) % 8 == 0
    assert exact_ring_order(all_mixed(3, PROJECTIVE)) % 6 == 0
    assert exact_ring_order(all_mixed(4, PROJECTIVE)) == 8
    assert exact_ring_order(all_mixed(8, PROJECTIVE)) == 16  # roots of order 16


def test_exact_pair_from_rationals_is_exactly_unit():
    from fractions import Fraction

    u, v = exact_pair_from_rationals(8, Fraction(2, 3), Fraction(-1, 5))
    norm = u * u.conjugate() + v * v.conjugate()
    one = cyclo_identity(8, 1)[0][0]
    assert norm == one
    # and matches the float picture
    assert abs(abs(u.to_complex()) ** 2 + abs(v.to_complex()) ** 2 - 1.0) < 1e-12


@pytest.mark.parametrize("n,flavor", [
    (1, STRICT), (2, STRICT), (3, STRICT), (4, STRICT),
    (1, PROJECTIVE), (2, PROJECTIVE), (3, PROJECTIVE),
])
def test_exact_idempotent_squares_to_itself(n, flavor):
    rng = np.random.default_rng(29 * n + (flavor is STRICT))
    part = all_mixed(n, flavor)
    pairs = random_exact_pairs(part, rng)
    X = tight_idempotent_exact(part, pairs)
    assert cyclo_equal(cyclo_matmul(X, X), X)


def every_partition(n, flavor):
    """Every valid partition: each conjugation orbit of roots goes to
    mixed, full or empty, with as many full roots as empty ones."""
    orbits = {frozenset({z, z.conjugate()}) for z in full_root_set(n, flavor)}
    orbits = sorted(orbits, key=lambda o: min((z.order, z.index) for z in o))
    out = []
    for labels in product(range(3), repeat=len(orbits)):
        parts = [frozenset().union(*(o for o, l in zip(orbits, labels) if l == k))
                 for k in range(3)]
        if len(parts[1]) == len(parts[2]):
            out.append(SpectralPartition(n, flavor, *parts))
    return out


@pytest.mark.parametrize("flavor", [STRICT, PROJECTIVE])
def test_every_partition_has_each_kind_by_n_5(flavor):
    # all roots mixed, some mixed and some full (n = 4 strict and n = 5),
    # and no mixed root (n = 2 strict and n = 4)
    parts = [p for n in range(1, 6) for p in every_partition(n, flavor)]
    assert {(bool(p.mixed), bool(p.full)) for p in parts} == {(True, False), (True, True),
                                                              (False, True)}
    assert all(is_regular_gram(p) == (not p.full) for p in parts)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("flavor", [STRICT, PROJECTIVE])
def test_exact_builder_matches_the_per_entry_oracle(n, flavor):
    parts = every_partition(n, flavor)
    for seed in range(4):
        rng = np.random.default_rng(1000 * seed + 10 * n + (flavor is STRICT))
        for part in parts:
            pairs = random_exact_pairs(part, rng)
            X = tight_idempotent_exact(part, pairs)
            want = per_entry_tight_idempotent_exact(part, pairs)
            assert [[(x.order, x.coeffs) for x in row] for row in X] == \
                [[(x.order, x.coeffs) for x in row] for row in want]


def test_exact_builder_with_no_mixed_root():
    # n = 2 strict: the real roots 1 and -1 are full and empty, so X is
    # I_2 (x) K_1 and every block entry is 0 or the projector's 1/2
    roots = sorted(full_root_set(2, STRICT), key=lambda z: z.index)
    part = SpectralPartition(2, STRICT, frozenset(), frozenset(roots[:1]),
                             frozenset(roots[1:]))
    X = tight_idempotent_exact(part, {})
    half = {0: Fraction(1, 2)}
    assert [[x.coeffs for x in row] for row in X] == [
        [half, half, {}, {}], [half, half, {}, {}], [{}, {}, half, half], [{}, {}, half, half]]
    assert [[x.coeffs for x in row] for row in X] == \
        [[x.coeffs for x in row] for row in per_entry_tight_idempotent_exact(part, {})]


# n = 3 projective: the roots zeta_6, zeta_6^5 and the self-conjugate -1
Z1, MINUS_ONE, Z5 = RootIndex(6, 1), RootIndex(6, 3), RootIndex(6, 5)


def exact_pairs_with(part, changes):
    """Exact pairs for the n = 3 projective part, over exact_ring_order,
    with each root in changes set to pair(one, r, i), r = 1/sqrt(2); a
    pair of None drops the root."""
    order = exact_ring_order(part)
    pairs = random_exact_pairs(part, np.random.default_rng(5))
    one = CycloPoly.rational(order, 1)
    r, i = pairs[MINUS_ONE][0], CycloPoly.gaussian(order, 0, 1)
    for z, pair in changes.items():
        if pair is None:
            del pairs[z]
        else:
            pairs[z] = pair(one, r, i)
    return pairs


@pytest.mark.parametrize("changes,message", [
    ({Z1: None}, "exactly by the mixed roots"),
    ({RootIndex(2, 1): lambda one, r, i: (one, 0 * one)}, "exactly by the mixed roots"),
    # ((1 + i)/2, 1/2) and its swap: |u|^2 + |v|^2 = 3/4
    ({Z1: lambda one, r, i: (Fraction(1, 2) * (1 + i), Fraction(1, 2) * one),
      Z5: lambda one, r, i: (Fraction(1, 2) * one, Fraction(1, 2) * (1 + i))}, "unit vector"),
    # unit pairs, but the conjugate root repeats (u, v) instead of swapping
    ({Z1: lambda one, r, i: (Fraction(3, 5) * one, Fraction(4, 5) * i),
      Z5: lambda one, r, i: (Fraction(3, 5) * one, Fraction(4, 5) * i)}, "swapped pairs"),
    # unit pairs at -1 other than (r, +-r): v * v = -1/2, or u != r
    ({MINUS_ONE: lambda one, r, i: (one, 0 * one)}, "self-conjugate"),
    ({MINUS_ONE: lambda one, r, i: (r, r * i)}, "self-conjugate"),
    ({MINUS_ONE: lambda one, r, i: (-r, r)}, "self-conjugate"),
    ({MINUS_ONE: lambda one, r, i: (r * i, r)}, "self-conjugate"),
    # the swap conjugated, (conj v, conj u) = (-4i/5, 3/5), breaks the block structure
    ({Z1: lambda one, r, i: (Fraction(3, 5) * one, Fraction(4, 5) * i),
      Z5: lambda one, r, i: (Fraction(-4, 5) * i, Fraction(3, 5) * one)}, "swapped pairs"),
])
def test_exact_builder_rejects_invalid_pairs(changes, message):
    part = all_mixed(3, PROJECTIVE)
    tight_idempotent_exact(part, exact_pairs_with(part, {}))
    tight_idempotent_exact(part, exact_pairs_with(part, {MINUS_ONE: lambda one, r, i: (r, -r)}))
    with pytest.raises(InvalidPairsError, match=message):
        tight_idempotent_exact(part, exact_pairs_with(part, changes))
