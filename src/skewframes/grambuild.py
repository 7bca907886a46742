"""Building 2n x 2n tight Gram matrices exactly from spectral data.

The Gram matrices of the dihedral-orbit ETFs in this package are, up to
the factor 2, self-adjoint idempotents that decompose over the spectral
projectors of the circulant (strict flavor) or negacirculant
(projective flavor) algebra:

    X = sum over mixed roots z of [[|u|^2, u conj(v)], [v conj(u), |v|^2]] (x) K_z
      + sum over full roots z of I_2 (x) K_z

where K_z is the rank-one projector attached to the root z, (x) is the
Kronecker product with the 2 x 2 coefficient matrix on the outside, and
(u, v) = pairs[z] is a unit vector in C^2.  The roots split into three
conjugation-closed sets: "mixed" roots carry a rank-one 2 x 2 block,
"full" roots carry the identity, "empty" roots carry zero.  X is then a
rank-n orthogonal projection for any unit pairs, and G = 2 X is a Gram
matrix.

For G to carry the dihedral block pattern [[A, B], [B^T, A^T]] with B
real, the pairs cannot be independent across conjugate roots: the pair
at the conjugate root must be the swap (v, u) of the pair (u, v), and
self-conjugate roots must use u = 1/sqrt(2), v = +-1/sqrt(2).

tight_idempotent_exact builds X exactly, over Q(zeta_m) with m =
exact_ring_order(partition).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Tuple

from .algebra import (
    CycloPoly,
    RootIndex,
    cyclo_equal,
    cyclo_matmul,
    cyclotomic_idempotent_exact,
    lcm,
    nega_cyclotomic_idempotent_exact,
)
from .frames import DihedralFlavor, flavor_roots


class InvalidPartitionError(ValueError):
    pass


class InvalidPairsError(ValueError):
    pass


def full_root_set(n: int, flavor: DihedralFlavor) -> frozenset:
    """The n roots indexing the projector system: frames.flavor_roots
    as a set."""
    return frozenset(flavor_roots(n, flavor))


def _by_index(roots):
    return sorted(roots, key=lambda w: (w.order, w.index))


def _conjugation_closed(s) -> bool:
    return all(z.conjugate() in s for z in s)


@dataclass(frozen=True)
class SpectralPartition:
    """Disjoint conjugation-closed split of the flavor's root set into
    mixed / full / empty parts with len(full) == len(empty)."""

    n: int
    flavor: DihedralFlavor
    mixed: FrozenSet[RootIndex]
    full: FrozenSet[RootIndex] = frozenset()
    empty: FrozenSet[RootIndex] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "mixed", frozenset(self.mixed))
        object.__setattr__(self, "full", frozenset(self.full))
        object.__setattr__(self, "empty", frozenset(self.empty))
        universe = full_root_set(self.n, self.flavor)
        parts = (self.mixed, self.full, self.empty)
        if sum(len(p) for p in parts) != len(universe) or \
                frozenset().union(*parts) != universe:
            raise InvalidPartitionError("parts must partition the root set")
        if len(self.full) != len(self.empty):
            raise InvalidPartitionError("full and empty parts must have equal size")
        for p in parts:
            if not _conjugation_closed(p):
                raise InvalidPartitionError("parts must be closed under conjugation")


def is_regular_gram(partition: SpectralPartition) -> bool:
    """The built Gram matrix is regular exactly when every root is mixed."""
    return len(partition.mixed) == partition.n


def _projector(n: int, zeta: RootIndex, flavor: DihedralFlavor, order: int):
    """The rank-one projector K_zeta of the flavor's algebra (circulant
    for strict, negacirculant for projective) as CycloPoly entries over
    Q(zeta_order)."""
    if flavor is DihedralFlavor.STRICT:
        return cyclotomic_idempotent_exact(n, zeta, ring_order=order)
    return nega_cyclotomic_idempotent_exact(n, zeta, ring_order=order)


def _blocks(partition: SpectralPartition, pairs, order: int) -> dict:
    """The four entries of each root's 2 x 2 coefficient block C_z, row by
    row: the roots of pairs (the mixed roots, once _check_pairs passes),
    then the full roots, each in index order."""
    one, zero = CycloPoly.rational(order, 1), CycloPoly(order)
    blocks = {}
    for z in _by_index(pairs):
        u, v = pairs[z]
        uc, vc = u.conjugate(), v.conjugate()
        blocks[z] = (u * uc, u * vc, v * uc, v * vc)
    for z in _by_index(partition.full):
        blocks[z] = (one, zero, zero, one)
    return blocks


def _check_pairs(partition: SpectralPartition, pairs, blocks: dict, order: int):
    """Raise InvalidPairsError unless the pairs {root: (u, v)} meet the
    conditions of the module docstring; |u|^2 + |v|^2 is read off the
    diagonal of C_z.  One cyclo_equal tests every condition at once; only
    on failure is each condition tested alone, to name the broken one."""
    if set(pairs) != set(partition.mixed):
        raise InvalidPairsError("pairs must be indexed exactly by the mixed roots")
    r = _exact_inv_sqrt2(order)
    half = r * r
    checks = {"each pair must be a unit vector in C^2": [],
              "self-conjugate roots need u = 1/sqrt(2), v = +-1/sqrt(2)": [],
              "conjugate roots must carry swapped pairs": []}
    unit, real, swap = checks.values()
    for z, (u, v) in pairs.items():
        unit.append((blocks[z][0] + blocks[z][3], half + half))
        if z.is_real():  # v * v = r * r: v is +-r
            real += [(u, r), (v * v, half)]
        else:
            swap += zip(pairs[z.conjugate()], (v, u))

    def equal(xy):
        return cyclo_equal([[x for x, _ in xy]], [[y for _, y in xy]])
    if not equal(unit + real + swap):
        raise InvalidPairsError(next(m for m, xy in checks.items() if not equal(xy)))


def exact_ring_order(partition: SpectralPartition) -> int:
    """Smallest cyclotomic order containing the projector entries, i,
    and 1/sqrt(2) (needed at self-conjugate roots)."""
    return lcm(flavor_roots(partition.n, partition.flavor)[0].order, 8)


def exact_pair_from_rationals(order: int, t: Fraction, s: Fraction,
                              ) -> Tuple[CycloPoly, CycloPoly]:
    """Unit pair (u, v) with u = (1-t^2)/(1+t^2) rational and
    v = 2t/(1+t^2) times the rational unimodular (1-s^2+2si)/(1+s^2);
    |u|^2 + |v|^2 == 1 holds exactly."""
    den = 1 + t * t
    u = (1 - t * t) / den
    scale = 2 * t / den
    pden = 1 + s * s
    pre = (1 - s * s) / pden
    pim = 2 * s / pden
    return (CycloPoly.gaussian(order, u, 0),
            CycloPoly.gaussian(order, scale * pre, scale * pim))


def _exact_inv_sqrt2(order: int) -> CycloPoly:
    # 1/sqrt(2) = (zeta_8 + zeta_8^7) / 2 inside Q(zeta_order), 8 | order.
    k = order // 8
    return CycloPoly(order, {k: Fraction(1, 2), 7 * k: Fraction(1, 2)})


def random_exact_pairs(partition: SpectralPartition, rng):
    """Sample valid pairs {root: (u, v)} over exact_ring_order: a unit pair
    from small random rationals on one root of each conjugate pair, swapped
    on the other, (r, +-r) with a random sign at self-conjugate roots."""
    order = exact_ring_order(partition)
    pairs = {}
    r = _exact_inv_sqrt2(order)
    for z in _by_index(partition.mixed):
        if z in pairs:
            continue
        if z.is_real():
            sign = 1 if rng.integers(0, 2) == 0 else -1
            pairs[z] = (r, r * sign)
        else:
            t = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 7)))
            s = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 7)))
            u, v = exact_pair_from_rationals(order, t, s)
            pairs[z] = (u, v)
            pairs[z.conjugate()] = (v, u)
    return pairs


def tight_idempotent_exact(partition: SpectralPartition, pairs):
    """The rank-n orthogonal projection X of the module docstring, as a
    2n x 2n CycloPoly matrix, for unit pairs {root: (u, v)} over
    exact_ring_order (as random_exact_pairs makes them).

    X = sum_z C_z (x) K_z is one cyclo_matmul: the (4 x roots) matrix of
    the block entries times the (roots x n^2) matrix of the flattened
    projectors K_z; entry (2 bi + bj, n i + j) of it is
    X[bi n + i][bj n + j]."""
    n, flavor = partition.n, partition.flavor
    order = exact_ring_order(partition)
    blocks = _blocks(partition, pairs, order)
    _check_pairs(partition, pairs, blocks, order)
    right = [[x for row in _projector(n, z, flavor, order) for x in row] for z in blocks]
    P = cyclo_matmul([list(entries) for entries in zip(*blocks.values())], right)
    return [[P[2 * bi + bj][n * i + j] for bj in range(2) for j in range(n)]
            for bi in range(2) for i in range(n)]
