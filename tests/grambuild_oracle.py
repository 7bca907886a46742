"""The entry-by-entry exact builder that tight_idempotent_exact used
before it became one cyclo_matmul, kept as an independent oracle for
tests.

per_entry_tight_idempotent_exact(partition, exact_pairs) adds
coef * K_z[i][j] into X[bi n + i][bj n + j] with CycloPoly arithmetic,
one root, one block entry and one projector entry at a time.  It shares
with the engine only the partition, the root order, the ring order and
the exact projectors; its sums never touch the packed integer kernel.
"""

from skewframes.algebra import CycloPoly
from skewframes.grambuild import _by_index, _projector, exact_ring_order


def per_entry_tight_idempotent_exact(partition, exact_pairs):
    """Exact CycloPoly matrix of X = sum_z C_z (x) K_z, summed entrywise."""
    n, flavor = partition.n, partition.flavor
    order = exact_ring_order(partition)
    zero, one = CycloPoly(order), CycloPoly.rational(order, 1)
    blocks = []  # (root, 2 x 2 coefficient block), mixed roots then full
    for z in _by_index(partition.mixed):
        u, v = exact_pairs[z]
        uc, vc = u.conjugate(), v.conjugate()
        blocks.append((z, ((u * uc, u * vc), (v * uc, v * vc))))
    blocks += [(z, ((one, zero), (zero, one))) for z in _by_index(partition.full)]
    X = [[zero] * (2 * n) for _ in range(2 * n)]
    for z, C in blocks:
        K = _projector(n, z, flavor, order)
        for bi, row in enumerate(C):
            for bj, coef in enumerate(row):
                if not coef.coeffs:
                    continue
                for i in range(n):
                    Xi, Ki = X[bi * n + i], K[i]
                    for j in range(n):
                        Xi[bj * n + j] = Xi[bj * n + j] + coef * Ki[j]
    return X
