"""Independent builders of the tight idempotent X = sum_z C_z (x) K_z,
kept as oracles for tight_idempotent_exact (which forms X as one
cyclo_matmul).

kron_tight_idempotent(partition, pairs) adds np.kron(C_z, K_z) into a
float X one root at a time, with no check of the pairs, from its own float
projectors (float_projector).  It shares nothing with the library beyond
the partition.

per_entry_tight_idempotent_exact(partition, exact_pairs) adds
coef * K_z[i][j] into X[bi n + i][bj n + j] with CycloPoly arithmetic,
one root, one block entry and one projector entry at a time.  It shares
with the engine only the partition, the root order, the ring order and
the exact projectors; its sums never touch the packed integer kernel.
"""

import numpy as np

from skewframes.algebra import CycloPoly
from skewframes.frames import DihedralFlavor
from skewframes.grambuild import _by_index, _projector, exact_ring_order


def float_projector(n, z, flavor):
    """(1/n) zeta^(j - i) (strict) or zeta^(i - j) (projective) at (i, j),
    zeta = exp(-2 pi i index / order) for the root z."""
    j = np.arange(n)
    d = j[None, :] - j[:, None]
    if flavor is DihedralFlavor.PROJECTIVE:
        d = -d
    return np.exp(-2j * np.pi * z.index * d / z.order) / n


def kron_tight_idempotent(partition, pairs):
    """Float matrix of X = sum_z C_z (x) K_z, one Kronecker product per root."""
    n, flavor = partition.n, partition.flavor
    X = np.zeros((2 * n, 2 * n), dtype=complex)
    for z in partition.mixed:
        u, v = pairs[z]
        C = [[u * np.conj(u), u * np.conj(v)], [v * np.conj(u), v * np.conj(v)]]
        X += np.kron(C, float_projector(n, z, flavor))
    for z in partition.full:
        X += np.kron(np.eye(2), float_projector(n, z, flavor))
    return X


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
