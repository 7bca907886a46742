"""Brute-force enumeration of two-negacirculant solutions, kept as an
independent oracle for the profile sweep of search.enumerate at small n.

brute_force_enumerate(n) tests every admissible a against every
canonical b directly with the defining identity P P^T + Q Q^T == 2n I.
It shares with the engine only the admissible a rows, the sign codec,
the canonical shift and assemble.  canonicalize_b, the orbit
representative it filters b by, lives here: only the tests call it.
"""

import numpy as np

from skewframes.hadamard import _unpack, assemble, hex_encode
from skewframes.search import _admissible_a, _canonical_shift


def canonicalize_b(b) -> tuple:
    """Representative of the orbit of b under sign-twisted rotations and
    negation: the encoding-maximal member."""
    return _canonical_shift(b)[0]


def brute_force_enumerate(n: int):
    """Sorted (a, b) pairs with canonical b that satisfy the identity."""
    if n < 2 or n % 2 != 0:
        raise ValueError("even n >= 2 only")
    out = []
    eye = 2 * n * np.eye(n, dtype=np.int64)
    for a_enc in _admissible_a(n).tolist():
        a = _unpack(a_enc, n)
        for b_enc in range(1 << n):
            b = _unpack(b_enc, n)
            if canonicalize_b(b) != b:
                continue
            H = assemble(a, b)
            PP = H[:n, :n] @ H[:n, :n].T + H[:n, n:] @ H[:n, n:].T
            if np.array_equal(PP, eye):
                out.append((a, b))
    out.sort(key=lambda p: (hex_encode(p[0]), hex_encode(p[1])))
    return out
