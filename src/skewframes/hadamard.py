"""Skew Hadamard matrices, their two-negacirculant block form, and the
bridge from sign matrices to ETF Gram matrices and back.

Representations:

- Sign matrices are integer numpy arrays with entries +1/-1; all the
  predicates here are exact integer checks.
- A skew Hadamard matrix H of order m satisfies H H^T = m I and
  H + H^T = 2 I (unit diagonal, skew-symmetric off-diagonal part).
- BlockSkewHadamard holds the two defining rows (a, b) of the block
  matrix [[P, Q], [-Q^T, P^T]] with P = negacirculant(a) and
  Q = negacirculant(b).  Such a block matrix is skew Hadamard exactly
  when a[0] == 1, a[k] == a[n-k] for 0 < k < n, and
  P P^T + Q Q^T == 2n I.
- Hex encoding packs a +-1 vector of length n into ceil(n/4) hex digits
  MSB-first with +1 -> bit 1, zero-padded at the top; output uses upper
  case, input accepts either case.
"""

from __future__ import annotations

from dataclasses import dataclass
from string import hexdigits

import numpy as np

from .frames import GramMatrix
from .algebra import negacirculant


class AmbiguousEntryError(ValueError):
    """An approximate sign entry is too close to zero to round."""


@dataclass(frozen=True)
class ExactifyFailure:
    """Structured failure from exactify, naming the first violated check."""

    check: str


def _sign_matrix(H) -> np.ndarray:
    A = np.asarray(H)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError("expected a square matrix")
    if np.iscomplexobj(A):
        if np.any(A.imag != 0):
            raise ValueError("sign matrix entries must be real")
        A = A.real
    B = A.astype(np.int64)
    if np.any(B != A):
        raise ValueError("sign matrix entries must be integers")
    return B


def is_hadamard(H) -> bool:
    A = _sign_matrix(H)
    if np.any(np.abs(A) != 1):
        return False
    m = A.shape[0]
    return bool(np.array_equal(A @ A.T, m * np.eye(m, dtype=np.int64)))


def is_skew_hadamard(H) -> bool:
    A = _sign_matrix(H)
    if not is_hadamard(A):
        return False
    m = A.shape[0]
    return bool(np.array_equal(A + A.T, 2 * np.eye(m, dtype=np.int64)))


def _sign_vector(v) -> tuple:
    t = tuple(int(x) for x in v)
    if not t or any(x not in (1, -1) for x in t):
        raise ValueError("expected a non-empty +-1 vector")
    return t


def assemble(a, b) -> np.ndarray:
    """Block sign matrix [[P, Q], [-Q^T, P^T]] with P = negacirculant(a),
    Q = negacirculant(b)."""
    a, b = _sign_vector(a), _sign_vector(b)
    if len(a) != len(b):
        raise ValueError("defining rows must have equal length")
    P = negacirculant(a).real.astype(np.int64)
    Q = negacirculant(b).real.astype(np.int64)
    return np.block([[P, Q], [-Q.T, P.T]])


@dataclass(frozen=True)
class BlockSkewHadamard:
    """A verified two-negacirculant skew Hadamard matrix of order 2n."""

    n: int
    a: tuple
    b: tuple

    def __post_init__(self):
        a, b = _sign_vector(self.a), _sign_vector(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != self.n or len(b) != self.n:
            raise ValueError("defining rows must have length n")
        if a[0] != 1 or any(a[k] != a[self.n - k] for k in range(1, self.n)):
            raise ValueError("first row must be 1 followed by a palindrome")
        if not is_skew_hadamard(assemble(a, b)):
            raise ValueError("rows do not assemble to a skew Hadamard matrix")

    def matrix(self) -> np.ndarray:
        return assemble(self.a, self.b)


def _angle(m: int) -> float:
    return 1.0 / float(np.sqrt(m - 1))


def etf_gram(H) -> GramMatrix:
    """Gram matrix I + (i/sqrt(m-1)) (H - I) of a skew Hadamard matrix of
    order m = 2n with n even; every off-diagonal entry is +-i times the
    common angle 1/sqrt(m-1)."""
    A = _sign_matrix(H)
    if not is_skew_hadamard(A):
        raise ValueError("expected a skew Hadamard matrix")
    m = A.shape[0]
    if m % 4 != 0:
        raise ValueError("order must be a multiple of 4")
    S = 1j * (A - np.eye(m, dtype=np.int64))
    return GramMatrix(np.eye(m) + _angle(m) * S)


def block_etf_gram(H) -> GramMatrix:
    """Gram matrix that applies the factor i only inside the two diagonal
    n x n blocks of a skew Hadamard matrix of order 2n:

        I + (1/sqrt(2n-1)) [[i(P - I), Q], [Q^T, i(R - I)]]

    where H = [[P, Q], [-Q^T, R]] (skewness forces the lower-left block).
    The result has real off-diagonal blocks, the block pattern of Gram
    matrices of dihedral orbit configurations."""
    A = _sign_matrix(H)
    if not is_skew_hadamard(A):
        raise ValueError("expected a skew Hadamard matrix")
    m = A.shape[0]
    if m % 4 != 0:
        raise ValueError("order must be a multiple of 4")
    n = m // 2
    P, Q, R = A[:n, :n], A[:n, n:], A[n:, n:]
    eye = np.eye(n, dtype=np.int64)
    S = np.block([[1j * (P - eye), Q.astype(complex)],
                  [Q.T.astype(complex), 1j * (R - eye)]])
    return GramMatrix(np.eye(m) + _angle(m) * S)


def approximate_sign_matrix(G: GramMatrix) -> np.ndarray:
    """Float inverse of block_etf_gram, without rounding: sqrt(m-1) (G - I)
    on every block, the diagonal blocks times -i, the lower-left block
    negated, plus I.  exactify rounds the result."""
    M = G.values
    m = M.shape[0]
    n = m // 2
    H = float(np.sqrt(m - 1)) * (M - np.eye(m))
    H[:n, :n] *= -1j
    H[n:, n:] *= -1j
    H[n:, :n] *= -1
    return H + np.eye(m)


def exactify(H_approx):
    """Round an approximate sign matrix to an exact BlockSkewHadamard.

    Entries within 0.05 of zero raise AmbiguousEntryError; entries
    farther than 0.5 from both +1 and -1 raise ValueError.  After
    rounding, returns the BlockSkewHadamard on success or an
    ExactifyFailure naming the first violated structural check.
    """
    A = np.asarray(H_approx)
    if np.iscomplexobj(A):
        if float(np.max(np.abs(A.imag))) > 0.05:
            raise ValueError("matrix has a significant imaginary part")
        A = A.real
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 2:
        raise ValueError("expected a square matrix of order at least 2")
    if np.any(np.abs(A) <= 0.05):
        raise AmbiguousEntryError("an entry is too close to zero to round")
    H = np.where(A > 0, 1, -1).astype(np.int64)
    if float(np.max(np.abs(A - H))) > 0.5:
        raise ValueError("an entry is not within 0.5 of +1 or -1")

    m = H.shape[0]
    if m % 2 != 0:
        return ExactifyFailure("order is odd")
    n = m // 2
    if np.any(H + H.T != 2 * np.eye(m, dtype=np.int64)):
        return ExactifyFailure("skew symmetry fails")
    P, Q = H[:n, :n], H[:n, n:]
    if not np.array_equal(H[n:, :n], -Q.T) or not np.array_equal(H[n:, n:], P.T):
        return ExactifyFailure("block layout is not [[P, Q], [-Q^T, P^T]]")
    Pn = negacirculant(P[0]).real.astype(np.int64)
    Qn = negacirculant(Q[0]).real.astype(np.int64)
    if not np.array_equal(P, Pn) or not np.array_equal(Q, Qn):
        return ExactifyFailure("blocks are not negacirculant")
    if not np.array_equal(P @ P.T + Q @ Q.T,
                          2 * n * np.eye(n, dtype=np.int64)):
        return ExactifyFailure("autocorrelation identity fails")
    return BlockSkewHadamard(n=n, a=tuple(int(x) for x in P[0]),
                             b=tuple(int(x) for x in Q[0]))


# ---------------------------------------------------------------------------
# bit codec for +-1 vectors: MSB first, bit 1 meaning +1


def _pack(v) -> int:
    x = 0
    for s in v:
        x = (x << 1) | (1 if s == 1 else 0)
    return x


def _unpack(x: int, n: int) -> tuple:
    return tuple(1 if (x >> (n - 1 - k)) & 1 else -1 for k in range(n))


def hex_decode(s: str, n: int):
    """Decode ceil(n/4) hex digits, MSB first, bit 1 meaning +1, to a
    +-1 tuple of length n."""
    if n < 1:
        raise ValueError("length must be positive")
    digits = (n + 3) // 4
    # int(s, 16) alone would also take a sign, '_' and whitespace
    if not isinstance(s, str) or len(s) != digits or not all(c in hexdigits for c in s):
        raise ValueError(f"expected exactly {digits} hex digits for length {n}")
    x = int(s, 16)
    if x >= 1 << n:
        raise ValueError("encoded value overflows the stated length")
    return _unpack(x, n)


def hex_encode(v) -> str:
    """Inverse of hex_decode; emits upper-case, zero-padded digits."""
    t = _sign_vector(v)
    return format(_pack(t), "0{}X".format((len(t) + 3) // 4))
