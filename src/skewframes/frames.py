"""Unit-norm frames, Gram matrices, and dihedral orbit configurations.

Representations:

- A Configuration stores the frame vectors as the columns of an n x N
  complex array (n = ambient dimension, N = number of vectors).  Columns
  are required to be unit vectors.
- A GramMatrix stores the N x N matrix of inner products G[i, j] =
  <v_i, v_j> (conjugate-linear in the first slot), so G is Hermitian
  with unit diagonal and positive semidefinite.  For the Gram matrices
  this package produces from sign matrices, sqrt(N-1) * (G - I) has
  entries in {0, +-1, +-i}; GramMatrix.exact_view rounds the floats to
  that exact view, once per matrix, and is the only place it is made.
- A dihedral flavor is its set of n roots, listed by flavor_roots:
  the n-th roots of unity ("strict", a genuine representation) or the
  odd powers of the 2n-th root ("projective", genuinely projective).
  The rotation M is the diagonal of those roots, and the reflection T
  permutes coordinates as complex conjugation permutes the roots.  In
  the projective flavor M and T satisfy the dihedral relations only up
  to scalar phases.
"""

from __future__ import annotations

import enum
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .algebra import RootIndex, is_circulant, is_negacirculant


class DihedralFlavor(enum.Enum):
    STRICT = "strict"
    PROJECTIVE = "projective"


class NotFactorableError(ValueError):
    """Raised when a claimed Gram matrix does not factor as requested."""


class NotEtfGramError(ValueError):
    """The matrix has no exact {0, +-1, +-i} scaled off-diagonal view."""


@dataclass(frozen=True)
class Configuration:
    """Unit vectors as columns of an n x N complex matrix."""

    vectors: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.vectors, dtype=complex)
        if V.ndim != 2 or V.shape[0] < 1 or V.shape[1] < 1:
            raise ValueError("expected a non-empty 2-d array of column vectors")
        norms = np.linalg.norm(V, axis=0)
        if not float(np.max(np.abs(norms - 1.0))) <= 1e-9:  # NaN fails too
            raise ValueError("columns must be unit vectors")
        object.__setattr__(self, "vectors", V)

    @property
    def dimension(self) -> int:
        return self.vectors.shape[0]

    @property
    def count(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian unit-diagonal matrix of inner products.

    exact_scaled is not stored: when given, it must equal exact_view,
    so exact data read from outside cannot disagree with the floats.
    """

    values: np.ndarray
    exact_scaled: InitVar[Optional[np.ndarray]] = None

    def __post_init__(self, exact_scaled):
        G = np.asarray(self.values, dtype=complex)
        if G.ndim != 2 or G.shape[0] != G.shape[1] or G.shape[0] < 1:
            raise ValueError("Gram matrix must be square and non-empty")
        if not float(np.max(np.abs(G - G.conj().T))) <= 1e-9:  # NaN fails too
            raise ValueError("Gram matrix must be Hermitian")
        if not float(np.max(np.abs(np.diag(G) - 1.0))) <= 1e-9:
            raise ValueError("Gram matrix must have unit diagonal")
        object.__setattr__(self, "values", G)
        if exact_scaled is not None and not np.array_equal(exact_scaled, self.exact_view):
            raise ValueError("exact view disagrees with the float values")

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @cached_property
    def exact_view(self) -> np.ndarray:
        """sqrt(N-1) (G - I) rounded to Gaussian integers, read-only, with
        entries verified to be Gaussian units off the diagonal (the unit
        diagonal rounds to 0)."""
        N = self.size
        S = np.sqrt(N - 1) * (self.values - np.eye(N))
        K = np.rint(S)  # rounds the real and imaginary parts
        if not float(np.max(np.abs(S - K))) <= 1e-6:
            raise NotEtfGramError("scaled off-diagonal entries are not Gaussian integers")
        if np.count_nonzero(np.abs(K) == 1) != N * (N - 1):
            raise NotEtfGramError("entries are not Gaussian units off the diagonal")
        K.flags.writeable = False  # shared by every reader through the cache
        return K

    def conjugated(self) -> "GramMatrix":
        return GramMatrix(self.values.conj())


del GramMatrix.exact_scaled  # the InitVar's default; a read must fail, not see None


def gram(config: Configuration) -> GramMatrix:
    V = config.vectors
    return GramMatrix(V.conj().T @ V)


def welch_bound(N: int, n: int) -> float:
    """Lower bound sqrt((N - n) / (n (N - 1))) on the coherence of N unit
    vectors in dimension n; met with equality exactly by ETFs."""
    if n < 1 or N <= n:
        raise ValueError("need N > n >= 1")
    return float(np.sqrt((N - n) / (n * (N - 1))))


def coherence(config: Configuration) -> float:
    """Largest |<v_i, v_j>| over distinct i, j."""
    if config.count < 2:
        raise ValueError("coherence needs at least two vectors")
    G = np.abs(gram(config).values.copy())
    np.fill_diagonal(G, 0.0)
    return float(np.max(G))


def is_tight(config: Configuration, tol: float = 1e-9) -> bool:
    """Whether the frame operator V V* is N/n times the identity."""
    V = config.vectors
    n, N = V.shape
    S = V @ V.conj().T
    c = N / n
    return float(np.max(np.abs(S - c * np.eye(n)))) <= tol * c


def is_etf(config: Configuration, rel_tol: float = 1e-7) -> bool:
    """Equiangular tight frame test: tight, and the off-diagonal Gram
    moduli have relative spread (max - min) / mean at most rel_tol."""
    n, N = config.dimension, config.count
    if N <= n:
        raise ValueError("an ETF here needs more vectors than dimensions")
    if not is_tight(config, tol=rel_tol):
        return False
    A = np.abs(gram(config).values)
    off = A[~np.eye(N, dtype=bool)]
    mean = float(np.mean(off))
    if mean <= 0.0:
        return False
    spread = float(np.max(off) - np.min(off)) / mean
    return spread <= rel_tol


def frame_potential(config: Configuration, p: float) -> float:
    """sum over all ordered pairs (i, j), including i == j, of
    |<v_i, v_j>|**p."""
    if p < 1:
        raise ValueError("exponent must be at least 1")
    A = np.abs(gram(config).values)
    return float(np.sum(A ** p))


def flavor_roots(n: int, flavor: DihedralFlavor) -> tuple:
    """The flavor's n roots in the order of M's diagonal: RootIndex(n, k)
    (strict) or RootIndex(2n, 2k+1) (projective) for k = 0..n-1."""
    if n < 1:
        raise ValueError("n must be positive")
    if flavor is DihedralFlavor.STRICT:
        return tuple(RootIndex(n, k) for k in range(n))
    if flavor is DihedralFlavor.PROJECTIVE:
        return tuple(RootIndex(2 * n, 2 * k + 1) for k in range(n))
    raise ValueError("unknown flavor")


def _orbit_kernel(n: int, flavor: DihedralFlavor):
    """(R, pi): R[d, j] = r_j^d for the flavor's roots r, and pi[k] the
    index of the conjugate of root k, so (T w)[k] = w[pi[k]]."""
    roots = flavor_roots(n, flavor)
    position = {z: k for k, z in enumerate(roots)}
    pi = np.array([position[z.conjugate()] for z in roots])
    r = np.array([z.value for z in roots])
    return r[None, :] ** np.arange(n)[:, None], pi


def dihedral_orbit(v, flavor: DihedralFlavor) -> Configuration:
    """Columns [v, Mv, ..., M^(n-1)v, Tv, MTv, ..., M^(n-1)Tv] for the
    flavor's rotation M and reflection T; v must be a unit vector."""
    w = np.asarray(v, dtype=complex)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("expected a one-dimensional vector")
    nrm = float(np.linalg.norm(w))
    if nrm == 0.0:
        raise ValueError("zero vector has no orbit")
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError("orbit seed must be a unit vector")
    R, pi = _orbit_kernel(w.size, flavor)
    return Configuration(np.concatenate([R * w, R * w[pi]]).T)


_RANK_TOL = 1e-8  # on singular values and eigenvalues, relative to the largest
_STRUCTURE_TOL = 1e-9  # entrywise, on the Gram block pattern, as in is_circulant


def is_regular(config: Configuration) -> bool:
    """Whether the first half of the columns already spans the ambient
    space; for 2n vectors in dimension n that is the first n columns."""
    V = config.vectors
    n, N = V.shape
    if N % 2 != 0:
        raise ValueError("regularity is defined for an even number of vectors")
    half = V[:, : N // 2]
    s = np.linalg.svd(half, compute_uv=False)
    return bool(s[-1] > _RANK_TOL * s[0])


@dataclass(frozen=True)
class StructureReport:
    """Block analysis of a 2n x 2n Gram matrix.

    flavor is the dihedral flavor whose block pattern matched (None when
    neither matched); A and B are the upper-left and upper-right n x n
    blocks; ambiguous is set when both patterns matched (e.g. for the
    identity matrix), in which case STRICT is reported.
    """

    flavor: Optional[DihedralFlavor]
    A: np.ndarray
    B: np.ndarray
    ambiguous: bool = False


def analyze_gram_structure(G: GramMatrix) -> StructureReport:
    """Match G against the block form [[A, B], [B^T, A^T]] with B real,
    where A and B are both circulant (strict flavor) or both
    negacirculant (projective flavor)."""
    M = G.values
    N = M.shape[0]
    if N % 2 != 0:
        raise ValueError("structure analysis needs even size")
    n = N // 2
    A, B = M[:n, :n], M[:n, n:]
    C, D = M[n:, :n], M[n:, n:]
    common = (
        float(np.max(np.abs(C - B.T))) <= _STRUCTURE_TOL
        and float(np.max(np.abs(D - A.T))) <= _STRUCTURE_TOL
        and float(np.max(np.abs(B.imag))) <= _STRUCTURE_TOL
    )
    strict = common and is_circulant(A) and is_circulant(B)
    projective = common and is_negacirculant(A) and is_negacirculant(B)
    if strict:
        return StructureReport(DihedralFlavor.STRICT, A, B, ambiguous=projective)
    if projective:
        return StructureReport(DihedralFlavor.PROJECTIVE, A, B)
    return StructureReport(None, A, B)


def configuration_from_gram(G: GramMatrix, n: int) -> Configuration:
    """Factor G = V* V with V of shape n x N, for a Gram matrix of rank n
    with constant row sum of eigenvalues N/n on its top-n eigenspace.

    Uses the spectral decomposition: keeps the n largest eigenvalues,
    checks the discarded ones are zero and the kept ones equal N/n
    within _RANK_TOL, and returns sqrt(lambda)-scaled eigenvector rows.
    """
    M = G.values
    N = M.shape[0]
    if n < 1 or n > N:
        raise ValueError("need 1 <= n <= N")
    vals, vecs = np.linalg.eigh(M)
    lead, tail = vals[N - n:], vals[: N - n]
    c = N / n
    if float(np.max(np.abs(tail), initial=0.0)) > _RANK_TOL * c:
        raise NotFactorableError("Gram matrix has rank above n within tolerance")
    if float(np.max(np.abs(lead - c))) > _RANK_TOL * c:
        raise NotFactorableError("top eigenvalues are not the tight constant N/n")
    V = (vecs[:, N - n:] * np.sqrt(np.maximum(lead, 0.0))).conj().T
    # eigh returns unit columns, so the factor's columns can drift from unit
    # norm only by the eigenvalue error; renormalise to restore the invariant.
    V = V / np.linalg.norm(V, axis=0, keepdims=True)
    return Configuration(V)
