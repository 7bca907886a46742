"""Circulant and negacirculant matrices, root-of-unity bookkeeping, and
exact arithmetic backends.

Conventions used throughout the package:

- Floating matrices are numpy complex128 arrays.
- A root of unity is addressed as RootIndex(order, index) and denotes
  exp(-2j*pi*index/order).  Keeping the pair instead of a float lets
  exact code turn products of roots into index arithmetic.
- circulant(v) places v[(j - i) % n] at row i, column j, so each row is
  the previous row rotated one step right.
- negacirculant(v) does the same but the entries that wrap around the
  right edge pick up a minus sign: row i+1 is row i rotated right with
  the wrapped entry negated.
- Exact cyclotomic arithmetic represents an element of Q(zeta_m) as a
  sparse dict {exponent: Fraction} in zeta_m = exp(-2j*pi/m).  Its two
  kernels pack a whole matrix as integers over one common denominator:
  equality and zero tests multiply a (rows*cols, m) array by a cached table
  of x**e mod Phi_m, and cyclo_matmul convolves (rows, cols, m) arrays.
  Both pick the narrowest of three exact tiers from a bound on every
  partial sum (_exact_dtype): float64 below 2**53, where integer-valued
  doubles add and multiply exactly in any order, so BLAS may block and
  thread the product as it likes; int64 below 2**62; Python ints beyond.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np


# ---------------------------------------------------------------------------
# roots of unity


@dataclass(frozen=True)
class RootIndex:
    """The root of unity exp(-2j*pi*index/order), stored exactly.

    index is normalised into range(order), so two RootIndex values are
    equal exactly when they denote the same complex number.
    """

    order: int
    index: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("root order must be a positive integer")
        object.__setattr__(self, "index", self.index % self.order)

    @property
    def value(self) -> complex:
        return root_power(self.order, self.index)

    def conjugate(self) -> "RootIndex":
        return RootIndex(self.order, -self.index)

    def power(self, e: int) -> "RootIndex":
        return RootIndex(self.order, self.index * e)

    def is_real(self) -> bool:
        return (2 * self.index) % self.order == 0

    def annihilates(self, n: int) -> bool:
        """True when self**n == 1."""
        return (n * self.index) % self.order == 0

    def negates(self, n: int) -> bool:
        """True when self**n == -1."""
        num = 2 * n * self.index - self.order
        return num % (2 * self.order) == 0


@lru_cache(maxsize=None)
def _root_table(order: int) -> np.ndarray:
    return np.exp(-2j * np.pi * np.arange(order) / order)


def root_power(order: int, e: int) -> complex:
    """exp(-2j*pi*e/order), computed from a shared table so equal roots
    compare bit-identically."""
    return complex(_root_table(order)[e % order])


# ---------------------------------------------------------------------------
# circulant / negacirculant kernel


def _as_vector(v) -> np.ndarray:
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1 or a.size < 1:
        raise ValueError("expected a non-empty one-dimensional sequence")
    return a


def circulant(v) -> np.ndarray:
    """n x n matrix C with C[i, j] = v[(j - i) % n]."""
    a = _as_vector(v)
    n = a.size
    j = np.arange(n)
    return a[(j[None, :] - j[:, None]) % n]


def negacirculant(v) -> np.ndarray:
    """n x n matrix N with N[i, j] = v[j - i] if j >= i else -v[n + j - i]."""
    a = _as_vector(v)
    n = a.size
    j = np.arange(n)
    diff = j[None, :] - j[:, None]
    out = a[diff % n].copy()
    out[diff < 0] *= -1
    return out


def _square(M) -> np.ndarray:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError("expected a square matrix")
    return A


_CIRCULANT_TOL = 1e-9  # entrywise, from the (nega)circulant of the first row


def is_circulant(M) -> bool:
    A = _square(M)
    return float(np.max(np.abs(A - circulant(A[0])))) <= _CIRCULANT_TOL


def is_negacirculant(M) -> bool:
    A = _square(M)
    return float(np.max(np.abs(A - negacirculant(A[0])))) <= _CIRCULANT_TOL


# ---------------------------------------------------------------------------
# exact cyclotomic arithmetic


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Integer coefficients of the m-th cyclotomic polynomial, low degree
    first, computed by dividing x**m - 1 by the lower-order factors."""
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            num = _polydiv_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _polydiv_exact(num, den):
    """Exact division of integer polynomials (low degree first); the
    remainder is required to vanish."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        coef = num[shift + len(den) - 1]
        assert coef % den[-1] == 0
        q = coef // den[-1]
        out[shift] = q
        for i, c in enumerate(den):
            num[shift + i] -= q * c
    assert all(c == 0 for c in num)
    return out


@lru_cache(maxsize=None)
def _reduction_array(m: int) -> tuple:
    """Integer m x phi(m) table, as an int64 array, whose row e holds
    x**e mod Phi_m, low degree first; and its largest |entry|.  Shift and
    fold: row e+1 is x times row e, with x**phi(m) replaced by
    x**phi(m) - Phi_m, as Phi_m is monic."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    rows = [(1,) + (0,) * (deg - 1)]
    while len(rows) < m:
        top = rows[-1][-1]
        rows.append(tuple(r - top * c for r, c in zip((0,) + rows[-1][:-1], phi)))
    R = np.array(rows, dtype=np.int64)
    return R, int(np.abs(R).max())


def _exact_dtype(x_max: int, y_max: int, terms: int):
    """The narrowest dtype that holds both operands of a product and every
    partial sum of `terms` products x * y with |x| <= x_max, |y| <= y_max:
    float64 while that bound is below 2**53, int64 below 2**62, else
    object (exact Python ints).  A float64 result is integral and exact,
    whatever the BLAS or its thread count; callers cast it to int64."""
    bound = max(x_max * y_max * terms, x_max, y_max)
    if bound < 1 << 53:
        return np.float64
    return np.int64 if bound < 1 << 62 else object


def _reduce(entries: dict, size: int, m: int) -> np.ndarray:
    """(size, phi(m)) remainders mod Phi_m of integer coefficients keyed by
    flat index into a (size, m) array, as int64 or object (Python int)
    entries; the product runs in the tier _exact_dtype picks for
    max|entry|, max|table| and m terms."""
    R, r_max = _reduction_array(m)
    dtype = _exact_dtype(max(map(abs, entries.values()), default=0), r_max, m)
    flat = np.zeros(size * m, dtype)
    flat[list(entries)] = list(entries.values())
    out = flat.reshape(size, m) @ R.astype(dtype, copy=False)
    return out.astype(np.int64) if dtype is np.float64 else out


def _fraction(c) -> Fraction:
    """c as a Fraction of Python ints; a numpy integer kept inside a
    Fraction would wrap at 2**63."""
    if isinstance(c, numbers.Rational):
        return Fraction(int(c.numerator), int(c.denominator))
    return Fraction(c)


class CycloPoly:
    """Element of Q(zeta_m), zeta_m = exp(-2j*pi/m), as a sparse
    polynomial {exponent: Fraction} with exponents taken mod m.

    Products only fold exponents mod m.  reduced() and is_zero() take the
    canonical remainder modulo the m-th cyclotomic polynomial, which is
    what makes equality testing exact.  Both run the matrix kernel on a
    1 x 1 matrix: coefficients scaled to integers over the lcm of their
    denominators, times the table of x**e mod Phi_m.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        self.order = order
        folded = {}
        for e, c in (coeffs or {}).items():
            e %= order
            c = c if isinstance(c, Fraction) else _fraction(c)
            folded[e] = folded[e] + c if e in folded else c
        self.coeffs = {e: c for e, c in folded.items() if c}

    @classmethod
    def root(cls, order: int, e: int = 1, coeff=1) -> "CycloPoly":
        return cls(order, {e: coeff})

    @classmethod
    def rational(cls, order: int, c) -> "CycloPoly":
        return cls(order, {0: c})

    @classmethod
    def gaussian(cls, order: int, re, im) -> "CycloPoly":
        # i = exp(-2j*pi * 3/4) = zeta_m ** (3m/4), so m must be divisible by 4.
        if order % 4 != 0:
            raise ValueError("need 4 | order to embed Gaussian rationals")
        return cls(order, {0: re, (3 * order) // 4: im})

    def _coerce(self, other):
        """other as a CycloPoly of this order, a numbers.Rational as a constant, else None."""
        if isinstance(other, CycloPoly):
            if other.order != self.order:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, numbers.Rational):
            return CycloPoly(self.order, {0: other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return CycloPoly(self.order, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other + -self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        m = self.order
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = (e1 + e2) % m
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return CycloPoly(self.order, out)

    __rmul__ = __mul__

    def __neg__(self):
        return CycloPoly(self.order, {e: -c for e, c in self.coeffs.items()})

    def conjugate(self):
        return CycloPoly(self.order, {-e % self.order: c for e, c in self.coeffs.items()})

    def reduced(self) -> tuple:
        """Canonical coefficient tuple of degree < phi(order): the
        remainder modulo the cyclotomic polynomial."""
        entries, den = _scaled_entries([[self]], self.order)
        values = _reduce(entries, 1, self.order)[0].tolist()
        frac = {a: Fraction(a, den) for a in set(values)}
        return tuple(map(frac.__getitem__, values))

    def is_zero(self) -> bool:
        return cyclo_is_zero([[self]])

    def __eq__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else cyclo_equal([[self]], [[other]])

    def __hash__(self):
        return hash((self.order, self.reduced()))

    def to_complex(self) -> complex:
        t = _root_table(self.order)
        return complex(sum(complex(c) * t[e] for e, c in self.coeffs.items()))

    def __repr__(self):
        return f"CycloPoly({self.order}, {self.coeffs!r})"


def cyclo_identity(order: int, n: int):
    zero, one = CycloPoly(order), CycloPoly.rational(order, 1)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _scaled_entries(M, order: int):
    """M's coefficients as integers over one common denominator, keyed by
    their flat index into a (rows, cols, order) array, and that
    denominator."""
    if any(x.order != order for row in M for x in row):
        raise ValueError("mixed cyclotomic orders")
    cols = len(M[0]) if M else 0
    if any(len(row) != cols for row in M):
        raise ValueError("ragged matrix")
    ratios = {(i * cols + j) * order + e: c.as_integer_ratio()
              for i, row in enumerate(M) for j, x in enumerate(row)
              for e, c in x.coeffs.items()}
    dens = {d for _, d in ratios.values()}
    den = lcm(*dens)
    scale = {d: den // d for d in dens}
    return {key: p * scale[d] for key, (p, d) in ratios.items()}, den


def cyclo_matmul(A, B):
    """Exact matrix product, exponents folded mod m as in CycloPoly.__mul__.

    Each operand is scaled to integers over one common denominator and
    packed as a (rows, cols, m) array in the basis zeta**0..zeta**(m-1);
    the product is the cyclic convolution C = sum_s roll(A[:, :, s] @ B, s)
    over the exponents s present in A.  Each coefficient of C sums k * m
    products, so it runs in the tier _exact_dtype picks for max|A|, max|B|
    and k * m terms: float64 (BLAS), int64 or exact Python ints."""
    rows, k, cols = len(A), len(B), len(B[0])
    if len(A[0]) != k:
        raise ValueError("inner dimensions differ")
    m = A[0][0].order
    (a, a_den), (b, b_den) = _scaled_entries(A, m), _scaled_entries(B, m)
    dtype = _exact_dtype(max(map(abs, a.values()), default=0),
                         max(map(abs, b.values()), default=0), k * m)
    Aint, Bint = np.zeros(rows * k * m, dtype), np.zeros(k * cols * m, dtype)
    Aint[list(a)], Bint[list(b)] = list(a.values()), list(b.values())
    Aint, Bint = Aint.reshape(rows, k, m), Bint.reshape(k, cols * m)
    # exponents s + u fall in [0, 2m); the upper half folds back at the end
    acc = np.zeros((rows, cols, 2 * m), dtype)
    for s in {i % m for i in a}:
        acc[:, :, s:s + m] += (Aint[:, :, s] @ Bint).reshape(rows, cols, m)
    C = acc[:, :, :m] + acc[:, :, m:]
    if dtype is np.float64:
        C = C.astype(np.int64)
    # the entries come out folded and nonzero, so CycloPoly.__init__ is skipped
    out = [[CycloPoly.__new__(CycloPoly) for _ in range(cols)] for _ in range(rows)]
    for x in (x for row in out for x in row):
        x.order, x.coeffs = m, {}
    # coefficients take few distinct values: one shared Fraction for each
    nz = np.nonzero(C)
    values = C[nz].tolist()
    frac = {v: Fraction(v, a_den * b_den) for v in set(values)}
    for i, j, e, v in zip(*(x.tolist() for x in nz), values):
        out[i][j].coeffs[e] = frac[v]
    return out


def cyclo_add(A, B):
    return [[a + b for a, b in zip(ra, rb, strict=True)] for ra, rb in zip(A, B, strict=True)]


def cyclo_conj_transpose(A):
    n, m = len(A), len(A[0])
    return [[A[i][j].conjugate() for i in range(n)] for j in range(m)]


def cyclo_is_zero(A) -> bool:
    m = A[0][0].order if A and A[0] else 1
    return not _reduce(_scaled_entries(A, m)[0], sum(map(len, A)), m).any()


def cyclo_equal(A, B) -> bool:
    if [len(row) for row in A] != [len(row) for row in B]:
        raise ValueError("matrix shapes differ")
    m = A[0][0].order if A and A[0] else 1
    (a, a_den), (b, b_den) = _scaled_entries(A, m), _scaled_entries(B, m)
    den = lcm(a_den, b_den)
    diff = {k: v * (den // a_den) for k, v in a.items()}
    for k, v in b.items():
        diff[k] = diff.get(k, 0) - v * (den // b_den)
    return not _reduce(diff, sum(map(len, A)), m).any()


def cyclo_trace(A) -> CycloPoly:
    s = CycloPoly(A[0][0].order)
    for i in range(len(A)):
        s = s + A[i][i]
    return s


def _exact_projector(n: int, zeta: RootIndex, ring_order, sign: int):
    """(1/n) * (zeta**(sign * (j - i)))_{i,j} as CycloPoly entries."""
    m = ring_order or zeta.order
    if m % zeta.order != 0:
        raise ValueError("ring order must be a multiple of the root order")
    step = sign * zeta.index * (m // zeta.order)
    inv_n = Fraction(1, n)
    return [[CycloPoly(m, {(j - i) * step: inv_n}) for j in range(n)] for i in range(n)]


def cyclotomic_idempotent_exact(n: int, zeta: RootIndex, ring_order: int | None = None):
    """(1/n) * (zeta**(j-i))_{i,j}, zeta**n == 1: over the n-th roots, the
    orthogonal rank-one projectors of the circulant algebra, summing to I."""
    if not zeta.annihilates(n):
        raise ValueError("zeta**n must equal 1")
    return _exact_projector(n, zeta, ring_order, 1)


def nega_cyclotomic_idempotent_exact(n: int, zeta: RootIndex, ring_order: int | None = None):
    """(1/n) * (zeta**(i-j))_{i,j}, zeta**n == -1: over those 2n-th roots, the
    orthogonal rank-one projectors of the negacirculant algebra, summing to I."""
    if not zeta.negates(n):
        raise ValueError("zeta**n must equal -1")
    return _exact_projector(n, zeta, ring_order, -1)
