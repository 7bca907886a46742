"""Finite fields GF(p**k) and skew Hadamard matrices of Paley type.

Representations:

- Field elements are k-tuples of ints in range(p), coefficients of the
  polynomial basis listed low degree first; for prime fields they are
  1-tuples.  The canonical element order is lexicographic on these
  tuples, so it starts 0, 1, ..., p-1 for prime fields.
- The reducing modulus is the lexicographically smallest monic
  irreducible of degree k, coefficients compared low degree first.
- The Paley-type matrices are two-negacirculant rows read off the
  Singer cycle of the projective line PG(1, q), q = 3 mod 4.  Take the
  first t in element order whose Lucas sequence y_0 = 0, y_1 = 1,
  y_{j+1} = t y_j + y_{j-1} (of x^2 - t x - 1, whose norm -1 is a
  non-square) has y_j != 0 for 0 < j <= q and y_{q+1} = 0; then put
  c_0 = 1 and c_j = chi(y_j), chi the quadratic character read from the
  set of nonzero squares.  The Paley matrix P of order q + 1 has
  a_i = c_{2i} and b_i = c_{2i+1}; its doubling DP of order 2(q + 1)
  has a_i = (-1)^(i(i-1)/2) c_i and b_i = (-1)^(i(i+1)/2) c_i.  Both
  are verified as BlockSkewHadamard before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .frames import GramMatrix
from .hadamard import BlockSkewHadamard, block_etf_gram


class ConstructionError(RuntimeError):
    """An algebraic construction failed its own verification."""


def prime_power(m: int):
    """(p, k) with m == p**k for a prime p, or None when m is not a
    prime power."""
    if m < 2:
        return None
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
        p += 1
    return (m, 1)


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(num, den, p):
    """Remainder of num by monic den over GF(p), low degree first."""
    num = [x % p for x in num]
    dn = len(den) - 1
    for pos in range(len(num) - 1, dn - 1, -1):
        c = num[pos]
        if c:
            num[pos] = 0
            for i in range(dn):
                num[pos - dn + i] = (num[pos - dn + i] - c * den[i]) % p
    return num[:dn]


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _monic_polys(p, deg):
    for tail in product(range(p), repeat=deg):
        yield list(tail) + [1]


def _is_irreducible(f, p):
    """Trial division by all monic polynomials of degree up to deg(f)//2."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys(p, d):
            if not _poly_trim(_poly_mod(f, g, p)):
                return False
    return True


def _smallest_irreducible(p, k):
    for f in _monic_polys(p, k):
        if _is_irreducible(f, p):
            return tuple(f)
    raise ConstructionError("no monic irreducible found")  # cannot happen


@dataclass(frozen=True)
class FiniteField:
    """GF(p**k) with explicit polynomial-basis arithmetic."""

    p: int
    k: int = 1
    modulus: tuple = field(init=False)

    def __post_init__(self):
        if prime_power(self.p) != (self.p, 1):
            raise ValueError("characteristic must be prime")
        if self.k < 1:
            raise ValueError("extension degree must be positive")
        object.__setattr__(self, "modulus", _smallest_irreducible(self.p, self.k))

    @property
    def q(self) -> int:
        return self.p ** self.k

    @property
    def zero(self):
        return (0,) * self.k

    @property
    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def elements(self):
        """All q elements in lexicographic coefficient order."""
        return [t for t in product(range(self.p), repeat=self.k)]

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple((a - b) % self.p for a, b in zip(x, y))

    def mul(self, x, y):
        r = _poly_mod(_poly_mul(list(x), list(y), self.p), list(self.modulus), self.p)
        return tuple(r + [0] * (self.k - len(r)))


def _singer_characters(field: FiniteField) -> list:
    """c_0 = 1 and c_j = chi(y_j) for 0 < j <= q along the Singer cycle
    of PG(1, q) (see the module docstring)."""
    q = field.q
    if q % 4 != 3:
        raise ValueError("need a prime power q with q = 3 mod 4")
    squares = {field.mul(x, x) for x in field.elements()} - {field.zero}
    for t in field.elements():
        y0, y1, ys = field.zero, field.one, []
        while y1 != field.zero and len(ys) < q:
            ys.append(y1)
            y0, y1 = y1, field.add(field.mul(t, y1), y0)
        if len(ys) == q and y1 == field.zero:
            return [1] + [1 if y in squares else -1 for y in ys]
    raise ConstructionError("no Singer cycle found")  # cannot happen


def _verified(a, b) -> BlockSkewHadamard:
    try:
        return BlockSkewHadamard(len(a), a, b)
    except ValueError as exc:
        raise ConstructionError(f"Paley-type rows failed verification: {exc}") from None


def paley_rows(field: FiniteField) -> BlockSkewHadamard:
    """The Paley matrix of order q + 1, q = 3 mod 4, as the rows
    a_i = c_{2i}, b_i = c_{2i+1} of the Singer characters."""
    c = _singer_characters(field)
    return _verified(c[0::2], c[1::2])


def doubled_paley_rows(field: FiniteField) -> BlockSkewHadamard:
    """The doubled Paley matrix of order 2(q + 1) as the rows
    a_i = (-1)^(i(i-1)/2) c_i, b_i = (-1)^(i(i+1)/2) c_i."""
    c = _singer_characters(field)
    return _verified([(-1) ** (i * (i - 1) // 2) * x for i, x in enumerate(c)],
                     [(-1) ** (i * (i + 1) // 2) * x for i, x in enumerate(c)])


def paley_hadamard(field: FiniteField) -> np.ndarray:
    """Skew Hadamard matrix of Paley type of order q + 1 for q = 3 mod 4,
    in two-negacirculant block form."""
    return paley_rows(field).matrix()


def paley_gram(field: FiniteField) -> GramMatrix:
    """Block-form ETF Gram of the Paley skew Hadamard matrix."""
    return block_etf_gram(paley_hadamard(field))


def double_paley_gram(field: FiniteField) -> GramMatrix:
    """Block-form ETF Gram of the doubled Paley matrix (order 2(q+1))."""
    return block_etf_gram(doubled_paley_rows(field).matrix())


def conj_double_paley_gram(field: FiniteField) -> GramMatrix:
    """Entrywise conjugate of double_paley_gram."""
    return double_paley_gram(field).conjugated()
