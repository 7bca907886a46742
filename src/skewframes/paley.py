"""Finite fields GF(p**k) and skew Hadamard matrices of Paley type.

Representations:

- Field elements are k-tuples of ints in range(p), coefficients of the
  polynomial basis listed low degree first; for prime fields they are
  1-tuples.  The canonical element order (used for the projective line
  and therefore for matrix indexing) is lexicographic on these tuples,
  so it starts 0, 1, ..., p-1 for prime fields.
- The reducing modulus is the lexicographically smallest monic
  irreducible of degree k, coefficients compared low degree first; a
  different monic irreducible may be supplied explicitly.
- The projective line is ordered (0,1), (1,1), ..., (q-1,1), (1,0):
  affine points first in field order, the point at infinity last.
- paley_hadamard builds the q+1 sized sign matrix whose (i, j) entry
  for i != j is the quadratic character of the symplectic form
  a*d - b*c of the representatives (a, b) and (c, d), read from the set
  of nonzero squares built once per call, with +1 on the diagonal; for
  q = 3 mod 4 this is skew Hadamard, and the result is verified before
  being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .hadamard import is_skew_hadamard
from .frames import GramMatrix
from . import hadamard as _hadamard


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
    modulus: tuple = None

    def __post_init__(self):
        if prime_power(self.p) != (self.p, 1):
            raise ValueError("characteristic must be prime")
        if self.k < 1:
            raise ValueError("extension degree must be positive")
        if self.modulus is None:
            object.__setattr__(self, "modulus", _smallest_irreducible(self.p, self.k))
        else:
            f = tuple(int(c) % self.p for c in self.modulus)
            if len(f) != self.k + 1 or f[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            if not _is_irreducible(list(f), self.p):
                raise ValueError("modulus is reducible")
            object.__setattr__(self, "modulus", f)

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

    def neg(self, x):
        return tuple((-a) % self.p for a in x)

    def mul(self, x, y):
        r = _poly_mod(_poly_mul(list(x), list(y), self.p), list(self.modulus), self.p)
        return tuple(r + [0] * (self.k - len(r)))

    def pow(self, x, e: int):
        if e < 0:
            raise ValueError("negative exponents not needed here")
        acc, base = self.one, x
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc


def quadratic_character(field: FiniteField, x) -> int:
    """0 on zero, +1 on nonzero squares, -1 on non-squares, via
    x**((q-1)/2)."""
    x = tuple(int(c) % field.p for c in x)
    if x == field.zero:
        return 0
    t = field.pow(x, (field.q - 1) // 2)
    if t == field.one:
        return 1
    if t == field.neg(field.one):
        return -1
    raise ConstructionError("character power landed outside {1, -1}")


def projective_line(field: FiniteField):
    """Points (x, 1) in field element order followed by (1, 0)."""
    one, zero = field.one, field.zero
    return [(x, one) for x in field.elements()] + [(one, zero)]


def paley_hadamard(field: FiniteField) -> np.ndarray:
    """Skew Hadamard matrix of order q+1 for q = 3 mod 4: off-diagonal
    entries are the quadratic character of the symplectic form between
    projective representatives, diagonal entries +1."""
    q = field.q
    if q % 4 != 3:
        raise ValueError("need a prime power q with q = 3 mod 4")
    pts = projective_line(field)
    squares = {field.mul(x, x) for x in field.elements()} - {field.zero}
    m = q + 1
    H = np.ones((m, m), dtype=np.int64)
    for i, (a, b) in enumerate(pts):
        for j, (c, d) in enumerate(pts):
            if i != j:
                form = field.sub(field.mul(a, d), field.mul(b, c))
                if form == field.zero:
                    raise ConstructionError("distinct projective points gave a zero form")
                H[i, j] = 1 if form in squares else -1
    if not is_skew_hadamard(H):
        raise ConstructionError("Paley construction failed verification")
    return H


def paley_gram(field: FiniteField) -> GramMatrix:
    """Block-form ETF Gram of the Paley skew Hadamard matrix."""
    return _hadamard.block_etf_gram(paley_hadamard(field))


def doubled_paley_hadamard(field: FiniteField) -> np.ndarray:
    return _hadamard.double(paley_hadamard(field))


def double_paley_gram(field: FiniteField) -> GramMatrix:
    """Block-form ETF Gram of the doubled Paley matrix (order 2(q+1))."""
    return _hadamard.block_etf_gram(doubled_paley_hadamard(field))


def conj_double_paley_gram(field: FiniteField) -> GramMatrix:
    """Entrywise conjugate of double_paley_gram."""
    return double_paley_gram(field).conjugated()
