"""The projective-line construction of the Paley-type skew Hadamard
matrices, kept as an independent oracle for the closed-form Singer rows
of skewframes.paley.

paley_hadamard(field) indexes the q + 1 points of PG(1, q) in the order
(0,1), (1,1), ..., (q-1,1), (1,0): affine points in field order, the
point at infinity last.  Its (i, j) entry for i != j is the quadratic
character of the symplectic form a*d - b*c of the representatives
(a, b) and (c, d), read from the set of nonzero squares built once per
call, with +1 on the diagonal; for q = 3 mod 4 this is skew Hadamard.
double is Hadamard order-doubling, and the doubled Paley matrix is
double(paley_hadamard(field)).  The oracle shares with the engine only
FiniteField and the exact checks: it reads no Singer cycle and no
negacirculant rows.
"""

import numpy as np

from skewframes.hadamard import block_etf_gram, is_skew_hadamard
from skewframes.paley import ConstructionError, FiniteField


def power(field: FiniteField, x, e: int):
    """x**e by square and multiply, e >= 0."""
    acc, base = field.one, x
    while e:
        if e & 1:
            acc = field.mul(acc, base)
        base = field.mul(base, base)
        e >>= 1
    return acc


def quadratic_character(field: FiniteField, x) -> int:
    """0 on zero, +1 on nonzero squares, -1 on non-squares, via
    x**((q-1)/2)."""
    x = tuple(int(c) % field.p for c in x)
    if x == field.zero:
        return 0
    t = power(field, x, (field.q - 1) // 2)
    if t == field.one:
        return 1
    if t == field.sub(field.zero, field.one):
        return -1
    raise ConstructionError("character power landed outside {1, -1}")


def projective_line(field: FiniteField):
    """Points (x, 1) in field element order followed by (1, 0)."""
    one, zero = field.one, field.zero
    return [(x, one) for x in field.elements()] + [(one, zero)]


def paley_hadamard(field: FiniteField) -> np.ndarray:
    """Skew Hadamard matrix of order q+1 for q = 3 mod 4 on the
    projective line."""
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


def double(H) -> np.ndarray:
    """Order-doubling: for skew Hadamard H = I + C returns the skew
    Hadamard [[I + C, I + C], [-I + C, I - C]] of twice the order."""
    A = np.asarray(H, dtype=np.int64)
    if not is_skew_hadamard(A):
        raise ValueError("expected a skew Hadamard matrix")
    m = A.shape[0]
    eye2 = 2 * np.eye(m, dtype=np.int64)
    out = np.block([[A, A], [A - eye2, eye2 - A]])
    assert is_skew_hadamard(out)
    return out


def doubled_paley_hadamard(field: FiniteField) -> np.ndarray:
    return double(paley_hadamard(field))


def paley_gram(field: FiniteField):
    """Block-form ETF Gram of the projective-line Paley matrix."""
    return block_etf_gram(paley_hadamard(field))


def double_paley_gram(field: FiniteField):
    """Block-form ETF Gram of the doubled projective-line Paley matrix."""
    return block_etf_gram(doubled_paley_hadamard(field))
