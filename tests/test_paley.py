"""Tests for the Paley skew Hadamard construction over GF(q), q = 3 mod 4.

Frozen oracles:
- GF(27) built from the lexicographically smallest monic irreducible
  cubic over GF(3), which is x^3 + 2x^2 + 1, stored low-degree-first
  as (1, 0, 2, 1);
- the quadratic character table of GF(7);
- the projective line of GF(3) in construction order;
- the full 4 x 4 Paley matrix over GF(3).
"""

import numpy as np
import pytest

from skewframes.hadamard import is_skew_hadamard
from skewframes.paley import (
    ConstructionError,
    FiniteField,
    conj_double_paley_gram,
    double_paley_gram,
    doubled_paley_hadamard,
    paley_gram,
    paley_hadamard,
    prime_power,
    projective_line,
    quadratic_character,
)

GF3 = FiniteField(3)
GF7 = FiniteField(7)


# ---------------------------------------------------------------------------
# finite fields


def test_field_sizes_and_constants():
    assert GF3.q == 3
    assert GF3.zero == (0,)
    assert GF3.one == (1,)
    f27 = FiniteField(3, 3)
    assert f27.q == 27
    assert f27.zero == (0, 0, 0)
    assert f27.one == (1, 0, 0)
    assert len(f27.elements()) == 27


def test_gf27_uses_the_smallest_irreducible_cubic():
    assert FiniteField(3, 3).modulus == (1, 0, 2, 1)  # x^3 + 2x^2 + 1


def test_gf27_reduction_oracle():
    # x * x^2 = x^3 = x^2 + 2 modulo x^3 + 2x^2 + 1 over GF(3)
    f = FiniteField(3, 3)
    assert f.mul((0, 1, 0), (0, 0, 1)) == (2, 0, 1)


def test_prime_power():
    want = {0: None, 1: None, 2: (2, 1), 7: (7, 1), 8: (2, 3), 12: None,
            27: (3, 3), 45: None, 49: (7, 2), 97: (97, 1)}
    assert {m: prime_power(m) for m in want} == want


def test_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FiniteField(4)  # not prime
    with pytest.raises(ValueError):
        FiniteField(1)
    with pytest.raises(ValueError):
        FiniteField(3, 0)


@pytest.mark.parametrize("field", [GF3, GF7, FiniteField(11), FiniteField(3, 3)])
def test_field_arithmetic_laws(field):
    els = field.elements()
    rng = np.random.default_rng(field.q)
    pick = lambda: els[int(rng.integers(0, len(els)))]
    for _ in range(25):
        x, y, z = pick(), pick(), pick()
        assert field.add(x, field.neg(x)) == field.zero
        assert field.mul(x, y) == field.mul(y, x)
        assert field.mul(field.mul(x, y), z) == field.mul(x, field.mul(y, z))
        assert field.mul(x, field.one) == x
        assert field.sub(x, y) == field.add(x, field.neg(y))
    # Fermat: x^(q-1) = 1 for every nonzero x
    for x in els:
        if x != field.zero:
            assert field.pow(x, field.q - 1) == field.one


@pytest.mark.parametrize("field", [GF3, GF7, FiniteField(11), FiniteField(3, 3)])
def test_quadratic_character_splits_the_field_in_half(field):
    values = [quadratic_character(field, x) for x in field.elements()]
    assert values.count(0) == 1
    assert values.count(1) == (field.q - 1) // 2
    assert values.count(-1) == (field.q - 1) // 2


def test_gf7_character_table():
    table = {x[0]: quadratic_character(GF7, x) for x in GF7.elements()}
    assert table == {0: 0, 1: 1, 2: 1, 3: -1, 4: 1, 5: -1, 6: -1}


def test_character_is_multiplicative():
    f = FiniteField(3, 3)
    els = [x for x in f.elements() if x != f.zero]
    rng = np.random.default_rng(5)
    for _ in range(40):
        x = els[int(rng.integers(0, len(els)))]
        y = els[int(rng.integers(0, len(els)))]
        assert (quadratic_character(f, f.mul(x, y))
                == quadratic_character(f, x) * quadratic_character(f, y))


# ---------------------------------------------------------------------------
# projective line and the Paley matrix


def test_projective_line_order():
    assert projective_line(GF3) == [
        ((0,), (1,)), ((1,), (1,)), ((2,), (1,)), ((1,), (0,))]
    assert len(projective_line(FiniteField(3, 3))) == 28


def test_paley_hadamard_gf3_oracle():
    expected = np.array([
        [1, -1, 1, -1],
        [1, 1, -1, -1],
        [-1, 1, 1, -1],
        [1, 1, 1, 1],
    ])
    assert np.array_equal(paley_hadamard(GF3), expected)


@pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (11, 1), (19, 1), (23, 1), (3, 3)])
def test_paley_hadamard_is_skew(p, k):
    field = FiniteField(p, k)
    H = paley_hadamard(field)
    assert H.shape == (field.q + 1, field.q + 1)
    assert is_skew_hadamard(H)


def test_paley_rejects_wrong_residue():
    with pytest.raises(ValueError):
        paley_hadamard(FiniteField(5))  # q = 1 mod 4
    with pytest.raises(ValueError):
        paley_hadamard(FiniteField(3, 2))  # q = 9 = 1 mod 4


def character_power_paley_hadamard(field):
    """The construction with one character power per entry, as it was
    before the squares set."""
    pts = projective_line(field)
    H = np.ones((len(pts), len(pts)), dtype=np.int64)
    for i, (a, b) in enumerate(pts):
        for j, (c, d) in enumerate(pts):
            if i != j:
                H[i, j] = quadratic_character(
                    field, field.sub(field.mul(a, d), field.mul(b, c)))
    return H


@pytest.mark.parametrize("q", [3, 7, 11, 19, 23, 27, 31, 43])
def test_paley_hadamard_matches_the_character_power_build(q):
    field = FiniteField(*prime_power(q))
    assert np.array_equal(paley_hadamard(field), character_power_paley_hadamard(field))


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3)])
def test_quadratic_character_agrees_with_the_squares(p, k):
    field = FiniteField(p, k)
    squares = {field.mul(x, x) for x in field.elements()}
    for x in field.elements():
        want = 0 if x == field.zero else 1 if x in squares else -1
        assert quadratic_character(field, x) == want


def test_paley_hadamard_rejects_a_zero_form(monkeypatch):
    # a repeated projective point makes a*d - b*c vanish off the diagonal
    pts = projective_line(GF7)
    monkeypatch.setattr("skewframes.paley.projective_line", lambda field: pts[:-1] + pts[:1])
    with pytest.raises(ConstructionError, match="zero form"):
        paley_hadamard(GF7)


# ---------------------------------------------------------------------------
# Gram matrices


@pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (11, 1), (3, 3)])
def test_paley_gram_meets_the_welch_bound_exactly(p, k):
    field = FiniteField(p, k)
    G = paley_gram(field)
    q = field.q
    off = np.abs(G.values[~np.eye(q + 1, dtype=bool)])
    assert float(np.max(np.abs(off - 1.0 / np.sqrt(q)))) < 1e-12
    assert G.exact_scaled is not None
    # exact view entries lie in {+-1, +-i} off the diagonal
    E = G.exact_scaled[~np.eye(q + 1, dtype=bool)]
    assert np.all(np.isclose(np.abs(E), 1.0, atol=0))


@pytest.mark.parametrize("p", [3, 7])
def test_doubled_paley_matrices(p):
    field = FiniteField(p)
    D = doubled_paley_hadamard(field)
    assert D.shape == (2 * (field.q + 1), 2 * (field.q + 1))
    assert is_skew_hadamard(D)
    G = double_paley_gram(field)
    assert G.size == 2 * (field.q + 1)
    C = conj_double_paley_gram(field)
    assert np.allclose(C.values, G.values.conj())
    assert np.allclose(C.exact_scaled, G.exact_scaled.conj())


def test_double_and_conjugate_grams_differ_entrywise():
    # conjugation flips the imaginary entries, so the two Gram matrices
    # are distinct as arrays (their equivalence or not is a separate,
    # harder question)
    G = double_paley_gram(GF7)
    C = conj_double_paley_gram(GF7)
    assert float(np.max(np.abs(G.values - C.values))) > 0.1
