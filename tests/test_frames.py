"""Frame-level predicates and the dihedral orbit machinery.

The hand-computable fixture used throughout is the 3-vector simplex in
dimension 2 (Mercedes-Benz frame): coherence exactly 1/2, tight with
constant 3/2, p = 2 potential N^2/n = 9/2, p = 4 potential
3 + 6 * (1/2)^4 = 27/8.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewframes.algebra import RootIndex

from skewframes.frames import (
    Configuration,
    DihedralFlavor,
    GramMatrix,
    NotFactorableError,
    analyze_gram_structure,
    coherence,
    configuration_from_gram,
    dihedral_orbit,
    flavor_roots,
    frame_potential,
    gram,
    is_etf,
    is_regular,
    is_tight,
    welch_bound,
)

rng = np.random.default_rng(20240812)


def simplex():
    ang = 2 * np.pi * np.arange(3) / 3
    return Configuration(np.array([np.cos(ang), np.sin(ang)]))


def random_unit(n, seed=None):
    g = np.random.default_rng(seed) if seed is not None else rng
    v = g.normal(size=n) + 1j * g.normal(size=n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# configurations and basic functionals


def test_configuration_requires_unit_columns():
    with pytest.raises(ValueError):
        Configuration(np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="unit vectors"):
        Configuration(np.array([[1.0, np.nan], [0.0, 0.0]]))


def test_configuration_shape_properties():
    c = simplex()
    assert c.dimension == 2
    assert c.count == 3


def test_gram_is_hermitian_unit_diagonal():
    G = gram(simplex())
    assert G.size == 3
    assert np.allclose(G.values, G.values.conj().T)
    assert np.allclose(np.diag(G.values), 1.0)


def test_gram_matrix_validates():
    with pytest.raises(ValueError):
        GramMatrix(np.array([[1.0, 0.5], [0.4, 1.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        GramMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]))  # diagonal not 1
    with pytest.raises(ValueError):
        GramMatrix(np.array([[np.nan]]))  # NaN passes no tolerance


def test_gram_matrix_checks_a_given_exact_view():
    H = np.array([[1, 1, 1, 1], [-1, 1, 1, -1], [-1, -1, 1, 1], [-1, 1, -1, 1]])
    K = 1j * (H - np.eye(4))
    values = np.eye(4) + K / np.sqrt(3)
    assert np.array_equal(GramMatrix(values, exact_scaled=K).exact_view, K)
    negated = K.copy()
    negated[0, 1] = -negated[0, 1]
    for bad in (negated, K[:3, :3], K + 0.25):
        with pytest.raises(ValueError, match="exact view disagrees with the float values"):
            GramMatrix(values, exact_scaled=bad)


def test_welch_bound_values():
    assert abs(welch_bound(4, 2) - 1 / np.sqrt(3)) < 1e-15
    for n in (2, 3, 5, 8):
        assert abs(welch_bound(2 * n, n) - 1 / np.sqrt(2 * n - 1)) < 1e-15
    with pytest.raises(ValueError):
        welch_bound(2, 2)


def test_simplex_is_an_etf():
    c = simplex()
    assert abs(coherence(c) - 0.5) < 1e-12
    assert abs(coherence(c) - welch_bound(3, 2)) < 1e-12
    assert is_tight(c) is True
    assert is_etf(c)


def test_frame_potential_frozen_values():
    c = simplex()
    assert abs(frame_potential(c, 2) - 4.5) < 1e-12
    assert abs(frame_potential(c, 4) - 27 / 8) < 1e-12
    with pytest.raises(ValueError):
        frame_potential(c, 0.5)


def test_untight_config_fails_predicates():
    V = np.array([[1.0, 0.0, 1 / np.sqrt(2)], [0.0, 1.0, 1 / np.sqrt(2)]])
    c = Configuration(V)
    assert is_tight(c) is False
    assert not is_etf(c)


def test_is_etf_needs_redundancy():
    c = Configuration(np.eye(3))
    with pytest.raises(ValueError):
        is_etf(c)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_gram_psd_property(seed):
    g = np.random.default_rng(seed)
    V = g.normal(size=(3, 6)) + 1j * g.normal(size=(3, 6))
    V /= np.linalg.norm(V, axis=0, keepdims=True)
    w = np.linalg.eigvalsh(gram(Configuration(V)).values)
    assert w.min() > -1e-10


# ---------------------------------------------------------------------------
# dihedral orbits


def test_orbit_size_and_unit_norms():
    for flavor in DihedralFlavor:
        c = dihedral_orbit(random_unit(4), flavor)
        assert c.count == 8 and c.dimension == 4
        assert np.allclose(np.linalg.norm(c.vectors, axis=0), 1.0)


def dense_generators(n, flavor):
    """Reference (M, T) written out from the paper: M the diagonal of
    the n-th roots of unity with the reflection fixing position 0
    (strict), or of the odd powers of the 2n-th root with the full
    anti-diagonal flip (projective)."""
    T = np.zeros((n, n))
    if flavor is DihedralFlavor.STRICT:
        r = np.exp(-2j * np.pi * np.arange(n) / n)
        T[np.arange(n), (-np.arange(n)) % n] = 1.0
    else:
        r = np.exp(-2j * np.pi * (2 * np.arange(n) + 1) / (2 * n))
        T[np.arange(n), n - 1 - np.arange(n)] = 1.0
    return np.diag(r), T


@pytest.mark.parametrize("flavor", list(DihedralFlavor))
def test_orbit_matches_dense_generator_products(flavor):
    for n in range(1, 9):
        M, T = dense_generators(n, flavor)
        v = random_unit(n, seed=n)
        cols = []
        for x in (v, T @ v):
            for _ in range(n):
                cols.append(x)
                x = M @ x
        assert np.allclose(dihedral_orbit(v, flavor).vectors, np.column_stack(cols),
                           rtol=0.0, atol=1e-14)


def test_flavor_roots_and_their_rejections():
    assert flavor_roots(3, DihedralFlavor.STRICT) == tuple(RootIndex(3, k) for k in range(3))
    assert flavor_roots(3, DihedralFlavor.PROJECTIVE) == (
        RootIndex(6, 1), RootIndex(6, 3), RootIndex(6, 5))
    with pytest.raises(ValueError):
        flavor_roots(0, DihedralFlavor.STRICT)
    with pytest.raises(ValueError):
        flavor_roots(3, "strict")


def test_orbit_rejects_bad_seeds():
    with pytest.raises(ValueError):
        dihedral_orbit(np.zeros(3), DihedralFlavor.STRICT)
    with pytest.raises(ValueError):
        dihedral_orbit(2.0 * random_unit(3), DihedralFlavor.PROJECTIVE)


def test_orbit_gram_block_structure_matches_flavor():
    for n in (2, 3, 5):
        for flavor in DihedralFlavor:
            G = gram(dihedral_orbit(random_unit(n), flavor))
            rep = analyze_gram_structure(G)
            assert rep.flavor is flavor or rep.ambiguous


def test_strict_orbit_degenerates_at_n2():
    # the strict index-reversal generator fixes both coordinates at n = 2,
    # so the second half of the orbit repeats the first.
    v = random_unit(2)
    c = dihedral_orbit(v, DihedralFlavor.STRICT)
    assert np.allclose(c.vectors[:, :2], c.vectors[:, 2:])
    assert not is_regular(c) or abs(coherence(c) - 1.0) < 1e-9


def test_projective_orbit_regular_for_generic_seed():
    c = dihedral_orbit(random_unit(5, seed=99), DihedralFlavor.PROJECTIVE)
    assert is_regular(c)


def test_basis_seed_orbit_is_not_regular():
    # M is diagonal, so the first half of the orbit of a basis vector
    # spans only one dimension.
    e0 = np.zeros(4)
    e0[0] = 1.0
    c = dihedral_orbit(e0, DihedralFlavor.PROJECTIVE)
    assert not is_regular(c)


# ---------------------------------------------------------------------------
# structure analysis and factorization


def test_identity_structure_is_ambiguous():
    rep = analyze_gram_structure(GramMatrix(np.eye(4, dtype=complex)))
    assert rep.flavor is DihedralFlavor.STRICT
    assert rep.ambiguous


def test_unstructured_gram_reports_none():
    V = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    V /= np.linalg.norm(V, axis=0, keepdims=True)
    rep = analyze_gram_structure(gram(Configuration(V)))
    assert rep.flavor is None


def test_structure_needs_even_size():
    with pytest.raises(ValueError):
        analyze_gram_structure(GramMatrix(np.eye(3, dtype=complex)))


def test_configuration_from_gram_roundtrip():
    # factoring needs a tight rank-n Gram; the simplex provides one
    G = gram(simplex())
    c2 = configuration_from_gram(G, 2)
    assert c2.dimension == 2 and c2.count == 3
    assert np.allclose(gram(c2).values, G.values, atol=1e-8)


def test_configuration_from_gram_rejects_wrong_rank():
    G = GramMatrix(np.array([[1.0, 0.9], [0.9, 1.0]], dtype=complex))
    with pytest.raises(NotFactorableError):
        configuration_from_gram(G, 1)
    with pytest.raises(ValueError):
        configuration_from_gram(G, 0)
