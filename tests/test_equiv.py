"""Tests for monomial equivalence of exact-view ETF Gram matrices.

Strategy: the engine must (a) recognize a gram as equivalent to any of
its own monomial transforms and return a verifying certificate, and
(b) split reference grams that belong to different classes.  Transforms
are generated with phases in {1, -1, i, -i} so the exact integer view
survives the conjugation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewframes.equiv import (
    EquivalenceCertificate,
    NotEtfGramError,
    _certificate_from,
    _codes,
    _find_permutation,
    _row_signatures,
    _verify_certificate,
    _wl_colors,
    are_equivalent,
    equivalence_fingerprint,
    normalize,
)
from skewframes.frames import GramMatrix
from skewframes.paley import FiniteField, paley_gram

from reference_rows import FULL_ROWS, row_gram

ROW_BY_KEY = {(r[0], r[1], r[2]): r for r in FULL_ROWS}


def units(rng, N):
    return tuple(rng.choice([1, -1, 1j, -1j]) for _ in range(N))


def random_certificate(rng, N):
    perm = tuple(int(x) for x in rng.permutation(N))
    return EquivalenceCertificate(perm, units(rng, N))


# ---------------------------------------------------------------------------
# normalization


def test_normalize_produces_all_ones_border():
    G = row_gram(ROW_BY_KEY[(6, "24", "02")])
    for anchor in (0, 3, 11):
        ng = normalize(G, anchor)
        N = G.size
        assert ng.order[0] == anchor
        assert np.all(ng.exact[0, 1:] == 1)
        assert np.all(ng.exact[1:, 0] == 1)
        assert np.all(np.diag(ng.exact) == 0)
        # normalization is itself a monomial equivalence
        res = are_equivalent(G, ng.gram)
        assert res.equivalent


def test_normalize_rejects_bad_anchor_and_non_etf_gram():
    G = row_gram(ROW_BY_KEY[(2, "2", "0")])
    with pytest.raises(ValueError):
        normalize(G, anchor=99)
    with pytest.raises(NotEtfGramError):
        normalize(GramMatrix(np.eye(4)))


# ---------------------------------------------------------------------------
# certificates


def test_certificate_apply_identity():
    G = row_gram(ROW_BY_KEY[(4, "8", "2")])
    N = G.size
    cert = EquivalenceCertificate(tuple(range(N)), (1.0 + 0j,) * N)
    H = cert.apply(G)
    assert np.allclose(H.values, G.values)
    assert np.array_equal(H.exact_scaled, G.exact_scaled)


def test_self_equivalence_returns_verifying_certificate():
    G = row_gram(ROW_BY_KEY[(6, "24", "02")])
    res = are_equivalent(G, G)
    assert res.equivalent
    mapped = res.certificate.apply(G)
    assert np.allclose(mapped.values, G.values, atol=1e-9)


@pytest.mark.parametrize("key", [(2, "2", "0"), (4, "8", "2"), (6, "24", "02"),
                                 (8, "F7", "ED"), (10, "3EF", "353")])
def test_monomial_transforms_are_recognized(key):
    G = row_gram(ROW_BY_KEY[key])
    rng = np.random.default_rng(sum(ord(c) for c in key[1] + key[2]))
    for trial in range(4):
        H = random_certificate(rng, G.size).apply(G)
        res = are_equivalent(G, H)
        assert res.equivalent
        mapped = res.certificate.apply(G)
        assert np.allclose(mapped.values, H.values, atol=1e-9)
        assert np.array_equal(mapped.exact_scaled, H.exact_scaled)


def dense_certificate(ng0, ng1, sigma, N):
    """Oracle: the monomial matrix P1^T D1* L D0 P0 built densely, read
    back column by column."""
    P0, P1, L = np.zeros((N, N)), np.zeros((N, N)), np.zeros((N, N))
    P0[np.arange(N), ng0.order] = 1.0
    P1[np.arange(N), ng1.order] = 1.0
    for u, k in sigma.items():
        L[k, u] = 1.0
    D0, D1 = np.diag(ng0.phases), np.diag(ng1.phases)
    Pi = P1.T @ D1.conj().T @ L @ D0 @ P0
    perm = tuple(int(np.argmax(np.abs(Pi[:, j]))) for j in range(N))
    phases = [0j] * N
    for j, i in enumerate(perm):
        phases[i] = complex(Pi[i, j])
    return perm, tuple(phases)


@pytest.mark.parametrize("anchor", [3, 7])
def test_certificate_composition_matches_the_dense_product(anchor):
    G = row_gram(ROW_BY_KEY[(8, "F7", "ED")])
    N = G.size
    H = random_certificate(np.random.default_rng(anchor), N).apply(G)
    ng0, ng1 = normalize(G, 0), normalize(H, anchor)
    col0, col1 = (_wl_colors(_codes(ng.exact))[0] for ng in (ng0, ng1))
    sigma = _find_permutation(col0, col1, _row_signatures(col0), _row_signatures(col1))
    assert sigma is not None
    cert = _certificate_from(ng0, ng1, sigma, N)
    assert (cert.permutation, cert.phases) == dense_certificate(ng0, ng1, sigma, N)
    assert _verify_certificate(cert, G, H)


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_monomial_transforms_hypothesis(data):
    G = row_gram(ROW_BY_KEY[(4, "8", "2")])
    N = G.size
    perm = tuple(data.draw(st.permutations(range(N))))
    phases = tuple(data.draw(
        st.lists(st.sampled_from([1, -1, 1j, -1j]), min_size=N, max_size=N)))
    H = EquivalenceCertificate(perm, phases).apply(G)
    res = are_equivalent(G, H, assume_transitive=True)
    assert res.equivalent
    assert np.allclose(res.certificate.apply(G).values, H.values, atol=1e-9)


def test_transform_then_conjugate_of_asymmetric_class_is_inequivalent():
    # the two n = 8 reference classes differ only in the b-vector but
    # are genuinely inequivalent
    G_dp = row_gram(ROW_BY_KEY[(8, "F7", "ED")])
    G_cdp = row_gram(ROW_BY_KEY[(8, "F7", "E9")])
    assert not are_equivalent(G_dp, G_cdp, assume_transitive=True).equivalent
    # and a monomial transform cannot change that
    H = random_certificate(np.random.default_rng(1), G_dp.size).apply(G_dp)
    assert not are_equivalent(H, G_cdp, assume_transitive=True).equivalent


def test_inequivalent_pairs_at_n_12():
    keys = [(12, "F77", "F4D"), (12, "E8B", "F7B"), (12, "E8B", "F79")]
    grams = [row_gram(ROW_BY_KEY[k]) for k in keys]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not are_equivalent(grams[i], grams[j],
                                      assume_transitive=True).equivalent


def test_size_mismatch_raises():
    G_small = row_gram(ROW_BY_KEY[(2, "2", "0")])
    G_big = row_gram(ROW_BY_KEY[(4, "8", "2")])
    with pytest.raises(ValueError):
        are_equivalent(G_small, G_big)


def test_paley_gram_is_equivalent_to_its_conjugate():
    G = paley_gram(FiniteField(3))
    res = are_equivalent(G, G.conjugated())
    assert res.equivalent
    assert np.allclose(res.certificate.apply(G).values,
                       G.values.conj(), atol=1e-9)


# ---------------------------------------------------------------------------
# fingerprints: invariants for bucketing, never proofs of equivalence


def test_fingerprint_is_invariant_under_monomial_transforms():
    G = row_gram(ROW_BY_KEY[(8, "F7", "ED")])
    fp = equivalence_fingerprint(G)
    assert fp[0] == G.size
    rng = np.random.default_rng(9)
    for _ in range(3):
        H = random_certificate(rng, G.size).apply(G)
        assert equivalence_fingerprint(H) == fp
