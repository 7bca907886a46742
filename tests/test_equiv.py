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

from skewframes import search
from skewframes.equiv import (
    EquivalenceCertificate,
    NotEtfGramError,
    _anchored,
    _certificate_from,
    _codes,
    _individualize,
    _refine,
    _verify_certificate,
    are_equivalent,
    canonical_form,
    equivalence_fingerprint,
    normalize,
)
from skewframes.frames import GramMatrix
from skewframes.paley import FiniteField, double_paley_gram, paley_gram

from equiv_oracle import oracle_equivalent, oracle_sigma
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
        normalized = GramMatrix(np.eye(N) + ng.exact / np.sqrt(N - 1), exact_scaled=ng.exact)
        res = are_equivalent(G, normalized)
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
    assert np.array_equal(H.exact_view, G.exact_view)


@pytest.mark.parametrize("permutation,phases", [
    ((0, 1, 2, 3, 4, 5, 6, 6), (1,) * 8),   # repeats 6, never writes row 7
    ((0, 1, 2, 3, 4, 5, 6, 8), (1,) * 8),   # out of range
    ((0, 1, 2, 3, 4, 5, 6), (1,) * 7),      # too short
    (tuple(range(8)), (1,) * 7),            # one phase missing
])
def test_certificate_apply_rejects_a_non_permutation(permutation, phases):
    # filling np.empty_like through np.ix_ would leave unwritten entries
    G = search.paley_reference_grams(4)["P"]
    with pytest.raises(ValueError, match="permutation of range"):
        EquivalenceCertificate(permutation, phases).apply(G)


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
        assert np.array_equal(mapped.exact_view, H.exact_view)


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
    sigma = oracle_sigma(ng0, ng1)
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
# fingerprints: the root trace of the canonical search


def test_fingerprint_is_invariant_under_monomial_transforms():
    G = row_gram(ROW_BY_KEY[(8, "F7", "ED")])
    fp = equivalence_fingerprint(G)
    assert fp[0] == G.size
    rng = np.random.default_rng(9)
    for _ in range(3):
        H = random_certificate(rng, G.size).apply(G)
        assert equivalence_fingerprint(H) == fp


def _roots_and_references(n):
    sols = search.enumerate(n)
    grams = [search.record_gram(s) for s in sols]
    roots = sorted(set(search._symmetry_orbits(n, sols, grams)))
    return grams, [grams[i] for i in roots] + list(search.paley_reference_grams(n).values())


@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_fingerprint_is_the_first_entry_of_the_canonical_key(n):
    for G in _roots_and_references(n)[1]:
        assert equivalence_fingerprint(G) == (G.size, canonical_form(G).key[0])


@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_fingerprint_has_one_value_per_n(n):
    # the traced benchmark expects one distinct value per n
    grams, references = _roots_and_references(n)
    pool = grams + [G.conjugated() for G in grams] + references
    assert len({equivalence_fingerprint(G) for G in pool}) == 1


# ---------------------------------------------------------------------------
# canonical forms: refinement, invariance, agreement with the oracle


def test_refine_commutes_with_relabeling():
    G = search.paley_reference_grams(12)["P"]
    codes = _codes(normalize(G).exact)
    N = len(codes)
    start = _anchored(N)
    rng = np.random.default_rng(12)
    for colors in (start, _individualize(_refine(codes, start)[0], 5)):
        refined, trace = _refine(codes, colors)
        assert set(refined.tolist()) == set(range(int(refined.max()) + 1))  # ranks
        p = np.concatenate(([0], 1 + rng.permutation(N - 1)))  # new vertex i is old p[i]
        moved, moved_trace = _refine(codes[p][:, p], colors[p])
        assert np.array_equal(moved, refined[p])
        assert moved_trace == trace
        # the result refines the input and keeps an individualized vertex's rank
        assert np.all(np.diff(colors[np.argsort(refined, kind="stable")]) >= 0)
        assert refined[0] == 0


def test_canonical_labeling_relabels_onto_one_matrix():
    G = row_gram(ROW_BY_KEY[(8, "F7", "ED")])
    H = random_certificate(np.random.default_rng(4), G.size).apply(G)
    forms = [canonical_form(G), canonical_form(H)]
    relabeled = []
    for form in forms:
        perm = np.argsort(form.labeling)
        relabeled.append(_codes(form.normalized.exact)[perm][:, perm])
    assert forms[0].key == forms[1].key
    assert forms[0].key[-1] == relabeled[0].tobytes()
    assert np.array_equal(relabeled[0], relabeled[1])
    assert forms[0].labeling[0] == forms[1].labeling[0] == 0


PALEY_GRAMS = [(8, "DP"), (8, "CDP"), (12, "P"), (12, "DP"), (12, "CDP")]
_PALEY_KEYS: dict = {}


@pytest.mark.parametrize("n,tag", PALEY_GRAMS)
@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_canonical_key_is_invariant_under_monomial_transforms(n, tag, data):
    G = search.paley_reference_grams(n)[tag]
    if (n, tag) not in _PALEY_KEYS:
        _PALEY_KEYS[n, tag] = canonical_form(G).key
    N = G.size
    perm = tuple(data.draw(st.permutations(range(N))))
    phases = tuple(data.draw(
        st.lists(st.sampled_from([1, -1, 1j, -1j]), min_size=N, max_size=N)))
    H = EquivalenceCertificate(perm, phases).apply(G)
    # Paley-type grams are vertex transitive, so any anchor gives the same key
    assert canonical_form(H).key == _PALEY_KEYS[n, tag]


def test_full_anchor_scan_finds_a_transform_that_moves_vertex_0():
    G = search.paley_reference_grams(12)["DP"]
    N = G.size
    rng = np.random.default_rng(21)
    perm = tuple(int(x) for x in rng.permutation(N))
    assert perm[0] != 0
    H = EquivalenceCertificate(perm, units(rng, N)).apply(G)
    res = are_equivalent(G, H, assume_transitive=False)
    assert res.equivalent
    assert _verify_certificate(res.certificate, G, H)
    assert not are_equivalent(G, G.conjugated(), assume_transitive=False).equivalent


def test_float_noise_does_not_fail_verification():
    G = double_paley_gram(FiniteField(7))
    E = 1e-8 * np.random.default_rng(7).uniform(-1, 1, (G.size, G.size))
    E = E + E.T
    np.fill_diagonal(E, 0)
    noisy = GramMatrix(G.values + E)
    res = are_equivalent(G, noisy, assume_transitive=True)
    assert res.equivalent
    assert _verify_certificate(res.certificate, G, noisy)


def test_verify_certificate_rejects_a_wrong_phase_or_permutation():
    G = row_gram(ROW_BY_KEY[(8, "F7", "ED")])
    N = G.size
    cert = random_certificate(np.random.default_rng(5), N)
    H = cert.apply(G)
    assert _verify_certificate(cert, G, H)
    perm, phases = list(cert.permutation), list(cert.phases)
    negated = phases[:3] + [-phases[3]] + phases[4:]
    rotated = phases[:3] + [(1 + 1j) / np.sqrt(2)] + phases[4:]
    swapped = perm[:]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    # the swap is no automorphism: its image differs from H at the float level too
    assert not np.allclose(EquivalenceCertificate(tuple(swapped), cert.phases).apply(G).values,
                           H.values)
    for bad in (EquivalenceCertificate(cert.permutation, tuple(negated)),
                EquivalenceCertificate(cert.permutation, tuple(rotated)),
                EquivalenceCertificate(tuple(swapped), cert.phases)):
        assert not _verify_certificate(bad, G, H)


def test_unverified_certificate_is_an_internal_error(monkeypatch):
    G = row_gram(ROW_BY_KEY[(4, "8", "2")])
    monkeypatch.setattr("skewframes.equiv._verify_certificate", lambda *args: False)
    with pytest.raises(RuntimeError):
        are_equivalent(G, G)


@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_canonical_keys_agree_with_the_backtracking_oracle(n):
    # every pair of orbit roots and Paley references: equal keys exactly
    # when the oracle finds an equivalence, and each match verifies
    pool = _roots_and_references(n)[1]
    keys = [canonical_form(G).key for G in pool]
    matches = 0
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            equal = keys[i] == keys[j]
            assert equal == (oracle_equivalent(pool[i], pool[j]) is not None)
            res = are_equivalent(pool[i], pool[j], assume_transitive=True)
            assert res.equivalent == equal
            if equal:
                matches += 1
                assert _verify_certificate(res.certificate, pool[i], pool[j])
    assert matches > 0
