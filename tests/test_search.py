"""Tests for enumeration and classification of two-negacirculant
solutions.

Frozen oracles, hand-checked once and pinned:
- the complete sorted (hex(a), hex(b)) solution lists for n = 2, 4, 6, 10;
- raw solution counts for n up to 24 (from 16 on, agreed between the
  streamed profile sweep and the earlier bucketed orbit sweep);
- class counts and symmetry tags for small n.

The independent brute-force enumerator provides an oracle for the
bit-sliced search at small n, testing the defining matrix identity
directly on every candidate pair.
"""

import concurrent.futures
import itertools
import math
import os

import numpy as np
import pytest

from skewframes import search
from skewframes.algebra import negacirculant
from skewframes.equiv import EquivalenceResult, _verify_certificate, are_equivalent, canonical_form
from skewframes.hadamard import hex_encode, is_skew_hadamard
from skewframes.paley import FiniteField, conj_double_paley_gram
from skewframes.search import (
    _CHUNK,
    SolutionRecord,
    _admissible_a,
    _decimations,
    _image,
    _nega_perm,
    _pack,
    _profile_codes,
    _shift,
    _sweep,
    _unpack,
    classify,
    enumerate,
    enumerate_2circulant,
    format_records,
    load_records,
    paley_reference_grams,
    record_gram,
)

from search_oracle import brute_force_enumerate, canonicalize_b

EXPECTED_PAIRS = {
    2: [("2", "3"), ("3", "3")],
    4: [("8", "D"), ("A", "F"), ("D", "F"), ("F", "D")],
    6: [("24", "3D"), ("2E", "3D"), ("31", "3D"), ("3B", "3D")],
    10: [("210", "353"), ("228", "3D9"), ("282", "3A3"), ("2BA", "3F3"),
         ("345", "3F3"), ("37D", "3A3"), ("3D7", "3D9"), ("3EF", "353")],
}

EXPECTED_RAW_COUNTS = {2: 2, 4: 4, 6: 4, 8: 16, 10: 8, 12: 24, 14: 4,
                       16: 48, 18: 0, 20: 32, 22: 20, 24: 112}


# ---------------------------------------------------------------------------
# bit-packed helpers


def twisted_rotate(v):
    return (-v[-1],) + tuple(v[:-1])


@pytest.mark.parametrize("v", [
    (1, 1), (1, -1), (-1, -1),
    (1, -1, -1, 1), (1, 1, 1, -1, -1, 1),
])
def test_pack_unpack_roundtrip(v):
    n = len(v)
    assert _unpack(_pack(v), n) == v


def test_shift_is_the_sign_twisted_rotation():
    # _shift(x, n, s) is S^s, for every s in 0..n
    rng = np.random.default_rng(3)
    for n in range(2, 11):
        assert _shift(_pack((-1,) * n), n) == _pack((1,) + (-1,) * (n - 1))
        words = rng.integers(0, 1 << n, size=8)
        for x in words.tolist():
            v = _unpack(x, n)
            for s in range(n + 1):
                assert _unpack(_shift(x, n, s), n) == v
                v = twisted_rotate(v)
        # the int64 array form agrees with the int form
        for s in range(n + 1):
            assert _shift(words, n, s).tolist() == [_shift(x, n, s) for x in words.tolist()]


def reference_profile_code(x, n, complement=False):
    """The profile code from inner products <v, S^s v> of the sign vector."""
    v, w, code = _unpack(x, n), _unpack(x, n), 0
    for _ in range(1, n // 2):
        w = twisted_rotate(w)
        p = (n - sum(a * b for a, b in zip(v, w))) // 2
        code = code * (n // 2 + 1) + ((n - p if complement else p) >> 1)
    return code


@pytest.mark.parametrize("n", range(4, 33, 2))
def test_profile_codes_match_inner_products(n):
    rng = np.random.default_rng(n)
    words = [0, 1 << (n - 1), (1 << n) - 1] + rng.integers(0, 1 << n, size=20).tolist()
    for complement in (False, True):
        want = [reference_profile_code(x, n, complement) for x in words]
        got = _profile_codes(np.array(words, dtype=np.int64), n, complement)
        assert got.dtype == np.int64 and got.tolist() == want
        assert int(_profile_codes(words[-1], n, complement)) == want[-1]


# ---------------------------------------------------------------------------
# canonical representatives


def test_canonicalize_b_frozen_example():
    assert canonicalize_b((-1, -1)) == (1, 1)


def test_canonicalize_b_is_orbit_invariant_and_idempotent():
    rng = np.random.default_rng(5)
    for n in (2, 4, 6, 8):
        for _ in range(10):
            v = tuple(int(s) for s in rng.choice([1, -1], size=n))
            c = canonicalize_b(v)
            assert canonicalize_b(c) == c
            assert canonicalize_b(tuple(-s for s in v)) == c
            w = v
            for _ in range(2 * n - 1):
                w = twisted_rotate(w)
                assert canonicalize_b(w) == c


def test_canonicalize_b_rejects_non_signs():
    with pytest.raises(ValueError):
        canonicalize_b((1, 0, -1))


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize("n", sorted(EXPECTED_PAIRS))
def test_enumerate_frozen_solution_lists(n):
    got = [(hex_encode(r.a), hex_encode(r.b)) for r in enumerate(n)]
    assert got == EXPECTED_PAIRS[n]


@pytest.mark.parametrize("n", sorted(EXPECTED_RAW_COUNTS))
def test_enumerate_counts_and_validity(n):
    records = enumerate(n)
    assert len(records) == EXPECTED_RAW_COUNTS[n]
    for r in records:
        assert r.a[0] == 1
        assert all(r.a[k] == r.a[n - k] for k in range(1, n))
        assert canonicalize_b(r.b) == r.b
        assert is_skew_hadamard(r.matrix())


def test_enumerate_rejects_bad_input():
    for bad in (0, 1, 3, 7, 34):
        with pytest.raises(ValueError):
            enumerate(bad)
    with pytest.raises(ValueError):
        enumerate(4, jobs=0)


@pytest.mark.parametrize("n,jobs", [(2, 2), (4, 3), (6, 2), (20, 2), (20, 3)])
def test_enumerate_sharded_agrees_with_serial(n, jobs):
    # at n = 20 (32 solutions) every shard spans several chunks, and the
    # jobs=3 shard bounds (2^17 / 3 candidates apart) fall inside chunks;
    # at n = 2 (1 candidate) and n = 4 (2 candidates) some shards are empty
    if n == 20:
        assert (1 << (n - 3)) // jobs >= 2 * _CHUNK
    serial = [(r.a, r.b) for r in enumerate(n)]
    sharded = [(r.a, r.b) for r in enumerate(n, jobs=jobs)]
    assert serial and serial == sharded


def test_enumerate_pool_is_capped_at_available_processors(monkeypatch):
    # a stand-in executor records its size and maps in this process, so
    # the test starts no worker
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # enumerate imports the executor inside its jobs > 1 branch, so the
    # stand-in goes where that import reads it from
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    serial = [(r.a, r.b) for r in enumerate(6)]
    assert [(r.a, r.b) for r in enumerate(6, jobs=64)] == serial
    assert [(r.a, r.b) for r in enumerate(6, jobs=2)] == serial
    assert sizes == [3, 2]


@pytest.mark.parametrize("n", range(2, 15, 2))
def test_orbit_maxima_are_odd_with_leading_bits_11(n):
    maxima = set()
    for x in range(1 << n):
        orbit = [x]
        for _ in range(2 * n - 1):
            orbit.append(_shift(orbit[-1], n))
        maxima.add(max(orbit))
    assert all(x % 2 == 1 and x >= 3 << (n - 2) for x in maxima)
    # the sweep over every candidate, with every profile code a target,
    # keeps exactly the maxima
    count = ((1 << (n - 2)) + 1) // 2
    targets = np.unique(search._profile_codes(np.arange(1 << n), n))
    swept = _sweep((n, (3 << (n - 2)) | 1, 0, count, targets))
    assert set(swept.tolist()) == maxima


# the shard from x = 0xF4D2C001 keeps 435 of its 2^10 candidates; the
# last shard (x up to 2^32 - 1) keeps them all
@pytest.mark.parametrize("lo", [0x1A696000, (1 << 29) - (1 << 10)])
def test_sweep_keeps_the_orbit_maxima_at_n_32(lo):
    # one shard of 2^10 candidates at the largest n, every profile code of
    # the shard a target; the encoding order of +-1 tuples is their
    # lexicographic order, so a pure-Python filter compares tuples
    n, hi = 32, lo + (1 << 10)
    base = (3 << (n - 2)) | 1
    assert hi <= ((1 << (n - 2)) + 1) // 2
    xs = [base + 2 * i for i in range(lo, hi)]
    maxima = []
    for x in xs:
        v = w = _unpack(x, n)
        for _ in range(2 * n - 1):
            w = twisted_rotate(w)
            if w > v:
                break
        else:
            maxima.append(x)
    targets = np.unique(_profile_codes(np.array(xs, dtype=np.int64), n))
    assert _sweep((n, base, lo, hi, targets)).tolist() == maxima


@pytest.mark.parametrize("n", range(2, 13, 2))
def test_admissible_a_matches_symmetric_rows(n):
    rows = [_pack((1,) + tail) for tail in itertools.product([-1, 1], repeat=n - 1)
            if all(tail[k - 1] == tail[n - k - 1] for k in range(1, n))]
    got = _admissible_a(n).tolist()
    assert len(got) == len(set(got)) == 1 << n // 2
    assert sorted(got) == sorted(rows)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_brute_force_oracle_agrees(n):
    assert brute_force_enumerate(n) == [(r.a, r.b) for r in enumerate(n)]


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_2circulant_search_is_empty(n):
    assert enumerate_2circulant(n) == []


def test_2circulant_bounds():
    with pytest.raises(ValueError):
        enumerate_2circulant(3)
    with pytest.raises(ValueError):
        enumerate_2circulant(14)


# ---------------------------------------------------------------------------
# classification


def test_paley_reference_availability():
    assert set(paley_reference_grams(2)) == {"P"}
    assert set(paley_reference_grams(4)) == {"P", "DP", "CDP"}
    assert set(paley_reference_grams(12)) == {"P", "DP", "CDP"}
    assert set(paley_reference_grams(16)) == {"P"}
    assert set(paley_reference_grams(18)) == set()


@pytest.mark.parametrize("n", [4, 8, 12])
def test_conjugate_reference_is_the_conjugate_double_paley_gram(n):
    cdp = paley_reference_grams(n)["CDP"]
    built = conj_double_paley_gram(FiniteField(n - 1))
    assert np.array_equal(cdp.values, built.values)
    assert np.array_equal(cdp.exact_view, built.exact_view)


@pytest.mark.parametrize("n,count,types", [
    (2, 1, [("P",)]),
    (4, 1, [("P", "DP", "CDP")]),
    (6, 1, [("P",)]),
    (8, 2, [("DP",), ("CDP",)]),
    (10, 1, [("P",)]),
    (12, 3, [("P",), ("CDP",), ("DP",)]),
    (14, 1, [("P",)]),
])
def test_classify_small_n(n, count, types):
    records = classify(n)
    assert len(records) == count
    assert [r.class_id for r in records] == list(range(1, count + 1))
    assert [r.all_types for r in records] == types
    for r in records:
        expect = r.all_types[0] if r.all_types else None
        assert r.symmetry_type == expect


def test_classify_accepts_explicit_solutions():
    sols = enumerate(4)
    # restricting to a single solution still yields its class
    records = classify(4, solutions=sols[:1])
    assert len(records) == 1
    assert records[0].a_hex == "8"
    assert records[0].b_hex == "D"
    assert records[0].symmetry_type == "P"


# ---------------------------------------------------------------------------
# symmetry orbits


def test_nega_perm_decimates_and_shifts_negacirculants():
    rng = np.random.default_rng(6)
    for n in (4, 6, 8):
        v = tuple(int(s) for s in rng.choice([1, -1], size=n))
        ext = v + tuple(-s for s in v)  # nega-periodic extension
        N = negacirculant(v).real
        for k in range(1, 2 * n, 2):
            if math.gcd(k, n) == 1:
                R = _nega_perm(n, k)
                decimated = [ext[k * j % (2 * n)] for j in range(n)]
                assert np.array_equal(R @ N @ R.T, negacirculant(decimated).real)
        w = v
        for t in range(2 * n):
            assert np.array_equal(_nega_perm(n, 1, t) @ N, negacirculant(w).real)
            w = twisted_rotate(w)


@pytest.mark.parametrize("n", [8, 12, 16])
def test_symmetry_images_are_solutions_with_verified_certificates(n):
    sols = enumerate(n)
    by_pair = {(s.a, s.b): s for s in sols}
    eye = np.eye(n, dtype=np.int64)
    alternation = np.diag([(-1) ** j for j in range(n)])
    # the alternation is the decimation by n + 1, so _decimations has it
    assert np.array_equal(_nega_perm(n, n + 1), alternation)
    decimations = _decimations(n)
    assert len(decimations) == sum(math.gcd(k, 2 * n) == 1 for k in range(2 * n))
    generators = [(R, R) for R in decimations] + [(alternation, alternation), (eye, -eye)]
    for s in sols:
        G = record_gram(s)
        for X, Y in generators:
            pair, cert = _image(s.matrix(), X, Y)
            assert pair in by_pair
            assert _verify_certificate(cert, G, record_gram(by_pair[pair]))
        # negating b is undone by canonicalize_b: the image is s itself
        assert _image(s.matrix(), eye, -eye)[0] == (s.a, s.b)


def pairwise_classes(solutions):
    """Reference classification: every solution against every class
    representative so far, first member in input order represents."""
    reps = []
    for s in solutions:
        G = record_gram(s)
        if not any(are_equivalent(record_gram(r), G, assume_transitive=True).equivalent
                   for r in reps):
            reps.append(s)
    return [(hex_encode(r.a), hex_encode(r.b)) for r in reps]


@pytest.mark.parametrize("n", [8, 12])
def test_classify_matches_pairwise_classification(n):
    given = list(reversed(enumerate(n)))
    records = classify(n, solutions=reversed(enumerate(n)))
    assert [(r.a_hex, r.b_hex) for r in records] == pairwise_classes(given)
    assert [r.class_id for r in records] == list(range(1, len(records) + 1))
    assert sorted(r.all_types for r in records) == sorted(r.all_types for r in classify(n))


def test_classify_joins_orbits_finer_than_classes(monkeypatch):
    expected = classify(8)
    # with the identity as the only decimation every solution is its own orbit
    monkeypatch.setattr(search, "_decimations", lambda n: [_nega_perm(n, 1)])
    assert classify(8) == expected


def test_classify_compares_only_orbit_roots(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return are_equivalent(*args, **kwargs)

    monkeypatch.setattr(search, "are_equivalent", counting)
    records = classify(16)
    assert len(records) == 3
    # the three orbit roots have distinct canonical keys, so the only
    # calls are the P reference's, at most one per class
    reference = paley_reference_grams(16)["P"]
    for G0, G1 in calls:
        if not any(np.array_equal(G.values, reference.values) for G in (G0, G1)):
            assert canonical_form(G0).key == canonical_form(G1).key
    assert len(calls) <= 3


def test_classify_raises_when_equal_keys_are_not_confirmed(monkeypatch):
    # with the identity as the only decimation, equivalent solutions reach
    # are_equivalent as separate orbit roots with equal keys
    monkeypatch.setattr(search, "_decimations", lambda n: [_nega_perm(n, 1)])
    monkeypatch.setattr(search, "are_equivalent",
                        lambda *args, **kwargs: EquivalenceResult(False, None))
    with pytest.raises(RuntimeError):
        classify(8)


def test_classify_rejects_solutions_of_another_size():
    with pytest.raises(ValueError):
        classify(6, solutions=enumerate(4))


def test_record_gram_accepts_both_record_kinds():
    sol = enumerate(4)[0]
    rec = classify(4)[0]
    G1 = record_gram(sol)
    G2 = record_gram(rec)
    assert np.array_equal(G1.exact_view, G2.exact_view)


# ---------------------------------------------------------------------------
# persistence


def test_save_load_roundtrip(tmp_path):
    records = [
        SolutionRecord(4, "8", "D", "P", 1),
        SolutionRecord(16, "F227", "FBAD", None, 2),
    ]
    path = tmp_path / "records.tsv"
    path.write_text(format_records(records), encoding="utf-8")
    text = path.read_text(encoding="utf-8")
    assert text.splitlines() == ["4\t8\tD\tP\t1", "16\tF227\tFBAD\t-\t2"]
    loaded = load_records(path)
    assert [(r.n, r.a_hex, r.b_hex, r.symmetry_type, r.class_id) for r in loaded] \
        == [(4, "8", "D", "P", 1), (16, "F227", "FBAD", None, 2)]


def test_load_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("4\t8\tD\tP\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_records(path)
