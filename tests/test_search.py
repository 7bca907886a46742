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

import numpy as np
import pytest

from skewframes.hadamard import hex_encode, is_skew_hadamard
from skewframes.search import (
    _CHUNK,
    SolutionRecord,
    _correlation_popcounts,
    _pack,
    _shift,
    _unpack,
    brute_force_enumerate,
    canonicalize_b,
    classify,
    enumerate,
    enumerate_2circulant,
    load_records,
    paley_reference_grams,
    record_gram,
    save_records,
)

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
    rng = np.random.default_rng(3)
    for n in (2, 4, 6, 10):
        for _ in range(10):
            v = tuple(int(s) for s in rng.choice([1, -1], size=n))
            assert _unpack(_shift(_pack(v), n), n) == twisted_rotate(v)


def test_correlation_popcounts_match_inner_products():
    rng = np.random.default_rng(4)
    for n in (4, 6, 8):
        for _ in range(10):
            v = tuple(int(s) for s in rng.choice([1, -1], size=n))
            x = _pack(v)
            pops = _correlation_popcounts(x, n, n - 1)
            w = v
            for s in range(1, n):
                w = twisted_rotate(w)
                inner = sum(a * b for a, b in zip(v, w))
                assert inner == n - 2 * pops[s - 1]


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
    for bad in (0, 1, 3, 7, 32):
        with pytest.raises(ValueError):
            enumerate(bad)
    with pytest.raises(ValueError):
        enumerate(4, jobs=0)


@pytest.mark.parametrize("n,jobs", [(6, 2), (20, 2), (20, 3)])
def test_enumerate_sharded_agrees_with_serial(n, jobs):
    # at n = 20 (32 solutions) every shard spans several chunks, and the
    # jobs=3 shard bounds (2^19 / 3 apart) fall inside chunks
    if n == 20:
        assert (1 << (n - 1)) // jobs >= 2 * _CHUNK
    serial = [(r.a, r.b) for r in enumerate(n)]
    sharded = [(r.a, r.b) for r in enumerate(n, jobs=jobs)]
    assert serial and serial == sharded


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


def test_record_gram_accepts_both_record_kinds():
    sol = enumerate(4)[0]
    rec = classify(4)[0]
    G1 = record_gram(sol)
    G2 = record_gram(rec)
    assert np.array_equal(G1.exact_scaled, G2.exact_scaled)


# ---------------------------------------------------------------------------
# persistence


def test_save_load_roundtrip(tmp_path):
    records = [
        SolutionRecord(4, "8", "D", "P", 1),
        SolutionRecord(16, "F227", "FBAD", None, 2),
    ]
    path = tmp_path / "records.tsv"
    save_records(records, path)
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
