"""Acceptance gate: one test per shipped criterion, each with pinned
tolerances and runtime budgets.  Every test prints a single
"criterion NN: PASS" line on success; a failure shows up as the test's
FAILED line.

Reference data lives in reference_rows.py.  Classification criteria
match computed classes to reference rows by Gram-matrix equivalence,
never by string equality of the stored hex encodings: any orbit
representative is an equally valid name for a class.
"""

import time

import numpy as np
import pytest

from skewframes.algebra import (
    CycloPoly,
    cyclo_add,
    cyclo_conj_transpose,
    cyclo_equal,
    cyclo_identity,
    cyclo_is_zero,
    cyclo_matmul,
    cyclo_trace,
    cyclotomic_idempotent_exact,
    nega_cyclotomic_idempotent_exact,
)
from skewframes.equiv import EquivalenceCertificate, are_equivalent
from skewframes.frames import (
    DihedralFlavor,
    analyze_gram_structure,
    coherence,
    configuration_from_gram,
    dihedral_orbit,
    gram,
    is_etf,
    is_regular,
)
from skewframes.grambuild import (
    SpectralPartition,
    exact_ring_order,
    full_root_set,
    is_regular_gram,
    random_exact_pairs,
    tight_idempotent_exact,
)
from skewframes.hadamard import block_etf_gram, etf_gram, is_skew_hadamard
from skewframes.numopt import MinimizeConfig, discover, minimize_fiducial
from skewframes.paley import (
    FiniteField,
    conj_double_paley_gram,
    double_paley_gram,
    paley_gram,
    paley_hadamard,
)
from skewframes import enumerate_solutions
from skewframes.search import SolutionRecord, classify, enumerate_2circulant, record_gram

from reference_rows import (
    EXPECTED_CLASS_COUNTS,
    FULL_ROWS,
    PARTIAL_ROWS,
    decode_row,
    row_gram,
    rows_for,
)


def _report(k: int, detail: str):
    print(f"criterion {k:02d}: PASS - {detail}")


def _verify_row(row):
    """Criterion-1-style checks for one reference row."""
    n = row[0]
    solution = decode_row(row)
    H = solution.matrix()
    assert is_skew_hadamard(H), f"row {row[:3]} is not skew Hadamard"
    G = block_etf_gram(H)
    config = configuration_from_gram(G, n)
    assert is_etf(config, rel_tol=1e-9), f"row {row[:3]} fails the ETF check"
    assert is_regular(config), f"row {row[:3]} is not regular"


def _match_rows_to_classes(n, records):
    """Bijection between reference rows and computed classes via Gram
    equivalence, with matching symmetry types; returns nothing, asserts
    everything."""
    refs = rows_for(n)
    assert len(records) == len(refs), \
        f"n={n}: {len(records)} classes, expected {len(refs)}"
    used = set()
    for ref in refs:
        G_ref = row_gram(ref)
        hits = [
            i for i, rec in enumerate(records)
            if i not in used
            and are_equivalent(G_ref, record_gram(rec),
                               assume_transitive=True).equivalent
        ]
        assert len(hits) == 1, \
            f"n={n}: reference row {ref[:3]} matched {len(hits)} classes"
        i = hits[0]
        used.add(i)
        ref_types = ref[3]
        if len(ref_types) > 1:
            assert records[i].all_types == ref_types, \
                f"n={n}: class {i} types {records[i].all_types} != {ref_types}"
        elif len(ref_types) == 1:
            assert records[i].symmetry_type == ref_types[0], \
                f"n={n}: class {i} type {records[i].symmetry_type} != {ref_types[0]}"
        else:
            assert records[i].symmetry_type is None, \
                f"n={n}: class {i} unexpectedly typed {records[i].symmetry_type}"
    assert len(used) == len(records)


def test_criterion_01_reference_table_rows_verify_exactly():
    t0 = time.monotonic()
    for row in FULL_ROWS:
        _verify_row(row)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f} s, budget 10 s"
    _report(1, f"{len(FULL_ROWS)} rows verified in {elapsed:.2f} s "
               "(skew exact, ETF at 1e-9, regular)")


def test_criterion_02_complete_classification_through_n_14():
    t0 = time.monotonic()
    counts = []
    for n in (2, 4, 6, 8, 10, 12, 14):
        records = classify(n)
        counts.append(len(records))
        assert len(records) == EXPECTED_CLASS_COUNTS[n], \
            f"n={n}: {len(records)} classes, expected {EXPECTED_CLASS_COUNTS[n]}"
        _match_rows_to_classes(n, records)
    elapsed = time.monotonic() - t0
    assert counts == [1, 1, 1, 2, 1, 3, 1]
    assert elapsed < 600.0, f"took {elapsed:.1f} s, budget 600 s"
    _report(2, f"counts {counts} with row-for-row types in {elapsed:.2f} s")


def test_criterion_03_no_solutions_at_n_18():
    t0 = time.monotonic()
    solutions = enumerate_solutions(18)
    elapsed = time.monotonic() - t0
    assert solutions == []
    assert elapsed < 1800.0, f"took {elapsed:.1f} s, budget 1800 s"
    _report(3, f"enumerate(18) empty in {elapsed:.2f} s")


def test_criterion_04_extended_classification_16_20_22():
    t0 = time.monotonic()

    records16 = classify(16)
    assert len(records16) == 3
    types16 = sorted((r.symmetry_type or "-") for r in records16)
    assert types16 == ["-", "-", "P"], f"n=16 types {types16}"
    _match_rows_to_classes(16, records16)

    records20 = classify(20)
    assert len(records20) == 2
    assert sorted(r.symmetry_type for r in records20) == ["CDP", "DP"]
    _match_rows_to_classes(20, records20)

    records22 = classify(22)
    assert len(records22) == 1
    assert records22[0].symmetry_type == "P"
    _match_rows_to_classes(22, records22)

    elapsed = time.monotonic() - t0
    assert elapsed < 5400.0, f"took {elapsed:.1f} s, budget 5400 s"
    _report(4, f"classes 3 (one P) / 2 (DP, CDP) / 1 (P) in {elapsed:.2f} s")


def test_criterion_05_partial_table_rows_verify_exactly():
    t0 = time.monotonic()
    for row in PARTIAL_ROWS:
        _verify_row(row)
    elapsed = time.monotonic() - t0
    _report(5, f"{len(PARTIAL_ROWS)} rows (n = 24, 26, 28) verified "
               f"in {elapsed:.2f} s")


def test_criterion_06_two_circulant_search_is_empty():
    t0 = time.monotonic()
    for n in (2, 4, 6, 8):
        assert enumerate_2circulant(n) == [], f"n={n} unexpectedly nonempty"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f} s, budget 60 s"
    _report(6, f"n in {{2, 4, 6, 8}} all empty in {elapsed:.2f} s")


def test_criterion_07_paley_family():
    t0 = time.monotonic()
    fields = {3: FiniteField(3), 7: FiniteField(7), 11: FiniteField(11),
              19: FiniteField(19), 23: FiniteField(23), 27: FiniteField(3, 3)}
    for q, field in fields.items():
        H = paley_hadamard(field)
        assert is_skew_hadamard(H), f"q={q} not skew Hadamard"
        G = paley_gram(field)
        config = configuration_from_gram(G, (q + 1) // 2)
        assert abs(coherence(config) - 1.0 / np.sqrt(q)) < 1e-12, \
            f"q={q} coherence off"
    for q in (3, 7, 11):
        G = paley_gram(fields[q])
        res = are_equivalent(G, G.conjugated())
        assert res.equivalent, f"q={q}: gram not equivalent to its conjugate"
    dp = double_paley_gram(fields[7])
    cdp = conj_double_paley_gram(fields[7])
    # full anchor scan on purpose: this inequivalence must not lean on
    # the transitivity shortcut
    assert not are_equivalent(dp, cdp).equivalent
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f} s, budget 120 s"
    _report(7, "six fields exact, coherence at 1e-12, conj-equivalence for "
               f"q <= 11, doubled pair split apart, {elapsed:.2f} s")


def test_criterion_08_uniform_and_block_grams_are_diagonally_equivalent():
    t0 = time.monotonic()
    for row in FULL_ROWS:
        n = row[0]
        H = decode_row(row).matrix()
        G_uniform = etf_gram(H)
        G_block = block_etf_gram(H)
        cert = EquivalenceCertificate(
            permutation=tuple(range(2 * n)),
            phases=(1.0 + 0j,) * n + (1j,) * n)
        mapped = cert.apply(G_uniform)
        assert np.array_equal(mapped.exact_view, G_block.exact_view), \
            f"row {row[:3]}: diag(I, iI) does not map the exact views"
        assert np.allclose(mapped.values, G_block.values, atol=1e-12)
        assert are_equivalent(G_block, G_uniform,
                              assume_transitive=True).equivalent
    elapsed = time.monotonic() - t0
    _report(8, f"diag(I, iI) certificate exact on all {len(FULL_ROWS)} "
               f"assemblies, engine agrees, {elapsed:.2f} s")


def _exact_idempotent_system(n, flavor):
    part = SpectralPartition(n, flavor, full_root_set(n, flavor))
    order = exact_ring_order(part)
    build = (cyclotomic_idempotent_exact if flavor is DihedralFlavor.STRICT
             else nega_cyclotomic_idempotent_exact)
    roots = sorted(part.mixed, key=lambda w: (w.order, w.index))
    return order, [build(n, z, ring_order=order) for z in roots]


def _random_partition(rng):
    """Random conjugation-closed partition with |full| == |empty|,
    sampled by pairing same-size conjugation orbits."""
    n = int(rng.integers(1, 7))
    flavor = (DihedralFlavor.STRICT if rng.integers(0, 2) == 0
              else DihedralFlavor.PROJECTIVE)
    orbits = []
    seen = set()
    for z in sorted(full_root_set(n, flavor), key=lambda w: (w.order, w.index)):
        if z in seen:
            continue
        orb = frozenset({z, z.conjugate()})
        seen |= orb
        orbits.append(orb)
    mixed = set().union(*orbits)
    by_size = {}
    for orb in orbits:
        by_size.setdefault(len(orb), []).append(orb)
    full, empty = set(), set()
    for group in by_size.values():
        while len(group) >= 2 and rng.integers(0, 2) == 1:
            a, b = group.pop(), group.pop()
            mixed -= a | b
            full |= a
            empty |= b
    return SpectralPartition(n, flavor, frozenset(mixed),
                             frozenset(full), frozenset(empty))


def test_criterion_09_property_suites():
    t0 = time.monotonic()

    # (a) exact idempotent systems: completeness and pairwise
    # orthogonality for n <= 16, both flavors
    for flavor in (DihedralFlavor.STRICT, DihedralFlavor.PROJECTIVE):
        for n in range(1, 17):
            order, mats = _exact_idempotent_system(n, flavor)
            total = mats[0]
            for M in mats[1:]:
                total = cyclo_add(total, M)
            assert cyclo_equal(total, cyclo_identity(order, n)), \
                f"{flavor} n={n}: idempotents do not resolve the identity"
            for i in range(len(mats)):
                assert cyclo_equal(cyclo_matmul(mats[i], mats[i]), mats[i]), \
                    f"{flavor} n={n}: root {i} not idempotent"
                for j in range(i + 1, len(mats)):
                    assert cyclo_is_zero(cyclo_matmul(mats[i], mats[j])), \
                        f"{flavor} n={n}: roots {i},{j} not orthogonal"
    t_a = time.monotonic() - t0

    # (b) orbit Gram block structure for 100 random fiducials per
    # flavor per n in 2..8
    rng = np.random.default_rng(2024)
    for flavor in (DihedralFlavor.STRICT, DihedralFlavor.PROJECTIVE):
        for n in range(2, 9):
            for _ in range(100):
                v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                v /= np.linalg.norm(v)
                G = gram(dihedral_orbit(v, flavor))
                B = G.values[:n, n:]
                assert float(np.max(np.abs(B.imag))) < 1e-10, \
                    f"{flavor} n={n}: off-diagonal block not real"
                report = analyze_gram_structure(G)
                assert report.ambiguous or report.flavor is flavor, \
                    f"{flavor} n={n}: structure misread as {report.flavor}"
    t_b = time.monotonic() - t0 - t_a

    # (c) + (d) exact builder: 100 random (partition, pairs) instances
    # give exact rank-n self-adjoint idempotents, and regularity holds
    # exactly when every root is mixed (imaginary off-diagonal A block)
    rng = np.random.default_rng(42)
    regular_seen = irregular_seen = 0
    for _ in range(100):
        part = _random_partition(rng)
        pairs = random_exact_pairs(part, rng)
        X = tight_idempotent_exact(part, pairs)
        n = part.n
        order = exact_ring_order(part)
        assert cyclo_equal(cyclo_matmul(X, X), X), "X^2 != X"
        assert cyclo_equal(cyclo_conj_transpose(X), X), "X not self-adjoint"
        assert cyclo_trace(X) == CycloPoly.rational(order, n), "trace != n"
        imag_off = all((X[i][j] + X[i][j].conjugate()).is_zero()
                       for i in range(n) for j in range(n) if i != j)
        assert imag_off == is_regular_gram(part), \
            "regularity predicate disagrees with the A-block reality check"
        if is_regular_gram(part):
            regular_seen += 1
        else:
            irregular_seen += 1
    assert regular_seen and irregular_seen, \
        "random partitions failed to exercise both regularity branches"
    t_cd = time.monotonic() - t0 - t_a - t_b
    _report(9, f"systems n<=16 exact ({t_a:.1f} s), 1400 orbit structures "
               f"({t_b:.1f} s), 100 exact builder instances with "
               f"regularity biconditional ({t_cd:.1f} s; "
               f"{regular_seen} regular / {irregular_seen} not)")


def test_criterion_10_numerical_discovery_pipeline():
    t0 = time.monotonic()
    for n in (2, 4, 6):
        outcome = discover(n, MinimizeConfig(n=n, p=4, restarts=50, seed=7))
        assert isinstance(outcome, SolutionRecord), \
            f"n={n}: discovery failed with {outcome}"
        assert outcome.symmetry_type is not None, f"n={n}: class untyped"
    t_discover = time.monotonic() - t0
    assert t_discover < 300.0, f"took {t_discover:.1f} s, budget 300 s"

    # strict-flavor diagnostic: across 50 restarts at each n, no run
    # comes within 1e-4 of the Welch bound
    worst = {}
    for n in (2, 4, 6):
        result = minimize_fiducial(
            MinimizeConfig(n=n, p=4, restarts=50, seed=11),
            DihedralFlavor.STRICT)
        assert len(result.diagnostics) == 50
        closest = min(d.coherence_gap for d in result.diagnostics)
        worst[n] = closest
        assert closest > 1e-4, \
            f"strict n={n}: a restart reached gap {closest:.2e}"
        assert not result.converged
    elapsed = time.monotonic() - t0
    _report(10, f"discover succeeded and typed at n = 2, 4, 6 "
                f"({t_discover:.1f} s); strict gaps stayed above "
                f"{min(worst.values()):.3f} ({elapsed:.1f} s total)")
