"""The benchmark's workloads: inputs built from a seed, the operations of
one round, and the check of each operation's output.

Operations call the library through module attributes (search.enumerate,
algebra.cyclo_matmul, ...) so that the tracer's wrappers see them.  Every
round runs the same operations in the same order, and a round is a few
seconds long so that one run holds several rounds.  The seed draws the
random builder instances of `exact`; the other workloads run fixed sizes
of the paper's table, which no seed changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import checks
from reference_rows import EXPECTED_CLASS_COUNTS, FULL_ROWS, PARTIAL_ROWS
from skewframes import algebra, equiv, grambuild, numopt, search
from skewframes.frames import DihedralFlavor, GramMatrix


@dataclass
class Operation:
    name: str
    run: Callable[[], object]
    # problems with a result that is not a failure
    check: Callable[[object], list]
    # detail when the result is the program's own failure value, else None
    failure: Callable[[object], Optional[str]] = lambda result: None


# Span names each workload must record calls for in a traced run.
EXPECTED_SPANS = {
    "enumerate": {"search.enumerate"},
    "classify": {"search.enumerate", "search.classify", "search.record_gram",
                 "paley.reference_grams", "equiv.are_equivalent",
                 "equiv.equivalence_fingerprint"},
    "discover": {"numopt.discover", "numopt.minimize_fiducial", "frames.frame_potential",
                 "frames.dihedral_orbit", "hadamard.exactify", "paley.reference_grams",
                 "equiv.are_equivalent"},
    "exact": {"algebra.cyclo_matmul", "algebra.cyclo_equal", "algebra.cyclo_is_zero",
              "algebra.cyclotomic_idempotent_exact",
              "algebra.nega_cyclotomic_idempotent_exact",
              "grambuild.tight_idempotent_exact"},
}

ENUMERATE_SIZES = (18, 20, 22)
CLASSIFY_SIZES = (8, 12)
DISCOVER_SIZES = (2, 4, 6)
# n=6 fails on this minimizer configuration every time (see README)
DISCOVER_RESTARTS = 9
DISCOVER_SEED = 7
SYSTEM_SIZES = range(1, 8)
BUILDER_SIZES = range(1, 5)


def table_rows(n):
    return [row for row in FULL_ROWS + PARTIAL_ROWS if row[0] == n]


def _gram(K: np.ndarray) -> GramMatrix:
    N = K.shape[0]
    return GramMatrix(np.eye(N) + K / np.sqrt(N - 1), exact_scaled=K)


def program_equivalent(K0, K1):
    """The program's equivalence verdict on two exact views."""
    return equiv.are_equivalent(_gram(K0), _gram(K1), assume_transitive=True)


def once_per_output(check, key):
    """`check`, run once per distinct output: `key` holds everything the
    check reads, so an output equal to an earlier one gets its verdict."""
    verdicts = {}

    def cached(result):
        k = key(result)
        if k not in verdicts:
            verdicts[k] = check(result)
        return verdicts[k]

    return cached


def pairs_key(result):
    return tuple((tuple(map(int, r.a)), tuple(map(int, r.b))) for r in result)


def records_key(records):
    return tuple((r.n, r.a_hex, r.b_hex, r.symmetry_type, r.all_types, r.class_id)
                 for r in records)


def matrix_key(M):
    return tuple(tuple((x.order, tuple(sorted(x.coeffs.items()))) for x in row) for row in M)


# ---------------------------------------------------------------------------


def enumerate_ops(seed):
    ops = []
    for n in ENUMERATE_SIZES:
        refs = [(checks.decode_hex(a, n), checks.decode_hex(b, n)) for _, a, b, _ in table_rows(n)]

        def check(result, n=n, refs=refs):
            return checks.enumeration_problems(
                n, [(r.a, r.b) for r in result], refs,
                expect_empty=EXPECTED_CLASS_COUNTS.get(n) == 0)

        ops.append(Operation(f"enumerate n={n}", lambda n=n: search.enumerate(n, jobs=1),
                             once_per_output(check, pairs_key)))
    return ops


def classify_ops(seed):
    def check(result, n):
        return checks.class_problems(n, result, table_rows(n), program_equivalent)

    return [Operation(f"classify n={n}", lambda n=n: search.classify(n, jobs=1),
                      once_per_output(lambda result, n=n: check(result, n), records_key))
            for n in CLASSIFY_SIZES]


def discover_ops(seed):
    def check(result, n):
        if not isinstance(result, search.SolutionRecord):
            return [f"n={n}: unexpected result {result!r}"]
        problems = checks.pair_problems(
            n, checks.decode_hex(result.a_hex, n), checks.decode_hex(result.b_hex, n))
        return problems or checks.class_problems(n, [result], table_rows(n), program_equivalent)

    def failure(result):
        if isinstance(result, numopt.DiscoveryFailure):
            return f"{result.stage}: {result.detail}"
        return None

    # the minimizer's seed is fixed: n=6 fails on it every time (see README)
    return [Operation(f"discover n={n}",
                      lambda n=n: numopt.discover(
                          n, numopt.MinimizeConfig(n, p=4, restarts=DISCOVER_RESTARTS,
                                                   seed=DISCOVER_SEED)),
                      once_per_output(lambda result, n=n: check(result, n),
                                      lambda result: records_key([result])),
                      failure)
            for n in DISCOVER_SIZES]


# ---------------------------------------------------------------------------
# exact


def _own_roots(n, flavor):
    """(order, index) of the projector roots: n-th roots of unity (strict)
    or 2n-th roots that are not n-th roots (projective)."""
    if flavor is DihedralFlavor.STRICT:
        return sorted((n, k) for k in range(n))
    return sorted((2 * n, 2 * k + 1) for k in range(n))


def _evaluate(p) -> complex:
    return sum(complex(c) * checks.root(p.order, e) for e, c in p.coeffs.items())


def _evaluate_matrix(M) -> np.ndarray:
    return np.array([[_evaluate(x) for x in row] for row in M])


def idempotent_system(n, flavor):
    """Exact projectors of every root for (n, flavor), and the program's
    verdicts on completeness, idempotence and orthogonality."""
    part = grambuild.SpectralPartition(n, flavor, grambuild.full_root_set(n, flavor))
    order = grambuild.exact_ring_order(part)
    build = (algebra.cyclotomic_idempotent_exact if flavor is DihedralFlavor.STRICT
             else algebra.nega_cyclotomic_idempotent_exact)
    roots = sorted(part.mixed, key=lambda z: (z.order, z.index))
    mats = [build(n, z, ring_order=order) for z in roots]
    total = mats[0]
    for M in mats[1:]:
        total = algebra.cyclo_add(total, M)
    verdicts = {
        "complete": algebra.cyclo_equal(total, algebra.cyclo_identity(order, n)),
        "idempotent": all(algebra.cyclo_equal(algebra.cyclo_matmul(M, M), M) for M in mats),
        "orthogonal": all(algebra.cyclo_is_zero(algebra.cyclo_matmul(mats[i], mats[j]))
                          for i in range(len(mats)) for j in range(i + 1, len(mats))),
    }
    return roots, mats, verdicts


def system_key(result):
    roots, mats, verdicts = result
    return (tuple((z.order, z.index) for z in roots), tuple(matrix_key(M) for M in mats),
            tuple(verdicts.items()))


def system_problems(n, flavor, result):
    roots, mats, verdicts = result
    label = f"system {flavor.value} n={n}"
    problems = [f"{label}: {k} is false" for k, ok in verdicts.items() if not ok]
    if [(z.order, z.index) for z in roots] != _own_roots(n, flavor):
        problems.append(f"{label}: wrong root set")
        return problems
    nega = flavor is DihedralFlavor.PROJECTIVE
    for z, M in zip(roots, mats):
        ref = checks.idempotent_formula(n, checks.root(z.order, z.index), nega)
        if not checks.close(_evaluate_matrix(M), ref, 1e-12):
            problems.append(f"{label}: projector at root {z.index}/{z.order} "
                            "differs from (1/n) zeta^(+-(j-i))")
    return problems


def builder_partitions(n, flavor, rng):
    """The regular partition (every root mixed) and, where two conjugation
    orbits of one size exist, one irregular partition with a seeded pair of
    them made full and empty."""
    roots = sorted(grambuild.full_root_set(n, flavor), key=lambda z: (z.order, z.index))
    orbits = []
    for z in roots:
        orbit = frozenset({z, z.conjugate()})
        if orbit not in orbits:
            orbits.append(orbit)
    every = frozenset(roots)
    out = [grambuild.SpectralPartition(n, flavor, every)]
    for size in (2, 1):
        group = [o for o in orbits if len(o) == size]
        if len(group) >= 2:
            i, j = rng.choice(len(group), size=2, replace=False)
            full, empty = group[i], group[j]
            out.append(grambuild.SpectralPartition(n, flavor, every - full - empty, full, empty))
            break
    return out


def tight_idempotent(part, pairs):
    """Exact projector X and the program's verdicts on X^2 = X, X* = X and
    trace X = n."""
    X = grambuild.tight_idempotent_exact(part, pairs)
    order = grambuild.exact_ring_order(part)
    verdicts = {
        "X^2 == X": algebra.cyclo_equal(algebra.cyclo_matmul(X, X), X),
        "X* == X": algebra.cyclo_equal(algebra.cyclo_conj_transpose(X), X),
        "trace == n": algebra.cyclo_trace(X) == algebra.CycloPoly.rational(order, part.n),
    }
    return X, verdicts


def builder_problems(label, part, pairs, result):
    X, verdicts = result
    problems = [f"{label}: {k} is false" for k, ok in verdicts.items() if not ok]
    key = lambda z: (z.order, z.index)
    mixed = sorted(part.mixed, key=key)
    Xf = checks.builder_formula(
        part.n,
        [checks.root(z.order, z.index) for z in mixed],
        [checks.root(z.order, z.index) for z in sorted(part.full, key=key)],
        [(_evaluate(pairs[z][0]), _evaluate(pairs[z][1])) for z in mixed],
        nega=part.flavor is DihedralFlavor.PROJECTIVE)
    X_eval = _evaluate_matrix(X)
    if not checks.close(X_eval, Xf, 1e-12):
        problems.append(f"{label}: differs from the float projector formula")
    return problems + checks.projector_problems(label, X_eval, part.n)


def exact_ops(seed):
    rng = np.random.default_rng(seed)
    ops = []
    for flavor in DihedralFlavor:
        for n in SYSTEM_SIZES:
            ops.append(Operation(f"system {flavor.value} n={n}",
                                 lambda n=n, f=flavor: idempotent_system(n, f),
                                 once_per_output(
                                     lambda result, n=n, f=flavor: system_problems(n, f, result),
                                     system_key)))
    for flavor in DihedralFlavor:
        for n in BUILDER_SIZES:
            for part in builder_partitions(n, flavor, rng):
                pairs = grambuild.random_exact_pairs(part, rng)
                kind = "regular" if grambuild.is_regular_gram(part) else "irregular"
                label = f"builder {flavor.value} n={n} {kind}"
                ops.append(Operation(
                    label, lambda p=part, q=pairs: tight_idempotent(p, q),
                    once_per_output(
                        lambda result, l=label, p=part, q=pairs: builder_problems(l, p, q, result),
                        lambda result: (matrix_key(result[0]), tuple(result[1].items())))))
    return ops


BUILDERS = {
    "enumerate": enumerate_ops,
    "classify": classify_ops,
    "discover": discover_ops,
    "exact": exact_ops,
}


def build(workload: str, seed: int) -> list:
    """The operations of one round, in order."""
    return BUILDERS[workload](seed)
