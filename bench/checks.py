"""Correctness checks that do not trust the program under test.

Every check here recomputes what it needs with its own integer or float
arithmetic (sign rows, negacirculants, the sign-twisted rotation, exact
Gram views, certificate application, root-of-unity formulas), or tests a
property the method must have.  Each check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import cmath

import numpy as np


# ---------------------------------------------------------------------------
# +-1 rows


def decode_hex(s: str, n: int) -> tuple:
    """Hex string, MSB first, bit 1 meaning +1, to a +-1 tuple of length n."""
    x = int(s, 16)
    if x >> n:
        raise ValueError(f"{s!r} does not fit in {n} signs")
    return tuple(1 if (x >> (n - 1 - k)) & 1 else -1 for k in range(n))


def encode(v) -> int:
    """Integer with one bit per sign, MSB first, +1 -> 1."""
    x = 0
    for s in v:
        x = 2 * x + (1 if s == 1 else 0)
    return x


def twist(v) -> tuple:
    """Sign-twisted rotation S(v) = (-v[n-1], v[0], ..., v[n-2])."""
    return (-v[-1],) + tuple(v[:-1])


def canonical_b(b) -> tuple:
    """Encoding-maximal member of the orbit of b under twist (the orbit has
    length dividing 2n and contains -b)."""
    best = tuple(b)
    y = tuple(b)
    for _ in range(2 * len(b) - 1):
        y = twist(y)
        if encode(y) > encode(best):
            best = y
    return best


def alternate(v) -> tuple:
    """((-1)^j v_j)_j."""
    return tuple(s if j % 2 == 0 else -s for j, s in enumerate(v))


def negacirculant(v) -> np.ndarray:
    """Integer matrix with row i+1 = row i rotated right, wrapped entry negated."""
    n = len(v)
    out = np.zeros((n, n), dtype=np.int64)
    row = list(v)
    for i in range(n):
        out[i] = row
        row = [-row[-1]] + row[:-1]
    return out


def pair_problems(n: int, a, b) -> list:
    """Integer checks of one defining pair: +-1 entries of length n,
    a[0] == 1, a palindromic, and P P^T + Q Q^T == 2n I."""
    a, b = tuple(a), tuple(b)
    label = f"n={n} a={a} b={b}"
    if len(a) != n or len(b) != n:
        return [f"{label}: rows do not have length n"]
    if any(s not in (1, -1) for s in a + b):
        return [f"{label}: entries are not +-1"]
    problems = []
    if a[0] != 1:
        problems.append(f"{label}: a[0] != 1")
    if any(a[k] != a[n - k] for k in range(1, n)):
        problems.append(f"{label}: a is not palindromic")
    P, Q = negacirculant(a), negacirculant(b)
    if not np.array_equal(P @ P.T + Q @ Q.T, 2 * n * np.eye(n, dtype=np.int64)):
        problems.append(f"{label}: P P^T + Q Q^T != 2n I")
    return problems


def enumeration_problems(n: int, pairs, reference_pairs=(), expect_empty=False) -> list:
    """Checks of a full enumeration result, given as (a, b) sign tuples.

    Beyond the per-pair integer checks: every b is canonical, no pair
    repeats, the set is closed under b -> reversed b and under the
    alternating sign change of both rows (images re-canonicalised), and
    every reference pair appears once its b is canonicalised."""
    pairs = [(tuple(a), tuple(b)) for a, b in pairs]
    problems = []
    if expect_empty and pairs:
        problems.append(f"n={n}: expected no solutions, got {len(pairs)}")
    for a, b in pairs:
        problems += pair_problems(n, a, b)
        if canonical_b(b) != b:
            problems.append(f"n={n} b={b}: b is not the maximum of its orbit")
    found = set(pairs)
    if len(found) != len(pairs):
        problems.append(f"n={n}: {len(pairs) - len(found)} repeated pairs")
    for a, b in pairs:
        reflected = (a, canonical_b(b[::-1]))
        if reflected not in found:
            problems.append(f"n={n} a={a} b={b}: reversed b is missing")
        alternated = (alternate(a), canonical_b(alternate(b)))
        if alternated not in found:
            problems.append(f"n={n} a={a} b={b}: alternating sign image is missing")
    for a, b in reference_pairs:
        if (tuple(a), canonical_b(b)) not in found:
            problems.append(f"n={n}: reference pair a={tuple(a)} b={tuple(b)} is missing")
    return problems


# ---------------------------------------------------------------------------
# exact Gram views and certificates


def exact_view(a, b) -> np.ndarray:
    """sqrt(2n-1) (G - I) for the block Gram of [[P, Q], [-Q^T, P^T]]:
    [[i(P - I), Q], [Q^T, i(P^T - I)]], entries in {0, +-1, +-i}."""
    P, Q = negacirculant(a), negacirculant(b)
    eye = np.eye(len(a), dtype=np.int64)
    return np.block([[1j * (P - eye), Q + 0j], [Q.T + 0j, 1j * (P.T - eye)]])


def gaussian_unit(z: complex):
    """The Gaussian unit z stands for, or None when it is not one."""
    for u in (1, -1, 1j, -1j):
        if abs(z - u) < 1e-9:
            return complex(u)
    return None


def apply_certificate(permutation, phases, K: np.ndarray):
    """Image of the exact view K under the monomial map with
    Pi[p[j], j] = f[p[j]]: entry (j, k) moves to (p[j], p[k]) scaled by
    f[p[j]] conj(f[p[k]]).  None when the certificate is malformed."""
    N = K.shape[0]
    p = [int(x) for x in permutation]
    if sorted(p) != list(range(N)) or len(phases) != N:
        return None
    f = [gaussian_unit(complex(z)) for z in phases]
    if any(u is None for u in f):
        return None
    p = np.asarray(p)
    f = np.asarray(f)
    out = np.empty_like(K)
    out[np.ix_(p, p)] = (f[p, None] * K) * f[p].conj()[None, :]
    return out


def certificate_holds(certificate, K0: np.ndarray, K1: np.ndarray) -> bool:
    """Whether the certificate carries the exact view K0 onto K1 exactly."""
    image = apply_certificate(certificate.permutation, certificate.phases, K0)
    return image is not None and np.array_equal(image, K1)


def class_problems(n: int, records, rows, equivalent) -> list:
    """Match computed classes to the reference rows of the paper's table.

    records carry (n, a_hex, b_hex, symmetry_type, all_types); rows are
    (n, a_hex, b_hex, types).  equivalent(K0, K1) returns the program's
    verdict as an object with .equivalent and .certificate.  A row
    matches a class only when the program says equivalent and the
    certificate re-applied here maps the exact views onto each other;
    each row must match exactly one class, each class exactly one row,
    and the class must carry exactly the row's types."""
    problems = []
    if len(records) != len(rows):
        problems.append(f"n={n}: {len(records)} classes, table has {len(rows)}")
    views = []
    for r in records:
        a, b = decode_hex(r.a_hex, n), decode_hex(r.b_hex, n)
        pp = pair_problems(n, a, b)
        problems += pp
        views.append(None if pp else exact_view(a, b))
    matched = set()
    for row in rows:
        K_ref = exact_view(decode_hex(row[1], n), decode_hex(row[2], n))
        hits = []
        for i, K in enumerate(views):
            if K is None:
                continue
            verdict = equivalent(K_ref, K)
            if not verdict.equivalent:
                continue
            if not certificate_holds(verdict.certificate, K_ref, K):
                problems.append(f"n={n}: certificate for row {row[1:3]} -> class {i + 1} "
                                "does not map the exact views")
                continue
            hits.append(i)
        if len(hits) != 1:
            problems.append(f"n={n}: row {row[1:3]} matches {len(hits)} classes")
            continue
        i = hits[0]
        matched.add(i)
        rec, types = records[i], tuple(row[3])
        if tuple(rec.all_types or ()) != types:
            problems.append(f"n={n}: class {i + 1} has types {rec.all_types}, table {types}")
        if rec.symmetry_type != (types[0] if types else None):
            problems.append(f"n={n}: class {i + 1} is typed {rec.symmetry_type}, table {types}")
    if len(matched) != len(records):
        problems.append(f"n={n}: {len(records) - len(matched)} classes match no row")
    return problems


# ---------------------------------------------------------------------------
# roots of unity and the spectral projectors


def root(order: int, index: int) -> complex:
    """exp(-2 pi i index / order), the package's RootIndex convention."""
    return cmath.exp(-2j * cmath.pi * index / order)


def idempotent_formula(n: int, zeta: complex, nega: bool) -> np.ndarray:
    """(1/n) zeta^(j-i) (circulant projector) or (1/n) zeta^(i-j)
    (negacirculant projector) at row i, column j."""
    d = np.arange(n)[:, None] - np.arange(n)[None, :]
    return zeta ** (d if nega else -d) / n


def builder_formula(n: int, mixed, full, pairs, nega: bool) -> np.ndarray:
    """Float projector X = sum over mixed z of [[|u|^2, u v*], [v u*, |v|^2]]
    (x) K_z plus sum over full z of I_2 (x) K_z, where mixed and full
    hold complex roots and pairs maps each mixed root to (u, v)."""
    X = np.zeros((2 * n, 2 * n), dtype=complex)
    for z, (u, v) in zip(mixed, pairs):
        coef = np.array([[u * np.conj(u), u * np.conj(v)], [v * np.conj(u), v * np.conj(v)]])
        X += np.kron(coef, idempotent_formula(n, z, nega))
    for z in full:
        X += np.kron(np.eye(2), idempotent_formula(n, z, nega))
    return X


def close(M, ref, tol: float) -> bool:
    return M.shape == ref.shape and float(np.max(np.abs(M - ref))) <= tol


def projector_problems(label: str, X: np.ndarray, rank: int, tol: float = 1e-9) -> list:
    """Float properties of a rank-`rank` orthogonal projection."""
    problems = []
    if not close(X @ X, X, tol):
        problems.append(f"{label}: X^2 != X numerically")
    if not close(X.conj().T, X, tol):
        problems.append(f"{label}: X* != X numerically")
    if abs(np.trace(X) - rank) > tol:
        problems.append(f"{label}: trace {np.trace(X):.6g} != {rank}")
    return problems
