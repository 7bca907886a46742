"""Exhaustive search for two-negacirculant skew Hadamard matrices and
classification of the resulting ETF Gram matrices up to equivalence.

The search space for order 2n is pairs of +-1 rows (a, b) of length n
where a[0] == 1 and a[k] == a[n-k] (so negacirculant(a) is skew) and
P P^T + Q Q^T == 2n I.  Writing S for the sign-twisted rotation
S(v) = (-v[n-1], v[0], ..., v[n-2]) (row i of negacirculant(v) is
S^i v), the matrix condition is equivalent to

    <a, S^s a> + <b, S^s b> == 0   for s = 1..n-1,

and since <v, S^(n-s) v> == -<v, S^s v> (S is orthogonal with
S^n == -I), only the shifts s = 1..n/2-1 bind.  Vectors are packed into
integers, one bit per sign (+1 -> 1), most significant bit first, which
turns each correlation into an xor plus popcount.

The enumeration matches autocorrelation profiles (Dokovic-Kotsireas,
"Compression of periodic complementary sequences", 2015): the 2^(n/2)
admissible a fill a table from complementary profile codes to a rows,
then b is streamed in numpy chunks over the odd x in [3 * 2^(n-2), 2^n),
where the maximum of each S-orbit lies (proof in _sweep).  Each chunk's
codes are folded one shift at a time from n-bit words, and only entries
whose code is in the table are tested for orbit maximality, so nothing
of size 2^n is held; jobs > 1 splits the candidates into shards, run by
at most as many processes as there are processors available.  The code
fits int64 up to n = 32 (17^15 < 2^63 <= 18^16), the largest n; the
n = 32 sweep takes about 90 s on one core.

Classification groups the surviving pairs by Gram matrix equivalence.
It first collapses them into orbits of the decimations j -> kj mod 2n,
for odd k coprime to 2n, applied to the nega-periodic extension of both
rows (Dokovic-Kotsireas, as above): the block matrix diag(R_k, R_k) H
diag(R_k, R_k)^T is again a solution, and after re-canonicalizing b by
S^t the signed permutation diag(Z^t R_k, R_k) is a certificate carrying
one gram onto the other, verified exactly before each merge.  Only the
orbit roots (least input index) then get a canonical form
(equiv.canonical_form): roots with unequal keys are inequivalent, and a
root whose key equals a representative's joins it after are_equivalent
returns a verified certificate, so the classes stay correct where orbits
are finer.  Each class that matches a Paley-type reference is tagged:
"P" for the Paley gram on GF(2n-1), "DP" for the doubled Paley gram on
GF(n-1), "CDP" for its conjugate; ties are reported with the priority
P > DP > CDP.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .algebra import circulant
from .equiv import (EquivalenceCertificate, _verify_certificate, are_equivalent,
                    canonical_form, equivalence_fingerprint)
from .frames import GramMatrix
from .hadamard import (BlockSkewHadamard, _pack, _sign_vector, _unpack, assemble,
                       block_etf_gram, hex_decode, hex_encode)
from .paley import FiniteField, double_paley_gram, paley_gram, prime_power


# ---------------------------------------------------------------------------
# bit-packed sign vectors (codec in hadamard)


def _shift(x, n: int, s: int = 1):
    """Bit image of S^s, 0 <= s <= n, for an int or an int64 array: the
    top n - s bits move down s places and the low s bits, complemented,
    fill the top, so every value stays below 2^n."""
    return (x >> s) | ((~x & ((1 << s) - 1)) << (n - s))


def _profile_codes(x, n: int, complement: bool = False):
    """int64 code of the profile p_s = popcount(x ^ S^s x), s = 1..n/2-1
    (<v, S^s v> = n - 2 p_s), or of n - p_s.  As p_s == s (mod 2), p_s >> 1
    is one digit in base n/2 + 1, and int64 holds n/2 - 1 of them for
    n <= 32.  Each shift's _shift(x, n, s) ^ x is formed in place in t."""
    x = np.asarray(x, dtype=np.int64)
    nx, t, code = ~x, np.empty_like(x), np.zeros_like(x)
    for s in range(1, n // 2):
        np.bitwise_and(nx, (1 << s) - 1, out=t)
        t <<= n - s
        t |= x >> s
        t ^= x
        p = np.bitwise_count(t)
        code *= n // 2 + 1
        code += (n - p if complement else p) >> 1
    return code


def _canonical_shift(b) -> tuple:
    """(canonical b, t) with canonical b == S^t b, the encoding-maximal
    member of the orbit of b under sign-twisted rotations and negation
    (negation is S^n, so the whole orbit is the S-orbit of length dividing
    2n)."""
    t = _sign_vector(b)
    n = len(t)
    orbit = [_pack(t)]
    for _ in range(2 * n - 1):
        orbit.append(_shift(orbit[-1], n))
    best = max(orbit)
    return _unpack(best, n), orbit.index(best)


# ---------------------------------------------------------------------------
# enumeration


_CHUNK = 1 << 14  # encodings per step of the b sweep


def _sweep(args):
    """Canonical b among the odd encodings x = base + 2i, i in [lo, hi),
    whose profile code is in the sorted array targets.  Each chunk of
    n-bit words is filtered by profile, its codes built one shift at a
    time; only the hits are tested for orbit maximality.

    The S-orbit of x (n even) is the set of length-n windows of the
    antiperiodic sequence u with u[j + n] == -u[j], and its encoding
    maximum x = v starts with bit 1 (the orbit holds -v = S^n v).  Its
    last bit is 1 as well: if v[n-1] == -1, then S x = (1, v[0], ...,
    v[n-2]) has a longer leading run of +1 than x, so S x > x.  And its
    second bit is 1: if v[1] == -1, no window starts with +1, +1, so the
    2n-cycle u has no two adjacent +1; with n of its 2n entries equal to
    +1 it must alternate, which gives u[j + n] == u[j] for even n and
    contradicts antiperiodicity.  So every maximum is odd and lies in
    [3 * 2^(n-2), 2^n), the only encodings enumerate gives to this sweep."""
    n, base, lo, hi, targets = args
    hits = [np.zeros(0, dtype=np.int64)]
    for start in range(lo, hi, _CHUNK):
        x = base + 2 * np.arange(start, min(start + _CHUNK, hi), dtype=np.int64)
        code = _profile_codes(x, n)
        # bisection in the sorted targets; an index past the end wraps to a miss
        hits.append(x[targets[np.searchsorted(targets, code) % len(targets)] == code])
    x = np.concatenate(hits)
    y, keep = x, np.ones(len(x), dtype=bool)
    for _ in range(2 * n - 1):
        y = _shift(y, n)
        keep &= x >= y
    return x[keep]


def _admissible_a(n: int) -> np.ndarray:
    """All encodings of rows a with a[0] == 1 and a[k] == a[n-k], as an
    int64 array: bit j of f < 2^(n/2) sets a[j+1] and a[n-1-j], which sit
    at bits n-2-j and j of the encoding."""
    j = np.arange(n // 2)
    f = np.arange(1 << n // 2, dtype=np.int64)[:, None]
    return (1 << (n - 1)) | (f >> j & 1) @ ((1 << (n - 2 - j)) | (1 << j))


def enumerate(n: int, jobs: int = 1) -> List[BlockSkewHadamard]:
    """All two-negacirculant skew Hadamard matrices of order 2n with
    canonical second row, sorted by (hex(a), hex(b)).  Only even n is
    supported (for odd n the diagonal shift s = n/2 is unavailable and the
    space is not defined), up to 32, the largest n whose profile code fits
    int64; the n-bit sweep takes about 90 s on one core at n = 32."""
    if not isinstance(n, int) or not 2 <= n <= 32 or n % 2 != 0:
        raise ValueError("enumeration is supported for even 2 <= n <= 32 only")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    a_values = _admissible_a(n)
    table: dict = {}
    for a, c in zip(a_values.tolist(), _profile_codes(a_values, n, True).tolist()):
        table.setdefault(c, []).append(a)
    targets = np.array(sorted(table), dtype=np.int64)
    # contiguous shards of the odd encodings in [3 * 2^(n-2), 2^n), which
    # hold every orbit maximum (see _sweep); a shard may be empty
    base, count = (3 << (n - 2)) | 1, ((1 << (n - 2)) + 1) // 2
    bounds = [i * count // jobs for i in range(jobs + 1)]
    shards = [(n, base, bounds[i], bounds[i + 1], targets) for i in range(jobs)]
    if jobs == 1:
        results = [_sweep(shards[0])]
    else:
        # imported here, so serial calls never load multiprocessing; jobs
        # sets the shards (and so the output order), not the process count
        from concurrent.futures import ProcessPoolExecutor
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        with ProcessPoolExecutor(max_workers=min(jobs, cpus or 1)) as pool:
            results = list(pool.map(_sweep, shards))
    bs = np.concatenate(results)
    records = [BlockSkewHadamard(n=n, a=_unpack(a, n), b=_unpack(b, n))
               for b, c in zip(bs.tolist(), _profile_codes(bs, n).tolist()) for a in table[c]]
    records.sort(key=lambda r: (hex_encode(r.a), hex_encode(r.b)))
    return records


# ---------------------------------------------------------------------------
# 2-circulant variant


def enumerate_2circulant(n: int) -> list:
    """Exhaustive search for [[C, D], [-D^T, C^T]] skew Hadamard with C,
    D circulant, order 2n; n is capped because the scan is naive.  The
    skew condition forces a[s] == -a[n-s] on the first row of C, which
    is unsatisfiable over +-1 at s = n/2, so the search verifies
    emptiness rather than assuming it."""
    if n < 2 or n % 2 != 0:
        raise ValueError("even n >= 2 only")
    if n > 12:
        raise ValueError("naive scan capped at n <= 12")
    out = []
    eye2 = 2 * np.eye(n, dtype=np.int64)
    eye2n = 2 * n * np.eye(n, dtype=np.int64)
    for a_enc in range(1 << (n - 1)):
        a = (1,) + _unpack(a_enc, n - 1)
        C = circulant(a).real.astype(np.int64)
        if not np.array_equal(C + C.T, eye2):
            continue
        for b_enc in range(1 << n):
            b = _unpack(b_enc, n)
            D = circulant(b).real.astype(np.int64)
            if np.array_equal(C @ C.T + D @ D.T, eye2n):
                out.append((a, b))
    return out


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class SolutionRecord:
    """One equivalence class of solutions for a given n, carried by its
    lexicographically least member."""

    n: int
    a_hex: str
    b_hex: str
    symmetry_type: Optional[str]
    class_id: int
    all_types: Optional[tuple] = None


def paley_reference_grams(n: int) -> dict:
    """The Paley-type reference Grams available at this n, keyed by tag:
    P and DP from their Singer rows, CDP as DP's conjugate."""
    out = {}
    pp = prime_power(2 * n - 1)
    if pp is not None and (2 * n - 1) % 4 == 3:
        out["P"] = paley_gram(FiniteField(*pp))
    pp = prime_power(n - 1)
    if pp is not None and n >= 3 and (n - 1) % 4 == 3:
        out["DP"] = double_paley_gram(FiniteField(*pp))
        out["CDP"] = out["DP"].conjugated()
    return out


def record_gram(record) -> GramMatrix:
    """Gram matrix of a solution's sign matrix (accepts BlockSkewHadamard
    or SolutionRecord)."""
    if isinstance(record, SolutionRecord):
        a = hex_decode(record.a_hex, record.n)
        b = hex_decode(record.b_hex, record.n)
        return block_etf_gram(assemble(a, b))
    return block_etf_gram(record.matrix())


def paley_tags(n: int, grams) -> List[tuple]:
    """The Paley-type tags of each of the given pairwise inequivalent
    grams, in the order P, DP, CDP.  Each reference is tested against the
    grams in order by are_equivalent and stops at its first match: it can
    match at most one of them.  No forms are kept between calls, so
    tagging a single gram (as discover does) costs two canonical forms
    per reference tried."""
    tags: List[list] = [[] for _ in grams]
    for tag, ref in paley_reference_grams(n).items():
        for found, G in zip(tags, grams):
            if are_equivalent(G, ref, assume_transitive=True).equivalent:
                found.append(tag)
                break
    return [tuple(t) for t in tags]


def _nega_perm(n: int, k: int, t: int = 0) -> np.ndarray:
    """Signed permutation R with R[i, r mod n] = +1 if r < n else -1, for
    r = (k i + t) mod 2n.  With v~ the nega-periodic extension of a row v
    (v~[j + n] = -v~[j]), R N R^T for odd k coprime to 2n is the
    negacirculant of the decimated row j -> v~[k j]; and R = Z^t for
    k = 1, where negacirculant(S^t v) == Z^t negacirculant(v)."""
    r = (k * np.arange(n) + t) % (2 * n)
    R = np.zeros((n, n), dtype=np.int64)
    R[np.arange(n), r % n] = np.where(r < n, 1, -1)
    return R


def _decimations(n: int) -> list:
    """R_k for every odd k coprime to 2n.  The alternation
    v_j -> (-1)^j v_j of both rows is among them (it is R_(n+1)), and
    negating b needs none: -b = S^n b has the same canonical form."""
    return [_nega_perm(n, k) for k in range(1, 2 * n, 2) if math.gcd(k, n) == 1]


def _image(H: np.ndarray, X: np.ndarray, Y: np.ndarray):
    """((a', b'), certificate) for the solution diag(X, Y) H diag(X, Y)^T
    of the sign matrix H, with b' re-canonicalized by S^t.  The
    certificate is the signed permutation M = diag(Z^t X, Y); M is real,
    so it carries the gram of H onto the image's gram as G' = M G M^T."""
    n = len(H) // 2
    a = tuple((X @ H[:n, :n] @ X.T)[0].tolist())
    b, t = _canonical_shift((X @ H[:n, n:] @ Y.T)[0])
    M = np.zeros((2 * n, 2 * n), dtype=np.int64)
    M[:n, :n] = _nega_perm(n, 1, t) @ X
    M[n:, n:] = Y
    # one +-1 per row and column: column j goes to row p[j] with phase M[p[j], j]
    cert = EquivalenceCertificate(tuple(np.abs(M).argmax(axis=0).tolist()),
                                  tuple(complex(x) for x in M.sum(axis=1)))
    return (a, b), cert


def _symmetry_orbits(n: int, solutions, grams) -> List[int]:
    """Union-find root (least index) of each solution under the
    decimations, applied to both rows.  Images outside the list are
    skipped; every union is backed by a certificate verified exactly."""
    index: dict = {}
    for i in reversed(range(len(solutions))):
        index[solutions[i].a, solutions[i].b] = i
    root = list(range(len(solutions)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    gens = _decimations(n)
    for i in range(len(solutions)):
        H = solutions[i].matrix()
        for R in gens:
            pair, cert = _image(H, R, R)
            j = index.get(pair)
            if j is None:
                continue
            ri, rj = find(i), find(j)
            if ri == rj:
                continue
            if not _verify_certificate(cert, grams[i], grams[j]):
                raise RuntimeError("orbit certificate failed verification")
            root[max(ri, rj)] = min(ri, rj)
    return [find(i) for i in range(len(solutions))]


def classify(n: int, jobs: int = 1, solutions=None) -> List[SolutionRecord]:
    """Group the solutions for this n into equivalence classes of their
    Gram matrices and tag Paley-type classes.  Returns one record per
    class, ordered and represented by its first member in input order
    (the least (hex(a), hex(b)) member for the enumerated list), class_id
    counting from 1.

    The solutions are first collapsed into symmetry orbits, each merge
    carrying a verified certificate.  Each orbit root then gets one
    canonical form: a root whose key equals a representative's joins it
    once are_equivalent confirms the match with a verified certificate,
    and a root with a new key starts a class with no pairwise call, since
    unequal keys prove these vertex-transitive grams inequivalent.  So
    orbits finer than classes are still joined."""
    solutions = list(enumerate(n, jobs=jobs) if solutions is None else solutions)
    if any(sol.n != n for sol in solutions):
        raise ValueError("solutions disagree with n")
    grams = [record_gram(sol) for sol in solutions]
    # canonical key -> (first root with it, its fingerprint); the fingerprint
    # is key[0] and only feeds the traced benchmark span
    classes: dict = {}
    roots = _symmetry_orbits(n, solutions, grams)
    for i in range(len(solutions)):
        if roots[i] != i:
            continue
        fp = equivalence_fingerprint(grams[i])
        j, fp_j = classes.setdefault(canonical_form(grams[i]).key, (i, fp))
        # equal keys imply equal fingerprints and an equivalence, so this
        # check can only fail on a fault of the engine
        if j != i and (fp_j != fp or not are_equivalent(
                grams[j], grams[i], assume_transitive=True).equivalent):
            raise RuntimeError("equal canonical keys without an equivalence")
    reps = [i for i, _ in classes.values()]
    tags = paley_tags(n, [grams[i] for i in reps])
    return [SolutionRecord(n=n, a_hex=hex_encode(solutions[i].a), b_hex=hex_encode(solutions[i].b),
                           symmetry_type=t[0] if t else None, class_id=c, all_types=t)
            for c, i, t in zip(range(1, len(reps) + 1), reps, tags)]


# ---------------------------------------------------------------------------
# persistence


def format_records(records) -> str:
    """One line per record: tab-separated n, hex(a), hex(b), type ('-'
    when untyped), class_id."""
    return "".join(f"{r.n}\t{r.a_hex}\t{r.b_hex}\t{r.symmetry_type or '-'}\t{r.class_id}\n"
                   for r in records)


def load_records(path) -> List[SolutionRecord]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ValueError("expected 5 tab-separated columns")
            n, a_hex, b_hex, t, class_id = parts
            out.append(SolutionRecord(
                n=int(n),
                a_hex=a_hex.upper(),
                b_hex=b_hex.upper(),
                symmetry_type=None if t == "-" else t,
                class_id=int(class_id),
            ))
    return out
