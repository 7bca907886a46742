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
then b is streamed in numpy chunks over [2^(n-1), 2^n), where the
maximum of each S-orbit lies (the orbit holds -b = S^n b).  Only chunk
entries whose code is in the table are tested for orbit maximality, so
nothing of size 2^n is held; jobs > 1 splits the range into shards.

Classification groups the surviving pairs by Gram matrix equivalence
and tags each class that matches a Paley-type reference:
"P" for the Paley gram on GF(2n-1), "DP" for the doubled Paley gram on
GF(n-1), "CDP" for its conjugate; ties are reported with the priority
P > DP > CDP.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .algebra import circulant
from .equiv import are_equivalent, equivalence_fingerprint
from .frames import GramMatrix
from .hadamard import BlockSkewHadamard, assemble, block_etf_gram, hex_decode, hex_encode
from .paley import FiniteField, conj_double_paley_gram, double_paley_gram, paley_gram


# ---------------------------------------------------------------------------
# bit-packed sign vectors


def _pack(v) -> int:
    x = 0
    for s in v:
        x = (x << 1) | (1 if s == 1 else 0)
    return x


def _unpack(x: int, n: int) -> tuple:
    return tuple(1 if (x >> (n - 1 - k)) & 1 else -1 for k in range(n))


def _shift(x: int, n: int) -> int:
    """Bit image of the sign-twisted rotation S."""
    return (x >> 1) | ((~x & 1) << (n - 1))


def _correlation_popcounts(x, n: int, count: int) -> tuple:
    """popcount(x ^ S^s x) for s = 1..count; <v, S^s v> = n - 2 popcount.
    x is an int or an int64 array (then n <= 31): S^s x is the low n bits
    of the 2n-bit word (~x, x) shifted right by s."""
    mask = (1 << n) - 1
    w = ((~x & mask) << n) | x
    return tuple(np.bitwise_count(x ^ (w >> s) & mask).astype(np.int64)
                 for s in range(1, count + 1))


def _profile_codes(x, n: int, complement: bool = False):
    """int64 code of the correlation profile (shifts 1..n/2-1), or of the
    complementary profile n - p.  As p == s (mod 2), p >> 1 is stored as
    one digit in base n/2 + 1."""
    code = np.zeros(np.shape(x), dtype=np.int64)
    for p in _correlation_popcounts(x, n, n // 2 - 1):
        code *= n // 2 + 1
        code += (n - p if complement else p) >> 1
    return code


def canonicalize_b(b) -> tuple:
    """Representative of the orbit of b under sign-twisted rotations and
    negation: the encoding-maximal member (negation is S^n, so the whole
    orbit is the S-orbit of length dividing 2n)."""
    t = tuple(int(s) for s in b)
    if any(s not in (1, -1) for s in t):
        raise ValueError("expected a +-1 vector")
    n = len(t)
    orbit = [_pack(t)]
    for _ in range(2 * n - 1):
        orbit.append(_shift(orbit[-1], n))
    return _unpack(max(orbit), n)


# ---------------------------------------------------------------------------
# enumeration


_CHUNK = 1 << 14  # encodings per step of the b sweep


def _sweep(args):
    """Canonical b in [lo, hi) whose profile code is in the sorted array
    targets.  Each chunk is filtered by profile; only the hits are tested
    for orbit maximality."""
    n, lo, hi, targets = args
    hits = [np.zeros(0, dtype=np.int64)]
    for start in range(lo, hi, _CHUNK):
        x = np.arange(start, min(start + _CHUNK, hi), dtype=np.int64)
        code = _profile_codes(x, n)
        # bisection in the sorted targets; an index past the end wraps to a miss
        hits.append(x[targets[np.searchsorted(targets, code) % len(targets)] == code])
    x = np.concatenate(hits)
    y, keep = x, np.ones(len(x), dtype=bool)
    for _ in range(2 * n - 1):
        y = _shift(y, n)
        keep &= x >= y
    return x[keep]


def _admissible_a(n: int):
    """All encodings of rows a with a[0] == 1 and a[k] == a[n-k]."""
    return [_pack([1] + [1 if f >> (min(k, n - k) - 1) & 1 else -1 for k in range(1, n)])
            for f in range(1 << n // 2)]


def enumerate(n: int, jobs: int = 1) -> List[BlockSkewHadamard]:
    """All two-negacirculant skew Hadamard matrices of order 2n with
    canonical second row, sorted by (hex(a), hex(b)).  Only even n is
    supported (for odd n the diagonal shift s = n/2 is unavailable and the
    space is not defined), up to 30 to keep the sweep's words in int64."""
    if not isinstance(n, int) or not 2 <= n <= 30 or n % 2 != 0:
        raise ValueError("enumeration is supported for even 2 <= n <= 30 only")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    a_values = _admissible_a(n)
    table: dict = {}
    for a, c in zip(a_values, _profile_codes(np.array(a_values), n, True).tolist()):
        table.setdefault(c, []).append(a)
    targets = np.array(sorted(table), dtype=np.int64)
    # contiguous shards of [2^(n-1), 2^n), which holds every orbit maximum
    bounds = [((jobs + i) << (n - 1)) // jobs for i in range(jobs + 1)]
    shards = [(n, bounds[i], bounds[i + 1], targets) for i in range(jobs)]
    if jobs == 1:
        results = [_sweep(shards[0])]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep, shards))
    bs = np.concatenate(results)
    records = [BlockSkewHadamard(n=n, a=_unpack(a, n), b=_unpack(b, n))
               for b, c in zip(bs.tolist(), _profile_codes(bs, n).tolist()) for a in table[c]]
    records.sort(key=lambda r: (hex_encode(r.a), hex_encode(r.b)))
    return records


def brute_force_enumerate(n: int) -> List[Tuple[tuple, tuple]]:
    """Independent small-n oracle: test every (a, b) with canonical b
    directly against the defining matrix identities."""
    if n < 2 or n % 2 != 0:
        raise ValueError("even n >= 2 only")
    out = []
    eye = 2 * n * np.eye(n, dtype=np.int64)
    for a_enc in _admissible_a(n):
        a = _unpack(a_enc, n)
        for b_enc in range(1 << n):
            b = _unpack(b_enc, n)
            if canonicalize_b(b) != b:
                continue
            H = assemble(a, b)
            PP = H[:n, :n] @ H[:n, :n].T + H[:n, n:] @ H[:n, n:].T
            if np.array_equal(PP, eye):
                out.append((a, b))
    out.sort(key=lambda p: (hex_encode(p[0]), hex_encode(p[1])))
    return out


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


def _prime_power(m: int):
    if m < 2:
        return None
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
        p += 1
    return (m, 1)


def paley_reference_grams(n: int) -> dict:
    """The Paley-type reference Grams available at this n, keyed by tag."""
    out = {}
    pp = _prime_power(2 * n - 1)
    if pp is not None and (2 * n - 1) % 4 == 3:
        out["P"] = paley_gram(FiniteField(*pp))
    pp = _prime_power(n - 1)
    if pp is not None and n >= 3 and (n - 1) % 4 == 3:
        field = FiniteField(*pp)
        out["DP"] = double_paley_gram(field)
        out["CDP"] = conj_double_paley_gram(field)
    return out


def record_gram(record) -> GramMatrix:
    """Gram matrix of a solution's sign matrix (accepts BlockSkewHadamard
    or SolutionRecord)."""
    if isinstance(record, SolutionRecord):
        a = hex_decode(record.a_hex, record.n)
        b = hex_decode(record.b_hex, record.n)
        return block_etf_gram(assemble(a, b))
    return block_etf_gram(record.matrix())


def classify(n: int, jobs: int = 1, solutions=None) -> List[SolutionRecord]:
    """Group the solutions for this n into equivalence classes of their
    Gram matrices and tag Paley-type classes.  Returns one record per
    class, ordered and represented by the least (hex(a), hex(b)) member,
    class_id counting from 1."""
    if solutions is None:
        solutions = enumerate(n, jobs=jobs)
    reps: List[GramMatrix] = []
    members: List[BlockSkewHadamard] = []
    fingerprints: List[tuple] = []
    for sol in solutions:
        G = record_gram(sol)
        fp = equivalence_fingerprint(G)
        placed = False
        for i in range(len(reps)):
            # fingerprints are invariants of these (vertex-transitive)
            # grams, so unequal fingerprints settle inequivalence cheaply
            if fingerprints[i] != fp:
                continue
            if are_equivalent(reps[i], G, assume_transitive=True).equivalent:
                placed = True
                break
        if not placed:
            reps.append(G)
            members.append(sol)
            fingerprints.append(fp)
    refs = paley_reference_grams(n)
    records = []
    for i in range(len(reps)):
        tags = tuple(
            tag for tag in ("P", "DP", "CDP")
            if tag in refs
            and are_equivalent(reps[i], refs[tag], assume_transitive=True).equivalent
        )
        records.append(SolutionRecord(
            n=n,
            a_hex=hex_encode(members[i].a),
            b_hex=hex_encode(members[i].b),
            symmetry_type=tags[0] if tags else None,
            class_id=i + 1,
            all_types=tags,
        ))
    return records


# ---------------------------------------------------------------------------
# persistence


def save_records(records, path):
    """Tab-separated rows n, hex(a), hex(b), type ('-' when untyped),
    class_id; UTF-8 text."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            t = r.symmetry_type if r.symmetry_type else "-"
            fh.write(f"{r.n}\t{r.a_hex}\t{r.b_hex}\t{t}\t{r.class_id}\n")


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
