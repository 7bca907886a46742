"""Switching/permutation equivalence of ETF Gram matrices, decided by
canonical forms in exact integer arithmetic.

Two Gram matrices are equivalent when some monomial matrix Pi (a
permutation with unimodular column scalings) satisfies
G1 = Pi G0 Pi*.  All Gram matrices handled here have an exact view
K = sqrt(N-1) (G - I) with entries in {0, +-1, +-i}, so the whole
question is combinatorial:

- Normalization.  normalize(G, anchor) moves the anchor vertex to
  index 0 and rescales so the entire first row and column of K become
  +1.  Phases are then completely pinned: the normalized view is unique
  up to a permutation of {1..N-1}, and any residual equivalence between
  two normalized grams that keeps index 0 fixed is such a permutation.
- Refinement.  The normalized view, coded 0, +1, -1, +i, -i ->
  0..4, is a complete digraph with 5 edge colours; K is Hermitian, so
  its rows alone determine it.  _refine is 1-dimensional colour
  refinement on it: a vertex's new colour is the rank of its signature
  (colour, sum over w of W[code(v, w), colour(w)]) among the sorted
  distinct signatures, with fixed 64-bit weights W and wrapping int64
  sums.  Ranks do not depend on vertex labels, and a weight collision
  can only leave a cell unsplit, so refinement commutes with every
  relabeling.
- Canonical labeling (McKay-Piperno, "Practical graph isomorphism, II",
  J. Symbolic Comput. 60, 2014).  canonical_form individualizes vertex 0
  and refines, then repeatedly individualizes each vertex of the first
  smallest non-singleton cell and refines again, until every cell is a
  singleton.  A leaf's key is the tuple of refinement traces along its
  path followed by the bytes of the codes relabeled by the leaf's
  colours; the canonical form is the leaf of maximal key.  Two leaves
  of equal key differ by an automorphism, and a child in the orbit of
  an already searched child, under the automorphisms found so far that
  fix the path pointwise, is skipped: its subtree holds the same keys.
  A node whose traces already fall below the best leaf's is skipped as
  well, unless it can still reach the first leaf.
- Soundness.  Each step above is label-invariant, so the maximal key is
  an invariant of the normalized view up to permutations fixing 0.  The
  key holds the whole relabeled matrix, so equal keys mean equal
  relabeled views, and composing the two labelings gives an
  equivalence (are_equivalent verifies it exactly before returning it).
  Unequal keys at anchor 0 prove transitive grams inequivalent: any
  equivalence composed with an automorphism can be made to send anchor
  0 to anchor 0, and would then make the keys equal.  The proof is
  exhaustive over the search tree, up to verified automorphisms.
- Certificates are returned as (permutation, phases) and are verified
  against both the float and the exact data before being returned.

equivalence_fingerprint is the first entry of every canonical key: the
refinement trace of the root of canonical_form's search, the anchor-0
normalized view with vertex 0 individualized.  It is equal for
equivalent vertex-transitive grams by the same anchor argument as the
key, and never separates the solutions of one n; search.classify still
computes it per orbit root only because the traced benchmark run
(bench/tracer.py) records that span.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .frames import GramMatrix, NotEtfGramError  # noqa: F401 (re-exported)


def _codes(K: np.ndarray) -> np.ndarray:
    """int8 encoding 0,+1,-1,+i,-i -> 0,1,2,3,4 for fast comparisons."""
    out = np.zeros(K.shape, dtype=np.int8)
    out[K == 1] = 1
    out[K == -1] = 2
    out[K == 1j] = 3
    out[K == -1j] = 4
    return out


@dataclass(frozen=True)
class NormalizedGram:
    """Result of normalize(): exact is the integer view with all-ones
    first row and column; order[new] is the original index now sitting
    at position new, and phases holds the unimodular scalings applied
    after that reordering."""

    exact: np.ndarray
    order: tuple
    phases: tuple


def normalize(G: GramMatrix, anchor: int = 0) -> NormalizedGram:
    K = G.exact_view
    N = K.shape[0]
    if not 0 <= anchor < N:
        raise ValueError("anchor out of range")
    order = list(range(N))
    order[0], order[anchor] = order[anchor], order[0]
    K1 = K[np.ix_(order, order)]
    d = np.ones(N, dtype=complex)
    d[1:] = K1[0, 1:]
    NK = (d[:, None] * K1) * d.conj()[None, :]
    return NormalizedGram(exact=NK, order=tuple(order), phases=tuple(d))


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Monomial witness: with p = permutation and f = phases, the matrix
    Pi with Pi[p[j], j] = f[p[j]] satisfies Pi G0 Pi* == G1."""

    permutation: tuple
    phases: tuple

    def apply(self, G: GramMatrix) -> GramMatrix:
        M = G.values
        N = M.shape[0]
        if sorted(self.permutation) != list(range(N)) or len(self.phases) != N:
            raise ValueError("certificate needs a permutation of range(N) and N phases")
        p = np.asarray(self.permutation)
        f = np.asarray(self.phases, dtype=complex)
        out = np.empty_like(M)
        out[np.ix_(p, p)] = (f[p, None] * M) * f[p].conj()[None, :]
        return GramMatrix(out)


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    certificate: Optional[EquivalenceCertificate] = None


# ---------------------------------------------------------------------------
# canonical forms by individualization-refinement


@lru_cache(maxsize=None)
def _weights(N: int) -> np.ndarray:
    """W[code, colour] for the 5 codes and N colours: splitmix64 of
    5 * colour + code + 1, so the entries for a colour do not depend
    on N."""
    z = np.arange(1, 5 * N + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    W = np.ascontiguousarray(z.view(np.int64).reshape(N, 5).T)
    W.flags.writeable = False  # shared by every caller through the cache
    return W


def _refine(codes: np.ndarray, colors: np.ndarray):
    """Colour refinement of the dense colouring colors (ranks 0..k-1)
    to its stable refinement, returned with the trace: the bytes of
    every step's signature sums, sorted by (colour, sum).

    Sorting by the old colour first keeps every cell in place, so the
    result refines colors and an individualized vertex keeps its rank."""
    N = len(colors)
    W = _weights(N)
    trace = []
    count = int(colors.max()) + 1
    while count < N:
        S = W[codes, colors].sum(axis=1)
        order = np.lexsort((S, colors))
        c, s = colors[order], S[order]
        trace.append(s.tobytes())
        ranks = np.cumsum(np.concatenate(([0], (c[1:] != c[:-1]) | (s[1:] != s[:-1]))))
        if ranks[-1] + 1 == count:
            break
        colors = np.empty(N, dtype=np.int64)
        colors[order] = ranks
        count = int(ranks[-1]) + 1
    return colors, b"".join(trace)


def _anchored(N: int) -> np.ndarray:
    """The root colouring of the search: vertex 0 individualized."""
    colors = np.ones(N, dtype=np.int64)
    colors[0] = 0
    return colors


def _individualize(colors: np.ndarray, v: int) -> np.ndarray:
    """Split {v} off the front of its cell; later ranks move up by one."""
    out = colors + (colors >= colors[v])
    out[v] = colors[v]
    return out


def _orbits(labels: list, generators) -> list:
    """Least member of each vertex's orbit once the orbits given by
    labels (labels[v], the least member of v's orbit so far) are joined
    along the generators."""
    parent = list(labels)

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for g in generators:
        for i, j in enumerate(g.tolist()):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    return [find(i) for i in range(len(parent))]


def _canonical_labeling(codes: np.ndarray):
    """(key, labeling) of the maximal leaf of the search tree of the
    codes with vertex 0 individualized; labeling[v] is the canonical
    position of vertex v (0 for vertex 0)."""
    N = len(codes)
    first = best = None  # (key, labeling, path) of the first and the best leaf
    automorphisms = []

    def leaf(colors, traces, path):
        """None, or the depth to return to: an automorphism g found here
        fixes the path shared with the reference leaf and maps its branch
        below onto this one, so the rest of this branch is a copy."""
        nonlocal first, best
        perm = np.argsort(colors)
        key = traces + (codes[perm][:, perm].tobytes(),)
        if first is None:
            first = best = (key, colors, path)
            return None
        for ref_key, ref_labeling, ref_path in (first, best):
            if key == ref_key:
                # codes[g[u], g[w]] == codes[u, w]: both leaves relabel to key
                automorphisms.append(perm[ref_labeling])
                shared = 0
                while path[shared] == ref_path[shared]:
                    shared += 1
                return shared
        if key > best[0]:
            best = (key, colors, path)
        return None

    def visit(colors, traces, path):
        """None, or the depth to return to (see leaf)."""
        colors, trace = _refine(codes, colors)
        traces = traces + (trace,)
        if int(colors.max()) == N - 1:
            return leaf(colors, traces, path)
        depth = len(traces)
        if (best is not None and traces < best[0][:depth]
                and traces != first[0][:depth]):
            return None  # no leaf below can reach or tie the best or the first
        sizes = np.bincount(colors)
        cells = np.flatnonzero(sizes > 1)
        cell = np.flatnonzero(colors == cells[np.argmin(sizes[cells])]).tolist()
        known, orbit, searched = 0, None, []
        for v in cell:
            if searched and known != len(automorphisms):
                fixing = [g for g in automorphisms[known:] if all(g[p] == p for p in path)]
                known = len(automorphisms)
                if fixing:
                    orbit = _orbits(orbit or list(range(N)), fixing)
            if orbit is not None and any(orbit[u] == orbit[v] for u in searched):
                continue
            back = visit(_individualize(colors, v), traces, path + [v])
            if back is not None and back < len(path):
                return back
            searched.append(v)
        return None

    visit(_anchored(N), (), [])
    return best[:2]


class CanonicalForm(NamedTuple):
    """key: the canonical key of the normalized view; labeling[v]: the
    canonical position of vertex v of normalized.exact; normalized: the
    view at the anchor the form was taken at."""

    key: tuple
    labeling: np.ndarray
    normalized: NormalizedGram


def canonical_form(G: GramMatrix, anchor: int = 0) -> CanonicalForm:
    """Canonical form of G normalized at the anchor.  Keys are equal
    exactly when the two normalized views differ by a permutation
    fixing index 0; for vertex-transitive grams the key at any anchor is
    a complete equivalence invariant."""
    ng = normalize(G, anchor)
    key, labeling = _canonical_labeling(_codes(ng.exact))
    return CanonicalForm(key, labeling, ng)


def _certificate_from(ng0: NormalizedGram, ng1: NormalizedGram, sigma,
                      N: int) -> EquivalenceCertificate:
    """Compose (normalize G0) -> (permute by sigma) -> (unnormalize G1)
    into one monomial map: original index j of G0 sits at normalized
    position u, which sigma sends to position sigma[u] of G1."""
    position0 = {old: new for new, old in enumerate(ng0.order)}
    perm = [0] * N
    phases = [0j] * N
    for j in range(N):
        u = position0[j]
        s = sigma[u]
        perm[j] = ng1.order[s]
        phases[perm[j]] = complex(ng0.phases[u] * np.conj(ng1.phases[s]))
    return EquivalenceCertificate(tuple(perm), tuple(phases))


def _verify_certificate(cert, G0, G1) -> bool:
    mapped = cert.apply(G0)
    if float(np.max(np.abs(mapped.values - G1.values))) > 1e-9:
        return False
    return bool(np.array_equal(mapped.exact_view, G1.exact_view))


def are_equivalent(G0: GramMatrix, G1: GramMatrix,
                   assume_transitive: bool = False) -> EquivalenceResult:
    """Decide monomial equivalence of two exact-view Gram matrices by
    comparing the canonical key of G0 at anchor 0 with that of G1 at
    anchor 0, or at every anchor when assume_transitive is false.

    Equal keys give sigma = labeling1^-1 o labeling0, which carries the
    normalized view of G0 onto that of G1; it is composed into a
    certificate and verified exactly, and a failed verification raises
    RuntimeError.  assume_transitive=True is sound whenever either gram
    has a vertex-transitive automorphism group (compose any equivalence
    with an automorphism moving the anchor), which holds for all Gram
    matrices built from dihedral orbits or Paley matrices in this
    package.
    """
    if G0.size != G1.size:
        raise ValueError("Gram matrices must have equal size")
    N = G0.size
    form0 = canonical_form(G0)
    for anchor in [0] if assume_transitive else range(N):
        form1 = canonical_form(G1, anchor)
        if form1.key != form0.key:
            continue
        sigma = np.argsort(form1.labeling)[form0.labeling].tolist()
        cert = _certificate_from(form0.normalized, form1.normalized, sigma, N)
        if not _verify_certificate(cert, G0, G1):
            raise RuntimeError("certificate failed verification")
        return EquivalenceResult(True, cert)
    return EquivalenceResult(False, None)


def equivalence_fingerprint(G: GramMatrix) -> tuple:
    """(N, trace) for the refinement trace of the anchor-0 normalized
    view with vertex 0 individualized, which is canonical_form(G).key[0].
    Equivalent vertex-transitive grams always agree (an equivalence can
    be composed with an automorphism to fix the anchor), so unequal
    fingerprints prove transitive grams inequivalent."""
    return (G.size, _refine(_codes(normalize(G).exact), _anchored(G.size))[1])
