"""Switching/permutation equivalence of ETF Gram matrices, decided in
exact integer arithmetic.

Two Gram matrices are equivalent when some monomial matrix Pi (a
permutation with unimodular column scalings) satisfies
G1 = Pi G0 Pi*.  All Gram matrices handled here have an exact view
K = sqrt(N-1) (G - I) with entries in {0, +-1, +-i}, so the whole
question is combinatorial:

- normalize(G, anchor) moves the anchor vertex to index 0 and rescales
  so the entire first row and column of K become +1.  Phases are then
  completely pinned: any residual equivalence between two normalized
  grams that keeps index 0 fixed is a pure permutation of {1..N-1}.
- are_equivalent matches G0 normalized at anchor 0 against G1
  normalized at every anchor (transitive grams need only anchor 0),
  trying each candidate image for the vertex labelled 1 and running a
  forward-checked backtracking search for the residual permutation.
- Certificates are returned as (permutation, phases) and are verified
  against both the float and the exact data before being returned.

equivalence_fingerprint (the histogram of stable Weisfeiler-Leman pair
colors) is equal for equivalent vertex-transitive grams, so unequal
fingerprints prove inequivalence without a search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .frames import GramMatrix


class NotEtfGramError(ValueError):
    """The matrix has no exact {0, +-1, +-i} scaled off-diagonal view."""


def _exact_view(G: GramMatrix) -> np.ndarray:
    """sqrt(N-1) (G - I) with entries verified to be 0 on the diagonal
    and Gaussian units off it."""
    if G.exact_scaled is not None:
        K = np.asarray(G.exact_scaled, dtype=complex)
    else:
        N = G.size
        K = np.sqrt(N - 1) * (G.values - np.eye(N))
    R = np.rint(K.real)
    I = np.rint(K.imag)
    if float(np.max(np.abs(K - (R + 1j * I)))) > 1e-6:
        raise NotEtfGramError("scaled off-diagonal entries are not Gaussian integers")
    K = R + 1j * I
    N = K.shape[0]
    off = ~np.eye(N, dtype=bool)
    if np.any(np.abs(R) + np.abs(I) != off.astype(float)):
        raise NotEtfGramError("entries are not Gaussian units off the diagonal")
    return K


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
    """Result of normalize(): gram carries the normalized floats, exact
    the integer view with all-ones first row and column; order[new] is
    the original index now sitting at position new, and phases holds the
    unimodular scalings applied after that reordering."""

    gram: GramMatrix
    exact: np.ndarray
    order: tuple
    phases: tuple


def normalize(G: GramMatrix, anchor: int = 0) -> NormalizedGram:
    K = _exact_view(G)
    N = K.shape[0]
    if not 0 <= anchor < N:
        raise ValueError("anchor out of range")
    order = list(range(N))
    order[0], order[anchor] = order[anchor], order[0]
    K1 = K[np.ix_(order, order)]
    d = np.ones(N, dtype=complex)
    d[1:] = K1[0, 1:]
    NK = (d[:, None] * K1) * d.conj()[None, :]
    values = np.eye(N) + NK / np.sqrt(N - 1)
    return NormalizedGram(
        gram=GramMatrix(values, exact_scaled=NK),
        exact=NK,
        order=tuple(order),
        phases=tuple(d),
    )


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Monomial witness: with p = permutation and f = phases, the matrix
    Pi with Pi[p[j], j] = f[p[j]] satisfies Pi G0 Pi* == G1."""

    permutation: tuple
    phases: tuple

    def apply(self, G: GramMatrix) -> GramMatrix:
        M = G.values
        N = M.shape[0]
        p = np.asarray(self.permutation)
        f = np.asarray(self.phases, dtype=complex)
        out = np.empty_like(M)
        out[np.ix_(p, p)] = (f[p, None] * M) * f[p].conj()[None, :]
        exact = None
        if G.exact_scaled is not None:
            E = np.asarray(G.exact_scaled, dtype=complex)
            exact = np.empty_like(E)
            exact[np.ix_(p, p)] = (f[p, None] * E) * f[p].conj()[None, :]
        return GramMatrix(out, exact_scaled=exact)


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    certificate: Optional[EquivalenceCertificate] = None


def _wl_colors(codes: np.ndarray):
    """Canonical stable pair coloring by Weisfeiler-Leman style
    refinement: the color of a pair (i, j) starts as its value code and
    is repeatedly refined by a 64-bit sketch of the multiset of color
    pairs ((i, k), (k, j)) over all middle points k.

    The relabeling after every round orders colors by their (old color,
    sketch) signature, so two matrices related by a simultaneous row and
    column permutation get identical color matrices up to that
    permutation, and in particular identical histograms; this is what
    makes the histogram a sound pruning invariant and the colors sound
    candidate filters.  Sketch collisions can only make the refinement
    coarser, never unsound.
    """
    C = codes.astype(np.int64)
    N = C.shape[0]
    rng = np.random.default_rng(0x5EED)
    while True:
        ncol = int(C.max()) + 1
        w1 = rng.integers(1, 1 << 62, size=ncol, dtype=np.int64)
        w2 = rng.integers(1, 1 << 62, size=ncol, dtype=np.int64)
        S = w1[C] @ w2[C]
        sig = np.stack([C.ravel(), S.ravel()], axis=1)
        _, inv = np.unique(sig, axis=0, return_inverse=True)
        C = inv.reshape(N, N).astype(np.int64)
        if int(C.max()) + 1 == ncol:
            break
    # canonical ids make the id-tagged histogram itself an invariant
    hist = tuple(np.bincount(C.ravel()).tolist())
    return C, hist


def _row_signatures(col: np.ndarray):
    """Per-vertex invariant under pair-color-preserving permutations:
    the diagonal color plus the sorted row and column color multisets."""
    N = col.shape[0]
    return [
        (int(col[i, i]), tuple(sorted(col[i].tolist())),
         tuple(sorted(col[:, i].tolist())))
        for i in range(N)
    ]


def _find_permutation(col0, col1, rows0, rows1):
    """Permutation sigma of {0..N-1} with sigma(0) = 0 and
    col1[sigma u, sigma w] == col0[u, w] for all u, w; None if none
    exists.  Equal stable colors imply equal value codes, so any sigma
    found here carries the normalized exact view onto the other.

    Forward-checked backtracking, always extending the vertex with the
    fewest remaining candidates.  Candidate sets are bitsets (ints, bit
    t = target vertex t) so the inner loop is pure integer arithmetic:
    the candidates of w after mapping u -> k are the old candidates
    intersected with {t : col1[k, t] == col0[u, w]} and
    {t : col1[t, k] == col0[w, u]}, both precomputed per (k, color)."""
    N = col0.shape[0]
    C0 = col0.tolist()
    C1 = col1.tolist()
    row_mask = []  # row_mask[k][v] bits = {t : col1[k, t] == v}
    col_mask = []  # col_mask[k][v] bits = {t : col1[t, k] == v}
    for k in range(N):
        rk: dict = {}
        row_mask.append(rk)
        for t, v in enumerate(C1[k]):
            rk[v] = rk.get(v, 0) | (1 << t)
    for k in range(N):
        ck: dict = {}
        col_mask.append(ck)
        for t in range(N):
            v = C1[t][k]
            ck[v] = ck.get(v, 0) | (1 << t)

    diag_mask: dict = {}
    sig_mask: dict = {}
    for k in range(N):
        v = C1[k][k]
        diag_mask[v] = diag_mask.get(v, 0) | (1 << k)
        s = rows1[k]
        sig_mask[s] = sig_mask.get(s, 0) | (1 << k)

    anchor_row = row_mask[0]
    anchor_col = col_mask[0]
    nonzero = ((1 << N) - 1) ^ 1
    masks = {}
    for u in range(1, N):
        m = (nonzero
             & anchor_row.get(C0[0][u], 0)
             & anchor_col.get(C0[u][0], 0)
             & diag_mask.get(C0[u][u], 0)
             & sig_mask.get(rows0[u], 0))
        if m == 0:
            return None
        masks[u] = m

    assignment = {0: 0}

    def extend(masks):
        if not masks:
            return True
        u = min(masks, key=lambda w: masks[w].bit_count())
        row_u = C0[u]
        cand = masks[u]
        while cand:
            k_bit = cand & -cand
            cand ^= k_bit
            k = k_bit.bit_length() - 1
            rmk = row_mask[k]
            cmk = col_mask[k]
            keep = ~k_bit
            narrowed = {}
            feasible = True
            for w, mw in masks.items():
                if w == u:
                    continue
                nm = (mw & keep
                      & rmk.get(row_u[w], 0)
                      & cmk.get(C0[w][u], 0))
                if nm == 0:
                    feasible = False
                    break
                narrowed[w] = nm
            if feasible:
                assignment[u] = k
                if extend(narrowed):
                    return True
                del assignment[u]
        return False

    if extend(masks):
        return assignment
    return None


def _certificate_from(ng0: NormalizedGram, ng1: NormalizedGram, sigma: dict,
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
    if mapped.exact_scaled is not None and G1.exact_scaled is not None:
        return bool(np.array_equal(mapped.exact_scaled, G1.exact_scaled))
    return True


def are_equivalent(G0: GramMatrix, G1: GramMatrix,
                   assume_transitive: bool = False) -> EquivalenceResult:
    """Decide monomial equivalence of two exact-view Gram matrices.

    assume_transitive=True restricts the anchor scan to index 0; that is
    sound whenever either gram has a vertex-transitive automorphism
    group (compose any equivalence with an automorphism moving the
    anchor), which holds for all Gram matrices built from dihedral
    orbits or Paley matrices in this package.
    """
    if G0.size != G1.size:
        raise ValueError("Gram matrices must have equal size")
    N = G0.size
    ng0 = normalize(G0, 0)
    col0, hist0 = _wl_colors(_codes(ng0.exact))
    rows0 = _row_signatures(col0)

    anchors = [0] if assume_transitive else list(range(N))
    for anchor in anchors:
        ng1 = normalize(G1, anchor)
        col1, hist1 = _wl_colors(_codes(ng1.exact))
        if hist1 != hist0:
            continue
        rows1 = _row_signatures(col1)
        sigma = _find_permutation(col0, col1, rows0, rows1)
        if sigma is None:
            continue
        cert = _certificate_from(ng0, ng1, sigma, N)
        if not _verify_certificate(cert, G0, G1):
            raise RuntimeError("internal error: certificate failed verification")
        return EquivalenceResult(True, cert)
    return EquivalenceResult(False, None)


def equivalence_fingerprint(G: GramMatrix) -> tuple:
    """Histogram of the stable pair colors of the anchor-0 normalized
    exact view.  Equivalent vertex-transitive grams always agree (an
    equivalence can be composed with an automorphism to fix the anchor),
    so unequal fingerprints prove transitive grams inequivalent."""
    ng = normalize(G, 0)
    _, hist = _wl_colors(_codes(ng.exact))
    return (G.size, hist)
