"""The backtracking equivalence search that classify used before
canonical forms, kept as an independent oracle for tests.

oracle_equivalent(G0, G1) normalizes both grams at anchor 0, colours
the pairs by stable 2-dimensional Weisfeiler-Leman refinement
(_wl_colors, defined here) and searches for a permutation fixing index
0 that carries one pair colouring onto the other, extending the vertex
with the fewest candidates first.  It shares only normalize and the
certificate code with the engine: neither its refinement nor its search
is the engine's colour refinement or canonical labeling.
"""

import numpy as np

from skewframes.equiv import _certificate_from, _codes, _verify_certificate, normalize


def _wl_colors(codes: np.ndarray):
    """Canonical stable pair coloring by Weisfeiler-Leman style
    refinement: the color of a pair (i, j) starts as its value code and
    is repeatedly refined by a 64-bit sketch of the multiset of color
    pairs ((i, k), (k, j)) over all middle points k.

    The relabeling after every round orders colors by their (old color,
    sketch) signature, so two matrices related by a simultaneous row and
    column permutation get identical color matrices up to that
    permutation, and in particular identical histograms; this is what
    makes the histogram a sound invariant.  Sketch collisions can only
    make the refinement coarser, never unsound.
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


def oracle_sigma(ng0, ng1):
    """The permutation found between two normalized grams, or None."""
    col0, col1 = (_wl_colors(_codes(ng.exact))[0] for ng in (ng0, ng1))
    return _find_permutation(col0, col1, _row_signatures(col0), _row_signatures(col1))


def oracle_equivalent(G0, G1):
    """Verified certificate carrying G0 onto G1 with anchor 0 sent to
    anchor 0, or None; for vertex-transitive grams None proves them
    inequivalent."""
    ng0, ng1 = normalize(G0, 0), normalize(G1, 0)
    sigma = oracle_sigma(ng0, ng1)
    if sigma is None:
        return None
    cert = _certificate_from(ng0, ng1, sigma, G0.size)
    assert _verify_certificate(cert, G0, G1)
    return cert
