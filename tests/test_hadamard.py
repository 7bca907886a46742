"""Sign matrices, block assembly, Gram bridges, rounding, hex codec.

The frozen 4x4 skew Hadamard used throughout comes from the rows
a = (1, -1), b = (-1, -1); its blocks were assembled by hand:

    P = [[ 1, -1],    Q = [[-1, -1],    H = [[ 1, -1, -1, -1],
         [ 1,  1]]         [ 1, -1]]         [ 1,  1,  1, -1],
                                             [ 1, -1,  1,  1],
                                             [ 1,  1, -1,  1]]
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewframes.frames import GramMatrix, coherence, configuration_from_gram, is_etf
from skewframes.hadamard import (
    AmbiguousEntryError,
    BlockSkewHadamard,
    ExactifyFailure,
    approximate_sign_matrix,
    assemble,
    block_etf_gram,
    double,
    etf_gram,
    exactify,
    hex_decode,
    hex_encode,
    is_hadamard,
    is_skew_hadamard,
)

from reference_rows import FULL_ROWS, PARTIAL_ROWS, decode_row

H4 = np.array([
    [1, -1, -1, -1],
    [1, 1, 1, -1],
    [1, -1, 1, 1],
    [1, 1, -1, 1],
])


# ---------------------------------------------------------------------------
# predicates


def test_frozen_assembly_matches_hand_computation():
    assert np.array_equal(assemble((1, -1), (-1, -1)), H4)


def test_is_skew_hadamard_on_fixture():
    assert is_hadamard(H4)
    assert is_skew_hadamard(H4)


def test_order_one_and_symmetric_hadamard():
    assert is_skew_hadamard([[1]])
    sym = np.array([[1, 1], [1, -1]])
    assert is_hadamard(sym)
    assert not is_skew_hadamard(sym)


def test_predicates_reject_non_hadamard_signs():
    assert not is_hadamard(np.ones((2, 2), dtype=int))
    assert not is_hadamard(np.array([[1, 2], [2, 1]]))


def test_sign_matrix_validation():
    with pytest.raises(ValueError):
        is_hadamard(np.array([[0.5, 1], [1, 0.5]]))
    with pytest.raises(ValueError):
        is_hadamard(np.array([[1j, 1], [1, 1j]]))
    with pytest.raises(ValueError):
        is_hadamard(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# verified block container


def test_block_container_accepts_fixture_rows():
    B = BlockSkewHadamard(n=2, a=(1, -1), b=(-1, -1))
    assert np.array_equal(B.matrix(), H4)


def test_block_container_rejects_bad_leading_entry():
    with pytest.raises(ValueError):
        BlockSkewHadamard(n=2, a=(-1, 1), b=(1, 1))


def test_block_container_rejects_non_palindrome():
    with pytest.raises(ValueError):
        BlockSkewHadamard(n=4, a=(1, 1, 1, -1), b=(1, 1, 1, 1))


def test_block_container_rejects_non_hadamard_assembly():
    with pytest.raises(ValueError):
        BlockSkewHadamard(n=4, a=(1, 1, 1, 1), b=(1, 1, 1, 1))


# ---------------------------------------------------------------------------
# doubling


def test_double_frozen_oracle():
    H2 = np.array([[1, 1], [-1, 1]])
    want = np.array([
        [1, 1, 1, 1],
        [-1, 1, -1, 1],
        [-1, 1, 1, -1],
        [-1, -1, 1, 1],
    ])
    assert np.array_equal(double(H2), want)


def test_double_preserves_skewness():
    D = double(H4)
    assert D.shape == (8, 8)
    assert is_skew_hadamard(D)
    assert is_skew_hadamard(double(D))


def test_double_rejects_non_skew_input():
    with pytest.raises(ValueError):
        double(np.array([[1, 1], [1, -1]]))


# ---------------------------------------------------------------------------
# Gram bridges


def test_etf_gram_uniform_phase_form():
    G = etf_gram(H4)
    off = G.values[~np.eye(4, dtype=bool)]
    assert np.allclose(np.abs(off), 1 / np.sqrt(3), atol=1e-12)
    assert np.allclose(off.real, 0.0, atol=1e-12)  # all entries are +-i * angle
    assert G.exact_scaled is not None
    assert np.allclose(G.exact_scaled, 1j * (H4 - np.eye(4)))


def test_block_etf_gram_is_an_etf():
    G = block_etf_gram(H4)
    config = configuration_from_gram(G, 2)
    assert is_etf(config, rel_tol=1e-9)
    assert abs(coherence(config) - 1 / np.sqrt(3)) < 1e-12
    B = G.values[:2, 2:]
    assert np.allclose(B.imag, 0.0)  # off-diagonal blocks stay real


def test_gram_bridges_reject_bad_orders():
    with pytest.raises(ValueError):
        etf_gram(np.array([[1, 1], [-1, 1]]))  # order 2, not 0 mod 4
    with pytest.raises(ValueError):
        block_etf_gram(np.array([[1, 1], [1, -1]]))  # not skew


@pytest.mark.parametrize("noise", [0.0, 1e-3])
@pytest.mark.parametrize("row", FULL_ROWS + PARTIAL_ROWS, ids=lambda r: f"{r[0]}-{r[1]}-{r[2]}")
def test_reference_rows_round_trip_through_approximate_sign_matrix(row, noise):
    solution = decode_row(row)
    G = block_etf_gram(solution.matrix()).values
    m = G.shape[0]
    rng = np.random.default_rng(m)
    E = noise * (rng.uniform(-1, 1, (m, m)) + 1j * rng.uniform(-1, 1, (m, m)))
    E = (E + E.conj().T) / 2  # keep G Hermitian
    np.fill_diagonal(E, 0)
    assert exactify(approximate_sign_matrix(GramMatrix(G + E))) == solution


def test_identity_gram_is_ambiguous():
    with pytest.raises(AmbiguousEntryError):
        exactify(approximate_sign_matrix(GramMatrix(np.eye(4, dtype=complex))))


# ---------------------------------------------------------------------------
# exactify


def test_exactify_recovers_noisy_fixture():
    noisy = H4 * 0.84  # every entry 0.16 from a sign, well within 0.5
    out = exactify(noisy)
    assert isinstance(out, BlockSkewHadamard)
    assert out.a == (1, -1) and out.b == (-1, -1)


def test_exactify_ambiguous_entry():
    bad = H4.astype(float).copy()
    bad[1, 2] = 0.01
    with pytest.raises(AmbiguousEntryError):
        exactify(bad)


def test_exactify_entry_too_far():
    bad = H4.astype(float).copy()
    bad[0, 0] = 1.7
    with pytest.raises(ValueError):
        exactify(bad)


def test_exactify_structural_failures_are_reported():
    sym = np.array([[1, 1], [1, -1]], dtype=float)
    out = exactify(sym)
    assert isinstance(out, ExactifyFailure)
    assert out.check == "skew symmetry fails"

    # A doubled matrix is skew Hadamard, and skewness alone forces the
    # off-diagonal block relation, so its first failing check is the
    # negacirculant structure of the blocks.
    D = double(H4).astype(float)
    out = exactify(D)
    assert isinstance(out, ExactifyFailure)
    assert out.check == "blocks are not negacirculant"

    # permuting the last two rows and columns of the fixture keeps it
    # skew Hadamard but decouples the two diagonal blocks.
    perm = [0, 1, 3, 2]
    twisted = H4[perm][:, perm].astype(float)
    out = exactify(twisted)
    assert isinstance(out, ExactifyFailure)
    assert out.check == "block layout is not [[P, Q], [-Q^T, P^T]]"


def test_exactify_rejects_complex_noise():
    with pytest.raises(ValueError):
        exactify(H4 + 0.2j)


# ---------------------------------------------------------------------------
# hex codec


def test_hex_decode_worked_example():
    assert hex_decode("24", 6) == (1, -1, -1, 1, -1, -1)
    assert hex_decode("F7", 8) == (1, 1, 1, 1, -1, 1, 1, 1)
    assert hex_decode("2", 2) == (1, -1)
    assert hex_decode("0", 2) == (-1, -1)


def test_hex_encode_worked_example():
    assert hex_encode((1, -1, -1, 1, -1, -1)) == "24"
    assert hex_encode((-1, -1)) == "0"


def test_hex_decode_validation():
    with pytest.raises(ValueError):
        hex_decode("024", 6)  # wrong digit count
    with pytest.raises(ValueError):
        hex_decode("XZ", 8)
    with pytest.raises(ValueError):
        hex_decode("F", 2)  # 0xF needs four sign positions
    with pytest.raises(ValueError):
        hex_decode("24", 0)


@pytest.mark.parametrize("s,n", [
    ("-1", 8),     # int(s, 16) reads -1, whose low bits are all set
    ("+1", 8),
    ("1_F", 12),   # int(s, 16) reads 0x1F
    (" 1", 8),
    ("1 ", 8),
    ("0x", 8),
    ("\uff11\uff12", 8),  # full-width digits, which int() accepts
])
def test_hex_decode_rejects_anything_but_hex_digits(s, n):
    with pytest.raises(ValueError):
        hex_decode(s, n)


def test_hex_decode_accepts_lower_case():
    assert hex_decode("f7", 8) == hex_decode("F7", 8)


@given(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_hex_roundtrip(signs):
    v = tuple(signs)
    s = hex_encode(v)
    assert len(s) == (len(v) + 3) // 4
    assert s == s.upper()
    assert hex_decode(s, len(v)) == v
