import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolnet import bitmatrix
from boolnet.bitmatrix import WORD_BITS, BitMatrix
from boolnet.errors import StructuralError


def test_round_trip_simple():
    arr = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    bm = BitMatrix.from_array(arr)
    assert bm.shape == (2, 3)
    assert np.array_equal(bm.to_array(), arr)


def test_padding_bits_are_zero():
    arr = np.ones((5, 3), dtype=np.uint8)
    bm = BitMatrix.from_array(arr)
    # Signal-major: 5 samples fit in one word per signal; bits 5..63 must
    # be clear so popcounts over whole words count only real samples.
    assert bm.words.shape == (3, 1)
    assert (bm.words == np.uint64(0b11111)).all()


def test_exact_word_boundary():
    rng = np.random.default_rng(0)
    for n in (WORD_BITS, 2 * WORD_BITS):
        arr = rng.integers(0, 2, size=(n, 4))
        bm = BitMatrix.from_array(arr)
        assert bm.words.shape == (4, n // WORD_BITS)  # no padding word
        assert np.array_equal(bm.to_array(), arr.astype(np.uint8))
        # One sample more spills into a word whose bits past it are zero.
        ones = BitMatrix.from_array(np.ones((n + 1, 4), dtype=np.uint8))
        assert ones.words.shape == (4, n // WORD_BITS + 1)
        assert (ones.words[:, :-1] == ~np.uint64(0)).all()
        assert (ones.words[:, -1] == np.uint64(1)).all()


def test_from_array_any_dtype_and_memory_order():
    # Fortran order with (128 signals) and without (70) a whole-word width.
    arr = np.random.default_rng(3).integers(0, 2, size=(70, 128)).astype(np.uint8)
    want = BitMatrix.from_array(arr)
    for same in (np.asfortranarray(arr), arr * 3, arr.astype(bool), arr.astype(float)):
        assert BitMatrix.from_array(same) == want
    assert np.array_equal(BitMatrix.from_array(arr.T).to_array(), arr.T)


def test_zeros_and_row_range():
    z = BitMatrix(np.zeros((70, 1), dtype=np.uint64), 5)
    assert z.shape == (5, 70)
    assert not z.to_array().any()
    rng = np.random.default_rng(1)
    arr = rng.integers(0, 2, size=(6, 10)).astype(np.uint8)
    bm = BitMatrix.from_array(arr)
    rr = bm.row_range(2, 5)
    assert np.array_equal(rr.to_array(), arr[2:5])


@pytest.mark.parametrize(
    "lo, hi",
    [(0, 64), (0, 65), (3, 64), (3, 128), (5, 130), (63, 129), (64, 128),
     (70, 200), (100, 101), (7, 7)],
)
def test_row_range_off_word_boundaries(lo, hi):
    arr = np.random.default_rng(lo * 1000 + hi).integers(0, 2, size=(130, 9))
    bm = BitMatrix.from_array(arr)
    rr = bm.row_range(lo, hi)
    assert rr == BitMatrix.from_array(arr[lo:hi])  # also clips hi past 130
    assert np.array_equal(rr.to_array(), arr[lo:hi].astype(np.uint8))


def test_signal_words_round_trip():
    rng = np.random.default_rng(2)
    arr = rng.integers(0, 2, size=(130, 9)).astype(np.uint8)
    bm = BitMatrix.from_array(arr)
    sig = bm.words
    assert sig.shape == (9, 3)  # 130 samples -> 3 words per signal
    back = BitMatrix(sig, 130)
    assert back == bm
    with pytest.raises(StructuralError):
        BitMatrix(sig, 193)  # 3 words hold 192 samples


def test_immutability_and_equality():
    bm = BitMatrix.from_array([[1, 0, 1]])
    with pytest.raises(ValueError):
        bm.words[0, 0] = np.uint64(0)
    same = BitMatrix.from_array([[1, 0, 1]])
    assert bm == same
    assert bm != BitMatrix.from_array([[1, 0, 0]])


def test_bad_constructor_args():
    with pytest.raises(StructuralError):
        BitMatrix(np.zeros((2, 2), dtype=np.uint32), 5)
    with pytest.raises(StructuralError):
        BitMatrix(np.zeros((2, 2), dtype=np.uint64), 5)  # needs 1 word
    with pytest.raises(StructuralError):
        BitMatrix.from_array(np.zeros(4))


def _signal_words_oracle(bm: BitMatrix) -> np.ndarray:
    """Signal-major words by unpacking, transposing and repacking bytes."""
    bits = np.ascontiguousarray(bm.to_array().T)
    n_signals, n_samples = bits.shape
    padded = np.zeros((n_signals, n_samples + (-n_samples) % WORD_BITS), np.uint8)
    padded[:, :n_samples] = bits
    packed = np.packbits(padded, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 200),
    m=st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_property(n, m, seed):
    arr = np.random.default_rng(seed).integers(0, 2, size=(n, m))
    bm = BitMatrix.from_array(arr)
    assert np.array_equal(bm.to_array(), arr.astype(np.uint8))
    sig = bm.words
    assert np.array_equal(sig, _signal_words_oracle(bm))
    # Bits past the last sample stay zero: profiling popcounts whole words.
    if n % WORD_BITS:
        assert not (sig[:, -1] >> np.uint64(n % WORD_BITS)).any()
    assert BitMatrix(sig, n) == bm


@pytest.mark.parametrize("n, m", [(200, 130), (64, 257), (129, 64)])
def test_one_block_slabs_equal_one_slab(monkeypatch, n, m):
    """With one 64-row block per transpose slab, every conversion equals
    the one-slab result: bits left in the reused buffers by an earlier
    slab never reach the padding of a ragged last one."""
    arr = np.random.default_rng(n + m).integers(0, 2, size=(n, m))
    arr = arr.astype(np.uint8)
    whole = BitMatrix.from_array(arr)
    oracle = _signal_words_oracle(whole)
    monkeypatch.setattr(bitmatrix, "WORK_BYTES", 1)
    slabs = BitMatrix.from_array(arr)
    assert np.array_equal(slabs.words, oracle)
    assert np.array_equal(slabs.to_array(), arr)
    assert np.array_equal(slabs.row_range(3, n - 1).to_array(), arr[3 : n - 1])
    assert np.array_equal(BitMatrix.from_array(arr.T).to_array(), arr.T)
