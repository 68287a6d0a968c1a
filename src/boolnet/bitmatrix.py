"""Bit-packed binary matrices.

A BitMatrix stores a (samples x signals) 0/1 matrix in 64-bit words,
signal-major: row i holds signal i of every sample, sample s in bit
(s % 64) of word (s // 64), so one word operation evaluates a gate on 64
samples. Padding bits past the last sample are zero, so word popcounts
are exact. Sample-major words (row s holds sample s) exist only inside
`from_array`, `to_array` and `row_range`, at the boundary with training's
uint8 arrays: the layouts convert by transposing 64 x 64 bit blocks, a
transpose that is its own inverse (`_transpose_bits`).
"""

from __future__ import annotations

import numpy as np

from .errors import StructuralError

WORD_BITS = 64


def _words_needed(n_bits: int) -> int:
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def _transpose_bits(words: np.ndarray, n_cols: int) -> np.ndarray:
    """Bit-transpose an (r x w) uint64 word array whose rows hold `64 * w`
    bit columns: returns (n_cols x ceil(r / 64)) words in which bit k of
    row c is bit c of input row k.

    Input rows are zero-padded to a multiple of 64, so the result's bits
    past r are zero; bit columns past `n_cols` are dropped.
    """
    r, w = words.shape
    n_blocks = _words_needed(r)
    # blocks[i, k, j] is word j of row 64k + i (zero past r): one 64 x 64
    # bit block per (k, j), its row index outermost so that the swaps
    # below work on long contiguous runs.
    blocks = np.zeros((WORD_BITS, n_blocks, w), dtype=np.uint64)
    full, rem = divmod(r, WORD_BITS)
    rows = blocks.transpose(1, 0, 2)
    rows[:full] = words[: full * WORD_BITS].reshape(full, WORD_BITS, w)
    if rem:
        rows[full, :rem] = words[full * WORD_BITS :]
    for j in (32, 16, 8, 4, 2, 1):
        # Swap the j x j sub-blocks off the diagonal of each 2j x 2j block;
        # the mask keeps the low j bits of every 2j-bit group of a word.
        low = (1 << j) - 1
        mask = np.uint64(sum(low << i for i in range(0, WORD_BITS, 2 * j)))
        pairs = blocks.reshape(WORD_BITS // (2 * j), 2, j, n_blocks * w)
        lo, hi = pairs[:, 0], pairs[:, 1]
        t = ((lo >> np.uint64(j)) ^ hi) & mask
        hi ^= t
        lo ^= t << np.uint64(j)
    # Now blocks[c, k, j] is word k of bit column 64j + c.
    out = blocks.transpose(2, 0, 1).reshape(w * WORD_BITS, n_blocks)
    return np.ascontiguousarray(out[:n_cols])


class BitMatrix:
    """Immutable (samples x signals) binary matrix, stored signal-major."""

    __slots__ = ("words", "n_samples")

    def __init__(self, words: np.ndarray, n_samples: int):
        if words.ndim != 2 or words.dtype != np.uint64:
            raise StructuralError("BitMatrix needs a 2-D uint64 word array")
        if words.shape[1] != _words_needed(n_samples):
            raise StructuralError(
                f"word array has {words.shape[1]} columns, "
                f"{_words_needed(n_samples)} needed for {n_samples} samples"
            )
        self.words = words
        self.n_samples = n_samples
        self.words.flags.writeable = False

    @property
    def n_signals(self) -> int:
        return self.words.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_samples, self.n_signals)

    @classmethod
    def from_array(cls, arr) -> "BitMatrix":
        """Build from any 2-D (samples x signals) array of 0/1 (or boolean)
        values; any nonzero value counts as 1."""
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise StructuralError("expected a 2-D array of bits")
        if arr.dtype.kind not in "biu":
            arr = arr != 0  # packbits takes only integers and booleans
        packed = np.packbits(arr, axis=1, bitorder="little")
        pad = _words_needed(arr.shape[1]) * 8 - packed.shape[1]
        # Zero bytes up to a whole word. packbits and pad keep the input's
        # memory order; the uint64 view needs a contiguous last axis.
        packed = np.ascontiguousarray(np.pad(packed, ((0, 0), (0, pad))))
        n, m = arr.shape
        return cls(_transpose_bits(packed.view(np.uint64), m), n)

    def to_array(self) -> np.ndarray:
        """Unpack to a (samples x signals) uint8 array."""
        rows = _transpose_bits(self.words, self.n_samples).view(np.uint8)
        return np.unpackbits(rows, 1, self.n_signals, bitorder="little")

    def row_range(self, lo: int, hi: int) -> "BitMatrix":
        rows = _transpose_bits(self.words, self.n_samples)[lo:hi]
        return BitMatrix(_transpose_bits(rows, self.n_signals), rows.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.n_samples == other.n_samples and np.array_equal(
            self.words, other.words
        )

    def __repr__(self) -> str:
        return f"BitMatrix({self.n_samples}x{self.n_signals})"
