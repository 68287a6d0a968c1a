"""Bit-packed binary matrices.

A BitMatrix stores a (samples x signals) 0/1 matrix in 64-bit words,
signal-major: row i holds signal i of every sample, sample s in bit
(s % 64) of word (s // 64), so one word operation evaluates a gate on 64
samples. Padding bits past the last sample are zero, so word popcounts
are exact. Sample-major words (row s holds sample s) come only from
`sample_words`: `to_array`, `row_range` and training's packed rows, which
training unpacks a batch at a time. The layouts convert by transposing
64 x 64 bit blocks, a transpose that is its own inverse (`_transpose_bits`).
Blocked loops take their slices from `blocks`, sized by one WORK_BYTES.
"""

from __future__ import annotations

import numpy as np

from .errors import StructuralError

WORD_BITS = 64
# The bytes one block of a blocked loop works on. Adam's, the connection
# gradient's and the desk refresh's memory bounds cap it; 512 KiB ran slower.
WORK_BYTES = 3 << 18


def blocks(n: int, item_bytes: int, budget: int | None = None) -> list[slice]:
    """Slices covering range(n) in order, the first the longest: as many
    items of `item_bytes` as `budget` (by default WORK_BYTES, read at the
    call) holds, or one."""
    step = max(1, (budget or WORK_BYTES) // max(1, item_bytes))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _words_needed(n_bits: int) -> int:
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def _transpose_bits(read, r: int, n_cols: int) -> np.ndarray:
    """Bit-transpose r rows of ceil(n_cols / 64) uint64 words, which
    `read(rows)` returns for a slice of rows (an array's `__getitem__`
    will do): returns (n_cols x ceil(r / 64)) words in which bit k of row
    c is bit c of input row k.

    Input rows are zero-padded to a multiple of 64, so the result's bits
    past r are zero; bit columns past `n_cols` are dropped.

    Rows go in slabs of 64-row blocks (`blocks`), through one block
    buffer and one swap buffer half its size straight into the result,
    so other memory stays slab-sized.
    """
    n_blocks = _words_needed(r)
    w = _words_needed(n_cols)
    out = np.empty((w * WORD_BITS, n_blocks), dtype=np.uint64)
    slabs = blocks(n_blocks, 12 * WORD_BITS * w)  # buf and swap
    buf = np.empty(WORD_BITS * w * (slabs[0].stop if slabs else 0), np.uint64)
    swap = np.empty(buf.size // 2, dtype=np.uint64)
    cols = out.reshape(w, WORD_BITS, n_blocks)  # [j, c]: bit column 64j + c
    for k in slabs:
        slab = read(slice(WORD_BITS * k.start, WORD_BITS * k.stop))
        # sq[i, b, j] is word j of row 64 (k.start + b) + i (zero past r):
        # one 64 x 64 bit block per (b, j), its row index outermost so that
        # the swaps below work on long contiguous runs.
        nk = k.stop - k.start
        sq = buf[: WORD_BITS * nk * w].reshape(WORD_BITS, nk, w)
        rows = sq.transpose(1, 0, 2)
        full, rem = divmod(len(slab), WORD_BITS)
        rows[:full] = slab[: full * WORD_BITS].reshape(full, WORD_BITS, w)
        if rem:
            rows[full, :rem] = slab[full * WORD_BITS :]
            rows[full, rem:] = 0
        del slab
        for j in (32, 16, 8, 4, 2, 1):
            # Swap the j x j sub-blocks off the diagonal of each 2j x 2j
            # block; the mask keeps the low j bits of every 2j-bit group.
            low = (1 << j) - 1
            mask = np.uint64(sum(low << i for i in range(0, WORD_BITS, 2 * j)))
            shift = np.uint64(j)
            pairs = sq.reshape(WORD_BITS // (2 * j), 2, j, -1)
            lo, hi = pairs[:, 0], pairs[:, 1]
            t = swap[: lo.size].reshape(lo.shape)
            np.right_shift(lo, shift, out=t)
            t ^= hi
            t &= mask
            hi ^= t
            t <<= shift
            lo ^= t
        # Now sq[c, b, j] is word k.start + b of bit column 64j + c.
        cols[:, :, k] = sq.transpose(2, 0, 1)
    return out[:n_cols]


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
        values; any nonzero value counts as 1.

        Samples are packed into zero-padded words one `_transpose_bits`
        slab at a time, never as one packed copy of the whole array."""
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise StructuralError("expected a 2-D array of bits")
        n, m = arr.shape

        def read(rows: slice) -> np.ndarray:
            # The samples packed into whole zero-padded words; packbits
            # takes only integers and booleans.
            bits = arr[rows]
            if bits.dtype.kind not in "biu":
                bits = bits != 0
            packed = np.packbits(bits, axis=1, bitorder="little")
            words = np.zeros((len(packed), _words_needed(m)), dtype=np.uint64)
            words.view(np.uint8)[:, : packed.shape[1]] = packed
            return words

        return cls(_transpose_bits(read, n, m), n)

    def to_array(self) -> np.ndarray:
        """Unpack to a (samples x signals) uint8 array."""
        rows = self.sample_words().view(np.uint8)
        return np.unpackbits(rows, 1, self.n_signals, bitorder="little")

    def row_range(self, lo: int, hi: int) -> "BitMatrix":
        rows = self.sample_words()[lo:hi]
        words = _transpose_bits(rows.__getitem__, len(rows), self.n_signals)
        return BitMatrix(words, len(rows))

    def sample_words(self) -> np.ndarray:
        """Sample-major words: row s holds sample s of every signal."""
        read = self.words.__getitem__
        return _transpose_bits(read, self.n_signals, self.n_samples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.n_samples == other.n_samples and np.array_equal(
            self.words, other.words
        )

    def __repr__(self) -> str:
        return f"BitMatrix({self.n_samples}x{self.n_signals})"
