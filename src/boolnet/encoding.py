"""Distributive thermometer encoding.

Each real feature becomes T bits, one per quantile threshold; bit i is 1
iff the value exceeds threshold i. Quantile levels are i/(T+1) for
i = 1..T with linear interpolation between order statistics, so the T+1
gaps carry equal probability mass under the training distribution.
`encode` packs (features x ENCODE_BLOCK) slabs straight into signal-major
words, only the rows of a `read` mask if given (the rest stay zero); a
slab transposes as uint64 words, then as the squares inside them, in cache,
and its rows are compared in `blocks` of one WORK_BYTES budget.
Integer features of up to 32 bits compare in their own dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitmatrix import WORD_BITS, BitMatrix, blocks
from .errors import StructuralError

# Samples per transposed slab, a multiple of 8 so a slab fills whole bytes.
# Each (slab, signal row) pair costs a gather, a pack and a write: slabs of
# WORK_BYTES (328 samples at MNIST's width, 80 at CIFAR's) ran 1.2-2.2x slower.
ENCODE_BLOCK = 512


@dataclass(frozen=True)
class ThermometerEncoder:
    thresholds: np.ndarray  # (num_features, T), sorted along axis 1

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=np.float64)
        if t.ndim != 2:
            raise StructuralError("thresholds must be (num_features, T)")
        if (t[:, 1:] < t[:, :-1]).any():
            raise StructuralError("thresholds must be non-decreasing per feature")
        object.__setattr__(self, "thresholds", t)

    @property
    def num_features(self) -> int:
        return self.thresholds.shape[0]

    @property
    def bits_per_feature(self) -> int:
        return self.thresholds.shape[1]

    @property
    def output_width(self) -> int:
        return self.num_features * self.bits_per_feature


def fit_thresholds(train_data, T: int) -> ThermometerEncoder:
    """Per-feature empirical quantiles at levels 1/(T+1) .. T/(T+1)."""
    data = np.asarray(train_data)
    if data.ndim != 2 or data.shape[0] == 0:
        raise StructuralError("need a non-empty (samples, features) matrix")
    if T < 1:
        raise StructuralError("T must be >= 1")
    # np.quantile subtracts in the rows' dtype: exact for uint8/16/32 only.
    exact = data.dtype.kind == "u" and data.dtype.itemsize < 8
    rows = np.array(data.T, dtype=data.dtype if exact else np.float64)
    rows.sort(axis=1, kind="stable")  # radix sort for 8- and 16-bit ints
    levels = np.arange(1, T + 1) / (T + 1)
    with np.errstate(invalid="ignore"):  # inf - inf when interpolating
        thresholds = np.quantile(rows, levels, axis=1, overwrite_input=True)
    return ThermometerEncoder(thresholds.T)


def encode(encoder: ThermometerEncoder, data, read=None) -> BitMatrix:
    """Binarize: bit (f, i) = value_f > threshold_{f,i}; per feature the
    bits form a prefix of ones. Signal f*T + i is bit i of feature f.
    With a bool mask `read`, only its signals are computed; others are 0."""
    data = np.asarray(data)
    if data.ndim != 2 or data.shape[1] != encoder.num_features:
        raise StructuralError(
            f"data has {data.shape[-1] if data.ndim == 2 else '?'} features, "
            f"encoder expects {encoder.num_features}"
        )
    if data.dtype.kind not in "biuf":
        data = data.astype(np.float64)  # numeric strings parse; others raise
    (n, F), T = data.shape, encoder.bits_per_feature
    # Float, bool and 64-bit int features compare with the float64
    # thresholds as if cast to float64 first, rounding as that cast does.
    thresholds, compare = encoder.thresholds, np.greater
    never = np.zeros(thresholds.shape, dtype=bool)
    if data.dtype.kind in "iu" and data.dtype.itemsize < 8:
        # Integer x > t iff x >= floor(t) + 1, in x's dtype. A NaN threshold
        # or one at or above its maximum never holds: its row stays zero.
        info = np.iinfo(data.dtype)
        k = np.floor(thresholds) + 1
        never = ~(k <= info.max)
        k = np.clip(np.where(never, info.max, k), info.min, None)
        thresholds, compare = k.astype(data.dtype), np.greater_equal
    rows = np.flatnonzero(~never.ravel() & (True if read is None else read))
    feats, limits = rows // T, thresholds.ravel()[rows][:, None]
    # The words as bytes, signal f*T + i in row f*T + i; padding stays 0.
    out = np.zeros((F * T, -(-n // WORD_BITS) * 8), np.uint8)
    m = 8 // data.dtype.itemsize  # features per uint64 word
    block = np.zeros((ENCODE_BLOCK, -(-F // m) * m), data.dtype)
    words = block.view(np.uint64).reshape(ENCODE_BLOCK // m, m, -1)
    for lo in range(0, n, ENCODE_BLOCK):
        s = min(ENCODE_BLOCK, n - lo)
        block[:s, :F] = data[lo : lo + s]
        sq = np.ascontiguousarray(words.transpose(2, 0, 1)).view(data.dtype)
        sq = sq.reshape(-1, ENCODE_BLOCK // m, m, m).transpose(0, 3, 1, 2)
        slab = np.ascontiguousarray(sq).reshape(-1, ENCODE_BLOCK)[:, :s]
        cols = slice(lo // 8, (lo + s + 7) // 8)
        # A signal row's slab features, their gathered copy and its bits.
        for r in blocks(rows.size, s * (2 * data.dtype.itemsize + 1)):
            bits = compare(slab[feats[r]], limits[r])
            out[rows[r], cols] = np.packbits(bits, axis=1, bitorder="little")
    return BitMatrix(out.view(np.uint64), n)
