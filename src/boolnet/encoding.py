"""Distributive thermometer encoding.

Each real feature becomes T bits, one per quantile threshold; bit i is 1
iff the value exceeds threshold i. Quantile levels are i/(T+1) for
i = 1..T with linear interpolation between order statistics, so the T+1
gaps carry equal probability mass under the training distribution.
`encode` packs (features x block) slabs straight into signal-major
words; integer features of up to 32 bits compare in their own dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitmatrix import WORD_BITS, BitMatrix
from .errors import StructuralError

# Samples per transposed slab; a multiple of 8, so a slab fills whole bytes.
ENCODE_BLOCK = 1024


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


def encode(encoder: ThermometerEncoder, data) -> BitMatrix:
    """Binarize: bit (f, i) = value_f > threshold_{f,i}; per feature the
    bits form a prefix of ones. Signal f*T + i is bit i of feature f."""
    data = np.asarray(data)
    if data.ndim != 2 or data.shape[1] != encoder.num_features:
        raise StructuralError(
            f"data has {data.shape[-1] if data.ndim == 2 else '?'} features, "
            f"encoder expects {encoder.num_features}"
        )
    if data.dtype.kind not in "biuf":
        data = data.astype(np.float64)  # numeric strings parse; others raise
    n, T = data.shape[0], encoder.bits_per_feature
    # Float, bool and 64-bit int features compare with the float64
    # thresholds as if cast to float64 first, rounding as that cast does.
    thresholds, compare = encoder.thresholds, np.greater
    never = np.zeros(thresholds.shape, dtype=bool)
    if data.dtype.kind in "iu" and data.dtype.itemsize < 8:
        # Integer x > t iff x >= floor(t) + 1, in x's dtype. A NaN threshold
        # or one at or above its maximum never holds: cleared after packing.
        info = np.iinfo(data.dtype)
        k = np.floor(thresholds) + 1
        never = ~(k <= info.max)
        k = np.clip(np.where(never, info.max, k), info.min, None)
        thresholds, compare = k.astype(data.dtype), np.greater_equal
    # The words as bytes, signal f*T + i in row f*T + i; padding stays 0.
    out = np.zeros((data.shape[1] * T, -(-n // WORD_BITS) * 8), np.uint8)
    for lo in range(0, n, ENCODE_BLOCK):
        slab = np.ascontiguousarray(data[lo : lo + ENCODE_BLOCK].T)
        bits = np.empty(slab.shape, dtype=bool)  # one plane, reused
        cols = slice(lo // 8, (lo + slab.shape[1] + 7) // 8)
        for i in range(T):
            compare(slab, thresholds[:, i : i + 1], out=bits)
            out[i::T, cols] = np.packbits(bits, axis=1, bitorder="little")
    out[never.ravel()] = 0
    return BitMatrix(out.view(np.uint64), n)
