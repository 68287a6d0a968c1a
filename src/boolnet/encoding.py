"""Distributive thermometer encoding.

Each real feature becomes T bits, one per quantile threshold; bit i is 1
iff the value exceeds threshold i. Quantile levels are i/(T+1) for
i = 1..T with linear interpolation between order statistics, so the T+1
gaps carry equal probability mass under the training distribution.
`encode` packs the bits straight into signal-major words, one threshold
at a time, without a (samples x features x T) tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitmatrix import WORD_BITS, BitMatrix
from .errors import StructuralError


@dataclass(frozen=True)
class ThermometerEncoder:
    thresholds: np.ndarray  # (num_features, T), sorted along axis 1

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=np.float64)
        if t.ndim != 2:
            raise StructuralError("thresholds must be (num_features, T)")
        if (np.diff(t, axis=1) < 0).any():
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
    data = np.asarray(train_data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise StructuralError("need a non-empty (samples, features) matrix")
    if T < 1:
        raise StructuralError("T must be >= 1")
    levels = np.arange(1, T + 1) / (T + 1)
    thresholds = np.quantile(data, levels, axis=0).T  # (features, T)
    return ThermometerEncoder(thresholds)


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
    cols = np.ascontiguousarray(data.T)
    # The words as bytes, signal f*T + i in row f*T + i; padding stays 0.
    out = np.zeros((cols.shape[0] * T, -(-n // WORD_BITS) * 8), np.uint8)
    bits = np.empty(cols.shape, dtype=bool)  # one plane, reused
    for i in range(T):
        # Mixed dtypes compare in float64, as if data were cast first.
        np.greater(cols, encoder.thresholds[:, i : i + 1], out=bits)
        out[i::T, : (n + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return BitMatrix(out.view(np.uint64), n)
