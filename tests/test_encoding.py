import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolnet.bitmatrix import WORD_BITS
from boolnet.encoding import ThermometerEncoder, encode, fit_thresholds
from boolnet.errors import StructuralError


def test_quantile_thresholds_oracle():
    # Values 1..11, T=10: levels i/11 over the 11 order statistics give
    # thresholds 1 + 10*i/11 by linear interpolation.
    data = np.arange(1.0, 12.0)[:, None]
    enc = fit_thresholds(data, T=10)
    want = 1 + 10 * np.arange(1, 11) / 11
    assert np.allclose(enc.thresholds[0], want)


def test_single_threshold_is_median():
    data = np.array([[3.0], [1.0], [2.0], [10.0]])
    enc = fit_thresholds(data, T=1)
    assert enc.thresholds[0, 0] == pytest.approx(2.5)


def test_encode_prefix_structure():
    data = np.array([[0.0], [5.0], [11.0]])
    enc = fit_thresholds(np.arange(1.0, 12.0)[:, None], T=10)
    bits = encode(enc, data).to_array()
    assert bits.shape == (3, 10)
    # Thermometer property: within a feature, bits are a prefix of ones.
    assert not bits[0].any()  # 0 below every threshold
    assert bits[2].all()  # 11 above every threshold
    run = bits[1]
    assert (np.diff(run.astype(int)) <= 0).all()
    assert run.sum() == np.count_nonzero(enc.thresholds[0] < 5.0)


def test_strictly_greater_than_threshold():
    enc = ThermometerEncoder(np.array([[1.0, 2.0]]))
    bits = encode(enc, np.array([[1.0], [1.5], [2.0], [2.5]])).to_array()
    assert np.array_equal(bits, [[0, 0], [1, 0], [1, 0], [1, 1]])


def test_constant_feature_encodes_to_zero():
    data = np.full((20, 1), 7.0)
    enc = fit_thresholds(data, T=3)
    assert (enc.thresholds == 7.0).all()
    assert not encode(enc, data).to_array().any()


def test_feature_major_column_order():
    enc = ThermometerEncoder(np.array([[0.5], [0.5]]))
    bits = encode(enc, np.array([[1.0, 0.0]])).to_array()
    # One bit per feature: column f*T + i belongs to feature f.
    assert np.array_equal(bits, [[1, 0]])


def test_output_width_mnist_cifar_shapes():
    enc = fit_thresholds(np.random.default_rng(0).random((50, 784)), T=3)
    assert enc.output_width == 2352
    enc = fit_thresholds(np.random.default_rng(0).random((50, 3072)), T=10)
    assert enc.output_width == 30720


def test_rejects_bad_arguments():
    with pytest.raises(StructuralError):
        fit_thresholds(np.zeros((0, 3)), T=2)
    with pytest.raises(StructuralError):
        fit_thresholds(np.zeros((3, 3)), T=0)
    with pytest.raises(StructuralError):
        fit_thresholds(np.zeros(5), T=1)
    enc = fit_thresholds(np.zeros((4, 3)), T=2)
    with pytest.raises(StructuralError):
        encode(enc, np.zeros((2, 5)))
    with pytest.raises(StructuralError):
        ThermometerEncoder(np.array([[2.0, 1.0]]))  # decreasing


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    f=st.integers(1, 5),
    T=st.integers(1, 8),
)
def test_monotone_inputs_get_monotone_codes(seed, n, f, T):
    """Larger feature values never lose thermometer bits."""
    rng = np.random.default_rng(seed)
    train = rng.normal(size=(n, f))
    enc = fit_thresholds(train, T)
    x = rng.normal(size=(10, f))
    order = np.argsort(x, axis=0)
    bits = encode(enc, x).to_array().reshape(10, f, T)
    for j in range(f):
        sums = bits[order[:, j], j].sum(axis=1)
        assert (np.diff(sums) >= 0).all()


def _sample_major_words_oracle(thresholds: np.ndarray, data) -> np.ndarray:
    """Signal-major words the slow way: float64 cast, the full (samples x
    features x T) bool tensor packed sample-major, then unpacked,
    transposed and repacked along the samples."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    bits = (data[:, :, None] > thresholds[None, :, :]).reshape(n, -1)
    packed = np.packbits(bits, axis=1, bitorder="little")
    unpacked = np.unpackbits(
        packed, axis=1, count=bits.shape[1], bitorder="little"
    )
    padded = np.zeros((bits.shape[1], n + (-n) % WORD_BITS), np.uint8)
    padded[:, :n] = unpacked.T
    packed = np.packbits(padded, axis=1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64)


# Thresholds on and off the integer grid, below and above any uint8 value.
_THRESHOLD_POOL = np.array(
    [-1e9, -5.0, -0.5, 0.0, 1.0, 2.5, 17.0, 127.5, 200.0, 255.0, 256.0, 1e9]
)


@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
@pytest.mark.parametrize("T", [1, 3, 10])
@pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 130, 1000])
def test_encode_words_bit_equal_sample_major_formula(n, T, dtype):
    rng = np.random.default_rng(n * 100 + T)
    f = 6
    thresholds = np.sort(rng.choice(_THRESHOLD_POOL, size=(f, T)), axis=1)
    if dtype == np.uint8:
        data = rng.integers(0, 256, size=(n, f)).astype(np.uint8)
    else:
        pool = np.concatenate([_THRESHOLD_POOL, [np.nan, -np.inf, np.inf]])
        data = np.where(
            rng.random((n, f)) < 0.5,
            rng.choice(pool, size=(n, f)),
            rng.normal(scale=100.0, size=(n, f)),
        )
    # Values exactly on a threshold, and one constant feature.
    hit = rng.random((n, f)) < 0.3
    on = thresholds[np.arange(f), rng.integers(0, T, size=f)]
    if dtype == np.uint8:
        on = np.clip(np.round(on), 0, 255)
    data[hit] = np.broadcast_to(on, (n, f))[hit]
    data[:, 2] = data[0, 2]
    enc = ThermometerEncoder(thresholds)
    got = encode(enc, data)
    assert got.shape == (n, f * T)
    assert np.array_equal(
        got.to_signal_words(), _sample_major_words_oracle(thresholds, data)
    )
    # Fortran order and a float32 copy of integer values encode the same.
    assert encode(enc, np.asfortranarray(data)) == got
    if dtype == np.uint8:
        assert encode(enc, data.astype(np.float32)) == got


def test_encode_empty_input():
    enc = ThermometerEncoder(np.array([[0.5, 1.0], [1.5, 2.0]]))
    bits = encode(enc, np.zeros((0, 2)))
    assert bits.shape == (0, 4) and bits.to_signal_words().shape == (4, 0)
    assert bits.to_array().shape == (0, 4)


def test_encode_rejects_non_numeric_input():
    enc = ThermometerEncoder(np.array([[0.5], [1.5]]))
    with pytest.raises(ValueError):
        encode(enc, np.array([["a", "b"]]))
    with pytest.raises(ValueError):
        encode(enc, np.array([[1.0, "x"]], dtype=object))
    # Numeric strings and objects are cast to float64 first (None to NaN).
    want = encode(enc, np.array([[1.0, 1.0]]))
    assert encode(enc, np.array([["1.0", "1"]])) == want
    assert encode(enc, np.array([[1, 1.0]], dtype=object)) == want
    assert encode(enc, np.array([[None, 2.0]], dtype=object)) == encode(
        enc, np.array([[np.nan, 2.0]])
    )


def test_encode_memory_stays_near_the_packed_result():
    """No (samples x features x T) tensor or float64 copy: at the CIFAR
    shape the peak stays below the words plus three byte planes."""
    n, f, T = 2000, 3072, 10
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=(n, f), dtype=np.uint8)
    enc = ThermometerEncoder(np.sort(rng.uniform(0, 255, size=(f, T)), axis=1))
    tracemalloc.start()
    try:
        words = encode(enc, data).to_signal_words()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words.nbytes == f * T * 32 * 8
    assert peak < words.nbytes + 3 * n * f
