import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolnet.bitmatrix import WORD_BITS
from boolnet.encoding import (
    ENCODE_BLOCK,
    ThermometerEncoder,
    encode,
    fit_thresholds,
)
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


def test_infinite_thresholds_construct_without_warning():
    """The order check compares neighbours, so it never computes inf - inf;
    an inf before a smaller value is still out of order."""
    t = np.array([[-np.inf, -np.inf, 0.0, np.inf, np.inf], [np.inf] * 5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        enc = ThermometerEncoder(t)
    assert np.array_equal(enc.thresholds, t)
    with pytest.raises(StructuralError):
        ThermometerEncoder(np.array([[np.inf, -np.inf]]))


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
_INT_DTYPES = [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.int64]


def _threshold_pool(dtype) -> np.ndarray:
    """The pool above plus NaN, and for integer dtypes thresholds at, just
    inside and just beyond both ends of the dtype's range."""
    extra = [np.nan]
    if np.dtype(dtype).kind in "iu":
        lo, hi = (float(v) for v in (np.iinfo(dtype).min, np.iinfo(dtype).max))
        extra += [lo - 1, lo - 0.5, lo, lo + 0.5]
        extra += [hi - 0.5, hi, hi + 0.5, hi + 1]
    return np.concatenate([_THRESHOLD_POOL, extra])


def _features(rng, dtype, n: int, f: int) -> np.ndarray:
    if dtype == np.float64:
        pool = np.concatenate([_THRESHOLD_POOL, [np.nan, -np.inf, np.inf]])
        return np.where(
            rng.random((n, f)) < 0.5,
            rng.choice(pool, size=(n, f)),
            rng.normal(scale=100.0, size=(n, f)),
        )
    if dtype == np.bool_:
        return rng.random((n, f)) < 0.5
    info = np.iinfo(dtype)
    ends = np.array([info.min, info.min + 1, 0, 1, 17, info.max - 1, info.max])
    return np.where(
        rng.random((n, f)) < 0.5,
        rng.choice(ends.astype(dtype), size=(n, f)),
        rng.integers(info.min, info.max, size=(n, f), dtype=dtype,
                     endpoint=True),
    )


@pytest.mark.parametrize("dtype", [np.bool_, *_INT_DTYPES, np.float64])
@pytest.mark.parametrize("T", [1, 3, 10])
@pytest.mark.parametrize(
    "n", [1, 7, 63, 64, 65, 130, 1000, 1023, 1024, 1025, 2049]
)
def test_encode_words_bit_equal_sample_major_formula(n, T, dtype):
    rng = np.random.default_rng(n * 100 + T)
    f = 6
    pool = _threshold_pool(dtype)
    thresholds = np.sort(rng.choice(pool, size=(f, T)), axis=1)
    data = _features(rng, dtype, n, f)
    # Values exactly on a threshold, and one constant feature.
    hit = rng.random((n, f)) < 0.3
    on = thresholds[np.arange(f), rng.integers(0, T, size=f)]
    if dtype == np.bool_:
        lo, hi = 0, 1
    elif dtype != np.float64:  # within int32, so int64 values stay exact
        info = np.iinfo(dtype)
        lo, hi = max(info.min, -(2**31)), min(info.max, 2**31 - 1)
    if dtype != np.float64:
        on = np.clip(np.nan_to_num(np.round(on)), lo, hi)
    data[hit] = np.broadcast_to(on, (n, f))[hit]
    data[:, 2] = data[0, 2]
    enc = ThermometerEncoder(thresholds)
    got = encode(enc, data)
    assert got.shape == (n, f * T)
    assert np.array_equal(
        got.to_signal_words(), _sample_major_words_oracle(thresholds, data)
    )
    # Fortran order and a float32 copy of small integers encode the same.
    assert encode(enc, np.asfortranarray(data)) == got
    if dtype != np.float64 and np.can_cast(dtype, np.float32):
        assert encode(enc, data.astype(np.float32)) == got


@settings(max_examples=60, deadline=None)
@given(
    dtype=st.sampled_from(
        [np.uint8, np.uint16, np.int32, np.float32, np.float64, np.bool_]
    ),
    n=st.integers(0, 2 * ENCODE_BLOCK + 70),
    f=st.integers(1, 13),
    T=st.integers(1, 5),
    share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_read_row_encode_equals_full_encode_on_read_rows(
    dtype, n, f, T, share, seed
):
    """Only the signals of the `read` mask are computed: each equals the
    full encode's row, and every other row is zero. Integer features get
    a threshold beyond their maximum, whose row never holds."""
    rng = np.random.default_rng(seed)
    pool_dtype = np.float64 if dtype == np.float32 else dtype
    thresholds = rng.choice(_threshold_pool(pool_dtype), size=(f, T))
    if np.dtype(dtype).kind in "iu":
        thresholds[:, 0] = np.iinfo(dtype).max + 0.5
    thresholds.sort(axis=1)
    data = _features(rng, pool_dtype, n, f).astype(dtype)
    read = rng.random(f * T) < share
    enc = ThermometerEncoder(thresholds)
    full = encode(enc, data).to_signal_words()
    got = encode(enc, data, read)
    assert got.shape == (n, f * T)
    assert np.array_equal(got.to_signal_words()[read], full[read])
    assert not got.to_signal_words()[~read].any()


_FIT_KINDS = ["uint8", "uint16", "int8", "int16", "int64", "bool", "float",
              "str"]


def _fit_features(rng, kind: str, n: int, f: int = 5):
    """Features of one kind; a narrow range in some columns gives ties."""
    if kind == "bool":
        return rng.random((n, f)) < 0.3
    if kind in ("float", "str"):
        x = rng.normal(scale=50.0, size=(n, f))
        x[:, 1] = np.round(x[:, 1] / 20)
        if kind == "str":
            return x.astype(str)
        for value, share in ((np.nan, 0.05), (np.inf, 0.1), (-np.inf, 0.1)):
            x[:, 2:][rng.random((n, f - 2)) < share] = value
        return x
    info = np.iinfo(kind)
    x = rng.integers(info.min, info.max, size=(n, f), dtype=kind,
                     endpoint=True)
    x[:, :2] = rng.integers(0, 4, size=(n, 2)) + info.max - 3
    return x


@pytest.mark.parametrize("kind", _FIT_KINDS)
@pytest.mark.parametrize("T", [1, 3, 10])
@pytest.mark.parametrize("n", [1, 2, 7, 3000])
def test_fit_thresholds_bit_equal_float64_quantile(n, T, kind):
    x = _fit_features(np.random.default_rng(n * 10 + T), kind, n)
    levels = np.arange(1, T + 1) / (T + 1)
    with np.errstate(invalid="ignore"):  # the reference's inf - inf
        want = np.quantile(np.asarray(x, np.float64), levels, axis=0).T
    got = fit_thresholds(x, T).thresholds  # must not warn
    assert got.dtype == np.float64
    # Bit-equal, NaNs included, up to the sign of a zero: where a feature
    # holds both -0.0 and 0.0 (column 1 of the float kinds), which of the
    # equal values a sort or a partition puts at a rank is arbitrary, and
    # no thermometer comparison can tell them apart.
    assert np.array_equal((got + 0.0).view(np.uint64),
                          (want + 0.0).view(np.uint64))


def test_fit_thresholds_memory_stays_near_the_sorted_rows():
    """No float64 copy of an integer split: fitting MNIST-sized uint8
    features peaks at about the one sorted (features x samples) copy."""
    data = np.random.default_rng(0).integers(
        0, 256, size=(3000, 784), dtype=np.uint8
    )
    tracemalloc.start()
    try:
        fit_thresholds(data, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


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


def _golden_features(dtype, n: int, f: int = 13) -> np.ndarray:
    """Fixed features of one dtype. Integers get a full-range column and
    one held at the dtype's maximum, whose thresholds never hold. Floats
    get a NaN column, +inf and -inf runs, and one column each with exactly
    a quarter of the first 700 rows infinite, so the fitted thresholds
    include +inf, -inf and NaN."""
    rng = np.random.default_rng(2024)
    if dtype == np.bool_:
        return rng.random((n, f)) < 0.4
    if dtype == np.float64:
        x = rng.normal(scale=40.0, size=(n, f))
        x[:, 1] = np.round(x[:, 1] / 16)
        x[rng.random(n) < 0.02, 2] = np.nan
        x[:, 3:8][rng.random((n, 5)) < 0.3] = np.inf
        x[:, 8:][rng.random((n, f - 8)) < 0.3] = -np.inf
        for col, value in ((6, np.inf), (9, -np.inf)):
            x[:, col] = rng.normal(size=n)
            x[rng.choice(700, 175, replace=False), col] = value
        return x
    info = np.iinfo(dtype)
    x = rng.integers(0, 256, size=(n, f)).astype(dtype)
    x[:, 0] = rng.integers(info.min, info.max, size=n, dtype=dtype,
                           endpoint=True)
    x[:, 2] = info.max
    return x


# dtype -> SHA-256 of the fitted thresholds (little-endian float64, NaN
# and -0.0 made canonical) and of the encoded signal-major words.
GOLDEN_ENCODE = {
    "uint8": (
        "b1d42b6df6a90c9d94b451eda12bced4cb6e1f994b6dd0177988bd2de6ae578c",
        "02efe7ba5e8eba80069d161ce37e7ed0762077e718771919a97bb3ba3c3c5253",
    ),
    "int32": (
        "af6aef9377e2ff27f7a665d9bfe2152891b82a2e97c3286209821423814f292d",
        "2f48acb92762c1c6ec29771b8c0f0cd35df674422c8ebf44412ba4b36e031a36",
    ),
    "float64": (
        "fcc0ad3d51da8d1fa138b77145e1f7fae859c95064d87c737cb126dcba904916",
        "f0c111395e4d5b5f2b87b7cee8e21491e0dacb85844837b8ad45c38480b6cad6",
    ),
    "bool": (
        "f65f2b861dfa60732920a084c1154b27b17a4ff9a21f89d27eddddc2525035e3",
        "2907a747bcd9004fd8fc704a8d7f46f8c57bc49ca65224d9a6613eeba9655789",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ENCODE))
def test_fit_thresholds_and_encode_golden(name):
    """Thresholds fitted on 700 rows, then 1300 rows encoded: more than one
    ENCODE_BLOCK slab, and a sample count that is no multiple of 64."""
    x = _golden_features(np.dtype(name).type, 2000)
    enc = fit_thresholds(x[:700], 3)
    t = enc.thresholds + 0.0
    t = np.where(np.isnan(t), np.nan, t)
    words = encode(enc, x[700:]).to_signal_words()
    got = tuple(
        hashlib.sha256(np.ascontiguousarray(a, dtype=d).tobytes()).hexdigest()
        for a, d in ((t, "<f8"), (words, "<u8"))
    )
    assert got == GOLDEN_ENCODE[name]
