import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolnet.bitmatrix import BitMatrix
from boolnet.data import (
    CIFAR_RECORD,
    CIFAR_TEST,
    CIFAR_TRAIN,
    MNIST_FILES,
    Dataset,
    load_cifar10,
    load_mnist_idx,
    synth_boolean_task,
)
from boolnet.errors import IngestionError, StructuralError
from boolnet.model import eval_circuit, score


def _write_idx(path, dims, payload, magic):
    header = struct.pack(">i", magic) + b"".join(
        struct.pack(">i", d) for d in dims
    )
    path.write_bytes(header + payload.astype(np.uint8).tobytes())


def _make_mnist_dir(tmp_path, n_train=30, n_test=10, gz=False):
    rng = np.random.default_rng(0)
    sets = {
        "train_images": (
            (n_train, 5, 5),
            rng.integers(0, 256, size=(n_train, 5, 5)),
            0x803,
        ),
        "train_labels": ((n_train,), rng.integers(0, 10, n_train), 0x801),
        "test_images": (
            (n_test, 5, 5),
            rng.integers(0, 256, size=(n_test, 5, 5)),
            0x803,
        ),
        "test_labels": ((n_test,), rng.integers(0, 10, n_test), 0x801),
    }
    for key, (dims, payload, magic) in sets.items():
        path = tmp_path / MNIST_FILES[key]
        if gz:
            header = struct.pack(">i", magic) + b"".join(
                struct.pack(">i", d) for d in dims
            )
            (tmp_path / (MNIST_FILES[key] + ".gz")).write_bytes(
                gzip.compress(header + payload.astype(np.uint8).tobytes())
            )
        else:
            _write_idx(path, dims, payload, magic)
    return sets


# ------------------------------------------------------------------ MNIST


def test_mnist_idx_round_trip(tmp_path):
    sets = _make_mnist_dir(tmp_path)
    ds = load_mnist_idx(tmp_path, val_size=5, seed=0)
    assert ds.features.shape[1] == 25
    assert len(ds.labels) == 40
    assert ds.num_classes == 10
    assert np.array_equal(
        ds.features[:30], sets["train_images"][1].reshape(30, 25)
    )
    assert np.array_equal(ds.labels[30:], sets["test_labels"][1])
    # Split partition: 25 train + 5 val from the first 30, 10 test.
    assert (ds.split[30:] == "test").all()
    assert sorted(np.unique(ds.split).tolist()) == ["test", "train", "val"]
    assert (ds.split[:30] == "val").sum() == 5
    assert ds.provenance.startswith("mnist-idx:")


def test_mnist_gzip_fallback(tmp_path):
    _make_mnist_dir(tmp_path, gz=True)
    ds = load_mnist_idx(tmp_path, val_size=3)
    assert len(ds.labels) == 40


def test_mnist_val_carving_is_deterministic(tmp_path):
    _make_mnist_dir(tmp_path)
    a = load_mnist_idx(tmp_path, val_size=7, seed=3)
    b = load_mnist_idx(tmp_path, val_size=7, seed=3)
    c = load_mnist_idx(tmp_path, val_size=7, seed=4)
    assert np.array_equal(a.split, b.split)
    assert not np.array_equal(a.split, c.split)


def test_mnist_missing_file(tmp_path):
    with pytest.raises(IngestionError):
        load_mnist_idx(tmp_path)


def test_mnist_bad_magic(tmp_path):
    _make_mnist_dir(tmp_path)
    bad = np.zeros(10, dtype=np.uint8)
    _write_idx(tmp_path / MNIST_FILES["train_labels"], (10,), bad, 0x999)
    with pytest.raises(IngestionError):
        load_mnist_idx(tmp_path)


def test_mnist_truncated_payload(tmp_path):
    _make_mnist_dir(tmp_path)
    path = tmp_path / MNIST_FILES["train_images"]
    path.write_bytes(path.read_bytes()[:-17])
    with pytest.raises(IngestionError):
        load_mnist_idx(tmp_path)


def test_mnist_trailing_bytes(tmp_path):
    _make_mnist_dir(tmp_path)
    path = tmp_path / MNIST_FILES["test_images"]
    path.write_bytes(path.read_bytes() + b"\x00" * 3)
    with pytest.raises(IngestionError):
        load_mnist_idx(tmp_path)


@pytest.mark.parametrize("key", ["train_images", "test_labels"])
def test_mnist_truncated_dimensions(tmp_path, key):
    _make_mnist_dir(tmp_path)
    path = tmp_path / MNIST_FILES[key]
    path.write_bytes(path.read_bytes()[:6])  # magic, half a dimension
    with pytest.raises(IngestionError):
        load_mnist_idx(tmp_path)


def test_mnist_dimensions_too_large(tmp_path):
    _make_mnist_dir(tmp_path)
    _write_idx(tmp_path / MNIST_FILES["train_images"], (30, 2**31 - 1,
               2**31 - 1), np.zeros(3, dtype=np.uint8), 0x803)
    with pytest.raises(IngestionError):
        load_mnist_idx(tmp_path)


def test_mnist_train_and_test_image_sizes_differ(tmp_path):
    _make_mnist_dir(tmp_path)
    _write_idx(tmp_path / MNIST_FILES["test_images"], (10, 5, 6),
               np.zeros(300, dtype=np.uint8), 0x803)
    with pytest.raises(IngestionError):
        load_mnist_idx(tmp_path)


def test_mnist_count_mismatch(tmp_path):
    _make_mnist_dir(tmp_path)
    labels = np.zeros(31, dtype=np.uint8)
    _write_idx(tmp_path / MNIST_FILES["train_labels"], (31,), labels, 0x801)
    with pytest.raises(IngestionError):
        load_mnist_idx(tmp_path)


# ------------------------------------------------------------------ CIFAR


def _make_cifar_dir(tmp_path, per_batch=4):
    rng = np.random.default_rng(1)
    batches = {}
    for name in CIFAR_TRAIN + [CIFAR_TEST]:
        rec = rng.integers(0, 256, size=(per_batch, CIFAR_RECORD)).astype(
            np.uint8
        )
        rec[:, 0] = rng.integers(0, 10, per_batch)
        (tmp_path / name).write_bytes(rec.tobytes())
        batches[name] = rec
    return batches


def test_cifar_round_trip(tmp_path):
    batches = _make_cifar_dir(tmp_path)
    ds = load_cifar10(tmp_path, val_size=3, seed=0)
    assert len(ds.labels) == 24
    assert ds.features.shape[1] == 3072
    first = batches[CIFAR_TRAIN[0]]
    assert np.array_equal(ds.features[:4], first[:, 1:])
    assert np.array_equal(ds.labels[:4], first[:, 0])
    assert (ds.split[20:] == "test").all()
    assert (ds.split == "val").sum() == 3


def test_cifar_truncated_batch(tmp_path):
    _make_cifar_dir(tmp_path)
    path = tmp_path / CIFAR_TRAIN[2]
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(IngestionError):
        load_cifar10(tmp_path)


def test_cifar_bad_label(tmp_path):
    _make_cifar_dir(tmp_path)
    rec = np.zeros((2, CIFAR_RECORD), dtype=np.uint8)
    rec[0, 0] = 11
    (tmp_path / CIFAR_TEST).write_bytes(rec.tobytes())
    with pytest.raises(IngestionError):
        load_cifar10(tmp_path)


# ------------------------------------------------------ one-split reads


@pytest.fixture(scope="module")
def dataset_dirs(tmp_path_factory):
    """name -> (loader, directory, samples in the train files)."""
    dirs = {}
    for name, gz in (("mnist", False), ("mnist-gz", True)):
        path = tmp_path_factory.mktemp(name)
        _make_mnist_dir(path, gz=gz)
        dirs[name] = (load_mnist_idx, path, 30)
    path = tmp_path_factory.mktemp("cifar")
    _make_cifar_dir(path)
    dirs["cifar"] = (load_cifar10, path, 20)
    return dirs


@pytest.mark.parametrize("kind", ["mnist", "mnist-gz", "cifar"])
@pytest.mark.parametrize("val", ["0", "1", "some", "n-1", ">=n"])
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    some=st.integers(0, 1000),
    extra=st.integers(0, 5),
)
def test_one_split_read_equals_the_full_loads_split(
    dataset_dirs, kind, val, seed, some, extra
):
    load, path, n_train = dataset_dirs[kind]
    val_size = {
        "0": 0, "1": 1, "some": 2 + some % (n_train - 3),
        "n-1": n_train - 1, ">=n": n_train + extra,
    }[val]
    full = load(path, val_size, seed)
    for split in ("train", "val", "test"):
        one = load(path, val_size, seed, split=split)
        x, y = full.split_arrays(split)
        assert np.array_equal(one.features, x)
        assert np.array_equal(one.labels, y) and one.labels.dtype == np.int64
        assert (one.split == split).all()
        assert one.provenance == full.provenance
        assert one.num_classes == full.num_classes


# -------------------------------------------------------------- synthetic


def test_synth_parity_labels_match_subset():
    ds = synth_boolean_task("parity-of-subset", 8, 500, seed=2)
    subset = ds.meta["subset"]
    assert len(subset) == 2
    want = ds.features[:, subset].sum(axis=1) % 2
    assert np.array_equal(ds.labels, want)
    assert ds.num_classes == 2


def test_synth_threshold_vote_labels():
    ds = synth_boolean_task("threshold-vote", 9, 300, seed=3)
    want = (ds.features.sum(axis=1) * 2 >= 9).astype(int)
    assert np.array_equal(ds.labels, want)


def test_synth_teacher_is_reproducible_oracle():
    ds = synth_boolean_task("random-circuit-teacher", 6, 200, seed=4)
    teacher = ds.meta["teacher"]
    final = eval_circuit(teacher, BitMatrix.from_array(ds.features))
    again = score(teacher, final.words, final.n_samples)[1]
    assert np.array_equal(ds.labels, again)


def test_synth_split_fractions():
    ds = synth_boolean_task("parity-of-subset", 5, 1000, seed=5)
    assert (ds.split == "train").sum() == 700
    assert (ds.split == "val").sum() == 100
    assert (ds.split == "test").sum() == 200


def test_synth_determinism_and_unknown_kind():
    a = synth_boolean_task("threshold-vote", 5, 100, seed=6)
    b = synth_boolean_task("threshold-vote", 5, 100, seed=6)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    with pytest.raises(StructuralError):
        synth_boolean_task("majority-gate", 5, 100)


# ---------------------------------------------------------------- Dataset


def test_dataset_validation_and_accessors():
    with pytest.raises(StructuralError):
        Dataset(
            features=np.zeros((3, 2)),
            labels=np.array([0, 1]),
            split=np.array(["train"] * 3),
            num_classes=2,
            provenance="x",
        )
    with pytest.raises(StructuralError):
        Dataset(
            features=np.zeros((2, 2)),
            labels=np.array([0, 5]),
            split=np.array(["train", "test"]),
            num_classes=2,
            provenance="x",
        )
    ds = Dataset(
        features=np.arange(8).reshape(4, 2),
        labels=np.array([0, 1, 1, 0]),
        split=np.array(["train", "val", "test", "train"]),
        num_classes=2,
        provenance="x",
    )
    assert ds.indices("train").tolist() == [0, 3]
    fx, fy = ds.split_arrays("val")
    assert fx.tolist() == [[2, 3]] and fy.tolist() == [1]
