"""Dataset ingestion and synthetic task generation.

Real datasets keep raw integer features; binarization happens in the
encoding module. Splits are seeded and deterministic: validation is
carved out of the official train split, never out of test.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .bitmatrix import BitMatrix
from .errors import IngestionError, StructuralError
from .model import HardCircuit, HardLayer, predict

VAL_SIZE = 5000

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}

CIFAR_TRAIN = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST = "test_batch.bin"
CIFAR_RECORD = 3073  # 1 label byte + 32*32*3 pixels


@dataclass
class Dataset:
    """Immutable sample store with train/val/test split tags."""

    features: np.ndarray  # (N, F)
    labels: np.ndarray  # (N,) int64
    split: np.ndarray  # (N,) strings from {train, val, test}
    num_classes: int
    provenance: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.features) != len(self.labels) or len(self.labels) != len(
            self.split
        ):
            raise StructuralError("features/labels/split lengths differ")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise StructuralError("label outside [0, num_classes)")

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def indices(self, split: str) -> np.ndarray:
        return np.flatnonzero(self.split == split)

    def split_arrays(self, split: str) -> tuple[np.ndarray, np.ndarray]:
        idx = self.indices(split)
        return self.features[idx], self.labels[idx]


def _carve_val(
    n_train: int, n_test: int, val_size: int, seed: int
) -> np.ndarray:
    split = np.array(["train"] * n_train + ["test"] * n_test)
    rng = np.random.default_rng(seed)
    val_idx = rng.permutation(n_train)[: min(val_size, n_train)]
    split[val_idx] = "val"
    return split


def _open_maybe_gz(path: str):
    if os.path.exists(path):
        return open(path, "rb")
    if os.path.exists(path + ".gz"):
        return gzip.open(path + ".gz", "rb")
    raise IngestionError(f"missing dataset file: {path}[.gz]")


def _idx_dims(fh, path: str, expect_magic: int) -> list[int]:
    """Check a big-endian IDX header (uint8 payloads only) and return its
    dimensions, leaving `fh` at the start of the payload."""
    head = fh.read(4)
    if len(head) < 4:
        raise IngestionError(f"truncated IDX header: {path}")
    magic = int.from_bytes(head, "big")
    if magic != expect_magic:
        raise IngestionError(
            f"bad IDX magic {magic:#010x} in {path}, "
            f"expected {expect_magic:#010x}"
        )
    raw = fh.read(4 * head[3])
    if len(raw) < 4 * head[3]:
        raise IngestionError(f"truncated IDX dimensions: {path}")
    return list(struct.unpack(f">{head[3]}I", raw))


def _empty_idx(shape: list[int], path: str) -> np.ndarray:
    try:
        return np.empty(shape, dtype=np.uint8)
    except (MemoryError, ValueError):
        raise IngestionError(f"IDX dims {shape} too large: {path}") from None


def _idx_payload(fh, path: str, out: np.ndarray) -> None:
    """Read the payload straight into `out`, which it must fill exactly."""
    view = memoryview(out).cast("B")
    got = 0
    while got < len(view) and (n := fh.readinto(view[got:])):
        got += n
    if got != len(view) or fh.read(1):
        raise IngestionError(
            f"IDX payload size != header product {len(view)}: {path}"
        )


def _read_idx(path: str, expect_magic: int) -> np.ndarray:
    with _open_maybe_gz(path) as fh:
        out = _empty_idx(_idx_dims(fh, path, expect_magic), path)
        _idx_payload(fh, path, out)
    return out


def load_mnist_idx(
    path: str | os.PathLike, val_size: int = VAL_SIZE, seed: int = 0
) -> Dataset:
    """Load the four canonical IDX files (plain or .gz) from a directory.

    Both image payloads are read straight into one (N, F) feature array,
    so no raw copy of either file is ever held."""
    path = os.fspath(path)
    trl = _read_idx(os.path.join(path, MNIST_FILES["train_labels"]), 0x801)
    tel = _read_idx(os.path.join(path, MNIST_FILES["test_labels"]), 0x801)
    tr_path = os.path.join(path, MNIST_FILES["train_images"])
    te_path = os.path.join(path, MNIST_FILES["test_images"])
    with _open_maybe_gz(tr_path) as tr, _open_maybe_gz(te_path) as te:
        tr_dims = _idx_dims(tr, tr_path, 0x803)
        te_dims = _idx_dims(te, te_path, 0x803)
        if tr_dims[0] != len(trl) or te_dims[0] != len(tel):
            raise IngestionError("image/label sample counts disagree")
        n_train, n_features = len(trl), math.prod(tr_dims[1:])
        if math.prod(te_dims[1:]) != n_features:
            raise IngestionError("train and test image sizes differ")
        features = _empty_idx([n_train + len(tel), n_features], path)
        _idx_payload(tr, tr_path, features[:n_train])
        _idx_payload(te, te_path, features[n_train:])
    labels = np.concatenate([trl, tel]).astype(np.int64)
    if labels.max() > 9:
        raise IngestionError("MNIST label outside 0..9")
    return Dataset(
        features,
        labels,
        _carve_val(n_train, len(tel), val_size, seed),
        num_classes=10,
        provenance=f"mnist-idx:{path}",
    )


def _read_cifar_batch(path: str) -> tuple[np.ndarray, np.ndarray]:
    with _open_maybe_gz(path) as fh:
        raw = fh.read()
    if len(raw) == 0 or len(raw) % CIFAR_RECORD != 0:
        raise IngestionError(
            f"truncated CIFAR batch (size {len(raw)}): {path}"
        )
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
    return arr[:, 1:].copy(), arr[:, 0].astype(np.int64)


def load_cifar10(
    path: str | os.PathLike, val_size: int = VAL_SIZE, seed: int = 0
) -> Dataset:
    """Load the 5 train + 1 test binary batches from a directory."""
    path = os.fspath(path)
    xs, ys = [], []
    for name in CIFAR_TRAIN:
        x, y = _read_cifar_batch(os.path.join(path, name))
        xs.append(x)
        ys.append(y)
    n_train = sum(len(y) for y in ys)
    xt, yt = _read_cifar_batch(os.path.join(path, CIFAR_TEST))
    features = np.concatenate(xs + [xt])
    labels = np.concatenate(ys + [yt])
    if labels.max() > 9:
        raise IngestionError("CIFAR-10 label outside 0..9")
    return Dataset(
        features,
        labels,
        _carve_val(n_train, len(yt), val_size, seed),
        num_classes=10,
        provenance=f"cifar10:{path}",
    )


SYNTH_KINDS = ("parity-of-subset", "threshold-vote", "random-circuit-teacher")


def synth_boolean_task(
    kind: str, n_features: int, n_samples: int, seed: int = 0
) -> Dataset:
    """Random binary features labeled by a known Boolean teacher.

    The ground truth survives in Dataset.meta so tests can check a
    trained model against the generating function directly.
    """
    if kind not in SYNTH_KINDS:
        raise StructuralError(f"unknown synthetic task {kind!r}")
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=(n_samples, n_features), dtype=np.uint8)
    meta: dict = {"kind": kind}
    if kind == "parity-of-subset":
        subset = np.sort(
            rng.choice(n_features, size=min(2, n_features), replace=False)
        )
        y = x[:, subset].sum(axis=1) % 2
        meta["subset"] = subset
        num_classes = 2
    elif kind == "threshold-vote":
        y = (x.sum(axis=1) * 2 >= n_features).astype(np.int64)
        meta["threshold"] = n_features / 2
        num_classes = 2
    else:
        teacher = _random_teacher(rng, n_features)
        y = predict(teacher, BitMatrix.from_array(x))
        meta["teacher"] = teacher
        num_classes = teacher.num_classes
    n_train = int(0.7 * n_samples)
    n_val = int(0.1 * n_samples)
    split = np.array(
        ["train"] * n_train
        + ["val"] * n_val
        + ["test"] * (n_samples - n_train - n_val)
    )
    return Dataset(
        x,
        np.asarray(y, dtype=np.int64),
        split,
        num_classes,
        provenance=f"synth:{kind}:{n_features}x{n_samples}:seed{seed}",
        meta=meta,
    )


def _random_teacher(rng: np.random.Generator, n_features: int) -> HardCircuit:
    width = max(4, n_features + n_features % 2)  # even, for 2-class groups
    layers = []
    fan_in = n_features
    for _ in range(2):
        layers.append(
            HardLayer(
                code=rng.integers(0, 16, size=width, dtype=np.int32),
                in0=rng.integers(0, fan_in, size=width, dtype=np.int32),
                in1=rng.integers(0, fan_in, size=width, dtype=np.int32),
            )
        )
        fan_in = width
    return HardCircuit(n_features, layers, num_classes=2, tau=1.0)
