"""Dataset ingestion and synthetic task generation.

Real datasets keep raw integer features; binarization happens in the
encoding module. Splits are seeded and deterministic: validation is
carved out of the official train split, never out of test.
"""

from __future__ import annotations

import contextlib
import gzip
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .bitmatrix import BitMatrix
from .errors import IngestionError, StructuralError
from .model import HardCircuit, HardLayer, eval_circuit, score

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
        if idx.size == self.labels.size:  # e.g. a one-split load: no copy
            return self.features, self.labels
        return self.features[idx], self.labels[idx]


# The files that hold each split: validation is carved from the train files.
SPLIT_FILES = {None: ("train", "test"), "train": ("train",),
               "val": ("train",), "test": ("test",)}


def _carve_val(
    n_train: int, n_test: int, val_size: int, seed: int
) -> np.ndarray:
    split = np.repeat(np.array(["train", "test"]), [n_train, n_test])
    rng = np.random.default_rng(seed)
    val_idx = rng.permutation(n_train)[: min(val_size, n_train)]
    split[val_idx] = "val"
    return split


def _tagged(
    features: np.ndarray, labels: np.ndarray, n_train: int, val_size: int,
    seed: int, split: str | None, provenance: str,
) -> Dataset:
    """The rows of the train files, then of the test files, as a 10-class
    Dataset; with `split`, only that split's rows."""
    labels = labels.astype(np.int64)
    if labels.size and labels.max() > 9:
        raise IngestionError(f"label outside 0..9 in {provenance}")
    tags = _carve_val(n_train, len(labels) - n_train, val_size, seed)
    if split in ("train", "val"):  # the test files hold only test rows
        rows = np.flatnonzero(tags == split)
        features, labels, tags = features[rows], labels[rows], tags[rows]
    return Dataset(features, labels, tags, num_classes=10,
                   provenance=provenance)


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


def _fill(
    files, paths: list[str], out: np.ndarray, counts: list[int]
) -> None:
    """Read the rest of each file straight into its next `counts` rows of
    `out`, which it must fill exactly."""
    start = 0
    for fh, path, n in zip(files, paths, counts):
        view = memoryview(out[start : start + n]).cast("B")
        got = 0
        while got < len(view) and (k := fh.readinto(view[got:])):
            got += k
        if got != len(view) or fh.read(1):
            raise IngestionError(f"payload is not {len(view)} bytes: {path}")
        start += n


def _read_idx(paths: list[str], magic: int) -> tuple[np.ndarray, list[int]]:
    """The payloads of IDX files with items of one size, in one (N, item
    size) array, and each file's item count."""
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(_open_maybe_gz(p)) for p in paths]
        dims = [_idx_dims(fh, p, magic) for fh, p in zip(files, paths)]
        if len({math.prod(d[1:]) for d in dims}) > 1:
            raise IngestionError("train and test image sizes differ")
        counts = [d[0] for d in dims]
        try:
            out = np.empty((sum(counts), math.prod(dims[0][1:])), np.uint8)
        except (MemoryError, ValueError):
            raise IngestionError(
                f"IDX dims {dims} too large: {paths}"
            ) from None
        _fill(files, paths, out, counts)
    return out, counts


def load_mnist_idx(
    path: str | os.PathLike, val_size: int = VAL_SIZE, seed: int = 0,
    split: str | None = None,
) -> Dataset:
    """Load the four canonical IDX files (plain or .gz) from a directory;
    with `split`, read only the two that hold it and keep its rows.

    The image payloads are read straight into one (N, F) feature array,
    so no raw copy of any file is ever held."""
    path = os.fspath(path)
    parts = SPLIT_FILES[split]
    labels, counts = _read_idx(
        [os.path.join(path, MNIST_FILES[f"{p}_labels"]) for p in parts], 0x801
    )
    features, n_images = _read_idx(
        [os.path.join(path, MNIST_FILES[f"{p}_images"]) for p in parts], 0x803
    )
    if n_images != counts:
        raise IngestionError("image/label sample counts disagree")
    n_train = counts[0] if parts[0] == "train" else 0
    return _tagged(features, labels[:, 0], n_train, val_size, seed, split,
                   f"mnist-idx:{path}")


def load_cifar10(
    path: str | os.PathLike, val_size: int = VAL_SIZE, seed: int = 0,
    split: str | None = None,
) -> Dataset:
    """Load the 5 train + 1 test binary batches (3073-byte records: the
    label byte, then the pixels) from a directory; with `split`, read only
    the batches that hold it and keep its rows. The records are read
    straight into one array, and the features are a view of its pixels."""
    path = os.fspath(path)
    names = [n for p in SPLIT_FILES[split]
             for n in (CIFAR_TRAIN if p == "train" else [CIFAR_TEST])]
    paths = [os.path.join(path, n) for n in names]
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(_open_maybe_gz(p)) for p in paths]
        sizes = [fh.seek(0, os.SEEK_END) for fh in files]
        for fh, p, size in zip(files, paths, sizes):
            if size == 0 or size % CIFAR_RECORD:
                raise IngestionError(
                    f"truncated CIFAR batch (size {size}): {p}"
                )
            fh.seek(0)
        counts = [size // CIFAR_RECORD for size in sizes]
        rec = np.empty((sum(counts), CIFAR_RECORD), np.uint8)
        _fill(files, paths, rec, counts)
    n_train = sum(c for n, c in zip(names, counts) if n != CIFAR_TEST)
    return _tagged(rec[:, 1:], rec[:, 0], n_train, val_size, seed, split,
                   f"cifar10:{path}")


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
        final = eval_circuit(teacher, BitMatrix.from_array(x))
        y = score(teacher, final.words, n_samples)[1]
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
