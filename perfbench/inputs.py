"""Seeded synthetic datasets in the on-disk formats boolnet ingests.

Images are MNIST-format IDX files (784 pixels) or CIFAR-10 binary batches
(3072 pixels). Pixels are driven by a few latent factors plus noise, so
many pixels carry the same information and a small network learns above
chance within one epoch. Labels come from a random teacher circuit over
the pixel bits ``pixel > 127``: per class, a group of two-input monotone
gates reading pixels from that class's own region, summed and centred by
the group's expected sum so that the ten classes are roughly balanced.
The task (mixing matrix and teacher) is drawn once from TASK_SEED; the
benchmark's seed draws the samples.

Samples are made CHUNK_ROWS at a time in float32, so that the generator's
memory stays far below the program's and the benchmark's peak-RSS figure
measures boolnet, not this module.

Only numpy is used here; the program under test sees nothing but the
written files.
"""

from __future__ import annotations

import os

import numpy as np

NUM_CLASSES = 10
TASK_SEED = 20250702
LATENT_DIM = 10
# Twenty teacher gates per class and pixel noise of 16 grey levels: with 40
# gates and noise 32 the accuracy reached in one epoch spread across seeds
# by about 0.2 of its median; with these, by about 0.05.
TEACHER_GATES_PER_CLASS = 20
PIXEL_NOISE = 16
# Truth-table codes indexed by 2a+b: AND, B, A, OR. All monotone, so a
# brighter class region raises that class's score.
TEACHER_CODES = np.array([8, 10, 12, 14])

MNIST_PIXELS = 784
CIFAR_PIXELS = 3072
CIFAR_TRAIN_BATCHES = 5
CHUNK_ROWS = 1000


def make_images(rng: np.random.Generator, mix: np.ndarray, n: int) -> np.ndarray:
    """(n, pixels) uint8 images: LATENT_DIM Gaussian factors through the
    (LATENT_DIM, pixels) mixing matrix, plus pixel noise."""
    z = rng.standard_normal((n, LATENT_DIM), dtype=np.float32)
    noise = rng.standard_normal((n, mix.shape[1]), dtype=np.float32)
    return np.clip(128 + 64 * (z @ mix) + PIXEL_NOISE * noise, 0, 255).astype(np.uint8)


def make_teacher(rng: np.random.Generator, n_pixels: int) -> dict:
    """A random one-layer teacher circuit with a GroupSum head."""
    region = n_pixels // NUM_CLASSES
    regions = rng.permutation(n_pixels)[: region * NUM_CLASSES].reshape(
        NUM_CLASSES, region
    )
    shape = (NUM_CLASSES, TEACHER_GATES_PER_CLASS)
    rows = np.arange(NUM_CLASSES)[:, None]
    return {
        "in0": regions[rows, rng.integers(0, region, shape)],
        "in1": regions[rows, rng.integers(0, region, shape)],
        "code": rng.choice(TEACHER_CODES, size=shape),
    }


def teacher_labels(
    teacher: dict, images: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Class = argmax of centred group sums; ties broken at random."""
    bits = (images > 127).astype(np.uint8)
    a = bits[:, teacher["in0"]]
    b = bits[:, teacher["in1"]]
    out = (teacher["code"][None] >> (2 * a + b).astype(np.int64)) & 1
    ones_per_code = np.array([bin(c).count("1") for c in range(16)])
    expected = ones_per_code[teacher["code"]].sum(axis=1) / 4.0
    scores = out.sum(axis=2) - expected + 0.5 * rng.random((len(images), NUM_CLASSES))
    return np.argmax(scores, axis=1).astype(np.uint8)


def make_split_data(
    seed: int, n_pixels: int, n_train: int, n_test: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(train_images, train_labels, test_images, test_labels) for a seed.

    The task (pixel mixing and teacher) is fixed; the seed draws the
    samples. Drawing the task too made the accuracy reached in one epoch
    vary across seeds by several times the bounds the benchmark needs.
    """
    task_rng = np.random.default_rng(TASK_SEED)
    teacher = make_teacher(task_rng, n_pixels)
    mix = task_rng.standard_normal((LATENT_DIM, n_pixels), dtype=np.float32)
    mix /= np.sqrt(LATENT_DIM)
    rng = np.random.default_rng(seed)
    n = n_train + n_test
    images = np.empty((n, n_pixels), dtype=np.uint8)
    labels = np.empty(n, dtype=np.uint8)
    for lo in range(0, n, CHUNK_ROWS):
        hi = min(n, lo + CHUNK_ROWS)
        images[lo:hi] = make_images(rng, mix, hi - lo)
        labels[lo:hi] = teacher_labels(teacher, images[lo:hi], rng)
    return images[:n_train], labels[:n_train], images[n_train:], labels[n_train:]


def _write_idx(path: str, array: np.ndarray) -> None:
    """IDX: magic 0x0000 08 <ndim>, big-endian dims, then uint8 payload."""
    header = bytes([0, 0, 0x08, array.ndim]) + b"".join(
        int(d).to_bytes(4, "big") for d in array.shape
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(array, dtype=np.uint8).tobytes())


def write_mnist_idx(
    directory: str,
    train_images: np.ndarray,
    train_labels: np.ndarray,
    test_images: np.ndarray,
    test_labels: np.ndarray,
) -> None:
    """The four canonical MNIST IDX files; images are stored as 28x28."""
    os.makedirs(directory, exist_ok=True)
    for stem, images, labels in (
        ("train", train_images, train_labels),
        ("t10k", test_images, test_labels),
    ):
        _write_idx(
            os.path.join(directory, f"{stem}-images-idx3-ubyte"),
            images.reshape(len(images), 28, 28),
        )
        _write_idx(os.path.join(directory, f"{stem}-labels-idx1-ubyte"), labels)


def _write_cifar_batch(path: str, images: np.ndarray, labels: np.ndarray) -> None:
    records = np.empty((len(images), 1 + CIFAR_PIXELS), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = images
    with open(path, "wb") as fh:
        fh.write(records.tobytes())


def write_cifar10(
    directory: str,
    train_images: np.ndarray,
    train_labels: np.ndarray,
    test_images: np.ndarray,
    test_labels: np.ndarray,
) -> None:
    """Five training batches (in order) and one test batch, binary format."""
    os.makedirs(directory, exist_ok=True)
    parts = np.array_split(np.arange(len(train_images)), CIFAR_TRAIN_BATCHES)
    for i, idx in enumerate(parts, start=1):
        _write_cifar_batch(
            os.path.join(directory, f"data_batch_{i}.bin"),
            train_images[idx],
            train_labels[idx],
        )
    _write_cifar_batch(
        os.path.join(directory, "test_batch.bin"), test_images, test_labels
    )
