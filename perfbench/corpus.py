"""Seeded synthetic corpora in the official on-disk formats.

The program under test only ever sees these files, read through its own
loaders.  Every category is a texture (an oriented grating whose angle,
frequency and, for colour images, tint depend on the label) with a random
phase per image plus Gaussian pixel noise, so the nets have something to
learn and no two images are equal.  Images are generated and written in
chunks, so the generator never holds a whole corpus in memory and the
benchmark's peak RSS is set by the program, not by this module.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path

import numpy as np

CATEGORIES = 10
CHUNK = 2000

# gray28: the Fashion-MNIST shape and record counts
GRAY_TRAIN, GRAY_TEST = 60000, 10000
# rgb32: the CIFAR-10 layout (five train batch files plus one test batch).
# Official files hold 10,000 records each; the loader keeps raw bytes, a
# float32 copy and the concatenation alive at once, which for 50,000
# records peaks near 2 GB of RSS.  2,000 records per file keeps the same
# format and code path at a fifth of that.
RGB_PER_BATCH = 2000

_TINTS = np.array([[1.0, 0.3, 0.3], [0.3, 1.0, 0.3], [0.3, 0.3, 1.0],
                   [1.0, 1.0, 0.3], [1.0, 0.3, 1.0], [0.3, 1.0, 1.0],
                   [0.9, 0.6, 0.3], [0.6, 0.3, 0.9], [0.6, 0.9, 0.6],
                   [0.8, 0.8, 0.8]], dtype=np.float32)


def _labels(rng: np.random.Generator, n: int) -> np.ndarray:
    """Balanced labels in a seeded order."""
    return rng.permutation(np.arange(n) % CATEGORIES).astype(np.uint8)


def _textures(rng: np.random.Generator, labels: np.ndarray, channels: int,
              side: int) -> np.ndarray:
    """uint8 (n, channels, side, side) class textures plus noise."""
    n = len(labels)
    coords = np.arange(side, dtype=np.float32)
    theta = (labels.astype(np.float32) * np.pi / CATEGORIES)[:, None, None]
    freq = (0.08 + 0.03 * (labels % 4)).astype(np.float32)[:, None, None]
    phase = rng.uniform(0.0, 2 * np.pi, size=(n, 1, 1)).astype(np.float32)
    ramp = coords[None, None, :] * np.cos(theta) + coords[None, :, None] * np.sin(theta)
    wave = 0.5 + 0.35 * np.sin(2 * np.pi * freq * ramp + phase)  # (n, side, side)
    tint = _TINTS[labels, :channels] if channels > 1 else np.ones((n, 1), np.float32)
    images = wave[:, None] * tint[:, :, None, None]
    images += rng.normal(0.0, 0.08, size=images.shape).astype(np.float32)
    return (np.clip(images, 0.0, 1.0) * 255).astype(np.uint8)


def _write_idx_gz(img_path: Path, lbl_path: Path, rng: np.random.Generator,
                  n: int, side: int) -> None:
    labels = _labels(rng, n)
    with gzip.open(img_path, "wb", compresslevel=6) as fh:
        fh.write(struct.pack(">IIII", 2051, n, side, side))
        for start in range(0, n, CHUNK):
            fh.write(_textures(rng, labels[start:start + CHUNK], 1, side).tobytes())
    with gzip.open(lbl_path, "wb", compresslevel=6) as fh:
        fh.write(struct.pack(">II", 2049, n) + labels.tobytes())


def _write_cifar_batch(path: Path, rng: np.random.Generator, n: int) -> None:
    labels = _labels(rng, n)
    with open(path, "wb") as fh:
        for start in range(0, n, CHUNK):
            lab = labels[start:start + CHUNK]
            pixels = _textures(rng, lab, 3, 32).reshape(len(lab), 3072)
            fh.write(np.concatenate([lab[:, None], pixels], axis=1).tobytes())


def write_gray28(data_dir: Path, seed: int, train_n: int = GRAY_TRAIN,
                 test_n: int = GRAY_TEST) -> str:
    """Gzipped IDX pair under data_dir/fashion_mnist; returns the dataset id."""
    d = Path(data_dir) / "fashion_mnist"
    d.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 28])
    _write_idx_gz(d / "train-images-idx3-ubyte.gz", d / "train-labels-idx1-ubyte.gz",
                  rng, train_n, 28)
    _write_idx_gz(d / "t10k-images-idx3-ubyte.gz", d / "t10k-labels-idx1-ubyte.gz",
                  rng, test_n, 28)
    return "fashion_mnist"


def write_rgb32(data_dir: Path, seed: int, per_batch: int = RGB_PER_BATCH) -> str:
    """CIFAR-10 binary batches under data_dir/cifar10/cifar-10-batches-bin;
    returns the dataset id."""
    d = Path(data_dir) / "cifar10" / "cifar-10-batches-bin"
    d.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 32])
    for i in range(1, 6):
        _write_cifar_batch(d / f"data_batch_{i}.bin", rng, per_batch)
    _write_cifar_batch(d / "test_batch.bin", rng, per_batch)
    return "cifar10"
