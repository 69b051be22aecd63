"""Binary dataset loaders, stratified subsetting and batch iteration.

Two on-disk formats are supported, byte-exact per their public layouts:

  * IDX (big-endian): image files carry magic 2051 and three dims,
    label files magic 2049 and one dim; .gz copies are detected by the
    gzip signature and decompressed transparently.
  * CIFAR binary: fixed-length records of one (or two, for the
    100-category variant) label bytes followed by 3072 channel-major
    pixel bytes.

Pixels stay uint8, as stored on disk, until `batches` draws a batch and
scales it to [0, 1] float32; a split therefore costs one byte per pixel,
not four.  Training and evaluation both draw through `batches`, and a
benchmark run evaluates at its training batch size, so it has one batch
shape.  No further normalization happens, so every architecture sees the
same input statistics.
"""

from __future__ import annotations

import gzip
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    BadRecordLength,
    CorruptGzip,
    CountMismatch,
    EmptyDataset,
    InsufficientExamples,
    InvalidConfig,
    InvalidDataset,
    MissingBatchFile,
    TruncatedFile,
    check_int,
    read_input,
    read_text,
    seeded_generator,
)

DATA_DIR_ENV = "CIRCUITFORGE_DATA_DIR"

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049

CIFAR10_NAMES = ("airplane", "automobile", "bird", "cat", "deer",
                 "dog", "frog", "horse", "ship", "truck")


@dataclass(frozen=True)
class LabeledDataset:
    images: np.ndarray  # (n, channels, h, w) uint8; `batches` scales to float32
    labels: np.ndarray  # (n,) int64
    category_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.images.dtype != np.uint8 or self.images.ndim != 4:
            raise InvalidDataset(f"images must be uint8 (n, channels, h, w), "
                                 f"got {self.images.dtype} {self.images.shape}")
        if self.images.shape[0] != self.labels.shape[0]:
            raise CountMismatch(
                f"{self.images.shape[0]} images vs {self.labels.shape[0]} labels")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= len(self.category_names)):
            raise CountMismatch(
                f"labels outside [0, {len(self.category_names)})")

    def __len__(self) -> int:
        return int(self.labels.shape[0])

    @property
    def num_categories(self) -> int:
        return len(self.category_names)

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return tuple(self.images.shape[1:])


def _read_binary(path) -> bytes:
    raw = read_input(path)
    if raw[:2] != b"\x1f\x8b":
        return raw
    try:
        return gzip.decompress(raw)
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise CorruptGzip(f"{path}: damaged gzip data: {exc}") from None


def _idx_header(blob: bytes, path, n_dims: int) -> tuple[int, list[int]]:
    need = 4 * (1 + n_dims)
    if len(blob) < need:
        raise TruncatedFile(path, need, len(blob))
    magic = int.from_bytes(blob[0:4], "big")
    dims = [int.from_bytes(blob[4 + 4 * d:8 + 4 * d], "big") for d in range(n_dims)]
    return magic, dims


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Load an IDX image/label file pair (optionally gzipped); category i
    is named str(i), one per label up to the largest."""
    img_blob = _read_binary(images_path)
    magic, (n, rows, cols) = _idx_header(img_blob, images_path, 3)
    if magic != IDX_IMAGE_MAGIC:
        raise BadMagic(f"{images_path}: image magic {magic}, expected {IDX_IMAGE_MAGIC}")
    expected = 16 + n * rows * cols
    if len(img_blob) < expected:
        raise TruncatedFile(images_path, expected, len(img_blob))
    images = np.frombuffer(img_blob, dtype=np.uint8, count=n * rows * cols,
                           offset=16).reshape(n, 1, rows, cols)

    lab_blob = _read_binary(labels_path)
    magic, (n_labels,) = _idx_header(lab_blob, labels_path, 1)
    if magic != IDX_LABEL_MAGIC:
        raise BadMagic(f"{labels_path}: label magic {magic}, expected {IDX_LABEL_MAGIC}")
    if n_labels != n:
        raise CountMismatch(f"{n} images but {n_labels} labels")
    expected = 8 + n_labels
    if len(lab_blob) < expected:
        raise TruncatedFile(labels_path, expected, len(lab_blob))
    labels = np.frombuffer(lab_blob, dtype=np.uint8, count=n_labels, offset=8).astype(np.int64)

    k = int(labels.max()) + 1 if labels.size else 0
    return LabeledDataset(images=images, labels=labels,
                          category_names=tuple(str(i) for i in range(k)))


def _read_cifar_records(path, label_bytes: int) -> tuple[np.ndarray, np.ndarray]:
    blob = _read_binary(path)
    record = label_bytes + 3072
    if len(blob) == 0 or len(blob) % record != 0:
        raise BadRecordLength(
            f"{path}: {len(blob)} bytes is not a multiple of the {record}-byte record")
    raw = np.frombuffer(blob, dtype=np.uint8).reshape(-1, record)
    labels = raw[:, label_bytes - 1].astype(np.int64)  # fine label is the last one
    return raw[:, label_bytes:].reshape(-1, 3, 32, 32), labels


def _category_names_from_meta(directory: Path, meta_file: str, count: int
                              ) -> tuple[str, ...]:
    meta = directory / meta_file
    if meta.is_file():
        names = tuple(line.strip() for line in read_text(meta).splitlines() if line.strip())
        if len(names) == count:
            return names
    return tuple(str(i) for i in range(count))


def load_cifar(directory, variant: str = "C10", split: str = "train") -> LabeledDataset:
    """Read CIFAR binary batches from `directory`.

    variant C10: data_batch_1..5.bin / test_batch.bin, one label byte.
    variant C100: train.bin / test.bin, coarse+fine label bytes; the fine
    label (100 categories) is used.
    """
    directory = Path(directory)
    variant = variant.upper()
    if variant not in ("C10", "C100"):
        raise InvalidConfig(f"variant must be C10 or C100, got {variant!r}")
    if split not in ("train", "test"):
        raise InvalidConfig(f"split must be train or test, got {split!r}")
    if variant == "C10":
        files = [f"data_batch_{i}.bin" for i in range(1, 6)] if split == "train" \
            else ["test_batch.bin"]
        label_bytes = 1
        names = _category_names_from_meta(directory, "batches.meta.txt", 10)
        if names == tuple(str(i) for i in range(10)):
            names = CIFAR10_NAMES
    else:
        files = ["train.bin"] if split == "train" else ["test.bin"]
        label_bytes = 2
        names = _category_names_from_meta(directory, "fine_label_names.txt", 100)
    parts = []
    for name in files:
        path = directory / name
        if not path.is_file():
            raise MissingBatchFile(f"{path} not found")
        parts.append(_read_cifar_records(path, label_bytes))
    images = np.concatenate([p[0] for p in parts])
    labels = np.concatenate([p[1] for p in parts])
    return LabeledDataset(images=images, labels=labels, category_names=names)


def subset(ds: LabeledDataset, n: int, seed: int) -> LabeledDataset:
    """Stratified sample of n examples: per-category counts stay within
    one of exact proportionality (floor allocation, then largest
    fractional remainders).  Deterministic per seed."""
    check_int("n", n, 0, InvalidConfig)
    rng = seeded_generator("seed", seed, InvalidConfig)
    total = len(ds)
    if n > total:
        raise InsufficientExamples(f"asked for {n} of {total} examples")
    if n == total:
        return ds
    present = np.unique(ds.labels)
    counts = {int(c): int((ds.labels == c).sum()) for c in present}
    quota = {c: n * cnt / total for c, cnt in counts.items()}
    take = {c: int(q) for c, q in quota.items()}
    short = n - sum(take.values())
    for c in sorted(quota, key=lambda c: (-(quota[c] - take[c]), c))[:short]:
        take[c] += 1
    picks = []
    for c in sorted(take):
        pool = np.flatnonzero(ds.labels == c)
        chosen = rng.permutation(pool.size)[:take[c]]
        picks.append(pool[np.sort(chosen)])
    idx = np.sort(np.concatenate(picks))
    return LabeledDataset(images=ds.images[idx], labels=ds.labels[idx],
                          category_names=ds.category_names)


def batches(ds: LabeledDataset, batch_size: int, seed: int, *, shuffle: bool = True):
    """Yield (images, labels) covering every example exactly once.  The one
    place pixels become float32: each batch's bytes are divided by 255."""
    check_int("batch_size", batch_size, 1, InvalidConfig)
    rng = seeded_generator("seed", seed, InvalidConfig)
    if len(ds) == 0:
        raise EmptyDataset("cannot iterate an empty dataset")
    order = rng.permutation(len(ds)) if shuffle else np.arange(len(ds))
    for start in range(0, len(ds), batch_size):
        idx = order[start:start + batch_size]
        images = ds.images[idx].astype(np.float32)
        images /= 255.0
        yield images, ds.labels[idx]


# --- data-dir layout ---

_IDX_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}

DATASET_IDS = ("mnist", "fashion_mnist", "cifar10", "cifar100")


def resolve_data_dir(explicit: str | None = None) -> Path:
    """--data-dir flag wins; CIRCUITFORGE_DATA_DIR is the fallback."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    raise MissingBatchFile(
        f"no data directory: pass --data-dir or set {DATA_DIR_ENV}")


def _find_idx_file(directory: Path, stem: str) -> Path:
    for candidate in (directory / stem, directory / f"{stem}.gz"):
        if candidate.is_file():
            return candidate
    raise MissingBatchFile(f"{directory / stem}[.gz] not found")


def load_dataset(data_dir, name: str, split: str = "train") -> LabeledDataset:
    """Load one of the four supported datasets from the documented layout:
    <data_dir>/<name>/ holding either the IDX pair or the CIFAR binaries."""
    if name not in DATASET_IDS:
        raise InvalidConfig(f"unknown dataset {name!r}, expected one of {DATASET_IDS}")
    if split not in _IDX_FILES:
        raise InvalidConfig(f"split must be train or test, got {split!r}")
    root = Path(data_dir) / name
    if name in ("mnist", "fashion_mnist"):
        img_stem, lab_stem = _IDX_FILES[split]
        return load_idx(_find_idx_file(root, img_stem), _find_idx_file(root, lab_stem))
    variant = "C10" if name == "cifar10" else "C100"
    subdir = "cifar-10-batches-bin" if name == "cifar10" else "cifar-100-binary"
    directory = root / subdir if (root / subdir).is_dir() else root
    return load_cifar(directory, variant, split)
