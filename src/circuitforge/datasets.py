"""Binary dataset loaders, stratified subsetting and batch iteration.

Two on-disk formats are supported, byte-exact per their public layouts:

  * IDX (big-endian): image files carry magic 2051 and three dims,
    label files magic 2049 and one dim.
  * CIFAR binary: fixed-length records of one (or two, for the
    100-category variant) label bytes followed by 3072 channel-major
    pixel bytes.

One streamed reader, `_decoded`, reads every binary file, either format,
plain or gzipped (detected by the gzip signature), once, in one fill
loop straight into the split's final uint8 array (for CIFAR, an array of
whole records, which the images view): a plain file through
`readinto`, a gzip file inflated member by member with
`zlib.decompressobj`, at most CHUNK bytes per call.  An IDX split's size
comes from its header, a CIFAR split's from its files' sizes (a gzipped
batch is decoded once more to count its bytes).  No whole-file copy is
made, and no transient buffer larger than CHUNK.
Every fault raises the typed error that a whole-file decode raised,
naming the path: the rest of a gzip file is decoded before a format
error is raised, so damaged gzip data is reported first wherever it
lies, and the trailer's CRC and length are checked even when the
header's count ends the read early.

Pixels stay uint8, as stored on disk, until `batches` draws a batch and
scales it to [0, 1] float32; a split therefore costs one byte per pixel,
not four.  Training and evaluation both draw through `batches`, and a
benchmark run evaluates at its training batch size, so it has one batch
shape.  No further normalization happens, so every architecture sees the
same input statistics.
"""

from __future__ import annotations

import math
import os
import zlib
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

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
    LabelOutOfRange,
    MissingBatchFile,
    TruncatedFile,
    UnreadableInput,
    check_int,
    open_input,
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
        if self.labels.ndim != 1 or not np.issubdtype(self.labels.dtype, np.integer):
            raise InvalidDataset(f"labels must be a 1-D integer array, "
                                 f"got {self.labels.dtype} {self.labels.shape}")
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


GZIP_MAGIC = b"\x1f\x8b"
# Most bytes read from a file, and most bytes inflated, at once
CHUNK = 1 << 16
# deflate's largest ratio of decoded to compressed bytes, so a gzip file
# of s bytes decodes to at most MAX_RATIO * s
MAX_RATIO = 1032


class _Decoded:
    """The decoded bytes of one binary input, read once, in order: the
    file's own bytes, or, when it starts with the gzip signature, its
    members inflated in turn, the zero bytes that may pad a member skipped
    as `gzip.decompress` skips them.  A damaged member, a bad CRC or
    length, a file that ends inside a member and bytes after a member that
    start no member raise CorruptGzip naming the path."""

    def __init__(self, fh, path):
        self.path = path
        self.pos = 0  # bytes read so far
        self._fh = fh
        self._gzipped = fh.peek(2)[:2] == GZIP_MAGIC
        # the most bytes it can hold
        self._bound = (MAX_RATIO if self._gzipped else 1) * os.fstat(fh.fileno()).st_size
        self._data = b""  # read but not yet inflated
        self._member = None  # the decoder of the member being inflated

    def _inflate(self, view: memoryview) -> int:
        """Inflates the next bytes, at most len(view) and CHUNK of them, into
        view and returns their count: 0 only at the end of the file."""
        while True:
            if self._member is None:
                self._data = self._data.lstrip(b"\0")
                self._member = zlib.decompressobj(wbits=31) if self._data else None
            if self._member is not None:
                try:
                    piece = self._member.decompress(self._data, min(len(view), CHUNK))
                except zlib.error as exc:
                    raise CorruptGzip(f"{self.path}: damaged gzip data: {exc}") from None
                if self._member.eof:
                    self._data, self._member = self._member.unused_data, None
                else:
                    self._data = self._member.unconsumed_tail
                if piece:
                    view[:len(piece)] = piece
                    return len(piece)
            if not self._data:  # every byte read so far is inflated
                self._data = self._fh.read(CHUNK)
                if not self._data:
                    if self._member is None:
                        return 0
                    raise CorruptGzip(f"{self.path}: damaged gzip data: "
                                      "the file ends inside a member")

    def read(self, out: np.ndarray) -> np.ndarray:
        """Fills the contiguous uint8 array out with the next bytes, or
        raises TruncatedFile with the decoded length where they end."""
        view = memoryview(out.reshape(-1))
        fill = self._inflate if self._gzipped else self._fh.readinto
        got = 0
        while got < len(view) and (n := fill(view[got:])):
            got += n
        self.pos += got
        if got < len(view):
            raise TruncatedFile(self.path, self.pos - got + len(view), self.pos)
        return out

    def rest(self) -> int:
        """The number of bytes left, all of which a gzip file decodes, so that
        its checks run."""
        start = self.pos
        if self._gzipped:
            scratch = memoryview(bytearray(CHUNK))
            while n := self._inflate(scratch):
                self.pos += n
        else:
            self.pos = self._bound  # a plain file's size
        return self.pos - start

    def fail(self, error: Exception) -> NoReturn:
        """Raises error once the rest is decoded: a damaged gzip stream is
        reported first, wherever the damage lies, as a whole-file decode
        would report it."""
        self.rest()
        raise error

    def read_new(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next bytes as a new uint8 array of this shape.  A size the file
        cannot hold is refused before anything is allocated; one that cannot
        be allocated raises TruncatedFile with the decoded length if the file
        holds fewer bytes, else UnreadableInput, both naming the path."""
        need = self.pos + math.prod(shape)
        if need > self._bound:
            self.fail(TruncatedFile(self.path, need, self.pos + self.rest()))
        try:
            out = np.empty(shape, np.uint8)
        except MemoryError:
            start = self.pos
            if start + self.rest() < need:
                raise TruncatedFile(self.path, need, self.pos) from None
            raise UnreadableInput(f"{self.path}: {need - start} bytes from byte {start} "
                                  "do not fit in memory") from None
        return self.read(out)


@contextmanager
def _decoded(path) -> Iterator[_Decoded]:
    """The one reader of every binary input: IDX images and labels, and
    CIFAR batches.  Missing or unreadable files raise through
    `open_input`."""
    with open_input(path) as fh:
        yield _Decoded(fh, path)


def _idx_header(src: _Decoded, n_dims: int, magic: int, what: str) -> list[int]:
    """The dimensions of an IDX file whose magic must be `magic`."""
    got, *dims = map(int, src.read_new((4 * (1 + n_dims),)).view(">u4"))
    if got != magic:
        src.fail(BadMagic(f"{src.path}: {what} magic {got}, expected {magic}"))
    return dims


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Load an IDX image/label file pair (optionally gzipped); category i
    is named str(i), one per label up to the largest.  Each file is read
    once, straight into its array; the rest of a gzip file is decoded for
    its checks."""
    with _decoded(images_path) as src:
        n, rows, cols = _idx_header(src, 3, IDX_IMAGE_MAGIC, "image")
        images = src.read_new((n, 1, rows, cols))
        src.rest()
    with _decoded(labels_path) as src:
        (n_labels,) = _idx_header(src, 1, IDX_LABEL_MAGIC, "label")
        if n_labels != n:
            src.fail(CountMismatch(
                f"{labels_path}: {n_labels} labels but {images_path} has {n} images"))
        labels = src.read_new((n_labels,)).astype(np.int64)
        src.rest()
    k = int(labels.max()) + 1 if labels.size else 0
    return LabeledDataset(images=images, labels=labels,
                          category_names=tuple(str(i) for i in range(k)))


def _read_cifar(paths: list[Path], label_bytes: int, num_categories: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """The images and labels of CIFAR batch files, records in file order,
    each file read straight into its rows of one (n, record) array: the
    images are a view of its pixel bytes, and only the labels are copied.
    The split's size comes first, from each file's size, or from a
    counting decode of a gzipped file.  A label of num_categories or more
    raises LabelOutOfRange naming the file and the record."""
    record = label_bytes + 3072
    counts = []
    for path in paths:
        if not path.is_file():
            raise MissingBatchFile(f"{path} not found")
        with _decoded(path) as src:
            size = src.rest()
        if size == 0 or size % record != 0:
            raise BadRecordLength(
                f"{path}: {size} bytes is not a multiple of the {record}-byte record")
        counts.append(size // record)
    records = np.empty((sum(counts), record), np.uint8)
    labels = records[:, label_bytes - 1]  # the fine label is last
    start = 0
    for path, count in zip(paths, counts):
        with _decoded(path) as src:
            src.read(records[start:start + count])
            src.rest()
        bad = np.flatnonzero(labels[start:start + count] >= num_categories)
        if bad.size:
            raise LabelOutOfRange(f"{path}: record {bad[0]} has label {labels[start + bad[0]]}, "
                                  f"outside [0, {num_categories})")
        start += count
    return records[:, label_bytes:].reshape(-1, 3, 32, 32), labels.astype(np.int64)


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
    images, labels = _read_cifar([directory / name for name in files], label_bytes, len(names))
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
