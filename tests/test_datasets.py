from __future__ import annotations

import gzip
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from circuitforge import datasets
from circuitforge.datasets import (
    CIFAR10_NAMES,
    DATA_DIR_ENV,
    LabeledDataset,
    batches,
    load_cifar,
    load_dataset,
    load_idx,
    resolve_data_dir,
    subset,
)
from circuitforge.errors import (
    BadMagic,
    BadRecordLength,
    CircuitForgeError,
    CorruptGzip,
    CountMismatch,
    InsufficientExamples,
    InvalidDataset,
    LabelOutOfRange,
    MalformedRow,
    MissingBatchFile,
    TruncatedFile,
)
from conftest import write_idx_pair


def test_load_idx_values_and_scaling(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(10, 6, 6)).astype(np.uint8)
    labels = (np.arange(10) % 3).astype(np.uint8)
    img, lbl = write_idx_pair(tmp_path, "train", images, labels)
    ds = load_idx(img, lbl)
    assert ds.images.shape == (10, 1, 6, 6)
    assert ds.images.dtype == np.uint8
    assert np.array_equal(ds.images[:, 0], images)
    assert ds.labels.tolist() == labels.tolist()
    assert ds.num_categories == 3
    assert ds.input_shape == (1, 6, 6)
    (scaled, _), = batches(ds, 10, seed=0, shuffle=False)
    assert scaled.dtype == np.float32
    assert np.allclose(scaled[:, 0], images / 255.0, atol=1e-7)


def test_every_byte_scales_to_float32_quotient(tmp_path):
    """Both loaders keep the file's bytes; `batches` divides each by 255
    in float32, exactly."""
    want = np.arange(256, dtype=np.float32) / np.float32(255)
    img, lbl = write_idx_pair(tmp_path, "train", np.arange(256).reshape(4, 8, 8),
                              np.zeros(4, dtype=np.uint8))
    pixels = np.arange(3072) % 256
    (tmp_path / "test_batch.bin").write_bytes(bytes([0]) + pixels.astype(np.uint8).tobytes())
    for ds, codes in ((load_idx(img, lbl), np.arange(256)),
                      (load_cifar(tmp_path, "C10", "test"), pixels)):
        assert ds.images.dtype == np.uint8
        assert np.array_equal(ds.images.reshape(-1), codes)
        got = np.concatenate([x for x, _ in batches(ds, 3, seed=0, shuffle=False)])
        assert got.dtype == np.float32
        assert np.array_equal(got.reshape(-1), want[codes])


def test_load_idx_gzip_autodetect(tmp_path):
    images = np.zeros((4, 5, 5), dtype=np.uint8)
    labels = np.zeros(4, dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, "train", images, labels, compress=True)
    assert img.suffix == ".gz"
    ds = load_idx(img, lbl)
    assert len(ds) == 4


DAMAGES = {  # each gzip fault and the bare exception gzip.decompress raises for it
    "truncated": (lambda blob: blob[:-6], EOFError),
    "corrupt": (lambda blob: blob[:10] + bytes([blob[10] ^ 0xFF]) + blob[11:], zlib.error),
    "bad_header": (lambda blob: blob[:2] + b"\x07" + blob[3:], gzip.BadGzipFile),
}


@pytest.mark.parametrize("damage", DAMAGES)
def test_load_idx_damaged_gzip_names_the_file(tmp_path, damage):
    cut, bare = DAMAGES[damage]
    img, lbl = write_idx_pair(tmp_path, "train", np.zeros((40, 5, 5), dtype=np.uint8),
                              np.arange(40, dtype=np.uint8) % 10, compress=True)
    lbl.write_bytes(cut(lbl.read_bytes()))
    with pytest.raises(bare):
        gzip.decompress(lbl.read_bytes())
    with pytest.raises(CorruptGzip, match=f"^{re.escape(str(lbl))}: damaged gzip data"):
        load_idx(img, lbl)


def test_load_idx_bad_magic(tmp_path):
    images = np.zeros((2, 4, 4), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, "train", images, labels)
    blob = bytearray(img.read_bytes())
    blob[3] = 9  # corrupt the magic number
    img.write_bytes(bytes(blob))
    with pytest.raises(BadMagic):
        load_idx(img, lbl)


def test_load_idx_truncated_pixels(tmp_path):
    images = np.zeros((4, 4, 4), dtype=np.uint8)
    labels = np.zeros(4, dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, "train", images, labels)
    img.write_bytes(img.read_bytes()[:-7])
    with pytest.raises(TruncatedFile):
        load_idx(img, lbl)


def test_load_idx_truncated_header(tmp_path):
    bad = tmp_path / "img"
    bad.write_bytes(struct.pack(">II", 2051, 5))  # dims missing
    lbl = tmp_path / "lbl"
    lbl.write_bytes(struct.pack(">II", 2049, 5) + bytes(5))
    with pytest.raises(TruncatedFile):
        load_idx(bad, lbl)


def test_load_idx_count_mismatch(tmp_path):
    images = np.zeros((4, 4, 4), dtype=np.uint8)
    img, _ = write_idx_pair(tmp_path, "train", images, np.zeros(4, dtype=np.uint8))
    short = tmp_path / "short-labels"
    short.write_bytes(struct.pack(">II", 2049, 3) + bytes(3))
    with pytest.raises(CountMismatch, match=f"^{re.escape(str(short))}: 3 labels but "
                                            f"{re.escape(str(img))} has 4 images$"):
        load_idx(img, short)


def _write_cifar10(tmp_path, per_batch=6):
    rng = np.random.default_rng(1)
    d = tmp_path / "cifar-10-batches-bin"
    d.mkdir()
    for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
        records = b""
        for r in range(per_batch):
            label = bytes([r % 10])
            pixels = rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes()
            records += label + pixels
        (d / name).write_bytes(records)
    return d


def test_load_cifar10_layout(tmp_path):
    d = _write_cifar10(tmp_path)
    train = load_cifar(d, "C10", "train")
    test = load_cifar(d, "C10", "test")
    assert len(train) == 30 and len(test) == 6
    assert train.images.shape == (30, 3, 32, 32)
    assert train.category_names == CIFAR10_NAMES
    assert train.images.dtype == np.uint8


def test_load_cifar100_uses_fine_label(tmp_path):
    d = tmp_path / "cifar-100-binary"
    d.mkdir()
    rng = np.random.default_rng(2)
    for name, n in (("train.bin", 8), ("test.bin", 4)):
        records = b""
        for r in range(n):
            coarse, fine = bytes([r % 20]), bytes([(r * 7) % 100])
            records += coarse + fine + rng.integers(0, 256, 3072, dtype=np.uint8).tobytes()
        (d / name).write_bytes(records)
    train = load_cifar(d, "C100", "train")
    assert train.labels.tolist() == [(r * 7) % 100 for r in range(8)]


@pytest.mark.parametrize("variant", ["C10", "C100"])
def test_a_cifar_label_outside_the_categories_names_the_file_and_record(tmp_path, variant):
    label_bytes, k, name = (1, 10, "data_batch_2.bin") if variant == "C10" else (2, 100, "train.bin")
    d = _write_cifar10(tmp_path) if variant == "C10" else tmp_path
    records = np.zeros((6, label_bytes + 3072), np.uint8)
    records[3, label_bytes - 1] = 200  # the fine label of a C100 record is its second byte
    (d / name).write_bytes(records.tobytes())
    with pytest.raises(LabelOutOfRange, match=f"^{re.escape(str(d / name))}: record 3 has "
                                              rf"label 200, outside \[0, {k}\)$"):
        load_cifar(d, variant, "train")


def test_load_cifar_bad_record_length(tmp_path):
    d = _write_cifar10(tmp_path)
    batch = d / "data_batch_1.bin"
    batch.write_bytes(batch.read_bytes() + b"\x01")
    with pytest.raises(BadRecordLength):
        load_cifar(d, "C10", "train")


def test_load_cifar_missing_batch(tmp_path):
    d = _write_cifar10(tmp_path)
    (d / "data_batch_3.bin").unlink()
    with pytest.raises(MissingBatchFile):
        load_cifar(d, "C10", "train")


def test_cifar_meta_names(tmp_path):
    d = _write_cifar10(tmp_path)
    names = [f"thing{i}" for i in range(10)]
    (d / "batches.meta.txt").write_text("\n".join(names) + "\n")
    train = load_cifar(d, "C10", "train")
    assert train.category_names == tuple(names)


def test_cifar_meta_not_utf8_names_the_file(tmp_path):
    d = _write_cifar10(tmp_path)
    meta = d / "batches.meta.txt"
    meta.write_bytes(b"airplane\n\xffcar\n")
    with pytest.raises(MalformedRow, match=f"^{re.escape(str(meta))}:2: not UTF-8: byte 0xff"):
        load_cifar(d, "C10", "train")


# --- the streamed reader ---------------------------------------------------

def _members(blob: bytes, cuts: list[int]) -> bytes:
    """blob gzipped as one member per stretch between cuts."""
    bounds = [0, *cuts, len(blob)]
    return b"".join(gzip.compress(blob[a:b], mtime=0) for a, b in zip(bounds, bounds[1:]))


def _idx_blobs(n: int = 30, side: int = 7) -> tuple[bytes, bytes]:
    rng = np.random.default_rng(5)
    images = rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)
    labels = (np.arange(n) % 10).astype(np.uint8)
    return (struct.pack(">IIII", 2051, n, side, side) + images.tobytes(),
            struct.pack(">II", 2049, n) + labels.tobytes())


def _idx_from_bytes(img: bytes, lbl: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The oracle: a whole-file decode, parsed by hand."""
    n, rows, cols = struct.unpack(">III", img[4:16])
    return (np.frombuffer(img, np.uint8, n * rows * cols, 16).reshape(n, 1, rows, cols),
            np.frombuffer(lbl, np.uint8, n, 8).astype(np.int64))


ENCODINGS = {  # how a file's bytes are stored
    "plain": lambda blob: blob,
    "gzip": lambda blob: gzip.compress(blob, mtime=0),
    # the IDX header itself straddles the two members
    "members": lambda blob: _members(blob, [5, len(blob) // 2]),
    "zero_padding": lambda blob: _members(blob, [len(blob) // 3]) + bytes(9),
}


@pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
def test_streamed_idx_matches_a_whole_file_decode(tmp_path, monkeypatch, encoding, chunk):
    """Plain, gzipped, multi-member and zero-padded files read the same at
    any chunk size; at 1 and 7 bytes every header and member boundary
    straddles a chunk."""
    monkeypatch.setattr(datasets, "CHUNK", chunk)
    img_blob, lbl_blob = _idx_blobs()
    img, lbl = tmp_path / "img", tmp_path / "lbl"
    img.write_bytes(ENCODINGS[encoding](img_blob))
    lbl.write_bytes(ENCODINGS[encoding](lbl_blob))
    want_img, want_lbl = _idx_from_bytes(gzip.decompress(img.read_bytes())
                                         if encoding != "plain" else img_blob, lbl_blob)
    ds = load_idx(img, lbl)
    assert ds.images.dtype == np.uint8 and ds.images.flags.c_contiguous
    assert np.array_equal(ds.images, want_img) and np.array_equal(ds.labels, want_lbl)


def test_a_member_header_straddling_the_read_chunk(tmp_path):
    """The second member's gzip header starts 5 bytes before the end of the
    first 64 KiB read."""
    img_blob, lbl_blob = _idx_blobs(n=2000, side=28)
    first = gzip.compress(img_blob[:100], mtime=0)
    blob = first + bytes(datasets.CHUNK - 5 - len(first)) + gzip.compress(img_blob[100:], mtime=0)
    assert gzip.decompress(blob) == img_blob
    img, lbl = tmp_path / "img.gz", tmp_path / "lbl"
    img.write_bytes(blob)
    lbl.write_bytes(lbl_blob)
    want_img, want_lbl = _idx_from_bytes(img_blob, lbl_blob)
    ds = load_idx(img, lbl)
    assert np.array_equal(ds.images, want_img) and np.array_equal(ds.labels, want_lbl)


@pytest.mark.parametrize("chunk", [1, 1 << 16])
@pytest.mark.parametrize("encoding", ["plain", "gzip", "members"])
def test_streamed_cifar_matches_a_whole_file_decode(tmp_path, monkeypatch, encoding, chunk):
    monkeypatch.setattr(datasets, "CHUNK", chunk)
    d = _write_cifar10(tmp_path, per_batch=7)
    blobs = {}
    for path in d.iterdir():
        blobs[path.name] = path.read_bytes()
        path.write_bytes(ENCODINGS[encoding](blobs[path.name]))
    records = np.concatenate([np.frombuffer(blobs[f"data_batch_{i}.bin"], np.uint8)
                              for i in range(1, 6)]).reshape(-1, 3073)
    train = load_cifar(d, "C10", "train")
    assert np.array_equal(train.images, records[:, 1:].reshape(-1, 3, 32, 32))
    assert train.labels.tolist() == records[:, 0].tolist()


STREAM_FAULTS = {  # each fault, its bare gzip.decompress error (None: it decodes), our error
    "cut_mid_deflate": (lambda blob: blob[:len(blob) // 2], EOFError, CorruptGzip),
    "bad_crc": (lambda blob: blob[:-8] + bytes([blob[-8] ^ 1]) + blob[-7:],
                gzip.BadGzipFile, CorruptGzip),
    "bad_isize": (lambda blob: blob[:-1] + bytes([blob[-1] ^ 1]), gzip.BadGzipFile,
                  CorruptGzip),
    "trailing_garbage": (lambda blob: blob + b"garbage", gzip.BadGzipFile, CorruptGzip),
    "trailing_byte": (lambda blob: blob + b"\x01", gzip.BadGzipFile, CorruptGzip),
    "truncated_record": (lambda blob: gzip.compress(gzip.decompress(blob)[:-3], mtime=0),
                         None, TruncatedFile),
}


@pytest.mark.parametrize("which", ["images", "labels"])
@pytest.mark.parametrize("fault", sorted(STREAM_FAULTS))
def test_a_damaged_stream_raises_the_typed_error_naming_the_file(tmp_path, fault, which):
    damage, bare, typed = STREAM_FAULTS[fault]
    img, lbl = tmp_path / "img.gz", tmp_path / "lbl.gz"
    for path, blob in zip((img, lbl), _idx_blobs()):
        path.write_bytes(gzip.compress(blob, mtime=0))
    bad = img if which == "images" else lbl
    bad.write_bytes(damage(bad.read_bytes()))
    if bare is None:
        gzip.decompress(bad.read_bytes())
    else:
        with pytest.raises(bare):
            gzip.decompress(bad.read_bytes())
    with pytest.raises(typed, match=f"^{re.escape(str(bad))}: "):
        load_idx(img, lbl)


@pytest.mark.parametrize("encoding", ["plain", "gzip"])
def test_a_cifar_batch_of_partial_records_names_the_file(tmp_path, encoding):
    d = _write_cifar10(tmp_path)
    batch = d / "data_batch_4.bin"
    batch.write_bytes(ENCODINGS[encoding](batch.read_bytes()[:-100]))
    with pytest.raises(BadRecordLength, match=f"^{re.escape(str(batch))}: "):
        load_cifar(d, "C10", "train")


def test_a_header_claiming_more_than_the_file_holds_is_refused_before_allocating(tmp_path):
    """An image count no file of this size could decode to raises
    TruncatedFile with the decoded length, as the whole-file decode did."""
    img_blob, lbl_blob = _idx_blobs()
    huge = struct.pack(">IIII", 2051, 2 ** 31, 2 ** 15, 2 ** 15) + img_blob[16:]
    img, lbl = tmp_path / "img.gz", tmp_path / "lbl"
    img.write_bytes(gzip.compress(huge, mtime=0))
    lbl.write_bytes(lbl_blob)
    with pytest.raises(TruncatedFile, match=f"truncated at byte {len(huge)}, "
                                            f"need {16 + 2 ** 61}$"):
        load_idx(img, lbl)


def _mutate(blob: bytes, rng: np.random.Generator) -> bytes:
    """blob truncated, with a bit flipped, a byte set, bytes appended or a
    stretch cut out; one position in three lies in the first 24 bytes and
    one in three in the last 12, where headers and gzip trailers are."""
    n = len(blob)
    at = int(rng.choice([rng.integers(min(24, n)), n - 1 - rng.integers(min(12, n)),
                         rng.integers(n)]))
    kind = rng.integers(5)
    if kind == 0:
        return blob[:at]
    if kind == 1:
        return blob[:at] + bytes([blob[at] ^ (1 << int(rng.integers(8)))]) + blob[at + 1:]
    if kind == 2:
        return blob[:at] + bytes([int(rng.integers(256))]) + blob[at + 1:]
    if kind == 3:
        return blob + rng.integers(0, 256, int(rng.integers(1, 9)), dtype=np.uint8).tobytes()
    return blob[:at] + blob[at + int(rng.integers(1, 9)):]


@pytest.mark.parametrize("encoding", ["plain", "gzip"])
@pytest.mark.parametrize("fmt", ["idx", "cifar"])
def test_a_mutated_file_loads_or_raises_a_typed_error_naming_it(tmp_path, fmt, encoding):
    """400 seeded mutations of valid files: each either loads or raises a
    CircuitForgeError whose message names the mutated file."""
    rng = np.random.default_rng(["idx", "cifar"].index(fmt) * 2 + (encoding == "gzip"))
    if fmt == "idx":
        files = dict(zip((tmp_path / "img", tmp_path / "lbl"), _idx_blobs(n=12, side=4)))
        load = lambda: load_idx(tmp_path / "img", tmp_path / "lbl")
    else:
        d = _write_cifar10(tmp_path, per_batch=2)
        files = {d / f"data_batch_{i}.bin": (d / f"data_batch_{i}.bin").read_bytes()
                 for i in range(1, 6)}
        load = lambda: load_cifar(d, "C10", "train")
    files = {path: ENCODINGS[encoding](blob) for path, blob in files.items()}
    for path, blob in files.items():
        path.write_bytes(blob)
    refused = 0
    for trial in range(400):
        bad = list(files)[trial % len(files)]
        bad.write_bytes(_mutate(files[bad], rng))
        try:
            load()
        except CircuitForgeError as exc:
            assert str(bad) in str(exc), f"mutation {trial} of {bad.name}: {exc}"
            refused += 1
        bad.write_bytes(files[bad])
    assert refused >= 100


def test_a_gzipped_split_decodes_through_transients_of_a_few_chunks(tmp_path):
    """The traced peak of loading a gzipped 3.9 MB split exceeds its final
    arrays by at most 8 CHUNKs; a whole-file decode's buffers are as large
    as the file it decodes.  Every other image is blank, so stretches of
    the file inflate up to 1000-fold."""
    img_blob, lbl_blob = _idx_blobs(n=5000, side=28)
    img_blob = bytearray(img_blob)
    for start in range(16, len(img_blob), 2 * 784):
        img_blob[start:start + 784] = bytes(784)
    img, lbl = tmp_path / "img.gz", tmp_path / "lbl.gz"
    img.write_bytes(gzip.compress(img_blob, mtime=0))
    lbl.write_bytes(gzip.compress(lbl_blob, mtime=0))
    tracemalloc.start()
    try:
        ds = load_idx(img, lbl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.images.tobytes() == img_blob[16:]
    assert peak - ds.images.nbytes - ds.labels.nbytes <= 8 * datasets.CHUNK


# --- stratified subsetting ---------------------------------------------------

def _imbalanced_dataset(counts: dict[int, int]) -> LabeledDataset:
    labels = np.concatenate([np.full(n, cat, dtype=np.int64)
                             for cat, n in counts.items()])
    images = np.zeros((len(labels), 1, 4, 4), dtype=np.uint8)
    rows = np.arange(len(labels))  # make rows identifiable: row = 256 * hi + lo
    images[:, 0, 0, 0], images[:, 0, 0, 1] = rows % 256, rows // 256
    return LabeledDataset(images=images, labels=labels,
                          category_names=tuple(str(c) for c in sorted(counts)))


def _rows(batch: np.ndarray) -> list[int]:
    """The rows of `_imbalanced_dataset` a scaled batch came from."""
    lo, hi = np.rint(batch[:, 0, 0, :2] * 255).astype(int).T
    return (256 * hi + lo).tolist()


def test_subset_preserves_proportions_within_one():
    ds = _imbalanced_dataset({0: 600, 1: 300, 2: 100})
    sub = subset(ds, 100, seed=0)
    counts = np.bincount(sub.labels, minlength=3)
    assert counts.sum() == 100
    for cat, expected in ((0, 60), (1, 30), (2, 10)):
        assert abs(int(counts[cat]) - expected) <= 1


def test_subset_deterministic_and_seed_sensitive():
    ds = _imbalanced_dataset({0: 50, 1: 50})
    a = subset(ds, 20, seed=3)
    b = subset(ds, 20, seed=3)
    c = subset(ds, 20, seed=4)
    assert np.array_equal(a.images, b.images)
    assert not np.array_equal(a.images, c.images)


def test_subset_identity_and_overdraw():
    ds = _imbalanced_dataset({0: 10, 1: 10})
    assert len(subset(ds, 20, seed=0)) == 20
    with pytest.raises(InsufficientExamples):
        subset(ds, 21, seed=0)


def test_batches_cover_every_example_once():
    ds = _imbalanced_dataset({0: 17, 1: 14})
    seen = []
    for images, labels in batches(ds, batch_size=8, seed=5):
        assert len(images) == len(labels) <= 8
        seen.extend(_rows(images))
    assert sorted(seen) == list(range(31))


def test_batches_shuffle_determinism():
    ds = _imbalanced_dataset({0: 16, 1: 16})
    order = lambda seed: [x for imgs, _ in batches(ds, 8, seed) for x in _rows(imgs)]
    assert order(1) == order(1)
    assert order(1) != order(2)
    unshuffled = [x for imgs, _ in batches(ds, 8, 1, shuffle=False) for x in _rows(imgs)]
    assert unshuffled == list(range(32))


def test_batches_validates_inputs():
    ds = _imbalanced_dataset({0: 4})
    with pytest.raises(ValueError):
        list(batches(ds, 0, seed=0))


@pytest.mark.parametrize("labels", [np.zeros(3, dtype=np.float64), np.zeros(3, dtype=np.float32),
                                    np.zeros(3, dtype=bool), np.zeros((3, 1), dtype=np.int64)],
                         ids=["float64", "float32", "bool", "two_dims"])
def test_dataset_refuses_labels_not_1d_integers(labels):
    """Float labels could not index the loss's probabilities."""
    with pytest.raises(InvalidDataset, match="labels must be a 1-D integer array"):
        LabeledDataset(images=np.zeros((3, 1, 2, 2), dtype=np.uint8), labels=labels,
                       category_names=("a",))


def test_dataset_rejects_mismatched_lengths():
    with pytest.raises(CountMismatch):
        LabeledDataset(images=np.zeros((3, 1, 2, 2), dtype=np.uint8),
                       labels=np.zeros(2, dtype=np.int64),
                       category_names=("a",))


@pytest.mark.parametrize("images", [np.zeros((3, 1, 2, 2), dtype=np.float32),
                                    np.zeros((3, 1, 2, 2), dtype=np.float64),
                                    np.zeros((3, 2, 2), dtype=np.uint8)],
                         ids=["float32", "float64", "three_dims"])
def test_dataset_refuses_images_not_uint8_nchw(images):
    """Scaled floats would be divided by 255 a second time in `batches`."""
    with pytest.raises(InvalidDataset, match="images must be uint8"):
        LabeledDataset(images=images, labels=np.zeros(3, dtype=np.int64), category_names=("a",))


# --- directory resolution ----------------------------------------------------

def test_resolve_data_dir_prefers_flag(tmp_path, monkeypatch):
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "envdir"))
    (tmp_path / "envdir").mkdir()
    (tmp_path / "flagdir").mkdir()
    assert resolve_data_dir(str(tmp_path / "flagdir")).name == "flagdir"
    assert resolve_data_dir(None).name == "envdir"
    monkeypatch.delenv(DATA_DIR_ENV)
    with pytest.raises(MissingBatchFile):
        resolve_data_dir(None)


def test_load_dataset_layouts(tmp_path):
    mnist_dir = tmp_path / "mnist"
    mnist_dir.mkdir()
    images = np.zeros((6, 4, 4), dtype=np.uint8)
    labels = np.arange(6, dtype=np.uint8) % 2
    write_idx_pair(mnist_dir, "train", images, labels, compress=True)
    write_idx_pair(mnist_dir, "t10k", images, labels)
    assert len(load_dataset(tmp_path, "mnist", "train")) == 6
    assert len(load_dataset(tmp_path, "mnist", "test")) == 6

    cifar_root = tmp_path / "cifar10"
    cifar_root.mkdir()
    _write_cifar10(cifar_root)
    assert len(load_dataset(tmp_path, "cifar10", "train")) == 30

    with pytest.raises(MissingBatchFile):
        load_dataset(tmp_path, "fashion_mnist", "train")
