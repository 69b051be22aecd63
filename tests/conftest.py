from __future__ import annotations

import gzip
import os
import struct
from pathlib import Path

# timing-sensitive checks budget for one CPU thread; pin the pools
# before the first numpy import so the limit actually takes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from circuitforge.arch import ArchitectureSpec
from circuitforge.connectome import (
    Connectome,
    Role,
    aggregate_functional,
    bundled_data_path,
    load_aggregation,
    load_connectome,
)
from circuitforge.cri import CriTable, SelectedNeurons, TopK, load_cri_table, select_correlated
from circuitforge.datasets import DATA_DIR_ENV, LabeledDataset
from circuitforge.engine.optim import BETA1, BETA2, EPS, MOMENTUM

ROLE_BY_PREFIX = {"S": Role.SENSORY, "I": Role.INTER, "M": Role.MOTOR}


def role_of(name: str) -> Role:
    """Role from the first letter: S/I/M convention used by test fixtures."""
    return ROLE_BY_PREFIX[name[0]]


def make_connectome(chem: dict[tuple[str, str], int],
                    elec: dict[tuple[str, str], int] | None = None,
                    extra: tuple[str, ...] = ()) -> Connectome:
    """In-memory connectome; roles inferred from the S/I/M name prefix.

    elec pairs are given once and stored symmetrically, matching the
    on-disk convention.
    """
    sym: dict[tuple[str, str], int] = {}
    for (a, b), e in (elec or {}).items():
        sym[(a, b)] = sym[(b, a)] = e
    names = {n for pair in list(chem) + list(sym) for n in pair} | set(extra)
    roles = {n: role_of(n) for n in names}
    return Connectome(roles=roles, chem=dict(chem), elec=sym)


def random_connectome(rng: np.random.Generator, n_sensory: int = 6,
                      n_inter: int = 5, n_motor: int = 5) -> Connectome:
    """Role-structured random graph used by the extraction property tests."""
    names = ([f"S{i}" for i in range(n_sensory)]
             + [f"I{i}" for i in range(n_inter)]
             + [f"M{i}" for i in range(n_motor)])
    chem = {}
    for a in names:
        for b in names:
            if a != b and rng.random() < 0.3:
                chem[(a, b)] = int(rng.integers(1, 20))
    elec = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if rng.random() < 0.08:
                e = int(rng.integers(1, 6))
                elec[(a, b)] = elec[(b, a)] = e
    roles = {n: role_of(n) for n in names}
    return Connectome(roles=roles, chem=chem, elec=elec)


def write_connectome_tsv(tmp_path: Path, rows: list[tuple[str, str, int, int]],
                         roles: dict[str, str]) -> tuple[Path, Path]:
    conn_path = tmp_path / "connectome.tsv"
    roles_path = tmp_path / "roles.tsv"
    with open(conn_path, "w", newline="\n") as fh:
        fh.write("pre\tpost\tchem\telec\n")
        for pre, post, c, e in rows:
            fh.write(f"{pre}\t{post}\t{c}\t{e}\n")
    with open(roles_path, "w", newline="\n") as fh:
        fh.write("neuron\trole\n")
        for name, role in roles.items():
            fh.write(f"{name}\t{role}\n")
    return conn_path, roles_path


# --- the bundled reference tables, each step wired by hand --------------------

def load_reference_connectome() -> Connectome:
    """The bundled raw connectome (per-neuron resolution)."""
    return load_connectome(bundled_data_path("connectome.tsv"),
                           bundled_data_path("roles.tsv"))


def load_functional_connectome() -> Connectome:
    """Raw connectome aggregated into functional (merged) neurons."""
    raw = load_reference_connectome()
    mapping = load_aggregation(bundled_data_path("aggregation.tsv"))
    return aggregate_functional(raw, mapping)


def load_reference_cri() -> tuple[CriTable, dict]:
    return load_cri_table(bundled_data_path("cri_table.csv"))


def reference_selection() -> SelectedNeurons:
    """The standard selection: `TopK()` by correlation index."""
    cri, roles = load_reference_cri()
    return select_correlated(cri, roles, TopK())


def random_selection(rng, conn) -> SelectedNeurons:
    """A random nonempty selection per role, for the property tests."""
    by_role = {r: sorted(n for n in conn.roles if conn.roles[n] is r)
               for r in (Role.SENSORY, Role.INTER, Role.MOTOR)}
    pick = lambda pool, hi: frozenset(
        str(n) for n in rng.choice(pool, size=min(len(pool), int(rng.integers(1, hi))),
                                   replace=False))
    return SelectedNeurons(pick(by_role[Role.SENSORY], 4),
                           pick(by_role[Role.INTER], 3),
                           pick(by_role[Role.MOTOR], 3))


def circuit_wires(spec: ArchitectureSpec) -> frozenset[tuple[str, str]]:
    """Project block wires back onto circuit edges (for isomorphism checks).

    conv:X -> conv:Y and conv:X -> merge:Y both project to (X, Y); plumbing
    wires (stem, merges into their own conv, output collection) drop out.
    """
    def neuron(block_id: str) -> str | None:
        if block_id.startswith("conv:"):
            return block_id[len("conv:"):]
        if block_id.startswith("merge:") and block_id != "merge:out":
            return block_id[len("merge:"):]
        return None

    edges = set()
    for a, b in spec.wires:
        na, nb = neuron(a), neuron(b)
        if na is not None and nb is not None and na != nb:
            edges.add((na, nb))
    return frozenset(edges)


# --- conv loop oracles ------------------------------------------------------

def naive_conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, pad: int) -> np.ndarray:
    """Loop oracle of a stride-1 conv, one output cell at a time."""
    n, _, h, wdt = x.shape
    cout, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = h + 2 * pad - k + 1, wdt + 2 * pad - k + 1
    out = np.zeros((n, cout, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    out[ni, co, i, j] = np.sum(xp[ni, :, i:i + k, j:j + k] * w[co]) + b[co]
    return out


def naive_conv_backward(gy: np.ndarray, x: np.ndarray, w: np.ndarray, pad: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Loop oracle of naive_conv's (gx, gw, gb)."""
    n, _, h, wdt = x.shape
    cout, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    gb = np.zeros(cout, dtype=gy.dtype)
    for ni in range(n):
        for co in range(cout):
            for i in range(gy.shape[2]):
                for j in range(gy.shape[3]):
                    g = gy[ni, co, i, j]
                    gb[co] += g
                    gw[co] += g * xp[ni, :, i:i + k, j:j + k]
                    gxp[ni, :, i:i + k, j:j + k] += g * w[co]
    return gxp[:, :, pad:pad + h, pad:pad + wdt], gw, gb


# --- per-slot optimizer oracles ----------------------------------------------

class SlotSGD:
    """SGD as it ran slot by slot: a velocity array per slot, made on the
    slot's first step and keyed by its name, slots walked in canonical
    order.  The oracle for `optim.SGD`, which updates one vector."""

    def __init__(self, lr: float):
        self.lr = lr
        self.velocity: dict[str, np.ndarray] = {}

    def step(self, g) -> None:
        for slot, value in g.params.items():
            v = self.velocity.get(slot)
            if v is None:
                v = self.velocity[slot] = np.zeros_like(value)
            v *= MOMENTUM
            v += g.grads[slot]
            value -= self.lr * v


class SlotAdam:
    """Adam as it ran slot by slot, the oracle for `optim.Adam`."""

    def __init__(self, lr: float):
        self.lr = lr
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.steps = 0

    def step(self, g) -> None:
        self.steps += 1
        t = self.steps
        for slot, value in g.params.items():
            grad = g.grads[slot]
            if slot not in self.m:
                self.m[slot], self.v[slot] = np.zeros_like(value), np.zeros_like(value)
            m, v = self.m[slot], self.v[slot]
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * np.square(grad)
            mhat = m / (1.0 - BETA1 ** t)
            vhat = v / (1.0 - BETA2 ** t)
            value -= self.lr * mhat / (np.sqrt(vhat) + EPS)


# --- image-dataset fixtures -------------------------------------------------

def write_idx_pair(directory: Path, stem_prefix: str, images: np.ndarray,
                   labels: np.ndarray, compress: bool = False) -> tuple[Path, Path]:
    """Write big-endian IDX image/label files (images: uint8 (N, H, W))."""
    n, h, w = images.shape
    img_path = directory / f"{stem_prefix}-images-idx3-ubyte"
    lbl_path = directory / f"{stem_prefix}-labels-idx1-ubyte"
    img_blob = struct.pack(">IIII", 2051, n, h, w) + images.astype(np.uint8).tobytes()
    lbl_blob = struct.pack(">II", 2049, n) + labels.astype(np.uint8).tobytes()
    if compress:
        img_path = img_path.with_suffix(".gz")
        lbl_path = lbl_path.with_suffix(".gz")
        img_path.write_bytes(gzip.compress(img_blob))
        lbl_path.write_bytes(gzip.compress(lbl_blob))
    else:
        img_path.write_bytes(img_blob)
        lbl_path.write_bytes(lbl_blob)
    return img_path, lbl_path


def write_bench_corpus(root: Path, side: int = 16, train_n: int = 48,
                       test_n: int = 24) -> Path:
    """IDX train/test pair under root/mnist with balanced texture labels,
    sized so every architecture style admits the input."""
    rng = np.random.default_rng(11)
    rows = np.arange(side)

    def texture_images(labels: np.ndarray) -> np.ndarray:
        images = np.zeros((len(labels), side, side), dtype=np.float64)
        for idx, label in enumerate(labels):
            kind = int(label) % 4
            if kind == 0:
                images[idx] = np.where(rows[:, None] % 2 == 0, 0.9, 0.1)
            elif kind == 1:
                images[idx] = np.where(rows[None, :] % 2 == 0, 0.9, 0.1)
            elif kind == 2:
                images[idx] = 0.8
            else:
                images[idx] = 0.15
        images += rng.normal(0.0, 0.03, size=images.shape)
        return (np.clip(images, 0.0, 1.0) * 255).astype(np.uint8)

    d = root / "mnist"
    d.mkdir(parents=True)
    train_labels = (np.arange(train_n) % 4).astype(np.uint8)
    test_labels = (np.arange(test_n) % 4).astype(np.uint8)
    write_idx_pair(d, "train", texture_images(train_labels), train_labels)
    write_idx_pair(d, "t10k", texture_images(test_labels), test_labels)
    return root


def synthetic_dataset(n: int = 120, categories: int = 4, side: int = 8,
                      seed: int = 7) -> LabeledDataset:
    """Small learnable dataset whose categories differ in texture, not
    position, so they stay separable after global average pooling:
    horizontal stripes, vertical stripes, bright, dark."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, categories, size=n)
    images = np.zeros((n, 1, side, side), dtype=np.float32)
    rows = np.arange(side)
    for idx, label in enumerate(labels):
        kind = label % 4
        if kind == 0:
            images[idx, 0] = np.where(rows[:, None] % 2 == 0, 0.9, 0.1)
        elif kind == 1:
            images[idx, 0] = np.where(rows[None, :] % 2 == 0, 0.9, 0.1)
        elif kind == 2:
            images[idx, 0] = 0.8
        else:
            images[idx, 0] = 0.15
    images += rng.normal(0.0, 0.04, size=images.shape).astype(np.float32)
    return LabeledDataset(images=(np.clip(images, 0.0, 1.0) * 255).astype(np.uint8),
                          labels=labels.astype(np.int64),
                          category_names=tuple(str(i) for i in range(categories)))


def official_data_dir() -> Path | None:
    """Directory holding the real dataset files, when one is available."""
    env = os.environ.get(DATA_DIR_ENV)
    if env and Path(env).is_dir():
        return Path(env)
    local = Path(__file__).parent / "data"
    if local.is_dir():
        return local
    return None


def require_official(name: str) -> Path:
    base = official_data_dir()
    if base is None or not (base / name).is_dir():
        pytest.skip(f"official {name} files not present (set {DATA_DIR_ENV} "
                    f"or populate tests/data/{name}; see scripts/fetch_datasets.py)")
    return base
