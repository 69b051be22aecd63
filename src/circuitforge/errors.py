"""Exception types raised across the pipeline.

Every error the library raises deliberately derives from CircuitForgeError,
so callers can catch one base class at CLI boundaries; `open_input`,
`read_input` and `read_text` turn an input file that cannot be read or
decoded into one.
Loader errors carry enough context (line numbers, byte offsets, field
paths) to point at the offending input.
"""

import math
from collections.abc import Iterator
from contextlib import contextmanager
from typing import BinaryIO

import numpy as np


class CircuitForgeError(Exception):
    pass


class InvalidConfig(CircuitForgeError, ValueError):
    """A flag or config value out of range or of the wrong type, refused
    before anything is written."""


def check_int(what: str, value, low: int, error: type[CircuitForgeError]) -> None:
    """A Python int (what JSON round-trips) of at least `low`; a bool, a
    float such as 5.0 or a numpy integer raises `error`."""
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= low):
        raise error(f"{what} must be an integer >= {low}, got {value!r}")


def check_lr(lr) -> None:
    """The one learning-rate rule: a finite int or float > 0, not a bool."""
    if isinstance(lr, bool) or not isinstance(lr, (int, float)) or not 0 < lr < math.inf:
        raise InvalidConfig(f"lr must be a finite number > 0, got {lr!r}")


def seeded_generator(what: str, seed, error: type[CircuitForgeError]) -> np.random.Generator:
    """The counter-based (Philox) generator keyed by `seed`, a Python int in
    [0, 2**64): the one rule for every seed.  Anything else raises `error`
    here rather than a bare ValueError inside Philox."""
    check_int(what, seed, 0, error)
    if seed >= 2 ** 64:
        raise error(f"{what} must be below 2**64, got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


class MissingInput(CircuitForgeError, FileNotFoundError):
    """A caller-given input file that does not exist; names the path."""


class UnreadableInput(CircuitForgeError, OSError):
    """A caller-given input file that exists but cannot be read; names the path."""


@contextmanager
def open_input(path) -> Iterator[BinaryIO]:
    """A caller-given input file opened for binary reading; a file that is
    missing, or that cannot be opened or read in the block, raises
    MissingInput / UnreadableInput naming the path."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except CircuitForgeError:  # raised in the block, naming its path already
        raise
    except FileNotFoundError:
        raise MissingInput(f"{path}: no such file") from None
    except OSError as exc:
        raise UnreadableInput(f"{path}: {exc.strerror or exc}") from None


def read_input(path) -> bytes:
    """The bytes of a caller-given input file, or MissingInput / UnreadableInput."""
    with open_input(path) as fh:
        return fh.read()


def read_text(path) -> str:
    """The text of a caller-given UTF-8 input file; a byte that is not UTF-8
    raises MalformedRow naming path:line."""
    data = read_input(path)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRow(path, data.count(b"\n", 0, exc.start) + 1,
                           f"not UTF-8: byte {data[exc.start]:#04x}") from None


# --- connectome loading / aggregation ---

class MalformedRow(CircuitForgeError):
    def __init__(self, path, line_no, reason):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


class NegativeCount(MalformedRow):
    pass


class SelfLoopRejected(MalformedRow):
    pass


class AsymmetricElectrical(CircuitForgeError):
    pass


class UnknownRole(CircuitForgeError):
    pass


class UnknownNeuron(CircuitForgeError):
    pass


class UnmappedNeuron(CircuitForgeError):
    pass


class MixedRoleGroup(CircuitForgeError):
    """Aggregation group whose raw members disagree on role."""


# --- correlation-index analysis ---

class NonFiniteValue(CircuitForgeError):
    pass


class MissingFoldChange(CircuitForgeError):
    pass


class EmptyTable(CircuitForgeError):
    pass


class KExceedsPopulation(CircuitForgeError):
    pass


# --- circuit extraction ---

class RoleMismatch(CircuitForgeError):
    pass


class DegenerateCircuit(CircuitForgeError):
    pass


class InvalidCircuit(CircuitForgeError):
    """A circuit violating a structural invariant (role-legal edges, no
    isolated nodes, positive weights)."""


# --- architecture synthesis ---

class EmptyCircuit(CircuitForgeError):
    pass


class ShapeInferenceFailure(CircuitForgeError):
    pass


class CycleDetected(CircuitForgeError):
    pass


class UnreachableBlock(CircuitForgeError):
    pass


class ShapeMismatchAtMerge(CircuitForgeError):
    pass


class ConstraintUnsatisfiable(CircuitForgeError):
    pass


class InvalidArchitecture(CircuitForgeError):
    """Structural violation other than the dedicated classes above
    (duplicate ids, missing stem/head, bad wire fan-in, block params or
    spec fields that are missing, out of range or of the wrong type)."""


# --- engine ---

class ShapeMismatch(CircuitForgeError):
    pass


class LabelOutOfRange(CircuitForgeError):
    pass


class StaleActivation(CircuitForgeError):
    pass


class NonFiniteActivation(CircuitForgeError):
    """NaN/Inf appeared in an activation or gradient; names the block."""


# --- dataset io ---

class BadMagic(CircuitForgeError):
    pass


class CorruptGzip(CircuitForgeError):
    """A gzipped input that is truncated, corrupt or has a bad header; names the path."""


class InvalidDataset(CircuitForgeError):
    """Images that are not uint8 (n, channels, h, w), so that no scaled
    float array can reach `batches` and be divided by 255 a second time,
    or labels that are not a 1-D integer array, which could not index the
    loss's probabilities."""


class TruncatedFile(CircuitForgeError):
    def __init__(self, path, needed, got):
        super().__init__(f"{path}: truncated at byte {got}, need {needed}")
        self.path = path
        self.needed = needed
        self.got = got


class CountMismatch(CircuitForgeError):
    pass


class BadRecordLength(CircuitForgeError):
    pass


class MissingBatchFile(CircuitForgeError):
    pass


class InsufficientExamples(CircuitForgeError):
    pass


class EmptyDataset(CircuitForgeError):
    pass


# --- benchmarking ---

class EmptyVector(CircuitForgeError):
    pass


class InvalidReport(CircuitForgeError):
    """A report.json that does not read as a MetricsReport; names the file."""
