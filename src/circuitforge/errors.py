"""Exception types raised across the pipeline.

Every error the library raises deliberately derives from CircuitForgeError,
so callers can catch one base class at CLI boundaries.  Loader errors carry
enough context (line numbers, byte offsets) to point at the offending input.
"""


class CircuitForgeError(Exception):
    pass


class InvalidConfig(CircuitForgeError, ValueError):
    """A flag or config value out of range or of the wrong type, refused
    before anything is written."""


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


class CheckpointError(CircuitForgeError):
    pass


# --- dataset io ---

class BadMagic(CircuitForgeError):
    pass


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
