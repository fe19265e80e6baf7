"""Exception types shared across the toolkit.

The CLI maps these onto distinct process exit codes; see ``qcoproc.cli``.
"""


class QcoprocError(Exception):
    """Base class for all toolkit errors."""


class ParseError(QcoprocError):
    """Assembly text does not conform to the grammar."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(QcoprocError):
    """A program or configuration violates a structural invariant."""


class NonUnitarySlot(QcoprocError):
    """A unitary was requested for a slot containing measure/reset."""


class SameQubit(ValidationError):
    """A two-qubit gate was given identical operands."""


class UnsupportedGate(QcoprocError):
    """A compiler pass met a gate outside its recognized vocabulary."""


class DimensionMismatch(QcoprocError):
    """Two matrices of different dimensions were compared."""


class CapacityExceeded(QcoprocError):
    """A program needs more distinct rotations than the codeword table holds."""


class InvalidProgram(ValidationError):
    """A backend was given a program it cannot execute."""


class InvalidNoise(ValidationError):
    """Noise parameters are unphysical (e.g. T2 > 2*T1)."""


class NotHermitian(QcoprocError):
    """A Hermitian matrix was expected."""


class NotNormalized(QcoprocError):
    """A normalized state vector was expected."""


class StepOutOfRange(ValidationError):
    """Trotter step index outside 0..n_steps."""


class OutOfRange(QcoprocError):
    """A probability argument fell outside [0, 1]."""


class GoldenMismatch(QcoprocError):
    """Experiment results disagree with a golden record."""


class GoldenConfigError(ValidationError):
    """A golden record was produced under a different configuration."""
