"""Exception types shared across the toolkit: one class per distinct handling.

``qcoproc.cli.main`` exits with each class's code (its ``EXIT_CODES`` table, 1
for the rest):

* ``QcoprocError`` (exit 1): any other error, e.g. a gate a compiler pass
  cannot handle, or a non-Hermitian Hamiltonian;
* ``ParseError`` (exit 2): text that does not conform to its grammar; in
  program text it names its line, as a ``ValidationError`` there does;
* ``ValidationError`` (exit 3): a program, configuration or argument that
  violates a rule; :func:`check_range` is the one bound rule of every
  integer setting;
* ``NonUnitarySlot`` (exit 1): a unitary was asked of measure/reset, which
  ``qcoproc compile`` catches to skip its equivalence check;
* ``CapacityExceeded`` (exit 4): the codeword table is too small;
* ``GoldenMismatch`` (exit 5): results disagree with a golden record.
"""


class QcoprocError(Exception):
    """Base class for all toolkit errors."""


class ParseError(QcoprocError):
    """Text does not conform to its grammar; ``isa.parse_slots`` puts the
    ``line N: `` of assembly text in front of the message."""


class ValidationError(QcoprocError):
    """A program or configuration violates a structural invariant."""


def check_range(name: str, value, lo: int, hi: int | None = None) -> None:
    """The bound rule of an integer setting: ``lo <= value``, and ``value <= hi`` given ``hi``."""
    if not (lo <= value and (hi is None or value <= hi)):  # written so that NaN fails
        bound = f"be >= {lo}" if hi is None else f"lie in {lo}..{hi}"
        raise ValidationError(f"{name} must {bound}, got {value}")


class NonUnitarySlot(QcoprocError):
    """A unitary was requested for a slot containing measure/reset."""


class CapacityExceeded(QcoprocError):
    """A program needs more distinct rotations than the codeword table holds."""


class GoldenMismatch(QcoprocError):
    """Experiment results disagree with a golden record."""
