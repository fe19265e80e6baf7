"""Exception types shared across the toolkit: one class per distinct handling.

Each class's ``exit_code`` is what ``qcoproc.cli.main`` returns for it; a
subclass that declares none exits as its base does:

* ``QcoprocError``: any other error, e.g. a gate a compiler pass cannot
  handle, or a non-Hermitian Hamiltonian;
* ``ParseError``: text that does not conform to its grammar, a command line
  included; in program text it names its line, as a ``ValidationError``
  there does;
* ``ValidationError``: a program, configuration or argument that violates a
  rule; :func:`check_range` is the one bound rule of every integer setting;
* ``NonUnitarySlot``: a unitary was asked of measure/reset, which
  ``qcoproc compile`` catches to skip its equivalence check;
* ``CapacityExceeded``: the codeword table is too small;
* ``GoldenMismatch``: results disagree with a golden record.
"""


class QcoprocError(Exception):
    """Base class for all toolkit errors."""
    exit_code = 1


class ParseError(QcoprocError):
    """Text does not conform to its grammar; ``isa.parse_slots`` puts the
    ``line N: `` of assembly text in front of the message."""
    exit_code = 2


class ValidationError(QcoprocError):
    """A program or configuration violates a structural invariant."""
    exit_code = 3


def check_range(name: str, value, lo: int, hi: int | None = None) -> None:
    """The bound rule of an integer setting: ``lo <= value``, and ``value <= hi`` given ``hi``."""
    if not (lo <= value and (hi is None or value <= hi)):  # written so that NaN fails
        bound = f"be >= {lo}" if hi is None else f"lie in {lo}..{hi}"
        raise ValidationError(f"{name} must {bound}, got {value}")


class NonUnitarySlot(QcoprocError):
    """A unitary was requested for a slot containing measure/reset."""


class CapacityExceeded(QcoprocError):
    """A program needs more distinct rotations than the codeword table holds."""
    exit_code = 4


class GoldenMismatch(QcoprocError):
    """Experiment results disagree with a golden record."""
    exit_code = 5
