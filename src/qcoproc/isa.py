"""Native instruction set: Rxy/cZ/measure/reset, program IR, and assembly text format.

Conventions fixed here and shared by every other module:

* Qubit 0 is the least significant bit of a basis-state index, so a gate U on
  qubit 0 of a 2-qubit register embeds as kron(I, U).  ``embed`` and
  ``basis_bit`` are the only code that knows this layout; every other module
  builds its operators and reads its qubit bits through them, and multiplies
  operators in execution order with ``ordered_product``.  ``embed`` forms each
  Kronecker factor with ``kron``, which broadcasts the same elementwise
  products as ``np.kron`` without its per-call overhead.  All three take
  stacks of matrices on leading axes, which is how ``slot_unitaries`` builds
  the unitaries of many slots of one shape at once.
* A rotation key (phi, gamma) means: rotate by gamma about the axis at azimuth
  phi in the xy plane.  phi is canonical in [0, 2*pi), gamma in (-2*pi, 2*pi]
  (the sign of gamma is kept because it scales the pulse amplitude).  Angles
  are quantized to a 1e-12 grid in units of pi so that equality is transitive
  and keys can be hashed.
* Angles in the text format are decimals in units of pi, e.g. ``rxy q0, 0.5, -0.5``.
* Global phase is never tracked; equivalence elsewhere is phase-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import NonUnitarySlot, ParseError, ValidationError


def _quantize(angle_over_pi: float) -> float:
    """Snap to a 1e-12 grid in units of pi; exact for short decimals like 0.5."""
    q = round(angle_over_pi, 12)
    return 0.0 if q == 0.0 else q  # normalize -0.0


class RotationKey(NamedTuple):
    """Canonicalized (phi, gamma) pair identifying one single-qubit rotation.

    Construct via :meth:`make` (or the radians properties); the stored fields
    are in units of pi.  As a tuple a key hashes and compares in C, orders by
    phi, then gamma (the codeword table's listing order), and ``_asdict()``
    is its JSON object.
    """

    phi_over_pi: float
    gamma_over_pi: float

    @staticmethod
    def make(phi: float, gamma: float) -> "RotationKey":
        """Canonicalize angles given in radians.

        The key depends on the angles' values, not their types: an int, an
        ``np.float64`` or a 0-d array is canonicalized as the equal Python
        float, and the fields are always floats.  Finite angles go through a
        bounded per-process memo, :func:`_canonical_key`; a NaN or an
        infinity raises on every call and is never cached."""
        if not (math.isfinite(phi) and math.isfinite(gamma)):
            raise ValidationError(f"rotation angles must be finite, got ({phi}, {gamma})")
        return _canonical_key(float(phi), float(gamma))

    @staticmethod
    def from_pi_units(phi_over_pi: float, gamma_over_pi: float) -> "RotationKey":
        return RotationKey.make(phi_over_pi * math.pi, gamma_over_pi * math.pi)

    @property
    def phi(self) -> float:
        """Azimuth in radians, in [0, 2*pi)."""
        return self.phi_over_pi * math.pi

    @property
    def gamma(self) -> float:
        """Rotation angle in radians, in (-2*pi, 2*pi]."""
        return self.gamma_over_pi * math.pi

    def __repr__(self) -> str:
        return f"RotationKey({self.phi_over_pi!r}*pi, {self.gamma_over_pi!r}*pi)"


_PHI, _GAMMA = itemgetter(0), itemgetter(1)


def sorted_keys(keys) -> list[RotationKey]:
    """``sorted(keys)``, element for element, as two stable sorts on one float
    each: gamma, then phi.  A key is a tuple subclass, so ``sorted`` compares
    two keys with the generic tuple comparison, where float sort keys take
    ``list.sort``'s float fast path, in about half the time on a paging
    pass's dumping list.  Every sort of rotation keys goes through here."""
    ordered = sorted(keys, key=_GAMMA)
    ordered.sort(key=_PHI)
    return ordered


@lru_cache(maxsize=1024)
def _canonical_key(phi: float, gamma: float) -> RotationKey:
    """The key of finite angles in radians, given as Python floats.

    A pure function of two floats, so ``RotationKey.make`` memoizes it for the
    process; +0.0 and -0.0 hash and compare equal, and both map to 0.0.  A
    compiled k = 10 program repeats 12 distinct keys 36 times, and the sweep
    engine re-makes the interval keys the paging stream made: 1 205 calls for
    486 keys on the default config, which 1024 entries hold."""
    g = _quantize(gamma / math.pi) % 4.0
    if g > 2.0:
        g -= 4.0
    g = _quantize(g)
    if g == 0.0:
        return RotationKey(0.0, 0.0)
    p = _quantize(phi / math.pi) % 2.0
    p = _quantize(p)
    if p == 2.0:
        p = 0.0
    return RotationKey(p, g)


# --- instructions ------------------------------------------------------------


@dataclass(frozen=True)
class OneQubit:
    """The operand of a one-qubit instruction; every one-qubit kind derives
    from it.  Equality stays per kind: the generated ``__eq__`` compares
    classes first."""

    qubit: int

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qubit,)


@dataclass(frozen=True)
class Rxy(OneQubit):
    key: RotationKey


class TwoQubit:
    """The operand rule of a two-qubit instruction: its two ``qubits`` differ.
    Each kind declares its own fields and ``qubits``; the message names the
    kind by its class name in lower case."""

    def __post_init__(self):
        a, b = self.qubits
        if a == b:
            raise ValidationError(f"{type(self).__name__.lower()} operands must differ, "
                                  f"got q{a} twice")


@dataclass(frozen=True)
class CZ(TwoQubit):
    """Symmetric controlled-Z; operand order is preserved for display only."""

    qa: int
    qb: int

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.qa, self.qb)


@dataclass(frozen=True)
class Measure(OneQubit):
    register: str


@dataclass(frozen=True)
class Reset(OneQubit):
    pass


NATIVE_KINDS = (Rxy, CZ, Measure, Reset)


@dataclass(frozen=True)
class TimeSlot:
    """Instructions executed in parallel; a qubit may appear at most once."""

    instructions: tuple

    def __post_init__(self):
        if len(self.instructions) < 2:
            return  # ``TwoQubit`` rejects a qubit repeated within one instruction
        seen: set[int] = set()
        for instr in self.instructions:
            for q in instr.qubits:
                if q in seen:
                    raise ValidationError(f"qubit q{q} appears twice in one slot")
                seen.add(q)

    def is_unitary(self) -> bool:
        return all(isinstance(i, (Rxy, CZ)) for i in self.instructions)


def slot(*instructions) -> TimeSlot:
    return TimeSlot(tuple(instructions))


@dataclass(frozen=True)
class QuantumProgram:
    """A sequence of time slots over native instructions."""

    n_qubits: int
    slots: tuple

    def __post_init__(self):
        check_program(self, NATIVE_KINDS, "non-native instruction")

    def instructions(self):
        for s in self.slots:
            yield from s.instructions


def distinct_slots(slots):
    """Each distinct slot object of ``slots`` once, in order of first occurrence.

    Distinct by identity, not equality: equal slots can still print
    differently (angles 0.0 and -0.0 compare equal).  The ids stay valid
    because ``slots`` holds every object for as long as the result is used.
    """
    return {id(s): s for s in slots}.values()


def check_program(program, kinds: tuple, foreign: str) -> None:
    """The validity rule of both program types: every instruction is one of
    ``kinds`` and acts on qubits 0..n_qubits - 1; a foreign kind's message
    starts with ``foreign``.  Each distinct slot object is checked once, in
    order of first occurrence, so the first offending instruction is the one
    a slot-by-slot check would name."""
    for s in distinct_slots(program.slots):
        for instr in s.instructions:
            if not isinstance(instr, kinds):
                raise ValidationError(f"{foreign} {instr!r}")
            for q in instr.qubits:
                if not 0 <= q < program.n_qubits:
                    raise ValidationError(
                        f"qubit q{q} out of range for {program.n_qubits}-qubit program")


# --- matrix semantics ---------------------------------------------------------


_ONE = np.ones((1, 1), dtype=complex)
_EYE2 = np.eye(2, dtype=complex)
_ONE.setflags(write=False)
_EYE2.setflags(write=False)


def _rxy_entries(key: RotationKey) -> tuple:
    """The row-major entries of ``key``'s 2x2 unitary, as scalars."""
    c = math.cos(key.gamma / 2)
    s = math.sin(key.gamma / 2)
    e = np.exp(1j * key.phi)
    return c, -1j * s / e, -1j * s * e, c


def rxy_matrices(keys) -> np.ndarray:
    """Stack of the 2x2 unitaries of ``keys``, shape (len(keys), 2, 2).  Each
    entry is formed from its key's scalars alone, so a stack's matrix i equals
    ``rxy_matrix(keys[i])`` bit for bit."""
    return np.array([_rxy_entries(key) for key in keys], dtype=complex).reshape(-1, 2, 2)


def rxy_matrix(key: RotationKey) -> np.ndarray:
    """2x2 unitary of a gamma rotation about the xy-plane axis at azimuth phi."""
    return rxy_matrices((key,))[0]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the matrices on the last two axes of ``a`` and
    ``b``, broadcast over any leading axes; of two matrices, bit for bit
    ``np.kron(a, b)``: the same elementwise products, formed in one multiply."""
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (m * p, n * q))


def embed(ops: dict, n_qubits: int) -> np.ndarray:
    """Tensor product of ``{qubit: 2x2 matrix}`` with identity on every other
    qubit; a stack of 2x2 matrices (..., 2, 2) gives a stack of products."""
    out = _ONE
    for q in range(n_qubits - 1, -1, -1):
        out = kron(out, ops.get(q, _EYE2))
    return out


def basis_bit(qubit: int, n_qubits: int) -> np.ndarray:
    """The value (0 or 1) of ``qubit`` in every basis-state index 0..2**n - 1."""
    return (np.arange(1 << n_qubits) >> qubit) & 1


def ordered_product(matrices, dim: int) -> np.ndarray:
    """Product of ``dim`` x ``dim`` matrices; the first one is applied first.

    A matrix may be a stack (n, dim, dim), which makes the product a stack:
    a single matrix among stacks is broadcast over them.  numpy multiplies
    each matrix of a stack on its own, so matrix i of the product equals the
    product of the matrices i alone, bit for bit.
    """
    U = np.eye(dim, dtype=complex)
    for M in matrices:
        U = M @ U
    return U


def _instruction_unitaries(column, n_qubits: int) -> np.ndarray:
    """Unitaries of one kind on the same qubits: a stack for Rxy, one matrix for
    cZ; a measure or reset raises ``NonUnitarySlot``, the one unitarity rule."""
    first = column[0]
    if isinstance(first, Rxy):
        return embed({first.qubit: rxy_matrices([i.key for i in column])}, n_qubits)
    if isinstance(first, CZ):
        both = basis_bit(first.qa, n_qubits) & basis_bit(first.qb, n_qubits)
        return np.diag((1 - 2 * both).astype(complex))
    raise NonUnitarySlot(f"{type(first).__name__} has no unitary")


def slot_unitaries(slots, n_qubits: int) -> np.ndarray:
    """Stack of the unitaries of ``slots``, shape (len(slots), 2**n, 2**n).

    The slots must share a shape, the (kind, qubits) of their instructions in
    order, checked once per slot.  The stack is built one instruction position
    at a time, from the same scalars and products as a slot built alone, so
    matrix i equals ``slot_unitary(slots[i], n_qubits)`` bit for bit.
    """
    shape = [(type(i), i.qubits) for i in slots[0].instructions]
    for s in slots:
        if [(type(i), i.qubits) for i in s.instructions] != shape:
            raise ValidationError(f"slots of one stack differ in shape: {slots[0]} and {s}")
    dim = 1 << n_qubits
    columns = zip(*(s.instructions for s in slots))
    U = ordered_product((_instruction_unitaries(c, n_qubits) for c in columns), dim)
    return np.broadcast_to(U, (len(slots), dim, dim))


@lru_cache(maxsize=16)
def slot_unitary(s: TimeSlot, n_qubits: int) -> np.ndarray:
    """Tensor-product unitary of a slot, identity on untouched qubits; a measure
    or reset raises ``NonUnitarySlot``.  The 16 most recent are cached, read-only."""
    return slot_unitaries((s,), n_qubits)[0]


# perfbench/child.py reads cache_info() under this name
_slot_unitary_cached = slot_unitary


def program_segment_unitary(program: QuantumProgram) -> np.ndarray:
    """Ordered product of slot unitaries; the earliest slot is applied first."""
    return ordered_product((slot_unitary(s, program.n_qubits) for s in program.slots),
                           1 << program.n_qubits)


# --- assembly text format ------------------------------------------------------
#
# One statement per line; '#' starts a comment.  Statements:
#   rxy q<N>, <phi_over_pi>, <gamma_over_pi>
#   cz q<A>, q<B>
#   measure q<N> -> <reg>
#   reset q<N>
#   { stmt | stmt | ... }        parallel slot
# A bare statement occupies its own slot.  Qubit indices run from q0 to
# q<MAX_QUBITS - 1>: the backends and the equivalence check build dense
# 2**n x 2**n operators, 1 MiB each at 8 qubits.  The slot-unitary cache keeps
# only the 16 most recently used, so a long program of distinct slots does not
# hold one each (`qcoproc run` on 300 distinct q7 rotations peaks at 54 MB
# RSS); the sweep engine builds through it only the slots every realization
# shares, 8 distinct ones (the prologue, the epilogue and the 6 distinct
# slots among the interval's 8 tau-only ones), and builds the rest as stacks,
# so its hits are the same at any bound from 8 up.  The noisy backend's decay
# needs only a few arrays the size of rho: a two-slot program on it takes
# 0.06-0.07 s and 37-38 MB peak RSS at 8 qubits, 1.5-1.7 s and 130-133 MB at
# 10 (2 CPUs, Python 3.11, numpy 2.4).

MAX_QUBITS = 8


def _parse_qubit(tok: str) -> int:
    tok = tok.strip()
    if not tok.startswith("q") or not (tok[1:].isascii() and tok[1:].isdigit()):
        raise ParseError(f"expected qubit operand, got {tok!r}")
    return int(tok[1:])


def _parse_angle(tok: str) -> float:
    """An ASCII decimal angle in units of pi whose value in radians is finite:
    1e308 parses as a float but overflows to inf once multiplied by pi, and
    ``float`` also reads digit separators and any Unicode decimal digit."""
    tok = tok.strip()
    try:
        angle = float(tok) if tok.isascii() and "_" not in tok else math.nan
    except ValueError:
        angle = math.nan  # reported below, as inf and nan are
    if not math.isfinite(angle * math.pi):
        raise ParseError(f"expected an angle in units of pi that is finite in radians, got {tok!r}")
    return angle


def _parse_statement(mnemonic: str, operands: str):
    if mnemonic == "rxy":
        ops = operands.split(",")
        if len(ops) != 3:
            raise ParseError("rxy takes qubit, phi, gamma")
        q = _parse_qubit(ops[0])
        key = RotationKey.from_pi_units(_parse_angle(ops[1]), _parse_angle(ops[2]))
        return Rxy(q, key)
    if mnemonic == "cz":
        ops = operands.split(",")
        if len(ops) != 2:
            raise ParseError("cz takes two qubits")
        return CZ(_parse_qubit(ops[0]), _parse_qubit(ops[1]))
    if mnemonic == "measure":
        if "->" not in operands:
            raise ParseError("measure takes q<N> -> <reg>")
        qtok, reg = operands.split("->", 1)
        reg = reg.strip()
        if not reg.isidentifier():
            raise ParseError(f"invalid register name {reg!r}")
        return Measure(_parse_qubit(qtok), reg)
    if mnemonic == "reset":
        return Reset(_parse_qubit(operands))
    raise ParseError(f"unknown mnemonic {mnemonic!r}")


def parse_slots(text: str, statement_parser=_parse_statement) -> tuple[int, tuple]:
    """Parse assembly text into (n_qubits, slots).

    ``statement_parser(mnemonic, operands)`` is an extension hook used by the
    compiler module to accept source-level mnemonics through the same slot
    grammar.  It gets a statement's first word and the rest of its text, and
    must be pure: each distinct raw line is parsed once, and a repeated line
    reuses the slot object its first occurrence parsed to, for one dict lookup.
    Only a line seen for the first time has its comment and whitespace
    stripped; blank and comment-only lines are skipped and never memoized.
    The statement text left after that must be ASCII (a comment may hold any
    text), so a no-break space as a separator or a register named ``é`` is a
    ``ParseError``, raised after the line has parsed.
    Lines end at ``\\n``, ``\\r\\n`` and ``\\r``, the newlines ``open()`` reads,
    so a form feed or U+2028 inside a line does not end it.  This is the one
    place that knows line numbers: a ``ParseError`` or ``ValidationError``
    raised for a line is re-raised in its class with ``line N: `` in front of
    its message.
    """
    slots: list[TimeSlot] = []
    parsed: dict[str, TimeSlot] = {}
    max_q = -1
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        s = parsed.get(raw)
        if s is None:
            stripped = raw.split("#", 1)[0].strip()
            if not stripped:
                continue
            try:
                s = _parse_line(stripped, statement_parser)
                if not stripped.isascii():  # checked after the parse, so its messages come first
                    bad = next(c for c in stripped if not c.isascii())
                    raise ParseError(f"statement text must be ASCII, got U+{ord(bad):04X}")
                for instr in s.instructions:
                    max_q = max(max_q, *instr.qubits)
                if max_q >= MAX_QUBITS:
                    raise ValidationError(f"qubit q{max_q} beyond the widest supported "
                                          f"program, q0..q{MAX_QUBITS - 1}")
            except ParseError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            except ValidationError as exc:  # a rule of the line's instructions or slot
                raise ValidationError(f"line {lineno}: {exc}") from exc
            parsed[raw] = s
        slots.append(s)
    return (max_q + 1 if max_q >= 0 else 0), tuple(slots)


def _parse_line(stripped: str, statement_parser) -> TimeSlot:
    """The slot of one non-empty, comment-free line: a statement or ``{ ... }``."""
    if not stripped.startswith("{"):
        stmts = [stripped]
    elif stripped.endswith("}"):
        stmts = [p for p in map(str.strip, stripped[1:-1].split("|")) if p]
    else:
        raise ParseError("parallel slot must close on the same line")
    return TimeSlot(tuple(statement_parser(*_split_statement(s)) for s in stmts))


def _split_statement(stmt: str) -> tuple[str, str]:
    """(mnemonic, operand text) of a non-empty statement."""
    mnemonic, *operands = stmt.split(None, 1)
    return mnemonic, "".join(operands)


def parse_program(text: str) -> QuantumProgram:
    """Parse native assembly text into a program."""
    n_qubits, slots = parse_slots(text)
    return QuantumProgram(n_qubits=n_qubits, slots=slots)


def _format_angle(angle_over_pi: float) -> str:
    return repr(float(angle_over_pi))


def emit_statement(instr) -> str:
    if isinstance(instr, Rxy):
        return (f"rxy q{instr.qubit}, {_format_angle(instr.key.phi_over_pi)}, "
                f"{_format_angle(instr.key.gamma_over_pi)}")
    if isinstance(instr, CZ):
        return f"cz q{instr.qa}, q{instr.qb}"
    if isinstance(instr, Measure):
        return f"measure q{instr.qubit} -> {instr.register}"
    if isinstance(instr, Reset):
        return f"reset q{instr.qubit}"
    raise ValidationError(f"cannot emit {instr!r}")


def _emit_line(s: TimeSlot, statement_emitter) -> str:
    if len(s.instructions) == 1:
        return statement_emitter(s.instructions[0])
    return "{ " + " | ".join(statement_emitter(i) for i in s.instructions) + " }"


def emit_program(program: QuantumProgram, statement_emitter=emit_statement) -> str:
    """Render a program as assembly text; inverse of :func:`parse_program`.

    Each distinct slot object (see :func:`distinct_slots`) is formatted once
    and a repeated one reuses its line."""
    lines = {id(s): _emit_line(s, statement_emitter) for s in distinct_slots(program.slots)}
    return "\n".join([lines[id(s)] for s in program.slots]) + "\n"
