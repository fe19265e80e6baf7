"""Lowering of source-level gates to the native {Rxy, cZ} set.

Source vocabulary: Rx, Ry, Rz, cNOT, cRx plus everything native.  Operand
conventions (pinned by requiring the lowered evolution interval to approximate
exp(-iHt), see tests):

* ``CNOT(target, control)`` — the first operand receives the rotations of the
  decomposition; ``cnot q1, q0`` flips q1 when q0 is set.
* ``CRx(angle, rotated, conditioning)`` — Rx(angle) on ``rotated`` when
  ``conditioning`` is set.

Passes:

* ``frame_rotate_z_to_y`` — re-express a program whose z-dependence is limited
  to Rz gates, z-basis preparation and z-basis measurement in the frame where
  z becomes y.  Every gate is conjugated exactly by Rx(-pi/2) on each qubit
  (Rz -> Ry, Ry -> Rz(-angle), compensating Rx(+-pi/2) around the z-dependent
  operands of cNOT/cRx/cZ), with basis-change rotations inserted after the
  leading resets and before the trailing measurements, so measured
  probabilities are preserved exactly.
* ``lower`` — decompose to native instructions.
* ``schedule`` — greedy adjacent merge of single-qubit gates on disjoint qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import isa
from .errors import ParseError, QcoprocError, ValidationError
from .isa import CZ, Measure, QuantumProgram, Reset, RotationKey, Rxy, TimeSlot

HALF_PI = math.pi / 2


# --- source-level gates --------------------------------------------------------


@dataclass(frozen=True)
class AxisRotation(isa.OneQubit):
    """Rotation by ``angle`` radians about the axis its subclass names; the
    mnemonic is the subclass name in lower case."""

    angle: float


class Rx(AxisRotation):
    pass


class Ry(AxisRotation):
    pass


class Rz(AxisRotation):
    pass


@dataclass(frozen=True)
class CNOT(isa.TwoQubit):
    target: int
    control: int

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.target, self.control)


@dataclass(frozen=True)
class CRx(isa.TwoQubit):
    angle: float
    rotated: int
    conditioning: int

    @property
    def qubits(self) -> tuple[int, ...]:
        return (self.rotated, self.conditioning)


SOURCE_KINDS = (Rx, Ry, Rz, CNOT, CRx) + isa.NATIVE_KINDS


@dataclass(frozen=True)
class SourceProgram:
    """Like :class:`~qcoproc.isa.QuantumProgram` but over source gates.  Not a
    subclass of it: the backends, paging and the native emitter accept only
    native programs."""

    n_qubits: int
    slots: tuple

    def __post_init__(self):
        isa.check_program(self, SOURCE_KINDS, "unknown source gate")

    instructions = QuantumProgram.instructions


@dataclass(frozen=True)
class EquivalenceReport:
    phase_invariant_distance: float
    equivalent: bool
    tolerance: float


# --- decompositions (each list is in execution order) ----------------------------


def decompose_cnot(target: int, control: int) -> list:
    """cNOT = Ry(-pi/2)_t . cZ . Ry(pi/2)_t, with Ry written as Rxy(pi/2, .)."""
    return [
        Rxy(target, RotationKey.make(HALF_PI, -HALF_PI)),
        CZ(target, control),
        Rxy(target, RotationKey.make(HALF_PI, HALF_PI)),
    ]


def decompose_crx(alpha: float, rotated: int, conditioning: int) -> list:
    """cRx(a) = cZ . Rx(-a/2) . cZ . Rx(a/2), rotations on the rotated qubit."""
    return [
        CZ(rotated, conditioning),
        Rxy(rotated, RotationKey.make(0.0, -alpha / 2)),
        CZ(rotated, conditioning),
        Rxy(rotated, RotationKey.make(0.0, alpha / 2)),
    ]


def decompose_rz(beta: float, qubit: int) -> list:
    """Rz(b) = Rxy(pi/2, pi) then Rxy(b/2 - pi/2, pi), exact including phase."""
    return [
        Rxy(qubit, RotationKey.make(HALF_PI, math.pi)),
        Rxy(qubit, RotationKey.make(beta / 2 - HALF_PI, math.pi)),
    ]


def _lower_gate(gate) -> list:
    if isinstance(gate, isa.NATIVE_KINDS):
        return [gate]
    if isinstance(gate, Rx):
        return [Rxy(gate.qubit, RotationKey.make(0.0, gate.angle))]
    if isinstance(gate, Ry):
        return [Rxy(gate.qubit, RotationKey.make(HALF_PI, gate.angle))]
    if isinstance(gate, Rz):
        return decompose_rz(gate.angle, gate.qubit)
    if isinstance(gate, CNOT):
        return decompose_cnot(gate.target, gate.control)
    if isinstance(gate, CRx):
        return decompose_crx(gate.angle, gate.rotated, gate.conditioning)
    raise QcoprocError(f"cannot lower {gate!r}")


def _map_slots(slots, gate_map) -> list[TimeSlot]:
    """Replace every gate by ``gate_map(gate)``, a list in execution order.

    A slot is kept intact when every gate maps to one gate; otherwise it is
    serialized gate by gate (disjoint qubits commute, so the circuit unitary
    is unchanged).  Each distinct slot object (see
    :func:`~qcoproc.isa.distinct_slots`) is mapped once and a repeated one
    reuses its output slots.  Programs repeat their slot objects wherever
    they come from: :func:`~qcoproc.isa.parse_slots` returns one object per
    distinct line, the circuit builders of :mod:`qcoproc.workload` repeat
    one interval's slots, and this function and :func:`schedule` reuse
    their output for a repeated input.
    """
    def map_slot(s: TimeSlot) -> list[TimeSlot]:
        seqs = [gate_map(g) for g in s.instructions]
        if all(len(seq) == 1 for seq in seqs):
            return [TimeSlot(tuple(seq[0] for seq in seqs))]
        return [TimeSlot((g,)) for seq in seqs for g in seq]

    mapped = {id(s): map_slot(s) for s in isa.distinct_slots(slots)}
    return [new for s in slots for new in mapped[id(s)]]


def lower(source: SourceProgram | QuantumProgram) -> QuantumProgram:
    """Replace every source gate by its native decomposition (see :func:`_map_slots`)."""
    return QuantumProgram(n_qubits=source.n_qubits,
                          slots=tuple(_map_slots(source.slots, _lower_gate)))


# --- frame rotation --------------------------------------------------------------


def _conjugate_gate(gate) -> list:
    """Exact image of a gate under conjugation by Rx(-pi/2) on every qubit."""
    if isinstance(gate, Rz):
        return [Ry(gate.qubit, gate.angle)]
    if isinstance(gate, Ry):
        return [Rz(gate.qubit, -gate.angle)]
    if isinstance(gate, Rx):
        return [gate]
    if isinstance(gate, Rxy):
        if gate.key.gamma_over_pi == 0.0 or gate.key.phi_over_pi in (0.0, 1.0):
            return [gate]  # x-axis rotations are invariant
        if gate.key.phi_over_pi == 0.5:
            return [Rz(gate.qubit, -gate.key.gamma)]
        if gate.key.phi_over_pi == 1.5:
            return [Rz(gate.qubit, gate.key.gamma)]
        raise QcoprocError(f"cannot frame-rotate general {gate!r}")
    if isinstance(gate, CNOT):
        return [Rx(gate.control, HALF_PI), gate, Rx(gate.control, -HALF_PI)]
    if isinstance(gate, CRx):
        return [Rx(gate.conditioning, HALF_PI), gate, Rx(gate.conditioning, -HALF_PI)]
    if isinstance(gate, CZ):
        sandwich_in = [Rx(gate.qa, HALF_PI), Rx(gate.qb, HALF_PI)]
        sandwich_out = [Rx(gate.qa, -HALF_PI), Rx(gate.qb, -HALF_PI)]
        return sandwich_in + [gate] + sandwich_out
    raise QcoprocError(f"cannot frame-rotate {gate!r}")


def frame_rotate_z_to_y(source: SourceProgram | QuantumProgram) -> SourceProgram:
    """Rotate the single-qubit basis so that z becomes y.

    Requires the shape of the evolution workload: any resets first, then
    unitary gates, then measurements.  Measured probabilities are unchanged;
    Rz disorder gates become single-pulse Ry gates.
    """
    phase = "resets"
    head: list[TimeSlot] = []
    body: list[TimeSlot] = []
    tail: list[TimeSlot] = []
    for s in source.slots:
        kinds = {type(i) for i in s.instructions}
        if not kinds:  # an empty slot stays in the phase where it stands
            {"resets": head, "body": body, "measures": tail}[phase].append(s)
        elif kinds <= {Reset}:
            if phase != "resets":
                raise QcoprocError("reset after the program prologue")
            head.append(s)
        elif kinds <= {Measure}:
            phase = "measures"
            tail.append(s)
        elif Measure in kinds or Reset in kinds:
            raise QcoprocError("slot mixes measurement/reset with gates")
        else:
            if phase == "measures":
                raise QcoprocError("gate after measurement")
            phase = "body"
            body.append(s)

    rotated = _map_slots(body, _conjugate_gate)
    qs = range(source.n_qubits)
    enter = TimeSlot(tuple(Rx(q, -HALF_PI) for q in qs))
    leave = TimeSlot(tuple(Rx(q, HALF_PI) for q in qs))
    slots = tuple(head) + (enter,) + tuple(rotated) + (leave,) + tuple(tail)
    return SourceProgram(n_qubits=source.n_qubits, slots=slots)


# --- scheduling -------------------------------------------------------------------


def schedule(program: QuantumProgram) -> QuantumProgram:
    """Merge adjacent single-qubit rotations on disjoint qubits into one slot.

    Instructions on the same qubit are never reordered, and nothing moves
    across a two-qubit gate, measure, or reset touching its qubit (merging is
    restricted to slots made purely of Rxy instructions).  A repeated run of
    the same instruction objects reuses the slot its first occurrence made,
    keyed by identity for the reason :func:`~qcoproc.isa.distinct_slots`
    gives; the input program keeps the instructions, and so their ids, alive.
    """
    out: list[list] = []
    open_qubits: set[int] | None = None  # qubits of out[-1] while it is all Rxy
    for s in program.slots:
        for instr in s.instructions:
            if not isinstance(instr, Rxy):
                out.append([instr])
                open_qubits = None
            elif open_qubits is not None and instr.qubit not in open_qubits:
                out[-1].append(instr)
                open_qubits.add(instr.qubit)
            else:
                out.append([instr])
                open_qubits = {instr.qubit}
    made: dict[tuple, TimeSlot] = {}
    slots = []
    for group in out:
        key = tuple(map(id, group))
        s = made.get(key)
        if s is None:
            s = made[key] = TimeSlot(tuple(group))
        slots.append(s)
    return QuantumProgram(n_qubits=program.n_qubits, slots=tuple(slots))


# --- equivalence ------------------------------------------------------------------

def equivalence_check(U: np.ndarray, V: np.ndarray, tol: float = 1e-10) -> EquivalenceReport:
    """Phase-invariant distance ||e^{i theta} U - V||_F / sqrt(2d), at most 1.

    e^{i theta} = tr(U+V)/|tr(U+V)| (1 for a zero trace).  For unitaries this is
    sqrt(1 - |tr(U+V)|/d) without its cancellation, so it resolves to ~1e-15."""
    if U.shape != V.shape or U.shape[0] != U.shape[1]:
        raise QcoprocError(f"cannot compare shapes {U.shape} and {V.shape}")
    d = U.shape[0]
    overlap = np.trace(U.conj().T @ V)
    phase = overlap / abs(overlap) if overlap else 1.0
    dist = min(float(np.linalg.norm(phase * U - V)) / math.sqrt(2 * d), 1.0)
    return EquivalenceReport(phase_invariant_distance=dist,
                             equivalent=dist < tol, tolerance=tol)


def source_program_unitary(program: SourceProgram | QuantumProgram) -> np.ndarray:
    """Whole-circuit unitary of the lowered program; raises NonUnitarySlot on
    measure/reset."""
    return isa.program_segment_unitary(lower(program))


# --- pass pipeline and extended assembly -------------------------------------------

PASSES = ("frame-rotate", "lower", "schedule")


def run_passes(program, passes) -> SourceProgram | QuantumProgram:
    """Apply named passes in order; see :data:`PASSES`."""
    for name in passes:
        if name == "frame-rotate":
            program = frame_rotate_z_to_y(program)
        elif name == "lower":
            program = lower(program)
        elif name == "schedule":
            if not isinstance(program, QuantumProgram):
                if any(not isinstance(g, isa.NATIVE_KINDS) for g in program.instructions()):
                    raise QcoprocError("schedule requires a native program; run lower first")
                program = QuantumProgram(program.n_qubits, program.slots)
            program = schedule(program)
        else:
            raise ValidationError(f"unknown pass {name!r} (expected one of {PASSES})")
    return program


def _parse_source_statement(mnemonic: str, operands: str):
    ops = operands.split(",")
    qubit, angle = isa._parse_qubit, isa._parse_angle

    if mnemonic in ("rx", "ry", "rz"):
        if len(ops) != 2:
            raise ParseError(f"{mnemonic} takes qubit, angle")
        cls = {"rx": Rx, "ry": Ry, "rz": Rz}[mnemonic]
        return cls(qubit(ops[0]), angle(ops[1]) * math.pi)
    if mnemonic == "cnot":
        if len(ops) != 2:
            raise ParseError("cnot takes target, control")
        return CNOT(qubit(ops[0]), qubit(ops[1]))
    if mnemonic == "crx":
        if len(ops) != 3:
            raise ParseError("crx takes rotated, conditioning, angle")
        return CRx(angle(ops[2]) * math.pi, qubit(ops[0]), qubit(ops[1]))
    return isa._parse_statement(mnemonic, operands)


def parse_source_program(text: str) -> SourceProgram:
    """Parse the extended grammar (adds rx/ry/rz/cnot/crx to the native one)."""
    n_qubits, slots = isa.parse_slots(text, statement_parser=_parse_source_statement)
    return SourceProgram(n_qubits=n_qubits, slots=slots)


def emit_source_statement(gate) -> str:
    if isinstance(gate, AxisRotation):
        return (f"{type(gate).__name__.lower()} q{gate.qubit}, "
                f"{isa._format_angle(round(gate.angle / math.pi, 12))}")
    if isinstance(gate, CNOT):
        return f"cnot q{gate.target}, q{gate.control}"
    if isinstance(gate, CRx):
        return (f"crx q{gate.rotated}, q{gate.conditioning}, "
                f"{isa._format_angle(round(gate.angle / math.pi, 12))}")
    return isa.emit_statement(gate)


def emit_source_program(program: SourceProgram | QuantumProgram) -> str:
    return isa.emit_program(program, statement_emitter=emit_source_statement)
