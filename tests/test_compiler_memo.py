"""The compile round trip builds, parses, checks, maps, schedules and emits
each distinct line and slot once.

``build_source_circuit`` repeats one interval's slot objects, ``parse_slots``
reuses the slot a repeated raw line parsed to, ``check_program`` checks each
distinct slot object once, ``lower`` and ``frame_rotate_z_to_y`` reuse the
output of a repeated slot object, ``schedule`` reuses the slot of a repeated
run of instruction objects, and ``emit_program`` formats each distinct slot
object once.  The references below do the same work one gate and one slot at
a time with nothing reused; the memoized code must equal them, print the same
bytes and raise the same errors.  Programs are drawn from small pools of slot
objects and lines, so slots and lines repeat, and the pools hold equal slots
that print differently (angles 0.0 and -0.0), which a memo keyed by equality
would print alike.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoproc import compiler, isa, workload
from qcoproc.compiler import (CNOT, PASSES, CRx, Rx, Ry, Rz, SourceProgram,
                              emit_source_program, emit_source_statement,
                              frame_rotate_z_to_y, lower, parse_source_program,
                              run_passes, schedule)
from qcoproc.errors import ParseError, QcoprocError, ValidationError
from qcoproc.isa import (CZ, Measure, QuantumProgram, Reset, RotationKey, Rxy,
                         TimeSlot, emit_program, emit_statement, parse_program, slot)

PI = math.pi


# --- references: the passes with nothing reused -----------------------------------


def reference_lower(source) -> QuantumProgram:
    out_slots = []
    for s in source.slots:
        lowered = [compiler._lower_gate(g) for g in s.instructions]
        if all(len(seq) == 1 for seq in lowered):
            out_slots.append(TimeSlot(tuple(seq[0] for seq in lowered)))
        else:
            for seq in lowered:
                out_slots.extend(TimeSlot((instr,)) for instr in seq)
    return QuantumProgram(n_qubits=source.n_qubits, slots=tuple(out_slots))


def reference_frame_rotate(source: SourceProgram) -> SourceProgram:
    phase = "resets"
    head, body, tail = [], [], []
    for s in source.slots:
        kinds = {type(i) for i in s.instructions}
        if kinds <= {Reset}:
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
    rotated = []
    for s in body:
        conj = [compiler._conjugate_gate(g) for g in s.instructions]
        if all(len(seq) == 1 for seq in conj):
            rotated.append(TimeSlot(tuple(seq[0] for seq in conj)))
        else:
            for seq in conj:
                rotated.extend(TimeSlot((g,)) for g in seq)
    qs = range(source.n_qubits)
    enter = TimeSlot(tuple(Rx(q, -PI / 2) for q in qs))
    leave = TimeSlot(tuple(Rx(q, PI / 2) for q in qs))
    slots = tuple(head) + (enter,) + tuple(rotated) + (leave,) + tuple(tail)
    return SourceProgram(n_qubits=source.n_qubits, slots=slots)


def reference_schedule(program: QuantumProgram) -> QuantumProgram:
    out = []
    for s in program.slots:
        for instr in s.instructions:
            if (isinstance(instr, Rxy) and out
                    and all(isinstance(prev, Rxy) for prev in out[-1])
                    and all(instr.qubit not in prev.qubits for prev in out[-1])):
                out[-1].append(instr)
            else:
                out.append([instr])
    return QuantumProgram(n_qubits=program.n_qubits,
                          slots=tuple(TimeSlot(tuple(group)) for group in out))


def reference_passes(program) -> QuantumProgram:
    return reference_schedule(reference_lower(reference_frame_rotate(program)))


def reference_emit(program, statement_emitter) -> str:
    lines = []
    for s in program.slots:
        if len(s.instructions) == 1:
            lines.append(statement_emitter(s.instructions[0]))
        else:
            lines.append("{ " + " | ".join(statement_emitter(i) for i in s.instructions) + " }")
    return "\n".join(lines) + "\n"


def reference_check(slots, n_qubits: int, kinds: tuple, foreign: str) -> str | None:
    """The message of the first invalid instruction, or None."""
    for s in slots:
        for instr in s.instructions:
            if not isinstance(instr, kinds):
                return f"{foreign} {instr!r}"
            for q in instr.qubits:
                if not 0 <= q < n_qubits:
                    return f"qubit q{q} out of range for {n_qubits}-qubit program"
    return None


def reference_build_source_circuit(r, k: int) -> SourceProgram:
    """The source circuit with a fresh object for every slot and gate."""
    w, tau = r.w, r.tau
    slots = [slot(Reset(0)), slot(Reset(1)), slot(Rx(0, PI))]
    for _ in range(k):
        slots.append(slot(CNOT(1, 0)))
        slots.append(slot(Rz(0, 2 * w * r.h0y * tau), Rz(1, 2 * tau)))
        slots.append(slot(CRx(4 * tau, 0, 1)))
        slots.append(slot(CNOT(1, 0)))
        slots.append(slot(Rz(1, 2 * w * r.h1y * tau)))
        slots.append(slot(Rx(0, 2 * w * r.h0x * tau), Rx(1, 2 * w * r.h1x * tau)))
    slots.append(slot(Measure(0, "q0mZ"), Measure(1, "q1mZ")))
    return SourceProgram(n_qubits=2, slots=tuple(slots))


# --- pools --------------------------------------------------------------------------

ANGLES = (0.0, -0.0, 0.25 * PI, -0.5 * PI, PI)
KEYS = tuple(RotationKey.from_pi_units(phi, gamma)
             for phi in (0.0, 0.5, 1.5) for gamma in (0.5, -1.0))
SINGLE_GATES = ([cls(q, a) for cls in (Rx, Ry, Rz) for q in (0, 1) for a in ANGLES]
                + [Rxy(q, key) for q in (0, 1) for key in KEYS])
# one slot object per entry: equal entries (0.0 and -0.0) stay distinct objects
BODY_SLOTS = ([slot(g) for g in SINGLE_GATES]
              + [slot(CNOT(1, 0)), slot(CNOT(0, 1)), slot(CRx(0.5 * PI, 0, 1)),
                 slot(CRx(-0.25 * PI, 1, 0)), slot(CZ(0, 1)), slot(CZ(1, 0))]
              + [slot(a, b) for a in SINGLE_GATES[:6] for b in SINGLE_GATES[-6:]
                 if a.qubits != b.qubits])
HEAD_SLOTS = [slot(Reset(0)), slot(Reset(1)), slot(Reset(0), Reset(1))]
TAIL_SLOTS = [slot(Measure(0, "a")), slot(Measure(1, "b")),
              slot(Measure(0, "a"), Measure(1, "b"))]
NATIVE_SLOTS = ([slot(Rxy(q, key)) for q in (0, 1) for key in KEYS]
                + [slot(Rxy(0, KEYS[0]), Rxy(1, KEYS[3])), slot(CZ(0, 1)),
                   slot(Measure(0, "m")), slot(Reset(1))])
SOURCE_LINES = ["rx q0, 0.25", "rx q0, 0.25  # same slot, other text", "ry q1, -0.0",
                "ry q1, 0", "rz q0, 0.0", "rz q0, -0.5", "cnot q1, q0", "cnot q0, q1",
                "crx q0, q1, 0.5", "cz q0, q1", "rxy q1, 0.5, -1", "rxy q0, 1.5, 0.5",
                "{ rx q0, 1 | rz q1, 0.25 }", "{ ry q0, -0.0 | rxy q1, 0, 0.5 }"]


def _width(slots) -> int:
    return 1 + max((q for s in slots for i in s.instructions for q in i.qubits), default=-1)


@st.composite
def source_programs(draw) -> SourceProgram:
    slots = (draw(st.lists(st.sampled_from(HEAD_SLOTS), max_size=2))
             + draw(st.lists(st.sampled_from(BODY_SLOTS), min_size=1, max_size=40))
             + draw(st.lists(st.sampled_from(TAIL_SLOTS), max_size=2)))
    return SourceProgram(n_qubits=_width(slots), slots=tuple(slots))


@st.composite
def native_programs(draw) -> QuantumProgram:
    slots = draw(st.lists(st.sampled_from(NATIVE_SLOTS), min_size=1, max_size=40))
    return QuantumProgram(n_qubits=_width(slots), slots=tuple(slots))


def assert_same_source(got, want):
    assert got == want
    assert emit_source_program(got) == reference_emit(want, emit_source_statement)


def assert_same_native(got, want):
    assert got == want
    assert emit_program(got) == reference_emit(want, emit_statement)


# --- the passes equal their references ---------------------------------------------


@given(source_programs())
@settings(max_examples=150, deadline=None)
def test_each_pass_and_the_chain_equal_the_references(source):
    assert_same_source(frame_rotate_z_to_y(source), reference_frame_rotate(source))
    assert_same_native(lower(source), reference_lower(source))
    lowered = reference_lower(source)
    assert_same_native(schedule(lowered), reference_schedule(lowered))
    assert_same_native(run_passes(source, PASSES), reference_passes(source))


@given(native_programs())
@settings(max_examples=150, deadline=None)
def test_schedule_equals_the_reference_on_native_programs(program):
    assert_same_native(schedule(program), reference_schedule(program))


@given(st.lists(st.sampled_from(SOURCE_LINES), min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_parsed_text_compiles_like_the_references(lines):
    parsed = parse_source_program("\n".join(lines) + "\n")
    # a one-line program repeats nothing, so its slot is parsed afresh
    fresh = tuple(parse_source_program(line).slots[0] for line in lines)
    assert parsed.slots == fresh
    assert emit_source_program(parsed) == emit_source_program(
        SourceProgram(parsed.n_qubits, fresh))
    assert_same_source(frame_rotate_z_to_y(parsed), reference_frame_rotate(parsed))
    assert_same_native(run_passes(parsed, PASSES), reference_passes(parsed))


# --- text round trips ---------------------------------------------------------------


@given(native_programs())
@settings(max_examples=150, deadline=None)
def test_native_round_trip(program):
    assert parse_program(emit_program(program)) == program


@given(source_programs())
@settings(max_examples=150, deadline=None)
def test_source_round_trip(source):
    text = emit_source_program(source)
    again = parse_source_program(text)
    assert again == source
    assert emit_source_program(again) == text


# --- errors name the first offending line ------------------------------------------


@pytest.mark.parametrize("parse", [parse_program, parse_source_program])
def test_bad_statement_repeated_reports_its_first_line(parse):
    lines = ["reset q0", "cz q0, q1", "bogus q0", "reset q0",
             "cz q0, q1", "reset q1", "bogus q0"]
    with pytest.raises(ParseError, match=r"^line 3: unknown mnemonic 'bogus'$"):
        parse("\n".join(lines) + "\n")


@pytest.mark.parametrize("parse", [parse_program, parse_source_program])
def test_repeated_slot_beyond_q7_raises_on_its_first_occurrence(parse):
    wide = f"{{ reset q0 | reset q{isa.MAX_QUBITS} }}"
    text = "\n".join(["reset q0", "reset q1", wide, "reset q0", wide]) + "\n"
    with pytest.raises(ValidationError, match="^line 3: "):
        parse(text)


_FINITE = "expected an angle in units of pi that is finite in radians"

# (bad statement, error class, message without its "line N: ", grammars that
# know the mnemonic); the source grammar knows every native mnemonic
_STATEMENT_ERRORS = [
    ("rxy q0, 0.5", ParseError, "rxy takes qubit, phi, gamma", "native"),
    ("cz q0", ParseError, "cz takes two qubits", "native"),
    ("rx q0", ParseError, "rx takes qubit, angle", "source"),
    ("cnot q0, q1, q2", ParseError, "cnot takes target, control", "source"),
    ("crx q0, q1", ParseError, "crx takes rotated, conditioning, angle", "source"),
    ("measure q0", ParseError, "measure takes q<N> -> <reg>", "native"),
    ("measure q0 -> 1m", ParseError, "invalid register name '1m'", "native"),
    ("reset x1", ParseError, "expected qubit operand, got 'x1'", "native"),
    ("rxy q0, nan, 0.5", ParseError, f"{_FINITE}, got 'nan'", "native"),
    ("ry\tq0,  1e308", ParseError, f"{_FINITE}, got '1e308'", "source"),
    ("bogus q0", ParseError, "unknown mnemonic 'bogus'", "native"),
    ("cz q1, q1", ValidationError, "cz operands must differ, got q1 twice", "native"),
    ("reset q8", ValidationError, "qubit q8 beyond the widest supported program, q0..q7",
     "native"),
]
# whole lines whose error is the slot's, not one statement's
_LINE_ERRORS = [
    ("{ reset q0 | reset q1", ParseError, "parallel slot must close on the same line"),
    ("{ reset q1 | cz q0, q1 }", ValidationError, "qubit q1 appears twice in one slot"),
]


def _line_error_cases():
    for statement, cls, message, grammar in _STATEMENT_ERRORS:
        parsers = [parse_source_program] + ([parse_program] if grammar == "native" else [])
        for line in (statement, f"{{ {statement} | reset q5 }}"):
            for parse in parsers:
                yield pytest.param(parse, line, cls, message, id=f"{parse.__name__}-{line}")
    for line, cls, message in _LINE_ERRORS:
        for parse in (parse_program, parse_source_program):
            yield pytest.param(parse, line, cls, message, id=f"{parse.__name__}-{line}")


@pytest.mark.parametrize("parse, line, cls, message", _line_error_cases())
def test_every_line_error_names_its_line(parse, line, cls, message):
    """Each error one line can raise, in either grammar, bare and inside a
    parallel slot: its own class, and its message after ``line 3: ``."""
    text = f"reset q0\ncz q0, q1\n{line}\nreset q1\n"
    with pytest.raises(cls, match=f"^line 3: {re.escape(message)}$"):
        parse(text)


@pytest.mark.parametrize("parse, line, cls, message", _line_error_cases())
def test_a_line_error_repeated_three_times_names_its_first_line(parse, line, cls, message):
    text = f"reset q0\ncz q0, q1\n{line}\nreset q1\n{line}\n{line}\n"
    with pytest.raises(cls, match=f"^line 3: {re.escape(message)}$"):
        parse(text)


# --- the line memo: one parse per distinct raw line -------------------------------

GRAMMARS = [pytest.param(isa._parse_statement, parse_program, emit_program, id="native"),
            pytest.param(compiler._parse_source_statement, parse_source_program,
                         emit_source_program, id="source")]


@pytest.mark.parametrize("grammar, parse, emit", GRAMMARS)
def test_a_repeated_line_is_parsed_once_into_one_slot(grammar, parse, emit):
    calls = []

    def counting(mnemonic, operands):
        calls.append(mnemonic)
        return grammar(mnemonic, operands)

    lines = ["rxy q0, 0.5, -1", "{ cz q0, q1 | }", "rxy q0, 0.5, -1  # a comment",
             "rxy q0, 0.5, -1", "{ cz q0, q1 | }", "rxy q0, 0.5, -1"]
    _, slots = isa.parse_slots("\n".join(lines) + "\n", counting)
    assert calls == ["rxy", "cz", "rxy"]
    assert slots[0] is slots[3] is slots[5] and slots[1] is slots[4]
    assert slots[2] == slots[0] and slots[2] is not slots[0]


@pytest.mark.parametrize("grammar, parse, emit", GRAMMARS)
def test_lines_that_differ_in_whitespace_or_a_comment_parse_alike(grammar, parse, emit):
    for variants in (["rxy q1, 0.5, -1", "  rxy q1, 0.5, -1", "rxy  q1 ,0.5,  -1\t",
                      "rxy q1, 0.5, -1  # note", "rxy q1, 0.5, -1#"],
                     ["{ rxy q0, 0, 0.5 | cz q1, q2 }", "{rxy q0, 0, 0.5|cz q1, q2}",
                      "\t{ rxy q0, 0, 0.5 | | cz q1, q2 }  # both"]):
        program = parse("\n".join(variants) + "\n")
        first = parse(variants[0] + "\n")
        assert program.slots == first.slots * len(variants)
        assert emit(program) == emit(first) * len(variants)


@pytest.mark.parametrize("grammar, parse, emit", GRAMMARS)
def test_repeated_blank_and_comment_lines_add_no_slot(grammar, parse, emit):
    lines = ["", "# c", "   ", "reset q0", "", "# c", "   ", "\t# c", "reset q0", "", "# c"]
    assert parse("\n".join(lines) + "\n").slots == (slot(Reset(0)),) * 2
    with pytest.raises(ParseError, match=r"^line 12: unknown mnemonic 'bogus'$"):
        parse("\n".join(lines + ["bogus q0"]) + "\n")


# --- emit, check and build --------------------------------------------------------


@given(source_programs())
@settings(max_examples=150, deadline=None)
def test_emit_source_program_equals_the_reference(source):
    assert emit_source_program(source) == reference_emit(source, emit_source_statement)


@given(native_programs())
@settings(max_examples=150, deadline=None)
def test_emit_program_equals_the_reference(program):
    assert emit_program(program) == reference_emit(program, emit_statement)


def test_equal_slots_that_print_differently_each_keep_their_line():
    zero, minus_zero = slot(Rx(0, 0.0)), slot(Rx(0, -0.0))
    program = SourceProgram(1, (zero, minus_zero, zero, minus_zero))
    assert emit_source_program(program) == "rx q0, 0.0\nrx q0, -0.0\n" * 2


CHECK_SLOTS = NATIVE_SLOTS + [slot(Rx(0, 0.5)), slot(Rx(1, 0.25), Rxy(0, KEYS[1])),
                              slot(isa.OneQubit(1)), slot(Rxy(2, KEYS[0])),
                              slot(CZ(0, 3)), slot(Reset(1), Measure(2, "m"))]


@given(st.lists(st.sampled_from(CHECK_SLOTS), min_size=1, max_size=20))
@settings(max_examples=150, deadline=None)
def test_check_program_raises_what_a_slot_by_slot_check_raises(slots):
    for program_type, kinds, foreign in (
            (QuantumProgram, isa.NATIVE_KINDS, "non-native instruction"),
            (SourceProgram, compiler.SOURCE_KINDS, "unknown source gate")):
        message = reference_check(slots, 2, kinds, foreign)
        if message is None:
            program_type(2, tuple(slots))
        else:
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                program_type(2, tuple(slots))


@pytest.mark.parametrize("bad, message", [
    (slot(Rx(0, 1.0)), "non-native instruction Rx(qubit=0, angle=1.0)"),
    (slot(CZ(0, 2)), "qubit q2 out of range for 2-qubit program"),
])
def test_repeated_invalid_slot_still_raises(bad, message):
    good = slot(CZ(0, 1))
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        QuantumProgram(2, (good, bad, good, bad))


@pytest.mark.parametrize("w", [0.0, 1.0, 25.0])  # w = 0 makes -0.0 angles
def test_source_circuit_equals_the_fresh_object_reference(w):
    r = workload.sample_disorder(w, workload.DEFAULT_TAU, 10, np.random.default_rng(7))
    for k in (0, 1, r.n_steps):
        got, want = workload.build_source_circuit(r, k), reference_build_source_circuit(r, k)
        assert_same_source(got, want)
        assert_same_native(run_passes(got, PASSES), reference_passes(want))


def test_the_round_trip_repeats_its_slot_objects():
    """At k = 10 the built source has 64 slots and the compiled program 147.
    Recorded on all 120 default realizations, they hold 10 and 20 distinct slot
    objects; a stage that rebuilt every slot would hold one per slot."""
    r = workload.sample_disorder(25.0, workload.DEFAULT_TAU, 10, np.random.default_rng(3))
    source = workload.build_source_circuit(r, 10)
    compiled = run_passes(parse_source_program(emit_source_program(source)), PASSES)
    assert (len(source.slots), len(compiled.slots)) == (64, 147)
    assert len(set(map(id, source.slots))) <= 10
    assert len(set(map(id, compiled.slots))) <= 20
