"""Compiler passes: decompositions, frame rotation, lowering, scheduling.

Every decomposition is checked against an independently constructed target
matrix (the oracle), never against its own output.
"""

import math

import numpy as np
import pytest

from qcoproc import compiler, isa, simulator, workload
from qcoproc.compiler import (CNOT, CRx, Rx, Ry, Rz,
                              SourceProgram, decompose_cnot, decompose_crx,
                              decompose_rz, equivalence_check, frame_rotate_z_to_y,
                              lower, parse_source_program, run_passes, schedule,
                              source_program_unitary)
from qcoproc.errors import NonUnitarySlot, QcoprocError, ValidationError
from qcoproc.isa import (CZ, Measure, QuantumProgram, Reset, RotationKey, Rxy,
                         parse_program, program_segment_unitary, slot)

PI = math.pi


# --- oracle matrices, written out independently of the implementation ------------


def rx_ref(t):
    return np.array([[np.cos(t / 2), -1j * np.sin(t / 2)],
                     [-1j * np.sin(t / 2), np.cos(t / 2)]])


def rz_ref(t):
    return np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])


def cnot_ref(target: int, control: int) -> np.ndarray:
    """Flip `target` when `control` is set; qubit 0 is the LSB."""
    U = np.zeros((4, 4), dtype=complex)
    for idx in range(4):
        out = idx ^ (1 << target) if (idx >> control) & 1 else idx
        U[out, idx] = 1.0
    return U


def crx_ref(alpha: float, rotated: int, conditioning: int) -> np.ndarray:
    U = np.eye(4, dtype=complex)
    block = rx_ref(alpha)
    rows = [idx for idx in range(4) if (idx >> conditioning) & 1]
    for ri in rows:
        for rj in rows:
            U[ri, rj] = block[(ri >> rotated) & 1, (rj >> rotated) & 1]
    return U


def ry_ref(t):
    return np.array([[np.cos(t / 2), -np.sin(t / 2)],
                     [np.sin(t / 2), np.cos(t / 2)]], dtype=complex)


def source_gate_ref(gate) -> np.ndarray:
    """4x4 oracle of one two-qubit-register source gate; qubit 0 is the LSB."""
    if isinstance(gate, CNOT):
        return cnot_ref(gate.target, gate.control)
    if isinstance(gate, CRx):
        return crx_ref(gate.angle, gate.rotated, gate.conditioning)
    if isinstance(gate, CZ):
        return np.diag([1, 1, 1, -1]).astype(complex)
    U = {Rx: rx_ref, Ry: ry_ref, Rz: rz_ref}[type(gate)](gate.angle)
    return np.kron(np.eye(2), U) if gate.qubit == 0 else np.kron(U, np.eye(2))


def native_sequence_unitary(instructions, n_qubits=2) -> np.ndarray:
    program = QuantumProgram(n_qubits=n_qubits,
                             slots=tuple(slot(i) for i in instructions))
    return program_segment_unitary(program)


class TestEquivalenceCheck:
    def test_identical_matrices(self):
        U = rx_ref(0.7)
        assert equivalence_check(U, U).phase_invariant_distance == 0.0

    def test_global_phase_invariance(self):
        U = rx_ref(0.7)
        for theta in (0.1, PI / 3, 2.9):
            report = equivalence_check(U, np.exp(1j * theta) * U)
            assert report.phase_invariant_distance < 1e-12

    def test_identity_vs_x_is_one(self):
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        report = equivalence_check(np.eye(2, dtype=complex), X)
        assert report.phase_invariant_distance == pytest.approx(1.0)

    @pytest.mark.parametrize("eps", [1e-7, 1e-8])
    def test_small_rotation_resolved(self, eps):
        """Rz(eps) against I sits eps/(2 sqrt 2) away, far below 1 - |tr|/d's
        float64 resolution, and is not equivalent at 1e-9."""
        report = equivalence_check(rz_ref(eps), np.eye(2, dtype=complex), tol=1e-9)
        assert report.phase_invariant_distance == pytest.approx(eps / (2 * math.sqrt(2)),
                                                                rel=1e-6)
        assert not report.equivalent

    def test_dimension_mismatch(self):
        with pytest.raises(QcoprocError,
                           match=r"^cannot compare shapes \(2, 2\) and \(4, 4\)$") as err:
            equivalence_check(np.eye(2, dtype=complex), np.eye(4, dtype=complex))
        assert type(err.value) is QcoprocError


class TestDecomposeCnot:
    def test_shape_two_rxy_one_cz(self):
        seq = decompose_cnot(1, 0)
        assert sum(isinstance(i, Rxy) for i in seq) == 2
        assert sum(isinstance(i, CZ) for i in seq) == 1

    def test_matches_cnot_matrix(self):
        for target, control in ((0, 1), (1, 0)):
            U = native_sequence_unitary(decompose_cnot(target, control))
            report = equivalence_check(U, cnot_ref(target, control))
            assert report.phase_invariant_distance < 1e-10

    def test_control_zero_fixes_ground_state(self):
        U = native_sequence_unitary(decompose_cnot(1, 0))
        state = U @ np.array([1, 0, 0, 0], dtype=complex)
        assert abs(abs(state[0]) - 1) < 1e-12

    def test_same_qubit_rejected(self):
        with pytest.raises(ValidationError, match="^cz operands must differ, got q0 twice$"):
            decompose_cnot(0, 0)


class TestDecomposeCrx:
    def test_zero_angle_is_identity(self):
        U = native_sequence_unitary(decompose_crx(0.0, 0, 1))
        assert equivalence_check(U, np.eye(4, dtype=complex)).phase_invariant_distance \
            < 1e-12

    def test_paper_angles_at_4tau(self):
        # cRx(0.16*pi) decomposes with rotations of -/+ 0.08*pi
        seq = decompose_crx(0.16 * PI, 0, 1)
        gammas = [i.key.gamma_over_pi for i in seq if isinstance(i, Rxy)]
        assert gammas == [-0.08, 0.08]

    def test_block_structure(self):
        """Conditioning |1> applies Rx(alpha) on the rotated qubit, |0> nothing."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            alpha = rng.uniform(-2 * PI, 2 * PI)
            U = native_sequence_unitary(decompose_crx(alpha, 0, 1))
            report = equivalence_check(U, crx_ref(alpha, 0, 1))
            assert report.phase_invariant_distance < 1e-10
            # explicit block check: rows/cols 0,1 have conditioning qubit |0>
            np.testing.assert_allclose(U[np.ix_([0, 1], [0, 1])], np.eye(2), atol=1e-12)
            np.testing.assert_allclose(U[np.ix_([2, 3], [2, 3])], rx_ref(alpha), atol=1e-12)

    def test_same_qubit_rejected(self):
        with pytest.raises(ValidationError, match="^cz operands must differ, got q1 twice$"):
            decompose_crx(1.0, 1, 1)


class TestDecomposeRz:
    def test_literal_angles_for_beta_008pi(self):
        # the 0.08*pi phase rotation lowers to the literal (-0.46*pi, pi) pulse
        seq = decompose_rz(0.08 * PI, 1)
        assert seq[0].key == RotationKey.make(0.5 * PI, PI)
        assert seq[1].key == RotationKey.make(-0.46 * PI, PI)
        assert seq[1].key.phi_over_pi == pytest.approx(1.54)

    def test_zero_angle_is_identity_up_to_phase(self):
        U = native_sequence_unitary(decompose_rz(0.0, 0), n_qubits=1)
        assert equivalence_check(U, np.eye(2, dtype=complex)).phase_invariant_distance \
            < 1e-12

    def test_beta_pi(self):
        seq = decompose_rz(PI, 0)
        assert seq[1].key == RotationKey.make(0.0, PI)
        U = native_sequence_unitary(seq, n_qubits=1)
        assert equivalence_check(U, rz_ref(PI)).phase_invariant_distance < 1e-10

    def test_random_angles(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            beta = rng.uniform(-2 * PI, 2 * PI)
            U = native_sequence_unitary(decompose_rz(beta, 0), n_qubits=1)
            assert equivalence_check(U, rz_ref(beta)).phase_invariant_distance < 1e-10


class TestDecompositionSoundnessSweep:
    def test_thousand_random_instances_each(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            t, c = rng.permutation(2).tolist()
            U = native_sequence_unitary(decompose_cnot(t, c))
            assert equivalence_check(U, cnot_ref(t, c)).phase_invariant_distance < 1e-10

            alpha = rng.uniform(-2 * PI, 2 * PI)
            r_, c_ = rng.permutation(2).tolist()
            U = native_sequence_unitary(decompose_crx(alpha, r_, c_))
            assert equivalence_check(U, crx_ref(alpha, r_, c_)).phase_invariant_distance \
                < 1e-10

            beta = rng.uniform(-2 * PI, 2 * PI)
            U = native_sequence_unitary(decompose_rz(beta, 0), n_qubits=1)
            assert equivalence_check(U, rz_ref(beta)).phase_invariant_distance < 1e-10


class TestLower:
    def test_native_program_unchanged(self):
        p = QuantumProgram(2, (slot(Rxy(0, RotationKey.make(0, PI))), slot(CZ(0, 1))))
        lowered = lower(SourceProgram(2, p.slots))
        assert lowered.slots == p.slots

    def test_single_cnot(self):
        src = SourceProgram(2, (slot(CNOT(1, 0)),))
        lowered = lower(src)
        assert workload.gate_census(lowered) == {Rxy: 2, CZ: 1}
        report = equivalence_check(program_segment_unitary(lowered), cnot_ref(1, 0))
        assert report.phase_invariant_distance < 1e-10

    def test_rx_ry_map_to_single_pulses(self):
        src = SourceProgram(1, (slot(Rx(0, 0.7)), slot(Ry(0, -0.3))))
        lowered = lower(src)
        keys = [i.key for i in lowered.instructions()]
        assert keys[0] == RotationKey.make(0.0, 0.7)
        assert keys[1] == RotationKey.make(0.5 * PI, -0.3)

    def test_random_source_programs_preserve_unitary(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            slots = []
            for _ in range(rng.integers(1, 21)):
                pick = rng.integers(0, 6)
                angle = rng.uniform(-2 * PI, 2 * PI)
                q = int(rng.integers(0, 2))
                if pick == 0:
                    slots.append(slot(Rx(q, angle)))
                elif pick == 1:
                    slots.append(slot(Ry(q, angle)))
                elif pick == 2:
                    slots.append(slot(Rz(q, angle)))
                elif pick == 3:
                    slots.append(slot(CNOT(*rng.permutation(2).tolist())))
                elif pick == 4:
                    slots.append(slot(CRx(angle, *rng.permutation(2).tolist())))
                else:
                    slots.append(slot(CZ(*rng.permutation(2).tolist())))
            src = SourceProgram(2, tuple(slots))
            expected = np.eye(4, dtype=complex)
            for gate in src.instructions():
                expected = source_gate_ref(gate) @ expected
            report = equivalence_check(source_program_unitary(src), expected, tol=1e-9)
            assert report.equivalent, report

    def test_measure_or_reset_has_no_circuit_unitary(self):
        for last in (Measure(0, "m"), Reset(1)):
            src = SourceProgram(2, (slot(Rx(0, 0.3)), slot(CNOT(1, 0)), slot(last)))
            with pytest.raises(NonUnitarySlot):
                source_program_unitary(src)


class TestSchedule:
    def test_merges_adjacent_disjoint_rotations(self):
        p = QuantumProgram(2, (slot(Rxy(0, RotationKey.make(0, 1.0))),
                               slot(Rxy(1, RotationKey.make(0, -1.0)))))
        merged = schedule(p)
        assert len(merged.slots) == 1
        assert len(merged.slots[0].instructions) == 2

    def test_cz_is_a_barrier(self):
        p = QuantumProgram(2, (slot(Rxy(0, RotationKey.make(0, 1.0))),
                               slot(CZ(0, 1)),
                               slot(Rxy(1, RotationKey.make(0, -1.0)))))
        assert len(schedule(p).slots) == 3

    def test_same_qubit_never_merged(self):
        p = QuantumProgram(1, (slot(Rxy(0, RotationKey.make(0, 1.0))),
                               slot(Rxy(0, RotationKey.make(0, -0.5))),))
        assert len(schedule(p).slots) == 2

    def test_never_increases_instruction_count(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            r = workload.sample_disorder(1.0, 0.04 * PI, 10, rng)
            p = lower(workload.build_source_circuit(r, 2))
            scheduled = schedule(p)
            assert sum(1 for _ in scheduled.instructions()) == sum(1 for _ in p.instructions())

    def test_preserves_segment_unitaries_exactly(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            slots = []
            for _ in range(rng.integers(2, 15)):
                q = int(rng.integers(0, 2))
                if rng.random() < 0.25:
                    slots.append(slot(CZ(0, 1)))
                else:
                    key = RotationKey.make(rng.uniform(0, 2 * PI), rng.uniform(-PI, PI))
                    slots.append(slot(Rxy(q, key)))
            p = QuantumProgram(2, tuple(slots))
            report = equivalence_check(program_segment_unitary(p),
                                       program_segment_unitary(schedule(p)))
            assert report.phase_invariant_distance < 1e-12


class TestFrameRotation:
    def test_rz_becomes_ry(self):
        src = SourceProgram(2, (slot(Rz(0, 0.7)),))
        rotated = frame_rotate_z_to_y(src)
        gates = [g for g in rotated.instructions() if isinstance(g, Ry)]
        assert gates == [Ry(0, 0.7)]

    def test_identity_program_probabilities_unchanged(self):
        src = SourceProgram(2, (slot(Reset(0)), slot(Reset(1)),
                                slot(Measure(0, "a"), Measure(1, "b"))))
        rotated = frame_rotate_z_to_y(src)
        compiled = lower(rotated)
        record = simulator.run_ideal(compiled)
        assert record.probabilities() == {"a": pytest.approx(0.0, abs=1e-12),
                                          "b": pytest.approx(0.0, abs=1e-12)}

    def test_alg1_shaped_program_probabilities_preserved(self):
        """Dual-pipeline oracle: simulate before and after the pass."""
        rng = np.random.default_rng(41)
        for _ in range(25):
            r = workload.sample_disorder(rng.uniform(0, 4), 0.04 * PI, 4, rng)
            k = int(rng.integers(0, 5))
            src = workload.build_source_circuit(r, k)
            before = simulator.run_ideal(schedule(lower(src))).probabilities()
            after = simulator.run_ideal(
                schedule(lower(frame_rotate_z_to_y(src)))).probabilities()
            for reg in ("q0mZ", "q1mZ"):
                assert abs(before[reg] - after[reg]) < 1e-9

    def test_disorder_rotation_matches_native_listing(self):
        # Rz(2 w h tau) on q0 turns into the same single Ry pulse the native
        # generator emits
        r = workload.DisorderRealization(w=2.0, tau=0.04 * PI, n_steps=1,
                                         h0x=0.1, h0y=0.5, h1x=-0.2, h1y=0.9)
        rotated = frame_rotate_z_to_y(workload.build_source_circuit(r, 1))
        ry_gates = [g for g in rotated.instructions()
                    if isinstance(g, Ry) and g.qubit == 0]
        assert any(abs(g.angle - 2 * r.w * r.h0y * r.tau) < 1e-12 for g in ry_gates)

    def test_unsupported_gate_rejected(self):
        src = SourceProgram(1, (slot(Rxy(0, RotationKey.make(0.3 * PI, 1.0))),))
        with pytest.raises(QcoprocError, match="^cannot frame-rotate general Rxy") as err:
            frame_rotate_z_to_y(src)
        assert type(err.value) is QcoprocError

    def test_mid_circuit_reset_rejected(self):
        src = SourceProgram(1, (slot(Rx(0, 1.0)), slot(Reset(0))))
        with pytest.raises(QcoprocError, match="^reset after the program prologue$") as err:
            frame_rotate_z_to_y(src)
        assert type(err.value) is QcoprocError


class TestPassPipeline:
    def test_run_passes_full_chain(self):
        r = workload.DisorderRealization(w=1.0, tau=0.04 * PI, n_steps=2,
                                         h0x=0.2, h0y=0.4, h1x=-0.6, h1y=0.8)
        out = run_passes(workload.build_source_circuit(r, 2),
                         ["frame-rotate", "lower", "schedule"])
        assert isinstance(out, QuantumProgram)

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValidationError):
            run_passes(SourceProgram(1, ()), ["optimize"])

    def test_schedule_requires_native(self):
        src = SourceProgram(2, (slot(CNOT(1, 0)),))
        with pytest.raises(QcoprocError, match="^schedule requires a native program") as err:
            run_passes(src, ["schedule"])
        assert type(err.value) is QcoprocError

    def test_frame_rotate_takes_a_native_program_as_is(self):
        p = parse_program("reset q0\n{ rxy q0, 0.5, 0.25 | rxy q1, 0, 1 }\ncz q0, q1\n"
                          "measure q1 -> m\n")
        out = run_passes(p, ["frame-rotate"])
        assert isinstance(out, SourceProgram)
        assert out == run_passes(SourceProgram(p.n_qubits, p.slots), ["frame-rotate"])


# Every one-qubit kind, native and source: (instance, repr, fields).  Each
# derives its qubit operand from isa.OneQubit and keeps the dataclass repr,
# hash and per-kind equality.
ONE_QUBIT_KINDS = [
    (Rxy(1, RotationKey.from_pi_units(0.5, -1)),
     "Rxy(qubit=1, key=RotationKey(0.5*pi, -1.0*pi))", (1, RotationKey(0.5, -1.0))),
    (Measure(1, "m"), "Measure(qubit=1, register='m')", (1, "m")),
    (Reset(1), "Reset(qubit=1)", (1,)),
    (Rx(1, 0.25), "Rx(qubit=1, angle=0.25)", (1, 0.25)),
    (Ry(1, 0.25), "Ry(qubit=1, angle=0.25)", (1, 0.25)),
    (Rz(1, 0.25), "Rz(qubit=1, angle=0.25)", (1, 0.25)),
]


class TestInstructionShapes:
    @pytest.mark.parametrize("instr, text, fields", ONE_QUBIT_KINDS)
    def test_one_qubit_kind(self, instr, text, fields):
        assert instr.qubits == (1,)
        assert repr(instr) == text
        assert hash(instr) == hash(fields)
        assert instr == type(instr)(*fields)
        with pytest.raises(AttributeError):
            instr.qubit = 0

    def test_kinds_never_compare_equal(self):
        instrs = [instr for instr, _, _ in ONE_QUBIT_KINDS] + [isa.OneQubit(1)]
        for a in instrs:
            assert [b for b in instrs if a == b] == [a]

    @pytest.mark.parametrize("program_type, kinds, foreign, message", [
        (QuantumProgram, [Rxy(1, RotationKey.make(0, PI)), Measure(1, "m"), Reset(1), CZ(0, 1)],
         Rx(0, 1.0), "non-native instruction Rx(qubit=0, angle=1.0)"),
        (SourceProgram, [Rx(1, 1.0), Ry(1, 1.0), Rz(1, 1.0), CNOT(0, 1), CRx(1.0, 0, 1),
                         Rxy(1, RotationKey.make(0, PI)), Measure(1, "m"), Reset(1), CZ(0, 1)],
         isa.OneQubit(0), "unknown source gate OneQubit(qubit=0)"),
    ])
    def test_program_validity_rule(self, program_type, kinds, foreign, message):
        """Every accepted kind passes and is range-checked; a foreign kind is
        rejected with the program type's own message."""
        for instr in kinds:
            program_type(2, (slot(instr),))
            with pytest.raises(ValidationError) as err:
                program_type(1, (slot(instr),))
            assert str(err.value) == "qubit q1 out of range for 1-qubit program"
        with pytest.raises(ValidationError) as err:
            program_type(2, (slot(foreign),))
        assert str(err.value) == message


    @pytest.mark.parametrize("make, text", [
        (lambda: CZ(2, 2), "cz operands must differ, got q2 twice"),
        (lambda: CNOT(0, 0), "cnot operands must differ, got q0 twice"),
        (lambda: CRx(1.0, 1, 1), "crx operands must differ, got q1 twice"),
    ], ids=["cz", "cnot", "crx"])
    def test_two_qubit_operands_must_differ(self, make, text):
        with pytest.raises(ValidationError) as err:
            make()
        assert str(err.value) == text

    @pytest.mark.parametrize("parse, text", [
        (parse_program, "rxy q0, 0, 1\ncz q1, q1\n"),
        (parse_program, "rxy q0, 0, 1\n{ cz q1, q1 }\n"),
        (parse_source_program, "rx q0, 0.5\ncnot q0, q0\n"),
        (parse_source_program, "rx q0, 0.5\n{ cnot q0, q0 }\n"),
    ], ids=["native-bare", "native-braced", "source-bare", "source-braced"])
    def test_a_validation_error_names_its_line(self, parse, text):
        """A bare statement's rule names its line, as one inside { ... } does."""
        with pytest.raises(ValidationError, match="^line 2: .* operands must differ"):
            parse(text)


class TestSourceAssembly:
    def test_extended_mnemonics(self):
        src = parse_source_program("cnot q1, q0\ncrx q0, q1, 0.16\nrz q1, 0.08\n"
                                   "rx q0, 1\nry q1, -0.5\n")
        kinds = [type(g).__name__ for g in src.instructions()]
        assert kinds == ["CNOT", "CRx", "Rz", "Rx", "Ry"]

    def test_native_statements_still_parse(self):
        src = parse_source_program("rxy q0, 0.5, 1\ncz q0, q1\n")
        kinds = [type(g).__name__ for g in src.instructions()]
        assert kinds == ["Rxy", "CZ"]

    def test_round_trip(self):
        text = "cnot q1, q0\ncrx q0, q1, 0.16\nrz q1, 0.08\n"
        src = parse_source_program(text)
        again = parse_source_program(compiler.emit_source_program(src))
        assert again == src
