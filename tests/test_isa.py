"""Instruction-set semantics: rotation keys, matrices, slots, assembly text."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoproc import isa
from qcoproc.errors import NonUnitarySlot, ParseError, ValidationError
from qcoproc.isa import (CZ, MAX_QUBITS, Measure, QuantumProgram, Reset, RotationKey,
                         Rxy, TimeSlot, embed, emit_program, kron,
                         parse_program, program_segment_unitary, rxy_matrix, slot,
                         slot_unitary)

PI = math.pi
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def rx_ref(t):
    return np.array([[np.cos(t / 2), -1j * np.sin(t / 2)],
                     [-1j * np.sin(t / 2), np.cos(t / 2)]])


def ry_ref(t):
    return np.array([[np.cos(t / 2), -np.sin(t / 2)],
                     [np.sin(t / 2), np.cos(t / 2)]])


class TestRotationKey:
    def test_canonical_ranges(self):
        key = RotationKey.make(-0.25 * PI, -3.5 * PI)
        assert 0.0 <= key.phi_over_pi < 2.0
        assert -2.0 < key.gamma_over_pi <= 2.0

    def test_phi_reduced_mod_2pi(self):
        assert RotationKey.make(2.5 * PI, PI) == RotationKey.make(0.5 * PI, PI)

    def test_gamma_reduced_mod_4pi(self):
        assert RotationKey.make(0.3 * PI, 5 * PI) == RotationKey.make(0.3 * PI, PI)

    def test_gamma_sign_preserved(self):
        # -pi/2 and +3pi/2 rotations differ as pulses even though they agree
        # up to global phase on states
        assert RotationKey.make(0, -0.5 * PI) != RotationKey.make(0, 1.5 * PI)

    def test_zero_gamma_canonicalizes_phi(self):
        assert RotationKey.make(1.234, 0.0) == RotationKey(0.0, 0.0)

    def test_gamma_boundary_is_positive_two_pi(self):
        assert RotationKey.make(0.7 * PI, -2 * PI).gamma_over_pi == 2.0
        assert RotationKey.make(0.7 * PI, 2 * PI).gamma_over_pi == 2.0

    def test_keys_hash_consistently(self):
        a = RotationKey.make(0.5 * PI, 0.25 * PI)
        b = RotationKey.make(2.5 * PI, 4.25 * PI)
        assert a == b and hash(a) == hash(b)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_canonicalization_idempotent(self, phi, gamma):
        key = RotationKey.make(phi, gamma)
        again = RotationKey.make(key.phi, key.gamma)
        assert key == again

    def test_distinct_beyond_grid(self):
        a = RotationKey.make(0.0, 0.25 * PI)
        b = RotationKey.make(0.0, 0.25 * PI + 1e-8)
        assert a != b

    @pytest.mark.parametrize("convert", [float, np.float64, np.array])
    def test_the_value_not_its_type_decides_the_key(self, convert):
        """numpy's scalar round is not correctly rounded: on an np.float64
        this gamma once quantized to 0.501656380626, on a float to ...625."""
        key = RotationKey.make(convert(0.0), convert(1.5759999999995158))
        assert repr(key) == "RotationKey(0.0*pi, 0.501656380625*pi)"
        assert [type(field) for field in key] == [float, float]


def _around(x: float, ulps: int) -> float:
    """x moved by ``ulps`` units in the last place, either way."""
    step = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, step)
    return x


_ULPS = st.integers(-2, 2)
# angles in radians: any float, ints and np.float64; the 1e-12 grid in units of
# pi and the midpoints between its points, give or take an ulp; and multiples
# of pi at the edges of phi's % 2 and gamma's % 4, on both signs
memo_angles = st.one_of(
    st.floats(-50, 50),
    st.sampled_from([0.0, -0.0]),
    st.integers(-50, 50),
    st.floats(-50, 50).map(np.float64),
    st.builds(lambda n, half, ulps: _around((n + half) * 1e-12 * PI, ulps),
              st.integers(-10**6, 10**6), st.sampled_from([0.0, 0.5]), _ULPS),
    st.builds(lambda n, half, ulps: _around((n + half) * 1e-12, ulps) * PI,
              st.integers(-10**4, 10**4), st.sampled_from([0.0, 0.5]), _ULPS),
    st.builds(lambda j, ulps: _around(j * PI, ulps), st.integers(-12, 12), _ULPS),
    st.builds(lambda j, ulps: _around(j * PI - 1e-12 * PI, ulps), st.integers(-12, 12), _ULPS),
)


class TestRotationKeyMemo:
    """``make`` canonicalizes through a bounded per-process memo, which must
    return what the uncached body returns, to the sign of a zero."""

    @given(memo_angles, memo_angles)
    @settings(max_examples=500)
    def test_the_memo_returns_the_uncached_key(self, phi, gamma):
        fresh = isa._canonical_key.__wrapped__(float(phi), float(gamma))
        for _ in range(2):  # a miss, then a hit
            key = RotationKey.make(phi, gamma)
            assert [repr(f) for f in key] == [repr(f) for f in fresh]
            assert [type(f) for f in key] == [float, float]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_angles_raise_and_are_never_cached(self, bad):
        isa._canonical_key.cache_clear()
        for _ in range(2):  # on an empty memo, then on a filled one
            before = isa._canonical_key.cache_info()
            for phi, gamma in ((bad, 0.5), (0.5, bad), (bad, bad)):
                with pytest.raises(ValidationError, match="^rotation angles must be finite"):
                    RotationKey.make(phi, gamma)
            after = isa._canonical_key.cache_info()
            assert (after.hits, after.misses, after.currsize) == (
                before.hits, before.misses, before.currsize)
            for i in range(50):
                RotationKey.make(0.01 * i, 0.5)

    def test_the_memo_is_bounded(self):
        assert isa._canonical_key.cache_info().maxsize == 1024
        for i in range(3000):
            RotationKey.make(0.0, 1e-3 * i)
        assert isa._canonical_key.cache_info().currsize <= 1024


finite_keys = st.builds(RotationKey.make, st.floats(-50, 50), st.floats(-50, 50))
# multiples of pi/4: many distinct angle pairs canonicalize to one key
quarter_turn_keys = st.builds(lambda i, j: RotationKey.make(i * PI / 4, j * PI / 4),
                              st.integers(-20, 20), st.integers(-20, 20))

# few distinct values, so that phi ties and equal keys are common; keys built
# directly, as a tuple is, keep -0.0 where RotationKey.make would give 0.0
_tie_floats = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1.75, -1.0, 2.0])
_any_float = st.floats(-2.0, 2.0, allow_nan=False)
_direct_keys = st.builds(RotationKey, st.one_of(_tie_floats, _any_float),
                         st.one_of(_tie_floats, _any_float))


@st.composite
def _key_lists(draw):
    """Shuffled keys with many phi ties, repeats of equal key objects and of
    fresh equal keys, and each signed zero next to its twin in either field."""
    keys = draw(st.lists(st.one_of(_direct_keys, finite_keys), max_size=60))
    if keys:
        keys += draw(st.lists(st.sampled_from(keys), max_size=20))
        keys += [RotationKey(*k) for k in draw(st.lists(st.sampled_from(keys), max_size=10))]
    for x in draw(st.lists(st.one_of(_tie_floats, _any_float), max_size=6)):
        keys += [RotationKey(-0.0, x), RotationKey(0.0, x),
                 RotationKey(x, -0.0), RotationKey(x, 0.0)]
    return draw(st.permutations(keys))


class TestRotationKeyValue:
    """A key is a (phi_over_pi, gamma_over_pi) named tuple."""

    @given(st.lists(finite_keys))
    def test_sorted_is_by_phi_then_gamma(self, keys):
        assert sorted(keys) == sorted(keys, key=lambda k: (k.phi_over_pi, k.gamma_over_pi))

    @settings(max_examples=300)
    @given(_key_lists())
    def test_sorted_keys_is_sorted(self, keys):
        """Two stable float sorts give ``sorted``'s list, and its order among
        equal keys, object for object: a -0.0 key stays where ``sorted`` puts
        it next to its 0.0 twin, which ``==`` alone cannot tell apart."""
        ordered = isa.sorted_keys(keys)
        assert ordered == sorted(keys)
        assert list(map(id, ordered)) == list(map(id, sorted(keys)))

    @given(finite_keys)
    def test_repr_form(self, key):
        assert repr(key) == f"RotationKey({key.phi_over_pi!r}*pi, {key.gamma_over_pi!r}*pi)"

    @given(finite_keys)
    def test_asdict_is_the_field_dict_in_order(self, key):
        assert list(key._asdict().items()) == [("phi_over_pi", key.phi_over_pi),
                                              ("gamma_over_pi", key.gamma_over_pi)]

    @given(finite_keys)
    def test_unpacks_to_its_fields(self, key):
        phi_over_pi, gamma_over_pi = key
        assert (phi_over_pi, gamma_over_pi) == (key.phi_over_pi, key.gamma_over_pi)

    @given(quarter_turn_keys, quarter_turn_keys)
    def test_equal_keys_hash_equal(self, a, b):
        assert (a == b) == ((a.phi_over_pi, a.gamma_over_pi) == (b.phi_over_pi, b.gamma_over_pi))
        if a == b:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1


class TestRxyMatrix:
    def test_zero_rotation_is_identity(self):
        np.testing.assert_allclose(rxy_matrix(RotationKey.make(0, 0)), np.eye(2),
                                   atol=1e-15)

    def test_pi_rotation_about_x(self):
        # direct substitution: (phi=0, gamma=pi) -> [[0, -i], [-i, 0]]
        np.testing.assert_allclose(rxy_matrix(RotationKey.make(0, PI)),
                                   np.array([[0, -1j], [-1j, 0]]), atol=1e-15)

    def test_pi_rotation_about_y(self):
        # direct substitution: (phi=pi/2, gamma=pi) -> [[0, -1], [1, 0]]
        np.testing.assert_allclose(rxy_matrix(RotationKey.make(0.5 * PI, PI)),
                                   np.array([[0, -1], [1, 0]]), atol=1e-15)

    def test_matches_rx_at_phi_zero(self):
        for gamma in np.linspace(-2 * PI, 2 * PI, 17):
            np.testing.assert_allclose(rxy_matrix(RotationKey.make(0, gamma)),
                                       rx_ref(RotationKey.make(0, gamma).gamma),
                                       atol=1e-14)

    def test_matches_ry_at_phi_half_pi(self):
        for gamma in np.linspace(-2 * PI, 2 * PI, 17):
            key = RotationKey.make(0.5 * PI, gamma)
            np.testing.assert_allclose(rxy_matrix(key), ry_ref(key.gamma), atol=1e-14)

    def test_unitarity_and_det_over_random_angles(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            key = RotationKey.make(rng.uniform(0, 2 * PI), rng.uniform(-2 * PI, 2 * PI))
            U = rxy_matrix(key)
            assert np.max(np.abs(U.conj().T @ U - np.eye(2))) < 1e-12
            assert abs(abs(np.linalg.det(U)) - 1) < 1e-12

    def test_same_axis_additivity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            phi = rng.uniform(0, 2 * PI)
            g1, g2 = rng.uniform(-PI, PI, 2)
            left = rxy_matrix(RotationKey.make(phi, g1)) @ rxy_matrix(RotationKey.make(phi, g2))
            right = rxy_matrix(RotationKey.make(phi, g1 + g2))
            np.testing.assert_allclose(left, right, atol=1e-12)


class TestCZMatrix:
    """The cZ unitary that the backends run, in either operand order."""

    @staticmethod
    def unitaries():
        return [slot_unitary(slot(CZ(0, 1)), 2), slot_unitary(slot(CZ(1, 0)), 2)]

    def test_diagonal(self):
        for U in self.unitaries():
            np.testing.assert_allclose(U, np.diag([1, 1, 1, -1]), atol=0)

    def test_control_zero_unchanged(self):
        state = np.array([1, 0, 0, 0], dtype=complex)
        for U in self.unitaries():
            np.testing.assert_allclose(U @ state, state)

    def test_both_ones_flips_sign(self):
        state = np.array([0, 0, 0, 1], dtype=complex)
        for U in self.unitaries():
            np.testing.assert_allclose(U @ state, -state)

    def test_swap_invariance(self):
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                        dtype=complex)
        for U in self.unitaries():
            np.testing.assert_allclose(swap @ U @ swap, U)


_part = st.floats(-2.0, 2.0, allow_nan=False)
_complex = st.builds(complex, _part, _part)
_matrix2 = st.lists(_complex, min_size=4, max_size=4).map(
    lambda v: np.array(v, dtype=complex).reshape(2, 2))


def kron_chain_ref(ops: dict, n_qubits: int) -> np.ndarray:
    """The chain of ``np.kron`` calls ``embed`` stands for, qubit n - 1 first."""
    out = np.ones((1, 1), dtype=complex)
    for q in range(n_qubits - 1, -1, -1):
        out = np.kron(out, ops.get(q, np.eye(2, dtype=complex)))
    return out


class TestKron:
    """``kron`` broadcasts the products ``np.kron`` forms, so they agree bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.dictionaries(st.integers(0, n - 1), _matrix2, max_size=n))))
    def test_embed_equals_chained_np_kron_exactly(self, case):
        n_qubits, ops = case
        assert np.array_equal(embed(ops, n_qubits), kron_chain_ref(ops, n_qubits))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_complex, min_size=16, max_size=16))
    def test_superoperator_factor_equals_np_kron_exactly(self, entries):
        U = np.array(entries, dtype=complex).reshape(4, 4)
        assert np.array_equal(kron(U, U.conj()), np.kron(U, U.conj()))


class TestSlots:
    def test_duplicate_qubit_rejected(self):
        with pytest.raises(ValidationError):
            slot(Rxy(0, RotationKey.make(0, PI)), CZ(0, 1))

    def test_cz_same_operand_rejected(self):
        with pytest.raises(ValidationError):
            CZ(1, 1)

    def test_empty_slot_is_identity(self):
        np.testing.assert_allclose(slot_unitary(slot(), 2), np.eye(4))

    def test_single_rxy_embedding(self):
        # gate on qubit 0 embeds as kron(I, U) with qubit 0 the LSB
        U = slot_unitary(slot(Rxy(0, RotationKey.make(0, PI))), 2)
        np.testing.assert_allclose(U, np.kron(np.eye(2), -1j * X), atol=1e-15)
        U1 = slot_unitary(slot(Rxy(1, RotationKey.make(0, PI))), 2)
        np.testing.assert_allclose(U1, np.kron(-1j * X, np.eye(2)), atol=1e-15)

    def test_disjoint_instructions_commute(self):
        a = Rxy(0, RotationKey.make(0.3, 1.1))
        b = Rxy(1, RotationKey.make(1.2, -0.7))
        both = slot_unitary(slot(a, b), 2)
        np.testing.assert_allclose(both,
                                   slot_unitary(slot(a), 2) @ slot_unitary(slot(b), 2),
                                   atol=1e-14)
        np.testing.assert_allclose(both,
                                   slot_unitary(slot(b), 2) @ slot_unitary(slot(a), 2),
                                   atol=1e-14)

    def test_measure_slot_has_no_unitary(self):
        with pytest.raises(NonUnitarySlot):
            slot_unitary(slot(Measure(0, "m")), 1)

    @pytest.mark.parametrize("instructions, kind", [
        ((Rxy(0, RotationKey.make(0, PI)), Measure(1, "m")), "Measure"),
        ((Measure(1, "m"), Rxy(0, RotationKey.make(0, PI))), "Measure"),
        ((Reset(0),), "Reset")])
    def test_a_measure_or_reset_anywhere_in_a_slot_has_no_unitary(self, instructions, kind):
        s = slot(*instructions)
        assert not s.is_unitary()
        with pytest.raises(NonUnitarySlot, match=f"^{kind} has no unitary$"):
            slot_unitary(s, 2)

    @pytest.mark.parametrize("instructions", [
        (Rxy(1, RotationKey.make(0.3, 0.7)),),
        (Rxy(0, RotationKey.make(0, PI)), Rxy(1, RotationKey.make(0.5, -0.2))),
        (CZ(1, 0),),
        ()], ids=["one-rxy", "two-rxy", "cz", "empty"])
    def test_a_slot_of_rxy_and_cz_only_has_a_unitary(self, instructions):
        """``TimeSlot.is_unitary`` and ``slot_unitary``'s rule agree on both sides."""
        s = slot(*instructions)
        assert s.is_unitary()
        U = slot_unitary(s, 2)
        assert U.shape == (4, 4)
        np.testing.assert_allclose(U.conj().T @ U, np.eye(4), atol=1e-14)


class TestProgramUnitary:
    def test_empty_range_is_identity(self):
        np.testing.assert_allclose(program_segment_unitary(QuantumProgram(2, ())), np.eye(4))

    def test_rotation_angles_accumulate(self):
        p = parse_program("rxy q0, 0, 0.5\nrxy q0, 0, 0.5\n")
        expected = slot_unitary(slot(Rxy(0, RotationKey.make(0, PI))), 1)
        np.testing.assert_allclose(program_segment_unitary(p), expected, atol=1e-14)

    def test_measure_in_range_raises(self):
        p = parse_program("rxy q0, 0, 1\nmeasure q0 -> m\n")
        with pytest.raises(NonUnitarySlot):
            program_segment_unitary(p)

    def test_qubit_bound_validation(self):
        with pytest.raises(ValidationError):
            QuantumProgram(n_qubits=1, slots=(slot(CZ(0, 1)),))


class TestAssembly:
    def test_parse_single_statement(self):
        p = parse_program("rxy q0, 0.5, -0.5\n")
        instr = p.slots[0].instructions[0]
        assert instr == Rxy(0, RotationKey.make(0.5 * PI, -0.5 * PI))

    def test_parse_parallel_slot(self):
        p = parse_program("{ rxy q0, 0, 0.5 | rxy q1, 0, -0.5 }\n")
        assert len(p.slots) == 1
        assert len(p.slots[0].instructions) == 2

    def test_duplicate_qubit_in_slot_rejected(self):
        with pytest.raises(ValidationError):
            parse_program("{ rxy q0, 0, 1 | cz q0, q1 }\n")

    def test_unknown_mnemonic_names_line(self):
        with pytest.raises(ParseError, match=r"^line 2: unknown mnemonic 'bogus'$"):
            parse_program("rxy q0, 0, 1\nbogus q0\n")

    def test_widest_qubit_index_parses(self):
        assert parse_program(f"rxy q{MAX_QUBITS - 1}, 0, 1\n").n_qubits == MAX_QUBITS

    @pytest.mark.parametrize("text", [f"reset q0\nrxy q{MAX_QUBITS}, 0, 1\n",
                                      "reset q0\n{ reset q0 | cz q1, q40 }\n"])
    def test_qubit_index_beyond_bound_names_line(self, text):
        with pytest.raises(ValidationError, match="^line 2: "):
            parse_program(text)

    def test_comments_and_blanks_ignored(self):
        p = parse_program("# preamble\n\nreset q0  # trailing\n")
        assert p.slots[0].instructions[0] == Reset(0)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("inner", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85",
                                       "\u2028", "\u2029"],
                             ids=["ff", "vt", "fs", "gs", "rs", "nel", "ls", "ps"])
    def test_only_newlines_end_a_line(self, newline, inner):
        """Lines end at \\n, \\r\\n and \\r, as open() reads them; the other
        breaks str.splitlines knows are whitespace inside a line."""
        text = newline.join([f"rxy q0, 0.0, 0.5{inner}", f"rxy q1, 0.0, 0.5 {inner}# note",
                             "bogus q0", ""])
        with pytest.raises(ParseError, match=r"^line 3: unknown mnemonic 'bogus'$"):
            parse_program(text)
        assert len(parse_program(text.replace("bogus q0", "reset q0")).slots) == 3

    def test_measure_register(self):
        p = parse_program("measure q1 -> q1mZ\n")
        assert p.slots[0].instructions[0] == Measure(1, "q1mZ")

    def test_round_trip_fixed_program(self):
        text = ("reset q0\n"
                "reset q1\n"
                "{ rxy q0, 0.0, 0.5 | rxy q1, 0.0, -0.5 }\n"
                "cz q1, q0\n"
                "{ measure q0 -> q0mZ | measure q1 -> q1mZ }\n")
        p = parse_program(text)
        assert parse_program(emit_program(p)) == p

    @staticmethod
    def _random_program(rng) -> QuantumProgram:
        slots = []
        for _ in range(rng.integers(1, 12)):
            kind = rng.integers(0, 4)
            if kind == 0:
                q = int(rng.integers(0, 2))
                key = RotationKey.make(rng.uniform(0, 2 * PI), rng.uniform(-2 * PI, 2 * PI))
                instrs = [Rxy(q, key)]
                if rng.random() < 0.4:
                    other = 1 - q
                    key2 = RotationKey.make(rng.uniform(0, 2 * PI), rng.uniform(-2 * PI, 2 * PI))
                    instrs.append(Rxy(other, key2))
                slots.append(TimeSlot(tuple(instrs)))
            elif kind == 1:
                slots.append(slot(CZ(*(rng.permutation(2).tolist()))))
            elif kind == 2:
                slots.append(slot(Reset(int(rng.integers(0, 2)))))
            else:
                q = int(rng.integers(0, 2))
                slots.append(slot(Measure(q, f"r{rng.integers(0, 100)}")))
        # the text format has no qubit-count declaration, so width is inferred
        n_qubits = 1 + max(q for s in slots for i in s.instructions for q in i.qubits)
        return QuantumProgram(n_qubits=n_qubits, slots=tuple(slots))

    def test_round_trip_random_programs(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = self._random_program(rng)
            assert parse_program(emit_program(p)) == p

    @given(st.floats(-20, 20, allow_nan=False), st.floats(-20, 20, allow_nan=False))
    @settings(max_examples=200)
    def test_round_trip_any_angle(self, phi_over_pi, gamma_over_pi):
        key = RotationKey.from_pi_units(phi_over_pi, gamma_over_pi)
        p = QuantumProgram(n_qubits=1, slots=(slot(Rxy(0, key)),))
        assert parse_program(emit_program(p)) == p

    def test_emission_deterministic(self):
        p = parse_program("rxy q0, 0.46, 1.0\ncz q0, q1\n")
        assert emit_program(p) == emit_program(p)

    def test_operand_order_preserved_in_emission(self):
        assert "cz q1, q0" in emit_program(parse_program("cz q1, q0\n"))
        assert "cz q0, q1" in emit_program(parse_program("cz q0, q1\n"))
