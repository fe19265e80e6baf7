"""Backends, Hamiltonian, exact evolution, Bloch utilities, noise physics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoproc import simulator, workload
from qcoproc.errors import QcoprocError, ValidationError
from qcoproc.isa import (CZ, Measure, QuantumProgram, Reset, RotationKey, Rxy,
                         parse_program, slot)
from qcoproc.simulator import (BlochVector, DensityMatrix, MeasurementRecord,
                               NoiseParams, StateVector, bloch_angles,
                               exact_evolution, hamiltonian_matrix,
                               rotation_trajectory, run_ideal, run_noisy)

PI = math.pi


def key(phi_over_pi, gamma_over_pi):
    return RotationKey.from_pi_units(phi_over_pi, gamma_over_pi)


def idle_program(n_slots: int, prep_gamma_over_pi: float = 0.0) -> QuantumProgram:
    """Optional preparation pulse on q0, then identity pulses marking time."""
    slots = []
    if prep_gamma_over_pi:
        slots.append(slot(Rxy(0, key(0, prep_gamma_over_pi))))
    slots.extend(slot(Rxy(0, key(0, 0))) for _ in range(n_slots))
    slots.append(slot(Measure(0, "m")))
    return QuantumProgram(1, tuple(slots))


class TestRunIdeal:
    def test_pi_pulse_flips(self):
        p = parse_program("rxy q0, 0, 1\nmeasure q0 -> m\n")
        assert run_ideal(p).probabilities()["m"] == pytest.approx(1.0, abs=1e-12)

    def test_empty_program_measures_zero(self):
        p = parse_program("measure q0 -> m\n")
        assert run_ideal(p).probabilities()["m"] == 0.0

    def test_step_zero_circuit(self):
        r = workload.DisorderRealization(w=25.0, tau=0.04 * PI, n_steps=10,
                                         h0x=0.1, h0y=0.2, h1x=0.3, h1y=0.4)
        record = run_ideal(workload.build_native_circuit(r, 0))
        probs = record.probabilities()
        assert probs["q0mZ"] == pytest.approx(1.0, abs=1e-12)
        assert probs["q1mZ"] == pytest.approx(0.0, abs=1e-12)

    def test_norm_preserved_over_deep_circuit(self):
        r = workload.DisorderRealization(w=25.0, tau=0.04 * PI, n_steps=10,
                                         h0x=0.9, h0y=-0.8, h1x=0.7, h1y=-0.6)
        p = workload.build_native_circuit(r, 10)  # 150+ instructions
        state = StateVector.ground(2)
        for s in p.slots:
            if s.is_unitary():
                state.amplitudes = simulator.slot_unitary(s, 2) @ state.amplitudes
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) < 1e-10

    def test_mid_circuit_reset_projects(self):
        p = QuantumProgram(1, (slot(Rxy(0, key(0, 0.5))), slot(Reset(0)),
                               slot(Measure(0, "m"))))
        assert run_ideal(p).probabilities()["m"] == pytest.approx(0.0, abs=1e-12)

    def test_reset_on_pure_one_state_errors(self):
        p = QuantumProgram(1, (slot(Rxy(0, key(0, 1))), slot(Reset(0)),
                               slot(Measure(0, "m"))))
        with pytest.raises(ValidationError, match="^reset outcome 0 on q0 has probability"):
            run_ideal(p)

    def test_duplicate_register_rejected(self):
        p = QuantumProgram(1, (slot(Measure(0, "m")), slot(Measure(0, "m"))))
        with pytest.raises(ValidationError, match="^register 'm' is measured 2 times$"):
            run_ideal(p)

    @pytest.mark.parametrize("run", [run_ideal, lambda p: simulator.run_noisy(
        p, NoiseParams.octobox_defaults())], ids=["ideal", "noisy"])
    def test_first_repeated_register_by_first_measurement_is_named(self, run):
        """'b' is measured first; 'a' is repeated first, more often, and sorts first."""
        p = parse_program("measure q0 -> b\nmeasure q1 -> a\nmeasure q0 -> a\n"
                          "measure q1 -> a\nmeasure q0 -> b\n")
        with pytest.raises(ValidationError, match="^register 'b' is measured 2 times$"):
            run(p)

    def test_sampled_mode_reproducible(self):
        p = parse_program("rxy q0, 0, 0.5\nmeasure q0 -> m\n")
        a = run_ideal(p, mode="sampled", n_avg=100, seed=42)
        b = run_ideal(p, mode="sampled", n_avg=100, seed=42)
        assert a.registers == b.registers

    def test_sampled_mode_converges(self):
        """1e5-shot frequency within 5 sigma of the exact probability."""
        p = parse_program("rxy q0, 0, 0.3\nmeasure q0 -> m\n")
        exact = run_ideal(p).probabilities()["m"]
        n = 100_000
        sampled = run_ideal(p, mode="sampled", n_avg=n, seed=7).probabilities()["m"]
        sigma = math.sqrt(exact * (1 - exact) / n)
        assert abs(sampled - exact) < 5 * sigma

    def test_sampled_joint_correlations(self):
        # Bell-like pair via cz: per-shot bits must be perfectly correlated
        p = parse_program("rxy q0, 0.5, 0.5\nrxy q1, 0.5, 0.5\ncz q0, q1\n"
                          "rxy q1, 0.5, -0.5\n"
                          "{ measure q0 -> a | measure q1 -> b }\n")
        record = run_ideal(p, mode="sampled", n_avg=2000, seed=3)
        a = np.array(record.registers["a"])
        b = np.array(record.registers["b"])
        assert np.array_equal(a, b)  # cz-made correlations survive sampling

    def test_mid_circuit_measure_collapses_in_sampled_mode(self):
        p = QuantumProgram(1, (slot(Rxy(0, key(0, 0.5))), slot(Measure(0, "first")),
                               slot(Rxy(0, key(0, 0))), slot(Measure(0, "second"))))
        record = run_ideal(p, mode="sampled", n_avg=500, seed=11)
        assert record.registers["first"] == record.registers["second"]


class TestNoiseParams:
    def test_t2_bound(self):
        with pytest.raises(ValidationError, match="^q0: T2 = 3e-06 exceeds 2"):
            NoiseParams(t1=(1e-6,), t2=(3e-6,))

    @pytest.mark.parametrize("field, kwargs", [
        ("t1", dict(t1=("1",), t2=(1,))), ("t1", dict(t1=(True,), t2=(True,))),
        ("t2", dict(t1=(1,), t2=None)),
        ("cz_duration", dict(t1=(1,), t2=(1,), cz_duration="4")),
        ("single_qubit_gate_duration",
         dict(t1=(1,), t2=(1,), single_qubit_gate_duration=False))])
    def test_mistyped_value_rejected_naming_field(self, field, kwargs):
        with pytest.raises(ValidationError, match=field):
            NoiseParams(**kwargs)

    def test_chip_defaults_are_physical(self):
        noise = NoiseParams.octobox_defaults()
        assert noise.t1 == (28e-6, 22e-6)
        assert noise.t2 == (4.2e-6, 38e-6)

    def test_slot_durations(self):
        noise = NoiseParams.octobox_defaults()
        assert noise.slot_duration(slot(Rxy(0, key(0, 1)))) == 20e-9
        assert noise.slot_duration(slot(CZ(0, 1))) == 40e-9
        assert noise.slot_duration(slot(Measure(0, "m"))) == 0.0
        assert noise.slot_duration(slot(Rxy(0, key(0, 1)), Rxy(1, key(0, 1)))) == 20e-9


class TestRunNoisy:
    def test_noiseless_limit_matches_ideal(self):
        rng = np.random.default_rng(19)
        noise = NoiseParams.noiseless()
        for _ in range(10):
            r = workload.sample_disorder(rng.uniform(0, 3), 0.04 * PI, 5, rng)
            p = workload.build_native_circuit(r, int(rng.integers(0, 4)))
            ideal = run_ideal(p).probabilities()
            noisy = run_noisy(p, noise).probabilities()
            for reg in ideal:
                assert abs(ideal[reg] - noisy[reg]) < 1e-10

    def test_t1_decay_closed_form(self):
        """P1 after idling = exp(-d/T1), to 1e-9 with the chip values."""
        noise = NoiseParams.octobox_defaults()
        n_slots = 50
        p = idle_program(n_slots, prep_gamma_over_pi=1.0)
        d = n_slots * noise.single_qubit_gate_duration \
            + noise.single_qubit_gate_duration  # prep pulse also decays
        expected = math.exp(-d / noise.t1[0])
        assert run_noisy(p, noise).probabilities()["m"] == pytest.approx(expected, abs=1e-9)

    def test_t2_decay_closed_form(self):
        """Off-diagonal magnitude after idling = 0.5*exp(-d/T2)."""
        noise = NoiseParams.octobox_defaults()
        n_slots = 40
        rho = DensityMatrix.ground(1)
        prep = simulator.slot_unitary(slot(Rxy(0, key(0, 0.5))), 1)
        rho.entries = prep @ rho.entries @ prep.conj().T
        for _ in range(n_slots):
            simulator._apply_slot_noise(rho, slot(Rxy(0, key(0, 0))), noise)
        d = n_slots * noise.single_qubit_gate_duration
        expected = 0.5 * math.exp(-d / noise.t2[0])
        assert abs(rho.entries[0, 1]) == pytest.approx(expected, abs=1e-9)

    def test_invariants_hold_each_slot(self):
        r = workload.DisorderRealization(w=25.0, tau=0.04 * PI, n_steps=10,
                                         h0x=0.5, h0y=-0.5, h1x=0.5, h1y=-0.5)
        p = workload.build_native_circuit(r, 5)
        noise = NoiseParams.octobox_defaults()

        def decay_then_validate(rho, s):
            simulator._apply_slot_noise(rho, s, noise)
            rho.validate()

        checked = simulator._run(p, DensityMatrix.ground, decay_then_validate, "exact", 1, None)
        assert checked.registers == run_noisy(p, noise).registers

    def test_idling_qubit_decoheres_during_partner_gates(self):
        noise = NoiseParams.octobox_defaults()
        p = QuantumProgram(2, (slot(Rxy(1, key(0, 1))),) + tuple(
            slot(Rxy(0, key(0, 0))) for _ in range(20)) + (slot(Measure(1, "m")),))
        d = 21 * noise.single_qubit_gate_duration
        expected = math.exp(-d / noise.t1[1])
        assert run_noisy(p, noise).probabilities()["m"] == pytest.approx(expected, abs=1e-9)

    def test_sampled_mode_reproducible(self):
        p = parse_program("rxy q0, 0, 0.5\nmeasure q0 -> m\n")
        noise = NoiseParams.octobox_defaults()
        a = run_noisy(p, noise, mode="sampled", n_avg=200, seed=5)
        b = run_noisy(p, noise, mode="sampled", n_avg=200, seed=5)
        assert a.registers == b.registers

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_noiseless_matches_ideal_on_random_programs(self, data):
        p = data.draw(_native_programs())
        ideal = run_ideal(p).registers
        noisy = run_noisy(p, NoiseParams.noiseless(p.n_qubits)).registers
        assert ideal.keys() == noisy.keys()
        for reg in ideal:
            assert abs(ideal[reg] - noisy[reg]) < 1e-10


def _embedded(K: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    out = np.eye(1)
    for q in range(n_qubits - 1, -1, -1):  # qubit 0 is the least significant bit
        out = np.kron(out, K if q == qubit else np.eye(2))
    return out


def _apply_kraus(rho: np.ndarray, kraus, qubit: int, n_qubits: int) -> np.ndarray:
    ops = [_embedded(np.array(K, dtype=complex), qubit, n_qubits) for K in kraus]
    return sum(K @ rho @ K.conj().T for K in ops)


def _kraus_slot_noise(rho: np.ndarray, noise: NoiseParams, d: float, n_qubits: int) -> np.ndarray:
    """Per qubit: amplitude damping over d, then pure dephasing at
    1/Tphi = 1/T2 - 1/(2 T1), each as a sum of K rho K^H."""
    for q in range(n_qubits):
        p = 1.0 - math.exp(-d / noise.t1[q])
        # sqrt(1 - p), without the cancellation of 1 - p once exp(-d/T1) nears 1e-15
        keep = math.exp(-d / (2 * noise.t1[q]))
        rho = _apply_kraus(rho, ([[1, 0], [0, keep]], [[0, math.sqrt(p)], [0, 0]]),
                           q, n_qubits)
        rate = 1.0 / noise.t2[q] - 0.5 / noise.t1[q]
        flip = (1.0 - math.exp(-d * rate)) / 2.0 if rate > 0 else 0.0
        rho = _apply_kraus(rho, (math.sqrt(1 - flip) * np.eye(2),
                                 math.sqrt(flip) * np.diag([1.0, -1.0])), q, n_qubits)
    return rho


@st.composite
def _t1_t2(draw):
    """A physical (T1, T2) pair, T2 <= 2 T1, either of them possibly infinite."""
    t1 = draw(st.one_of(st.just(math.inf), st.floats(1e-8, 1e-4)))
    t2 = draw(st.one_of(st.just(math.inf), st.floats(1e-8, 1e-3)) if t1 == math.inf
              else st.floats(1e-8, 2 * t1))
    return t1, t2


@st.composite
def _density_matrices(draw, n_qubits: int) -> np.ndarray:
    dim = 1 << n_qubits
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


class TestDecay:
    """The closed-form decay against the Kraus sums it replaces."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_slot_noise_reset_and_decay_map_equal_kraus_sums(self, data):
        n = data.draw(st.integers(1, 3))
        pairs = [data.draw(_t1_t2()) for _ in range(n)]
        d = data.draw(st.floats(1e-10, 1e-5))
        noise = NoiseParams(t1=tuple(t1 for t1, _ in pairs), t2=tuple(t2 for _, t2 in pairs),
                            single_qubit_gate_duration=d)
        start = data.draw(_density_matrices(n))
        expected = _kraus_slot_noise(start, noise, d, n)

        rho = DensityMatrix(n, start)
        simulator._apply_slot_noise(rho, slot(Rxy(0, key(0, 0.5))), noise)
        assert np.max(np.abs(rho.entries - expected)) < 1e-12

        vec = simulator._decay_map(noise, d, n) @ start.reshape(-1)
        assert np.max(np.abs(vec.reshape(start.shape) - expected)) < 1e-12

        q = data.draw(st.integers(0, n - 1))
        rho = DensityMatrix(n, start)
        rho.reset(q)
        reset = _apply_kraus(start, ([[1, 0], [0, 0]], [[0, 1], [0, 0]]), q, n)
        assert np.max(np.abs(rho.entries - reset)) < 1e-12

    def test_eight_qubit_program_stays_near_the_size_of_rho(self):
        """rho is 1 MiB at 8 qubits; the decay holds no register-sized
        operator per qubit beside it."""
        p = parse_program("rxy q7, 0, 1\ncz q0, q7\nmeasure q0 -> a\nmeasure q7 -> b\n")
        noise = NoiseParams(t1=(28e-6,) * 8, t2=(4.2e-6,) * 8)
        tracemalloc.start()
        try:
            probs = run_noisy(p, noise).probabilities()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert probs["a"] == pytest.approx(0.0, abs=1e-12)
        d = noise.single_qubit_gate_duration + noise.cz_duration
        assert probs["b"] == pytest.approx(math.exp(-d / noise.t1[7]), abs=1e-12)


@st.composite
def _native_programs(draw):
    """Rxy, cZ and measurement slots on one or two qubits, then a final
    measurement of every qubit.  Resets are left out: the ideal backend
    projects where the noisy one traces out, so the two differ after a gate."""
    n = draw(st.integers(1, 2))
    angle = st.floats(-2.0, 2.0, allow_nan=False).map(lambda x: round(x, 6))
    slots = []
    for j in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("rxy", "cz", "measure") if n == 2 else ("rxy", "measure")))
        if kind == "cz":
            slots.append(slot(CZ(0, 1)))
        elif kind == "measure":
            slots.append(slot(Measure(draw(st.integers(0, n - 1)), f"mid{j}")))
        else:
            qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
            slots.append(slot(*(Rxy(q, key(draw(angle), draw(angle))) for q in qubits)))
    slots.append(slot(*(Measure(q, f"m{q}") for q in range(n))))
    return QuantumProgram(n, tuple(slots))


# Sampled bits for fixed programs and seeds, recorded before the two backends
# were merged onto one slot loop; they pin the RNG draw order of both paths.
_TERMINAL = ("reset q0\nreset q1\n{ rxy q0, 0.25, 0.6 | rxy q1, 0.5, 0.3 }\n"
             "cz q0, q1\nrxy q1, 0.1, 0.7\n{ measure q0 -> a | measure q1 -> b }\n")
_MID_CIRCUIT = ("reset q0\nreset q1\nrxy q0, 0.0, 0.5\n{ measure q0 -> a | rxy q1, 0.5, 0.4 }\n"
                "cz q0, q1\nrxy q0, 0.3, 0.5\n{ measure q0 -> b | measure q1 -> c }\n")
_PIN_NOISE = NoiseParams(t1=(2e-7, 3e-7), t2=(1e-7, 4e-7))


class TestPinnedSamples:
    @pytest.mark.parametrize("backend, text, seed, expected", [
        ("ideal", _TERMINAL, 7, {
            "a": [0, 1, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0],
            "b": [1, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1]}),
        ("noisy", _TERMINAL, 5, {
            "a": [1, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 1],
            "b": [1, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1]}),
        ("ideal", _MID_CIRCUIT, 7, {
            "a": [0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 0],
            "b": [0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1],
            "c": [0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0]}),
        ("noisy", _MID_CIRCUIT, 5, {
            "a": [0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0],
            "b": [0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1, 0],
            "c": [0, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0, 1]}),
    ], ids=["ideal-terminal", "noisy-terminal", "ideal-per-shot", "noisy-per-shot"])
    def test_registers(self, backend, text, seed, expected):
        p = parse_program(text)
        if backend == "ideal":
            record = run_ideal(p, mode="sampled", n_avg=16, seed=seed)
        else:
            record = run_noisy(p, _PIN_NOISE, mode="sampled", n_avg=16, seed=seed)
        assert record.registers == expected

    @pytest.mark.parametrize("mode, n_avg", [
        pytest.param("sampled", 0, id="0"), pytest.param("sampled", -1, id="-1"),
        ("sampled", simulator.MAX_SHOTS + 1),
        ("exact", 0), ("exact", -1), ("exact", simulator.MAX_SHOTS + 1)])
    def test_nonpositive_shot_count_rejected(self, mode, n_avg):
        """A shot count outside 1..MAX_SHOTS fails in either mode, as in a config."""
        p = parse_program(_TERMINAL)
        message = r"^n_avg must lie in 1\.\.1000000, got "
        with pytest.raises(ValidationError, match=message):
            run_ideal(p, mode=mode, n_avg=n_avg)
        with pytest.raises(ValidationError, match=message):
            run_noisy(p, _PIN_NOISE, mode=mode, n_avg=n_avg)


class TestHamiltonian:
    def test_exchange_spectrum(self):
        """w=0 leaves the isotropic exchange: triplet at +1, singlet at -3."""
        H = hamiltonian_matrix(0.0, 0.3, 0.4, 0.5, 0.6)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(H)), [-3, 1, 1, 1],
                                   atol=1e-12)

    def test_flip_flop_element(self):
        H = hamiltonian_matrix(0.0, 0.1, 0.2, 0.3, 0.4)
        # <01|H|10> couples q0-up to q1-up with weight 2 (XX + YY)
        assert H[1, 2] == pytest.approx(2.0)

    def test_zero_fields_same_as_zero_w(self):
        np.testing.assert_allclose(hamiltonian_matrix(7.0, 0, 0, 0, 0),
                                   hamiltonian_matrix(0.0, 0.9, 0.9, 0.9, 0.9))

    def test_hermitian(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            H = hamiltonian_matrix(rng.uniform(0, 30), *rng.uniform(-1, 1, 4))
            assert np.max(np.abs(H - H.conj().T)) < 1e-14


class TestExactEvolution:
    def test_time_zero_is_identity(self):
        H = hamiltonian_matrix(1.0, 0.1, 0.2, 0.3, 0.4)
        initial = StateVector(2, np.array([0, 1, 0, 0], dtype=complex))
        out = exact_evolution(H, 0.0, initial)
        np.testing.assert_allclose(out.amplitudes, initial.amplitudes, atol=1e-14)

    def test_diagonal_hamiltonian_preserves_basis_probabilities(self):
        H = np.diag([0.5, -1.0, 2.0, 0.0]).astype(complex)
        initial = StateVector(2, np.array([0, 0, 1, 0], dtype=complex))
        out = exact_evolution(H, 1.7, initial)
        np.testing.assert_allclose(np.abs(out.amplitudes), np.abs(initial.amplitudes),
                                   atol=1e-12)

    def test_composition(self):
        H = hamiltonian_matrix(2.0, 0.4, -0.3, 0.2, -0.1)
        initial = StateVector.ground(2)
        one = exact_evolution(H, 0.8, exact_evolution(H, 0.5, initial))
        two = exact_evolution(H, 1.3, initial)
        np.testing.assert_allclose(one.amplitudes, two.amplitudes, atol=1e-10)

    def test_non_hermitian_rejected(self):
        with pytest.raises(QcoprocError, match="^Hamiltonian must be Hermitian$") as err:
            exact_evolution(np.array([[0, 1], [0, 0]], dtype=complex), 1.0,
                            StateVector.ground(1))
        assert type(err.value) is QcoprocError

    def test_single_trotter_step_fidelity(self):
        """The k=1 circuit state has fidelity 1 - O(tau^2) vs exact evolution."""
        rng = np.random.default_rng(29)
        r = workload.sample_disorder(1.0, 0.04 * PI, 1, rng)
        H = hamiltonian_matrix(r.w, r.h0x, r.h0y, r.h1x, r.h1y)
        exact = exact_evolution(H, r.tau, StateVector(2, np.array([0, 1, 0, 0],
                                                                  dtype=complex)))
        U = workload.trotter_interval_unitary(r)
        circuit_state = U @ np.array([0, 1, 0, 0], dtype=complex)
        fidelity = abs(np.vdot(exact.amplitudes, circuit_state)) ** 2
        assert fidelity > 1 - 10 * r.tau ** 2
        assert fidelity < 1 + 1e-12


class TestBloch:
    def test_poles(self):
        assert bloch_angles(np.array([1, 0], dtype=complex)) == BlochVector(0.0, 0.0)
        south = bloch_angles(np.array([0, 1], dtype=complex))
        assert south.theta == pytest.approx(PI)
        assert south.phi == 0.0

    def test_equator_plus_i(self):
        state = np.array([1, 1j], dtype=complex) / math.sqrt(2)
        v = bloch_angles(state)
        assert v.theta == pytest.approx(PI / 2)
        assert v.phi == pytest.approx(PI / 2)

    def test_not_normalized_rejected(self):
        with pytest.raises(QcoprocError, match="^state is not normalized$") as err:
            bloch_angles(np.array([1, 1], dtype=complex))
        assert type(err.value) is QcoprocError

    def test_trajectory_point_count_and_endpoint(self):
        points = rotation_trajectory(key(0.2, 1.0), n_steps=20)
        assert len(points) == 21
        assert points[0] == BlochVector(0.0, 0.0)
        assert points[-1].theta == pytest.approx(PI)

    def test_trajectory_zero_rotation_stays_north(self):
        assert all(p.theta == 0.0 for p in rotation_trajectory(key(0.7, 0.0), 10))

    def test_trajectory_midpoint_of_x_pi(self):
        mid = rotation_trajectory(key(0, 1.0), 20)[10]
        assert mid.theta == pytest.approx(PI / 2)
        assert mid.phi == pytest.approx(1.5 * PI)

    def test_trajectory_orthogonal_to_axis(self):
        """Every point of the great circle is orthogonal to the rotation axis."""
        phi_axis = 0.2 * PI
        axis = np.array([math.cos(phi_axis), math.sin(phi_axis), 0.0])
        for p in rotation_trajectory(key(0.2, 1.0), 20):
            vec = np.array([math.sin(p.theta) * math.cos(p.phi),
                            math.sin(p.theta) * math.sin(p.phi),
                            math.cos(p.theta)])
            assert abs(axis @ vec) < 1e-9


class TestNaNFailsNormChecks:
    """A NaN norm, trace or defect fails its check: ``abs(x - 1) > tol`` is false
    for NaN, so each check is written as ``not abs(x - 1) <= tol``."""

    def test_state_vector_rejected(self):
        with pytest.raises(QcoprocError, match="^state vector norm differs from 1") as err:
            StateVector(1, [math.nan, 0])
        assert type(err.value) is QcoprocError

    def test_checked_probabilities_rejected(self):
        with pytest.raises(ValidationError, match="drifted to nan"):
            simulator._checked_probabilities(np.array([math.nan, 0.5]), "state norm")

    def test_bloch_angles_rejected(self):
        with pytest.raises(QcoprocError, match="^state is not normalized$") as err:
            bloch_angles(np.array([math.nan, 0], dtype=complex))
        assert type(err.value) is QcoprocError

    @pytest.mark.parametrize("entries", [[[math.nan, 0], [0, 0]],
                                         [[1, math.nan], [math.nan, 0]]])
    def test_density_matrix_validate_rejected(self, entries):
        with pytest.raises(ValidationError):
            DensityMatrix(1, entries).validate()

    def test_nan_state_fails_prob_one_and_project(self):
        """``min(1.0, nan)`` is 1.0 and ``nan < 1e-12`` is false, so a NaN put
        into a valid state must be caught by the probability read itself."""
        sv = StateVector.ground(1)
        sv.amplitudes = np.array([1, math.nan], dtype=complex)
        rho = DensityMatrix.ground(1)
        rho.entries = np.diag([0.5, math.nan]).astype(complex)
        for state in (sv, rho):
            with pytest.raises(ValidationError, match="nan"):
                state.prob_one(0)
            with pytest.raises(ValidationError, match="nan"):
                state.project(0, 1)

    def test_nan_in_discarded_half_survives_reset(self):
        """Collapse multiplies by the outcome's mask, so NaN * 0 stays NaN and
        the next probability read fails; masking it away hid the NaN."""
        sv = StateVector.ground(1)
        sv.amplitudes = np.array([1, math.nan], dtype=complex)
        rho = DensityMatrix.ground(1)
        rho.entries = np.diag([1, math.nan]).astype(complex)
        for state in (sv, rho):
            state.reset(0)
            with pytest.raises(ValidationError, match="nan"):
                state.basis_probabilities()

    def test_nan_hamiltonian_rejected(self):
        with pytest.raises(QcoprocError, match="^Hamiltonian must be Hermitian$") as err:
            simulator.evolution_operator(np.array([[math.nan, 0], [0, 1.0]]), 1.0)
        assert type(err.value) is QcoprocError


_parts = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def _pure_states(draw):
    """A normalized state of 1 to 3 qubits."""
    n = draw(st.integers(1, 3))
    values = draw(st.lists(st.builds(complex, _parts, _parts),
                           min_size=1 << n, max_size=1 << n))
    psi = np.array(values, dtype=complex)
    norm = np.linalg.norm(psi)
    if not norm > 1e-3:
        psi, norm = np.eye(1 << n, 1, dtype=complex)[:, 0], 1.0
    return n, psi / norm


@settings(max_examples=150, deadline=None)
@given(_pure_states(), st.data())
def test_both_states_read_and_collapse_a_pure_state_alike(state, data):
    """StateVector(psi) and DensityMatrix(psi psi^dagger) share their readout
    and collapse, so they agree on P(|1>) and on the collapsed state."""
    n, psi = state
    q = data.draw(st.integers(0, n - 1))
    sv, rho = StateVector(n, psi), DensityMatrix(n, np.outer(psi, psi.conj()))
    assert abs(sv.prob_one(q) - rho.prob_one(q)) <= 1e-12
    outcome = data.draw(st.integers(0, 1))
    if (sv.prob_one(q) if outcome else 1.0 - sv.prob_one(q)) < 1e-6:
        return
    sv.project(q, outcome)
    rho.project(q, outcome)
    projected = np.outer(sv.amplitudes, sv.amplitudes.conj())
    assert np.max(np.abs(rho.entries - projected)) <= 1e-12


class TestMeasurementRecord:
    def test_exact_json(self):
        body = MeasurementRecord(mode="exact", registers={"m": 0.25}).to_json_dict()
        assert body == {"mode": "exact", "registers": {"m": 0.25}}

    def test_sampled_json_includes_n_avg(self):
        record = MeasurementRecord(mode="sampled", registers={"m": [0, 1, 1]}, n_avg=3)
        body = record.to_json_dict()
        assert body["n_avg"] == 3
        assert body["registers"]["m"] == [0, 1, 1]

    def test_probabilities_from_bits(self):
        record = MeasurementRecord(mode="sampled", registers={"m": [0, 1, 1, 1]}, n_avg=4)
        assert record.probabilities()["m"] == 0.75
