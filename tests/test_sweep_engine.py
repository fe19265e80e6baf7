"""The sweep engine against the per-program backends it replaces in the sweep."""

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoproc import isa, simulator, workload
from qcoproc.errors import ValidationError
from qcoproc.isa import (CZ, RotationKey, Rxy, TimeSlot, basis_bit, kron, ordered_product, slot,
                         slot_unitaries, slot_unitary)
from qcoproc.simulator import DensityMatrix, NoiseParams, run_ideal, run_noisy
from qcoproc.workload import (ExperimentConfig, build_native_circuit, derive_seed,
                              imbalance, paged_programs, run_experiment)

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "experiment_default.json"


@st.composite
def _noise(draw):
    """Physical per-qubit T1/T2 (T2 <= 2 T1) between 0.1 and 100 us."""
    t1 = tuple(draw(st.floats(1e-7, 1e-4)) for _ in range(2))
    t2 = tuple(draw(st.floats(1e-7, 2 * t)) for t in t1)
    return NoiseParams(t1=t1, t2=t2)


@st.composite
def _configs(draw):
    backend = draw(st.sampled_from(("ideal", "noisy")))
    return ExperimentConfig(
        w_values=tuple(draw(st.lists(st.floats(0.0, 30.0), min_size=1, max_size=2,
                                     unique=True))),
        n_realizations=draw(st.integers(1, 5)),
        tau=draw(st.floats(0.005, 0.1)) * math.pi,
        n_steps=draw(st.integers(0, 4)),
        master_seed=draw(st.integers(0, 2**32)),
        backend=backend,
        noise=draw(_noise()) if backend == "noisy" else None,
        measurement_mode=draw(st.sampled_from(("exact", "sampled"))),
        n_avg=64)


def _oracle_imbalance(config: ExperimentConfig, r, k: int) -> float:
    """I(k) of one realization from the per-program backend, with the sweep's
    shot seed for step k."""
    program = build_native_circuit(r, k)
    seed = derive_seed(r.seed, 0, k)
    if config.backend == "ideal":
        record = run_ideal(program, mode=config.measurement_mode, n_avg=config.n_avg,
                           seed=seed)
    else:
        record = run_noisy(program, config.noise, mode=config.measurement_mode,
                           n_avg=config.n_avg, seed=seed)
    probs = record.probabilities()
    return imbalance(probs["q0mZ"], probs["q1mZ"])


@settings(max_examples=40, deadline=None)
@given(_configs())
def test_engine_curves_equal_per_program_backends(config):
    """Up to ten realizations in one block: its interval maps mix positions of
    one shared slot (the tau-only ones) with stacks of unshared slots."""
    result = run_experiment(config)
    for w in config.w_values:
        for r, curve in zip(result.realizations[w], result.series[w].per_realization):
            assert len(curve) == config.n_steps + 1
            for k, value in enumerate(curve):
                assert abs(value - _oracle_imbalance(config, r, k)) < 1e-12


def test_default_chip_noise_is_used_without_a_noise_block():
    config = ExperimentConfig(w_values=(25.0,), n_realizations=1, n_steps=3,
                              backend="noisy")
    result = run_experiment(config)
    r, curve = result.realizations[25.0][0], result.series[25.0].per_realization[0]
    chip = ExperimentConfig(**{**config.__dict__, "noise": NoiseParams.octobox_defaults()})
    for k, value in enumerate(curve):
        assert abs(value - _oracle_imbalance(chip, r, k)) < 1e-12


_angles = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))


@st.composite
def _same_shape_slots(draw, n_qubits=None, n_slots=None):
    """(n_qubits, slots): 1-4 slots of one shape, the same kinds on the same
    qubits in the same order, on 1-3 qubits, with keys of gamma 0, phi 0 and
    negative gamma among them; or ``n_slots`` slots on ``n_qubits``."""
    n_qubits = draw(st.integers(1, 3)) if n_qubits is None else n_qubits
    order = draw(st.permutations(range(n_qubits)))
    shape, i = [], 0
    while i < n_qubits:
        kind = draw(st.sampled_from(("rxy", "cz", "idle") if i + 1 < n_qubits else ("rxy", "idle")))
        if kind == "cz":
            shape.append(order[i:i + 2])
        elif kind == "rxy":
            shape.append(order[i])
        i += 2 if kind == "cz" else 1

    def instruction(qubits):
        if isinstance(qubits, int):
            return Rxy(qubits, RotationKey.make(draw(_angles), draw(_angles)))
        return CZ(*qubits)

    n_slots = draw(st.integers(1, 4)) if n_slots is None else n_slots
    return n_qubits, [TimeSlot(tuple(instruction(q) for q in shape)) for _ in range(n_slots)]


def _slot_unitary_ref(s: TimeSlot, n_qubits: int) -> np.ndarray:
    """A slot built alone as the per-slot builder formed it: each Rxy matrix
    from its key's scalars, embedded by a chain of ``np.kron`` calls, each
    instruction multiplied in order onto the identity."""
    U = np.eye(1 << n_qubits, dtype=complex)
    for instr in s.instructions:
        if isinstance(instr, Rxy):
            c, sin = math.cos(instr.key.gamma / 2), math.sin(instr.key.gamma / 2)
            e = np.exp(1j * instr.key.phi)
            M = np.ones((1, 1), dtype=complex)
            for q in range(n_qubits - 1, -1, -1):
                M = np.kron(M, np.array([[c, -1j * sin / e], [-1j * sin * e, c]], dtype=complex)
                            if q == instr.qubit else np.eye(2, dtype=complex))
        else:
            both = basis_bit(instr.qa, n_qubits) & basis_bit(instr.qb, n_qubits)
            M = np.diag((1 - 2 * both).astype(complex))
        U = M @ U
    return U


@settings(max_examples=100, deadline=None)
@given(_same_shape_slots(), _noise())
def test_stacked_slot_maps_equal_per_slot_maps_exactly(case, noise):
    """Matrix i of a stack equals the slot built alone, bit for bit: the
    unitary, and the noisy map decay @ kron(V, conj V) that the engine steps."""
    n_qubits, slots = case
    noise = NoiseParams(t1=noise.t1 + (3e-5,), t2=noise.t2 + (2e-5,))
    stack = slot_unitaries(slots, n_qubits)
    decay = simulator._decay_map(noise, noise.slot_duration(slots[0]), n_qubits)
    maps = decay @ kron(stack, stack.conj())
    assert stack.shape == (len(slots), 1 << n_qubits, 1 << n_qubits)
    for s, V, M in zip(slots, stack, maps):
        alone = slot_unitary(s, n_qubits)
        assert V.tobytes() == alone.tobytes() == _slot_unitary_ref(s, n_qubits).tobytes()
        assert M.tobytes() == (decay @ kron(alone, alone.conj())).tobytes()


_ONE_RXY = slot(Rxy(0, RotationKey.make(0.0, 1.0)))
_TWO_RXY = slot(Rxy(0, RotationKey.make(0.0, 1.0)), Rxy(1, RotationKey.make(0.0, 1.0)))


@pytest.mark.parametrize("intervals, message", [
    ([(slot(CZ(0, 1)),), (slot(CZ(0, 1)), slot(CZ(0, 1)))],
     r"^intervals must be of one length, got lengths \[1, 2\]$"),
    ([(slot(CZ(0, 1)),), (slot(CZ(1, 0)),)], r"^slots of one stack differ in shape: "),
    ([(slot(Rxy(0, RotationKey.make(0.0, 1.0))),), (slot(Rxy(1, RotationKey.make(0.0, 1.0))),)],
     r"^slots of one stack differ in shape: "),
    pytest.param([(_ONE_RXY,), (_TWO_RXY,)], "^slots of one stack differ in shape: "
                 + re.escape(f"{_ONE_RXY} and {_TWO_RXY}") + "$", id="one-and-two-rxy"),
])
@pytest.mark.parametrize("backend", ["ideal", "noisy"])
def test_engine_rejects_intervals_that_do_not_stack(intervals, message, backend):
    noise = NoiseParams.octobox_defaults() if backend == "noisy" else None
    with pytest.raises(ValidationError, match=message) as err:
        simulator.sweep_probabilities([((), i, ()) for i in intervals], 2, 2, noise)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("which", ["heads", "tails"])
@pytest.mark.parametrize("backend", ["ideal", "noisy"])
def test_engine_rejects_heads_or_tails_of_unequal_length(which, backend):
    noise = NoiseParams.octobox_defaults() if backend == "noisy" else None
    parts = [(_TWO_RXY,), (_TWO_RXY, _TWO_RXY)]
    evolutions = [(p, (), ()) if which == "heads" else ((), (), p) for p in parts]
    with pytest.raises(ValidationError,
                       match=rf"^{which} must be of one length, got lengths \[1, 2\]$"):
        simulator.sweep_probabilities(evolutions, 2, 2, noise)


def test_engine_rejects_noise_for_too_few_qubits():
    with pytest.raises(ValidationError, match="^noise parameters cover 1 qubits, program uses 2$"):
        simulator.sweep_probabilities([((), (), ())], 1, 2, NoiseParams(t1=(1e-5,), t2=(1e-5,)))


def test_density_matrix_prob_one_clips_rounding_below_zero():
    rho = DensityMatrix(2, np.diag([1.0, -6e-33, 0.0, 0.0]).astype(complex))
    assert rho.prob_one(0) == 0.0
    assert rho.prob_one(1) == 0.0


def _per_k_curve(r, config: ExperimentConfig, noise) -> list[float]:
    """I(k) by the per-k loop the engine's stacked read replaced: each k's state
    read and checked on its own, the noisy slot maps built with ``np.kron``, and
    each k clipped and reduced on its own."""
    if noise is None:
        size = 4

        def slot_map(s):
            return slot_unitary(s, 2)

        def read(psi):
            return simulator._checked_probabilities(np.abs(psi) ** 2, "state norm")
    else:
        size = 16

        def slot_map(s):
            U = slot_unitary(s, 2)
            decay = simulator._decay_map(noise, noise.slot_duration(s), 2)
            return decay @ np.kron(U, U.conj())

        def read(vec):
            return simulator._checked_probabilities(vec[::5].real, "density matrix trace")

    def product(slots):
        return ordered_product(map(slot_map, slots), size)

    state = np.zeros(size, dtype=complex)
    state[0] = 1.0
    head, interval, tail = workload.evolution(r)
    state = product(head) @ state
    step, back = product(interval), product(tail)
    bits = np.array([basis_bit(0, 2), basis_bit(1, 2)])
    curve = []
    for k in range(r.n_steps + 1):
        p = read(back @ state)
        state = step @ state
        if config.measurement_mode == "sampled":
            rng = np.random.default_rng(derive_seed(r.seed, 0, k))
            p0, p1 = bits[:, rng.choice(4, size=config.n_avg, p=p)].mean(axis=1)
        else:
            p0, p1 = np.clip(bits @ p, 0.0, 1.0)
        curve.append(imbalance(float(p0), float(p1)))
    return curve


@pytest.fixture(scope="module")
def default_realizations():
    """The shipped config's 120 realizations, in stream order."""
    config = ExperimentConfig.from_json_dict(json.loads(DEFAULT_CONFIG.read_text()))
    return [r for _, r, _ in paged_programs(config)]


@pytest.mark.parametrize("backend", ["ideal", "noisy"])
@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_imbalance_curve_equals_per_k_loop_exactly(default_realizations, backend, mode):
    noise = NoiseParams.octobox_defaults() if backend == "noisy" else None
    config = ExperimentConfig(backend=backend, noise=noise, measurement_mode=mode)
    assert len(default_realizations) == 120
    curves = workload._imbalance_curves(default_realizations, config)
    assert curves.shape == (120, 11)
    for r, curve in zip(default_realizations, curves):
        assert curve.tolist() == _per_k_curve(r, config, noise)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_curves_take_their_noise_from_the_config(default_realizations, mode):
    """The ideal backend ignores a noise block, the noisy one runs it, and
    without one the noisy backend runs the chip's measured values."""
    realizations = default_realizations[::12]
    noise = NoiseParams(t1=(3e-6, 5e-6), t2=(2e-6, 9e-6))

    def rows(**fields):
        config = ExperimentConfig(measurement_mode=mode, n_avg=64, **fields)
        return workload._imbalance_curves(realizations, config).tolist()

    assert rows(backend="ideal", noise=noise) == rows(backend="ideal")
    assert rows(backend="noisy") == rows(backend="noisy", noise=NoiseParams.octobox_defaults())
    assert rows(backend="noisy", noise=noise) != rows(backend="noisy")


def test_sweep_builds_only_the_shared_slots_through_the_slot_cache(default_realizations):
    """Of the 120 default realizations' interval slots, only the 8 tau-only
    slots every realization shares, and the prologue and epilogue, are built
    one by one; the rest are stacks built outside the cache."""
    isa._slot_unitary_cached.cache_clear()
    workload._imbalance_curves(default_realizations, ExperimentConfig())
    assert isa._slot_unitary_cached.cache_info().misses <= 10


def _realizations(n: int, n_steps: int) -> list:
    """``n`` w = 25 realizations of ``n_steps`` steps."""
    return [workload.sample_disorder(25.0, workload.DEFAULT_TAU, n_steps,
                                     np.random.default_rng(derive_seed(5, 0, i)), seed=i)
            for i in range(n)]


@pytest.mark.parametrize("backend", ["ideal", "noisy"])
@pytest.mark.parametrize("n_steps", [0, 1, 10])
@pytest.mark.parametrize("n_intervals", [1, 7, 17])
def test_batched_rows_equal_single_interval_calls_exactly(backend, n_steps, n_intervals):
    """A call of 17 realizations steps them as one stack, wider than the 16 of
    a noisy sweep block; each row equals a call on its realization alone."""
    noise = NoiseParams.octobox_defaults() if backend == "noisy" else None
    evolutions = [workload.evolution(r) for r in _realizations(n_intervals, n_steps)]

    def sweep(evolutions):
        return simulator.sweep_probabilities(evolutions, n_steps, 2, noise)

    batched = sweep(evolutions)
    assert batched.shape == (n_intervals, n_steps + 1, 4)
    for row, evolution in zip(batched, evolutions):
        assert row.tobytes() == sweep([evolution])[0].tobytes()


@st.composite
def _own_parts(draw, n):
    """A head or a tail for each of ``n`` realizations: 0-3 positions of one
    shape each, holding one shared slot object, distinct slot objects that
    are equal, or slots of that shape with their own angles."""
    parts = [() for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        _, slots = draw(_same_shape_slots(n_qubits=2, n_slots=n))
        kind = draw(st.sampled_from(("shared", "equal", "own")))
        if kind == "shared":
            slots = [slots[0]] * n
        elif kind == "equal":
            slots = [TimeSlot(slots[0].instructions) for _ in range(n)]
        parts = [part + (s,) for part, s in zip(parts, slots)]
    return parts


@st.composite
def _own_heads_and_tails(draw):
    """(n_steps, evolutions): 1-20 realizations' intervals, each with its own
    head and tail."""
    n, n_steps = draw(st.integers(1, 20)), draw(st.integers(0, 3))
    heads, tails = draw(_own_parts(n)), draw(_own_parts(n))
    intervals = [workload.evolution(r)[1] for r in _realizations(n, n_steps)]
    return n_steps, list(zip(heads, intervals, tails))


@settings(max_examples=60, deadline=None)
@given(_own_heads_and_tails(), st.one_of(st.none(), _noise()))
def test_rows_of_own_heads_and_tails_equal_single_calls_exactly(case, noise):
    """Heads and tails that differ per realization are stacks, built as the
    intervals are, so each row still equals a call on its evolution alone."""
    n_steps, evolutions = case
    batched = simulator.sweep_probabilities(evolutions, n_steps, 2, noise)
    assert batched.shape == (len(evolutions), n_steps + 1, 4)
    for row, evolution in zip(batched, evolutions):
        alone = simulator.sweep_probabilities([evolution], n_steps, 2, noise)
        assert row.tobytes() == alone[0].tobytes()


@pytest.mark.parametrize("n_steps, ideal, noisy", [
    (0, 256, 16), (10, 157, 16), (500, 7, 7), (1000, 4, 4), (workload.MAX_STEPS, 1, 1)])
def test_sweep_block_bounds_points_and_map_entries(n_steps, ideal, noisy):
    """About 4 096 (realization, k) points or map entries, whichever is more:
    16 entries per ideal realization, 256 per noisy one, against n_steps + 16
    points."""
    assert simulator.sweep_block(n_steps, 2, None) == ideal
    assert simulator.sweep_block(n_steps, 2, NoiseParams.octobox_defaults()) == noisy


def _counting_sweep(monkeypatch) -> list:
    """The number of evolutions of each ``sweep_probabilities`` call, in order."""
    sweep, calls = simulator.sweep_probabilities, []

    def counting_sweep(evolutions, *args):
        calls.append(len(evolutions))
        return sweep(evolutions, *args)

    monkeypatch.setattr(simulator, "sweep_probabilities", counting_sweep)
    return calls


@pytest.mark.parametrize("n_realizations, n_steps, blocks", [
    (10, 1000, {"ideal": [4, 4, 2], "noisy": [4, 4, 2]}),
    (40, 10, {"ideal": [40], "noisy": [16, 16, 8]}),
], ids=["10x1000", "40x10"])
@pytest.mark.parametrize("backend", ["ideal", "noisy"])
@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_curves_of_several_blocks_equal_per_k_loop_exactly(monkeypatch, backend, mode,
                                                           n_realizations, n_steps, blocks):
    """At n_steps 1000 a block holds 4 realizations, so 10 make blocks of 4, 4
    and 2; at n_steps 10 a noisy block holds 16, so 40 make blocks of 16, 16
    and 8, and an ideal one holds all 40.  Each row still equals the per-k loop."""
    noise = NoiseParams.octobox_defaults() if backend == "noisy" else None
    config = ExperimentConfig(n_steps=n_steps, backend=backend, noise=noise,
                              measurement_mode=mode, n_avg=16)
    realizations = _realizations(n_realizations, config.n_steps)
    calls = _counting_sweep(monkeypatch)
    curves = workload._imbalance_curves(realizations, config)
    assert calls == blocks[backend]
    for r, curve in zip(realizations, curves):
        assert curve.tolist() == _per_k_curve(r, config, noise)


def test_noisy_blocks_share_one_decay_map_per_slot_duration(monkeypatch, default_realizations):
    """The default noisy sweep's 8 engine calls build 2 decay maps, one for
    20 ns slots and one for 40 ns slots, cached read-only."""
    simulator._decay_map.cache_clear()
    calls = _counting_sweep(monkeypatch)
    workload._imbalance_curves(default_realizations, ExperimentConfig(backend="noisy"))
    assert calls == [16] * 7 + [8]
    assert simulator._decay_map.cache_info().misses == 2
    decay = simulator._decay_map(NoiseParams.octobox_defaults(), 20e-9, 2)
    assert simulator._decay_map.cache_info().misses == 2
    assert not decay.flags.writeable


@pytest.mark.parametrize("backend", ["ideal", "noisy"])
def test_sampled_sweep_draws_every_shot_through_the_backends_draw(monkeypatch, backend):
    """The sweep draws the shots of each (realization, k) point once, through
    ``simulator.draw_shots``, seeded ``derive_seed(r.seed, 0, k)``, in order."""
    noise = NoiseParams.octobox_defaults() if backend == "noisy" else None
    config = ExperimentConfig(n_steps=3, backend=backend, noise=noise,
                              measurement_mode="sampled", n_avg=16)
    realizations = _realizations(3, config.n_steps)
    draw, calls = simulator.draw_shots, []

    def recording_draw(probs, n_avg, seed):
        calls.append((len(probs), n_avg, seed))
        return draw(probs, n_avg, seed)

    monkeypatch.setattr(simulator, "draw_shots", recording_draw)
    curves = workload._imbalance_curves(realizations, config)
    assert len(calls) == len(realizations) * (config.n_steps + 1)
    assert calls == [(4, 16, derive_seed(r.seed, 0, k))
                     for r in realizations for k in range(config.n_steps + 1)]
    for r, curve in zip(realizations, curves):
        assert curve.tolist() == _per_k_curve(r, config, noise)


def test_curves_peak_memory_stays_within_a_block():
    """400 noisy realizations x 500 steps run in blocks of 7.  The traced peak
    holds the 400 x 501 result (1.6 MB) and one block's stacks: 2.50 MB
    measured in the suite, 2.68 MB in a fresh process (Python 3.11, numpy
    2.4).  Stepping every realization in one block reads 32.9 MB, and
    keeping every vec(rho) of a block instead of its diagonal 3.09 MB."""
    noise = NoiseParams.octobox_defaults()
    config = ExperimentConfig(n_steps=500, backend="noisy", noise=noise)
    realizations = _realizations(400, config.n_steps)
    tracemalloc.start()
    try:
        workload._imbalance_curves(realizations, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75e6, peak


def test_curves_peak_memory_of_wide_noisy_blocks_stays_bounded():
    """4 096 noisy realizations at n_steps 0 run in blocks of 16, each one
    engine call.  The traced peak is 0.66 MB measured in the suite, 0.87 MB
    in a fresh process (Python 3.11, numpy 2.4); blocks of 256 realizations,
    stepped 16 at a time, read 1.01 MB, and building the maps of 256 at once
    4.92 MB."""
    noise = NoiseParams.octobox_defaults()
    config = ExperimentConfig(n_steps=0, backend="noisy", noise=noise)
    realizations = _realizations(4096, config.n_steps)
    tracemalloc.start()
    try:
        workload._imbalance_curves(realizations, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4e6, peak


def test_checked_probabilities_of_a_stack_equal_row_by_row_calls():
    rng = np.random.default_rng(11)
    for rows, dim in ((1, 4), (11, 4), (51, 16)):
        psi = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        probs = np.abs(psi) ** 2
        probs[0, :2] = -1e-17, probs[0, 1] + probs[0, 0]  # a rounding below zero, clipped
        # rho = |psi><psi| as a row-major vec, whose diagonal the noisy read takes
        vec_rho = (psi[:, :, None] * psi[:, None, :].conj()).reshape(rows, dim * dim)
        for stack in (probs, vec_rho[:, ::dim + 1].real):
            one_by_one = [simulator._checked_probabilities(p, "norm") for p in stack]
            assert np.array_equal(simulator._checked_probabilities(stack, "norm"),
                                  np.array(one_by_one))


@pytest.mark.parametrize("bad_sum", [1.5, math.nan])
def test_checked_probabilities_raise_on_a_bad_row_and_name_its_sum(bad_sum):
    probs = np.full((3, 4), 0.25)
    probs[1, 0] = bad_sum - 0.75
    with pytest.raises(ValidationError, match=f"state norm drifted to {bad_sum}$"):
        simulator._checked_probabilities(probs, "state norm")
