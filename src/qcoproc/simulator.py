"""Execution backends for native programs, the sweep engine, and the
exact-evolution oracle.

Both backends run through one slot loop, ``_run``, which owns the exact,
terminal-sampled and per-shot branches and the measurement RNG.  The two
states share their readout and collapse, ``State``'s ``prob_one``, ``project``
and ``basis_probabilities``; what differs per representation is ``evolve``,
``reset``, the basis populations and the masked collapse.  The ideal backend
evolves a ``StateVector``, where reset is a projection onto |0>.  The noisy
backend evolves a ``DensityMatrix``, where reset traces the qubit out, and its
after-slot hook applies per-qubit T1/T2 decay for the slot's duration
(single-qubit 20 ns, cZ 40 ns by default; qubits idling during a slot decohere
for the full slot duration).  Both reset and the decay are one closed form,
``_decay``, that scales and moves blocks of rho picked out by a qubit's bit.

Measurement records either exact probabilities (no collapse, the default for
the deterministic experiment pipeline) or per-shot sampled bits with collapse.
Sampling is vectorized over shots (``draw_shots``) when every measurement is terminal.

``sweep_probabilities`` is the engine behind the disorder sweep.  It takes one
``(head, interval, tail)`` of unitary slots per realization, the interval
repeated k times, and builds the maps of all heads, all intervals and all
tails together, one slot position at a time as a stack (a slot that every
realization shares at a position is built once, so a shared head or tail is
one map), and steps the states of all realizations together, k = 0..N, with
one stacked product per k.  Its callers size each call with ``sweep_block``,
one rule that bounds both the rows and the stacks a call holds.  numpy
multiplies each matrix of a stack on its own, so a row of the result equals a
call on its realization alone, bit for bit.  Of each state at measurement it
keeps the amplitudes, or the diagonal of rho, and reads the probabilities of
all of them in one checked call.  The ideal engine multiplies slot unitaries;
the noisy one multiplies superoperators on a row-major vec(rho), each a slot's decay map (``_decay``
applied to every basis matrix) times kron(U, conj(U)).
``run_ideal`` and ``run_noisy`` stay the per-program oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QcoprocError, ValidationError, check_range
from .isa import (CZ, Measure, QuantumProgram, Reset, RotationKey, Rxy, TimeSlot,
                  basis_bit, embed, kron, ordered_product, rxy_matrix, slot_unitaries,
                  slot_unitary)

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _checked_probabilities(probs: np.ndarray, what: str) -> np.ndarray:
    """Basis probabilities on the last axis, clipped at 0 and renormalized;
    raises if a sum (the state norm or trace) drifted from 1 beyond 1e-10."""
    totals = np.atleast_1d(probs.sum(axis=-1))
    drifted = totals[~(np.abs(totals - 1.0) <= 1e-10)]  # written so that NaN fails
    if drifted.size:
        raise ValidationError(f"{what} drifted to {float(drifted[0])}")
    probs = probs.clip(min=0.0)
    return probs / probs.sum(axis=-1, keepdims=True)


def as_float(name: str, value) -> float:
    """``value`` as a float: an int or a float, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        raise ValidationError(f"{name} is too large for a float") from None


def as_floats(name: str, values) -> tuple:
    """Each of ``values`` as a float, by :func:`as_float`."""
    try:
        return tuple(as_float(f"each {name} entry", v) for v in values)
    except TypeError:  # not iterable
        raise ValidationError(f"{name} must be a list of numbers, got {values!r}") from None


class State:
    """Readout and collapse, written once for both states over two hooks:
    ``_populations()``, the unnormalized basis populations, and
    ``_collapse(keep, prob)``, the collapse onto the basis states ``keep``
    whose populations sum to ``prob``."""

    n_qubits: int

    def prob_one(self, qubit: int) -> float:
        """P(|1>) of ``qubit``, clipped to [0, 1] against rounding; ``min``/``max``
        would turn NaN into a bound, so NaN raises first."""
        p = float(np.sum(self._populations()[basis_bit(qubit, self.n_qubits) == 1]))
        if math.isnan(p):
            raise ValidationError(f"P(|1>) of q{qubit} is nan")
        return min(1.0, max(0.0, p))

    def project(self, qubit: int, outcome: int, what: str = "measurement") -> None:
        """Collapse onto ``outcome`` of ``qubit``; an impossible outcome raises."""
        keep = basis_bit(qubit, self.n_qubits) == outcome
        prob = float(np.sum(self._populations()[keep]))
        if not prob >= 1e-12:  # NaN fails
            raise ValidationError(f"{what} outcome {outcome} on q{qubit} has "
                                  f"probability {prob:.3e}")
        self._collapse(keep, prob)

    def basis_probabilities(self) -> np.ndarray:
        return _checked_probabilities(self._populations(), self._norm)


@dataclass
class StateVector(State):
    n_qubits: int
    amplitudes: np.ndarray
    _norm = "state norm"

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValidationError("amplitude count must be 2**n_qubits")
        if not abs(np.sum(np.abs(self.amplitudes) ** 2) - 1.0) <= 1e-10:  # NaN fails
            raise QcoprocError("state vector norm differs from 1 beyond 1e-10")

    @staticmethod
    def ground(n_qubits: int) -> "StateVector":
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[0] = 1.0
        return StateVector(n_qubits, amps)

    def _populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def _collapse(self, keep: np.ndarray, prob: float) -> None:
        # a product, not a mask: NaN in the discarded half survives to the next check
        self.amplitudes = self.amplitudes * keep / math.sqrt(prob)

    def evolve(self, U: np.ndarray) -> None:
        self.amplitudes = U @ self.amplitudes

    def reset(self, qubit: int) -> None:
        """A pure state has no channel to re-prepare |0>: reset projects onto it."""
        self.project(qubit, 0, what="reset")


@dataclass
class DensityMatrix(State):
    n_qubits: int
    entries: np.ndarray
    _norm = "density matrix trace"

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        dim = 1 << self.n_qubits
        if self.entries.shape != (dim, dim):
            raise ValidationError("density matrix must be 2**n x 2**n")

    @staticmethod
    def ground(n_qubits: int) -> "DensityMatrix":
        dim = 1 << n_qubits
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return DensityMatrix(n_qubits, rho)

    def validate(self) -> None:
        # each check is written so that NaN fails it
        if not abs(np.trace(self.entries).real - 1.0) <= 1e-10:
            raise ValidationError(f"trace {np.trace(self.entries):.3e} != 1")
        if not np.max(np.abs(self.entries - self.entries.conj().T)) <= 1e-10:
            raise ValidationError("density matrix is not Hermitian")
        if not np.min(np.linalg.eigvalsh((self.entries + self.entries.conj().T) / 2)) >= -1e-9:
            raise ValidationError("density matrix has a significantly negative eigenvalue")

    def _populations(self) -> np.ndarray:
        return np.real(np.diag(self.entries))

    def _collapse(self, keep: np.ndarray, prob: float) -> None:
        # a product, not a mask: NaN in the discarded part survives to the next check
        self.entries = self.entries * np.outer(keep, keep) / prob

    def evolve(self, U: np.ndarray) -> None:
        self.entries = U @ self.entries @ U.conj().T

    def reset(self, qubit: int) -> None:
        """Trace the qubit out and re-prepare it in |0>."""
        self.entries = _decay(self.entries, qubit, self.n_qubits, p=1.0, coherence=0.0)


@dataclass(frozen=True)
class NoiseParams:
    """Per-qubit relaxation/coherence times and slot durations, in seconds."""

    t1: tuple
    t2: tuple
    single_qubit_gate_duration: float = 20e-9
    cz_duration: float = 40e-9

    def __post_init__(self):
        for name in ("t1", "t2"):
            object.__setattr__(self, name, as_floats(name, getattr(self, name)))
        for name in ("single_qubit_gate_duration", "cz_duration"):
            object.__setattr__(self, name, as_float(name, getattr(self, name)))
        # "not 0 < x < inf" also rejects NaN, which every comparison lets through
        if not all(0 < d < math.inf for d in (self.single_qubit_gate_duration, self.cz_duration)):
            raise ValidationError("gate durations must be positive and finite, got "
                                  f"{self.single_qubit_gate_duration} and {self.cz_duration}")
        if len(self.t1) != len(self.t2):
            raise ValidationError("t1 and t2 must cover the same qubits")
        for q, (t1, t2) in enumerate(zip(self.t1, self.t2)):
            if not (t1 > 0 and t2 > 0):
                raise ValidationError(f"q{q}: T1 and T2 must be positive numbers, "
                                      f"got {t1} and {t2}")
            if t2 > 2 * t1 + 1e-18:
                raise ValidationError(f"q{q}: T2 = {t2} exceeds 2*T1 = {2 * t1}")

    @staticmethod
    def octobox_defaults() -> "NoiseParams":
        """Measured values of the two-transmon test chip."""
        return NoiseParams(t1=(28e-6, 22e-6), t2=(4.2e-6, 38e-6))

    @staticmethod
    def noiseless(n_qubits: int = 2) -> "NoiseParams":
        return NoiseParams(t1=(math.inf,) * n_qubits, t2=(math.inf,) * n_qubits)

    def slot_duration(self, s: TimeSlot) -> float:
        d = 0.0
        for instr in s.instructions:
            if isinstance(instr, Rxy):
                d = max(d, self.single_qubit_gate_duration)
            elif isinstance(instr, CZ):
                d = max(d, self.cz_duration)
        return d


@dataclass
class MeasurementRecord:
    """Per-register outcome: exact probability of |1>, or per-shot bits."""

    mode: str
    registers: dict
    n_avg: int | None = None

    def probabilities(self) -> dict:
        """Collapse to {register: P(|1>)} in either mode."""
        out = {}
        for name, value in self.registers.items():
            out[name] = float(value) if isinstance(value, float) \
                else float(np.mean(value)) if len(value) else 0.0
        return out

    def to_json_dict(self) -> dict:
        body: dict = {"mode": self.mode}
        if self.mode == "sampled":
            body["n_avg"] = self.n_avg
        body["registers"] = dict(self.registers)  # floats, or lists of Python ints
        return body


def _validate_program(program: QuantumProgram) -> None:
    if program.n_qubits < 1:
        raise ValidationError("program has no qubits")
    measured = Counter(i.register for i in program.instructions() if isinstance(i, Measure))
    for name, count in measured.items():  # in order of first measurement
        if count > 1:
            raise ValidationError(f"register {name!r} is measured {count} times")


def _measures_are_terminal(program: QuantumProgram) -> bool:
    """True when nothing but further measurements follows the first measurement."""
    seen_measure = False
    for s in program.slots:
        has_measure = any(isinstance(i, Measure) for i in s.instructions)
        has_other = any(not isinstance(i, Measure) for i in s.instructions)
        if has_measure and has_other:
            return False
        if seen_measure and not has_measure:
            return False
        seen_measure = seen_measure or has_measure
    return True


# Sampled mode keeps and writes every shot of every register: one terminal
# measurement at the cap (`qcoproc run --mode sampled --n-avg 1000000` on
# `rxy q0, 0, 1` / `measure q0 -> m`) takes 0.7 s and 137 MB peak RSS and
# writes 9 MB, and each further register adds about 0.8 s and 95 MB (2 CPUs,
# Python 3.11, numpy 2.4).  Past about 9.2e18 numpy cannot size the shot array
# at all, a non-terminal program runs its slot loop once per shot, and a
# sampled experiment draws n_avg shots for every program of its sweep.  At the
# cap a shot mean's standard error is at most 5e-4.
MAX_SHOTS = 10**6


def check_sampling(mode: str, n_avg: int) -> None:
    """The shot-count, then the measurement-mode rule of a run and a config."""
    check_range("n_avg", n_avg, 1, MAX_SHOTS)
    if mode not in ("exact", "sampled"):
        raise ValidationError(f"unknown measurement mode {mode!r}")


def draw_shots(probs: np.ndarray, n_avg: int, seed: int | None) -> np.ndarray:
    """``n_avg`` basis indices drawn from ``probs``: ``_run``'s terminal shots and the sweep's."""
    return np.random.default_rng(seed).choice(len(probs), size=n_avg, p=probs)


def run_ideal(program: QuantumProgram, mode: str = "exact", n_avg: int = 1000,
              seed: int | None = None) -> MeasurementRecord:
    """Execute on the state-vector backend starting from |0...0>.

    Exact mode records P(|1>) at the moment of measurement without collapsing;
    sampled mode draws ``n_avg`` shots with collapse (vectorized over shots
    when every measurement is terminal).
    """
    _validate_program(program)
    return _run(program, StateVector.ground, lambda state, s: None, mode, n_avg, seed)


def run_noisy(program: QuantumProgram, noise: NoiseParams, mode: str = "exact",
              n_avg: int = 1000, seed: int | None = None) -> MeasurementRecord:
    """Execute on the density-matrix backend with T1/T2 decay after every slot."""
    _validate_program(program)
    check_noise_covers(noise, program.n_qubits)
    return _run(program, DensityMatrix.ground,
                lambda rho, s: _apply_slot_noise(rho, s, noise), mode, n_avg, seed)


def _run(program: QuantumProgram, ground, after_slot, mode: str, n_avg: int,
         seed: int | None) -> MeasurementRecord:
    """The slot loop shared by both backends.

    ``ground(n_qubits)`` makes a fresh |0...0> state and ``after_slot(state, s)``
    runs after every slot, measurement slots included.  Exact mode and sampled
    mode with only terminal measurements evolve one state; the latter then
    draws all shots with ``draw_shots``.  Any other sampled program is run
    shot by shot with collapse.
    """
    check_sampling(mode, n_avg)
    if mode == "sampled" and seed is not None:
        check_range("seed", seed, 0)

    def run_slots(registers: dict, collapse_rng=None):
        """The slots once, from |0...0>; returns the final state."""
        state = ground(program.n_qubits)
        for s in program.slots:
            _apply_slot(state, s, registers, collapse_rng)
            after_slot(state, s)
        return state

    registers: dict = {}
    if mode == "exact" or _measures_are_terminal(program):
        probs = run_slots(registers).basis_probabilities()  # raises if normalization was lost
        if mode == "exact":
            return MeasurementRecord(mode="exact", registers=registers)
        outcomes = draw_shots(probs, n_avg, seed)
        registers = {m.register: basis_bit(m.qubit, program.n_qubits)[outcomes].tolist()
                     for m in program.instructions() if isinstance(m, Measure)}
    else:
        rng = np.random.default_rng(seed)
        for _ in range(n_avg):
            run_slots(registers, rng)
    return MeasurementRecord(mode="sampled", registers=registers, n_avg=n_avg)


def _apply_slot(state: State, s: TimeSlot, registers: dict,
                collapse_rng=None) -> None:
    """Apply one slot.  Without ``collapse_rng`` a measurement records P(|1>);
    with it, a measurement draws one bit, collapses, and appends the bit."""
    if s.is_unitary():
        state.evolve(slot_unitary(s, state.n_qubits))
        return
    for instr in s.instructions:
        if isinstance(instr, Measure):
            p1 = state.prob_one(instr.qubit)
            if collapse_rng is None:
                registers[instr.register] = p1
            else:
                outcome = int(collapse_rng.random() < p1)
                state.project(instr.qubit, outcome)
                registers.setdefault(instr.register, []).append(outcome)
        elif isinstance(instr, Reset):
            state.reset(instr.qubit)
        else:
            state.evolve(slot_unitary(TimeSlot((instr,)), state.n_qubits))


# --- T1/T2 decay -------------------------------------------------------------------


def check_noise_covers(noise: NoiseParams, n_qubits: int) -> None:
    """The qubit-count rule of a noisy run, the sweep engine and a config."""
    if len(noise.t1) < n_qubits:
        raise ValidationError(f"noise parameters cover {len(noise.t1)} qubits, "
                              f"program uses {n_qubits}")


def _decay(rho: np.ndarray, qubit: int, n_qubits: int, p: float,
           coherence: float) -> np.ndarray:
    """Amplitude damping by ``p`` and coherence factor ``coherence`` of
    ``qubit``, on the last two axes of ``rho``.

    Entries whose row and column both have the qubit set lose ``p`` of their
    weight to the entry with the qubit cleared in both; entries where just
    one of the two has it set are scaled by ``coherence``.  For T1/T2 decay
    over d, p = 1 - exp(-d/T1) and coherence = exp(-d/T2); p = 1 with
    coherence = 0 traces the qubit out and re-prepares |0>.
    """
    bit = basis_bit(qubit, n_qubits)
    hi, lo = np.flatnonzero(bit), np.flatnonzero(1 - bit)
    # scale by how many of the entry's row and column have the qubit set
    out = rho * np.array([1.0, coherence, 1.0 - p])[bit[:, None] + bit]
    out[..., lo[:, None], lo] += p * rho[..., hi[:, None], hi]
    return out


def _slot_decay(rho: np.ndarray, n_qubits: int, noise: NoiseParams,
                duration: float) -> np.ndarray:
    """Every qubit's T1/T2 decay over ``duration``."""
    for q in range(n_qubits):
        rho = _decay(rho, q, n_qubits, 1.0 - math.exp(-duration / noise.t1[q]),
                     math.exp(-duration / noise.t2[q]))
    return rho


def _apply_slot_noise(rho: DensityMatrix, s: TimeSlot, noise: NoiseParams) -> None:
    rho.entries = _slot_decay(rho.entries, rho.n_qubits, noise, noise.slot_duration(s))


# --- sweep engine ---------------------------------------------------------------------


@lru_cache(maxsize=4)
def _decay_map(noise: NoiseParams, duration: float, n_qubits: int) -> np.ndarray:
    """Superoperator of ``_apply_slot_noise`` for a slot of ``duration``: its
    column a is the decayed basis matrix a, read as a row-major vec.  The 4
    most recent are cached, read-only, so the engine calls of one noisy sweep
    share one map per slot duration."""
    size = 1 << (2 * n_qubits)
    basis = np.eye(size, dtype=complex).reshape(size, 1 << n_qubits, 1 << n_qubits)
    superop = _slot_decay(basis, n_qubits, noise, duration).reshape(size, size).T
    superop.flags.writeable = False
    return superop


# The sweep's unit of working memory.  ``sweep_block`` sizes every engine call
# to about this many of whichever a realization holds more of: its
# (realization, k) points, n_steps + 1 plus 15 for its step matrix and
# interval, which bound the call's rows, n_steps 0 included; or its map
# entries, size**2 (16 ideal, 256 noisy), which bound the few (n, size, size)
# stacks a call builds and steps.  So a call holds 157 ideal or 16 noisy
# realizations at the default n_steps 10, and 4 at n_steps 1 000.  Traced
# peaks of ``workload._imbalance_curves`` after a warm-up call (Python 3.11,
# numpy 2.4): 0.68 MB for 4 096 noisy realizations at n_steps 0, where one
# call of 256 would build 4.9 MB of maps; 2.65 MB for 400 noisy x 500 steps,
# the 1.6 MB result included; 0.38 MB ideal and 0.40 MB noisy for the
# default config's 120 realizations.
_BLOCK_POINTS = 4096


def sweep_block(n_steps: int, n_qubits: int, noise: NoiseParams | None) -> int:
    """Realizations per ``sweep_probabilities`` call: about ``_BLOCK_POINTS``
    (realization, k) points or map entries, whichever a realization holds
    more of, and at least one."""
    size = 1 << (n_qubits if noise is None else 2 * n_qubits)
    return max(1, _BLOCK_POINTS // max(size * size, n_steps + 16))


def sweep_probabilities(evolutions, n_steps: int, n_qubits: int,
                        noise: NoiseParams | None = None) -> np.ndarray:
    """Basis probabilities at measurement of head + k * interval + tail,
    started from |0...0>, for every ``(head, interval, tail)`` of
    ``evolutions``, three tuples of unitary slots, and k = 0..n_steps: an
    array of shape (len(evolutions), n_steps + 1, 2**n).

    A reset of the |0...0> start is the identity and is left to the caller.
    The heads, the intervals and the tails must each be of one length, with
    slots of one shape at each position (see ``isa.slot_unitaries``).
    Without ``noise`` each state is a vector stepped by its interval's
    unitary; with it, a row-major vec(rho) stepped by its interval's
    superoperator, each slot's map being its T1/T2 decay times
    kron(U, conj(U)), as ``run_noisy`` applies them; the decay maps come
    from ``_decay_map``'s cache, one per slot duration, shared across calls.
    All the evolutions run as one stack, so callers size their calls with
    ``sweep_block``.  The heads, intervals and tails are each built one slot
    position at a time, on a stack that starts as the identity: a position
    that holds one shared slot object multiplies by that slot's single map,
    broadcast over the stack; any other position by a stack of slot maps
    built in one pass.  So a head or a tail that every evolution shares is
    one map.  The states step together, one stacked product per k for the
    intervals, into a preallocated buffer, and one for the rows
    of the tail maps that measurement reads, the amplitudes or the diagonal
    of rho, straight into the record of k; never a whole vec(rho) is kept.
    numpy multiplies each matrix of a stack on its own, so row i equals a
    call on ``evolutions[i]`` alone, bit for bit.  The probabilities are read
    in one checked call.
    """
    for name, parts in zip(("heads", "intervals", "tails"), zip(*evolutions)):
        lengths = sorted({len(part) for part in parts})
        if len(lengths) > 1:
            raise ValidationError(f"{name} must be of one length, got lengths {lengths}")
    dim = 1 << n_qubits
    if noise is None:
        size, what, kept = dim, "state norm", slice(None)

        def slot_map(U, s):
            return U

        def read(amplitudes):
            return np.abs(amplitudes) ** 2
    else:
        check_noise_covers(noise, n_qubits)
        size, what, kept = dim * dim, "density matrix trace", slice(None, None, dim + 1)

        def slot_map(U, s):
            return _decay_map(noise, noise.slot_duration(s), n_qubits) @ kron(U, U.conj())

        def read(diagonals):
            return diagonals.real

    def position_map(slots):
        """The map of the slots at one position: a shared slot's own, or a stack."""
        first = slots[0]
        if all(s is first for s in slots):
            return slot_map(slot_unitary(first, n_qubits), first)
        return slot_map(slot_unitaries(slots, n_qubits), first)

    def product(parts):
        """The maps of ``parts``, one tuple of slots per evolution."""
        return ordered_product(map(position_map, zip(*parts)), size)

    heads, intervals, tails = zip(*evolutions)
    steps = product(intervals)
    # the heads' maps applied to |0...0>: their first columns, one per evolution
    state = np.array(np.broadcast_to(product(heads)[..., :1], (len(evolutions), size, 1)))
    rows = product(tails)[..., kept, :]  # the rows of the tail maps that measurement reads
    following = np.empty_like(state)
    # k first, so that each k's product fills one contiguous block
    measured = np.empty((n_steps + 1, len(evolutions), dim, 1), dtype=complex)
    for record in measured:
        np.matmul(rows, state, out=record)
        np.matmul(steps, state, out=following)
        state, following = following, state
    return _checked_probabilities(np.ascontiguousarray(read(measured[..., 0]).swapaxes(0, 1)),
                                  what)


# --- spin-chain Hamiltonian and exact evolution -------------------------------------


def hamiltonian_matrix(w: float, h0x: float, h0z: float, h1x: float, h1z: float) -> np.ndarray:
    """Two-spin nearest-neighbor Heisenberg exchange plus disordered x/z fields.

    H = sigma0.sigma1 + w*(h0x X0 + h1x X1 + h0z Z0 + h1z Z1), qubit 0 = LSB.
    """
    X, Y, Z = _PAULI_X, _PAULI_Y, _PAULI_Z
    H = embed({0: X, 1: X}, 2) + embed({0: Y, 1: Y}, 2) + embed({0: Z, 1: Z}, 2)
    return H + w * (h0x * embed({0: X}, 2) + h1x * embed({1: X}, 2)
                    + h0z * embed({0: Z}, 2) + h1z * embed({1: Z}, 2))


def evolution_operator(H: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """exp(-iHt) via eigendecomposition, with a unitarity self-check at 1e-12;
    for an array of times, the stack of exp(-iHt) over them from one ``eigh``,
    every matrix checked."""
    # both checks are written so that NaN fails them
    if not np.max(np.abs(H - H.conj().T)) <= 1e-12:
        raise QcoprocError("Hamiltonian must be Hermitian")
    evals, evecs = np.linalg.eigh(H)
    # evecs @ diag(exp(-i evals t)) @ evecs^H, one matrix per entry of t
    U = (evecs * np.exp(-1j * np.multiply.outer(t, evals))[..., None, :]) @ evecs.conj().T
    defect = np.max(np.abs(U.conj().swapaxes(-1, -2) @ U - np.eye(len(evals))))
    if not defect <= 1e-12:
        raise QcoprocError(f"propagator unitarity defect {defect:.3e}")
    return U


def exact_evolution(H: np.ndarray, t: float, initial: StateVector) -> StateVector:
    """exp(-iHt)|initial>; this eigendecomposition route is the oracle for
    every Trotter-convergence check."""
    return StateVector(initial.n_qubits, evolution_operator(H, t) @ initial.amplitudes)


# --- Bloch-sphere utilities -----------------------------------------------------------


@dataclass(frozen=True)
class BlochVector:
    theta: float
    phi: float


def bloch_angles(amplitudes: np.ndarray) -> BlochVector:
    """(theta, phi) of a normalized single-qubit pure state's two amplitudes.

    theta = 2*arccos(|a0|); phi = arg(a1) - arg(a0) mod 2*pi, defined as 0 at
    the poles.
    """
    amps = np.asarray(amplitudes, complex)
    if amps.shape != (2,):
        raise QcoprocError("expected a single-qubit state")
    if not abs(float(np.sum(np.abs(amps) ** 2)) - 1.0) <= 1e-10:  # NaN fails
        raise QcoprocError("state is not normalized")
    a0 = min(1.0, abs(amps[0]))
    theta = 2.0 * math.acos(a0)
    if math.sin(theta / 2.0) < 1e-12:
        return BlochVector(theta=theta, phi=0.0)
    phi = (np.angle(amps[1]) - np.angle(amps[0])) % (2 * math.pi)
    return BlochVector(theta=theta, phi=float(phi))


# A trajectory keeps every point and the CLI formats them all: at the cap,
# `qcoproc trajectory --phi-over-pi 0 --gamma-over-pi 1 --steps 100000` takes
# 3.1-3.4 s and 63 MB peak RSS and writes 2.3 MB of CSV (JSON: 155 MB, 8.6 MB)
# on 2 CPUs, Python 3.11, numpy 2.4; time and memory grow linearly in the steps.
MAX_TRAJECTORY_STEPS = 10**5


def rotation_trajectory(key: RotationKey, n_steps: int) -> list[BlochVector]:
    """Bloch angles of Rxy(phi, gamma*s/n)|0> for s = 0..n_steps."""
    check_range("n_steps", n_steps, 1, MAX_TRAJECTORY_STEPS)
    ground = np.array([1.0, 0.0], dtype=complex)
    points = []
    for s in range(n_steps + 1):
        partial = RotationKey.make(key.phi, key.gamma * s / n_steps)
        points.append(bloch_angles(rxy_matrix(partial) @ ground))
    return points
