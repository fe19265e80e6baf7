"""Waveform memory management for the single-qubit rotation instruction.

An arbitrary-rotation instruction names infinitely many operations, but the
control electronics store a finite table of waveforms addressed by codewords.
Three mechanisms make that work:

* an operation registry, a plain dict from each rotation the system currently
  knows (a :class:`~qcoproc.isa.RotationKey`) to its synthesized pulse;
* a per-program scan (:func:`dgs_scan`) that extends the registry with any
  rotations the next program introduces;
* paging (:func:`page_update`) over a bounded rotation-to-codeword table
  (:class:`RCT`): rotations needed but absent (the missing list) replace
  randomly chosen rotations resident but unused (the dumping list), free
  codewords being consumed first.

:func:`assign_codewords` turns a paged program into the codeword stream the
electronics run.

Pulses are a deterministic stand-in: a unit-peak Gaussian envelope with
sigma = T/4 over a ``PULSE_DURATION`` = 20 ns gate at ``SAMPLE_RATE`` =
1 GS/s, amplitude gamma/pi, complex phase e^{i*phi}.  Full scale corresponds
to a pi rotation; a canonical gamma lies in (-2 pi, 2 pi], so no pulse
exceeds twice full scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityExceeded, check_range
from .isa import CZ, Measure, QuantumProgram, Reset, RotationKey, Rxy, sorted_keys

# Each non-rotation instruction's codeword, as an offset past the rotation space.
RESERVED_CODEWORDS = {CZ: 0, Measure: 1, Reset: 2}

PULSE_DURATION = 20e-9
SAMPLE_RATE = 1e9
_t = np.arange(round(PULSE_DURATION * SAMPLE_RATE)) / SAMPLE_RATE
_ENVELOPE = np.exp(-((_t - PULSE_DURATION / 2) ** 2) / (2 * (PULSE_DURATION / 4) ** 2))


def synthesize_pulse(key: RotationKey) -> np.ndarray:
    """Deterministic Gaussian pulse for a canonical rotation key, read-only.

    sample[n] = (gamma/pi) * exp(-(t_n - T/2)^2 / (2 sigma^2)) * e^{i phi},
    t_n = n / SAMPLE_RATE, sigma = T/4.
    """
    samples = key.gamma / math.pi * _ENVELOPE * np.exp(1j * key.phi)
    samples.setflags(write=False)
    return samples


def program_rotation_keys(program: QuantumProgram) -> set[RotationKey]:
    """Distinct single-qubit rotations a program requires."""
    return {instr.key for instr in program.instructions() if isinstance(instr, Rxy)}


def dgs_scan(program: QuantumProgram, qos: dict) -> tuple[dict, set]:
    """Synthesize a pulse for every rotation of the program the registry lacks.

    Idempotent: scanning the same program twice yields an empty new-key set.
    """
    new_keys = {key for key in program_rotation_keys(program) if key not in qos}
    for key in new_keys:
        qos[key] = synthesize_pulse(key)
    return qos, new_keys


# --- rotation-to-codeword table and paging ---------------------------------------


@dataclass
class RCT:
    """Bounded codeword table tracking which rotations are loaded.

    Rotation codewords occupy [0, capacity); :func:`assign_codewords` puts
    cZ, measure and reset just past the rotation space.  Single-writer.
    """

    capacity: int = 128
    codewords: dict = field(default_factory=dict)   # RotationKey -> codeword
    load_counter: int = 0

    def __post_init__(self):
        check_range("capacity", self.capacity, 1)


@dataclass(frozen=True)
class PageReport:
    """What one paging pass did: loaded = the sorted missing list, evicted a
    subset of the dumping list."""

    dlst: frozenset
    evicted: tuple
    loaded: tuple
    hits: int
    load_counter: int

    @property
    def mlst(self) -> frozenset:
        return frozenset(self.loaded)

    def to_json_dict(self) -> dict:
        loaded = [k._asdict() for k in self.loaded]
        return {
            "mlst": loaded,
            "dlst": [k._asdict() for k in sorted_keys(self.dlst)],
            "evicted": [k._asdict() for k in self.evicted],
            "loaded": loaded,
            "hits": self.hits,
            "load_counter": self.load_counter,
        }


def page_update(program: QuantumProgram, rct: RCT,
                rng: np.random.Generator) -> tuple[RCT, PageReport]:
    """Make every rotation of ``program`` resident, evicting randomly from the DLST.

    Free codewords are filled before anything is evicted; rotations that stay
    resident keep their codewords.  A pass that loads nothing changes nothing:
    it leaves the table, its load counter and ``rng`` as they were, so paging
    the same program again reports the same.  Raises CapacityExceeded when
    the program needs more distinct rotations than the table holds (the
    caller would have to split the program, which is out of scope).
    """
    needed = program_rotation_keys(program)
    if len(needed) > rct.capacity:
        raise CapacityExceeded(
            f"program needs {len(needed)} rotations, table holds {rct.capacity}")
    # One copy of the table's keys; copying the dict reuses its stored hashes,
    # where a set operation on its key view would hash every key again.
    resident = frozenset(rct.codewords)
    dlst = resident - needed
    to_load = sorted_keys(needed - resident)

    evicted: list[RotationKey] = []
    if to_load:
        n_evict = len(to_load) - (rct.capacity - len(rct.codewords))  # the shortfall
        if n_evict > 0:
            dlst_sorted = sorted_keys(dlst)
            victims = rng.choice(len(dlst_sorted), size=n_evict, replace=False)
            evicted = [dlst_sorted[i] for i in sorted(victims.tolist())]
            for victim in evicted:
                del rct.codewords[victim]
        # The lowest unused codewords, scanned for past the residents rather than
        # taken from a set of all free ones, so a pass does not grow with capacity.
        used = set(rct.codewords.values())
        rct.codewords.update(zip(to_load, (cw for cw in range(rct.capacity) if cw not in used)))
        rct.load_counter += len(to_load)

    report = PageReport(dlst=dlst, evicted=tuple(evicted), loaded=tuple(to_load),
                        hits=len(needed) - len(to_load), load_counter=rct.load_counter)
    return rct, report


def assign_codewords(program: QuantumProgram, rct: RCT) -> list[int]:
    """The codeword stream, one per instruction in program order: the one rule
    from instruction to codeword.  A rotation reads its table codeword; cZ,
    measure and reset read ``capacity + RESERVED_CODEWORDS[kind]``.  Raises
    KeyError if a rotation is not resident."""
    return [rct.codewords[instr.key] if isinstance(instr, Rxy)
            else rct.capacity + RESERVED_CODEWORDS[type(instr)]
            for instr in program.instructions()]

