"""Waveform memory management for the single-qubit rotation instruction.

An arbitrary-rotation instruction names infinitely many operations, but the
control electronics store a finite table of waveforms addressed by codewords.
Three mechanisms make that work:

* an operation registry (:class:`QOSRegistry`) holding the synthesized pulse
  for every rotation the system currently knows;
* a per-program scan (:func:`dgs_scan`) that extends the registry with any
  rotations the next program introduces;
* paging (:func:`page_update`) over a bounded rotation-to-codeword table
  (:class:`RCT`): rotations needed but absent (the missing list) replace
  randomly chosen rotations resident but unused (the dumping list), free
  codewords being consumed first.

Pulses are a deterministic stand-in: a unit-peak Gaussian envelope with
sigma = T/4 over a 20 ns gate at 1 GS/s, amplitude gamma/pi, complex phase
e^{i*phi}.  Full scale corresponds to a pi rotation; amplitudes up to
``max_amplitude_ratio`` (default 2, matching the canonical gamma range) are
permitted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AmplitudeOverflow, CapacityExceeded, NotResident
from .isa import QuantumProgram, RotationKey, Rxy

CZ_CODEWORD_OFFSET = 0
MEASURE_CODEWORD_OFFSET = 1
RESET_CODEWORD_OFFSET = 2


@dataclass(frozen=True)
class PulseConfig:
    duration: float = 20e-9
    sample_rate: float = 1e9
    max_amplitude_ratio: float = 2.0


@dataclass(frozen=True)
class PulseSpec:
    """Complex IQ samples of one rotation pulse."""

    samples: tuple
    duration: float
    sample_rate: float

    def __post_init__(self):
        expected = round(self.duration * self.sample_rate)
        if len(self.samples) != expected:
            raise ValueError(f"expected {expected} samples, got {len(self.samples)}")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.samples, dtype=complex)


def synthesize_pulse(key: RotationKey, config: PulseConfig = PulseConfig()) -> PulseSpec:
    """Deterministic Gaussian pulse for a canonical rotation key.

    sample[n] = (gamma/pi) * exp(-(t_n - T/2)^2 / (2 sigma^2)) * e^{i phi},
    t_n = n / sample_rate, sigma = T/4.
    """
    amplitude = key.gamma / math.pi
    if abs(amplitude) > config.max_amplitude_ratio:
        raise AmplitudeOverflow(
            f"|gamma|/pi = {abs(amplitude):.6f} exceeds full scale ratio "
            f"{config.max_amplitude_ratio}")
    n = round(config.duration * config.sample_rate)
    t = np.arange(n) / config.sample_rate
    sigma = config.duration / 4
    envelope = np.exp(-((t - config.duration / 2) ** 2) / (2 * sigma ** 2))
    samples = amplitude * envelope * np.exp(1j * key.phi)
    return PulseSpec(samples=tuple(samples.tolist()), duration=config.duration,
                     sample_rate=config.sample_rate)


@dataclass
class QOSRegistry:
    """Registry of supported rotations and their pulses.

    Single-writer: callers must serialize mutations (dgs_scan).
    """

    config: PulseConfig = PulseConfig()
    entries: dict = field(default_factory=dict)

    def ensure(self, key: RotationKey) -> bool:
        """Synthesize and store the pulse for ``key``; True if it was new."""
        if key in self.entries:
            return False
        self.entries[key] = synthesize_pulse(key, self.config)
        return True


def program_rotation_keys(program: QuantumProgram) -> set[RotationKey]:
    """Distinct single-qubit rotations a program requires."""
    return {instr.key for instr in program.instructions() if isinstance(instr, Rxy)}


def dgs_scan(program: QuantumProgram, qos: QOSRegistry) -> tuple[QOSRegistry, set]:
    """Augment the registry with every rotation the program uses.

    Idempotent: scanning the same program twice yields an empty new-key set.
    """
    new_keys = {key for key in program_rotation_keys(program) if qos.ensure(key)}
    return qos, new_keys


# --- rotation-to-codeword table and paging ---------------------------------------


@dataclass
class RCT:
    """Bounded codeword table tracking which rotations are loaded.

    Rotation codewords occupy [0, capacity); cZ, measure and reset use fixed
    reserved codewords just past the rotation space.  Single-writer.
    """

    capacity: int = 128
    resident: dict = field(default_factory=dict)   # codeword -> RotationKey
    load_counter: int = 0

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        self._by_key = {key: cw for cw, key in self.resident.items()}

    @property
    def free(self) -> set[int]:
        return set(range(self.capacity)) - set(self.resident)

    @property
    def resident_keys(self) -> set[RotationKey]:
        return set(self._by_key)

    def codeword_of(self, key: RotationKey) -> int:
        try:
            return self._by_key[key]
        except KeyError:
            raise NotResident(f"{key} has no codeword") from None

    @property
    def cz_codeword(self) -> int:
        return self.capacity + CZ_CODEWORD_OFFSET

    @property
    def measure_codeword(self) -> int:
        return self.capacity + MEASURE_CODEWORD_OFFSET

    @property
    def reset_codeword(self) -> int:
        return self.capacity + RESET_CODEWORD_OFFSET

    def _store(self, codeword: int, key: RotationKey) -> None:
        self.resident[codeword] = key
        self._by_key[key] = codeword

    def _evict(self, codeword: int) -> RotationKey:
        key = self.resident.pop(codeword)
        del self._by_key[key]
        return key


@dataclass(frozen=True)
class PageReport:
    """What one paging pass did: loaded = missing list, evicted subset of dumping list."""

    mlst: frozenset
    dlst: frozenset
    evicted: tuple
    loaded: tuple
    hits: int
    load_counter: int

    def to_json_dict(self) -> dict:
        return {
            "mlst": [_key_json(k) for k in sorted_keys(self.mlst)],
            "dlst": [_key_json(k) for k in sorted_keys(self.dlst)],
            "evicted": [_key_json(k) for k in self.evicted],
            "loaded": [_key_json(k) for k in self.loaded],
            "hits": self.hits,
            "load_counter": self.load_counter,
        }


def sorted_keys(keys) -> list[RotationKey]:
    """Rotations in the table's canonical order: by phi, then gamma."""
    return sorted(keys, key=RotationKey.sort_index)


def _key_json(key: RotationKey) -> dict:
    return {"phi_over_pi": key.phi_over_pi, "gamma_over_pi": key.gamma_over_pi}


def compute_mlst(program: QuantumProgram, rct: RCT) -> set[RotationKey]:
    """Rotations required by the program but not loaded."""
    return program_rotation_keys(program) - rct.resident_keys


def compute_dlst(program: QuantumProgram, rct: RCT) -> set[RotationKey]:
    """Rotations loaded but not used by the program."""
    return rct.resident_keys - program_rotation_keys(program)


def page_update(program: QuantumProgram, rct: RCT,
                rng: np.random.Generator) -> tuple[RCT, PageReport]:
    """Make every rotation of ``program`` resident, evicting randomly from the DLST.

    Free codewords are filled before anything is evicted; rotations that stay
    resident keep their codewords.  Raises CapacityExceeded when the program
    needs more distinct rotations than the table holds (the caller would have
    to split the program, which is out of scope).
    """
    needed = program_rotation_keys(program)
    if len(needed) > rct.capacity:
        raise CapacityExceeded(
            f"program needs {len(needed)} rotations, table holds {rct.capacity}")
    mlst = frozenset(needed - rct.resident_keys)
    dlst = frozenset(rct.resident_keys - needed)
    hits = len(needed) - len(mlst)

    to_load = sorted_keys(mlst)
    free = sorted(rct.free)
    evicted: list[RotationKey] = []
    n_evict = max(0, len(to_load) - len(free))
    if n_evict:
        dlst_sorted = sorted_keys(dlst)
        victims = rng.choice(len(dlst_sorted), size=n_evict, replace=False)
        for victim in (dlst_sorted[i] for i in sorted(victims.tolist())):
            codeword = rct.codeword_of(victim)
            rct._evict(codeword)
            free.append(codeword)
            evicted.append(victim)
        free.sort()
    for key, codeword in zip(to_load, free):
        rct._store(codeword, key)
    rct.load_counter += len(to_load)

    report = PageReport(mlst=mlst, dlst=dlst, evicted=tuple(evicted),
                        loaded=tuple(to_load), hits=hits,
                        load_counter=rct.load_counter)
    return rct, report


def assign_codewords(program: QuantumProgram, rct: RCT) -> list[int]:
    """One codeword per instruction in program order.

    Rotations use their table codewords; cZ/measure/reset map to the reserved
    fixed codewords.  Raises NotResident if a rotation is not loaded.
    """
    stream: list[int] = []
    for instr in program.instructions():
        if isinstance(instr, Rxy):
            stream.append(rct.codeword_of(instr.key))
        else:
            stream.append({
                "CZ": rct.cz_codeword,
                "Measure": rct.measure_codeword,
                "Reset": rct.reset_codeword,
            }[type(instr).__name__])
    return stream


def export_pulse_library(rct: RCT, qos: QOSRegistry) -> str:
    """JSON map codeword -> {phi_over_pi, gamma_over_pi, samples: [[re, im], ...]}."""
    lib = {}
    for codeword in sorted(rct.resident):
        key = rct.resident[codeword]
        pulse = qos.entries[key]
        lib[str(codeword)] = {
            **_key_json(key),
            "samples": [[s.real, s.imag] for s in pulse.samples],
        }
    return json.dumps(lib, indent=2, sort_keys=True)
