"""Disorder-induced metal-insulator transition workload.

One disorder realization draws four field strengths h uniformly from [-1, 1].
The z-type disorder is carried along y (the generator works in the frame where
z has been rotated to y, which turns the two disorder Rz gates into
single-pulse Ry rotations), so a realization stores h0x, h0y, h1x, h1y.

The memory-retention observable is the imbalance I = P0 - P1, with Pj the
probability of finding qubit j in |1>.  Starting from q0=|1>, q1=|0> it is 1,
stays near a nonzero plateau in the strongly disordered (insulating) phase and
oscillates away in the weakly disordered (metallic) phase.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache

import numpy as np

from . import simulator, wavemem
from .compiler import CNOT, CRx, HALF_PI, Rx, Rz, SourceProgram
from .errors import CapacityExceeded, QcoprocError, ValidationError, check_range
from .isa import (CZ, Measure, QuantumProgram, Reset, RotationKey, Rxy, TimeSlot,
                  basis_bit, program_segment_unitary, slot)
from .simulator import NoiseParams, hamiltonian_matrix

DEFAULT_TAU = 0.04 * math.pi

# Each step adds a row to every output and a pass to the paging stream.  At the
# cap, with one w and one realization (`{"w_values": [1.0], "n_realizations":
# 1, "n_steps": 100000}`), `experiment --dump-realizations` takes 1.0-1.1 s and
# 68 MB peak RSS and writes 6.2 MB, `paging-report` takes 0.3-0.4 s and 74 MB
# and writes 19 MB, and `gen --n-steps 100000 --k 100000` takes 0.7-0.8 s and
# 106 MB and writes 28 MB (whole processes, 2 CPUs, Python 3.11, numpy 2.4).
# The experiment and paging-report totals scale with n_realizations x
# len(w_values), up to MAX_POINTS below.
MAX_STEPS = 10**5

# A sweep's len(w_values) x n_realizations x (n_steps + 1) points, bounded so
# that a config too large to hold fails before any paging: the default
# config's two w and 60 realizations at MAX_STEPS.  There, `experiment
# --dump-realizations` takes 49-54 s and 1.9 GB peak RSS and writes 330 MB,
# and `paging-report` to /dev/null takes 26-27 s and 1.05 GB (whole
# processes, 2 CPUs, Python 3.11, numpy 2.4).
MAX_POINTS = 2 * 60 * (MAX_STEPS + 1)


def _check_evolution(tau: float, n_steps: int) -> None:
    """The tau and n_steps rules of a realization and of a config, in that order."""
    if not (math.isfinite(tau) and tau > 0):  # written so that NaN fails
        raise ValidationError(f"tau must be positive and finite, got {tau}")
    check_range("n_steps", n_steps, 0, MAX_STEPS)


@dataclass(frozen=True)
class DisorderRealization:
    """One random disorder configuration of the two-spin chain."""

    w: float
    tau: float
    n_steps: int
    h0x: float
    h0y: float
    h1x: float
    h1y: float
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails every check
        if not math.isfinite(self.w):
            raise ValidationError(f"w must be finite, got {self.w}")
        _check_evolution(self.tau, self.n_steps)
        for name in ("h0x", "h0y", "h1x", "h1y"):
            h = getattr(self, name)
            if not -1.0 <= h <= 1.0:
                raise ValidationError(f"{name} must lie in [-1, 1], got {h}")

    def to_json_dict(self) -> dict:
        return {"w": self.w, "seed": self.seed, "h0x": self.h0x, "h0y": self.h0y,
                "h1x": self.h1x, "h1y": self.h1y}


def sample_disorder(w: float, tau: float, n_steps: int,
                    rng: np.random.Generator, seed: int = 0) -> DisorderRealization:
    """Draw h0x, h0y, h1x, h1y independently and uniformly from [-1, 1]."""
    h0x, h0y, h1x, h1y = rng.uniform(-1.0, 1.0, 4)
    return DisorderRealization(w=w, tau=tau, n_steps=n_steps, h0x=float(h0x),
                               h0y=float(h0y), h1x=float(h1x), h1y=float(h1y),
                               seed=seed)


# The fixed slots of every circuit: the resets and the parallel measurement
# (source and native), and the native prologue that rotates the prepared state
# into the working frame and the epilogue that rotates back, every
# realization's head and tail in :func:`evolution`.
_RESETS = (slot(Reset(0)), slot(Reset(1)))
_PROLOGUE = slot(Rxy(0, RotationKey.make(0.0, HALF_PI)), Rxy(1, RotationKey.make(0.0, -HALF_PI)))
_EPILOGUE = slot(Rxy(0, RotationKey.make(0.0, HALF_PI)), Rxy(1, RotationKey.make(0.0, HALF_PI)))
_MEASURE = slot(Measure(0, "q0mZ"), Measure(1, "q1mZ"))


def build_source_circuit(r: DisorderRealization, k: int) -> SourceProgram:
    """Source-level circuit for step k: prepare q0=|1>, k evolution intervals,
    measure both.

    The h^z angles carry the realization's h^y values (to be reinterpreted by
    the frame-rotation pass).  cnot q1,q0 flips q1 conditioned on q0; the
    controlled rotation acts on q0 conditioned on q1: together with the fixed
    rz(2*tau) on q1 one interval realizes the exchange coupling exactly, and
    the remaining single-qubit rotations the disorder fields.
    """
    check_range("k", k, 0, r.n_steps)
    w, tau = r.w, r.tau
    interval = (
        slot(CNOT(1, 0)),
        slot(Rz(0, 2 * w * r.h0y * tau), Rz(1, 2 * tau)),
        slot(CRx(4 * tau, 0, 1)),
        slot(CNOT(1, 0)),
        slot(Rz(1, 2 * w * r.h1y * tau)),
        slot(Rx(0, 2 * w * r.h0x * tau), Rx(1, 2 * w * r.h1x * tau)),
    ) if k else ()
    slots = _RESETS + (slot(Rx(0, math.pi)),) + interval * k + (_MEASURE,)
    return SourceProgram(n_qubits=2, slots=slots)


@lru_cache(maxsize=1)
def _tau_slots(tau: float) -> tuple[TimeSlot, ...]:
    """Slots 2-9 of the native interval, which depend on tau alone: every
    realization of a sweep shares these objects, so a slot-unitary cache hit
    on them is an identity check."""
    key = RotationKey.make
    return (
        slot(CZ(1, 0)),
        slot(Rxy(1, key(HALF_PI, -HALF_PI))),
        slot(Rxy(1, key(tau - HALF_PI, math.pi))),
        slot(CZ(0, 1)),
        slot(Rxy(0, key(0.0, -2 * tau))),
        slot(CZ(0, 1)),
        slot(Rxy(0, key(0.0, 2 * tau)), Rxy(1, key(HALF_PI, -HALF_PI))),
        slot(CZ(1, 0)),
    )


@lru_cache(maxsize=1)
def evolution(r: DisorderRealization):
    """The realization's evolution as ``(head, interval, tail)``, three tuples
    of slots: the head rotates the prepared state into the working frame, the
    interval (10 Rxy + 4 cZ) is one Trotter step, repeated k times, and the
    tail rotates back before measurement.  The last realization's is kept, so
    the k = 0 and k = 1 programs that the paging stream builds for one
    realization share one build of its interval."""
    w, tau = r.w, r.tau
    key = RotationKey.make
    interval = (
        slot(Rxy(0, key(HALF_PI, 2 * w * r.h0y * tau)), Rxy(1, key(HALF_PI, -HALF_PI))),
        *_tau_slots(tau),
        slot(Rxy(1, key(HALF_PI, HALF_PI + 2 * w * r.h1y * tau))),
        slot(Rxy(0, key(0.0, 2 * w * r.h0x * tau)), Rxy(1, key(0.0, 2 * w * r.h1x * tau))),
    )
    return (_PROLOGUE,), interval, (_EPILOGUE,)


def build_native_circuit(r: DisorderRealization, k: int) -> QuantumProgram:
    """Native circuit for step k, as the coprocessor runs it: the resets,
    :func:`evolution`'s head, k intervals and tail, and parallel measurement."""
    check_range("k", k, 0, r.n_steps)
    head, interval, tail = evolution(r)
    return QuantumProgram(n_qubits=2, slots=_RESETS + head + interval * k + tail + (_MEASURE,))


def trotter_interval_unitary(r: DisorderRealization) -> np.ndarray:
    """Unitary of one native interval, conjugated back to the z frame through
    the tail, Rx(pi/2) on both qubits.

    Comparable (up to O(tau^2) Trotter error and global phase) to
    exp(-i H tau) with H = hamiltonian_matrix(w, h0x, h0y, h1x, h1y).
    """
    _, interval, tail = evolution(r)
    leave = program_segment_unitary(QuantumProgram(2, tail))
    return leave @ program_segment_unitary(QuantumProgram(2, interval)) @ leave.conj().T


def imbalance(p0: float | np.ndarray, p1: float | np.ndarray) -> float | np.ndarray:
    """I = P0 - P1, of two probabilities or elementwise of two arrays of them."""
    if not np.all((0.0 <= p0) & (p0 <= 1.0) & (0.0 <= p1) & (p1 <= 1.0)):  # NaN fails
        raise QcoprocError(f"probabilities must lie in [0, 1], got ({p0}, {p1})")
    return p0 - p1


# The basis bits of q0 and q1 over the two-qubit basis, one row each.
_BITS = np.array([basis_bit(0, 2), basis_bit(1, 2)])


def _read_imbalance(probs: np.ndarray) -> np.ndarray:
    """I of basis probabilities on the last axis, each P(|1>) clipped to [0, 1]."""
    return imbalance(*np.moveaxis(np.clip(probs @ _BITS.T, 0.0, 1.0), -1, 0))


def gate_census(program: QuantumProgram | SourceProgram) -> Counter:
    """A program's instructions counted by class, native (``census[Rxy]``,
    ``census[CZ]``, ``census[Measure]``, ``census[Reset]``) or source (``Rx``,
    ``Rz``, ``CNOT``, ``CRx``) alike; a class the program lacks counts 0."""
    return Counter(map(type, program.instructions()))


# --- experiment runner -----------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """The sweep's settings.  Its fields are the config file's schema, and
    ``__post_init__`` holds every rule, whichever way a config is built."""

    w_values: tuple = (1.0, 25.0)
    n_realizations: int = 60
    tau: float = DEFAULT_TAU
    n_steps: int = 10
    master_seed: int = 2034
    backend: str = "ideal"
    noise: NoiseParams | None = None
    measurement_mode: str = "exact"
    n_avg: int = 1000
    capacity: int = 128
    share_realizations_across_w: bool = False

    def __post_init__(self):
        for f in fields(self):  # a field's type is its default's
            value = getattr(self, f.name)
            if type(f.default) is int and type(value) is not int:  # True is not an integer
                raise ValidationError(f"{f.name} must be an integer, got {value!r}")
            if type(f.default) is bool and not isinstance(value, bool):
                raise ValidationError(f"{f.name} must be true or false, got {value!r}")
        object.__setattr__(self, "w_values", simulator.as_floats("w_values", self.w_values))
        object.__setattr__(self, "tau", simulator.as_float("tau", self.tau))
        if self.noise is not None and not isinstance(self.noise, NoiseParams):
            raise ValidationError(f"noise must be NoiseParams or None, got {self.noise!r}")
        if not self.w_values:
            raise ValidationError("w_values must name at least one disorder strength")
        if not all(math.isfinite(w) for w in self.w_values):
            raise ValidationError(f"w_values must be finite, got {list(self.w_values)}")
        if len(set(self.w_values)) != len(self.w_values):  # 0.0 and -0.0 are one key
            raise ValidationError(f"w_values must not repeat, got {list(self.w_values)}")
        check_range("master_seed", self.master_seed, 0)
        check_range("n_realizations", self.n_realizations, 1)
        _check_evolution(self.tau, self.n_steps)
        simulator.check_sampling(self.measurement_mode, self.n_avg)
        check_range("capacity", self.capacity, 1)
        if self.backend not in ("ideal", "noisy"):
            raise ValidationError(f"unknown backend {self.backend!r}")
        if self.noise is not None:  # on either backend: a file is valid for every command or none
            simulator.check_noise_covers(self.noise, 2)
        check_range("points (len(w_values) x n_realizations x (n_steps + 1))",
                    len(self.w_values) * self.n_realizations * (self.n_steps + 1), 1, MAX_POINTS)

    @staticmethod
    def from_json_dict(data: dict) -> "ExperimentConfig":
        """Strict loader: unknown fields are rejected, angles are in units of pi."""
        if not isinstance(data, dict):
            raise ValidationError("config must be a JSON object")
        known = {f.name for f in fields(ExperimentConfig)} - {"tau"} | {"tau_over_pi"}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        kwargs = dict(data)
        if "tau_over_pi" in kwargs:
            kwargs["tau"] = simulator.as_float("tau_over_pi", kwargs.pop("tau_over_pi")) * math.pi
        noise = kwargs.get("noise")
        if noise is not None:
            if not isinstance(noise, dict):
                raise ValidationError(f"noise must be a JSON object, got {json.dumps(noise)}")
            unknown = set(noise) - {f.name for f in fields(NoiseParams)}
            if unknown:
                raise ValidationError(f"unknown noise fields: {sorted(unknown)}")
            missing = sorted({"t1", "t2"} - set(noise))
            if missing:
                raise ValidationError(f"noise block lacks {missing}")
            kwargs["noise"] = NoiseParams(**noise)
        return ExperimentConfig(**kwargs)

    def to_json_dict(self) -> dict:
        body = asdict(self)
        body["tau_over_pi"] = round(body.pop("tau") / math.pi, 12)
        if self.noise is None:
            del body["noise"]
        return body


def derive_seed(master_seed: int, w_index: int, realization_index: int) -> int:
    """Stable integer seed for one realization's RNG stream."""
    ss = np.random.SeedSequence((master_seed, w_index, realization_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True, eq=False)
class ImbalanceSeries:
    """Imbalance vs Trotter step, per realization and averaged across them, as
    the read-only arrays the sweep computes them in."""

    w: float
    mean: np.ndarray
    stderr: np.ndarray
    per_realization: np.ndarray  # one row per realization, I(k) for k = 0..N

    def __post_init__(self):
        for values in (np.ravel(self.per_realization), np.ravel(self.mean)):
            outside = np.flatnonzero(~(np.abs(values) <= 1.0 + 1e-9))  # NaN fails
            if outside.size:  # the first of them, in the rows, then the mean
                raise ValidationError(f"imbalance {float(values[outside[0]])} outside [-1, 1]")


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    series: dict                      # w -> ImbalanceSeries
    realizations: dict = field(default_factory=dict)  # w -> list[DisorderRealization]
    total_loads: int = 0
    total_hits: int = 0

    def paging_summary(self) -> dict:
        return {"total_loads": self.total_loads, "total_hits": self.total_hits,
                "capacity": self.config.capacity}


def _imbalance_curves(rs, config: ExperimentConfig) -> np.ndarray:
    """I(k) for k = 0..N of each realization of ``rs`` (of ``config``), one
    row each, from one sweep engine call per block of
    ``simulator.sweep_block`` realizations.

    Row i equals running every ``build_native_circuit(rs[i], k)`` on
    ``run_ideal``, or on ``run_noisy`` with the config's noise (the chip's
    measured values when it has none): the resets of the |00> start are
    identities, and sampled mode draws the same shots from the same seeds,
    by ``simulator.draw_shots``.  Every point of a block is reduced at once.
    """
    noise = None if config.backend == "ideal" else config.noise or NoiseParams.octobox_defaults()
    per_block = simulator.sweep_block(config.n_steps, 2, noise)
    curves = np.empty((len(rs), config.n_steps + 1))
    for start in range(0, len(rs), per_block):
        block = rs[start:start + per_block]
        probs = simulator.sweep_probabilities(list(map(evolution, block)), config.n_steps, 2, noise)
        if config.measurement_mode == "sampled":
            p0, p1 = np.empty((2,) + probs.shape[:2])
            for i, r in enumerate(block):
                for k, p in enumerate(probs[i]):
                    shots = simulator.draw_shots(p, config.n_avg, derive_seed(r.seed, 0, k))
                    p0[i, k], p1[i, k] = _BITS[:, shots].mean(axis=1)
            curves[start:start + len(block)] = imbalance(p0, p1)
        else:
            curves[start:start + len(block)] = _read_imbalance(probs)
    return curves


def paged_programs(config: ExperimentConfig):
    """The sweep's program stream, paged through one waveform context.

    Samples each realization in canonical order (w index, realization index),
    scans its last built program once (its rotation set contains the k = 0
    program's) and yields ``(i, r, passes)``: each pass it paged, in k order,
    as ``(ks, report)``, where ``ks`` is the ``range`` of Trotter steps whose
    programs the report stands for.  Paging reads only a program's rotation
    set, the same for every k >= 1, so the passes are ``range(0, 1)``,
    ``range(1, 2)`` and ``range(2, n_steps + 1)``, as many as ``n_steps``
    allows.  k = 2 pages the rotation set that k = 1 left resident, so it
    loads nothing and leaves the table and the eviction RNG as they were, and
    every later k would repeat its report.
    Deterministic for a given master seed.
    """
    rct = wavemem.RCT(capacity=config.capacity)
    qos: dict = {}
    evict_rng = np.random.default_rng(derive_seed(config.master_seed, 0xE, 0xE))
    for w_index, w in enumerate(config.w_values):
        for i in range(config.n_realizations):
            seed_index = 0 if config.share_realizations_across_w else w_index
            seed = derive_seed(config.master_seed, seed_index, i)
            r = sample_disorder(w, config.tau, config.n_steps,
                                np.random.default_rng(seed), seed=seed)
            programs = [build_native_circuit(r, k) for k in range(min(r.n_steps, 1) + 1)]
            wavemem.dgs_scan(programs[-1], qos)
            passes = []
            for ks in (range(0, 1), range(1, 2), range(2, r.n_steps + 1))[:r.n_steps + 1]:
                try:
                    _, report = wavemem.page_update(programs[min(ks[0], 1)], rct, evict_rng)
                except CapacityExceeded as exc:
                    raise CapacityExceeded(
                        f"w={w:g} realization {i} (seed {r.seed}) k={ks[0]}: {exc}") from exc
                passes.append((ks, report))
            yield i, r, tuple(passes)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full disorder sweep.

    The paging totals count each pass of :func:`paged_programs` once for every
    k it stands for; the imbalance curves of the realizations it samples come
    from :func:`_imbalance_curves`, every realization's curve over all its
    programs at once.  Deterministic for a given master seed.
    """
    result = ExperimentResult(config=config, series={})
    realizations: list[DisorderRealization] = []  # in stream order
    for _, r, passes in paged_programs(config):
        realizations.append(r)
        for ks, report in passes:
            result.total_loads += len(ks) * len(report.loaded)
            result.total_hits += len(ks) * report.hits
    curves = _imbalance_curves(realizations, config)
    curves.flags.writeable = False  # each series' rows are a view of it

    n = config.n_realizations
    for w_index, w in enumerate(config.w_values):
        matrix = curves[w_index * n:(w_index + 1) * n]
        mean = matrix.mean(axis=0)
        stderr = matrix.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
        mean.flags.writeable = stderr.flags.writeable = False
        result.series[w] = ImbalanceSeries(w=w, mean=mean, stderr=stderr,
                                           per_realization=matrix)
        result.realizations[w] = realizations[w_index * n:(w_index + 1) * n]
    return result


# --- serialization (CSV / JSON surfaces) -----------------------------------------


def experiment_csv(result: ExperimentResult) -> str:
    """Rows of (w, k, imbalance_mean, imbalance_stderr, n_realizations)."""
    lines = ["w,k,imbalance_mean,imbalance_stderr,n_realizations"]
    for w in result.config.w_values:
        series = result.series[w]
        for k, (m, s) in enumerate(zip(series.mean, series.stderr)):
            lines.append(f"{float(w)!r},{k},{float(m)!r},{float(s)!r},"
                         f"{result.config.n_realizations}")
    return "\n".join(lines) + "\n"


def experiment_json(result: ExperimentResult) -> str:
    body = {repr(float(w)): {"mean": result.series[w].mean.tolist(),
                             "stderr": result.series[w].stderr.tolist()}
            for w in result.config.w_values}
    return json.dumps({"n_realizations": result.config.n_realizations,
                       "imbalance": body}, indent=2, sort_keys=True)


def realizations_json(result: ExperimentResult):
    """Per-realization dump (disorder fields and the imbalance curve) as the
    parts of ``json.dumps(rows, indent=2)``, formatted one row at a time so
    that the document is never held whole; a result has at least one row."""
    sep = "[\n  "
    for w in result.config.w_values:
        for r, curve in zip(result.realizations[w], result.series[w].per_realization):
            yield sep
            yield json.dumps({**r.to_json_dict(), "I": curve.tolist()},
                             indent=2).replace("\n", "\n  ")
            sep = ",\n  "
    yield "\n]"


def exact_imbalance_curve(r: DisorderRealization) -> list[float]:
    """Imbalance under the exact (non-Trotterized) evolution, via the
    eigendecomposition oracle, every k from one ``eigh``; reference curve for
    convergence studies."""
    H = hamiltonian_matrix(r.w, r.h0x, r.h0y, r.h1x, r.h1y)
    U = simulator.evolution_operator(H, r.tau * np.arange(r.n_steps + 1))
    # q0 = |1>, q1 = |0>: the one basis state with bit 0 set and bit 1 clear
    amplitudes = U @ (_BITS[0] > _BITS[1]).astype(complex)
    return _read_imbalance(np.abs(amplitudes) ** 2).tolist()
