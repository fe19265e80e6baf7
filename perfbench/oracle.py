"""Reference values for the benchmark's output checks.

Nothing here imports qcoproc.  The disorder realizations are re-drawn from the
same seed derivation the experiment documents, and the imbalance curves come
from plain matrix products over the native interval (the matrix-product form
of the acceptance suite's oracle).  The noisy curves use the same form with
16x16 Liouville maps: vec(K rho K^H) = (K kron conj(K)) vec(rho) for a
row-major vec, with T1/T2 decay after every slot.
"""

from __future__ import annotations

import functools
import math

import numpy as np

PI = math.pi
EYE2 = np.eye(2, dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
PAULI_Z = np.diag([1, -1]).astype(complex)

# The two-transmon chip's published values, used when a config names no noise.
CHIP_NOISE = {"t1": (28e-6, 22e-6), "t2": (4.2e-6, 38e-6),
              "single_qubit_gate_duration": 20e-9, "cz_duration": 40e-9}


def derive_seed(master_seed: int, w_index: int, realization_index: int) -> int:
    ss = np.random.SeedSequence((master_seed, w_index, realization_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def realizations(config: dict) -> list[dict]:
    """Disorder fields per (w, realization), in the experiment's order."""
    rows = []
    for w_index, w in enumerate(config["w_values"]):
        for i in range(config["n_realizations"]):
            seed_index = 0 if config.get("share_realizations_across_w") else w_index
            seed = derive_seed(config["master_seed"], seed_index, i)
            h0x, h0y, h1x, h1y = np.random.default_rng(seed).uniform(-1.0, 1.0, 4)
            rows.append({"w": float(w), "seed": seed, "h0x": float(h0x),
                         "h0y": float(h0y), "h1x": float(h1x), "h1y": float(h1y)})
    return rows


def rxy(phi: float, gamma: float) -> np.ndarray:
    c, s = math.cos(gamma / 2), math.sin(gamma / 2)
    return np.array([[c, -1j * np.exp(-1j * phi) * s],
                     [-1j * np.exp(1j * phi) * s, c]])


def on0(U: np.ndarray) -> np.ndarray:
    return np.kron(EYE2, U)


def on1(U: np.ndarray) -> np.ndarray:
    return np.kron(U, EYE2)


def native_slots(r: dict, tau: float):
    """(prologue, interval, epilogue) of the native circuit as lists of
    (4x4 slot unitary, slot kind), kind 'rxy' or 'cz' for the slot duration."""
    w = r["w"]
    interval = [
        (on1(rxy(0.5 * PI, -0.5 * PI)) @ on0(rxy(0.5 * PI, 2 * w * r["h0y"] * tau)), "rxy"),
        (CZ, "cz"),
        (on1(rxy(0.5 * PI, -0.5 * PI)), "rxy"),
        (on1(rxy(tau - 0.5 * PI, PI)), "rxy"),
        (CZ, "cz"),
        (on0(rxy(0, -2 * tau)), "rxy"),
        (CZ, "cz"),
        (on1(rxy(0.5 * PI, -0.5 * PI)) @ on0(rxy(0, 2 * tau)), "rxy"),
        (CZ, "cz"),
        (on1(rxy(0.5 * PI, 0.5 * PI + 2 * w * r["h1y"] * tau)), "rxy"),
        (on1(rxy(0, 2 * w * r["h1x"] * tau)) @ on0(rxy(0, 2 * w * r["h0x"] * tau)), "rxy"),
    ]
    prologue = [(on1(rxy(0, -0.5 * PI)) @ on0(rxy(0, 0.5 * PI)), "rxy")]
    epilogue = [(on1(rxy(0, 0.5 * PI)) @ on0(rxy(0, 0.5 * PI)), "rxy")]
    return prologue, interval, epilogue


def _imbalance(probs: np.ndarray) -> float:
    """P(q0=1) - P(q1=1) from the four basis probabilities (q0 = LSB)."""
    return float((probs[1] + probs[3]) - (probs[2] + probs[3]))


def _product(maps: list[np.ndarray], dim: int) -> np.ndarray:
    out = np.eye(dim, dtype=complex)
    for M in maps:
        out = M @ out
    return out


def ideal_probabilities(r: dict, tau: float, n_steps: int) -> list[np.ndarray]:
    """Basis-state probabilities at measurement for k = 0..n_steps."""
    prologue, interval, epilogue = native_slots(r, tau)
    step = _product([U for U, _ in interval], 4)
    back = _product([U for U, _ in epilogue], 4)
    psi = _product([U for U, _ in prologue], 4) @ np.array([1, 0, 0, 0], dtype=complex)
    out = []
    for _ in range(n_steps + 1):
        out.append(np.abs(back @ psi) ** 2)
        psi = step @ psi
    return out


def ideal_curve(r: dict, tau: float, n_steps: int) -> list[float]:
    return [_imbalance(probs) for probs in ideal_probabilities(r, tau, n_steps)]


def _liouville(kraus: list[np.ndarray]) -> np.ndarray:
    return sum(np.kron(K, K.conj()) for K in kraus)


def _decay(noise: dict, duration: float) -> np.ndarray:
    """Amplitude damping then pure dephasing on q0, then on q1."""
    out = np.eye(16, dtype=complex)
    for q, embed in ((0, on0), (1, on1)):
        t1, t2 = noise["t1"][q], noise["t2"][q]
        p = 1.0 - math.exp(-duration / t1)
        if p > 0.0:
            damp = [np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=complex),
                    np.array([[0, math.sqrt(p)], [0, 0]], dtype=complex)]
            out = _liouville([embed(K) for K in damp]) @ out
        rate = 1.0 / t2 - 0.5 / t1
        flip = (1.0 - math.exp(-duration * rate)) / 2.0 if rate > 0 else 0.0
        if flip > 0.0:
            out = _liouville([embed(math.sqrt(1 - flip) * EYE2),
                              embed(math.sqrt(flip) * PAULI_Z)]) @ out
    return out


def noisy_curve(r: dict, tau: float, n_steps: int, noise: dict) -> list[float]:
    durations = {"rxy": noise["single_qubit_gate_duration"], "cz": noise["cz_duration"]}
    decay = {kind: _decay(noise, d) for kind, d in durations.items()}

    def superop(slots):
        return _product([decay[kind] @ _liouville([U]) for U, kind in slots], 16)

    prologue, interval, epilogue = native_slots(r, tau)
    step, back = superop(interval), superop(epilogue)
    rho = np.zeros(16, dtype=complex)
    rho[0] = 1.0
    rho = superop(prologue) @ rho
    curve = []
    for _ in range(n_steps + 1):
        diag = np.real((back @ rho).reshape(4, 4).diagonal())
        curve.append(_imbalance(diag))
        rho = step @ rho
    return curve


def experiment_reference(config: dict) -> dict:
    """Per-realization rows with their curves, and per-w mean and stderr."""
    tau = config["tau_over_pi"] * PI
    n_steps = config["n_steps"]
    if config.get("backend", "ideal") == "noisy":
        noise = {**CHIP_NOISE, **(config.get("noise") or {})}
        curve_of = functools.partial(noisy_curve, tau=tau, n_steps=n_steps, noise=noise)
    else:
        curve_of = functools.partial(ideal_curve, tau=tau, n_steps=n_steps)
    rows = [{**r, "I": curve_of(r)} for r in realizations(config)]
    series = {}
    for w in config["w_values"]:
        matrix = np.array([row["I"] for row in rows if row["w"] == float(w)])
        n = len(matrix)
        stderr = matrix.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(n_steps + 1)
        series[float(w)] = {"mean": matrix.mean(axis=0).tolist(), "stderr": stderr.tolist()}
    return {"rows": rows, "series": series}


def program_text_probabilities(text: str) -> tuple[float, float]:
    """P(q0=1), P(q1=1) at measurement for a two-qubit native assembly text.

    An independent reading of the text format: angles are in units of pi,
    qubit 0 is the least significant bit, measurement does not collapse.
    """
    psi = np.array([1, 0, 0, 0], dtype=complex)
    measured: dict[int, float] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        stmts = line[1:-1].split("|") if line.startswith("{") else [line]
        for stmt in stmts:
            op, _, rest = stmt.strip().partition(" ")
            args = [a.strip() for a in rest.replace("->", ",").split(",")]
            if op == "rxy":
                U = rxy(float(args[1]) * PI, float(args[2]) * PI)
                psi = (on0(U) if args[0] == "q0" else on1(U)) @ psi
            elif op == "cz":
                psi = CZ @ psi
            elif op == "measure":
                q = int(args[0][1:])
                measured[q] = float(sum(abs(psi[i]) ** 2 for i in range(4) if (i >> q) & 1))
            elif op == "reset":
                q = int(args[0][1:])
                keep = np.array([not (i >> q) & 1 for i in range(4)])
                if np.sum(np.abs(psi[~keep]) ** 2) > 1e-12:
                    raise ValueError("reset of an excited qubit")
                psi = np.where(keep, psi, 0)
            else:
                raise ValueError(f"unknown statement {stmt!r}")
    return measured[0], measured[1]
