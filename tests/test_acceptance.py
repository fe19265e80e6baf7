"""Acceptance suite: the eight exit criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion; each line is printed only after its assertions held.

Criterion 5's disorder-contrast threshold (0.2) was pinned by an oracle run
before the main build and is frozen in golden/experiment_default_golden.json;
criterion 5 re-derives a subset of the golden values here through an
independent matrix-product oracle that bypasses the program IR and backends.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from qcoproc import cli, simulator, wavemem, workload
from qcoproc.compiler import (decompose_cnot, decompose_crx, decompose_rz,
                              equivalence_check, frame_rotate_z_to_y, lower,
                              schedule)
from qcoproc.errors import CapacityExceeded
from qcoproc.isa import CZ, QuantumProgram, RotationKey, Rxy, parse_program, slot
from qcoproc.simulator import NoiseParams, evolution_operator, hamiltonian_matrix
from qcoproc.workload import (DEFAULT_TAU, DisorderRealization, ExperimentConfig,
                              build_native_circuit, build_source_circuit,
                              derive_seed, gate_census, run_experiment,
                              sample_disorder)

PI = math.pi
REPO = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG_PATH = REPO / "configs" / "experiment_default.json"
GOLDEN_PATH = REPO / "golden" / "experiment_default_golden.json"


def load_default_config() -> ExperimentConfig:
    return ExperimentConfig.from_json_dict(json.loads(DEFAULT_CONFIG_PATH.read_text()))


@pytest.fixture(scope="module")
def default_experiment():
    config = load_default_config()
    start = time.monotonic()
    result = run_experiment(config)
    return config, result, time.monotonic() - start


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def test_criterion_1_gate_census(tmp_path):
    """Census: 40 two-qubit / 104 single-qubit at k=10; 4k and 10k+4 for all k."""
    start = time.monotonic()
    out = tmp_path / "k10.qasm"
    assert cli.main(["gen", "--w", "25", "--k", "10", "--seed", "3",
                     "--out", str(out)]) == 0
    census = gate_census(parse_program(out.read_text()))
    assert (census[CZ], census[Rxy]) == (40, 104)
    rng = np.random.default_rng(0)
    r = sample_disorder(25.0, DEFAULT_TAU, 10, rng)
    for k in range(11):
        c = gate_census(build_native_circuit(r, k))
        assert c[CZ] == 4 * k
        assert c[Rxy] == 10 * k + 4
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(f"PASS criterion 1: gate census 40/104 at k=10, 4k & 10k+4 for k=0..10 "
           f"({elapsed:.2f}s)")


def test_criterion_2_decomposition_soundness():
    """1000 random instances per decomposition, distance < 1e-10; literal
    (-0.46*pi, pi) pulse from the 0.08*pi phase rotation."""
    start = time.monotonic()

    def seq_unitary(instructions, n_qubits=2):
        program = QuantumProgram(n_qubits, tuple(slot(i) for i in instructions))
        U = np.eye(1 << n_qubits, dtype=complex)
        for s in program.slots:
            U = simulator.slot_unitary(s, n_qubits) @ U
        return U

    def cnot_ref(target, control):
        U = np.zeros((4, 4), dtype=complex)
        for idx in range(4):
            U[idx ^ (1 << target) if (idx >> control) & 1 else idx, idx] = 1.0
        return U

    def rx_ref(t):
        return np.array([[math.cos(t / 2), -1j * math.sin(t / 2)],
                         [-1j * math.sin(t / 2), math.cos(t / 2)]])

    def crx_ref(alpha, rotated, conditioning):
        U = np.eye(4, dtype=complex)
        rows = [i for i in range(4) if (i >> conditioning) & 1]
        block = rx_ref(alpha)
        for ri in rows:
            for rj in rows:
                U[ri, rj] = block[(ri >> rotated) & 1, (rj >> rotated) & 1]
        return U

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        t, c = rng.permutation(2).tolist()
        d = equivalence_check(seq_unitary(decompose_cnot(t, c)),
                              cnot_ref(t, c)).phase_invariant_distance
        worst = max(worst, d)
        assert d < 1e-10

        alpha = rng.uniform(-2 * PI, 2 * PI)
        rq, cq = rng.permutation(2).tolist()
        d = equivalence_check(seq_unitary(decompose_crx(alpha, rq, cq)),
                              crx_ref(alpha, rq, cq)).phase_invariant_distance
        worst = max(worst, d)
        assert d < 1e-10

        beta = rng.uniform(-2 * PI, 2 * PI)
        rz_ref = np.diag([np.exp(-1j * beta / 2), np.exp(1j * beta / 2)])
        d = equivalence_check(seq_unitary(decompose_rz(beta, 0), n_qubits=1),
                              rz_ref).phase_invariant_distance
        worst = max(worst, d)
        assert d < 1e-10

    literal = decompose_rz(0.08 * PI, 1)[1].key
    assert literal == RotationKey.make(-0.46 * PI, PI)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(f"PASS criterion 2: 3000 decompositions sound (worst distance "
           f"{worst:.1e}), Rz(0.08pi) yields the literal (-0.46pi, pi) pulse "
           f"({elapsed:.2f}s)")


def test_criterion_3_pipeline_equivalence():
    """50 seeded realizations, k in 0..3: compiled pipeline equals the native
    generator's ideal probabilities within 1e-9."""
    start = time.monotonic()
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng(3000 + i)
        w = float(rng.choice([1.0, 25.0]))
        r = sample_disorder(w, DEFAULT_TAU, 3, rng, seed=i)
        for k in range(4):
            compiled = schedule(lower(frame_rotate_z_to_y(build_source_circuit(r, k))))
            pc = simulator.run_ideal(compiled).probabilities()
            pn = simulator.run_ideal(build_native_circuit(r, k)).probabilities()
            for reg in ("q0mZ", "q1mZ"):
                worst = max(worst, abs(pc[reg] - pn[reg]))
                assert abs(pc[reg] - pn[reg]) < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(f"PASS criterion 3: 50 realizations x k=0..3 pipeline equivalence "
           f"(worst prob diff {worst:.1e}) ({elapsed:.2f}s)")


def test_criterion_4_trotter_order():
    """Interval-vs-exact error ratio in [3.5, 4.5] under tau halving, 20
    random realizations at tau = 0.01*pi, eigendecomposition oracle."""
    start = time.monotonic()
    rng = np.random.default_rng(404)
    tau = 0.01 * PI
    ratios = []
    for _ in range(20):
        w = float(rng.uniform(0.2, 25.0))
        r1 = sample_disorder(w, tau, 1, rng)
        r2 = DisorderRealization(w=w, tau=tau / 2, n_steps=1, h0x=r1.h0x,
                                 h0y=r1.h0y, h1x=r1.h1x, h1y=r1.h1y)
        H = hamiltonian_matrix(w, r1.h0x, r1.h0y, r1.h1x, r1.h1y)
        d1 = equivalence_check(workload.trotter_interval_unitary(r1),
                               evolution_operator(H, r1.tau)).phase_invariant_distance
        d2 = equivalence_check(workload.trotter_interval_unitary(r2),
                               evolution_operator(H, r2.tau)).phase_invariant_distance
        ratios.append(d1 / d2)
        assert 3.5 <= d1 / d2 <= 4.5
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(f"PASS criterion 4: Trotter error ratio in [{min(ratios):.2f}, "
           f"{max(ratios):.2f}] over 20 realizations ({elapsed:.2f}s)")


def _independent_imbalance_curve(r: DisorderRealization) -> np.ndarray:
    """Matrix-product oracle bypassing the program IR and simulator backends."""
    eye = np.eye(2, dtype=complex)

    def rxy(phi, gamma):
        c, s = math.cos(gamma / 2), math.sin(gamma / 2)
        return np.array([[c, -1j * np.exp(-1j * phi) * s],
                         [-1j * np.exp(1j * phi) * s, c]])

    def on0(U):
        return np.kron(eye, U)

    def on1(U):
        return np.kron(U, eye)

    cz = np.diag([1, 1, 1, -1]).astype(complex)
    w, tau = r.w, r.tau
    seq = [on1(rxy(0.5 * PI, -0.5 * PI)) @ on0(rxy(0.5 * PI, 2 * w * r.h0y * tau)), cz,
           on1(rxy(0.5 * PI, -0.5 * PI)), on1(rxy(tau - 0.5 * PI, PI)), cz,
           on0(rxy(0, -2 * tau)), cz,
           on1(rxy(0.5 * PI, -0.5 * PI)) @ on0(rxy(0, 2 * tau)), cz,
           on1(rxy(0.5 * PI, 0.5 * PI + 2 * w * r.h1y * tau)),
           on1(rxy(0, 2 * w * r.h1x * tau)) @ on0(rxy(0, 2 * w * r.h0x * tau))]
    interval = np.eye(4, dtype=complex)
    for M in seq:
        interval = M @ interval
    prologue = on1(rxy(0, -0.5 * PI)) @ on0(rxy(0, 0.5 * PI))
    epilogue = on1(rxy(0, 0.5 * PI)) @ on0(rxy(0, 0.5 * PI))
    psi = prologue @ np.array([1, 0, 0, 0], dtype=complex)
    curve = []
    for _ in range(r.n_steps + 1):
        probs = np.abs(epilogue @ psi) ** 2
        curve.append((probs[1] + probs[3]) - (probs[2] + probs[3]))
        psi = interval @ psi
    return np.array(curve)


def test_criterion_5_disorder_contrast(default_experiment):
    """Default seed, tau = 0.04*pi, N = 10, 60 realizations per w, ideal:
    I(0) = 1 within 1e-9; mean I over k=6..10 at w=25 exceeds w=1 by >= 0.2;
    w=25 step-to-step variation over k=8..10 below w=1's; < 10 s."""
    config, result, elapsed = default_experiment
    assert elapsed < 10.0

    c1 = np.array(result.series[1.0].mean)
    c25 = np.array(result.series[25.0].mean)
    assert abs(c1[0] - 1.0) < 1e-9 and abs(c25[0] - 1.0) < 1e-9

    gap = np.mean(c25[6:11]) - np.mean(c1[6:11])
    assert gap >= 0.2

    var25 = max(abs(c25[9] - c25[8]), abs(c25[10] - c25[9]))
    var1 = max(abs(c1[9] - c1[8]), abs(c1[10] - c1[9]))
    assert var25 < var1

    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["config_hash"] == cli.config_hash(config)
    for w in (1.0, 25.0):
        recorded = np.array(golden["values"][repr(w)])
        np.testing.assert_allclose(result.series[w].mean, recorded, atol=1e-9)

    # independent oracle: re-derive the w=25 golden mean for 5 realizations
    for i in range(5):
        seed = derive_seed(config.master_seed, 1, i)
        r = sample_disorder(25.0, config.tau, config.n_steps,
                            np.random.default_rng(seed), seed=seed)
        oracle_curve = _independent_imbalance_curve(r)
        np.testing.assert_allclose(result.series[25.0].per_realization[i],
                                   oracle_curve, atol=1e-9)

    report(f"PASS criterion 5: I(0)=1, contrast gap {gap:.3f} >= 0.2, "
           f"plateau variation {var25:.3f} < {var1:.3f}, golden matched "
           f"({elapsed:.2f}s)")


def test_criterion_6_paging_invariants(default_experiment):
    """Residency after every update; loads = |MLST|; |MLST| <= |DLST| when
    full; identical seed -> identical eviction trace; capacity 8 fails on a
    generic realization while 16 succeeds."""
    start = time.monotonic()
    config, result, _ = default_experiment

    reports = [rep for _, _, passes in workload.paged_programs(config)
               for ks, rep in passes for _ in ks]
    total_loads = 0
    for rep in reports:
        assert tuple(sorted(rep.mlst)) == rep.loaded
        total_loads += len(rep.loaded)
    assert result.total_loads == total_loads

    # residency and the full-table MLST/DLST bound, on a small table
    rct = wavemem.RCT(capacity=12)
    rng_evict = np.random.default_rng(6)
    table_full_seen = False
    for i in range(25):
        seed = derive_seed(77, 0, i)
        r = sample_disorder(25.0, DEFAULT_TAU, 10,
                            np.random.default_rng(seed), seed=seed)
        program = build_native_circuit(r, 10)
        needed = wavemem.program_rotation_keys(program)
        if len(rct.codewords) == rct.capacity:
            table_full_seen = True
            resident = set(rct.codewords)
            mlst = needed - resident
            dlst = resident - needed
            assert len(mlst) <= len(dlst)
        _, rep = wavemem.page_update(program, rct, rng_evict)
        assert needed <= set(rct.codewords)
        assert len(rep.loaded) == len(rep.mlst)
    assert table_full_seen

    def eviction_trace(seed):
        rct = wavemem.RCT(capacity=12)
        rng = np.random.default_rng(seed)
        trace = []
        for i in range(12):
            s = derive_seed(88, 0, i)
            r = sample_disorder(25.0, DEFAULT_TAU, 10,
                                np.random.default_rng(s), seed=s)
            _, rep = wavemem.page_update(build_native_circuit(r, 10), rct, rng)
            trace.append(rep.evicted)
        return trace

    assert eviction_trace(41) == eviction_trace(41)

    generic = sample_disorder(25.0, DEFAULT_TAU, 10, np.random.default_rng(5), seed=5)
    program = build_native_circuit(generic, 10)
    n_unique = len(wavemem.program_rotation_keys(program))
    with pytest.raises(CapacityExceeded):
        wavemem.page_update(program, wavemem.RCT(capacity=8), np.random.default_rng(0))
    _, rep = wavemem.page_update(program, wavemem.RCT(capacity=16),
                                 np.random.default_rng(0))
    assert len(rep.loaded) == n_unique

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(f"PASS criterion 6: paging invariants over {len(reports)} "
           f"updates; generic realization = {n_unique} unique rotations, "
           f"capacity 8 raises / 16 fits ({elapsed:.2f}s)")


def test_criterion_7_noisy_backend_physics(default_experiment):
    """Density-matrix invariants each slot; closed-form idle decay at the
    chip's T1/T2 within 1e-9; noisy curves at or below ideal for k >= 1 at
    w = 25."""
    start = time.monotonic()
    noise = NoiseParams.octobox_defaults()

    # trace/Hermiticity/PSD after every slot across a full-depth realization
    def decay_then_validate(rho, s):
        simulator._apply_slot_noise(rho, s, noise)
        rho.validate()

    rng = np.random.default_rng(7007)
    for w in (1.0, 25.0):
        r = sample_disorder(w, DEFAULT_TAU, 10, rng)
        for k in (0, 5, 10):
            program = build_native_circuit(r, k)
            checked = simulator._run(program, simulator.DensityMatrix.ground,
                                     decay_then_validate, "exact", 1, None)
            assert checked.registers == simulator.run_noisy(program, noise).registers

    # closed forms with T1 = 28us / 22us, T2 = 4.2us / 38us
    n_slots = 80
    for q in range(2):
        slots = [slot(simulator.Rxy(q, RotationKey.make(0, PI)))]
        slots += [slot(simulator.Rxy(q, RotationKey.make(0, 0)))
                  for _ in range(n_slots)]
        slots += [slot(simulator.Measure(q, "m"))]
        program = QuantumProgram(2, tuple(slots))
        d = (n_slots + 1) * noise.single_qubit_gate_duration
        expected = math.exp(-d / noise.t1[q])
        got = simulator.run_noisy(program, noise).probabilities()["m"]
        assert abs(got - expected) < 1e-9

        rho = simulator.DensityMatrix.ground(2)
        prep = simulator.slot_unitary(slot(simulator.Rxy(q, RotationKey.make(0, 0.5 * PI))), 2)
        rho.entries = prep @ rho.entries @ prep.conj().T
        for _ in range(n_slots):
            simulator._apply_slot_noise(
                rho, slot(simulator.Rxy(q, RotationKey.make(0, 0))), noise)
        off = abs(rho.entries[0, 1 << q])  # coherence between |00> and qubit q set
        expected_off = 0.5 * math.exp(-(n_slots * noise.single_qubit_gate_duration)
                                      / noise.t2[q])
        assert abs(off - expected_off) < 1e-9

    config, ideal_result, _ = default_experiment
    noisy_config = ExperimentConfig(**{**config.__dict__, "backend": "noisy"})
    noisy_result = run_experiment(noisy_config)
    ci = np.array(ideal_result.series[25.0].mean)
    cn = np.array(noisy_result.series[25.0].mean)
    for k in range(1, 11):
        assert cn[k] <= ci[k] + 1e-12

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(f"PASS criterion 7: invariants hold, idle decay matches exp(-d/T1) "
           f"and exp(-d/T2) at the chip values, noisy w=25 curve at or below "
           f"ideal for k>=1 ({elapsed:.1f}s)")


def test_criterion_8_determinism(tmp_path):
    """Two experiment invocations with the same config produce byte-identical
    CSV and paging JSON."""
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli.main(["experiment", "--config", str(DEFAULT_CONFIG_PATH),
                         "--out", str(out)])
        assert code == 0
        outputs.append(((out / "imbalance.csv").read_bytes(),
                        (out / "paging.json").read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    report("PASS criterion 8: repeated experiment runs byte-identical "
           "(imbalance.csv, paging.json)")
