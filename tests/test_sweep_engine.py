"""The sweep engine against the per-program backends it replaces in the sweep."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoproc import simulator
from qcoproc.errors import InvalidNoise
from qcoproc.simulator import DensityMatrix, NoiseParams, run_ideal, run_noisy
from qcoproc.workload import (ExperimentConfig, build_native_circuit, derive_seed,
                              imbalance, run_experiment)


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
        w_values=(draw(st.floats(0.0, 30.0)),),
        n_realizations=draw(st.integers(1, 2)),
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
    result = run_experiment(config)
    w = config.w_values[0]
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


def test_engine_rejects_noise_for_too_few_qubits():
    with pytest.raises(InvalidNoise):
        simulator.sweep_probabilities((), (), (), 1, 2, NoiseParams(t1=(1e-5,), t2=(1e-5,)))


def test_density_matrix_prob_one_clips_rounding_below_zero():
    rho = DensityMatrix(2, np.diag([1.0, -6e-33, 0.0, 0.0]).astype(complex))
    assert rho.prob_one(0) == 0.0
    assert rho.prob_one(1) == 0.0
