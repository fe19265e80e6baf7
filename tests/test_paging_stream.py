"""The sweep's paging stream against a replay that pages every program it names."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoproc import wavemem
from qcoproc.workload import (ExperimentConfig, build_native_circuit, derive_seed,
                              paged_programs, sample_disorder)


@st.composite
def _configs(draw):
    return ExperimentConfig(
        w_values=tuple(draw(st.lists(st.floats(0.0, 30.0), min_size=1, max_size=2,
                                     unique=True))),
        n_realizations=draw(st.integers(1, 3)),
        n_steps=draw(st.integers(0, 4)),
        master_seed=draw(st.integers(0, 2**32)),
        capacity=draw(st.integers(12, 40)),  # small enough to evict
        share_realizations_across_w=draw(st.booleans()))


def _per_program_replay(config: ExperimentConfig):
    """Build, scan and page ``build_native_circuit(r, k)`` for every (w, i, k)."""
    rct = wavemem.RCT(capacity=config.capacity)
    qos: dict = {}
    evict_rng = np.random.default_rng(derive_seed(config.master_seed, 0xE, 0xE))
    for w_index, w in enumerate(config.w_values):
        for i in range(config.n_realizations):
            seed = derive_seed(config.master_seed,
                               0 if config.share_realizations_across_w else w_index, i)
            r = sample_disorder(w, config.tau, config.n_steps,
                                np.random.default_rng(seed), seed=seed)
            for k in range(config.n_steps + 1):
                program = build_native_circuit(r, k)
                wavemem.dgs_scan(program, qos)
                _, report = wavemem.page_update(program, rct, evict_rng)
                yield w, i, r, k, report


@settings(max_examples=60, deadline=None)
@given(_configs())
def test_stream_equals_per_program_replay(config):
    assert list(paged_programs(config)) == list(_per_program_replay(config))


@pytest.mark.parametrize("n_steps", [0, 1, 4])
def test_stream_scans_each_built_program_once(monkeypatch, n_steps):
    """One scan for the k = 0 program and one for the k = 1 program that every
    k >= 1 shares, yet the registry ends as the per-program replay's."""
    registries = []  # the registry each scan extended, in call order
    scan = wavemem.dgs_scan

    def recording_scan(program, qos):
        registries.append(qos)
        return scan(program, qos)

    monkeypatch.setattr(wavemem, "dgs_scan", recording_scan)
    config = ExperimentConfig(w_values=(1.0, 25.0), n_realizations=3, n_steps=n_steps,
                              capacity=16)
    list(paged_programs(config))
    n_scans, stream_registry = len(registries), registries[-1]
    list(_per_program_replay(config))
    assert n_scans == 2 * 3 * min(n_steps + 1, 2)
    assert stream_registry.keys() == registries[-1].keys()
