"""The sweep's paging stream against a replay that pages every program it names."""

import numpy as np
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
