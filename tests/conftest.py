"""The per-program paging replay that the paging stream and its consumers are
checked against."""

import numpy as np
import pytest

from qcoproc import wavemem
from qcoproc.isa import Rxy
from qcoproc.workload import (ExperimentConfig, build_native_circuit, derive_seed,
                              sample_disorder)


def _assert_stream_sound(program, rct):
    """The table and the codeword stream ``assign_codewords`` reads from it
    stay sound: distinct rotation codewords in [0, capacity), one codeword per
    rotation, and cZ/measure/reset at their reserved codewords."""
    table = list(rct.codewords.values())
    assert len(set(table)) == len(table)
    assert all(0 <= cw < rct.capacity for cw in table)
    by_key: dict = {}
    for instr, cw in zip(program.instructions(), wavemem.assign_codewords(program, rct)):
        if isinstance(instr, Rxy):
            assert by_key.setdefault(instr.key, cw) == cw
        else:
            assert cw == rct.capacity + wavemem.RESERVED_CODEWORDS[type(instr)]
    assert len(set(by_key.values())) == len(by_key)


def _per_program_replay(config: ExperimentConfig):
    """Build, scan and page ``build_native_circuit(r, k)`` for every (w, i, k),
    checking the codeword stream after every pass; yields
    ``(w, i, r, k, report)``."""
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
                _assert_stream_sound(program, rct)
                yield w, i, r, k, report


@pytest.fixture(scope="session")
def per_program_replay():
    return _per_program_replay
