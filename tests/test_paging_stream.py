"""The sweep's paging stream against a replay that pages every program it names."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoproc import wavemem
from qcoproc.isa import Rxy
from qcoproc.wavemem import program_rotation_keys
from qcoproc.workload import (DEFAULT_TAU, ExperimentConfig, build_native_circuit,
                              derive_seed, paged_programs, sample_disorder)

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "experiment_default.json"


@st.composite
def _configs(draw):
    return ExperimentConfig(
        w_values=tuple(draw(st.lists(st.floats(0.0, 30.0), min_size=1, max_size=2,
                                     unique=True))),
        n_realizations=draw(st.integers(1, 3)),
        n_steps=draw(st.integers(0, 8)),  # k >= 3 repeats k = 2
        master_seed=draw(st.integers(0, 2**32)),
        capacity=draw(st.integers(12, 40)),  # small enough to evict
        share_realizations_across_w=draw(st.booleans()))


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
    checking the codeword stream after every pass."""
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


@settings(max_examples=60, deadline=None)
@given(_configs())
def test_stream_equals_per_program_replay(config):
    assert list(paged_programs(config)) == list(_per_program_replay(config))


@settings(max_examples=60, deadline=None)
@given(w=st.floats(0.0, 30.0), n_steps=st.integers(1, 10), seed=st.integers(0, 2**32))
def test_first_interval_program_holds_every_k0_rotation(w, n_steps, seed):
    """What lets the stream scan only the last program it builds."""
    r = sample_disorder(w, DEFAULT_TAU, n_steps, np.random.default_rng(seed), seed=seed)
    assert program_rotation_keys(build_native_circuit(r, 0)) \
        <= program_rotation_keys(build_native_circuit(r, 1))


@pytest.mark.parametrize("n_steps", [0, 1, 4])
def test_stream_scans_each_realization_once(monkeypatch, n_steps):
    """One scan per realization, of the last program it builds, yet the
    registry ends as the per-program replay's."""
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
    assert n_scans == 2 * 3
    assert stream_registry.keys() == registries[-1].keys()


def _count_page_updates(monkeypatch, config: ExperimentConfig) -> int:
    calls = []
    page_update = wavemem.page_update

    def counting_page_update(program, rct, rng):
        calls.append(program)
        return page_update(program, rct, rng)

    monkeypatch.setattr(wavemem, "page_update", counting_page_update)
    list(paged_programs(config))
    return len(calls)


def test_default_stream_pages_each_realization_three_times(monkeypatch):
    """k = 0, k = 1 and k = 2 (whose DLST an eviction at k = 1 changes); the
    passes k = 3..10 repeat k = 2, which loaded nothing."""
    config = ExperimentConfig.from_json_dict(json.loads(DEFAULT_CONFIG.read_text()))
    assert _count_page_updates(monkeypatch, config) == 360  # of 1 320 passes


@pytest.mark.parametrize("n_steps, per_realization", [(0, 1), (1, 2), (2, 3), (8, 3)])
def test_stream_pages_at_most_three_passes(monkeypatch, n_steps, per_realization):
    config = ExperimentConfig(w_values=(1.0, 25.0), n_realizations=3, n_steps=n_steps,
                              capacity=16)
    assert _count_page_updates(monkeypatch, config) == 2 * 3 * per_realization
