"""The sweep's paging stream against a replay that pages every program it names."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoproc import wavemem, workload
from qcoproc.wavemem import program_rotation_keys
from qcoproc.workload import (DEFAULT_TAU, ExperimentConfig, build_native_circuit,
                              paged_programs, sample_disorder)

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "experiment_default.json"


@st.composite
def _configs(draw):
    return ExperimentConfig(
        w_values=tuple(draw(st.lists(st.floats(0.0, 30.0), min_size=1, max_size=2,
                                     unique=True))),
        n_realizations=draw(st.integers(1, 3)),
        n_steps=draw(st.integers(0, 8)),  # k >= 3 shares k = 2's pass
        master_seed=draw(st.integers(0, 2**32)),
        capacity=draw(st.integers(12, 40)),  # small enough to evict
        share_realizations_across_w=draw(st.booleans()))


def _expand(config: ExperimentConfig):
    """The stream as one ``(w, i, r, k, report)`` entry per program, each pass
    repeated for every k in its ``ks``; checks that each realization's ``ks``
    cover 0..n_steps once, in order."""
    for i, r, passes in paged_programs(config):
        steps = [k for ks, _ in passes for k in ks]
        assert steps == list(range(config.n_steps + 1))
        for ks, report in passes:
            yield from ((r.w, i, r, k, report) for k in ks)


@settings(max_examples=60, deadline=None)
@given(_configs())
def test_stream_equals_per_program_replay(per_program_replay, config):
    assert list(_expand(config)) == list(per_program_replay(config))


@settings(max_examples=60, deadline=None)
@given(w=st.floats(0.0, 30.0), n_steps=st.integers(1, 10), seed=st.integers(0, 2**32))
def test_first_interval_program_holds_every_k0_rotation(w, n_steps, seed):
    """What lets the stream scan only the last program it builds."""
    r = sample_disorder(w, DEFAULT_TAU, n_steps, np.random.default_rng(seed), seed=seed)
    assert program_rotation_keys(build_native_circuit(r, 0)) \
        <= program_rotation_keys(build_native_circuit(r, 1))


@pytest.mark.parametrize("n_steps", [0, 1, 4])
def test_stream_scans_each_realization_once(monkeypatch, per_program_replay, n_steps):
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
    list(per_program_replay(config))
    assert n_scans == 2 * 3
    assert stream_registry.keys() == registries[-1].keys()


@pytest.mark.parametrize("n_steps", [0, 1, 4])
def test_stream_builds_each_realizations_evolution_once(n_steps):
    """The k = 0 and k = 1 programs of a realization share one build of its
    ``evolution``."""
    config = ExperimentConfig(w_values=(1.0, 25.0), n_realizations=3, n_steps=n_steps)
    workload.evolution.cache_clear()
    list(paged_programs(config))
    info = workload.evolution.cache_info()
    assert (info.misses, info.hits) == (2 * 3, 2 * 3 * min(n_steps, 1))


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
    k = 2 pass stands for k = 2..10."""
    config = ExperimentConfig.from_json_dict(json.loads(DEFAULT_CONFIG.read_text()))
    assert _count_page_updates(monkeypatch, config) == 360  # of 1 320 passes


@pytest.mark.parametrize("n_steps, per_realization", [(0, 1), (1, 2), (2, 3), (8, 3)])
def test_stream_pages_at_most_three_passes(monkeypatch, n_steps, per_realization):
    config = ExperimentConfig(w_values=(1.0, 25.0), n_realizations=3, n_steps=n_steps,
                              capacity=16)
    assert _count_page_updates(monkeypatch, config) == 2 * 3 * per_realization


def test_realizations_that_reuse_a_rotation_set(monkeypatch, per_program_replay):
    """At w = 0 every realization needs the first one's rotations, so k = 1
    loads nothing after the first realization, and k = 2 is paged anyway."""
    config = ExperimentConfig(w_values=(0.0,), n_realizations=4, n_steps=6)
    records = list(paged_programs(config))
    assert all(not passes[1][1].loaded for _, _, passes in records[1:])
    assert list(_expand(config)) == list(per_program_replay(config))
    assert _count_page_updates(monkeypatch, config) == 4 * (min(config.n_steps, 2) + 1)
