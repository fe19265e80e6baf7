"""`qcoproc paging-report`: its direct formatter against `json.dumps`, the
digests of the shipped trace and of the same stream at capacity 512, a
capacity failure partway through the stream, and a report written part by
part, never joined."""

import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcoproc import cli
from qcoproc.workload import ExperimentConfig

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO / "configs" / "experiment_default.json"
REFERENCE = REPO / "perfbench" / "reference.json"


def _json_dumps_report(config: ExperimentConfig, replay) -> str:
    """The trace as the CLI printed it through ``json.dumps`` before the
    formatter, with one run per program of the per-program ``replay``."""
    runs = [{"w": float(w), "realization": i, "k": k, **report.to_json_dict()}
            for w, i, _, k, report in replay(config)]
    body = {"capacity": config.capacity,
            "total_loads": sum(len(run["loaded"]) for run in runs),
            "total_hits": sum(run["hits"] for run in runs), "runs": runs}
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


@st.composite
def _configs(draw):
    negative = draw(st.floats(-30.0, -1e-3))
    others = draw(st.lists(st.floats(-30.0, 30.0), max_size=2, unique=True))
    return ExperimentConfig(
        w_values=tuple([negative] + [w for w in others if w != negative]),
        n_realizations=draw(st.integers(1, 4)),
        n_steps=draw(st.integers(0, 6)),  # k >= 3 shares k = 2's pass
        master_seed=draw(st.integers(0, 2**32)),
        capacity=draw(st.integers(10, 16)),  # small enough to evict
        share_realizations_across_w=draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(_configs())
def test_formatter_matches_json_dumps(per_program_replay, config):
    assert "".join(cli.paging_report_parts(config)) == _json_dumps_report(config, per_program_replay)


def test_formatter_matches_json_dumps_with_evictions(per_program_replay):
    config = ExperimentConfig(w_values=(-2.5, 25.0), n_realizations=4, n_steps=3,
                              capacity=10)
    text = "".join(cli.paging_report_parts(config))
    assert text == _json_dumps_report(config, per_program_replay)
    assert any(run["evicted"] for run in json.loads(text)["runs"])


def test_runs_after_an_evicting_k1(per_program_replay):
    """An eviction at k = 1 changes k = 2's DLST, and every later k prints
    k = 2's run with only its "k" changed."""
    config = ExperimentConfig(w_values=(25.0,), n_realizations=4, n_steps=6, capacity=10)
    text = "".join(cli.paging_report_parts(config))
    assert text == _json_dumps_report(config, per_program_replay)
    runs = json.loads(text)["runs"]
    by_realization = [runs[i * 7:(i + 1) * 7] for i in range(4)]
    evicting = [r for r in by_realization if r[1]["evicted"]]
    assert len(evicting) == 3  # each realization after the first
    for realization in evicting:
        assert realization[2]["dlst"] != realization[1]["dlst"]
        for run in realization[3:]:
            assert {**run, "k": 2} == realization[2]


def test_default_config_digest(tmp_path):
    out = tmp_path / "paging-report.json"
    assert cli.main(["paging-report", "--config", str(DEFAULT_CONFIG),
                     "--out", str(out)]) == 0
    expected = json.loads(REFERENCE.read_text())["paging-report"]["sha256"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def test_capacity_512_digest():
    """The default stream at capacity 512: 1 320 runs with dumping lists of up
    to 480 keys, so nearly all of its 29.7 MB is sorted DLSTs.  Pinned before
    the DLSTs were sorted through ``isa.sorted_keys``; the parts are hashed
    one at a time, never joined."""
    body = json.loads(DEFAULT_CONFIG.read_text())
    config = ExperimentConfig.from_json_dict({**body, "capacity": 512})
    digest, size = hashlib.sha256(), 0
    for part in cli.paging_report_parts(config):
        data = part.encode()
        digest.update(data)
        size += len(data)
    assert size == 29_688_324
    assert digest.hexdigest() == "243b5670456ebee777815f632cd15775cea8f11b70bcd91acc7e0c9c738ed01c"


def _config_with_capacity(tmp_path, capacity) -> Path:
    body = json.loads(DEFAULT_CONFIG.read_text())
    body.update(n_realizations=2, n_steps=2, capacity=capacity)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body))
    return path


# A full-depth program needs 10 rotations and a k = 0 program 2: capacity 9
# fails at k = 1 of the first realization, after one pass has been paged.
@pytest.mark.parametrize("capacity", [1, 9])
def test_capacity_exceeded_writes_nothing(tmp_path, capsys, capacity):
    config = _config_with_capacity(tmp_path, capacity)
    out = tmp_path / "paging-report.json"
    assert cli.main(["paging-report", "--config", str(config), "--out", str(out)]) == 4
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1

    assert cli.main(["paging-report", "--config", str(config)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_stdout_and_out_carry_the_same_bytes(tmp_path, capfdbinary):
    config = _config_with_capacity(tmp_path, 10)
    out = tmp_path / "paging-report.json"
    assert cli.main(["paging-report", "--config", str(config), "--out", str(out)]) == 0
    capfdbinary.readouterr()
    assert cli.main(["paging-report", "--config", str(config)]) == 0
    assert capfdbinary.readouterr().out == out.read_bytes()


def test_report_is_written_without_joining_its_parts(tmp_path):
    """A 7.5 MB report peaks at some 0.5 MB of traced memory: its parts share
    each pass's text and go to the file one by one.  Joined into one string
    first, the document alone would exceed the bound."""
    body = json.loads(DEFAULT_CONFIG.read_text())
    body.update(n_realizations=5, n_steps=400)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body))
    out = tmp_path / "paging-report.json"
    tracemalloc.start()
    try:
        assert cli.main(["paging-report", "--config", str(config), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size / 4
