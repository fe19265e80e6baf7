"""Self-tests of the benchmark's checks, oracle and tracing.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from qcoproc import cli  # noqa: E402

SMALL = {"w_values": [1.0, 25.0], "n_realizations": 2, "tau_over_pi": 0.04,
         "n_steps": 10, "master_seed": 7, "backend": "ideal",
         "measurement_mode": "exact", "n_avg": 1000, "capacity": 128,
         "share_realizations_across_w": False}


def _write_config(tmp_path, config) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.fixture(scope="module", params=["ideal", "noisy"])
def experiment(request, tmp_path_factory):
    tmp = tmp_path_factory.mktemp(request.param)
    config = {**SMALL, "backend": request.param}
    out = tmp / "out"
    assert cli.main(["experiment", "--config", _write_config(tmp, config), "--out",
                     str(out), "--dump-realizations"]) == 0
    return config, out, oracle.experiment_reference(config)


def _check(experiment, golden=None):
    config, out, reference = experiment
    return checks.check_experiment(out, config, reference, golden)


def test_unperturbed_experiment_passes(experiment):
    attempted, failed, loads = _check(experiment)
    config = experiment[0]
    points = len(config["w_values"]) * (config["n_steps"] + 1)
    assert attempted == points * (config["n_realizations"] + 1) + 1
    assert failed == 0 and loads > 0


@pytest.mark.parametrize("value", [1e-6, float("nan")])
def test_perturbed_point_is_a_failed_operation(experiment, tmp_path, value):
    config, out, reference = experiment
    copy = tmp_path / "out"
    copy.mkdir()
    for name in ("imbalance.csv", "paging.json"):
        (copy / name).write_bytes((out / name).read_bytes())
    rows = json.loads((out / "realizations.json").read_text())
    rows[1]["I"][3] = rows[1]["I"][3] + value
    (copy / "realizations.json").write_text(json.dumps(rows))
    assert checks.check_experiment(copy, config, reference, None)[1] == 1


def test_perturbed_or_missing_mean_fails(experiment, tmp_path):
    config, out, reference = experiment
    lines = (out / "imbalance.csv").read_text().splitlines()
    for name in ("paging.json", "realizations.json"):
        (tmp_path / name).write_bytes((out / name).read_bytes())
    nan_row = lines[2].split(",")
    nan_row[2] = "nan"
    (tmp_path / "imbalance.csv").write_text("\n".join(lines[:2] + [",".join(nan_row)]
                                                      + lines[3:]) + "\n")
    assert checks.check_experiment(tmp_path, config, reference, None)[1] == 1
    (tmp_path / "imbalance.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_experiment(tmp_path, config, reference, None)[1] == 1


def test_golden_mismatch_fails(experiment):
    config, _, reference = experiment
    values = {repr(w): list(s["mean"]) for w, s in reference["series"].items()}
    assert _check(experiment, {"values": values})[1] == 0
    values[repr(25.0)][4] += 1e-6
    assert _check(experiment, {"values": values})[1] == 1
    del values[repr(25.0)][-1]  # a short golden list fails every point of that w
    assert _check(experiment, {"values": values})[1] == config["n_steps"] + 1


def test_noiseless_liouville_form_matches_ideal():
    r = oracle.realizations(SMALL)[3]
    noiseless = {**oracle.CHIP_NOISE, "t1": (float("inf"),) * 2, "t2": (float("inf"),) * 2}
    tau = SMALL["tau_over_pi"] * oracle.PI
    ideal = oracle.ideal_curve(r, tau, 10)
    noisy = oracle.noisy_curve(r, tau, 10, noiseless)
    assert max(abs(a - b) for a, b in zip(ideal, noisy)) < 1e-12


def test_paging_report_tampering_fails(tmp_path):
    config = {**SMALL, "capacity": 16}
    out = tmp_path / "paging.json"
    assert cli.main(["paging-report", "--config", _write_config(tmp_path, config),
                     "--out", str(out)]) == 0
    attempted, failed, loads = checks.check_paging_report(out, config)
    assert failed == 0 and loads > 0
    body = json.loads(out.read_text())
    run_with_eviction = next(r for r in body["runs"] if r["evicted"])
    run_with_eviction["evicted"][0] = run_with_eviction["loaded"][0]
    out.write_text(json.dumps(body))
    assert checks.check_paging_report(out, config)[1] >= 1


def test_compile_check_catches_a_wrong_angle(tmp_path):
    config = {**SMALL, "n_realizations": 1}
    import child

    texts = [text for _, text, _ in child.run_compile(child.compile_batch(
        child.workload.ExperimentConfig.from_json_dict(config)))]
    record = {"roundtrip_equal": [True] * len(texts), "codeword_loads": 1}
    (tmp_path / "compiled.json").write_text(json.dumps(texts))
    assert checks.check_compile(tmp_path, config, record)[:2] == (2, 0)
    lines = texts[1].splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith("rxy"))
    phi, gamma = lines[index].rsplit(",", 1)
    lines[index] = f"{phi}, {float(gamma) + 1e-6!r}"
    texts[1] = "\n".join(lines) + "\n"
    (tmp_path / "compiled.json").write_text(json.dumps(texts))
    assert checks.check_compile(tmp_path, config, record)[:2] == (2, 1)


def test_self_time_subtracts_child_spans():
    spans = [("compiler.emit", 0, 10_000, -1, None),
             ("isa.emit", 2_000, 8_000, 0, None),
             ("wavemem.page", 10_000, 13_000, -1, {"loads": 2, "hits": 6, "evictions": 1})]
    m = tracing.layer_metrics(spans, {"hits": 3, "misses": 1})
    assert m["compiler.emit.s"] == pytest.approx(10e-6)
    assert m["compiler.self_s"] == pytest.approx(4e-6)
    assert m["isa.self_s"] == pytest.approx(6e-6)
    assert m["wavemem.hit_ratio"] == pytest.approx(0.75)
    assert m["isa.slot_cache.hit_ratio"] == pytest.approx(0.75)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(pattern.fullmatch(n) for n in names) and len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

