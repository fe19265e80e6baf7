"""Command-line surface: every subcommand, exit codes, byte-level determinism."""

import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qcoproc import __version__, cli, isa, simulator, workload
from qcoproc.workload import gate_census

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO / "configs" / "experiment_default.json"
GOLDEN = REPO / "golden" / "experiment_default_golden.json"


def run_cli(*argv) -> int:
    return cli.main(list(argv))


def small_config(tmp_path, **overrides) -> Path:
    body = {"w_values": [1.0, 25.0], "n_realizations": 2, "tau_over_pi": 0.04,
            "n_steps": 2, "master_seed": 7, "backend": "ideal",
            "measurement_mode": "exact", "n_avg": 100, "capacity": 128,
            "share_realizations_across_w": False}
    body.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body))
    return path


def _readme_source(tmp_path) -> Path:
    """The README's assembly example, as a file."""
    readme = (REPO / "README.md").read_text().split("## Assembly format")[1]
    src = tmp_path / "source.qasm"
    src.write_text(readme.split("```\n")[1])
    return src


# The bytes of the native text: `gen` of one realization at k 10, at k 0 and
# with a given h0x, and `compile` of the README's example.  They come from
# Python float arithmetic and numpy's seeded draws alone, as the paging
# report's pinned sha256 does, so they do not depend on the BLAS.
@pytest.mark.parametrize("argv, digest", [
    (("gen", "--w", "25", "--k", "10", "--seed", "3"),
     "f3e5f1a462cd96a16115439f3af51ad014f9ebf192273ae74207e9cb1eae3518"),
    (("gen", "--w", "25", "--k", "0", "--seed", "3"),
     "a8b6e79a0e1d8bb65a71677613bbd362c9e87e483941382dd646b723a516b0d8"),
    (("gen", "--w", "25", "--k", "10", "--seed", "3", "--h0x", "0.5"),
     "985dcfff79b841e89754111c75ddadbf4071af443212928788de357b9e0ad094"),
    (("compile", "README"),
     "d85b341d6fe5e8dffd952231f5ae10bd8f5ff8e0e5d6e3dc63a5e8f16c3b849f"),
], ids=["gen-k10", "gen-k0", "gen-h0x", "compile-readme"])
def test_native_text_bytes_are_pinned(tmp_path, argv, digest):
    argv = [str(_readme_source(tmp_path)) if a == "README" else a for a in argv]
    out = tmp_path / "out.qasm"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


_MIB = 1 << 20


@pytest.mark.parametrize("parts", [
    ["x" * (_MIB + 12_345), "\n", "tail\n"],  # one part past the file buffer
    [f"{i}\n" for i in range(5_000)],          # thousands of small parts
    [],
], ids=["over-1-mib", "small-parts", "no-parts"])
def test_output_writes_exactly_the_joined_parts(tmp_path, capsys, parts):
    out = tmp_path / "doc.txt"
    cli._output(iter(parts), str(out))
    assert out.read_text() == "".join(parts)
    cli._output(iter(parts), None)
    assert capsys.readouterr().out == "".join(parts)


class TestGen:
    def test_census_at_k10(self, tmp_path):
        out = tmp_path / "circ.qasm"
        assert run_cli("gen", "--w", "25", "--k", "10", "--seed", "3",
                       "--out", str(out)) == 0
        census = gate_census(isa.parse_program(out.read_text()))
        assert (census[isa.Rxy], census[isa.CZ]) == (104, 40)

    def test_k0_file_shape(self, tmp_path):
        out = tmp_path / "k0.qasm"
        run_cli("gen", "--w", "25", "--k", "0", "--seed", "3", "--out", str(out))
        lines = out.read_text().strip().splitlines()
        # 2 unrolled resets, prologue slot, epilogue slot, parallel measure slot
        assert len(lines) == 5
        assert lines[0] == "reset q0" and lines[1] == "reset q1"
        assert lines[-1].startswith("{ measure")

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
        for out in (a, b):
            run_cli("gen", "--w", "1", "--k", "4", "--seed", "11", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_h_values(self, tmp_path):
        out = tmp_path / "c.qasm"
        assert run_cli("gen", "--w", "2", "--k", "1", "--h0x", "0.5", "--h0y", "0.5",
                       "--h1x", "0.5", "--h1y", "0.5", "--out", str(out)) == 0

    def test_missing_h_without_seed_is_validation_error(self, tmp_path):
        assert run_cli("gen", "--w", "2", "--k", "1",
                       "--out", str(tmp_path / "x.qasm")) == 3

    def test_step_out_of_range_is_validation_exit(self, tmp_path):
        code = run_cli("gen", "--w", "2", "--k", "11", "--seed", "1",
                       "--out", str(tmp_path / "x.qasm"))
        assert code == 3

    @pytest.mark.parametrize("seed,name,value", [(3, "h0x", "0.5"), (11, "h1y", "-0.25"),
                                                 (0, "h0y", "1"), (3, "h1x", "-1")])
    def test_seed_override_is_the_four_fields(self, capsys, seed, name, value):
        """``--seed S --<field> v`` is the four-field form with the seed's
        other fields, byte for byte."""
        r = workload.sample_disorder(25.0, 0.04 * math.pi, 10, np.random.default_rng(seed))
        four = {n: repr(getattr(r, n)) for n in ("h0x", "h0y", "h1x", "h1y")}
        four[name] = value
        assert run_cli("gen", "--w", "25", "--k", "10", "--seed", str(seed),
                       f"--{name}", value) == 0
        overridden = capsys.readouterr().out
        assert run_cli("gen", "--w", "25", "--k", "10",
                       *(a for n, v in four.items() for a in (f"--{n}", v))) == 0
        assert capsys.readouterr().out == overridden

    @pytest.mark.parametrize("seed", [0, 3, 2**40])
    def test_seed_with_four_fields_is_only_checked(self, capsys, seed):
        """With all four fields given, ``--seed`` changes no byte; a negative
        one still fails its check."""
        four = ["--h0x", "0.1", "--h0y", "-0.2", "--h1x", "0.3", "--h1y", "-0.4"]
        assert run_cli("gen", "--w", "25", "--k", "10", *four) == 0
        alone = capsys.readouterr().out
        assert run_cli("gen", "--w", "25", "--k", "10", "--seed", str(seed), *four) == 0
        assert capsys.readouterr().out == alone
        assert run_cli("gen", "--w", "25", "--k", "10", "--seed", "-1", *four) == 3
        assert capsys.readouterr() == ("", "error: --seed must be >= 0, got -1\n")


# `qcoproc compile` of the README's assembly example, with every pass and with
# the frame rotation alone
README_COMPILED = """\
reset q0
reset q1
{ rxy q0, 0.0, -0.5 | rxy q1, 0.0, -0.5 }
{ rxy q0, 0.0, 0.5 | rxy q1, 0.0, -0.5 }
{ rxy q1, 0.0, 0.5 | rxy q0, 0.0, 0.5 }
cz q1, q0
{ rxy q1, 0.0, -0.5 | rxy q0, 0.0, -0.5 }
{ rxy q1, 0.5, 0.08 | rxy q0, 0.0, 0.5 }
rxy q1, 0.0, 0.5
measure q0 -> q0mZ
measure q1 -> q1mZ
"""
README_FRAME_ROTATED = """\
reset q0
reset q1
{ rx q0, -0.5 | rx q1, -0.5 }
{ rxy q0, 0.0, 0.5 | rxy q1, 0.0, -0.5 }
rx q1, 0.5
rx q0, 0.5
cz q1, q0
rx q1, -0.5
rx q0, -0.5
ry q1, 0.08
{ rx q0, 0.5 | rx q1, 0.5 }
{ measure q0 -> q0mZ | measure q1 -> q1mZ }
"""


class TestCompile:
    def test_single_cnot_lowered(self, tmp_path, capsys):
        src = tmp_path / "in.qasm"
        src.write_text("cnot q1, q0\n")
        out = tmp_path / "out.qasm"
        assert run_cli("compile", str(src), "--passes", "lower",
                       "--out", str(out)) == 0
        text = out.read_text()
        assert text.count("rxy") == 2 and text.count("cz") == 1
        err = capsys.readouterr().err
        assert "phase-invariant distance" in err
        assert float(err.split("distance: ")[1].split()[0]) < 1e-10

    def test_native_input_lower_is_identity(self, tmp_path):
        src = tmp_path / "in.qasm"
        src.write_text("rxy q0, 0.5, 1.0\ncz q0, q1\n")
        out = tmp_path / "out.qasm"
        run_cli("compile", str(src), "--passes", "lower", "--out", str(out))
        assert out.read_text() == src.read_text()

    @pytest.mark.parametrize("passes, expected", [
        ((), README_COMPILED),
        (("--passes", "frame-rotate"), README_FRAME_ROTATED),
    ])
    def test_readme_example_output_is_pinned(self, tmp_path, passes, expected):
        out = tmp_path / "out.qasm"
        assert run_cli("compile", str(_readme_source(tmp_path)), *passes, "--out", str(out)) == 0
        assert out.read_text() == expected

    def test_parse_error_exit_code(self, tmp_path):
        src = tmp_path / "in.qasm"
        src.write_text("hadamard q0\n")
        assert run_cli("compile", str(src)) == 2

    def test_empty_slot_kept_in_its_phase(self, tmp_path):
        """An empty slot between gates is neither a reset nor a measurement:
        the default passes accept it, and frame-rotate keeps it in the body."""
        src = _text_file(tmp_path, "rx q0, 0.5\n{ }\nrx q0, 0.5\nmeasure q0 -> m\n",
                         "in.src")
        without = _text_file(tmp_path, "rx q0, 0.5\nrx q0, 0.5\nmeasure q0 -> m\n",
                             "without.src")
        outs = {name: tmp_path / f"{name}.qasm" for name in ("default", "rotated", "without")}
        assert run_cli("compile", str(src), "--out", str(outs["default"])) == 0
        assert run_cli("compile", str(src), "--passes", "frame-rotate,lower",
                       "--out", str(outs["rotated"])) == 0
        assert run_cli("compile", str(without), "--out", str(outs["without"])) == 0
        rotated = outs["rotated"].read_text().splitlines()
        assert rotated[1:4] == ["rxy q0, 0.0, 0.5", "{  }", "rxy q0, 0.0, 0.5"]
        # schedule repacks instructions into slots, so an empty one leaves nothing
        assert outs["default"].read_text() == outs["without"].read_text()

    def test_full_pipeline_on_workload_source(self, tmp_path):
        from qcoproc.compiler import emit_source_program
        r = workload.DisorderRealization(w=1.0, tau=0.04 * math.pi, n_steps=2,
                                         h0x=0.2, h0y=-0.3, h1x=0.4, h1y=-0.5)
        src = tmp_path / "alg.qasm"
        src.write_text(emit_source_program(workload.build_source_circuit(r, 2)))
        out = tmp_path / "native.qasm"
        assert run_cli("compile", str(src), "--out", str(out)) == 0
        from qcoproc.isa import parse_program
        parse_program(out.read_text())  # output is valid native assembly


class TestRun:
    def test_k0_circuit_probabilities(self, tmp_path, capsys):
        circ = tmp_path / "k0.qasm"
        run_cli("gen", "--w", "25", "--k", "0", "--seed", "3", "--out", str(circ))
        assert run_cli("run", str(circ)) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["mode"] == "exact"
        assert body["registers"]["q0mZ"] == pytest.approx(1.0, abs=1e-12)
        assert body["registers"]["q1mZ"] == pytest.approx(0.0, abs=1e-12)

    def test_ideal_matches_noiseless_noisy(self, tmp_path, capsys):
        circ = tmp_path / "c.qasm"
        run_cli("gen", "--w", "1", "--k", "2", "--seed", "5", "--out", str(circ))
        run_cli("run", str(circ))
        ideal = json.loads(capsys.readouterr().out)["registers"]
        run_cli("run", str(circ), "--backend", "noisy",
                "--t1", "1", "1", "--t2", "1", "1")  # seconds; effectively noiseless
        noisy = json.loads(capsys.readouterr().out)["registers"]
        for reg in ideal:
            assert abs(ideal[reg] - noisy[reg]) < 1e-6

    def test_sampled_mode_repeats_bits(self, tmp_path, capsys):
        circ = tmp_path / "c.qasm"
        circ.write_text("rxy q0, 0, 0.5\nmeasure q0 -> m\n")
        run_cli("run", str(circ), "--mode", "sampled", "--n-avg", "50", "--seed", "9")
        first = capsys.readouterr().out
        run_cli("run", str(circ), "--mode", "sampled", "--n-avg", "50", "--seed", "9")
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("flags", [["--seed", "7"], ["--n-avg", "1000"],
                                       ["--mode", "exact", "--seed", "7", "--n-avg", "10"]])
    def test_shot_flags_need_sampled_mode(self, tmp_path, capsys, flags):
        assert run_cli("run", str(_program_file(tmp_path)), *flags) == 3
        assert "--mode sampled" in capsys.readouterr().err

    def test_sampled_mode_defaults_to_1000_shots(self, tmp_path, capsys):
        assert run_cli("run", str(_program_file(tmp_path)), "--mode", "sampled",
                       "--seed", "9") == 0
        assert json.loads(capsys.readouterr().out)["n_avg"] == 1000

    def test_slot_unitary_cache_stays_bounded(self, tmp_path):
        """Each 1 MiB slot unitary of an 8-qubit program is cached, at most 16 of them."""
        lines = [f"rxy q7, 0, {0.001 * (i + 1):.3f}" for i in range(300)]
        circ = _text_file(tmp_path, "\n".join(lines) + "\nmeasure q7 -> a\n", "p.qasm")
        assert run_cli("run", str(circ)) == 0
        assert isa._slot_unitary_cached.cache_info().currsize <= 16


class TestExperiment:
    def test_csv_shape_and_initial_value(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("experiment", "--config", str(config), "--out", str(out)) == 0
        lines = (out / "imbalance.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(1.0, abs=1e-9)
        paging = json.loads((out / "paging.json").read_text())
        assert set(paging) == {"capacity", "total_loads", "total_hits"}

    def test_byte_identical_outputs(self, tmp_path):
        config = small_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("experiment", "--config", str(config), "--out", str(a))
        run_cli("experiment", "--config", str(config), "--out", str(b))
        assert (a / "imbalance.csv").read_bytes() == (b / "imbalance.csv").read_bytes()
        assert (a / "paging.json").read_bytes() == (b / "paging.json").read_bytes()

    def test_realizations_are_written_one_row_at_a_time(self, tmp_path):
        """A 5.4 MB dump peaks below a quarter of its size under tracemalloc,
        since its rows are formatted and written one by one.  Formatted as one
        string, the document alone would exceed the bound."""
        config = workload.ExperimentConfig(n_realizations=100, n_steps=1000)
        result = workload.run_experiment(config)
        out = tmp_path / "realizations.json"
        tracemalloc.start()
        try:
            cli._output(workload.realizations_json(result), str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.stat().st_size / 4

    def test_capacity_8_surfaces_capacity_exceeded(self, tmp_path):
        config = small_config(tmp_path)
        code = run_cli("experiment", "--config", str(config), "--capacity", "8",
                       "--out", str(tmp_path / "out"))
        assert code == 4

    def test_capacity_16_succeeds(self, tmp_path):
        config = small_config(tmp_path)
        assert run_cli("experiment", "--config", str(config), "--capacity", "16",
                       "--out", str(tmp_path / "out")) == 0

    def test_golden_round_trip(self, tmp_path):
        config = small_config(tmp_path)
        golden = tmp_path / "golden.json"
        out = tmp_path / "out"
        run_cli("experiment", "--config", str(config), "--out", str(out),
                "--write-golden", str(golden))
        assert run_cli("experiment", "--config", str(config), "--out", str(out),
                       "--golden", str(golden)) == 0

    def test_golden_mismatch_exit_code(self, tmp_path, capsys):
        config = small_config(tmp_path)
        golden = tmp_path / "golden.json"
        out = tmp_path / "out"
        run_cli("experiment", "--config", str(config), "--out", str(out),
                "--write-golden", str(golden))
        body = json.loads(golden.read_text())
        a = body["values"]["1.0"][1]
        body["values"]["1.0"][1] += 1e-6
        golden.write_text(json.dumps(body))
        capsys.readouterr()
        assert run_cli("experiment", "--config", str(config), "--out", str(out),
                       "--golden", str(golden)) == 5
        b = body["values"]["1.0"][1]
        assert capsys.readouterr().err == f"error: golden mismatch at (w=1, k=1: {a!r} != {b!r})\n"

    @pytest.mark.parametrize("corrupt", [
        lambda values: values["1.0"].pop(),
        lambda values: values["1.0"].__setitem__(1, math.nan),
        lambda values: values.pop("25.0"),
        lambda values: values.__setitem__("3.0", values["1.0"]),
        lambda values: values["1.0"].__setitem__(0, True),  # the mean at k = 0 is 1.0
        lambda values: values["1.0"].__setitem__(1, 10**400),  # json reads it as an int
    ], ids=["truncated", "nan", "missing-w", "extra-w", "bool", "int-past-float-range"])
    def test_malformed_golden_is_mismatch(self, tmp_path, corrupt):
        config = small_config(tmp_path)
        golden = tmp_path / "golden.json"
        out = tmp_path / "out"
        run_cli("experiment", "--config", str(config), "--out", str(out),
                "--write-golden", str(golden))
        body = json.loads(golden.read_text())
        corrupt(body["values"])
        golden.write_text(json.dumps(body))
        assert run_cli("experiment", "--config", str(config), "--out", str(out),
                       "--golden", str(golden)) == 5

    def test_golden_config_hash_guard(self, tmp_path):
        config = small_config(tmp_path)
        golden = tmp_path / "golden.json"
        out = tmp_path / "out"
        run_cli("experiment", "--config", str(config), "--out", str(out),
                "--write-golden", str(golden))
        other = small_config(tmp_path, master_seed=8)
        assert run_cli("experiment", "--config", str(other), "--out", str(out),
                       "--golden", str(golden)) == 3

    @pytest.mark.parametrize("foreign", ["capacity-flag", "hash"])
    def test_golden_from_another_config_exits_3(self, tmp_path, capsys, foreign):
        """A golden record of another config is a validation error, not a mismatch."""
        config = small_config(tmp_path)
        golden = tmp_path / "golden.json"
        out = tmp_path / "out"
        argv = ["experiment", "--config", str(config), "--out", str(out)]
        if foreign == "hash":
            golden.write_text(json.dumps({"config_hash": "x"}))
        else:
            run_cli(*argv, "--write-golden", str(golden))
            argv += ["--capacity", "20"]
        capsys.readouterr()
        assert run_cli(*argv, "--golden", str(golden)) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: golden record was produced under a different config")

    def test_unknown_config_field_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_realisations": 3}))
        assert run_cli("experiment", "--config", str(config),
                       "--out", str(tmp_path / "out")) == 3

    def test_infinite_t1_t2_gives_the_ideal_curve(self, tmp_path):
        """Noiseless T1/T2 on the noisy backend: exit 0 and the ideal backend's
        curve, with rounding below zero clipped rather than rejected."""
        body = {"n_steps": 1, "n_realizations": 1, "backend": "noisy",
                "noise": {"t1": [math.inf, math.inf], "t2": [math.inf, math.inf]}}
        curves = {}
        for backend in ("noisy", "ideal"):
            config = _text_file(tmp_path, json.dumps({**body, "backend": backend}),
                                f"{backend}.json")
            out = tmp_path / backend
            assert run_cli("experiment", "--config", str(config), "--out", str(out)) == 0
            rows = (out / "imbalance.csv").read_text().strip().splitlines()[1:]
            curves[backend] = [float(row.split(",")[2]) for row in rows]
        assert len(curves["noisy"]) == 2 * 2  # w values x (N+1)
        for noisy, ideal in zip(curves["noisy"], curves["ideal"]):
            assert abs(noisy - ideal) < 1e-12

    def test_missing_config_is_io_error(self, tmp_path):
        assert run_cli("experiment", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "out")) == 6


def _program_file(tmp_path) -> Path:
    path = tmp_path / "p.qasm"
    path.write_text("rxy q0, 0, 0.5\nmeasure q0 -> m\n")
    return path


def _text_file(tmp_path, text, name="config.json") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


def _bytes_file(tmp_path, data, name) -> Path:
    path = tmp_path / name
    path.write_bytes(data)
    return path


def _over_points(tmp_path) -> Path:
    """One w and 3-step realizations, one realization past ``workload.MAX_POINTS``."""
    return small_config(tmp_path, w_values=[1.0], n_steps=2,
                        n_realizations=workload.MAX_POINTS // 3 + 1)


# (argv builder over tmp_path, documented exit code)
INVALID_INPUTS = {
    "capacity-flag-0": (lambda t: ["experiment", "--config", small_config(t),
                                   "--capacity", "0"], 3),
    "capacity-0": (lambda t: ["experiment", "--config", small_config(t, capacity=0)], 3),
    "capacity-0-paging": (lambda t: ["paging-report", "--config",
                                     small_config(t, capacity=0)], 3),
    "n-avg-0-sampled": (lambda t: ["experiment", "--config", small_config(
        t, measurement_mode="sampled", n_avg=0)], 3),
    "n-steps-negative": (lambda t: ["experiment", "--config", small_config(t, n_steps=-1)], 3),
    "n-realizations-0": (lambda t: ["experiment", "--config",
                                    small_config(t, n_realizations=0)], 3),
    # a step count past the cap is rejected before any work is done
    "n-steps-1e17": (lambda t: ["experiment", "--config", small_config(
        t, w_values=[1.0], n_realizations=1, n_steps=10**17)], 3),
    "n-steps-1e17-paging": (lambda t: ["paging-report", "--config", small_config(
        t, w_values=[1.0], n_realizations=1, n_steps=10**17)], 3),
    # a sweep past the points bound is rejected before any paging
    "points-above-cap": (lambda t: ["experiment", "--config", _over_points(t)], 3),
    "points-above-cap-paging": (lambda t: ["paging-report", "--config", _over_points(t)], 3),
    "gen-n-steps-above-cap": (lambda t: ["gen", "--w", "1", "--k", "1", "--seed", "1",
                                         "--n-steps", workload.MAX_STEPS + 1], 3),
    "tau-0": (lambda t: ["experiment", "--config", small_config(t, tau_over_pi=0.0)], 3),
    "w-values-empty": (lambda t: ["experiment", "--config", small_config(t, w_values=[])], 3),
    "w-values-nan": (lambda t: ["experiment", "--config", small_config(t, w_values=[math.nan])], 3),
    "run-n-avg-0": (lambda t: ["run", _program_file(t), "--mode", "sampled",
                               "--n-avg", "0"], 3),
    "run-n-avg-negative": (lambda t: ["run", _program_file(t), "--mode", "sampled",
                                      "--n-avg", "-1"], 3),
    # a shot count past the cap is rejected before any shot array is sized
    "run-n-avg-above-cap": (lambda t: ["run", _program_file(t), "--mode", "sampled",
                                       "--n-avg", simulator.MAX_SHOTS + 1], 3),
    "run-n-avg-1e19": (lambda t: ["run", _program_file(t), "--mode", "sampled",
                                  "--n-avg", 10**19], 3),
    "n-avg-above-cap-sampled": (lambda t: ["experiment", "--config", small_config(
        t, measurement_mode="sampled", n_avg=simulator.MAX_SHOTS + 1)], 3),
    "n-avg-1e19-sampled": (lambda t: ["experiment", "--config", small_config(
        t, measurement_mode="sampled", n_avg=10**19)], 3),
    "malformed-config": (lambda t: ["experiment", "--config",
                                    _text_file(t, '{"n_steps": 2,')], 2),
    "malformed-config-paging": (lambda t: ["paging-report", "--config",
                                           _text_file(t, "not json")], 2),
    "non-numeric-capacity": (lambda t: ["experiment", "--config",
                                        small_config(t, capacity="x")], 3),
    "w-values-not-a-list": (lambda t: ["experiment", "--config", small_config(t, w_values=5)], 3),
    "config-not-an-object": (lambda t: ["paging-report", "--config", _text_file(t, "5")], 3),
    "golden-not-an-object": (lambda t: ["experiment", "--config", small_config(t), "--golden",
                                        _text_file(t, "[1]", "golden.json")], 5),
    "malformed-golden": (lambda t: ["experiment", "--config", small_config(t), "--golden",
                                    _text_file(t, "{", "golden.json")], 2),
    "noise-without-t1": (lambda t: ["experiment", "--config", small_config(
        t, backend="noisy", noise={"t2": [4e-6, 4e-6]})], 3),
    "noise-string": (lambda t: ["experiment", "--config", small_config(
        t, backend="noisy", noise="t1")], 3),
    "noise-list-paging": (lambda t: ["paging-report", "--config", small_config(t, noise=[1])], 3),
    "noise-without-t2": (lambda t: ["experiment", "--config", small_config(
        t, backend="noisy", noise={"t1": [2e-5, 2e-5]})], 3),
    # unphysical noise (T2 > 2 T1) is a validation error
    "noise-t2-above-2t1": (lambda t: ["experiment", "--config", small_config(
        t, backend="noisy", noise={"t1": [1e-6, 1e-6], "t2": [5e-6, 5e-6]})], 3),
    "run-t2-above-2t1": (lambda t: ["run", _program_file(t), "--backend", "noisy",
                                    "--t1", "1e-6", "--t2", "5e-6"], 3),
    # NaN noise parameters, which every comparison lets through
    "run-t1-t2-nan": (lambda t: ["run", _program_file(t), "--backend", "noisy",
                                 "--t1", "nan", "nan", "--t2", "nan", "nan"], 3),
    "noise-t1-nan": (lambda t: ["experiment", "--config", small_config(
        t, backend="noisy", noise={"t1": [math.nan, 2e-5], "t2": [4e-6, 4e-6]})], 3),
    "noise-t2-nan": (lambda t: ["experiment", "--config", small_config(
        t, backend="noisy", noise={"t1": [2e-5, 2e-5], "t2": [4e-6, math.nan]})], 3),
    "noise-duration-nan": (lambda t: ["experiment", "--config", small_config(
        t, backend="noisy", noise={"t1": [2e-5, 2e-5], "t2": [4e-6, 4e-6],
                                   "cz_duration": math.nan})], 3),
    # config values are taken as typed in the JSON, never converted
    "share-flag-string": (lambda t: ["experiment", "--config", small_config(
        t, share_realizations_across_w="false")], 3),
    "capacity-float": (lambda t: ["experiment", "--config", small_config(t, capacity=2.7)], 3),
    "n-realizations-float": (lambda t: ["experiment", "--config",
                                        small_config(t, n_realizations=1.5)], 3),
    "n-steps-bool": (lambda t: ["experiment", "--config", small_config(t, n_steps=True)], 3),
    "tau-string": (lambda t: ["experiment", "--config", small_config(t, tau_over_pi="0.04")], 3),
    "tau-bool": (lambda t: ["experiment", "--config", small_config(t, tau_over_pi=True)], 3),
    "w-values-string-entry": (lambda t: ["experiment", "--config",
                                         small_config(t, w_values=["1", 25.0])], 3),
    "w-values-bool-entry": (lambda t: ["paging-report", "--config",
                                       small_config(t, w_values=[1.0, True])], 3),
    "noise-t1-string": (lambda t: ["experiment", "--config", small_config(
        t, backend="noisy", noise={"t1": ["2e-5", 2e-5], "t2": [4e-6, 4e-6]})], 3),
    "noise-duration-bool": (lambda t: ["experiment", "--config", small_config(
        t, backend="noisy", noise={"t1": [2e-5, 2e-5], "t2": [4e-6, 4e-6],
                                   "single_qubit_gate_duration": True})], 3),
    # negative seeds
    "master-seed-negative": (lambda t: ["experiment", "--config",
                                        small_config(t, master_seed=-1)], 3),
    "master-seed-negative-paging": (lambda t: ["paging-report", "--config",
                                               small_config(t, master_seed=-1)], 3),
    "run-sampled-seed-negative": (lambda t: ["run", _program_file(t), "--mode", "sampled",
                                             "--seed", "-1"], 3),
    "gen-seed-negative": (lambda t: ["gen", "--w", "1", "--k", "1", "--seed", "-1"], 3),
    # gen checks --seed, then the seed's realization, then the given fields
    "gen-seed-then-h0x-above": (lambda t: ["gen", "--w", "25", "--k", "10", "--seed", "3",
                                           "--h0x", "2"], 3),
    "gen-seed-negative-before-h0x": (lambda t: ["gen", "--w", "25", "--k", "10", "--seed",
                                                "-1", "--h0x", "2"], 3),
    # non-finite angles: a parse error in program text, a validation error elsewhere
    "run-angle-inf": (lambda t: ["run", _text_file(
        t, "rxy q0, 0, inf\nmeasure q0 -> a\n", "p.qasm")], 2),
    "compile-angle-nan": (lambda t: ["compile", _text_file(t, "rx q0, nan\n", "p.src")], 2),
    # angles finite in units of pi whose radians overflow to inf
    "compile-angle-overflow-frame-rotate": (lambda t: ["compile", _text_file(
        t, "rx q0, 1e308\n", "p.src"), "--passes", "frame-rotate"], 2),
    "compile-crx-angle-overflow-frame-rotate": (lambda t: ["compile", _text_file(
        t, "crx q0, q1, -1e308\n", "p.src"), "--passes", "frame-rotate"], 2),
    "run-angle-overflow": (lambda t: ["run", _text_file(
        t, "rxy q0, 1e308, 0.5\nmeasure q0 -> a\n", "p.qasm")], 2),
    "gen-w-nan": (lambda t: ["gen", "--w", "nan", "--k", "1", "--seed", "3"], 3),
    # at k = 0 no interval is built, so the realization itself must reject NaN
    "gen-k0-tau-nan": (lambda t: ["gen", "--w", "25", "--k", "0", "--tau-over-pi", "nan",
                                  "--seed", "1"], 3),
    "gen-k0-w-nan": (lambda t: ["gen", "--w", "nan", "--k", "0", "--seed", "1"], 3),
    "gen-k0-h0x-nan": (lambda t: ["gen", "--w", "25", "--k", "0", "--seed", "1",
                                  "--h0x", "nan"], 3),
    "trajectory-phi-nan": (lambda t: ["trajectory", "--phi-over-pi", "nan",
                                      "--gamma-over-pi", "1"], 3),
    # a step count past the cap is rejected before any step runs
    "trajectory-steps-above-cap": (lambda t: ["trajectory", "--phi-over-pi", "0",
                                              "--gamma-over-pi", "1", "--steps",
                                              simulator.MAX_TRAJECTORY_STEPS + 1], 3),
    "trajectory-steps-1e20": (lambda t: ["trajectory", "--phi-over-pi", "0",
                                         "--gamma-over-pi", "1", "--steps", 10**20], 3),
    "trajectory-steps-0": (lambda t: ["trajectory", "--phi-over-pi", "0",
                                      "--gamma-over-pi", "1", "--steps", "0"], 3),
    # a repeated w would key two sweeps into one series
    "w-values-repeated": (lambda t: ["experiment", "--config",
                                     small_config(t, w_values=[1.0, 25.0, 1.0])], 3),
    "w-values-signed-zero-paging": (lambda t: ["paging-report", "--config",
                                               small_config(t, w_values=[0.0, -0.0])], 3),
    # infinite gate durations (infinite T1/T2 stay valid: they mean no decay)
    "noise-cz-duration-inf": (lambda t: ["experiment", "--config", small_config(
        t, backend="noisy", noise={"t1": [2e-5, 2e-5], "t2": [4e-6, 4e-6],
                                   "cz_duration": math.inf})], 3),
    "noise-single-qubit-duration-inf": (lambda t: ["experiment", "--config", small_config(
        t, backend="noisy", noise={"t1": [2e-5, 2e-5], "t2": [4e-6, 4e-6],
                                   "single_qubit_gate_duration": math.inf})], 3),
    # a source gate on one qubit twice
    "compile-cnot-same-qubit": (lambda t: ["compile", _text_file(t, "cnot q0, q0\n", "p.src")], 3),
    "compile-crx-same-qubit": (lambda t: ["compile", _text_file(
        t, "crx q1, q1, 0.5\n", "p.src")], 3),
    # a Trotter step outside 0..n_steps
    "gen-k-above-n-steps": (lambda t: ["gen", "--w", "25", "--k", "11", "--n-steps", "10",
                                       "--seed", "1"], 3),
    "gen-k-negative": (lambda t: ["gen", "--w", "25", "--k", "-1", "--n-steps", "10",
                                  "--seed", "1"], 3),
    # program text that is not UTF-8
    "run-not-utf8": (lambda t: ["run", _bytes_file(t, b"\xff\xfe rxy q0, 0, 1\n", "p.qasm")], 2),
    "compile-not-utf8": (lambda t: ["compile", _bytes_file(
        t, b"\xff\xfe rxy q0, 0, 1\n", "p.src")], 2),
    # an equivalence tolerance that is not positive and finite
    # an empty pass list names the pass '', which does not exist
    "compile-passes-empty": (lambda t: ["compile", _text_file(t, "cnot q1, q0\n", "p.src"),
                                        "--passes", ""], 3),
    "compile-tolerance-nan": (lambda t: ["compile", _text_file(t, "cnot q1, q0\n", "p.src"),
                                         "--tolerance", "nan"], 3),
    "compile-tolerance-negative": (lambda t: ["compile", _text_file(
        t, "cnot q1, q0\n", "p.src"), "--tolerance", "-1"], 3),
    "compile-tolerance-0": (lambda t: ["compile", _text_file(t, "cnot q1, q0\n", "p.src"),
                                       "--tolerance", "0"], 3),
    "compile-tolerance-inf": (lambda t: ["compile", _text_file(t, "cnot q1, q0\n", "p.src"),
                                         "--tolerance", "inf"], 3),
    # a qubit index too wide for the dense backends and the equivalence check
    "run-qubit-40": (lambda t: ["run", _text_file(t, "rxy q40, 0, 1\n", "p.qasm")], 3),
    "compile-qubit-40": (lambda t: ["compile", _text_file(t, "rxy q40, 0, 1\n", "p.src")], 3),
    # a qubit index in digits other than ASCII ones, which str.isdigit accepts
    "run-qubit-superscript-digit": (lambda t: ["run", _bytes_file(
        t, "rxy q\u00b2, 0, 1\n".encode(), "p.qasm")], 2),
    "compile-qubit-superscript-digit": (lambda t: ["compile", _bytes_file(
        t, "rx q\u00b2, 1\n".encode(), "p.src")], 2),
    "compile-qubit-arabic-indic-digit": (lambda t: ["compile", _bytes_file(
        t, "rx q\u0663, 1\n".encode(), "p.src")], 2),
    # noise times on the ideal backend, which has no noise to apply them to
    "run-ideal-t1-t2": (lambda t: ["run", _program_file(t), "--backend", "ideal",
                                   "--t1", "1e-6", "--t2", "1e-6"], 3),
    "run-default-backend-t1": (lambda t: ["run", _program_file(t), "--t1", "1e-6"], 3),
    # shot flags in exact mode, which draws no shots
    "run-exact-seed": (lambda t: ["run", _program_file(t), "--seed", "-5"], 3),
    "run-exact-n-avg": (lambda t: ["run", _program_file(t), "--n-avg", "0"], 3),
    # programs a backend rejects for their content
    "run-empty-program": (lambda t: ["run", _text_file(t, "", "p.qasm")], 3),
    "run-register-measured-twice": (lambda t: ["run", _text_file(
        t, "measure q0 -> m\nmeasure q1 -> m\n", "p.qasm")], 3),
    "run-ideal-reset-of-one": (lambda t: ["run", _text_file(
        t, "rxy q0, 0, 1\nreset q0\nmeasure q0 -> m\n", "p.qasm")], 3),
    # programs a compiler pass cannot handle: any other error
    "compile-general-rxy": (lambda t: ["compile", _text_file(
        t, "rxy q0, 0.3, 0.5\nmeasure q0 -> m\n", "p.src")], 1),
    "compile-schedule-before-lower": (lambda t: ["compile", _text_file(
        t, "rx q0, 0.5\n", "p.src"), "--passes", "schedule"], 1),
    "compile-reset-after-gate": (lambda t: ["compile", _text_file(
        t, "rx q0, 0.5\nreset q0\nmeasure q0 -> m\n", "p.src")], 1),
    # a malformed command line, reported in one line as any other parse error
    "argv-bad-value": (lambda t: ["gen", "--w", "abc", "--k", "1"], 2),
    "argv-missing-flag": (lambda t: ["gen", "--k", "1", "--seed", "3"], 2),
    "argv-unknown-flag": (lambda t: ["gen", "--w", "1", "--k", "1", "--seed", "3", "--bogus"], 2),
    "argv-unknown-command": (lambda t: ["bogus"], 2),
    "argv-no-command": (lambda t: [], 2),
}


@pytest.mark.parametrize("name", sorted(INVALID_INPUTS))
def test_invalid_input_exit_code_and_one_line_error(tmp_path, capsys, name):
    build, expected = INVALID_INPUTS[name]
    argv = [str(a) for a in build(tmp_path)]
    if argv[:1] in (["experiment"], ["paging-report"]):
        argv += ["--out", str(tmp_path / "out")]
    assert run_cli(*argv) == expected
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# the exact stderr of the rows that pin an order of checks
INVALID_INPUT_MESSAGES = {
    "argv-bad-value": "error: argument --w: invalid float value: 'abc'\n",
    "gen-seed-then-h0x-above": "error: h0x must lie in [-1, 1], got 2.0\n",
    "gen-seed-negative-before-h0x": "error: --seed must be >= 0, got -1\n",
    "points-above-cap": "error: points (len(w_values) x n_realizations x (n_steps + 1)) "
                        f"must lie in 1..{workload.MAX_POINTS}, "
                        f"got {3 * (workload.MAX_POINTS // 3 + 1)}\n",
}
INVALID_INPUT_MESSAGES["points-above-cap-paging"] = INVALID_INPUT_MESSAGES["points-above-cap"]


@pytest.mark.parametrize("text, line", [
    (b"rxy q0, 0.0, 0.5\x0c\nrxy q1, 0.0, 0.5\nbogus q0\n", 3),
    ("rxy q0, 0.0, 0.5\u2028# note\nbogus q0\n".encode(), 2),
    ("rxy q0, 0.0, 0.5  # \u00e9\u00a0\u3000\nbogus q0\n".encode(), 2),
], ids=["form-feed", "line-separator", "non-ascii-comment"])
def test_run_names_the_line_an_editor_shows(tmp_path, capsys, text, line):
    """A form feed or U+2028 inside a line does not end it, and a comment,
    unlike a statement, may hold any text."""
    assert run_cli("run", str(_bytes_file(tmp_path, text, "p.qasm"))) == 2
    assert capsys.readouterr() == ("", f"error: line {line}: unknown mnemonic 'bogus'\n")


@pytest.mark.parametrize("name", sorted(INVALID_INPUT_MESSAGES))
def test_invalid_input_message(tmp_path, capsys, name):
    build, expected = INVALID_INPUTS[name]
    assert run_cli(*[str(a) for a in build(tmp_path)]) == expected
    assert capsys.readouterr() == ("", INVALID_INPUT_MESSAGES[name])


@pytest.mark.parametrize("command", ["experiment", "paging-report"])
def test_sweep_past_points_bound_does_no_work(tmp_path, capsys, command):
    """A config one realization past the bound fails before it pages or
    writes anything: one stderr line, no output, under 1 MB traced."""
    config = _over_points(tmp_path)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert run_cli(command, "--config", str(config), "--out", str(out)) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("experiment",), ("experiment", "--backend", "noisy"), ("paging-report",)],
    ids=["experiment-ideal", "experiment-noisy", "paging-report"])
def test_noise_of_one_qubit_is_rejected_before_any_work(tmp_path, capsys, monkeypatch, argv):
    """The sweep runs two qubits, so a noise block of one fails when the
    config is built, before any realization is sampled, whichever backend
    runs and whether anything simulates."""

    def sample_disorder(*args, **kwargs):
        raise AssertionError("a realization was sampled")

    monkeypatch.setattr(workload, "sample_disorder", sample_disorder)
    config = _text_file(tmp_path, json.dumps({"noise": {"t1": [28e-6], "t2": [4.2e-6]}}))
    out = tmp_path / "out"
    assert run_cli(*argv, "--config", str(config), "--out", str(out)) == 3
    assert capsys.readouterr() == (
        "", "error: noise parameters cover 1 qubits, program uses 2\n")
    assert not out.exists()


# an angle that float() reads but that is no ASCII decimal: a digit separator,
# an Arabic-Indic digit one and a full-width digit zero
_NON_ASCII_DECIMAL_ANGLES = ["1_0", "\u0661", "\uff10.5"]


@pytest.mark.parametrize("angle", _NON_ASCII_DECIMAL_ANGLES)
@pytest.mark.parametrize("command, statement", [
    ("run", "rxy q0, {}, 0.5"), ("run", "rxy q0, 0.5, {}"), ("compile", "rx q0, {}"),
    ("compile", "crx q0, q1, {}"), ("compile", "rxy q0, {}, 0.5")])
def test_angles_are_ascii_decimals(tmp_path, capsys, command, statement, angle):
    text = f"reset q1\n{statement.format(angle)}\nmeasure q0 -> m\n"
    path = _bytes_file(tmp_path, text.encode(), "p.qasm")
    assert run_cli(command, str(path), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr() == (
        "", f"error: line 2: expected an angle in units of pi that is finite in radians, "
            f"got {angle!r}\n")
    assert not (tmp_path / "out").exists()


# statements that parse but are not ASCII: a no-break space and an ideographic
# space as separators, in a bare statement and in a parallel slot, a register
# name that is an identifier but not ASCII, and both, where the first is named
_NON_ASCII_STATEMENTS = [("rxy q0,\u00a00.5, 0", "U+00A0"), ("reset\u3000q0", "U+3000"),
                         ("{ rxy q0, 0, 1\u00a0| rxy q1, 0, 1 }", "U+00A0"),
                         ("measure q0 -> \u00e9", "U+00E9"),
                         ("measure q0 ->\u00a0\u00e9", "U+00A0")]


@pytest.mark.parametrize("statement, code_point", _NON_ASCII_STATEMENTS,
                         ids=["no-break-space", "ideographic-space", "no-break-space-in-slot",
                              "register", "first-of-two"])
@pytest.mark.parametrize("command", ["run", "compile"])
def test_statements_are_ascii(tmp_path, capsys, command, statement, code_point):
    text = f"reset q1\n{statement}\n"
    path = _bytes_file(tmp_path, text.encode(), "p.qasm")
    assert run_cli(command, str(path), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr() == (
        "", f"error: line 2: statement text must be ASCII, got {code_point}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, text", [("--help", "usage: qcoproc [-h]"),
                                        ("--version", f"{__version__}\n")])
def test_help_and_version_print_and_exit_0(capsys, flag, text):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(flag)
    assert exit_info.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(text) and err == ""


class TestTrajectory:
    def test_fig4_parameters(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert run_cli("trajectory", "--phi-over-pi", "0.2", "--gamma-over-pi", "1",
                       "--steps", "20", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,theta_over_pi,phi_over_pi"
        assert len(lines) == 22
        assert float(lines[-1].split(",")[1]) == pytest.approx(1.0)

    def test_zero_rotation_stays_north(self, tmp_path):
        out = tmp_path / "traj.csv"
        run_cli("trajectory", "--phi-over-pi", "0.7", "--gamma-over-pi", "0",
                "--steps", "8", "--out", str(out))
        rows = out.read_text().strip().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_rerun_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run_cli("trajectory", "--phi-over-pi", "0.2", "--gamma-over-pi", "1",
                    "--out", str(out))
        assert a.read_bytes() == b.read_bytes()


class TestPagingReport:
    def test_trace_fields_and_accounting(self, tmp_path):
        config = small_config(tmp_path)
        out = tmp_path / "paging.json"
        assert run_cli("paging-report", "--config", str(config),
                       "--out", str(out)) == 0
        body = json.loads(out.read_text())
        assert body["capacity"] == 128
        assert body["total_loads"] == sum(len(r["loaded"]) for r in body["runs"])
        assert len(body["runs"]) == 2 * 2 * 3  # w values x realizations x (N+1)

    def test_matches_experiment_summary(self, tmp_path):
        config = small_config(tmp_path)
        out_dir = tmp_path / "exp"
        run_cli("experiment", "--config", str(config), "--out", str(out_dir))
        exp = json.loads((out_dir / "paging.json").read_text())
        trace_path = tmp_path / "trace.json"
        run_cli("paging-report", "--config", str(config), "--out", str(trace_path))
        trace = json.loads(trace_path.read_text())
        assert trace["total_loads"] == exp["total_loads"]
        assert trace["total_hits"] == exp["total_hits"]


class TestShippedArtifacts:
    def test_default_config_loads(self):
        data = json.loads(DEFAULT_CONFIG.read_text())
        config = workload.ExperimentConfig.from_json_dict(data)
        assert config.n_realizations == 60 and config.n_steps == 10
        assert config.tau == pytest.approx(0.04 * math.pi)

    def test_golden_hash_matches_default_config(self):
        data = json.loads(DEFAULT_CONFIG.read_text())
        config = workload.ExperimentConfig.from_json_dict(data)
        golden = json.loads(GOLDEN.read_text())
        assert golden["config_hash"] == cli.config_hash(config)

    def test_python_built_config_hashes_as_loaded(self):
        """Integer w and T1/T2 values are stored as floats, so the hash does not
        depend on whether a config was built in Python or read from a file."""
        built = workload.ExperimentConfig(
            w_values=(1, 25), noise=simulator.NoiseParams(t1=(28e-6, 1), t2=(4.2e-6, 2)))
        loaded = workload.ExperimentConfig.from_json_dict(json.loads(
            '{"w_values": [1.0, 25.0], "noise": {"t1": [28e-6, 1.0], "t2": [4.2e-6, 2.0]}}'))
        assert cli.config_hash(built) == cli.config_hash(loaded)
