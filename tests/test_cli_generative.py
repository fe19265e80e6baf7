"""Generative test of the command line: random config files and program texts
through ``cli.main``.  Every call returns a documented exit code, 0 to 6, and
every failure prints exactly one stderr line.  An input is a valid one with at
most one field or line broken, so that every exit code is reached.  The valid
region is kept small (n_realizations <= 4, n_steps <= 6, n_avg <= 1000, at
most three qubits), so that a valid input runs in milliseconds; a number past
it is far past it, and fails its bound."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qcoproc import cli, workload

# every JSON type; an integer is small, or past every bound of the config
_INTS = st.integers(-2, 4) | st.sampled_from([10**17, -10**17, 2**64])
_JSON = st.recursive(
    st.none() | st.booleans() | _INTS | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)

# T1 and T2 of one to three qubits; a broken pair is negative, zero, NaN or T2 > 2 T1
_TIMES = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just([28e-6] * n), st.lists(st.sampled_from([4.2e-6, 38e-6]), min_size=n, max_size=n)))
_BAD_TIMES = st.tuples(*[st.lists(st.sampled_from([28e-6, 0.0, -1.0, math.nan, 1.0]),
                                  min_size=1, max_size=3)] * 2)

_FIELDS = {
    "n_realizations": st.integers(1, 4),
    "n_steps": st.integers(0, 6),
    "w_values": st.lists(st.just(0.0) | st.floats(-30.0, 30.0), min_size=1, max_size=3,
                         unique=True),  # 0.0 and -0.0 count as one
    "tau_over_pi": st.floats(1e-3, 0.5),
    "master_seed": st.integers(0, 2**64),
    "backend": st.sampled_from(["ideal", "noisy"]),
    "noise": _TIMES.map(lambda times: dict(zip(("t1", "t2"), times))),
    "measurement_mode": st.sampled_from(["exact", "sampled"]),
    "n_avg": st.integers(1, 1000),
    "capacity": st.integers(8, 16) | st.integers(1, 130),  # 8 and 9 are too small
    "share_realizations_across_w": st.booleans(),
}


@st.composite
def _configs(draw) -> dict:
    """A valid config that names its two sizes, since their defaults leave the
    small region, with at most one field, known or not, set to any JSON value."""
    config = draw(st.fixed_dictionaries(
        {name: _FIELDS[name] for name in ("n_realizations", "n_steps")},
        optional={name: field for name, field in _FIELDS.items()
                  if name not in ("n_realizations", "n_steps")}))
    broken = draw(st.none() | st.sampled_from([*_FIELDS, "bogus"]))
    if broken is not None:
        config[broken] = draw(_JSON)
    return config


_CONFIG_TEXTS = (_configs().map(json.dumps) | _configs().map(json.dumps)
                 | _JSON.map(json.dumps) | st.sampled_from(["", "{", '{"n_steps": }', "\udcff"]))

_QUBITS = st.sampled_from(["q0", "q1", "q2"])
_PAIRS = st.lists(_QUBITS, min_size=2, max_size=2, unique=True).map(", ".join)
_ANGLES = st.sampled_from(["0", "0.5", "-0.25", "1"])


def _one_qubit(qubit: str, source: bool):
    """A one-qubit statement on ``qubit``, of either grammar given ``source``."""
    statements = [st.builds(f"rxy {qubit}, {{}}, {{}}".format, _ANGLES, _ANGLES),
                  st.builds(f"measure {qubit} -> {{}}".format, st.sampled_from(["a", "b", "c"])),
                  st.just(f"reset {qubit}")]
    if source:
        statements.append(st.builds(f"{{}} {qubit}, {{}}".format,
                                    st.sampled_from(["rx", "ry", "rz"]), _ANGLES))
    return st.one_of(statements)


def _lines(source: bool):
    """A statement, or a parallel slot of one-qubit statements on distinct qubits."""
    slots = st.lists(_QUBITS, min_size=1, max_size=3, unique=True).flatmap(
        lambda qubits: st.tuples(*[_one_qubit(q, source) for q in qubits]))
    lines = [_QUBITS.flatmap(lambda qubit: _one_qubit(qubit, source)),
             st.builds("cz {}".format, _PAIRS),
             slots.map(lambda slot: "{ " + " | ".join(slot) + " }")]
    if source:
        lines += [st.builds("cnot {}".format, _PAIRS),
                  st.builds("crx {}, {}".format, _PAIRS, _ANGLES)]
    return st.one_of(lines)


_BAD = st.sampled_from(["bogus q0", "rxy", "cz q0", "measure q0 ->", "->", "|", "{", "}",
                        "rx q0, 0.5", "rxy q8, 0, 0.5", "rxy q7, 0, 0.5", "rxy q, 0, 0.5",
                        "reset x0", "rz q0, nan", "rz q0, inf", "rxy q0, 1e308, 0",
                        "rxy q0, 0x1, 0", "{ reset q0 | reset q0 }", "{ }", "cz q1, q1",
                        "cnot q0, q0"])


def _non_ascii(line: str):
    """``line`` with one of its spaces swapped for a no-break or an ideographic space."""
    spaces = [i for i, c in enumerate(line) if c == " "]
    return st.builds(lambda i, space: line[:i] + space + line[i + 1:],
                     st.sampled_from(spaces), st.sampled_from(["\u00a0", "\u3000"]))


@st.composite
def _programs(draw, source: bool) -> str:
    """Lines of either grammar, given ``source``, with ``# note`` comments,
    and at most one broken line: a ``_BAD`` line, or a valid one that is not
    ASCII, through a swapped separator or a register named ``é``."""
    lines = draw(st.lists(_lines(source) | st.just("# note"), max_size=8))
    bad = _BAD | _lines(source).flatmap(_non_ascii) | _QUBITS.map("measure {} -> \u00e9".format)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(bad))
    return "".join(f"{text}\n" for text in lines)


@st.composite
def _run_flags(draw) -> list:
    backend = draw(st.sampled_from(["ideal", "noisy"]))
    mode = draw(st.sampled_from(["exact", "sampled"]))
    flags = ["--backend", backend, "--mode", mode]
    misplaced = draw(st.integers(0, 3)) == 0  # shot or noise flags where they do not apply
    if (mode == "sampled") != misplaced:
        if draw(st.booleans()):
            flags += ["--n-avg", draw(st.sampled_from([1, 20, 200, 0, -1, 10**7]))]
        if draw(st.booleans()):
            flags += ["--seed", draw(st.sampled_from([0, 5, -1, 2**70]))]
    if (backend == "noisy") != misplaced:
        t1, t2 = draw(_TIMES | _BAD_TIMES)
        for flag, times in draw(st.sampled_from([(), (("--t1", t1), ("--t2", t2)),
                                                 (("--t1", t1),)])):
            flags += [flag, *times]
    return flags


_PASSES = st.none() | st.lists(st.sampled_from(["frame-rotate", "lower", "schedule", "bogus"]),
                               max_size=3).map(",".join)


def _main(*argv) -> tuple[int, str]:
    """``cli.main``'s exit code and stderr, after checking both."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([str(a) for a in argv])
    err = stderr.getvalue()
    assert code in range(7)
    if code:
        assert err.startswith(("error: ", "i/o error: ")) and err.count("\n") == 1, err
    return code, err


def _file(directory: str, name: str, text: str) -> Path:
    path = Path(directory) / name
    path.write_bytes(text.encode("utf-8", "surrogateescape"))  # "\udcff": not UTF-8
    return path


@settings(max_examples=150, deadline=None)
@given(text=st.none() | _CONFIG_TEXTS, command=st.sampled_from(["experiment", "paging-report"]),
       flags=st.sampled_from([[], ["--dump-realizations"], ["--format", "json"],
                              ["--backend", "noisy"], ["--capacity", "9"], ["--golden"]]),
       golden=_JSON)
def test_any_config_exits_with_a_documented_code(text, command, flags, golden):
    """A config file, or none (an i/o error), with any golden record."""
    with tempfile.TemporaryDirectory() as directory:
        config = Path(directory) / "config.json"
        if text is not None:
            _file(directory, config.name, text)
        if flags == ["--golden"]:
            flags = ["--golden", _file(directory, "golden.json", json.dumps(golden))]
        _main(command, "--config", config, "--out", Path(directory) / "out",
              *(flags if command == "experiment" else []))


@settings(max_examples=60, deadline=None)
@given(config=_configs(), command=st.sampled_from(["experiment", "paging-report"]))
def test_a_config_past_the_points_bound_exits_3_and_writes_nothing(config, command):
    """Every config rule raises a ``ValidationError``, the points bound last,
    so any config with more realizations than ``MAX_POINTS`` exits 3."""
    config["n_realizations"] = workload.MAX_POINTS + 1
    with tempfile.TemporaryDirectory() as directory:
        out = Path(directory) / "out"
        code, _ = _main(command, "--config", _file(directory, "config.json", json.dumps(config)),
                        "--out", out)
        assert code == 3
        assert not out.exists()


@settings(max_examples=150, deadline=None)
@given(program=_programs(source=False), flags=_run_flags())
def test_any_program_text_runs_or_exits_with_a_documented_code(program, flags):
    with tempfile.TemporaryDirectory() as directory:
        code, err = _main("run", _file(directory, "p.qasm", program), *flags,
                          "--out", Path(directory) / "record.json")
    # shot flags without --mode sampled fail before the text is read
    if not program.isascii() and (flags[3] == "sampled" or not {"--seed", "--n-avg"} & {*flags}):
        assert code == 2 and "statement text must be ASCII" in err, err


@settings(max_examples=150, deadline=None)
@given(program=_programs(source=True), passes=_PASSES,
       tolerance=st.sampled_from([1e-9, 1e-3, 0.0, -1.0, math.nan, math.inf]))
def test_any_program_text_compiles_or_exits_with_a_documented_code(program, passes, tolerance):
    with tempfile.TemporaryDirectory() as directory:
        code, err = _main("compile", _file(directory, "p.src", program), "--tolerance", tolerance,
                          *([] if passes is None else ["--passes", passes]),
                          "--out", Path(directory) / "native.qasm")
    if not program.isascii() and tolerance > 0 and math.isfinite(tolerance):  # else it fails first
        assert code == 2 and "statement text must be ASCII" in err, err
