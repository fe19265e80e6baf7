"""The failure vocabulary: every raise in the package names a toolkit class,
and every toolkit class has a handling of its own."""

import ast
import math
import re
from pathlib import Path

import pytest

import qcoproc
from qcoproc import cli, errors, simulator, wavemem, workload
from qcoproc.errors import ValidationError
from qcoproc.isa import RotationKey, parse_program

SOURCES = sorted(Path(qcoproc.__file__).parent.glob("*.py"))

ERROR_CLASSES = {name for name, value in vars(errors).items()
                 if isinstance(value, type) and issubclass(value, Exception)
                 and value.__module__ == errors.__name__}


def _nodes(node_type):
    """(file name, line, node) of every ``node_type`` node in the package."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, node_type):
                yield path.name, node.lineno, node


def _name(node) -> str | None:
    """``X`` of a raised ``X`` or ``X(...)``, or of an except clause's ``X``."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else None


def test_every_raise_names_a_toolkit_class():
    strays = [f"{file}:{line}: {ast.unparse(node.exc)}"
              for file, line, node in _nodes(ast.Raise)
              if node.exc is not None and _name(node.exc) not in ERROR_CLASSES]
    assert not strays, "raises outside qcoproc.errors:\n" + "\n".join(strays)


def test_every_toolkit_class_has_its_own_handling():
    caught = set()
    for _, _, handler in _nodes(ast.ExceptHandler):
        kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        caught.update(_name(kind) for kind in kinds if kind is not None)
    handled = {name for name in ERROR_CLASSES if "exit_code" in vars(getattr(errors, name))}
    handled |= caught
    assert ERROR_CLASSES <= handled, f"classes with no handling: {sorted(ERROR_CLASSES - handled)}"


def test_each_class_carries_its_exit_code():
    assert {name: getattr(errors, name).exit_code for name in ERROR_CLASSES} == {
        "QcoprocError": 1, "ParseError": 2, "ValidationError": 3, "NonUnitarySlot": 1,
        "CapacityExceeded": 4, "GoldenMismatch": 5}


@pytest.mark.parametrize("name", sorted(ERROR_CLASSES))
def test_main_exits_with_the_raised_class_code(monkeypatch, capsys, name):
    cls = getattr(errors, name)

    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_trajectory", fail)
    assert cli.main(["trajectory", "--phi-over-pi", "0", "--gamma-over-pi", "0"]) == cls.exit_code
    assert capsys.readouterr() == ("", "error: boom\n")


def _realization(n_steps):
    return workload.DisorderRealization(w=1.0, tau=0.1, n_steps=n_steps,
                                        h0x=0.0, h0y=0.0, h1x=0.0, h1y=0.0)


_PROGRAM = parse_program("rxy q0, 0, 0.5\nmeasure q0 -> m\n")
_HALF_TURN = RotationKey.make(0.0, math.pi)

# each integer bound of the package, out of range on each side it has:
# (a call that raises, or the argv of a CLI run that exits 3; the whole message)
BOUNDS = {
    "n_avg-below": (lambda: simulator.check_sampling("exact", 0),
                    "n_avg must lie in 1..1000000, got 0"),
    "n_avg-above": (lambda: simulator.check_sampling("sampled", simulator.MAX_SHOTS + 1),
                    "n_avg must lie in 1..1000000, got 1000001"),
    "run-seed-below": (lambda: simulator.run_ideal(_PROGRAM, "sampled", n_avg=10, seed=-1),
                       "seed must be >= 0, got -1"),
    "trajectory-n_steps-below": (lambda: simulator.rotation_trajectory(_HALF_TURN, 0),
                                 "n_steps must lie in 1..100000, got 0"),
    "trajectory-n_steps-above": (lambda: simulator.rotation_trajectory(_HALF_TURN, 100001),
                                 "n_steps must lie in 1..100000, got 100001"),
    "evolution-n_steps-below": (lambda: _realization(-1), "n_steps must lie in 0..100000, got -1"),
    "evolution-n_steps-above": (lambda: _realization(100001),
                                "n_steps must lie in 0..100000, got 100001"),
    "k-below": (lambda: workload.build_source_circuit(_realization(10), -1),
                "k must lie in 0..10, got -1"),
    "k-above": (lambda: workload.build_native_circuit(_realization(10), 11),
                "k must lie in 0..10, got 11"),
    "master_seed-below": (lambda: workload.ExperimentConfig(master_seed=-1),
                          "master_seed must be >= 0, got -1"),
    "n_realizations-below": (lambda: workload.ExperimentConfig(n_realizations=0),
                             "n_realizations must be >= 1, got 0"),
    "config-capacity-below": (lambda: workload.ExperimentConfig(capacity=0),
                              "capacity must be >= 1, got 0"),
    "rct-capacity-below": (lambda: wavemem.RCT(capacity=0), "capacity must be >= 1, got 0"),
    "gen-seed-below": (["gen", "--w", "1", "--k", "1", "--seed", "-1"],
                       "--seed must be >= 0, got -1"),
}


@pytest.mark.parametrize("site, message", BOUNDS.values(), ids=list(BOUNDS))
def test_every_integer_bound_reads_one_of_two_shapes(capsys, site, message):
    assert re.fullmatch(r"\S+ must (lie in \d+\.\.\d+|be >= \d+), got -?\d+", message)
    if isinstance(site, list):
        assert cli.main(site) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        with pytest.raises(ValidationError) as info:
            site()
        assert str(info.value) == message
