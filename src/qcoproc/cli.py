"""Command-line front end.

Subcommands: gen, compile, run, experiment, trajectory, paging-report.
Every command is deterministic given its full flag set (seeds included).

Exit codes: 0 success, 6 I/O failure, and otherwise the ``exit_code`` of the
raised ``qcoproc.errors`` class (1 to 5); a malformed command line is a
``ParseError``, exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, compiler, isa, simulator, workload
from .errors import (GoldenMismatch, NonUnitarySlot, ParseError, QcoprocError,
                     ValidationError, check_range)


_FILE_BUFFER = 1 << 20  # bytes; the default 8 KiB makes a write call per report part


def _output(parts, out: str | None) -> None:
    """The one writer of a document: its text ``parts``, in order, to the file
    ``out`` through a 1 MiB buffer, or to stdout without one.  No part is
    joined to another."""
    if out:
        with open(out, "w", buffering=_FILE_BUFFER) as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _write(path: str, text: str) -> None:
    """One string to a file; perfbench/tracing.py wraps this name to count its bytes."""
    _output((text,), path)


def config_hash(config: workload.ExperimentConfig) -> str:
    canonical = json.dumps(config.to_json_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _realization_from_args(args) -> workload.DisorderRealization:
    """The seed's realization, or the four fields, with the given fields applied once."""
    tau = args.tau_over_pi * math.pi
    given = {n: getattr(args, n) for n in ("h0x", "h0y", "h1x", "h1y")
             if getattr(args, n) is not None}
    fields = {"w": args.w, "tau": tau, "n_steps": args.n_steps}
    if args.seed is not None:
        check_range("--seed", args.seed, 0)
        rng = np.random.default_rng(args.seed)
        fields = dataclasses.asdict(workload.sample_disorder(**fields, rng=rng, seed=args.seed))
    elif len(given) < 4:
        missing = [n for n in ("h0x", "h0y", "h1x", "h1y") if n not in given]
        raise ValidationError(f"give --seed or all of --h0x/--h0y/--h1x/--h1y "
                              f"(missing {missing})")
    return workload.DisorderRealization(**{**fields, **given})


def cmd_gen(args) -> int:
    r = _realization_from_args(args)
    program = workload.build_native_circuit(r, args.k)
    text = isa.emit_program(program)
    _output((text,), args.out)
    return 0


def cmd_compile(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ValidationError(f"--tolerance must be positive and finite, got {args.tolerance}")
    source = compiler.parse_source_program(_read_text(args.infile))
    passes = list(compiler.PASSES) if args.passes is None else args.passes.split(",")
    compiled = compiler.run_passes(source, passes)
    text = compiler.emit_source_program(compiled)
    _output((text,), args.out)
    try:
        U = compiler.source_program_unitary(source)
        V = compiler.source_program_unitary(compiled)
        report = compiler.equivalence_check(U, V, tol=args.tolerance)
        print(f"phase-invariant distance: {report.phase_invariant_distance:.3e} "
              f"(equivalent at {report.tolerance:g}: {report.equivalent})",
              file=sys.stderr)
    except NonUnitarySlot:
        pass  # programs with measure/reset have no circuit unitary to compare
    return 0


def cmd_run(args) -> int:
    if args.mode != "sampled" and (args.seed is not None or args.n_avg is not None):
        raise ValidationError("--seed and --n-avg apply only to --mode sampled")
    n_avg = 1000 if args.n_avg is None else args.n_avg
    program = isa.parse_program(_read_text(args.infile))
    if args.backend == "ideal":
        if args.t1 is not None or args.t2 is not None:
            raise ValidationError("--t1 and --t2 apply only to --backend noisy")
        record = simulator.run_ideal(program, mode=args.mode, n_avg=n_avg, seed=args.seed)
    else:
        noise = _noise_from_args(args)
        record = simulator.run_noisy(program, noise, mode=args.mode,
                                     n_avg=n_avg, seed=args.seed)
    text = json.dumps(record.to_json_dict(), indent=2, sort_keys=True) + "\n"
    _output((text,), args.out)
    return 0


def _noise_from_args(args) -> simulator.NoiseParams:
    if args.t1 is None and args.t2 is None:
        return simulator.NoiseParams.octobox_defaults()
    if args.t1 is None or args.t2 is None:
        raise ValidationError("--t1 and --t2 must be given together")
    return simulator.NoiseParams(t1=args.t1, t2=args.t2)


def _read_text(path: str) -> str:
    """An input file's text; bytes that are not UTF-8 are a parse error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _read_json(path: str):
    try:
        return json.loads(_read_text(path))
    except ValueError as exc:  # malformed JSON
        raise ParseError(f"{path}: {exc}") from None


def _load_config(args) -> workload.ExperimentConfig:
    config = workload.ExperimentConfig.from_json_dict(_read_json(args.config))
    overrides = {name: getattr(args, name) for name in ("backend", "capacity")
                 if getattr(args, name, None) is not None}  # paging-report has neither flag
    return dataclasses.replace(config, **overrides)


def _golden_dict(config: workload.ExperimentConfig,
                 result: workload.ExperimentResult) -> dict:
    return {
        "config_hash": config_hash(config),
        "tool_version": __version__,
        "values": {repr(float(w)): result.series[w].mean.tolist()
                   for w in config.w_values},
    }


GOLDEN_TOL = 1e-9  # the contract's bound on each golden imbalance value


def compare_golden(config: workload.ExperimentConfig,
                   result: workload.ExperimentResult, golden: dict) -> None:
    if not isinstance(golden, dict):
        raise GoldenMismatch("golden record must be a JSON object")
    if golden.get("config_hash") != config_hash(config):
        raise ValidationError("golden record was produced under a different config")
    values = golden.get("values")
    expected_keys = {repr(float(w)) for w in config.w_values}
    if not isinstance(values, dict) or set(values) != expected_keys:
        raise GoldenMismatch(f"golden values must be keyed by exactly {sorted(expected_keys)}")
    offending = []
    for w in config.w_values:
        recorded = values[repr(float(w))]
        if not isinstance(recorded, list) or len(recorded) != config.n_steps + 1:
            raise GoldenMismatch(f"golden for w={w:g} must list {config.n_steps + 1} values")
        for k, (a, b) in enumerate(zip(result.series[w].mean.tolist(), recorded)):
            try:  # NaN and infinities fail the comparison; the series holds neither
                close = abs(a - simulator.as_float("golden value", b)) <= GOLDEN_TOL
            except ValidationError:  # a bool, a string or an int past the float range
                close = False
            if not close:
                offending.append((float(w), k, a, b))
    if offending:
        listing = ", ".join(f"(w={w:g}, k={k}: {a!r} != {b!r})"
                            for w, k, a, b in offending)
        raise GoldenMismatch(f"golden mismatch at {listing}")


def cmd_experiment(args) -> int:
    config = _load_config(args)
    result = workload.run_experiment(config)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.format == "json":
        _write(str(out_dir / "imbalance.json"), workload.experiment_json(result))
    else:
        _write(str(out_dir / "imbalance.csv"), workload.experiment_csv(result))
    _write(str(out_dir / "paging.json"),
           json.dumps(result.paging_summary(), indent=2, sort_keys=True) + "\n")
    if args.dump_realizations:
        _output(workload.realizations_json(result), str(out_dir / "realizations.json"))
    if args.write_golden:
        _write(args.write_golden,
               json.dumps(_golden_dict(config, result), indent=2, sort_keys=True) + "\n")
    if args.golden:
        golden = _read_json(args.golden)
        compare_golden(config, result, golden)
        print("golden record matched", file=sys.stderr)
    return 0


def cmd_trajectory(args) -> int:
    key = isa.RotationKey.from_pi_units(args.phi_over_pi, args.gamma_over_pi)
    points = simulator.rotation_trajectory(key, n_steps=args.steps)
    if args.format == "json":
        text = json.dumps([{"step": s,
                            "theta_over_pi": p.theta / math.pi,
                            "phi_over_pi": p.phi / math.pi}
                           for s, p in enumerate(points)], indent=2) + "\n"
    else:
        lines = ["step,theta_over_pi,phi_over_pi"]
        lines += [f"{s},{float(p.theta / math.pi)!r},{float(p.phi / math.pi)!r}"
                  for s, p in enumerate(points)]
        text = "\n".join(lines) + "\n"
    _output((text,), args.out)
    return 0


class _RotationFragments(dict):
    """RotationKey -> its JSON object as indented inside a paging-report run."""

    def __missing__(self, key) -> str:
        fragment = self[key] = (
            f'        {{\n'
            f'          "gamma_over_pi": {float.__repr__(key.gamma_over_pi)},\n'
            f'          "phi_over_pi": {float.__repr__(key.phi_over_pi)}\n'
            f'        }}')
        return fragment

    def json_list(self, keys) -> str:
        if not keys:
            return "[]"
        return "[\n" + ",\n".join(map(self.__getitem__, keys)) + "\n      ]"


def paging_report_parts(config: workload.ExperimentConfig) -> list[str]:
    """The paging trace of ``config`` as a list of strings whose concatenation
    is, byte for byte, what ``json.dumps(body, indent=2, sort_keys=True) + "\\n"``
    prints.  The parts share each pass's formatted text across the k it
    stands for: about 0.12 KB of memory per run at n_steps 1000, where the
    document holds 2-10 KB per run, but as much as the document at n_steps
    1, where no pass is shared.

    ``body`` holds the capacity, one run per (w, realization, k) program
    (its w, realization, k and ``PageReport.to_json_dict()``) and the total
    loads and hits.  ``json`` with ``indent`` runs its pure-Python encoder;
    the default trace holds some 138 k rotation objects but only a few
    hundred distinct ones, so here each rotation is formatted once.  Each
    pass of :func:`workload.paged_programs` is formatted once too, as its
    text before ``"k": `` and after it, and printed for every k in its
    ``ks`` (k = 2..10 share one pass on the default config).  Config
    validation keeps every float finite, which ``float.__repr__`` then
    prints as ``json`` does.
    """
    keys = _RotationFragments().json_list
    parts = [f'{{\n  "capacity": {config.capacity},\n  "runs": [\n']
    total_loads = total_hits = 0
    for i, r, passes in workload.paged_programs(config):
        for ks, report in passes:
            total_loads += len(ks) * len(report.loaded)
            total_hits += len(ks) * report.hits
            loaded = keys(report.loaded)
            head = (f'    {{\n'
                    f'      "dlst": {keys(isa.sorted_keys(report.dlst))},\n'
                    f'      "evicted": {keys(report.evicted)},\n'
                    f'      "hits": {report.hits},\n'
                    f'      "k": ')
            tail = (f',\n'
                    f'      "load_counter": {report.load_counter},\n'
                    f'      "loaded": {loaded},\n'
                    f'      "mlst": {loaded},\n'
                    f'      "realization": {i},\n'
                    f'      "w": {float.__repr__(float(r.w))}\n'
                    f'    }},\n')
            for k in ks:
                parts += (head, str(k), tail)
    parts[-1] = tail[:-2]  # the last run takes no comma
    parts.append(f'\n  ],\n  "total_hits": {total_hits},\n'
                 f'  "total_loads": {total_loads}\n}}\n')
    return parts


def cmd_paging_report(args) -> int:
    """Replay the experiment's program stream through the waveform memory only.
    Every pass is paged before the first write, so a capacity error writes nothing."""
    _output(paging_report_parts(_load_config(args)), args.out)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as a ``ParseError``, which ``main``
    prints in one line and returns as exit 2; its subcommands' parsers are
    of this class too."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="qcoproc", description="two-qubit coprocessor toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a native disorder-evolution circuit")
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-steps", type=int, default=10)
    p.add_argument("--tau-over-pi", type=float, default=0.04)
    p.add_argument("--seed", type=int, default=None)
    for h in ("h0x", "h0y", "h1x", "h1y"):
        p.add_argument(f"--{h}", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("compile", help="run compiler passes over a source program")
    p.add_argument("infile")
    p.add_argument("--passes", default=None,
                   help="comma list from: frame-rotate,lower,schedule (default: all)")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="execute a native program")
    p.add_argument("infile")
    p.add_argument("--backend", choices=("ideal", "noisy"), default="ideal")
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--n-avg", type=int, default=None,
                   help="shots in sampled mode (default: 1000)")
    p.add_argument("--seed", type=int, default=None, help="shot seed in sampled mode")
    p.add_argument("--t1", type=float, nargs="+", default=None)
    p.add_argument("--t2", type=float, nargs="+", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("experiment", help="run the full disorder sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--backend", choices=("ideal", "noisy"), default=None)
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--golden", default=None, help="compare against a golden record")
    p.add_argument("--write-golden", default=None, help="write a golden record")
    p.add_argument("--dump-realizations", action="store_true")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("trajectory", help="Bloch trajectory of one rotation")
    p.add_argument("--phi-over-pi", type=float, required=True)
    p.add_argument("--gamma-over-pi", type=float, required=True)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("paging-report", help="waveform paging trace for a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_paging_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except QcoprocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
