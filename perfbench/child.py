"""One measured run of one workload, in a fresh single-threaded process.

Usage (started by run.py, one at a time):
    python3 perfbench/child.py --kind experiment|paging-report|compile
        --config FILE --out DIR --t0 NS --trace 0|1

``--t0`` is the parent's CLOCK_MONOTONIC reading just before it started this
process, so setup_s covers interpreter start, the numpy and qcoproc imports
and the config load.  wall_s covers the entry-point call until its outputs
are written, and cpu_s the process CPU time of that call, which leaves out
time spent waiting for a CPU.  reference_s is the time of
reference_seconds() run just before the timed call plus its time just after
it, so it samples the machine's speed at both ends; run.py scales every time
by it.  The child writes child.json (and spans.json when traced) to
``--out``; all checking happens in the parent, outside the timed region.
"""

import time  # noqa: I001  (first, so nothing precedes the clock)

import argparse
import json
import math
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import qcoproc  # noqa: E402
from qcoproc import cli, compiler, isa, wavemem, workload  # noqa: E402


REFERENCE_ROUNDS = 1000


def reference_seconds() -> float:
    """Seconds this process takes for a fixed piece of work that no change to
    qcoproc can alter.  It mixes what the workloads spend their time on: 2x2
    and 4x4 complex products, angles printed and parsed back, small dicts."""
    eye = np.eye(2, dtype=complex)
    start = time.perf_counter()
    state = np.eye(4, dtype=complex)
    counts: dict = {}
    for i in range(REFERENCE_ROUNDS):
        c, s = math.cos(i * 1e-3), math.sin(i * 1e-3)
        u = np.array([[c, -1j * s], [-1j * s, c]])
        state = np.kron(eye, u) @ state @ np.kron(u, eye)
        text = f"rxy q{i % 2}, {c!r}, {s!r}"
        key = text.split(",")[0]
        counts[key] = counts.get(key, 0.0) + float(text.rsplit(",", 1)[1])
    elapsed = time.perf_counter() - start
    if not (np.isfinite(state).all() and len(counts) == 2):
        raise RuntimeError("reference work went wrong")
    return elapsed


def compile_batch(config) -> list:
    """Inputs of compile-roundtrip: one full-depth realization per (w, i)."""
    realizations = []
    for w_index, w in enumerate(config.w_values):
        for i in range(config.n_realizations):
            seed = workload.derive_seed(config.master_seed, w_index, i)
            realizations.append(workload.sample_disorder(
                w, config.tau, config.n_steps, np.random.default_rng(seed), seed=seed))
    return realizations


def run_compile(realizations) -> list:
    out = []
    for r in realizations:
        source = workload.build_source_circuit(r, r.n_steps)
        parsed = compiler.parse_source_program(compiler.emit_source_program(source))
        compiled = compiler.run_passes(parsed, compiler.PASSES)
        text = isa.emit_program(compiled)
        out.append((compiled, text, isa.parse_program(text)))
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--kind", required=True,
                        choices=("experiment", "paging-report", "compile"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    out = Path(args.out)
    if not Path(qcoproc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"qcoproc imported from {qcoproc.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    config = workload.ExperimentConfig.from_json_dict(json.loads(Path(args.config).read_text()))
    if args.kind == "compile":
        realizations = compile_batch(config)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    ready = time.monotonic_ns()
    reference = reference_seconds()

    start, cpu_start = time.perf_counter(), time.process_time()
    if args.kind == "experiment":
        code = cli.main(["experiment", "--config", args.config, "--out", str(out),
                         "--dump-realizations"])
    elif args.kind == "paging-report":
        code = cli.main(["paging-report", "--config", args.config,
                         "--out", str(out / "paging-report.json")])
    else:
        compiled = run_compile(realizations)
        code = 0
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    if tracer is not None:
        tracer.dump(str(out / "spans.json"))

    cache = isa._slot_unitary_cached.cache_info()
    record = {
        "exit_code": code,
        "setup_s": (ready - args.t0) / 1e9,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "slot_cache": {"hits": cache.hits, "misses": cache.misses},
    }
    if args.kind == "compile":
        # Codeword loads to run the compiled batch on a fresh default table.
        rct = wavemem.RCT(capacity=config.capacity)
        rng = np.random.default_rng(workload.derive_seed(config.master_seed, 0xE, 0xE))
        for program, _, _ in compiled:
            wavemem.page_update(program, rct, rng)
        record["codeword_loads"] = rct.load_counter
        record["roundtrip_equal"] = [parsed == program for program, _, parsed in compiled]
        (out / "compiled.json").write_text(json.dumps([text for _, text, _ in compiled]))
    record["reference_s"] = reference + reference_seconds()
    (out / "child.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
