"""qcoproc benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in fresh child processes (perfbench/child.py), one at a
time, for about S seconds and at least three children; checks every
child's outputs against the oracle in perfbench/oracle.py; prints one JSON
object as the last line of standard output.  With --trace 0 it reports the
end-to-end metrics (medians over the children); with --trace 1 every second
child is traced and it reports the per-layer metrics of perfbench/tracing.py.
The workload seed replaces the configs' master_seed (default 2034, the
shipped value).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import oracle
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"
DEFAULT_SEED = 2034
MIN_CHILDREN = 3
DEADLINE_S = 140  # a run stops starting children well inside its 180 s limit
# The speed of the VM the benchmark was defined on (2 CPUs) changed by up to
# 2x over minutes, and CPU time followed it.  So each child also times a fixed
# piece of work (child.reference_seconds), and every time the benchmark
# reports is in reference seconds: seconds measured times REFERENCE_S over
# that child's reference time.  REFERENCE_S is the reference time's median on
# that VM, so reference seconds read like its seconds at a typical speed.
REFERENCE_S = 0.15
TIME_UNITS = ("s", "us")

# name -> (child kind, config file, outputs hashed for the determinism guard)
WORKLOADS = {
    "sweep-ideal": ("experiment", ROOT / "configs" / "experiment_default.json",
                    ("imbalance.csv", "paging.json", "realizations.json")),
    "sweep-noisy": ("experiment", HERE / "configs" / "sweep_noisy.json",
                    ("imbalance.csv", "paging.json", "realizations.json")),
    "paging-report": ("paging-report", ROOT / "configs" / "experiment_default.json",
                      ("paging-report.json",)),
    "compile-roundtrip": ("compile", HERE / "configs" / "compile_roundtrip.json",
                          ("compiled.json",)),
}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "codeword_loads": "count"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_child(kind: str, config_path: Path, out: Path, timeout: float,
              *flags: str) -> dict:
    """Start one child, wait for it, and return its record (or the failure)."""
    out.mkdir(parents=True)
    env = {**os.environ, **{name: "1" for name in THREAD_VARS}}
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), "--kind", kind, "--config",
         str(config_path), "--out", str(out), "--t0", str(t0), *flags],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    record_path = out / "child.json"
    if proc.returncode != 0 or not record_path.exists():
        return {"error": f"child exited {proc.returncode}: {stderr.strip()[-2000:]}"}
    record = json.loads(record_path.read_text())
    if record.get("exit_code", 0) != 0:
        record["error"] = f"entry point returned {record['exit_code']}: {stderr.strip()[-2000:]}"
    return record


class Checker:
    """Checks each child's outputs; identical bytes are checked once."""

    def __init__(self, workload: str, config: dict, seed: int):
        self.kind, _, self.outputs = WORKLOADS[workload]
        self.workload, self.config, self.seed = workload, config, seed
        self.reference = json.loads((HERE / "reference.json").read_text()).get(workload, {})
        self._experiment_ref = (oracle.experiment_reference(config)
                                if self.kind == "experiment" else None)
        self._seen: dict = {}

    def __call__(self, out: Path, record: dict) -> tuple[int, int, int, tuple]:
        digests = tuple(sha256(out / name) for name in self.outputs)
        key = (digests, record.get("codeword_loads"), str(record.get("roundtrip_equal")))
        if key not in self._seen:
            self._seen[key] = self._check(out, record, digests)
        attempted, failed, loads = self._seen[key]
        return attempted, failed, loads, digests

    def _check(self, out: Path, record: dict, digests: tuple) -> tuple[int, int, int]:
        default = self.seed == DEFAULT_SEED
        if self.kind == "experiment":
            golden = None
            if self.workload == "sweep-ideal" and default:
                golden = json.loads((ROOT / "golden" / "experiment_default_golden.json").read_text())
            attempted, failed, loads = checks.check_experiment(
                out, self.config, self._experiment_ref, golden)
        elif self.kind == "paging-report":
            attempted, failed, loads = checks.check_paging_report(
                out / "paging-report.json", self.config)
            if default:
                attempted += 1
                failed += digests[0] != self.reference["sha256"]
        else:
            attempted, failed, loads = checks.check_compile(out, self.config, record)
        if default and "codeword_loads" in self.reference:
            attempted += 1
            failed += loads != self.reference["codeword_loads"]
        return attempted, failed, loads


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that run_child stops the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    kind, config_file, _ = WORKLOADS[args.workload]
    missing = [str(path) for path in (ROOT / "src" / "qcoproc" / "__init__.py", config_file)
               if not path.is_file()]
    if missing:
        print(f"error: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    config = {**json.loads(config_file.read_text()), "master_seed": args.seed}
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    check = Checker(args.workload, config, args.seed)

    start = time.monotonic()
    attempted = failed = 0
    errors: list[str] = []
    plain: list[dict] = []
    traced: list[dict] = []
    fingerprint = None
    cycles: list[float] = []  # seconds from one child's start to the next's
    while True:
        elapsed = time.monotonic() - start
        done = min(len(plain), len(traced)) if args.trace else len(plain)
        # Start no child that would end more than half a child past --seconds.
        if ((done >= MIN_CHILDREN and elapsed + statistics.median(cycles) / 2 >= args.seconds)
                or elapsed >= DEADLINE_S):
            break
        is_traced = bool(args.trace) and len(traced) < len(plain)
        index = len(plain) + len(traced)
        timeout = DEADLINE_S + 20 - elapsed
        record = run_child(kind, config_path, work / f"child{index}", timeout,
                           "--trace", str(int(is_traced)))
        if "error" in record:
            errors.append(record["error"])
            attempted += 1  # the child's outputs are missing: one failed operation
            failed += 1
            break
        out = work / f"child{index}"
        n, bad, loads, digests = check(out, record)
        record["codeword_loads"] = loads
        speed = REFERENCE_S / record["reference_s"]
        record["ref_wall_s"] = record["wall_s"] * speed
        record["ref_setup_s"] = record["setup_s"] * speed
        # Determinism guard: every count and output byte repeats across children.
        counts = (loads, record["slot_cache"]["hits"], record["slot_cache"]["misses"], digests)
        if is_traced:
            spans = json.loads((out / "spans.json").read_text())
            record["layers"] = {
                name: value * speed if tracing.PER_LAYER[name] in TIME_UNITS else value
                for name, value in tracing.layer_metrics(spans, record["slot_cache"]).items()}
            counts += tuple(record["layers"][name] for name in tracing.DETERMINISTIC)
        if fingerprint is None:
            fingerprint = counts[:4]
        if counts[:4] != fingerprint or (is_traced and traced and counts[4:] != traced[0]["counts"]):
            errors.append(f"child {index}: counts or output digests differ from child 0: "
                          f"{counts} vs {fingerprint}")
            bad = n
        record["counts"] = counts[4:]
        attempted += n
        failed += bad
        (traced if is_traced else plain).append(record)
        for name in WORKLOADS[args.workload][2]:
            (out / name).unlink(missing_ok=True)
        cycles.append(time.monotonic() - start - elapsed)

    metrics: dict = {}
    if plain and (not args.trace or traced):
        def median(key, records=plain):
            return statistics.median(r[key] for r in records)

        if args.trace:
            for name, unit in tracing.PER_LAYER.items():
                if name.startswith("trace.") and name.endswith("_s"):
                    continue
                values = [r["layers"][name] for r in traced]
                value = values[0] if name in tracing.DETERMINISTIC else statistics.median(values)
                metrics[name] = {"value": value, "unit": unit}
            metrics["trace.wall_s"] = {"value": median("ref_wall_s", traced), "unit": "s"}
            metrics["trace.overhead_s"] = {
                "value": median("ref_wall_s", traced) - median("ref_wall_s"), "unit": "s"}
        else:
            for name, unit in END_TO_END.items():
                key = "ref_" + name if unit in TIME_UNITS else name
                metrics[name] = {"value": median(key), "unit": unit}
            metrics["codeword_loads"]["value"] = fingerprint[0]  # equal in every child
    else:
        errors.append("no child completed")
        attempted, failed = max(attempted, 1), max(failed, 1)

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "children": len(plain), "traced_children": len(traced),
        "seconds": round(time.monotonic() - start, 3),
        "quartiles": {name: quartiles([r[name] for r in plain])
                      for name in ("wall_s", "cpu_s", "setup_s", "reference_s", "peak_rss_mb")}
        if plain else {},
        "errors": errors,
    }
    result = {"correct": failed == 0 and not errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps({"info": info, **result}, indent=2) + "\n")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
