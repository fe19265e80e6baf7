"""Span tracing around qcoproc's public functions, installed from outside.

A traced child process wraps each function listed in :data:`TRACED` and
rebinds every name under which a qcoproc module holds it, so calls made
through ``from .isa import ...`` bindings are seen too.  A span is
(name, start_ns, end_ns, parent index, counts); the counts are read from the
call's arguments and return value.  Spans stay in memory until the child
writes them out at the end.  :func:`layer_metrics` turns one child's spans into
the per-layer metrics, with self time = span time minus its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = ("isa", "compiler", "wavemem", "simulator", "workload", "cli")


def _program_slots(args, result):
    return {"slots": len(args[0].slots)}


def _result_slots(args, result):
    return {"slots": len(result.slots)}


def _new_pulses(args, result):
    return {"pulses": len(result[1])}


def _page_counts(args, result):
    report = result[1]
    return {"loads": len(report.loaded), "hits": report.hits,
            "evictions": len(report.evicted)}


def _written_bytes(args, result):
    return {"bytes": len(args[1].encode())}


# (module, attribute, span name, counts from (args, result))
TRACED = (
    ("cli", "main", "cli.main", None),
    ("cli", "_write", "cli.serialize", _written_bytes),
    ("workload", "experiment_csv", "cli.serialize", None),
    ("workload", "experiment_json", "cli.serialize", None),
    ("workload", "realizations_json", "cli.serialize", None),
    ("workload", "run_experiment", "workload.experiment", None),
    ("workload", "sample_disorder", "workload.sample", None),
    ("workload", "build_native_circuit", "workload.build", _result_slots),
    ("workload", "build_source_circuit", "workload.build", _result_slots),
    ("wavemem", "dgs_scan", "wavemem.scan", _new_pulses),
    ("wavemem", "page_update", "wavemem.page", _page_counts),
    ("simulator", "run_ideal", "simulator.run", _program_slots),
    ("simulator", "run_noisy", "simulator.run", _program_slots),
    ("compiler", "parse_source_program", "compiler.parse", None),
    ("compiler", "run_passes", "compiler.passes", _result_slots),
    ("compiler", "frame_rotate_z_to_y", "compiler.frame_rotate", None),
    ("compiler", "lower", "compiler.lower", None),
    ("compiler", "schedule", "compiler.schedule", None),
    ("compiler", "emit_source_program", "compiler.emit", None),
    ("isa", "parse_program", "isa.parse", None),
    ("isa", "emit_program", "isa.emit", None),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if counts is not None:
                spans[index] = (name, start, end, parent, counts(args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever qcoproc binds it."""
        from qcoproc import cli, wavemem

        modules = [m for n, m in sys.modules.items()
                   if n.startswith("qcoproc.") and m is not None]
        for module_name, attr, name, counts in TRACED:
            original = getattr(sys.modules["qcoproc." + module_name], attr)
            wrapped = self.wrap(name, original, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        # The CLI serializes through json.dumps and PageReport.to_json_dict.
        cli.json = _JsonProxy(self.wrap("cli.serialize", json.dumps))
        wavemem.PageReport.to_json_dict = self.wrap(
            "cli.serialize", wavemem.PageReport.to_json_dict)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class _JsonProxy:
    """Stands in for the json module inside qcoproc.cli, with dumps traced."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(json, attr)


# Per-layer metrics: name -> unit.  Every traced run reports all of them; a
# layer the workload never calls reads 0.
PER_LAYER = {
    "simulator.run.calls": "count", "simulator.run.s": "s",
    "simulator.slots": "count", "simulator.us_per_slot": "us",
    "isa.slot_cache.hits": "count", "isa.slot_cache.misses": "count",
    "isa.slot_cache.hit_ratio": "ratio",
    "workload.build.calls": "count", "workload.build.s": "s",
    "workload.build.slots": "count", "workload.sample.s": "s",
    "workload.experiment.self_s": "s",
    "wavemem.scan.s": "s", "wavemem.pulses_synthesized": "count",
    "wavemem.page.s": "s", "wavemem.loads": "count", "wavemem.hits": "count",
    "wavemem.evictions": "count", "wavemem.hit_ratio": "ratio",
    "cli.serialize.s": "s", "cli.output_bytes": "B",
    "compiler.parse.s": "s", "compiler.frame_rotate.s": "s",
    "compiler.lower.s": "s", "compiler.schedule.s": "s", "compiler.emit.s": "s",
    "compiler.slots_out": "count", "isa.parse.s": "s", "isa.emit.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count", "trace.wall_s": "s", "trace.overhead_s": "s",
}

# Counts that must repeat exactly between children of one run.
DETERMINISTIC = tuple(name for name, unit in PER_LAYER.items()
                      if unit in ("count", "B"))


def layer_metrics(spans: list, slot_cache: dict) -> dict:
    """Per-layer values of one traced child, except the trace.*_s entries."""
    total_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    child_ns = [0] * len(spans)
    counts: dict[str, int] = {}
    for name, start, end, parent, span_counts in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for index, (name, start, end, parent, span_counts) in enumerate(spans):
        total_ns[name] = total_ns.get(name, 0) + end - start
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + end - start - child_ns[index]
        for key, value in (span_counts or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    def seconds(table, name):
        return table.get(name, 0) / 1e9

    def ratio(part, whole):
        return part / whole if whole else 0.0

    sim_s = seconds(total_ns, "simulator.run")
    sim_slots = counts.get("simulator.run.slots", 0)
    loads, hits = counts.get("wavemem.page.loads", 0), counts.get("wavemem.page.hits", 0)
    cache_hits, cache_misses = slot_cache["hits"], slot_cache["misses"]
    out = {
        "simulator.run.calls": calls.get("simulator.run", 0),
        "simulator.run.s": sim_s,
        "simulator.slots": sim_slots,
        "simulator.us_per_slot": ratio(sim_s * 1e6, sim_slots),
        "isa.slot_cache.hits": cache_hits,
        "isa.slot_cache.misses": cache_misses,
        "isa.slot_cache.hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "workload.build.calls": calls.get("workload.build", 0),
        "workload.build.s": seconds(total_ns, "workload.build"),
        "workload.build.slots": counts.get("workload.build.slots", 0),
        "workload.sample.s": seconds(total_ns, "workload.sample"),
        "workload.experiment.self_s": seconds(self_ns, "workload.experiment"),
        "wavemem.scan.s": seconds(total_ns, "wavemem.scan"),
        "wavemem.pulses_synthesized": counts.get("wavemem.scan.pulses", 0),
        "wavemem.page.s": seconds(total_ns, "wavemem.page"),
        "wavemem.loads": loads,
        "wavemem.hits": hits,
        "wavemem.evictions": counts.get("wavemem.page.evictions", 0),
        "wavemem.hit_ratio": ratio(hits, hits + loads),
        "cli.serialize.s": seconds(total_ns, "cli.serialize"),
        "cli.output_bytes": counts.get("cli.serialize.bytes", 0),
        "compiler.parse.s": seconds(total_ns, "compiler.parse"),
        "compiler.frame_rotate.s": seconds(total_ns, "compiler.frame_rotate"),
        "compiler.lower.s": seconds(total_ns, "compiler.lower"),
        "compiler.schedule.s": seconds(total_ns, "compiler.schedule"),
        "compiler.emit.s": seconds(total_ns, "compiler.emit"),
        "compiler.slots_out": counts.get("compiler.passes.slots", 0),
        "isa.parse.s": seconds(total_ns, "isa.parse"),
        "isa.emit.s": seconds(total_ns, "isa.emit"),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(ns for name, ns in self_ns.items()
                                     if name.split(".")[0] == layer) / 1e9
    return out
