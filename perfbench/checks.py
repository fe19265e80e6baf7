"""Output checks: every checked output is one operation, and one that misses
its reference counts as failed.  Each check returns (attempted, failed,
codeword_loads); the callers add the determinism and digest guards."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import oracle

TOL = 1e-9


def _close(value, expected) -> bool:
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - expected) <= TOL)


def check_experiment(out: Path, config: dict, reference: dict,
                     golden: dict | None) -> tuple[int, int, int]:
    """imbalance.csv rows (w, k) against the oracle's mean and stderr and the
    realization count, and every per-realization point (w, i, k) in
    realizations.json; at the default config also the golden means."""
    attempted = failed = 0
    n_points = config["n_steps"] + 1
    series = reference["series"]

    with open(out / "imbalance.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header_ok = rows[:1] == [["w", "k", "imbalance_mean", "imbalance_stderr",
                              "n_realizations"]]
    table = {}
    for row in rows[1:]:
        try:
            key = (float(row[0]), int(row[1]))
            table.setdefault(key, []).append(
                (float(row[2]), float(row[3]), int(row[4])) if len(row) == 5 else None)
        except (ValueError, IndexError):
            table.setdefault(("bad", len(table)), []).append(None)
    golden_ok = golden is None or set(golden["values"]) == {repr(w) for w in series}
    for w, ref in series.items():
        recorded = golden["values"].get(repr(w)) if golden is not None else None
        for k in range(n_points):
            attempted += 1
            got = table.pop((w, k), [None])
            ok = header_ok and golden_ok and len(got) == 1 and got[0] is not None
            if ok:
                mean, stderr, count = got[0]
                ok = (_close(mean, ref["mean"][k]) and _close(stderr, ref["stderr"][k])
                      and count == config["n_realizations"])
                if golden is not None:
                    ok = ok and len(recorded) == n_points and _close(mean, recorded[k])
            failed += not ok
    attempted += len(table)  # rows nobody asked for
    failed += len(table)

    expected_rows = reference["rows"]
    dumped = json.loads((out / "realizations.json").read_text())
    if not isinstance(dumped, list) or len(dumped) != len(expected_rows):
        dumped = []
    for i, ref in enumerate(expected_rows):
        attempted += n_points
        row = dumped[i] if i < len(dumped) else {}
        same_draw = all(row.get(f) == ref[f] for f in ("w", "seed", "h0x", "h0y", "h1x", "h1y"))
        curve = row.get("I") if isinstance(row.get("I"), list) else []
        if not same_draw or len(curve) != n_points:
            failed += n_points
            continue
        failed += sum(not _close(v, e) for v, e in zip(curve, ref["I"]))

    summary = json.loads((out / "paging.json").read_text())
    loads = summary.get("total_loads")
    attempted += 1
    if summary.get("capacity") != config["capacity"] or not isinstance(loads, int) \
            or loads < 1 or summary.get("total_hits", -1) < 0:
        failed += 1
        loads = 0
    return attempted, failed, loads


def _key(entry: dict) -> tuple:
    return (entry["phi_over_pi"], entry["gamma_over_pi"])


def check_paging_report(path: Path, config: dict) -> tuple[int, int, int]:
    """One operation per paging pass: loaded = sorted MLST, evicted within the
    DLST, MLST/DLST consistent with the table replayed from the report, free
    codewords used before evicting; plus one for the totals."""
    body = json.loads(path.read_text())
    runs = body.get("runs", [])
    order = [(float(w), i, k) for w in config["w_values"]
             for i in range(config["n_realizations"]) for k in range(config["n_steps"] + 1)]
    capacity = config["capacity"]
    resident: set = set()
    attempted = failed = 0
    total_loads = total_hits = 0
    for index, where in enumerate(order):
        attempted += 1
        run = runs[index] if index < len(runs) else {}
        try:
            mlst = {_key(e) for e in run["mlst"]}
            dlst = {_key(e) for e in run["dlst"]}
            loaded = [_key(e) for e in run["loaded"]]
            evicted = [_key(e) for e in run["evicted"]]
            ok = ((run["w"], run["realization"], run["k"]) == where
                  and loaded == sorted(mlst)
                  and set(evicted) <= dlst and len(set(evicted)) == len(evicted)
                  and not mlst & resident and dlst <= resident
                  and run["hits"] == len(resident - dlst)
                  and len(evicted) == max(0, len(resident) + len(loaded) - capacity))
            resident = (resident - set(evicted)) | set(loaded)
            total_loads += len(loaded)
            total_hits += run["hits"]
            ok = ok and run["load_counter"] == total_loads and len(resident) <= capacity
        except (KeyError, TypeError):
            ok = False
        failed += not ok
    attempted += 1
    totals_ok = (len(runs) == len(order) and body.get("capacity") == capacity
                 and body.get("total_loads") == total_loads
                 and body.get("total_hits") == total_hits)
    failed += not totals_ok
    return attempted, failed, total_loads if totals_ok else 0


def check_compile(out: Path, config: dict, record: dict) -> tuple[int, int, int]:
    """Each compiled program's ideal P(q0), P(q1) against the native circuit's,
    from the emitted text; the text must parse back to the same program."""
    texts = json.loads((out / "compiled.json").read_text())
    expected = oracle.realizations(config)
    roundtrip = record.get("roundtrip_equal", [])
    tau, k = config["tau_over_pi"] * oracle.PI, config["n_steps"]
    attempted = failed = 0
    for i, r in enumerate(expected):
        attempted += 1
        if i >= len(texts) or i >= len(roundtrip) or not roundtrip[i]:
            failed += 1
            continue
        probs = oracle.ideal_probabilities(r, tau, k)[-1]
        try:
            p0, p1 = oracle.program_text_probabilities(texts[i])
        except (ValueError, KeyError, IndexError):
            failed += 1
            continue
        failed += not (_close(p0, probs[1] + probs[3]) and _close(p1, probs[2] + probs[3]))
    extra = max(0, len(texts) - len(expected))  # programs nobody asked for
    return attempted + extra, failed + extra, record.get("codeword_loads", 0)
