"""opdiscord benchmark: one workload, one closed-loop client, one run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports opdiscord from its ``src``.
The client sends the next item only after the previous one returns; the
process uses no threads of its own (BLAS keeps its default, one per core).
Inputs come from ``--seed`` as blocks of items; items run until
``--seconds`` of measured time is used.

``--trace 0`` reports the end-to-end metrics.  Set-up time is the median
over several fresh processes.  ``--trace 1`` runs items untraced for half
of ``--seconds``, then the same items once more with every layer boundary
wrapped (see ``tracer.py``), re-runs some items to check that the
work counts repeat exactly, and reports the per-layer metrics.  Spans go
to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from time import perf_counter

import checkout
import theories
import tracer as tr
import workloads as wl

SETUP_PROBES = 5
RECHECK_SECONDS = 6.0  # untraced time of the items re-run for the exact-count check
TAIL_MIN_SAMPLES = 20  # below this the tail percentile would fall under the median

E2E_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_rate": "ratio",
    "excess_ratio": "ratio",
    "bracket_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def setup_seconds(workload: str) -> list[float]:
    """Set-up time of ``SETUP_PROBES`` fresh processes, one after another."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, probe, workload],
            cwd=checkout.ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


@dataclass(slots=True)
class Record:
    """One timed item: its result or the exception it raised."""

    item: object
    result: object
    error: str | None
    latency: float


def run_item(workload, item, tracer=None, index=None) -> Record:
    t0 = perf_counter()
    try:
        if tracer is None:
            result = workload.run(item)
        else:
            with tracer.item_span(index):
                result = workload.run(item)
    except Exception:  # a failing item is counted, not fatal
        return Record(item, None, traceback.format_exc(limit=3), perf_counter() - t0)
    return Record(item, result, None, perf_counter() - t0)


def run_items(workload, seed: int, seconds: float) -> list[Record]:
    """Items, block after block, until their times add up to ``seconds``.
    Making a block's inputs is not timed."""
    records, used, index = [], 0.0, 0
    while True:
        for item in workload.items(seed, index):
            records.append(run_item(workload, item))
            used += records[-1].latency
            if used >= seconds:
                return records
        index += 1


def check_all(workload, records):
    """Outcomes of every record, checked outside the timed region."""
    out = []
    for rec in records:
        if rec.error is not None:
            outcome = wl.Outcome(False, rec.error.strip().splitlines()[-1])
        else:
            try:
                outcome = workload.check(rec.item, rec.result)
            except Exception as exc:  # a check that raises is a failed item
                outcome = wl.Outcome(False, f"check raised {exc!r}")
        if not outcome.ok:
            print(f"FAILED {rec.item.kind}: {outcome.note}")
        out.append(outcome)
    return out


def tail(latencies: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it, by
    nearest rank.  With fewer than ``TAIL_MIN_SAMPLES`` samples that
    percentile lies below the median, so the maximum is reported."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < TAIL_MIN_SAMPLES:
        return ordered[-1], 100
    pct = math.floor(100 * (n - 10) / n)
    return ordered[math.ceil(pct * n / 100) - 1], pct


def accuracy(outcomes) -> dict:
    """Reported values against exact references, and against lower bounds."""
    with_ref = [o for o in outcomes if o.reference is not None]
    with_lower = [o for o in outcomes if o.lower is not None]
    sum_ref = sum(o.reference for o in with_ref)
    sum_lower = sum(o.lower for o in with_lower)
    if sum_ref <= 0.0 or sum_lower <= 0.0:
        raise RuntimeError("no item with a positive reference value or lower bound was checked")
    return {
        "excess_ratio": sum(o.reported for o in with_ref) / sum_ref,
        "bracket_ratio": sum(o.reported for o in with_lower) / sum_lower,
        "excess_discord": statistics.fmean(o.reported - o.reference for o in with_ref),
        "references": len(with_ref),
        "bound_gap": statistics.fmean(o.reported - o.lower for o in with_lower),
        "bounds": len(with_lower),
    }


def report_line(name, value, unit, note=""):
    print(f"{name:<45} {value:>16.6g} {unit:<6} {note}".rstrip())


def end_to_end(cls, od, args, workdir) -> dict:
    setups = setup_seconds(cls.name)
    workload = cls(od, theories.build(od, cls.name), workdir)
    workload.warm_up()
    records = run_items(workload, args.seed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = check_all(workload, records)
    failed = sum(not o.ok for o in outcomes)
    ok_lat = [r.latency for r, o in zip(records, outcomes) if r.error is None]
    tail_value, tail_pct = tail(ok_lat)
    acc = accuracy(outcomes)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": len(records) / sum(r.latency for r in records),
        "latency_p50_ms": 1000.0 * statistics.median(ok_lat),
        "latency_tail_ms": 1000.0 * tail_value,
        "success_rate": (len(records) - failed) / len(records),
        "excess_ratio": acc["excess_ratio"],
        "bracket_ratio": acc["bracket_ratio"],
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes: " + ", ".join(f"{s:.3f}" for s in setups),
        "items_per_s": f"{len(records)} items / their summed time",
        "latency_p50_ms": f"n={len(ok_lat)}",
        "latency_tail_ms": f"p{tail_pct} of n={len(ok_lat)}"
        + (" (maximum: too few samples for ten beyond a percentile >= p50)" if tail_pct == 100 else ""),
        "success_rate": f"{len(records) - failed} of {len(records)} items correct",
        "excess_ratio": f"sum reported / sum exact reference over {acc['references']} items",
        "bracket_ratio": f"sum reported / sum lower bound over {acc['bounds']} bound items",
    }
    for name, value in metrics.items():
        report_line(name, value, E2E_UNITS[name], notes.get(name, ""))
    report_line("error_rate", failed / len(records), "ratio", "failed / attempted")
    report_line("excess_discord", acc["excess_discord"], "", "mean reported - exact reference")
    report_line("bound_gap", acc["bound_gap"], "", "mean reported - lower bound")
    return {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}


def per_layer(cls, od, args, workdir) -> dict:
    setup = tr.Tracer()
    with setup.installed():
        built = theories.build(od, cls.name)
    workload = cls(od, built, workdir)
    workload.warm_up()
    records = run_items(workload, args.seed, args.seconds / 2)
    untraced_wall = sum(r.latency for r in records)
    failed = [not o.ok for o in check_all(workload, records)]
    values = [None if r.error else workload.value(r.item, r.result) for r in records]

    traced = tr.Tracer()
    with traced.installed():
        t0 = perf_counter()
        again = [run_item(workload, r.item, traced, i) for i, r in enumerate(records)]
        traced_wall = perf_counter() - t0
    for i, (rec, val) in enumerate(zip(again, values)):
        if rec.error is not None or val is None or workload.value(rec.item, rec.result) != val:
            print(f"FAILED {rec.item.kind}: traced run differs from untraced run")
            failed[i] = True

    # The exact-count check: re-run traced, compare counts.  Items with
    # counts to compare are taken one of each kind first, then in order.
    counts = tr.item_counts(traced.spans)
    counted = [i for i in range(len(records)) if any(counts.get(i, ()))]
    kinds = {}
    for i in counted:
        kinds.setdefault(records[i].item.kind, i)
    chosen, spent = [], 0.0
    for i in dict.fromkeys([*kinds.values(), *counted]):
        if chosen and spent + records[i].latency > RECHECK_SECONDS:
            break
        chosen.append(i)
        spent += records[i].latency
    recheck = tr.Tracer()
    with recheck.installed():
        for i in chosen:
            run_item(workload, records[i].item, recheck, i)
    recounts = tr.item_counts(recheck.spans)
    for i in chosen:
        if counts.get(i) != recounts.get(i):
            raise SystemExit(
                f"exact-count check failed on item {i} ({records[i].item.kind}): "
                f"(pivots, candidates, nfev, evaluations) {counts.get(i)} then {recounts.get(i)}"
            )
    print(f"exact-count check: {len(chosen)} items of {len({records[i].item.kind for i in chosen})} kinds "
          "re-run, (pivots, candidates, nfev, evaluations) repeat")

    null_items = {
        i for i, r in enumerate(records)
        if r.item.kind.startswith("cli-null-check/") and r.item.args[0].system.backend == "quantum"
    }
    metrics = tr.layer_metrics(traced.spans, setup.spans, traced_wall, untraced_wall, null_items)
    for name, value in metrics.items():
        report_line(name, value, tr.LAYER_METRICS[name])
    for name, key in (
        ("refine", "discord.refine.time_s"),
        ("fixed_point", "discord.fixed_point.time_s"),
        ("lp", "lp.time_s"),
        ("certified", "simpliciality.certified.time_s"),
    ):
        print(f"share.{name:<39} {metrics[key] / traced_wall:>16.3f} of traced wall")
    path = checkout.ROOT / ".perfbench" / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tr.write_spans(path, traced.spans)
    print(f"spans: {len(traced.spans)} written to {path.relative_to(checkout.ROOT)}")
    return {"correct": not any(failed), "attempted": len(records), "failed": sum(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        od = checkout.load_opdiscord()
    except checkout.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = checkout.environment()
    cls = wl.WORKLOADS[args.workload]
    with open(checkout.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    print(f"workload {cls.name}: {why[cls.name]}")
    print("environment " + json.dumps(env))
    print(f"loop: closed, 1 client, seed {args.seed}, {args.seconds:g} s measured, trace {args.trace}")
    os.makedirs(checkout.ROOT / ".perfbench", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=checkout.ROOT / ".perfbench")
    try:
        result = (per_layer if args.trace else end_to_end)(cls, od, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = tr.LAYER_METRICS if args.trace else E2E_UNITS
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
