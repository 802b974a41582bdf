#!/usr/bin/env python3
"""Summarize / validate runtime traces from the decode service.

The decode service's event tracer (src/runtime/trace.h) exports Chrome
tracing / Perfetto JSON: "X" duration events for the pipeline stages
(queue_wait, claim, feed, decode, repost, task), "i" instants for
submit / complete / steal / task_post, and "M" thread-name
metadata. This tool turns one such file into a terminal report:

  per-stage latency      p50/p95/p99/max over every span of each stage
  per-shard activity     claims, jobs and steals attributed to each
                         shard (claim spans carry the shard in a1)
  steal timeline         every steal instant in time order

With --check it instead validates the file against the schema the
exporter promises (and optionally a --metrics JSON snapshot from
example_decode_server --metrics-out), exiting non-zero on the first
violation — CI runs this against freshly captured artifacts so a
format regression in the exporter fails the build, not a later
Perfetto load.

Usage:
  tools/trace_report.py trace.json                   # summary report
  tools/trace_report.py --check trace.json           # schema check
  tools/trace_report.py --check trace.json --metrics metrics.json
"""

import argparse
import json
import sys

# Event names the exporter emits, keyed by phase type. Kept in lockstep
# with trace_kind_name() in src/runtime/trace.cpp.
SPAN_NAMES = ("queue_wait", "claim", "feed", "decode", "repost", "task")
INSTANT_NAMES = ("submit", "complete", "steal", "task_post")
ALL_NAMES = set(SPAN_NAMES) | set(INSTANT_NAMES)

# Stage histograms the metrics snapshot must always carry.
REQUIRED_HISTOGRAMS = (
    "spinal_decode_latency_us",
    "spinal_stage_queue_wait_us",
    "spinal_stage_batch_assembly_us",
    "spinal_stage_decode_service_us",
)
HISTOGRAM_FIELDS = ("count", "mean", "min", "max", "p50", "p95", "p99")


def quantile(sorted_vals, q):
    """Nearest-rank quantile of an already-sorted list."""
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(q * len(sorted_vals)))
    return sorted_vals[idx]


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot load {path}: {e}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------- check

def fail(msg):
    print(f"check failed: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(doc, path):
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: top level must be an object with 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail(f"{path}: traceEvents must be an array")
    other = doc.get("otherData", {})
    if not isinstance(other, dict) or "dropped_events" not in other:
        fail(f"{path}: otherData.dropped_events missing")
    for n, ev in enumerate(events):
        where = f"{path}: traceEvents[{n}]"
        if not isinstance(ev, dict):
            fail(f"{where}: event must be an object")
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") != "thread_name":
                fail(f"{where}: unknown metadata event {ev.get('name')!r}")
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in ev:
                fail(f"{where}: missing key {key!r}")
        if ev["name"] not in ALL_NAMES:
            fail(f"{where}: unknown event name {ev['name']!r}")
        if ph == "X":
            if ev["name"] not in SPAN_NAMES:
                fail(f"{where}: {ev['name']!r} must not be a span")
            if "dur" not in ev or ev["dur"] < 0:
                fail(f"{where}: span missing non-negative 'dur'")
        elif ph == "i":
            if ev["name"] not in ALL_NAMES:
                fail(f"{where}: {ev['name']!r} must not be an instant")
        else:
            fail(f"{where}: unknown phase {ph!r}")
        args = ev.get("args")
        if not isinstance(args, dict) or "a0" not in args or "a1" not in args:
            fail(f"{where}: args.a0/args.a1 missing")
    print(f"{path}: OK ({len(events)} events, "
          f"{other['dropped_events']} dropped)")


def check_metrics(doc, path):
    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
    for key in ("metrics", "slices"):
        if key not in doc:
            fail(f"{path}: missing top-level key {key!r}")
    metrics = doc["metrics"]
    for family in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(family), dict):
            fail(f"{path}: metrics.{family} must be an object")
    for name in REQUIRED_HISTOGRAMS:
        hist = metrics["histograms"].get(name)
        if hist is None:
            fail(f"{path}: required histogram {name!r} missing")
        for field in HISTOGRAM_FIELDS:
            if field not in hist:
                fail(f"{path}: histogram {name}.{field} missing")
    if not isinstance(doc["slices"], list):
        fail(f"{path}: slices must be an array")
    for n, sl in enumerate(doc["slices"]):
        if "t_ms" not in sl or "counters" not in sl or "gauges" not in sl:
            fail(f"{path}: slices[{n}] missing t_ms/counters/gauges")
    print(f"{path}: OK ({len(metrics['counters'])} counters, "
          f"{len(metrics['histograms'])} histograms, "
          f"{len(doc['slices'])} slices)")


# -------------------------------------------------------------- summary

def summarize(doc):
    events = doc.get("traceEvents", [])
    threads = {}
    spans = {name: [] for name in SPAN_NAMES}
    shards = {}   # shard -> dict(claims, jobs, stolen_batches, stolen_jobs)
    steals = []
    span_total = 0
    instant_total = 0
    t_lo, t_hi = None, None

    for ev in events:
        ph = ev.get("ph")
        if ph == "M":
            threads[ev["tid"]] = ev["args"].get("name", f"tid {ev['tid']}")
            continue
        ts = ev["ts"]
        t_lo = ts if t_lo is None else min(t_lo, ts)
        end = ts + ev.get("dur", 0)
        t_hi = end if t_hi is None else max(t_hi, end)
        name = ev["name"]
        a0 = ev["args"]["a0"]
        a1 = ev["args"]["a1"]
        if ph == "X":
            span_total += 1
            spans.setdefault(name, []).append(ev["dur"])
            if name == "claim":
                entry = shards.setdefault(a1, dict(claims=0, jobs=0,
                                                   stolen_batches=0,
                                                   stolen_jobs=0))
                entry["claims"] += 1
                entry["jobs"] += a0
        else:
            instant_total += 1
            if name == "steal":
                steals.append((ts, a0, a1))
                entry = shards.setdefault(a1, dict(claims=0, jobs=0,
                                                   stolen_batches=0,
                                                   stolen_jobs=0))
                entry["stolen_batches"] += 1
                entry["stolen_jobs"] += a0

    wall_us = (t_hi - t_lo) if (t_lo is not None and t_hi is not None) else 0
    print(f"trace: {span_total} spans, {instant_total} instants over "
          f"{len(threads)} threads, {wall_us / 1e6:.3f} s span")
    print(f"dropped events: "
          f"{doc.get('otherData', {}).get('dropped_events', 0)}")

    print("\nper-stage latency (us):")
    print(f"  {'stage':<12} {'count':>8} {'p50':>10} {'p95':>10} "
          f"{'p99':>10} {'max':>10} {'total':>12}")
    for name in SPAN_NAMES:
        vals = sorted(spans.get(name, []))
        if not vals:
            continue
        print(f"  {name:<12} {len(vals):>8} {quantile(vals, 0.5):>10.1f} "
              f"{quantile(vals, 0.95):>10.1f} {quantile(vals, 0.99):>10.1f} "
              f"{vals[-1]:>10.1f} {sum(vals):>12.0f}")

    # Occupancy: fraction of the trace wall span each worker spent
    # inside feed/decode/repost/task spans (claim spans cover the wait
    # *for* work, so they are the idle side of the ledger).
    busy = {}
    for ev in events:
        if ev.get("ph") == "X" and ev["name"] in ("feed", "decode",
                                                  "repost", "task"):
            busy[ev["tid"]] = busy.get(ev["tid"], 0) + ev["dur"]
    if busy and wall_us > 0:
        print("\nworker occupancy (busy / trace span):")
        for tid in sorted(busy):
            label = threads.get(tid, f"tid {tid}")
            print(f"  {label:<12} {100.0 * busy[tid] / wall_us:>6.1f}%  "
                  f"({busy[tid] / 1e6:.3f} s busy)")

    if shards:
        print("\nper-shard activity:")
        print(f"  {'shard':>5} {'claims':>8} {'jobs':>8} "
              f"{'stolen batches':>15} {'stolen jobs':>12}")
        for shard in sorted(shards):
            e = shards[shard]
            print(f"  {shard:>5} {e['claims']:>8} {e['jobs']:>8} "
                  f"{e['stolen_batches']:>15} {e['stolen_jobs']:>12}")

    if steals:
        print(f"\nsteal timeline ({len(steals)} steals):")
        for ts, jobs, victim in sorted(steals):
            print(f"  t={ts / 1e3:>10.3f} ms  {jobs:>4} jobs from "
                  f"shard {victim}")


def main():
    ap = argparse.ArgumentParser(
        description="Summarize or validate decode-service trace exports.")
    ap.add_argument("trace", help="Perfetto/chrome-tracing JSON file")
    ap.add_argument("--check", action="store_true",
                    help="validate the schema instead of summarizing")
    ap.add_argument("--metrics", metavar="FILE",
                    help="with --check: also validate a metrics "
                         "snapshot from --metrics-out")
    args = ap.parse_args()

    doc = load(args.trace)
    if args.check:
        check_trace(doc, args.trace)
        if args.metrics:
            check_metrics(load(args.metrics), args.metrics)
    else:
        summarize(doc)


if __name__ == "__main__":
    main()
