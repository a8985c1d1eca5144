#!/usr/bin/env python3
"""End-to-end CEPR benchmark: one workload, one seed, one timed run.

    python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds cepr_e2e (e2e_bench/CMakeLists.txt, which compiles the library from
src/) into $CARGO_TARGET_DIR (default .bench_build) under the checkout, runs
it, and prints the metrics: human-readable lines, then one JSON object as the
last line. --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics (span statistics, the engine's own counters, tracing overhead).
Exits non-zero without a result if the build or cepr_e2e fails, and with a
result marked "correct": false if any ranked output differs from its
reference. See e2e_bench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stock_rank", "tenant_churn", "fork_dag", "wire_sharded")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds cepr_e2e; returns its path or None."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2e_bench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log(f"run.py: cannot run {cmd[0]}: {e}")
            return None, build_dir
        if done.returncode != 0:
            log(f"run.py: build step failed: {' '.join(cmd)}")
            return None, build_dir
    return os.path.join(build_dir, "cepr_e2e"), build_dir


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def rate(reps):
    """Events ingested / wall time, over all the given repetitions."""
    return ratio(sum(r["events"] for r in reps), sum(r["ingest_wall_s"] for r in reps))


def end_to_end(raw):
    """The user-facing metrics, pooled over the untraced repetitions: the
    ingest rate over all of them, latency percentiles over all their
    results, and the median set-up time."""
    reps = [r for r in raw["reps"] if not r["traced"]]
    return {
        "events_per_s": (rate(reps), "events/s"),
        "result_latency_p50_us": (raw["latency"]["p50_us"], "us"),
        "result_latency_p99_us": (raw["latency"]["p99_us"], "us"),
        "setup_s": (median([t for r in raw["reps"] for t in r["setups_s"]]), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(raw):
    """Layer metrics: span statistics of the traced repetitions, counters
    from the engine's metrics snapshot of the last traced repetition."""
    traced = [r for r in raw["reps"] if r["traced"]]
    untraced = [r for r in raw["reps"] if not r["traced"]]
    n_traced = max(1, len(traced))
    spans = raw["spans"]
    snap = raw["snapshot"] or {}
    queries = [q["metrics"] for q in snap.get("queries", [])]
    matcher = [q["matcher"] for q in queries]
    events = snap.get("events_ingested", 0)
    sharing = snap.get("sharing", {})
    durability = snap.get("durability", {})
    reorder = snap.get("reorder", {})
    shards = snap.get("shards", [])
    shard_events = [s["events"] for s in shards]

    def msum(key):
        return sum(m[key] for m in matcher)

    def qsum(key):
        return sum(q[key] for q in queries)

    last = traced[-1] if traced else {}
    frame = spans["frame"]
    m = {
        # runtime ingest
        "ingest.busy_s": (spans["ingest"]["total_s"] / n_traced, "s"),
        "ingest.call_p99_us": (spans["ingest"]["p99_us"], "us"),
        "finish_ms": (spans["finish"]["p50_us"] / 1e3, "ms"),
        "reorder.events_reordered": (reorder.get("events_reordered", 0), "count"),
        "reorder.buffer_peak": (reorder.get("reorder_buffer_peak", 0), "count"),
        # engine matcher
        "matcher.runs_cloned_per_event": (ratio(msum("runs_cloned"), events), "ratio"),
        "matcher.binding_nodes_per_event":
            (ratio(msum("binding_nodes_allocated"), events), "ratio"),
        "matcher.peak_active_runs": (msum("peak_active_runs"), "count"),
        "matcher.predcache_hit_ratio":
            (ratio(msum("predcache_hits"),
                   msum("predcache_hits") + msum("predcache_misses")), "ratio"),
        # engine predicate index / shared evaluation
        "predindex.candidates_per_probe":
            (ratio(sharing.get("predindex_candidates", 0),
                   sharing.get("predindex_probes", 0)), "ratio"),
        "predindex.batch_scan_share":
            (ratio(sharing.get("batch_scan_events", 0),
                   sharing.get("predindex_probes", 0)), "ratio"),
        "sharing.live_templates": (sharing.get("live_templates", 0), "count"),
        # plan / lang through runtime
        "deploy_us_p50": (spans["deploy"]["p50_us"], "us"),
        "undeploy_us_p50": (spans["undeploy"]["p50_us"], "us"),
        # engine match DAG
        "dag.nodes_per_event": (ratio(msum("dag_nodes_allocated"), events), "ratio"),
        "dag.shared_ratio":
            (ratio(msum("dag_nodes_shared"), msum("dag_nodes_allocated")), "ratio"),
        "dag.peak_nodes": (max([m["peak_dag_nodes"] for m in matcher] or [0]), "count"),
        # rank
        "rank.prune_ratio": (ratio(qsum("prunes"), qsum("prune_checks")), "ratio"),
        "rank.enumerated_per_result":
            (ratio(qsum("matches_enumerated"), qsum("results")), "ratio"),
        "rank.enumeration_cutoffs": (qsum("enumeration_cutoffs"), "count"),
        # net
        "net.frame_rtt_p50_us": (frame["p50_us"], "us"),
        "net.frame_rtt_tail_us": (frame["tail_us"], "us"),
        "net.frames": (frame["count"], "count"),
        "net.bytes_per_event":
            (ratio(last.get("request_bytes", 0), last.get("events", 0)), "bytes"),
        "net.result_frames": (last.get("result_frames", 0), "count"),
        # sharded runtime and rank merge
        "shard.imbalance":
            (ratio(max(shard_events), statistics.mean(shard_events))
             if shard_events else 0.0, "ratio"),
        "shard.enqueue_stalls": (sum(s["enqueue_stalls"] for s in shards), "count"),
        "shard.stall_us": (sum(s["stall_us"] for s in shards), "us"),
        "merge.windows_merged": (snap.get("merge", {}).get("windows_merged", 0), "count"),
        # runtime durability
        "wal.records_appended": (durability.get("wal_records_appended", 0), "count"),
        "checkpoint.bytes": (durability.get("checkpoint_bytes", 0), "bytes"),
        "checkpoint_ms": (spans["checkpoint"]["p50_us"] / 1e3, "ms"),
        # tracing overhead: traced vs untraced repetitions of the same run
        "trace.events_per_s_untraced": (rate(untraced), "events/s"),
        "trace.events_per_s_traced": (rate(traced), "events/s"),
        "trace.overhead_pct":
            (100.0 * (ratio(rate(untraced), rate(traced)) - 1.0) if traced else 0.0, "%"),
    }
    # Each layer's self time per traced repetition: span duration minus the
    # time its child spans cover.
    for name, st in spans.items():
        m[f"self.{name}_s"] = (st["self_s"] / n_traced, "s")
    return m


def describe(raw, metrics, trace):
    reps = raw["reps"]
    untraced = [r for r in reps if not r["traced"]]
    print(f"workload {raw['workload']}  seed {raw['seed']}  build {raw['build_type']}"
          f"  cores {raw['cores']}  repetitions {len(reps)}"
          f" ({len(untraced)} untraced)  events/rep {reps[0]['events']}"
          f"  prepare {raw['prepare_s']:.2f} s  measured {raw['measured_s']:.2f} s")
    if not trace:
        res = [r["results"] for r in untraced]
        print(f"  pooled over {len(untraced)} repetitions; latency percentiles over"
              f" {raw['latency']['samples']} results ({min(res)}..{max(res)} per"
              f" repetition); events/s per repetition"
              f" {min(r['events'] / r['ingest_wall_s'] for r in untraced):.0f}.."
              f"{max(r['events'] / r['ingest_wall_s'] for r in untraced):.0f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:16.6g} {unit}")
    if trace:
        frame = raw["spans"]["frame"]
        print(f"  frame RTT tail is p{100 * frame['tail_q']:g} of {frame['count']}"
              f" frames; ingest call p99 of {raw['spans']['ingest']['count']} calls;"
              f" spans written to {raw['trace_file']}")
    error_rate = ratio(raw["failed"], raw["attempted"])
    print(f"  {'error_rate':34s} {error_rate:16.6g} ratio"
          f" ({raw['failed']} failed of {raw['attempted']} operations)")
    print(f"  correct: {raw['correct']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary, build_dir = build()
    if binary is None:
        return 2
    work_dir = os.path.join(build_dir, "work")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: cepr_e2e timed out")
        return 2
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        log(f"run.py: cepr_e2e failed with exit code {done.returncode}")
        return 2
    raw = json.loads(lines[-1])

    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    describe(raw, metrics, args.trace)
    result = {
        "correct": bool(raw["correct"]) and done.returncode == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
