#!/usr/bin/env python3
"""Two-clock benchmark of the Beldi reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload profile-knee --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` runs the workload's measured rounds untraced and prints
the end-to-end metrics: virtual-clock latency, goodput and $ (pure
functions of the seed) and host-clock cost (CPU seconds, repeated and
reported as medians). ``--trace 1`` runs round 0 twice, untraced and
then under the outside-in layer tracer (``layertrace.py``), checks the
two agree bit for bit, and prints the per-layer metrics.

Every run checks the program's outputs (see ``workloads.py``), prints a
host record, writes the full result (and, traced, the spans) under
``.perfbench-out/``, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``perfbench/README.md`` for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

#: Set-up is measured at least this many times per run.
MIN_SETUPS = 9
#: Measured window of the two identical rounds of the seed self-check.
SELF_CHECK_MS = 2_000.0
#: Pooled measured completions needed, so >= 10 samples lie beyond p99.
MIN_COMPLETIONS = 1_000
#: Traced self times must sum to the traced run's process CPU this well.
SELF_TIME_TOLERANCE = 0.05


def percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile, as ``LatencyRecorder.percentile``."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def pin_to_one_cpu():
    """Run on one CPU. The kernel runs one pooled thread at a time and
    hands the baton thread to thread; unpinned, each handoff can wake a
    thread on the other CPU, which cost ~1.7x the CPU per request and
    varied with what else that CPU was doing."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def to_reference(cpu_s: float, reference: float) -> float:
    """Host CPU seconds in reference seconds (see ``hostinfo``)."""
    from hostinfo import REFERENCE_S
    return cpu_s * REFERENCE_S / reference


def host_rate(run) -> float:
    """Completed requests per reference CPU second of a round's run."""
    return run.completed_all / to_reference(run.run_cpu_s, run.reference_s)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def seed_self_check(wl, seed: int) -> list[str]:
    """The seed drives the inputs: same seed, same run; new seed, new
    arrivals."""
    from workloads import arrivals_for, round_seed, run_round
    problems = []
    first = round_seed(seed, 0)
    if arrivals_for(wl, first) == arrivals_for(wl, round_seed(seed + 1, 0)):
        problems.append("seed self-check: another seed gave the same "
                        "arrivals")
    runs = [run_round(wl, first, measured_ms=SELF_CHECK_MS)
            for _ in range(2)]
    if runs[0].virtual() != runs[1].virtual():
        problems.append("seed self-check: the same seed gave different "
                        "virtual results")
    for run in runs:
        problems += [f"seed self-check: {p}" for p in run.problems]
    return problems


def end_to_end(wl, seed: int, seconds: float) -> tuple[dict, dict]:
    from workloads import round_seed, run_round, setup_only
    started = time.perf_counter()
    problems = seed_self_check(wl, seed)
    rounds = []
    for index in range(wl.rounds):
        run = run_round(wl, round_seed(seed, index))
        problems += [f"round {index}: {p}" for p in run.problems]
        rounds.append(run)
    host_rates = [host_rate(r) for r in rounds]
    setups = [to_reference(r.setup_cpu_s, r.reference_s) for r in rounds]
    while len(setups) < MIN_SETUPS:
        setups.append(to_reference(
            *setup_only(wl, round_seed(seed, len(setups)))))
    # Time left over buys more host samples; each repeat must reproduce
    # its round's virtual results exactly.
    round_wall = statistics.median(r.run_wall_s for r in rounds)
    repeats = 0
    while time.perf_counter() - started + round_wall <= seconds:
        base = rounds[repeats % len(rounds)]
        again = run_round(wl, base.seed)
        if again.virtual() != base.virtual():
            problems.append(f"repeat of round {repeats % len(rounds)} "
                            f"diverged from its first run")
        host_rates.append(host_rate(again))
        repeats += 1

    samples = [s for r in rounds for s in r.samples]
    completed = sum(r.completed for r in rounds)
    offered = sum(r.offered for r in rounds)
    failed = sum(sum(r.failures.values()) for r in rounds)
    if completed < MIN_COMPLETIONS:
        problems.append(f"only {completed} measured completions "
                        f"(< {MIN_COMPLETIONS})")
    measured_s = sum(r.measured_ms for r in rounds) / 1000.0
    metrics = {
        "p50_ms": metric(percentile(samples, 50.0), "ms"),
        "p99_ms": metric(percentile(samples, 99.0), "ms"),
        "goodput_rps": metric(completed / measured_s, "1/s"),
        "ok_frac": metric(completed / offered, "frac"),
        "usd_per_kreq": metric(
            1000.0 * sum(r.dollars for r in rounds)
            / sum(r.completed_all for r in rounds), "usd"),
        "host_req_per_cpu_s": metric(statistics.median(host_rates),
                                     "1/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }
    detail = {
        "problems": problems,
        "attempted": offered,
        "failed": failed,
        "rounds": [{"seed": r.seed, "offered": r.offered,
                    "completed": r.completed, "completed_all":
                    r.completed_all, "run_cpu_s": r.run_cpu_s,
                    "run_wall_s": r.run_wall_s, "setup_cpu_s":
                    r.setup_cpu_s, "reference_s": r.reference_s,
                    "dollars": r.dollars,
                    "digest": r.digest} for r in rounds],
        "repeats": repeats,
        "host_req_per_cpu_s_samples": host_rates,
        "setup_s_samples": setups,
        "completions": completed,
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

def read_counters(runtime) -> dict:
    """Public counters of the layers, read outside the simulation."""
    res = runtime.resilience.snapshot() if runtime.resilience else {}
    store = runtime.store
    repl = getattr(store, "replication_stats", None)
    tail = runtime.tail_cache.stats
    return {
        **{f"resilience.{k}": res.get(k, 0) for k in (
            "retries", "backoff_ms", "fast_fails", "breaker_opens",
            "degraded_reads")},
        "tail_hits": tail.tail_hits,
        "tail_misses": tail.tail_misses,
        "repl.shipped": repl.shipped if repl else 0,
        "repl.eventual_reads": repl.eventual_reads if repl else 0,
        "elastic.moves": (runtime.elasticity.migrator.stats.migrations
                          if runtime.elasticity else 0),
    }


class TraceProbe:
    """Starts span recording at the first arrival, stops after the drain."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    def start(self, system) -> None:
        self.before = read_counters(system.runtime)
        self.tracer.reset()
        self.tracer.kernel = system.runtime.kernel
        self.tracer.active = True

    def stop(self, system) -> None:
        self.tracer.active = False
        runtime = system.runtime
        after = read_counters(runtime)
        self.counters = {k: after[k] - self.before[k] for k in after}
        self.counters["storage_bytes"] = runtime.store.storage_bytes()
        self.counters["peak_concurrency"] = \
            runtime.platform.stats.peak_concurrency


KV_OPS = ("get", "put", "update", "delete", "query", "scan",
          "query_index", "batch_get", "batch_write", "transact_write")
WRITE_OPS = ("put", "update", "delete", "transact_write", "batch_write")
KERNEL_CALLS = ("sleep", "wait", "spawn", "call_later")


def layer_metrics(tracer, probe, plain, traced) -> tuple[dict, dict]:
    from layertrace import GC_REQUEST, REQUEST, STORE_LAYERS
    from workloads import DURING
    per_req = max(1, traced.completed_all)
    rows = list(tracer.rows())
    layer_cpu: dict = {}
    for (_name, layer, _req, _caller), row in rows:
        layer_cpu[layer] = layer_cpu.get(layer, 0.0) + row[1]
    counters = probe.counters

    def total(pick, column=0) -> float:
        return sum(row[column] for key, row in rows if pick(*key))

    def kv_entry(op):
        return lambda name, layer, req, caller: (
            layer.startswith("kvstore.") and name.endswith(f".{op}")
            and not (caller or "").startswith("kvstore."))

    def store_call(tag):
        return lambda name, layer, req, caller: (
            req == tag and layer in STORE_LAYERS
            and caller not in STORE_LAYERS)

    commits, aborts = tracer.txn["commit"], tracer.txn["abort"]
    writes = sum(total(kv_entry(op)) for op in WRITE_OPS)
    write_fails = sum(total(kv_entry(op), 3) for op in WRITE_OPS)
    client_calls = total(
        lambda name, *_: name == "platform.BeldiRuntime.client_call")
    lookups = counters["tail_hits"] + counters["tail_misses"]
    dollars = sum(tracer.dollars.values())
    during_s = (DURING[1] - DURING[0]) * traced.measured_ms / 1000.0
    post = traced.phase_samples["post"]
    platform = traced.counters["platform"]
    metering = traced.counters["metering"]
    traced_cpu = traced.run_cpu_s
    m = {
        "workload.queued": metric(traced.counters["admission"]["queued"],
                                  "count"),
        "workload.max_queue_depth": metric(
            traced.counters["admission"]["max_queue_depth"], "count"),
        "workload.gen_late_ms": metric(tracer.gen_late_ms, "ms"),
        "workload.during.goodput_rps": metric(
            len(traced.phase_samples["during"]) / during_s, "1/s"),
        "workload.post.p99_ms": metric(
            percentile(post, 99.0) if post else 0.0, "ms"),
        "platform.invocations_per_req": metric(
            platform["invocations"] / per_req, "calls/req"),
        "platform.cold_starts": metric(platform["cold_starts"], "count"),
        "platform.peak_concurrency": metric(counters["peak_concurrency"],
                                            "count"),
        "platform.cpu_s": metric(layer_cpu.get("platform", 0.0), "s"),
        "platform.virtual_ms_per_req": metric(
            total(lambda name, *_: name ==
                  "platform.BeldiRuntime.client_call", 2)
            / max(1, client_calls), "ms"),
        "core.cpu_s": metric(layer_cpu.get("core", 0.0), "s"),
        "core.store_ops_per_req": metric(
            total(store_call(REQUEST)) / per_req, "calls/req"),
        "core.tailcache.hit_ratio": metric(
            counters["tail_hits"] / lookups if lookups else 0.0, "frac"),
        "core.txn.commits": metric(commits, "count"),
        "core.txn.aborts": metric(aborts, "count"),
        "core.txn.commit_ratio": metric(
            commits / (commits + aborts) if commits + aborts else 0.0,
            "frac"),
        "core.lock_wait_ms": metric(tracer.lock_wait_ms, "ms"),
        "core.gc.runs": metric(tracer.gc_runs, "count"),
        "core.gc.cpu_s": metric(
            total(lambda name, layer, req, caller: req == GC_REQUEST, 1),
            "s"),
        "core.gc.store_ops": metric(total(store_call(GC_REQUEST)),
                                    "count"),
        "core.gc.usd_share": metric(
            tracer.dollars.get(GC_REQUEST, 0.0) / dollars if dollars
            else 0.0, "frac"),
        "core.ic.runs": metric(tracer.ic_runs, "count"),
        "resilience.cpu_s": metric(layer_cpu.get("resilience", 0.0), "s"),
        **{f"resilience.{k}": metric(counters[f"resilience.{k}"], unit)
           for k, unit in (("retries", "count"), ("backoff_ms", "ms"),
                           ("fast_fails", "count"),
                           ("breaker_opens", "count"),
                           ("degraded_reads", "count"))},
        **{f"kvstore.ops.{op}": metric(total(kv_entry(op)), "count")
           for op in KV_OPS},
        **{f"kvstore.{sub}.cpu_s": metric(
            layer_cpu.get(f"kvstore.{sub}", 0.0), "s")
           for sub in ("route", "replica", "node", "table", "item")},
        "kvstore.item.calls_per_req": metric(
            total(lambda name, layer, *_: layer == "kvstore.item")
            / per_req, "calls/req"),
        "kvstore.read_units_per_req": metric(
            metering["read_units"] / per_req, "units/req"),
        "kvstore.write_units_per_req": metric(
            metering["write_units"] / per_req, "units/req"),
        "kvstore.cond_fail_ratio": metric(
            write_fails / writes if writes else 0.0, "frac"),
        "kvstore.repl.shipped": metric(counters["repl.shipped"], "count"),
        "kvstore.repl.eventual_reads": metric(
            counters["repl.eventual_reads"], "count"),
        "kvstore.elastic.moves": metric(counters["elastic.moves"], "count"),
        "kvstore.storage_bytes": metric(counters["storage_bytes"],
                                        "bytes"),
        "sim.cpu_s": metric(layer_cpu.get("sim", 0.0), "s"),
        "sim.events_per_req": metric(
            total(lambda name, layer, *_: layer == "sim"
                  and name.rsplit(".", 1)[-1] in KERNEL_CALLS) / per_req,
            "calls/req"),
        "sim.queue_wait_ms": metric(
            tracer.queue_wait_ms / max(1, tracer.services), "ms"),
        "sim.service_ms": metric(
            tracer.service_ms / max(1, tracer.services), "ms"),
        "sim.wall_over_cpu": metric(traced.run_wall_s / traced_cpu,
                                    "ratio"),
        "trace.overhead_frac": metric(traced_cpu / plain.run_cpu_s - 1.0,
                                      "frac"),
        "unattributed.cpu_s": metric(layer_cpu.get("unattributed", 0.0),
                                     "s"),
    }
    profile = {
        "traced_cpu_s": traced_cpu,
        "untraced_cpu_s": plain.run_cpu_s,
        "self_cpu_sum_s": sum(layer_cpu.values()),
        "self_cpu_share": {k: v / traced_cpu
                           for k, v in sorted(layer_cpu.items())},
        "spans_kept": tracer.span_count(),
        "gc_ic_dollars": {str(k): v for k, v in tracer.dollars.items()},
        "per_name": _per_name(rows),
    }
    return m, profile


def _per_name(rows) -> dict:
    by_name: dict = {}
    for (name, *_), (calls, own, _v, _f) in rows:
        row = by_name.setdefault(name, [0, 0.0])
        row[0] += calls
        row[1] += own
    top = sorted(by_name.items(), key=lambda kv: -kv[1][1])[:40]
    return {name: {"calls": c, "self_cpu_s": s} for name, (c, s) in top}


def traced_run(wl, seed: int) -> tuple[dict, dict]:
    from layertrace import LayerTracer
    from workloads import round_seed, run_round
    first = round_seed(seed, 0)
    plain = run_round(wl, first)
    tracer = LayerTracer()
    probe = TraceProbe(tracer)
    tracer.install()
    try:
        traced = run_round(wl, first, probe=probe)
    finally:
        tracer.uninstall()
    problems = ([f"untraced: {p}" for p in plain.problems]
                + [f"traced: {p}" for p in traced.problems])
    if plain.virtual() != traced.virtual():
        problems.append("tracing perturbed the simulation: virtual "
                        "results or output digest differ")
    metrics, profile = layer_metrics(tracer, probe, plain, traced)
    gap = abs(profile["self_cpu_sum_s"] - traced.run_cpu_s)
    if gap > SELF_TIME_TOLERANCE * traced.run_cpu_s:
        problems.append(f"layer self times sum to "
                        f"{profile['self_cpu_sum_s']:.3f} s, traced run "
                        f"used {traced.run_cpu_s:.3f} s of CPU")
    profile["span_dir"] = str(
        tracer.write(OUT / f"spans-{wl.name}-seed{seed}").relative_to(ROOT))
    detail = {"problems": problems, "attempted": traced.offered,
              "failed": sum(traced.failures.values()),
              "digest": traced.digest, "profile": profile}
    return metrics, detail


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hostinfo import host_record
    from workloads import WORKLOADS
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; pick from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    host = {**host_record(), "pinned_cpu": cpu}
    print("host " + json.dumps(host, sort_keys=True), flush=True)
    if args.trace:
        metrics, detail = traced_run(wl, args.seed)
    else:
        metrics, detail = end_to_end(wl, args.seed, args.seconds)
    for problem in detail["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{name:34s} {entry['value']:>16.6g} {entry['unit']}")
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "host": host, "metrics": metrics, **detail}, indent=1,
        sort_keys=True))
    print(json.dumps({"correct": not detail["problems"],
                      "attempted": detail["attempted"],
                      "failed": detail["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
