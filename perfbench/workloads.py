"""The three open-loop workloads, one measured round each, and their checks.

A *round* builds a fresh runtime from a round seed, drives one Poisson
open-loop arrival stream through it, and returns everything the metrics
and output checks need. Rounds of one run are independent systems; the
run pools their measured windows (see ``run.py``).

Every workload is fully determined by its round seed: arrivals come from
``RandomSource(seed, "perfbench/<workload>/arrivals")``, payloads from
``run_open_loop``'s request stream seeded with the same seed, and store /
platform latencies from the runtime seed.
"""

from __future__ import annotations

import gc
import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.apps import build_app
from repro.bench import fig_open_loop, fig_resilience
from repro.core import BeldiConfig, BeldiRuntime
from repro.core import daal
from repro.kvstore import FaultTimeline
from repro.platform import PlatformConfig
from repro.sim.randsrc import RandomSource
from repro.workload import OpenLoopConfig, poisson_arrivals, run_open_loop

from hostinfo import reference_s

#: Phase boundaries inside each round's measured window, as fractions of
#: it. On ``profile-outage`` shard 0 is dark for exactly ``[DURING)``;
#: the other workloads use the same slices so phase metrics compare.
DURING = (0.25, 0.45)


@dataclass(frozen=True)
class Workload:
    name: str
    rate_rps: float
    #: Measured virtual window of one round (ms), after ``warmup_ms``.
    measured_ms: float
    #: Rounds per run. Fixed, so the virtual metrics of a run are a pure
    #: function of ``--seed``.
    rounds: int
    warmup_ms: float
    max_in_flight: int
    max_queue: int


WORKLOADS = {
    w.name: w for w in (
        Workload("profile-knee", rate_rps=150.0, measured_ms=10_000.0,
                 rounds=16, warmup_ms=1_000.0,
                 max_in_flight=fig_open_loop.MAX_IN_FLIGHT,
                 max_queue=fig_open_loop.MAX_QUEUE),
        Workload("travel-txn", rate_rps=30.0, measured_ms=14_000.0,
                 rounds=4, warmup_ms=1_000.0,
                 max_in_flight=256, max_queue=512),
        Workload("profile-outage", rate_rps=60.0, measured_ms=20_000.0,
                 rounds=10, warmup_ms=1_000.0,
                 max_in_flight=fig_resilience.MAX_IN_FLIGHT,
                 max_queue=fig_resilience.MAX_QUEUE),
    )
}

#: Travel topology: 2 shards x 2 replicas at service capacity 8, eventual
#: follower reads, every default flag on, IC+GC every 10 s with gc_t 5 s.
TRAVEL_SHARDS = 2
TRAVEL_REPLICAS = 2
TRAVEL_CAPACITY = 8
TRAVEL_COLLECTOR_PERIOD_MS = 10_000.0
TRAVEL_GC_T_MS = 5_000.0


def round_seed(seed: int, index: int) -> int:
    """Seed of round ``index`` of a run started with ``--seed seed``."""
    return seed * 1_000 + index


def arrivals_for(workload: Workload, seed: int,
                 measured_ms: Optional[float] = None) -> list[float]:
    horizon = workload.warmup_ms + (measured_ms or workload.measured_ms)
    return poisson_arrivals(
        workload.rate_rps, horizon,
        RandomSource(seed, f"perfbench/{workload.name}/arrivals"))


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

@dataclass
class System:
    """A built runtime plus what the checks need to read back."""

    runtime: BeldiRuntime
    entry: str
    sample: Callable[..., Any]
    app: Any = None


def build(workload: Workload, seed: int,
          measured_ms: Optional[float] = None) -> System:
    """Build the runtime, install the app and seed its data."""
    measured = measured_ms or workload.measured_ms
    if workload.name == "profile-knee":
        runtime, entry, sample = fig_open_loop.build_runtime(seed)
        return System(runtime, entry, sample)
    if workload.name == "profile-outage":
        start = workload.warmup_ms + DURING[0] * measured
        end = workload.warmup_ms + DURING[1] * measured
        timeline = FaultTimeline().outage(start, end, shards=0)
        runtime, entry, sample = fig_resilience.build_runtime(
            seed, resilience=True, timeline=timeline)
        return System(runtime, entry, sample)
    runtime = BeldiRuntime(
        seed=seed, latency_scale=1.0,
        config=BeldiConfig(gc_t=TRAVEL_GC_T_MS),
        platform_config=PlatformConfig(concurrency_limit=400),
        shards=TRAVEL_SHARDS, replicas=TRAVEL_REPLICAS,
        shard_capacity=TRAVEL_CAPACITY, read_consistency="eventual")
    app = build_app("travel", seed=seed)
    app.install(runtime)
    runtime.start_collectors(ic_period=TRAVEL_COLLECTOR_PERIOD_MS,
                             gc_period=TRAVEL_COLLECTOR_PERIOD_MS)
    return System(runtime, app.entry, app.sample_request, app)


def teardown(system: System) -> None:
    """Stop the system and wait for all its worker threads to exit, so
    that neither their exit nor their memory is billed to whatever is
    measured next."""
    runtime = system.runtime
    kernel = runtime.kernel
    if runtime.collector_handles:
        # Timer loops sleep a whole period before they see the stop flag.
        runtime.stop_collectors()
        kernel.run(until=kernel.now + TRAVEL_COLLECTOR_PERIOD_MS + 1.0)
    threads = [worker.thread for worker in kernel._idle_workers]
    kernel.shutdown()
    for thread in threads:
        thread.join()
    gc.collect()


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------

@dataclass
class Round:
    """Everything one measured round produced."""

    seed: int
    measured_ms: float
    #: Latencies (virtual ms, from intended arrival) of measured
    #: completions, and per-phase slices of them.
    samples: list
    phase_samples: dict
    offered: int
    completed: int
    failures: Counter
    #: Completions over the whole round, warm-up included, and the
    #: metered store dollars they cost (background GC/IC included).
    completed_all: int
    dollars: float
    setup_cpu_s: float
    run_cpu_s: float
    run_wall_s: float
    #: The reference loop's CPU seconds: the mean of its timings right
    #: before set-up and right after the run.
    reference_s: float
    digest: str
    problems: list = field(default_factory=list)
    #: Counters read back after the run (per-layer metrics use them).
    counters: dict = field(default_factory=dict)

    def virtual(self) -> dict:
        """The round's virtual-clock outputs (the determinism contract)."""
        return {
            "samples": self.samples,
            "offered": self.offered,
            "completed": self.completed,
            "completed_all": self.completed_all,
            "failures": dict(sorted(self.failures.items())),
            "dollars": self.dollars,
            "digest": self.digest,
        }


class _Capture:
    """Wraps ``runtime.client_call``: digests every call and checks
    each response as it arrives."""

    def __init__(self, system: System) -> None:
        self.system = system
        self.hash = hashlib.sha256()
        self.issued: Counter = Counter()
        self.ok = 0
        self.max_visits: Counter = Counter()
        self.confirmed = 0
        self.problems: list[str] = []
        runtime = system.runtime
        inner = runtime.client_call
        kernel = runtime.kernel

        def client_call(ssf_name, payload=None):
            user = (payload or {}).get("user")
            if user is not None:
                self.issued[user] += 1
            try:
                out = inner(ssf_name, payload)
            except BaseException as exc:
                self.hash.update(
                    f"{kernel.now!r}|{payload!r}|!{type(exc).__name__}\n"
                    .encode())
                raise
            self.hash.update(f"{kernel.now!r}|{payload!r}|{out!r}\n"
                             .encode())
            self.ok += 1
            self._check(payload, out)
            return out

        runtime.client_call = client_call

    def _check(self, payload: dict, out: Any) -> None:
        if self.system.app is None:
            user = payload["user"]
            if not isinstance(out, dict) or out.get("user") != user:
                self._problem(f"profile response {out!r} does not echo "
                              f"user {user!r}")
                return
            self.max_visits[user] = max(self.max_visits[user],
                                        out["visits"])
        elif payload["action"] == "reserve" and out.get("ok"):
            self.confirmed += 1

    def _problem(self, text: str) -> None:
        if len(self.problems) < 5:
            self.problems.append(text)


def run_round(workload: Workload, seed: int,
              measured_ms: Optional[float] = None,
              probe: Any = None) -> Round:
    """Set up, drive one arrival stream, check the outputs.

    ``probe.start(system)`` runs after set-up, right before the first
    arrival, and ``probe.stop(system)`` right after the drain, before the
    checks read the store back (the traced pass records spans between
    the two and reads the layers' public counters in ``stop``).
    """
    measured = measured_ms or workload.measured_ms
    reference = reference_s()
    cpu0 = time.process_time()
    system = build(workload, seed, measured)
    setup_cpu = time.process_time() - cpu0
    runtime = system.runtime
    capture = _Capture(system)
    arrivals = arrivals_for(workload, seed, measured)
    config = OpenLoopConfig(max_in_flight=workload.max_in_flight,
                            policy="queue", max_queue=workload.max_queue,
                            warmup_ms=workload.warmup_ms)
    platform_before = _platform_counters(runtime)
    metering_before = _metering_totals(runtime)
    if probe is not None:
        probe.start(system)
    cpu1, wall1 = time.process_time(), time.perf_counter()
    result = run_open_loop(runtime, system.entry, system.sample, arrivals,
                           config=config, seed=seed,
                           offered_rps=workload.rate_rps,
                           duration_ms=measured)
    run_cpu = time.process_time() - cpu1
    run_wall = time.perf_counter() - wall1
    if probe is not None:
        probe.stop(system)
    reference = (reference + reference_s()) / 2.0
    metering_after = _metering_totals(runtime)
    recorder = result.recorder
    failures = Counter({k: v for k, v in recorder.outcomes.items()
                        if k != "ok"})
    phases = {
        "pre": recorder.window(0.0, DURING[0] * measured),
        "during": recorder.window(DURING[0] * measured,
                                  DURING[1] * measured),
        "post": recorder.window(DURING[1] * measured, measured),
    }
    counters = {
        "platform": _diff(_platform_counters(runtime), platform_before),
        "metering": _diff(metering_after, metering_before),
        "admission": {"queued": result.admission.queued,
                      "max_queue_depth": result.admission.max_queue_depth},
    }
    capture.hash.update(repr(sorted(metering_after.items())).encode())
    round_ = Round(
        seed=seed, measured_ms=measured,
        samples=list(recorder.samples),
        phase_samples={name: list(sub.samples)
                       for name, sub in phases.items()},
        offered=result.offered, completed=result.completed,
        failures=failures, completed_all=capture.ok,
        dollars=metering_after["dollars"] - metering_before["dollars"],
        setup_cpu_s=setup_cpu, run_cpu_s=run_cpu, run_wall_s=run_wall,
        reference_s=reference, digest="", counters=counters)
    round_.problems = capture.problems + _check_outputs(
        system, capture, round_)
    round_.digest = capture.hash.hexdigest()
    teardown(system)
    return round_


def setup_only(workload: Workload, seed: int) -> tuple[float, float]:
    """CPU seconds to build, install and seed one system (then discard),
    and the reference loop's CPU seconds timed right before."""
    reference = reference_s()
    cpu0 = time.process_time()
    system = build(workload, seed)
    spent = time.process_time() - cpu0
    teardown(system)
    return spent, reference


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _check_outputs(system: System, capture: _Capture,
                   round_: Round) -> list[str]:
    """Checks on the final state, after the drain (so after any heal)."""
    problems = []
    # No workload may fail a request: not the fault-free ones, and not
    # profile-outage, whose retries must ride out the dark window.
    if round_.failures:
        problems.append(f"failed requests: {dict(round_.failures)}")
    if round_.completed != round_.offered - sum(round_.failures.values()):
        problems.append(f"{round_.offered} offered but only "
                        f"{round_.completed} completed or failed")
    runtime = system.runtime
    if system.app is None:
        env = runtime.ssfs["profile"].env
        users = set(capture.issued) | set(capture.max_visits)
        for user in sorted(users):
            visits = (env.peek("profiles", user) or {}).get("visits", 0)
            issued = capture.issued[user]
            if visits > issued or capture.max_visits[user] > issued:
                problems.append(
                    f"{user}: {visits} visits (response max "
                    f"{capture.max_visits[user]}) from {issued} requests")
                break
    else:
        app = system.app
        rooms, seats = app.capacity_remaining()
        rooms_used = app.n_hotels * app.rooms_per_hotel - rooms
        seats_used = app.n_flights * app.seats_per_flight - seats
        bookings_env = app.envs["reserve"]
        bookings = len(daal.all_keys(bookings_env.store,
                                     bookings_env.data_table("bookings")))
        if not rooms_used == seats_used == bookings:
            problems.append(f"rooms used {rooms_used}, seats used "
                            f"{seats_used}, bookings {bookings}")
        if capture.confirmed > bookings:
            problems.append(f"{capture.confirmed} confirmed reservations "
                            f"but {bookings} bookings")
    return problems


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

def _platform_counters(runtime) -> dict:
    stats = runtime.platform.stats
    return {"invocations": stats.invocations,
            "cold_starts": stats.cold_starts}


def _metering_totals(runtime) -> dict:
    metering = runtime.store.metering
    return {"dollars": metering.dollar_cost(),
            "read_units": metering.total("read_units"),
            "write_units": metering.total("write_units"),
            "requests": metering.op_count}


def _diff(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}
