"""Host record printed with every result, and the reference host clock.

On a shared host the CPU time a fixed piece of work costs drifts: slow
and fast phases last tens of seconds to minutes. Measured on a 2-vCPU
Xeon host, the simulator's CPU per request moved by up to 1.8x between
phases. Host CPU is therefore also measured in *reference seconds*. Before and
after each round the benchmark times a fixed reference loop, and scales
the round's CPU by ``REFERENCE_S / the loop's mean CPU``. The loop
passes a baton between threads through semaphores and does heap, dict
and string work on every turn, which is the same mix as the simulation
kernel. On that host, for groups of ten rounds, this cut the spread of
the per-request CPU from 0.19 to 0.08 and of set-up CPU from 0.36 to
0.08.
"""

from __future__ import annotations

import heapq
import os
import platform
import statistics
import threading
import time

CALIBRATION_TRIALS = 7
#: Reference-loop trials per timing (their mean is used).
REFERENCE_TRIALS = 2
#: CPU seconds of one reference trial on the uncontended 2-vCPU Xeon
#: host (CPython 3.11.7, pinned to one CPU). One CPU second measured
#: next to a trial that took ``t`` counts as ``REFERENCE_S / t``
#: reference seconds.
REFERENCE_S = 0.04


def _calibration_trial() -> float:
    """CPU seconds for a fixed pure-Python mix (dicts, strings, ints)."""
    start = time.process_time()
    table: dict = {}
    acc = 0
    for i in range(120_000):
        key = f"k{i % 997}"
        table[key] = table.get(key, 0) + i
        acc ^= hash(key) & 0xFFFF
    ordered = sorted(table.items(), key=lambda kv: kv[1])
    acc += len(ordered)
    del acc
    return time.process_time() - start


def calibration_s() -> float:
    """Median of several trials: single short trials spread widely."""
    return statistics.median(_calibration_trial()
                             for _ in range(CALIBRATION_TRIALS))


def _reference_trial(handoffs: int = 2_000, threads: int = 8) -> float:
    """CPU seconds for a fixed baton-passing loop shaped like the kernel."""
    turns = [threading.Semaphore(0) for _ in range(threads)]
    done = threading.Semaphore(0)
    left = [handoffs]
    heap: list = []
    table: dict = {}

    def worker(index: int) -> None:
        following = turns[(index + 1) % threads]
        while True:
            turns[index].acquire()
            if left[0] <= 0:
                following.release()
                return
            left[0] -= 1
            n = left[0]
            for j in range(12):
                heapq.heappush(heap, (n * 7 + j) % 1009)
                key = f"k{(n + j) % 257}"
                table[key] = {"v": table.get(key, {"v": 0})["v"] + 1,
                              "w": [j, n]}
            for _ in range(12):
                heapq.heappop(heap)
            if left[0] <= 0:
                done.release()
            following.release()

    pool = [threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(threads)]
    for thread in pool:
        thread.start()
    start = time.process_time()
    turns[0].release()
    done.acquire()
    spent = time.process_time() - start
    for thread in pool:
        thread.join()
    return spent


def reference_s() -> float:
    """CPU seconds of the reference loop right now (mean of trials)."""
    return statistics.fmean(_reference_trial()
                            for _ in range(REFERENCE_TRIALS))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record() -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "cpu_model": cpu_model(),
        "calibration_s": round(calibration_s(), 6),
        "calibration_trials": CALIBRATION_TRIALS,
        "reference_s": round(reference_s(), 6),
        "reference_nominal_s": REFERENCE_S,
    }
