"""Closed-loop measurement shared by the three workloads.

One client sends one request at a time and sends the next only when the last
has returned.  After one unmeasured warm-up round, a run repeats the
workload's fixed request list in whole rounds until ``seconds`` of loop wall
time have passed (at least ``MIN_ROUNDS``); a request's latency is the median of
its repeats, so one slow repeat does not move the percentiles.  Every output
of every round is checked; check time is kept out of the loop time.

Times are the process's CPU time (``CLOCK``), not wall time.  The loop is one
thread with numeric libraries held to one thread, and its only I/O is small
files in the page cache, so on an otherwise idle machine the two agree; on a
shared virtual machine, wall time also counts the intervals in which the
hypervisor runs other guests instead of this one (on a 2-vCPU VM a fixed
loop read 30-82 ms of wall time against 30-38 ms of CPU time).  The run
length is still wall time.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

MIN_ROUNDS = 3
SETUP_FIRST_BUILDS = 3
SETUP_FIRST_SECONDS = 0.5
SETUP_ROUND_SECONDS = 0.2
CLOCK = time.process_time


@dataclass
class Request:
    """One operation of a workload: a call into the library and its check."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def stratified(rng: np.random.Generator, lo: float, hi: float, count: int) -> np.ndarray:
    """The midpoints of ``count`` equal strata of [lo, hi), in seeded order.

    Sizes cover the continuous range evenly with no gaps between classes, and
    every seed gets the same multiset of sizes, so the size mix behind the
    percentiles does not change with the seed; the seed changes the order,
    the values and the shapes.
    """
    return lo + (hi - lo) * (rng.permutation(count) + 0.5) / count


class SetupTimer:
    """Times identical builds of the request list at points spread over a run.

    ``first`` builds at least ``SETUP_FIRST_BUILDS`` times and for at least
    ``SETUP_FIRST_SECONDS``; ``between_rounds`` adds builds for at least
    ``SETUP_ROUND_SECONDS`` after each measured round.  ``setup_s`` is the
    median of all of them, so it samples the machine over the whole run
    rather than in one burst at its start.
    """

    def __init__(self, build: Callable[[], List[Request]]):
        self.build = build
        self.times: List[float] = []

    def _timed_builds(self, count: int, seconds: float) -> List[Request]:
        requests: List[Request] = []
        spent, done = 0.0, 0
        while done < count or spent < seconds:
            requests = []  # let the previous build go before timing the next
            gc.collect()
            t0 = CLOCK()
            requests = self.build()
            self.times.append(CLOCK() - t0)
            spent += self.times[-1]
            done += 1
        return requests

    def first(self) -> List[Request]:
        return self._timed_builds(SETUP_FIRST_BUILDS, SETUP_FIRST_SECONDS)

    def between_rounds(self) -> None:
        self._timed_builds(1, SETUP_ROUND_SECONDS)

    @property
    def setup_s(self) -> float:
        return statistics.median(self.times)


class Loop:
    """Runs rounds over the request list and accumulates what they measured."""

    def __init__(self, requests: List[Request]):
        self.requests = requests
        self.latencies: List[List[float]] = [[] for _ in requests]
        self.busy = 0.0  # loop CPU time, check time excluded
        self.wall = 0.0  # loop wall time, check time excluded
        self.completed = 0
        self.attempted = 0
        self.failed = 0
        self.check_errors: List[str] = []

    def round(self) -> None:
        """One pass over every request."""
        checking = checking_wall = 0.0
        wall_start = time.perf_counter()
        start = CLOCK()
        for k, req in enumerate(self.requests):
            self.attempted += 1
            t0 = CLOCK()
            try:
                out = req.call()
            except Exception:  # counted as a failed operation; the run goes on
                self.failed += 1
                if self.failed <= 3:
                    print(f"request {k} ({req.kind}) failed:", file=sys.stderr)
                    traceback.print_exc(file=sys.stderr)
                continue
            t1, w1 = CLOCK(), time.perf_counter()
            self.latencies[k].append(t1 - t0)
            self.completed += 1
            try:
                req.check(out)
            except Exception as err:  # a wrong or malformed output
                if len(self.check_errors) < 5:
                    self.check_errors.append(
                        f"request {k} ({req.kind}): {type(err).__name__}: {err}")
            checking += CLOCK() - t1
            checking_wall += time.perf_counter() - w1
        self.busy += CLOCK() - start - checking
        self.wall += time.perf_counter() - wall_start - checking_wall

    def end_to_end(self) -> Dict[str, float]:
        per_request = [statistics.median(ls) * 1e3 for ls in self.latencies if ls]
        return {
            "throughput_rps": self.completed / self.busy,
            "latency_p50_ms": float(np.percentile(per_request, 50)),
            "latency_p90_ms": float(np.percentile(per_request, 90)),
        }


def warm_up(requests: List[Request]) -> Loop:
    """One unmeasured round: first-call costs, and the first (full) checks
    against the references, stay out of the measured loop."""
    loop = Loop(requests)
    loop.round()
    return loop


def run_loop(requests: List[Request], seconds: float,
             between_rounds: Callable[[], None] = lambda: None) -> Loop:
    loop = Loop(requests)
    gc.collect()
    rounds = 0
    while rounds < MIN_ROUNDS or loop.wall < seconds:
        loop.round()
        rounds += 1
        between_rounds()
    return loop


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result(loops: List[Loop], metrics: Dict[str, Dict[str, Any]],
           extra_errors: Sequence[str] = ()) -> Dict[str, Any]:
    """The run's result line over all its loops, the warm-up round included."""
    errors = [e for loop in loops for e in loop.check_errors] + list(extra_errors)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": metrics,
    }
