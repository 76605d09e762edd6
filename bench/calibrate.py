"""How fast the host runs, measured in the program's own interpreter.

The host gives the benchmark two cores of a shared machine whose speed for
interpreted Python drifts by as much as a factor of two, in phases lasting
from seconds to minutes, so raw times of the same code spread more from
run to run than any change worth measuring.  ``session.py`` therefore
times a fixed unit of pure-Python work in the same interpreter while it
runs the program: right after set-up, on a sampler thread once a second
while single-threaded requests run, and before and after each suite
request.  ``run.py`` scales each measured time to a reference speed by the
units taken around it:

    reported = measured * REFERENCE_S / (mean unit time around it)

A change to spanlab leaves the unit alone, so it moves the reported time
as it moves the real one; a slow phase of the host stretches both and
cancels out.  The unit is the same kind of work as the program's (tuples,
dicts, frozensets, sorting, calls and comparisons in the interpreter),
and imports nothing from spanlab.  It is timed the way the program runs:
a single unit by its CPU time, and, in a session that issues suites (which
the program runs on a pool of threads), copies at once on as many threads
by the wall clock, so that the hand-offs of the interpreter lock count as
they do for the program.
Changing the unit or ``REFERENCE_S`` changes every reported time; do it
only in a change that measures the baseline again.
"""
from __future__ import annotations

import gc
import os
import sys
import threading
from itertools import product
from statistics import mean
from time import monotonic, thread_time

# The unit's CPU time in a middling phase of the 2-core host that the
# figures in README.md come from, so reported times are close to seconds.
REFERENCE_S = 0.050
# The interpreter's switch interval while a Sampler runs: well above a
# unit's length, so that a unit is not cut into 5 ms slices.
SAMPLER_SWITCH_S = 0.25


def _chain_maps(n: int, m: int) -> int:
    """Monotone maps from the intervals of [n] of length at most one,
    ordered by reverse containment, into the chain 0 < ... < m-1, by
    brute force over every map."""
    cells = [(i, j) for i in range(n + 1) for j in range(i, min(i + 1, n) + 1)]
    order = [
        (a, b)
        for a, (i, j) in enumerate(cells)
        for b, (i2, j2) in enumerate(cells)
        if a != b and i <= i2 and j2 <= j
    ]
    count = 0
    for values in product(range(m), repeat=len(cells)):
        if all(values[a] <= values[b] for a, b in order):
            count += 1
    return count


def _tables(rounds: int) -> int:
    """Build, sort and regroup small tables of tuples and frozensets.  A
    table stays near half a MiB, well under what a request allocates, so
    the units leave the session's peak resident set alone."""
    total = 0
    for r in range(rounds):
        table = {}
        for i in range(500):
            key = (i % 97, i // 97, r)
            table[key] = [key, (i, r), frozenset((i % 7, i % 11))]
        rows = sorted(table.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        total += len(rows) + len({row[2] for _, row in rows})
    return total


def unit() -> int:
    return _chain_maps(4, 3) + _chain_maps(3, 4) + _tables(48)


def unit_cpu_s() -> float:
    """The CPU time of one unit, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = thread_time()
        unit()
        return thread_time() - start
    finally:
        if enabled:
            gc.enable()


def units_s(count: int, threads: int = 1) -> list[float]:
    """count unit times.  With one thread, each is one unit's CPU time.
    With several, each is the wall time of as many copies of the unit run
    at once on as many threads, over the number of copies: under the
    interpreter lock that is what a thread pool pays per unit of work, the
    hand-offs of the lock between threads on different CPUs included."""
    if threads == 1:
        return [unit_cpu_s() for _ in range(count)]
    out = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(count):
            pool = [threading.Thread(target=unit) for _ in range(threads)]
            start = monotonic()
            for t in pool:
                t.start()
            for t in pool:
                t.join()
            out.append((monotonic() - start) / threads)
    finally:
        if enabled:
            gc.enable()
    return out


def _last_cpu(tid: int) -> int:
    """The CPU a thread of this process last ran on (field 39 of its stat)."""
    with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


class Sampler:
    """Times a unit on a thread of its own every ``every`` seconds while a
    single-threaded program runs, as (start, end, CPU time) by the
    monotonic clock.  Each unit runs on the CPU that the creating (main)
    thread last ran on, since the two CPUs of the host drift apart in
    speed; the program itself is never pinned.  While the sampler runs, the
    interpreter's switch interval is raised above a unit's length, so a
    unit runs whole instead of in slices between which the program's work
    would evict its data from the cache; with no other thread in the
    program that changes nothing else.  Each unit delays the program by
    about its own length.  The collector, which the program shares, is
    left alone."""

    def __init__(self, every: float):
        self.every = every
        self.samples: list[tuple[float, float, float]] = []
        self._main = threading.get_native_id()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        allowed = os.sched_getaffinity(0)
        while not self._stop.wait(self.every):
            os.sched_setaffinity(0, {_last_cpu(self._main)})
            start, cpu = monotonic(), thread_time()
            unit()
            self.samples.append((start, monotonic(), thread_time() - cpu))
            os.sched_setaffinity(0, allowed)

    def __enter__(self) -> "Sampler":
        self._switch = sys.getswitchinterval()
        sys.setswitchinterval(SAMPLER_SWITCH_S)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._switch)


def sampled_around(samples, start: float, end: float, min_window: float) -> list[float]:
    """CPU times of the sampled units that overlap [start, end], widened
    evenly to min_window seconds; the nearest unit when none does."""
    pad = max(0.0, (min_window - (end - start)) / 2)
    inside = [cpu for s, e, cpu in samples if e > start - pad and s < end + pad]
    if inside:
        return inside
    mid = (start + end) / 2
    return [min(samples, key=lambda x: abs((x[0] + x[1]) / 2 - mid))[2]]


def at_reference_speed(seconds: float, *units: list[float]) -> float:
    """A measured time scaled to the reference speed by the unit times
    taken around it."""
    return seconds * REFERENCE_S / mean(u for point in units for u in point)
