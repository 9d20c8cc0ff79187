"""A clock that runs at the host's nominal speed.

The benchmark's host is a shared virtual machine whose speed drifts.
A fixed pure-Python loop, pinned to one vCPU of a 2-vCPU 2.1 GHz Xeon
VM, took anywhere from 22 to 43 ms from one two-second stretch to the
next, on both vCPUs, with the process's CPU time tracking its wall time
(so the loss is the host's, not steal or scheduling).  Measured with a
plain wall clock, every timed metric swung with it: grid-sweep's
throughput over twelve 12-second stretches of one run spread by 0.45
of its median (interquartile range over median).

So each timed operation is preceded by a *reference chunk*, fixed
pure-Python work of the program's kind (a heap event loop over small
objects and dicts), on the same CPU.  The wall time that follows is
scaled by ``REF_CHUNK_S / chunk time`` until the next chunk.  A change
to the program moves the operation's time and not the chunk's, so it
shows at full size; a change in the host's speed moves both, and
cancels.  So corrected, the same twelve stretches spread by 0.04, and
ten whole grid-sweep runs by 0.04-0.05.  Reported times are therefore
seconds of a host that runs the chunk in ``REF_CHUNK_S``; chunk time is
never counted.

Usage as a helper (serve-mix's second CPU)::

    python perfbench/hostclock.py

reads one line per chunk request on stdin and answers each with that
chunk's seconds.
"""

from __future__ import annotations

import heapq
import statistics
import sys
import time

#: Event-loop steps of one reference chunk.
CHUNK_STEPS = 3000
#: The chunk's median time on the VM the benchmark was sized on (the
#: 2.1 GHz Xeon above): the speed every reported time is scaled to.
REF_CHUNK_S = 3.2e-3


def reference_chunk(steps: int = CHUNK_STEPS) -> int:
    """Fixed work: a heap-ordered event loop over seven lanes."""
    heap = [(i * 0.5, i, i % 7) for i in range(64)]
    heapq.heapify(heap)
    lanes: dict[int, list] = {}
    for _ in range(steps):
        t, seq, lane = heapq.heappop(heap)
        rec = lanes.get(lane)
        if rec is None:
            rec = lanes[lane] = [0, 0.0]
        rec[0] += 1
        rec[1] += t * 1.0001
        step = (seq % 5 + 1) * 0.25
        heapq.heappush(heap, (t + step, seq + 64, (lane + seq) % 7))
    return sum(rec[0] for rec in lanes.values())


def chunk_seconds() -> float:
    """Wall seconds of one reference chunk on this CPU."""
    start = time.perf_counter()
    reference_chunk()
    return time.perf_counter() - start


class HostClock:
    """Seconds at nominal host speed since the clock was made.

    :meth:`tick` runs a chunk (through ``chunk``, which returns its
    seconds) and sets the scale for the wall time that follows; the
    stretch before the first tick takes the first tick's scale.
    """

    def __init__(self, chunk=chunk_seconds) -> None:
        self.chunk = chunk
        self.origin = time.perf_counter()
        self._last = self.origin
        self._elapsed = 0.0
        self._scale: "float | None" = None
        #: Seconds of every chunk run so far.
        self.chunks: list[float] = []

    def tick(self) -> None:
        now = time.perf_counter()
        took = self.chunk()
        scale = REF_CHUNK_S / took
        self._elapsed += (now - self._last) * (self._scale or scale)
        self._scale = scale
        self.chunks.append(took)
        self._last = time.perf_counter()

    def now(self) -> float:
        return self._elapsed + (time.perf_counter() - self._last) * (
            self._scale or 1.0
        )

    def wall(self) -> float:
        """Wall seconds since the clock was made, chunks included."""
        return time.perf_counter() - self.origin

    def median_chunk_ms(self) -> float:
        return 1e3 * statistics.median(self.chunks) if self.chunks else 0.0


_hooked = None


def hook_execute(clock: HostClock, on_run=None) -> None:
    """Tick ``clock`` before every simulator run (``RunSpec.execute``)
    and hand ``on_run`` each run's seconds on it."""
    global _hooked
    from repro.parallel.runspec import RunSpec

    original = RunSpec.execute

    def execute(self, *args, **kwargs):
        clock.tick()
        start = clock.now()
        try:
            return original(self, *args, **kwargs)
        finally:
            if on_run is not None:
                on_run(clock.now() - start)

    RunSpec.execute = execute
    _hooked = original


def unhook_execute() -> None:
    global _hooked
    from repro.parallel.runspec import RunSpec

    if _hooked is not None:
        RunSpec.execute = _hooked
        _hooked = None


def main() -> int:
    for _line in sys.stdin:
        print(repr(chunk_seconds()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
