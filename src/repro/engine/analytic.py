"""Vectorized analytic replicas of the device and runtime cost models.

The DES spends its time resuming generators and churning a heap; the
*numbers* it produces, however, come from closed-form cost models
(:mod:`repro.device.compute`, :mod:`repro.device.memory`,
:class:`repro.device.spec.LinkSpec`).  This module re-expresses those
models over numpy arrays — one row per stream — so an entire partition
grid can be costed without instantiating a single simulation object:

* :func:`stream_geometry` — the partition table of
  :meth:`repro.device.topology.Topology.partitions` plus the
  device-major place distribution of
  :class:`repro.hstreams.context.StreamContext`, as arrays;
* :func:`kernel_time` / :func:`invoke_cost` — vectorized
  :meth:`~repro.device.compute.ComputeModel.kernel_time` and
  :meth:`~repro.device.mic.MicDevice.kernel_duration`;
* :class:`StreamReplay` — a lightweight action-level replay of an app's
  enqueue schedule: per-stream FIFO chains, explicit dependencies,
  dispatch and cross-device sync overheads, and one half-duplex link
  lane per device granted in request-time order (the same FIFO
  discipline as the DES's capacity-1 link resource).

The replay resolves times lazily: issuing an action returns an opaque
handle usable as a dependency, and :meth:`StreamReplay.sync_all`
settles the pending actions through a tiny time-ordered event loop
(plain floats and a heap — no generators, no trace, no metrics).  The
only divergence from the event-driven path is the tie-breaking order of
requests that land at the *same* instant; the hybrid engine's
calibration subset guards that residual (see
:mod:`repro.engine.engines`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.device.compute import KernelWork
from repro.device.spec import DeviceSpec, PHI_31SP
from repro.errors import ModelUnsupportedError, TopologyError


def check_supported(spec: DeviceSpec) -> None:
    """Reject device specs outside the analytic fast path."""
    if spec.noise_sigma > 0.0:
        raise ModelUnsupportedError(
            "analytic engine cannot reproduce seeded measurement noise "
            f"(noise_sigma={spec.noise_sigma})"
        )
    if spec.link.full_duplex:
        raise ModelUnsupportedError(
            "analytic engine models the paper's half-duplex link only"
        )


@dataclass(frozen=True)
class StreamGeometry:
    """Per-stream partition geometry over every place of a context.

    All arrays have one entry per stream (``streams_per_place == 1``, so
    streams and places coincide).
    """

    #: Device index hosting each stream.
    device: np.ndarray
    #: Hardware threads in each stream's partition.
    nthreads: np.ndarray
    #: Whether the partition time-shares a core with a neighbour.
    shares_core: np.ndarray
    #: Distinct physical cores the partition touches.
    core_span: np.ndarray

    @property
    def num_streams(self) -> int:
        return len(self.device)


def partition_table(
    count: int, spec: DeviceSpec = PHI_31SP
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(nthreads, shares_core, core_span)`` arrays replicating
    :meth:`repro.device.topology.Topology.partitions`."""
    total = spec.total_threads
    if not 1 <= count <= total:
        raise TopologyError(
            f"partition count must lie in [1, {total}], got {count}"
        )
    base, extra = divmod(total, count)
    sizes = np.full(count, base, dtype=np.int64)
    sizes[:extra] += 1
    stops = np.cumsum(sizes)
    starts = stops - sizes
    tpc = spec.threads_per_core
    core_start = starts // tpc
    core_stop = (stops - 1) // tpc
    shares = (starts % tpc != 0) | ((stops % tpc != 0) & (stops != total))
    return sizes, shares, core_stop - core_start + 1


def stream_geometry(
    places: int, num_devices: int = 1, spec: DeviceSpec = PHI_31SP
) -> StreamGeometry:
    """Geometry of every stream of ``StreamContext(places=places)``.

    Places are distributed device-major: ``places // num_devices`` per
    card, the first ``places % num_devices`` cards taking one extra —
    exactly :class:`~repro.hstreams.context.StreamContext`'s layout.
    """
    if places < num_devices:
        raise ModelUnsupportedError(
            f"need at least one place per device ({places} < {num_devices})"
        )
    per_device = [places // num_devices] * num_devices
    for i in range(places % num_devices):
        per_device[i] += 1
    device, nthreads, shares, span = [], [], [], []
    for dev, count in enumerate(per_device):
        n, s, c = partition_table(count, spec)
        device.append(np.full(count, dev, dtype=np.int64))
        nthreads.append(n)
        shares.append(s)
        span.append(c)
    return StreamGeometry(
        device=np.concatenate(device),
        nthreads=np.concatenate(nthreads).astype(np.float64),
        shares_core=np.concatenate(shares),
        core_span=np.concatenate(span),
    )


def kernel_time(
    work: KernelWork, geom: StreamGeometry, spec: DeviceSpec = PHI_31SP
) -> np.ndarray:
    """Vectorized :meth:`repro.device.compute.ComputeModel.kernel_time`:
    one entry per stream of ``geom``."""
    n = geom.nthreads
    rate = n * work.thread_rate * work.efficiency
    rate = np.where(
        geom.shares_core, rate * spec.shared_core_throughput, rate
    )
    saturation = n * spec.items_per_thread_full
    if np.isfinite(work.parallel_width):
        rate = np.where(
            work.parallel_width < saturation,
            rate * (work.parallel_width / saturation),
            rate,
        )
    if work.flops > 0:
        per_thread = work.flops / n
        rate = rate * (per_thread / (per_thread + spec.grain_half_ops))
        t_flops = work.flops / rate
    else:
        t_flops = np.zeros_like(n)
    memory_rate = spec.mem_bandwidth * n / spec.total_threads
    t_mem = work.bytes_touched / memory_rate
    t_work = np.maximum(t_flops, t_mem)
    if work.cache_sensitive:
        t_work = np.where(
            geom.core_span <= spec.cache_span_cores,
            t_work / spec.cache_span_bonus,
            t_work,
        )
    return work.serial_time + t_work


def invoke_cost(
    work: KernelWork, geom: StreamGeometry, spec: DeviceSpec = PHI_31SP
) -> np.ndarray:
    """Vectorized :meth:`repro.device.mic.MicDevice.kernel_duration`,
    *excluding* the one-off first-invocation upload (the replay adds it
    per (device, kernel-name) as the schedule unfolds)."""
    t = spec.overheads.launch + kernel_time(work, geom, spec)
    if work.temp_alloc_bytes > 0:
        alloc = spec.alloc_base + spec.alloc_per_byte * work.temp_alloc_bytes
        if work.temp_alloc_per_thread:
            alloc = alloc + spec.alloc_per_thread * geom.nthreads
        t = t + alloc
    return t


def chain_max(
    streams: np.ndarray, costs: np.ndarray, dispatch: float, num_streams: int
) -> float:
    """Longest per-stream chain ``sum(dispatch + cost)`` of a phase of
    dependency-free kernels (``streams[i]`` runs ``costs[i]``): how long
    it lasts after a global sync, before its own.  Both model paths
    close phases through this one function, bit-identically."""
    return float(
        np.bincount(
            streams, weights=costs + dispatch, minlength=num_streams
        ).max()
    )


#: Action kinds of the replay.
_MARKER, _TRANSFER, _KERNEL = 0, 1, 2

#: Event kinds of the settle loop.
_EV_START, _EV_DONE, _EV_RELEASE = 0, 1, 2


class StreamReplay:
    """Arithmetic replay of an app's enqueue schedule.

    Mirrors :meth:`repro.hstreams.action.Action._run`: an action waits
    for its stream predecessor (FIFO), then its explicit deps, pays the
    cross-device sync when any dep ran on another card, pays the
    dispatch overhead, and finally occupies the link (transfers) or the
    partition (kernels; uncontended at one stream per place).

    Issuing returns an integer handle for use in later ``deps=``; times
    settle when :meth:`sync_all` flushes the pending actions through a
    time-ordered event loop.  Each device's link lane is granted in
    request-time order, exactly the DES's FIFO resource discipline.
    """

    def __init__(
        self,
        places: int,
        spec: DeviceSpec = PHI_31SP,
        num_devices: int = 1,
    ) -> None:
        check_supported(spec)
        self.spec = spec
        self.geometry = stream_geometry(places, num_devices, spec)
        self.tails = np.zeros(self.geometry.num_streams)
        self._lane_free = [0.0] * num_devices
        self._loaded: list[set] = [set() for _ in range(num_devices)]
        self._over = spec.overheads
        #: Settled completion time per handle (None while pending).
        self._done: list[float | None] = []
        #: Hosting device per handle.
        self._handle_dev: list[int] = []
        #: Handle of the last action issued on each stream.
        self._last: list[int | None] = [None] * self.geometry.num_streams
        #: Host-side time floor per stream: an action enqueued after a
        #: global sync cannot start before the sync returned (the DES's
        #: host blocks in ``sync_all`` and only then enqueues more).
        self._floor = np.zeros(self.geometry.num_streams)
        #: Unsettled actions: (handle, stream, kind, amount, deps, name,
        #: fifo-predecessor handle, issue-time floor).
        self._pending: list[tuple] = []

    @property
    def num_streams(self) -> int:
        return self.geometry.num_streams

    def device_of(self, stream: int) -> int:
        return int(self.geometry.device[stream])

    def first_invoke_owed(self, stream: int, name: str) -> bool:
        """Whether kernel ``name`` invoked on ``stream`` would still pay
        its device's one-off first-invocation upload."""
        return (
            self._over.first_invoke_extra > 0.0
            and name not in self._loaded[self.device_of(stream)]
        )

    # -- issuing -------------------------------------------------------------

    def _issue(self, stream, kind, amount, deps, name) -> int:
        handle = len(self._done)
        self._done.append(None)
        self._handle_dev.append(self.device_of(stream))
        self._pending.append(
            (
                handle,
                stream,
                kind,
                amount,
                tuple(deps),
                name,
                self._last[stream],
                float(self._floor[stream]),
            )
        )
        self._last[stream] = handle
        return handle

    def transfer(self, stream: int, nbytes: float, deps=()) -> int:
        """One H2D or D2H action (the directions share one lane)."""
        if nbytes <= 0:
            # Residency marker (count=0): no link occupancy.
            return self._issue(stream, _MARKER, 0.0, deps, None)
        return self._issue(stream, _TRANSFER, float(nbytes), deps, None)

    # H2D and D2H serialise on the same engine; the distinction only
    # matters for traces, which the replay does not produce.
    h2d = transfer
    d2h = transfer

    def invoke(self, stream: int, cost: float, deps=(), name=None) -> int:
        """One kernel invocation whose on-device duration is ``cost``
        (a row of :func:`invoke_cost` for this stream)."""
        return self._issue(stream, _KERNEL, float(cost), deps, name)

    # -- settling ------------------------------------------------------------

    def _settle(self) -> None:
        """Resolve every pending action through a mini event loop."""
        acts = self._pending
        if not acts:
            return
        self._pending = []
        local = {a[0]: k for k, a in enumerate(acts)}
        n = len(acts)
        remaining = [0] * n
        # Max settled-predecessor completion time, seeded with the
        # host-side floor current when the action was enqueued.
        acc = [a[7] for a in acts]
        cross = [False] * n
        dependents: list[list[int]] = [[] for _ in range(n)]
        for k, (handle, stream, kind, amount, deps, name, fifo, _) in enumerate(
            acts
        ):
            dev = self._handle_dev[handle]
            for p in deps:
                # Only explicit deps trigger the cross-device sync (the
                # FIFO predecessor always shares the stream's device).
                if self._handle_dev[p] != dev:
                    cross[k] = True
            preds = deps if fifo is None else (*deps, fifo)
            for p in preds:
                t = self._done[p]
                if t is None:
                    dependents[local[p]].append(k)
                    remaining[k] += 1
                elif t > acc[k]:
                    acc[k] = t

        heap: list[tuple] = []
        seq = 0
        lane_queue: list[list] = [[] for _ in self._lane_free]
        lane_occupied = [False] * len(self._lane_free)

        def push(time, kind, k):
            nonlocal seq
            heapq.heappush(heap, (time, seq, kind, k))
            seq += 1

        def activate(k):
            """All predecessors settled: the action starts its overheads."""
            _, _, kind, amount, _, name, _, _ = acts[k]
            ready = acc[k]
            if cross[k]:
                ready += self._over.cross_device_sync
            ready += self._over.dispatch
            if kind == _MARKER:
                push(ready, _EV_DONE, k)
            elif kind == _KERNEL:
                cost = amount
                if name is not None and self._over.first_invoke_extra > 0.0:
                    loaded = self._loaded[self._handle_dev[acts[k][0]]]
                    if name not in loaded:
                        loaded.add(name)
                        cost += self._over.first_invoke_extra
                push(ready + cost, _EV_DONE, k)
            else:
                push(ready, _EV_START, k)  # request the link lane

        def grant(k, start):
            handle, _, _, nbytes, _, _, _, _ = acts[k]
            dev = self._handle_dev[handle]
            end = start + self.spec.link.latency + nbytes / self.spec.link.bandwidth
            lane_occupied[dev] = True
            self._lane_free[dev] = end
            push(end, _EV_RELEASE, k)

        def complete(k, t):
            handle, stream, _, _, _, _, _, _ = acts[k]
            self._done[handle] = t
            if t > self.tails[stream]:
                self.tails[stream] = t
            for d in dependents[k]:
                if t > acc[d]:
                    acc[d] = t
                remaining[d] -= 1
                if remaining[d] == 0:
                    activate(d)

        for k in range(n):
            if remaining[k] == 0:
                activate(k)

        while heap:
            time, _, ev, k = heapq.heappop(heap)
            dev = self._handle_dev[acts[k][0]]
            if ev == _EV_START:
                if lane_occupied[dev]:
                    heapq.heappush(lane_queue[dev], (time, k))
                else:
                    grant(k, max(time, self._lane_free[dev]))
            elif ev == _EV_RELEASE:
                complete(k, time)
                lane_occupied[dev] = False
                if lane_queue[dev]:
                    _, waiter = heapq.heappop(lane_queue[dev])
                    grant(waiter, time)
            else:
                complete(k, time)

    def sync_all(self) -> float:
        """Global join: every stream's tail, plus one sync_per_stream
        for each stream of the context."""
        self._settle()
        t = float(self.tails.max()) if len(self.tails) else 0.0
        t += self.num_streams * self._over.sync_per_stream
        self.tails[:] = t
        self._floor[:] = t
        return t

    def advance_to(self, t: float) -> None:
        """Jump every tail to ``t`` (closed-form phase skip); pending
        actions are settled first."""
        self._settle()
        self.tails[:] = np.maximum(self.tails, t)
        self._floor[:] = np.maximum(self._floor, t)
