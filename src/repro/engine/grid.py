"""Vectorized grid evaluation of the analytic model.

A figure sweep, a Sec. V-C pruning study or an ML-tuner training pass
evaluates a *dense grid* of :class:`~repro.parallel.runspec.RunSpec`\\ s
that differ only in their run geometry (P) or dataset/tile arguments
(T, D).  The scalar path (:func:`repro.engine.profiles.predict_run`)
rebuilds the whole enqueue schedule — a workload-spec walk plus a
:class:`~repro.engine.analytic.StreamReplay` event loop — for every
single point, even though the schedule's *topology* (which uploads are
deduplicated, which kernel depends on which transfer, how many actions
each phase settles) is identical across the grid for a single-device
family and only the stream assignment (``tile % S``) and the
per-stream costs vary.

This module lowers a family once and evaluates each point with a flat
loop over precompiled arrays:

* :class:`_FamilyBuilder` — a *symbolic* ``StreamReplay``: every app
  reaches it as a :class:`~repro.workload.WorkloadSpec` (the six
  built-in apps through their ports), and
  :func:`~repro.workload.compile.lower_workload` takes the same steps
  as the scalar replay, but records a stream *chain id* (the op's tile,
  reduced mod ``num_streams`` per point) instead of a concrete stream
  and a kernel *cost class* instead of a concrete cost, so one
  recording serves every partition count;
* :func:`_eval_phase` — the exact flat equivalent of
  ``StreamReplay._settle`` for the families the grid path accepts
  (single device, no first-invocation upload): the same
  ``(time, seq)``-ordered event loop, with the transfer lane granted in
  request order, the DES's capacity-1 link discipline;
* closed phases — synced phases of dependency-free kernels entered with
  equal tails — cost one :func:`~repro.engine.analytic.chain_max` per
  point, shared by every repetition;
* per-``(family, P)`` point schedules (stream maps, FIFO successor
  arrays, per-action costs from one vectorized
  :func:`~repro.engine.analytic.invoke_cost` table) cached so a
  steady-state re-sweep pays only the flat loop;
* :class:`GridPlan` / :func:`predict_grid` — the public batch surface:
  group a heterogeneous batch into vectorizable families and scalar
  leftovers, and evaluate the whole grid.

The accuracy contract is *exact float equality* with
:func:`~repro.engine.profiles.predict_run` (property-tested across all
six app profiles and generated scenarios): any configuration the
lowering cannot reproduce bit-for-bit — multiple devices
(device-dependent upload dedup), a device spec with a first-invocation
upload cost, an app without a workload port — is routed to the scalar
replay instead, never approximated.  Metrics land under
``engine.grid.*`` (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heappop, heappush
from time import perf_counter
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.apps.base import AppRun
from repro.engine.analytic import (
    chain_max,
    check_supported,
    invoke_cost,
    stream_geometry,
)
from repro.errors import ModelUnsupportedError
from repro.metrics.registry import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.runspec import RunSpec

__all__ = ["GridPlan", "GridFamily", "predict_grid", "predict_runs"]


class _GridUnsupported(Exception):
    """The family cannot be lowered bit-exactly; use the scalar path."""


#: Action kinds (match repro.engine.analytic).
_MARKER, _TRANSFER, _KERNEL = 0, 1, 2

#: Evaluation steps of a compiled family.
_ST_SETTLE, _ST_SYNC, _ST_CLOSED = 0, 1, 2


class _Phase:
    """P-independent topology of one settle (the actions between two
    global syncs): kinds, stream-chain ids, cost classes, precomputed
    lane occupancies and the explicit-dependency graph."""

    __slots__ = ("n", "kind", "chain", "klass", "lane_q", "outs", "ndeps")

    def __init__(self, kind, chain, klass, lane_q, outs, ndeps):
        self.n = len(kind)
        self.kind = kind
        self.chain = chain
        self.klass = klass
        self.lane_q = lane_q
        self.outs = outs
        self.ndeps = ndeps


class _PointPhase:
    """One phase specialized to one partition count: plain lists the
    flat loop indexes without numpy overhead."""

    __slots__ = (
        "stream_of", "next_k", "cost", "remaining0", "init_todo", "pdone0"
    )

    def __init__(self, stream_of, next_k, cost, remaining0, init_todo, n):
        self.stream_of = stream_of
        self.next_k = next_k
        self.cost = cost
        self.remaining0 = remaining0
        self.init_todo = init_todo
        self.pdone0 = [-1.0] * n


class _PointData:
    """Everything per-(family, P): phase schedules, the closed phases'
    chain maxima, and the memoized evaluation (the model is
    deterministic, so one flat-loop pass per point ever)."""

    __slots__ = ("S", "phases", "chain_maxes", "elapsed")

    def __init__(self, S, phases, chain_maxes):
        self.S = S
        self.phases = phases
        self.chain_maxes = chain_maxes
        self.elapsed = None


class _FamilyBuilder:
    """Symbolic :class:`~repro.engine.analytic.StreamReplay`.

    :func:`~repro.workload.compile.lower_workload` drives the same
    ``transfer``/``invoke``/``sync_all`` surface as the scalar replay,
    but with a *chain id* (the op's tile, whose ``% num_streams`` picks
    the stream) and a kernel *cost class* (an :func:`invoke_cost` row
    materialized later, per P).  Handles index the current phase:
    workload specs keep dependencies within one phase (FIFO carry-over
    across a global sync is a provable no-op: the sync floor dominates
    any earlier completion).
    """

    def __init__(self, spec):
        self.spec = spec
        self._bw = spec.link.bandwidth
        self.classes: list = []
        self.phases: list[_Phase] = []
        self.steps: list[tuple[int, int]] = []
        #: Closed phases' (cost classes, chain ids), one per distinct phase.
        self.chains: list[tuple[np.ndarray, np.ndarray]] = []
        self._chain_index: dict = {}
        self._reset()

    def _reset(self):
        self._kind: list[int] = []
        self._chain: list[int] = []
        self._klass: list[int] = []
        self._laneq: list[float] = []
        self._deps: list[tuple[int, ...]] = []

    def kernel_class(self, work) -> int:
        self.classes.append(work)
        return len(self.classes) - 1

    def _issue(self, chain, kind, klass, q, deps):
        self._kind.append(kind)
        self._chain.append(chain)
        self._klass.append(klass)
        self._laneq.append(q)
        self._deps.append(deps)
        return len(self._kind) - 1

    def transfer(self, chain, nbytes, deps=()):
        if nbytes <= 0:
            # Residency marker (count=0): no link occupancy.
            return self._issue(chain, _MARKER, -1, 0.0, deps)
        return self._issue(
            chain, _TRANSFER, -1, float(nbytes) / self._bw, deps
        )

    def invoke(self, chain, klass, deps=()):
        return self._issue(chain, _KERNEL, klass, 0.0, deps)

    def sync_all(self):
        if self._kind:
            n = len(self._kind)
            outs: list[list[int]] = [[] for _ in range(n)]
            ndeps = np.zeros(n, dtype=np.int64)
            for k, deps in enumerate(self._deps):
                ndeps[k] = len(deps)
                for p in deps:
                    outs[p].append(k)
            phase = _Phase(
                kind=self._kind,
                chain=np.asarray(self._chain, dtype=np.int64),
                klass=np.asarray(self._klass, dtype=np.int64),
                lane_q=self._laneq,
                outs=[tuple(o) for o in outs],
                ndeps=ndeps,
            )
            self.steps.append((_ST_SETTLE, len(self.phases)))
            self.phases.append(phase)
            self._reset()
        self.steps.append((_ST_SYNC, 0))

    def closed_form(self, key, klasses, chains, reps):
        """``reps`` repetitions of a synced phase of dependency-free
        kernels, entered with every tail equal: each advances time by
        :func:`~repro.engine.analytic.chain_max` plus the sync.
        Phases recorded under one ``key`` share one chain table."""
        idx = self._chain_index.get(key)
        if idx is None:
            idx = self._chain_index[key] = len(self.chains)
            self.chains.append((klasses, chains))
        self.steps.append((_ST_CLOSED, (idx, reps)))


#: Event kinds for ``_eval_phase``'s loop (values are arbitrary — the
#: per-push ``seq`` already makes every heap entry unique).
_EV_START, _EV_RELEASE, _EV_DONE = 0, 1, 2


def _eval_phase(phase, pt, tails, floor, lane_free, dispatch, lat):
    """Settle one compiled phase at one grid point; returns the updated
    lane-free time (``tails`` is mutated in place).

    Exact flat-loop mirror of ``StreamReplay._settle`` for the
    single-device, zero-first-invoke families the grid path lowers —
    the same ``(time, seq)``-ordered event loop, with the compiled
    arrays in place of action tuples.  The full chronology matters,
    not just the transfer lane's: when two lane requests carry the
    *same* request time, the DES grants them in activation order,
    which is the processing order of their predecessors' completion
    events — so completions cannot be settled eagerly (out of event
    order) without sometimes flipping a lane-grant tie and shifting
    every later action on the losing stream.  Completion order is
    mirrored exactly: dependents activate in ascending issue index
    within one completion (``_settle`` builds its dependent lists that
    way), and each activation takes the next global ``seq``.
    """
    kinds = phase.kind
    outs = phase.outs
    laneq = phase.lane_q
    stream_of = pt.stream_of
    nxt = pt.next_k
    cost = pt.cost
    remaining = pt.remaining0[:]
    pdone = pt.pdone0[:]
    heap: list = []
    lane_queue: list = []
    lane_occupied = False
    seq = 0
    push = heappush
    pop = heappop

    def activate(k):
        nonlocal seq
        a = pdone[k]
        ready = (a if a > floor else floor) + dispatch
        kd = kinds[k]
        if kd == 1:  # transfer: request the lane
            push(heap, (ready, seq, _EV_START, k))
        elif kd == 2:  # kernel
            push(heap, (ready + cost[k], seq, _EV_DONE, k))
        else:  # marker
            push(heap, (ready, seq, _EV_DONE, k))
        seq += 1

    for k in pt.init_todo:
        activate(k)

    while heap:
        time, _, ev, k = pop(heap)
        if ev == _EV_START:
            if lane_occupied:
                push(lane_queue, (time, k))
            else:
                start = time if time > lane_free else lane_free
                lane_free = (start + lat) + laneq[k]
                lane_occupied = True
                push(heap, (lane_free, seq, _EV_RELEASE, k))
                seq += 1
            continue
        # _EV_RELEASE or _EV_DONE: k completes at `time`.
        s = stream_of[k]
        if time > tails[s]:
            tails[s] = time
        d1 = nxt[k]
        if d1 < 0:
            dependents = outs[k]
        elif outs[k]:
            # Merge the FIFO successor into the explicit dependents in
            # ascending issue order (duplicates kept: an explicit dep
            # on the FIFO predecessor counts twice, as in ``_settle``).
            dependents = sorted((d1, *outs[k]))
        else:
            dependents = (d1,)
        for d in dependents:
            if time > pdone[d]:
                pdone[d] = time
            r = remaining[d] - 1
            remaining[d] = r
            if not r:
                activate(d)
        if ev == _EV_RELEASE:
            lane_occupied = False
            if lane_queue:
                waiter = pop(lane_queue)[1]
                lane_free = (time + lat) + laneq[waiter]
                lane_occupied = True
                push(heap, (lane_free, seq, _EV_RELEASE, waiter))
                seq += 1
    return lane_free


#: Bound on cached per-P point schedules per family.
_POINT_CAP = 128


class _CompiledFamily:
    """One lowered family plus its per-P point-schedule cache."""

    def __init__(self, app, bld: _FamilyBuilder):
        self.spec = spec = bld.spec
        over = spec.overheads
        self.dispatch = over.dispatch
        self.spp = over.sync_per_stream
        self.lat = spec.link.latency
        self.phases = bld.phases
        self.steps = bld.steps
        self.classes = bld.classes
        self.chains = bld.chains
        # AppRun fields shared by every point of the family: the app's
        # own, never its port's.
        self.app_name = app.name
        self.app_tiles = app.tiles
        self.app_flops = app.total_flops()
        self._points: OrderedDict[int, _PointData] = OrderedDict()

    # -- per-P specialization ----------------------------------------------

    def _point(self, places: int) -> _PointData:
        pt = self._points.get(places)
        if pt is not None:
            self._points.move_to_end(places)
            return pt
        pt = self._build_point(places)
        self._points[places] = pt
        while len(self._points) > _POINT_CAP:
            self._points.popitem(last=False)
        return pt

    def _build_point(self, places: int) -> _PointData:
        geom = stream_geometry(places, 1, self.spec)
        S = geom.num_streams
        rows = [invoke_cost(w, geom, self.spec) for w in self.classes]
        ctable = (
            np.vstack(rows) if rows else np.zeros((0, S), dtype=np.float64)
        )
        padded = np.vstack([np.zeros((1, S), dtype=np.float64), ctable])
        phases = []
        for ph in self.phases:
            stream = ph.chain % S
            order = np.argsort(stream, kind="stable")
            sorted_streams = stream[order]
            same = sorted_streams[:-1] == sorted_streams[1:]
            nxt = np.full(ph.n, -1, dtype=np.int64)
            nxt[order[:-1][same]] = order[1:][same]
            has_pred = np.zeros(ph.n, dtype=np.int64)
            has_pred[order[1:][same]] = 1
            remaining = ph.ndeps + has_pred
            init = np.flatnonzero(remaining == 0)
            cost = padded[ph.klass + 1, stream]
            phases.append(
                _PointPhase(
                    stream.tolist(),
                    nxt.tolist(),
                    cost.tolist(),
                    remaining.tolist(),
                    init.tolist(),
                    ph.n,
                )
            )
        chain_maxes = []
        for klass, chain in self.chains:
            streams = chain % S
            chain_maxes.append(
                chain_max(streams, ctable[klass, streams], self.dispatch, S)
            )
        return _PointData(S, phases, chain_maxes)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, places: int) -> float:
        """Predicted elapsed seconds at one partition count — exactly
        the scalar replay's arithmetic."""
        pt = self._point(places)
        if pt.elapsed is not None:
            return pt.elapsed
        S = pt.S
        tails = [0.0] * S
        floor = 0.0
        lane_free = 0.0
        t = 0.0
        dispatch = self.dispatch
        lat = self.lat
        spp = self.spp
        for op, arg in self.steps:
            if op == _ST_SETTLE:
                lane_free = _eval_phase(
                    self.phases[arg], pt.phases[arg],
                    tails, floor, lane_free, dispatch, lat,
                )
            elif op == _ST_SYNC:
                t = max(tails)
                t += S * spp
                tails = [t] * S
                floor = t
            else:
                idx, reps = arg
                t += reps * (pt.chain_maxes[idx] + S * spp)
                tails = [t] * S
                floor = t
        pt.elapsed = t
        return t

    def wrap(self, places: int, elapsed: float) -> AppRun:
        """The :func:`predict_run` result envelope for one point."""
        flops = self.app_flops
        return AppRun(
            app=self.app_name,
            elapsed=elapsed,
            places=places,
            tiles=self.app_tiles,
            gflops=(flops / elapsed / 1e9) if flops > 0 else None,
            engine="model",
        )


#: App class -> lowering into a ``_FamilyBuilder``.  Every built-in app
#: reaches the grid as its :class:`~repro.workload.WorkloadSpec` port,
#: so the only entry is ``WorkloadApp``, registered on
#: ``import repro.workload`` (the import runs in that direction to avoid
#: a module cycle).
_LOWERERS: dict[type, Callable] = {}


# -- family compilation (module-level cache) ----------------------------------

#: family key -> _CompiledFamily (array route) or None (scalar route).
_FAMILIES: "OrderedDict[tuple, _CompiledFamily | None]" = OrderedDict()
_FAMILY_CAP = 64


def clear_grid_caches() -> None:
    """Drop every compiled family (tests and recalibration hooks)."""
    _FAMILIES.clear()


def _family_key(spec: "RunSpec") -> tuple:
    """Specs that share one lowering: same app construction, same run
    geometry class.  The device spec rides inside ``app_kwargs``, so a
    recalibrated model is a different family."""
    return (
        spec.app_cls,
        spec.app_args,
        spec.app_kwargs,
        spec.streams_per_place,
        spec.num_devices,
        spec.keep_timeline,
    )


def _compile_family(spec0: "RunSpec") -> _CompiledFamily:
    """Lower one family, or raise (``_GridUnsupported`` /
    :class:`ModelUnsupportedError`) to route it to the scalar path."""
    if spec0.streams_per_place != 1:
        raise _GridUnsupported("streams_per_place != 1")
    if spec0.keep_timeline:
        raise _GridUnsupported("keep_timeline")
    if spec0.num_devices != 1:
        # Device-major place distribution makes the upload-dedup
        # topology P-dependent; the scalar replay handles it exactly.
        raise _GridUnsupported("multi-device topology is P-dependent")
    from repro.engine.profiles import workload_port

    app, port = workload_port(spec0)
    lower = _LOWERERS.get(type(port))
    if lower is None:
        raise _GridUnsupported(f"no lowerer for {type(port).__name__}")
    check_supported(app.spec)
    if app.spec.overheads.first_invoke_extra > 0.0:
        # First-invocation uploads depend on kernel-name arrival order,
        # which the eager evaluator does not track.
        raise _GridUnsupported("first_invoke_extra > 0")
    bld = _FamilyBuilder(app.spec)
    lower(port, bld)
    return _CompiledFamily(app, bld)


def _compiled_for(spec0: "RunSpec"):
    """Cached compile: a ``None`` entry memoizes the scalar routing
    decision.  Returns ``(compiled | None, cache_hit)``."""
    try:
        key = _family_key(spec0)
        cached = key in _FAMILIES
    except TypeError:  # unhashable ctor argument: scalar route
        return None, False
    if cached:
        _FAMILIES.move_to_end(key)
        return _FAMILIES[key], True
    try:
        compiled = _compile_family(spec0)
    except (_GridUnsupported, ModelUnsupportedError):
        compiled = None
    _FAMILIES[key] = compiled
    while len(_FAMILIES) > _FAMILY_CAP:
        _FAMILIES.popitem(last=False)
    return compiled, False


# -- public surface -----------------------------------------------------------


class GridFamily:
    """One homogeneous slice of a batch: the spec indices it covers and
    the route (``"array"`` for the vectorized path, ``"scalar"`` for
    per-point :func:`predict_run` leftovers)."""

    __slots__ = ("indices", "route", "compiled")

    def __init__(self, indices, route, compiled=None):
        self.indices = indices
        self.route = route
        self.compiled = compiled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GridFamily(route={self.route!r}, n={len(self.indices)})"


class GridPlan:
    """A heterogeneous batch grouped into vectorizable families and
    scalar leftovers (see the module docstring).

    Build once per batch with :meth:`build`; evaluate with
    :meth:`predict_runs` (AppRun envelopes, exactly
    :func:`predict_run`'s) or :meth:`evaluate` (an elapsed-seconds
    array).  ``strict=False`` returns ``None`` for points the model
    refuses instead of raising — the hybrid engine uses it to fall
    families back to the simulator.
    """

    def __init__(self, specs: list, families: list[GridFamily]):
        self.specs = specs
        self.families = families

    @classmethod
    def build(cls, specs) -> "GridPlan":
        specs = list(specs)
        families: list[GridFamily] = []
        by_key: dict[tuple, GridFamily] = {}
        for i, spec in enumerate(specs):
            try:
                key = _family_key(spec)
                fam = by_key.get(key)
            except TypeError:
                key, fam = None, None
            if fam is None:
                compiled, _ = _compiled_for(spec)
                fam = GridFamily(
                    [], "array" if compiled is not None else "scalar",
                    compiled,
                )
                families.append(fam)
                if key is not None:
                    by_key[key] = fam
            fam.indices.append(i)
        return cls(specs, families)

    @property
    def vectorized_points(self) -> int:
        """Points answered by the array path."""
        return sum(
            len(f.indices) for f in self.families if f.route == "array"
        )

    def predict_runs(self, strict: bool = True) -> list:
        """One :class:`AppRun` per spec (submission order).

        ``strict=True`` raises :class:`ModelUnsupportedError` exactly
        where a scalar ``[predict_run(s) for s in specs]`` loop would;
        ``strict=False`` leaves ``None`` at unsupported points.
        """
        from repro.engine.profiles import predict_run

        results: list = [None] * len(self.specs)
        n_array = n_scalar = fam_array = fam_scalar = 0
        eval_seconds = 0.0
        for fam in self.families:
            if fam.route == "array":
                compiled = fam.compiled
                t0 = perf_counter()
                for i in fam.indices:
                    spec = self.specs[i]
                    results[i] = compiled.wrap(
                        spec.places, compiled.evaluate(spec.places)
                    )
                eval_seconds += perf_counter() - t0
                n_array += len(fam.indices)
                fam_array += 1
            else:
                for i in fam.indices:
                    if strict:
                        results[i] = predict_run(self.specs[i])
                    else:
                        try:
                            results[i] = predict_run(self.specs[i])
                        except ModelUnsupportedError:
                            results[i] = None
                    if results[i] is not None:
                        n_scalar += 1
                fam_scalar += 1
        if self.specs:
            registry = get_registry()
            if fam_array:
                registry.counter(
                    "engine.grid.families", route="array"
                ).inc(fam_array)
            if fam_scalar:
                registry.counter(
                    "engine.grid.families", route="scalar"
                ).inc(fam_scalar)
            if n_array:
                registry.counter(
                    "engine.grid.points", route="array"
                ).inc(n_array)
            if n_scalar:
                registry.counter(
                    "engine.grid.points", route="scalar"
                ).inc(n_scalar)
            registry.histogram("engine.grid.eval_seconds").observe(
                eval_seconds
            )
        return results

    def evaluate(self) -> np.ndarray:
        """Predicted elapsed seconds for every spec, as one array."""
        return np.array(
            [run.elapsed for run in self.predict_runs()],
            dtype=np.float64,
        )


def predict_grid(specs) -> np.ndarray:
    """Evaluate a whole batch of specs analytically: elapsed seconds in
    submission order, element-wise identical to scalar
    :func:`~repro.engine.profiles.predict_run` (raising
    :class:`ModelUnsupportedError` exactly where it would)."""
    return GridPlan.build(specs).evaluate()


def predict_runs(specs) -> list:
    """Batch :func:`~repro.engine.profiles.predict_run`: one
    ``engine="model"`` :class:`AppRun` per spec, via the grid path."""
    return GridPlan.build(specs).predict_runs()
