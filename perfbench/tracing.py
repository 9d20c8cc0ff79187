"""In-memory spans around the public functions at each layer boundary.

The benchmark's traced runs call :func:`install` before the work
starts.  It replaces each boundary function of the ``repro`` package
with a wrapper that records one span per call: name, start, end,
parent span and request id, plus a small attribute the layer summary
needs (DES events of a run, a store hit, a batch's ticket waits).
Spans stay in memory; :func:`summarise` turns them into the per-layer
metrics listed in ``BENCHMARK.json``.

Nothing here changes what the wrapped functions compute: every wrapper
calls the original with the same arguments and returns its result.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import statistics
import sys
import time

from common import percentile


class Tracer:
    """Span recorder shared by every wrapper one :func:`install` makes.

    A span is the tuple ``(id, parent, name, start, end, rid, attr)``.
    ``parent`` is the span open in the caller's context (0 at top
    level), ``rid`` the request id the HTTP wrapper put in context.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=0)
        self._rid = contextvars.ContextVar("perfbench_rid", default=0)
        self._rids = itertools.count(1)

    def wrap(self, name: str, fn, attr=None, request: bool = False):
        """``fn`` recording one span per call.  ``attr(args, kwargs,
        result)`` derives the span's attribute; ``request=True`` (for a
        coroutine function) opens a new request id for everything the
        call causes."""
        spans, ids, current, rid_var = (
            self.spans, self._ids, self._current, self._rid
        )
        rids = self._rids

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid = next(ids)
                parent = current.get()
                token = current.set(sid)
                rid_token = rid_var.set(next(rids)) if request else None
                rid = rid_var.get()
                start = time.perf_counter()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end = time.perf_counter()
                    current.reset(token)
                    if rid_token is not None:
                        rid_var.reset(rid_token)
                    value = attr(args, kwargs, result) if attr else None
                    spans.append((sid, parent, name, start, end, rid, value))

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                current.reset(token)
                value = attr(args, kwargs, result) if attr else None
                spans.append(
                    (sid, parent, name, start, end, rid_var.get(), value)
                )

        return wrapper


def _replace_everywhere(original, replacement) -> None:
    """Point every loaded module's global bound to ``original`` at
    ``replacement`` (``from x import f`` copies the reference)."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or not getattr(module, "__name__", "").startswith(
            "repro"
        ):
            continue
        for key, value in list(namespace.items()):
            if value is original:
                setattr(module, key, replacement)


def _events(args, kwargs, run) -> int:
    metrics = getattr(run, "metrics", None)
    if metrics is None:
        return 0
    return int(metrics.counter_value("sim.events_processed"))


def _inline(args, kwargs, _runs) -> bool:
    """Whether a ``_map_sim`` call is a hybrid calibration subset."""
    if "inline" in kwargs:
        return bool(kwargs["inline"])
    return bool(args[2]) if len(args) > 2 else False


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported ``repro`` package."""
    from repro.autotune import search
    from repro.engine import engines, grid, profiles, store
    from repro.engine.learned import engine as learned
    from repro.parallel import cache, executor, runspec
    from repro.workload import WorkloadApp

    def method(cls, attr_name, span, attr=None):
        setattr(
            cls, attr_name, tracer.wrap(span, getattr(cls, attr_name), attr)
        )

    method(runspec.RunSpec, "execute", "sim.execute", _events)
    method(executor.SweepExecutor, "map", "parallel.executor.map")
    method(
        executor.SweepExecutor,
        "_map_sim",
        "parallel.executor.sim",
        _inline,
    )
    method(
        cache.SimulationCache,
        "get_many",
        "parallel.cache.get_many",
        lambda args, kwargs, hits: (
            sum(h is not None for h in hits or ()),
            len(hits or ()),
        ),
    )
    method(engines.HybridEngine, "map", "engine.route")
    method(
        learned.LearnedEngine,
        "map",
        "engine.learned",
        lambda args, kwargs, runs: (
            sum(getattr(r, "engine", "") == "learned" for r in runs or ()),
            len(runs or ()),
        ),
    )
    method(
        store.EngineStore,
        "get",
        "engine.store.get",
        lambda args, kwargs, verdict: verdict is not None,
    )
    build = grid.GridPlan.__dict__["build"].__func__
    grid.GridPlan.build = classmethod(tracer.wrap("engine.grid.build", build))
    method(
        grid.GridPlan,
        "predict_runs",
        "engine.grid.eval",
        lambda args, kwargs, runs: sum(r is not None for r in runs or ()),
    )
    compile_family = grid._compile_family
    _replace_everywhere(
        compile_family,
        tracer.wrap("engine.grid.compile_family", compile_family),
    )
    lower = grid._LOWERERS[WorkloadApp]
    grid._LOWERERS[WorkloadApp] = tracer.wrap("workload.lower", lower)
    predict_run = profiles.predict_run
    _replace_everywhere(
        predict_run, tracer.wrap("engine.scalar.predict", predict_run)
    )
    run_search = search.run_search
    _replace_everywhere(
        run_search,
        tracer.wrap(
            "autotune.search",
            run_search,
            lambda args, kwargs, outcome: getattr(outcome, "evaluations", 0),
        ),
    )
    _install_serve(tracer)


def _install_serve(tracer: Tracer) -> None:
    """The serving layers, when the server stack is imported."""
    from repro.serve import backend, core, http, service

    handle = http.handle_request
    _replace_everywhere(
        handle, tracer.wrap("serve.http", handle, request=True)
    )
    core.Batcher.submit = tracer.wrap(
        "serve.batch.submit",
        core.Batcher.submit,
        lambda args, kwargs, ticket: getattr(ticket, "id", None),
    )
    dispatch = service.dispatch_batch

    def dispatch_with(batch, info, *args, **kwargs):
        return dispatch(batch, *args, **kwargs)

    traced = tracer.wrap(
        "serve.dispatch", dispatch_with, lambda args, kwargs, _r: args[1]
    )

    def dispatch_batch(batch, *args, **kwargs):
        # ``Ticket.arrival`` is ``time.monotonic`` time: read the wait
        # on that clock as the dispatch starts.
        now = time.monotonic()
        info = (
            [t.id for t in batch.tickets],
            [now - t.arrival for t in batch.tickets],
            len(batch.specs),
        )
        return traced(batch, info, *args, **kwargs)

    _replace_everywhere(dispatch, dispatch_batch)
    for name in ("evaluate", "autotune"):
        setattr(
            backend.PredictionBackend,
            name,
            tracer.wrap(
                f"serve.backend.{name}",
                getattr(backend.PredictionBackend, name),
            ),
        )


# -- summary --------------------------------------------------------------


def _union_within(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[tuple], extra_children=None) -> dict[int, float]:
    """Span id -> self seconds: duration minus the part of its interval
    covered by child spans (``extra_children`` adds intervals for
    causal children on other threads, keyed by parent id)."""
    children: dict[int, list] = {}
    for sid, parent, _name, start, end, _rid, _attr in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    for parent, intervals in (extra_children or {}).items():
        children.setdefault(parent, []).extend(intervals)
    return {
        sid: (end - start) - _union_within(start, end, children.get(sid, ()))
        for sid, _p, _n, start, end, _r, _a in spans
    }


def _ms(values) -> float:
    return 1e3 * statistics.fmean(values) if values else 0.0


def summarise(
    spans: list[tuple], since: float = 0.0, until: float = float("inf")
) -> dict[str, float]:
    """Per-layer metrics from the spans that started in [since, until)
    (``time.perf_counter`` time).  Time metrics are mean milliseconds
    per call of the boundary; counts are totals."""
    spans = [s for s in spans if since <= s[3] < until]
    by_name: dict[str, list[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    # Serving: a request's batcher wait and its batch's dispatch run on
    # the consumer task and a worker thread, so they are tied to the
    # request's span through the ticket ids its submit returned.
    rid_of_ticket = {
        s[6]: s[5] for s in by_name.get("serve.batch.submit", ())
    }
    http_of_rid = {s[5]: s[0] for s in by_name.get("serve.http", ())}
    extra: dict[int, list] = {}
    waits: list[float] = []
    sizes: list[int] = []
    for _sid, _p, _n, start, end, _rid, info in by_name.get(
        "serve.dispatch", ()
    ):
        ticket_ids, ticket_waits, n_specs = info
        sizes.append(n_specs)
        waits.extend(ticket_waits)
        for tid, wait in zip(ticket_ids, ticket_waits):
            http = http_of_rid.get(rid_of_ticket.get(tid))
            if http is not None:
                extra.setdefault(http, []).append((start - wait, end))
    own = self_times(spans, extra)

    def durations(name):
        return [s[4] - s[3] for s in by_name.get(name, ())]

    def selfs(*names):
        return [own[s[0]] for n in names for s in by_name.get(n, ())]

    def total(name):
        return sum(s[6] or 0 for s in by_name.get(name, ()))

    executes = by_name.get("sim.execute", ())
    events = total("sim.execute")
    execute_s = sum(durations("sim.execute"))
    calibration_sims = {
        s[0] for s in by_name.get("parallel.executor.sim", ()) if s[6]
    }
    parent_of = {s[0]: s[1] for s in spans}

    def under_calibration(sid: int) -> bool:
        while sid:
            if sid in calibration_sims:
                return True
            sid = parent_of.get(sid, 0)
        return False

    store_gets = by_name.get("engine.store.get", ())
    cache_hits = sum(s[6][0] for s in by_name.get("parallel.cache.get_many", ()))
    cache_lookups = sum(
        s[6][1] for s in by_name.get("parallel.cache.get_many", ())
    )
    learned = by_name.get("engine.learned", ())
    learned_n = sum(s[6][1] for s in learned)
    maps = by_name.get("parallel.executor.map", ())
    executor_self = selfs("parallel.executor.map", "parallel.executor.sim")

    return {
        "sim.des_runs": len(executes),
        "sim.execute_ms": _ms(durations("sim.execute")),
        "sim.events": events,
        "sim.host_us_per_event": 1e6 * execute_s / events if events else 0.0,
        "engine.grid.compile_ms": _ms(durations("engine.grid.build")),
        "engine.grid.compiles": len(by_name.get("engine.grid.compile_family", ())),
        "engine.grid.eval_ms": _ms(durations("engine.grid.eval")),
        "engine.grid.points": total("engine.grid.eval"),
        "engine.scalar.predict_ms": _ms(durations("engine.scalar.predict")),
        "workload.lower_ms": _ms(durations("workload.lower")),
        "engine.route.self_ms": _ms(selfs("engine.route")),
        "engine.calibration.des_runs": sum(
            1 for s in executes if under_calibration(s[1])
        ),
        "engine.store.lookups": len(store_gets),
        "engine.store.hit_ratio": (
            sum(1 for s in store_gets if s[6]) / len(store_gets)
            if store_gets
            else 0.0
        ),
        "parallel.executor.self_ms": (
            1e3 * sum(executor_self) / len(maps) if maps else 0.0
        ),
        "parallel.cache.hit_ratio": (
            cache_hits / cache_lookups if cache_lookups else 0.0
        ),
        "serve.http.self_ms": _ms(selfs("serve.http")),
        "serve.batch.wait_p50_ms": 1e3 * percentile(waits, 50) if waits else 0.0,
        "serve.batch.wait_p90_ms": 1e3 * percentile(waits, 90) if waits else 0.0,
        "serve.batch.size": statistics.fmean(sizes) if sizes else 0.0,
        "serve.backend.evaluate_ms": _ms(durations("serve.backend.evaluate")),
        "serve.backend.autotune_ms": _ms(durations("serve.backend.autotune")),
        "engine.learned.answered_ratio": (
            sum(s[6][0] for s in learned) / learned_n if learned_n else 0.0
        ),
        "engine.learned.predict_ms": _ms(durations("engine.learned")),
        "autotune.search_ms": _ms(durations("autotune.search")),
        "autotune.des_evaluations": total("autotune.search"),
        "trace.spans": len(spans),
    }
