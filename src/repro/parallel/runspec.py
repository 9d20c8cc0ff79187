"""Picklable description of one independent simulation run.

Every sweep point of the figure experiments and every autotuning
objective evaluation is "construct an app, call ``run()``, read the
timings".  A :class:`RunSpec` captures that as plain data — the app
class (picklable by reference), its constructor arguments, and the
``run()`` parameters — so the run can be shipped to a worker process,
memoized under a content-addressed key, or executed in place, all with
identical results.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.device.spec import DeviceSpec, PHI_31SP
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apps.base import AppRun
    from repro.metrics.registry import MetricsSnapshot


@dataclass(frozen=True)
class RunSpec:
    """One ``app_cls(*app_args, **app_kwargs).run(...)`` invocation.

    ``app_kwargs`` is stored as a sorted tuple of ``(key, value)`` pairs
    so the spec is hashable and its cache key is order-independent.
    ``keep_timeline`` retains the run's trace; such runs bypass the
    result cache (a timeline is too heavy to memoize) and pay the full
    pickling cost when shipped across processes.
    """

    app_cls: type
    app_args: tuple = ()
    app_kwargs: tuple = ()
    places: int = 1
    streams_per_place: int = 1
    num_devices: int = 1
    keep_timeline: bool = False

    @classmethod
    def for_app(
        cls,
        app_cls: type,
        *app_args: Any,
        places: int,
        streams_per_place: int = 1,
        num_devices: int = 1,
        keep_timeline: bool = False,
        **app_kwargs: Any,
    ) -> "RunSpec":
        """The ergonomic constructor: mirrors the direct-call spelling
        ``app_cls(*app_args, **app_kwargs).run(places=...)``."""
        return cls(
            app_cls=app_cls,
            app_args=tuple(app_args),
            app_kwargs=tuple(sorted(app_kwargs.items())),
            places=places,
            streams_per_place=streams_per_place,
            num_devices=num_devices,
            keep_timeline=keep_timeline,
        )

    @classmethod
    def for_workload(
        cls,
        workload: Any,
        *,
        places: int,
        streams_per_place: int = 1,
        num_devices: int = 1,
        keep_timeline: bool = False,
        spec: "DeviceSpec | None" = None,
    ) -> "RunSpec":
        """A spec running a declarative workload scenario.

        ``workload`` is a :class:`~repro.workload.spec.WorkloadSpec` or
        its dict form (e.g. freshly parsed from ``--workload spec.json``
        or a serve request body).  The frozen spec object itself becomes
        the app argument — it is hashable and picklable, and its compact
        fingerprint ``repr`` keys the result cache.
        """
        from repro.workload import WorkloadApp, WorkloadSpec

        if isinstance(workload, dict):
            workload = WorkloadSpec.from_dict(workload)
        kwargs: dict[str, Any] = {}
        if spec is not None:
            kwargs["spec"] = spec
        return cls.for_app(
            WorkloadApp,
            workload,
            places=places,
            streams_per_place=streams_per_place,
            num_devices=num_devices,
            keep_timeline=keep_timeline,
            **kwargs,
        )

    # -- execution ---------------------------------------------------------

    def build_app(self) -> Any:
        """Instantiate the application this spec describes."""
        return self.app_cls(*self.app_args, **dict(self.app_kwargs))

    def execute(self) -> "AppRun":
        """Run the simulation described by this spec (in this process).

        The run executes under a fresh scoped metrics registry; the
        resulting :class:`~repro.metrics.registry.MetricsSnapshot` is
        attached to ``run.metrics``, so a worker process ships its
        measurements back with the result and the parent executor merges
        them exactly once (only for newly-executed runs — never cache or
        checkpoint restores).
        """
        from repro.metrics.registry import scoped_registry

        with scoped_registry() as registry:
            run = self.build_app().run(
                places=self.places,
                streams_per_place=self.streams_per_place,
                num_devices=self.num_devices,
            )
            run.metrics = registry.snapshot()
        if not self.keep_timeline:
            # Sweeps only consume the scalar timings; dropping the trace
            # keeps worker->parent pickles and cache entries small.
            run.timeline = None
            run.outputs = {}
        return run

    def predict(self) -> "AppRun":
        """Evaluate this spec analytically (no simulation).

        Delegates to :func:`repro.engine.profiles.predict_run`; raises
        :class:`~repro.errors.ModelUnsupportedError` when the spec is
        outside the analytic fast path.  Predicted runs carry
        ``engine="model"`` and are never written to the result cache.
        """
        from repro.engine.profiles import predict_run

        return predict_run(self)

    # -- identity ----------------------------------------------------------

    @property
    def device_spec(self) -> DeviceSpec:
        """The device spec this run is simulated against."""
        spec = dict(self.app_kwargs).get("spec", PHI_31SP)
        if not isinstance(spec, DeviceSpec):
            raise ConfigurationError(
                f"spec kwarg must be a DeviceSpec, got {spec!r}"
            )
        return spec

    def cache_key(self) -> str:
        """Content-addressed identity of this run's *timings*.

        Layout: ``app-class | constructor args | run geometry | model
        fingerprint``.  The constructor arguments cover the dataset size,
        tile count, iteration count, dtype and scale; the geometry covers
        (P, streams-per-place, devices); the fingerprint covers every
        calibrated model constant (see
        :func:`repro.device.calibration.model_fingerprint`), so a
        recalibration invalidates all prior entries.
        """
        from repro.device.calibration import model_fingerprint

        app = f"{self.app_cls.__module__}.{self.app_cls.__qualname__}"
        kwargs = tuple(
            (k, v) for k, v in self.app_kwargs if k != "spec"
        )
        return "|".join(
            (
                app,
                repr(self.app_args),
                repr(kwargs),
                f"P={self.places}",
                f"S={self.streams_per_place}",
                f"D={self.num_devices}",
                model_fingerprint(self.device_spec),
            )
        )


@dataclass
class RunResult:
    """Compact wire record of one executed run (the worker transport).

    A sweep only consumes a run's scalar timings, so workers ship these
    instead of whole :class:`~repro.apps.base.AppRun` objects with a
    full :class:`~repro.metrics.registry.MetricsSnapshot` each.  A
    ``RunResult`` carries the timings plus, at most, the run's metrics
    delta as zlib-compressed snapshot JSON; chunked workers go further
    and merge their whole batch's snapshots into **one** compressed
    delta (the merge is associative and commutative, so parent-side
    totals are unchanged).  Executors decode back to an ``AppRun`` on
    arrival, so nothing downstream sees the wire format.

    Specs with ``keep_timeline=True`` ship their whole ``AppRun``
    instead: their trace is the product.
    """

    app: str
    elapsed: float
    places: int
    tiles: int
    gflops: "float | None"
    engine: str
    #: zlib-compressed ``MetricsSnapshot`` JSON, or None when the delta
    #: was merged into a chunk-level blob (or the run had no metrics).
    metrics_z: "bytes | None" = None

    def __reduce__(self):
        # Positional-tuple pickling: no per-instance field-name state
        # dict on the wire (being small is this class's whole job).
        return (
            RunResult,
            (
                self.app,
                self.elapsed,
                self.places,
                self.tiles,
                self.gflops,
                self.engine,
                self.metrics_z,
            ),
        )

    @classmethod
    def from_run(
        cls, run: "AppRun", include_metrics: bool = True
    ) -> "RunResult":
        metrics_z = None
        if include_metrics and run.metrics is not None:
            metrics_z = compress_snapshot(run.metrics)
        return cls(
            app=run.app,
            elapsed=run.elapsed,
            places=run.places,
            tiles=run.tiles,
            gflops=run.gflops,
            engine=run.engine,
            metrics_z=metrics_z,
        )

    def to_run(self) -> "AppRun":
        """Rehydrate the parent-side :class:`AppRun`."""
        from repro.apps.base import AppRun

        metrics = (
            decompress_snapshot(self.metrics_z)
            if self.metrics_z is not None
            else None
        )
        return AppRun(
            app=self.app,
            elapsed=self.elapsed,
            places=self.places,
            tiles=self.tiles,
            gflops=self.gflops,
            metrics=metrics,
            engine=self.engine,
        )


def compress_snapshot(snapshot: "MetricsSnapshot") -> bytes:
    """A metrics snapshot as compact wire bytes (zlib'd JSON — the
    metric names repeat heavily, so this is ~4x smaller than the
    pickled snapshot object)."""
    return zlib.compress(snapshot.to_json().encode("utf-8"), 6)


def decompress_snapshot(blob: bytes) -> "MetricsSnapshot":
    """Inverse of :func:`compress_snapshot`."""
    from repro.metrics.registry import MetricsSnapshot

    return MetricsSnapshot.from_json(
        zlib.decompress(blob).decode("utf-8")
    )


def execute_spec_slim(spec: RunSpec) -> "RunResult | AppRun":
    """Worker entry point (module-level, so it pickles by reference):
    ship a :class:`RunResult` instead of the full run.
    ``keep_timeline`` specs return the full ``AppRun`` (their trace is
    the product)."""
    run = spec.execute()
    if spec.keep_timeline:
        return run
    return RunResult.from_run(run)


def execute_spec_batch_slim(
    specs: "list[RunSpec]",
) -> "tuple[list, bytes | None]":
    """Worker entry point for chunked submission: run a batch of specs
    in one pool task, returning per-spec scalar outcomes plus **one**
    merged, compressed metrics delta for the whole batch.

    Returns ``(outcomes, metrics_z)`` where ``outcomes`` entries are
    ``("ok", RunResult | AppRun)`` or ``("err", exc)``, so one failing
    spec does not discard its batchmates.  Snapshot merge is
    associative and commutative (counters add, histogram buckets add),
    so the parent merging the blob once is exactly equivalent to
    merging each run's snapshot individually — at a fraction of the
    IPC bytes.  ``keep_timeline`` specs ride along as full runs with
    their own metrics attached (never folded into the blob, so the
    parent merges them through its normal per-run path).
    """
    outcomes: list = []
    merged = None
    for spec in specs:
        try:
            run = spec.execute()
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            outcomes.append(("err", exc))
            continue
        if spec.keep_timeline:
            outcomes.append(("ok", run))
            continue
        metrics = run.metrics
        if metrics is not None:
            merged = metrics if merged is None else merged.merge(metrics)
        outcomes.append(("ok", RunResult.from_run(run, include_metrics=False)))
    metrics_z = compress_snapshot(merged) if merged is not None else None
    return outcomes, metrics_z
