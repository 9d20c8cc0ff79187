"""The model engine's scalar entry point and the hBench probe models.

:func:`predict_run` evaluates one run spec analytically.  Every app
reaches it as a :class:`~repro.workload.WorkloadSpec`: the six built-in
apps through their DES-exact ports
(:func:`repro.workload.ports.workload_of`), replayed by
:func:`repro.workload.compile.predict_workload` through
:class:`repro.engine.analytic.StreamReplay` — the same transfers, the
same dedup/residency bookkeeping, the same dependency edges as the
app's ``_execute``, but as straight-line arithmetic instead of a
discrete-event simulation.  Synced phases of dependency-free kernels
close in form (see :mod:`repro.workload.compile`), so iterated apps
cost one replayed iteration at most, however many they run.  On
several devices the MatMul and Cholesky ports are built per point with
the run's tile -> device map, deduplicating uploads per device.

Known deviations from the DES (why the hybrid engine calibrates):

* link-grant order between streams is approximated by enqueue order
  (see :mod:`repro.engine.analytic`);
* device memory capacity is not accounted; a configuration the DES
  would reject with ``DeviceMemoryError`` is silently costed.  All
  shipped figure grids fit the modeled 8 GB card.

Configurations the analytic path refuses (``ModelUnsupportedError``,
caught by the hybrid engine): real-data runs (``materialize=True``),
``streams_per_place != 1``, ``keep_timeline`` (no trace is produced),
Hotspot's ``halo_sync="p2p"`` dependency pattern, Cholesky's non-owner
stream mappings, noisy or full-duplex device specs, and any app class
without a workload port.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from repro.apps.base import AppRun
from repro.engine.analytic import StreamReplay, invoke_cost, stream_geometry
from repro.errors import ConfigurationError, ModelUnsupportedError
from repro.kernels.vecadd import vecadd_work

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apps.hbench import HBench
    from repro.parallel.runspec import RunSpec


def _port(app, device_of=None):
    """``app`` as a workload app on the same device spec (a workload app
    passes through), or :class:`ModelUnsupportedError`."""
    # repro.workload imports this module's package (module cycle).
    from repro.workload import WorkloadApp, workload_of

    if isinstance(app, WorkloadApp):
        return app
    if getattr(app, "materialize", False):
        raise ModelUnsupportedError(
            "real-data runs (materialize=True) need the simulator"
        )
    try:
        return WorkloadApp(workload_of(app, device_of), spec=app.spec)
    except ConfigurationError as exc:
        raise ModelUnsupportedError(
            f"analytic engine cannot model this run: {exc}"
        ) from exc


@lru_cache(maxsize=16)
def _single_device_port(app_cls, app_args, app_kwargs):
    """``(app, port)`` of one app construction on one device.  The port
    does not depend on the partition count, so a sweep builds it once."""
    app = app_cls(*app_args, **dict(app_kwargs))
    return app, _port(app)


def workload_port(spec: "RunSpec"):
    """``(app, port)``: the run's app and the
    :class:`~repro.workload.WorkloadApp` the model paths read for it.

    On several devices MatMul and Cholesky dedup uploads per device, so
    their port is built per point from the run's tile -> device map.
    Raises :class:`~repro.errors.ModelUnsupportedError` for real-data
    runs and apps or variants without a port.
    """
    if spec.num_devices == 1:
        try:
            return _single_device_port(
                spec.app_cls, spec.app_args, spec.app_kwargs
            )
        except TypeError:  # unhashable constructor argument
            app = spec.build_app()
            return app, _port(app)
    app = spec.build_app()
    geometry = stream_geometry(spec.places, spec.num_devices, app.spec)
    S = geometry.num_streams
    return app, _port(app, lambda tile: int(geometry.device[tile % S]))


def predict_run(spec: "RunSpec") -> AppRun:
    """Evaluate one :class:`~repro.parallel.runspec.RunSpec` analytically.

    Returns an :class:`~repro.apps.base.AppRun` with ``engine="model"``
    (no timeline, no outputs, no metrics snapshot), or raises
    :class:`~repro.errors.ModelUnsupportedError` for configurations the
    analytic path cannot reproduce.  The envelope (``app``, ``tiles``,
    ``gflops``) is the app's own, never its port's.
    """
    from repro.workload.compile import predict_workload

    if spec.streams_per_place != 1:
        raise ModelUnsupportedError(
            "analytic engine requires one stream per place "
            f"(streams_per_place={spec.streams_per_place})"
        )
    if spec.keep_timeline:
        raise ModelUnsupportedError(
            "analytic engine produces no event trace (keep_timeline=True)"
        )
    app, port = workload_port(spec)
    elapsed = predict_workload(port, spec.places, spec.num_devices)
    flops = app.total_flops()
    return AppRun(
        app=app.name,
        elapsed=elapsed,
        places=spec.places,
        tiles=app.tiles,
        gflops=(flops / elapsed / 1e9) if flops > 0 else None,
        engine="model",
    )


# -- hBench (fig5/fig6/fig7) -------------------------------------------------


def hbench_transfer_model(hb: "HBench", hd_blocks: int, dh_blocks: int) -> float:
    """Analytic :meth:`~repro.apps.hbench.HBench.transfer_time`.

    Issued exactly like the app (the out chain, then the back chain, on
    two streams); the request-ordered lane reproduces the DES's strict
    alternation between the two directions.
    """
    rep = StreamReplay(2, hb.spec)
    nbytes = (hb.block_bytes // hb.itemsize) * 4
    for _ in range(hd_blocks):
        rep.h2d(0, nbytes)
    for _ in range(dh_blocks):
        rep.d2h(1, nbytes)
    return rep.sync_all()


def hbench_streamed_model(
    hb: "HBench", iterations: int, streams: int = 4
) -> float:
    """Analytic :meth:`~repro.apps.hbench.HBench.streamed_time` via the
    :mod:`repro.model` pipeline estimate (van Werkhoven bounds plus
    per-chunk launch and per-stream join overheads)."""
    from repro.model.streams import streamed_time_estimate

    half = hb.data_time() / 2
    return streamed_time_estimate(
        half, hb.kernel_time(iterations), half, streams, hb.spec
    )


def hbench_partition_sweep_model(
    hb: "HBench", places: int, nblocks: int = 128, iterations: int = 100
) -> float:
    """Analytic :meth:`~repro.apps.hbench.HBench.partition_sweep_time`
    (kernel phase only, after the synced upload)."""
    rep = StreamReplay(places, hb.spec)
    block_elems = hb.elements // nblocks
    work = vecadd_work(block_elems, iterations, hb.itemsize, hb.spec)
    costs = invoke_cost(work, rep.geometry, hb.spec)
    # The upload phase is untimed; only its trailing sync (which zeroes
    # the stagger) matters, and the replay's tails already start equal.
    for i in range(nblocks):
        s = i % rep.num_streams
        rep.invoke(s, costs[s], name=work.name)
    return rep.sync_all()


def hbench_reference_model(hb: "HBench", iterations: int = 100) -> float:
    """Analytic :meth:`~repro.apps.hbench.HBench.reference_time`."""
    rep = StreamReplay(1, hb.spec)
    work = vecadd_work(hb.elements, iterations, hb.itemsize, hb.spec)
    costs = invoke_cost(work, rep.geometry, hb.spec)
    rep.invoke(0, costs[0], name=work.name)
    return rep.sync_all()
