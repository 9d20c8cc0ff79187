"""The six built-in apps reproduced as workload specs.

``workload_of(app)`` must reproduce each app's enqueue schedule
*exactly*: the DES run of the ported spec is bit-identical to the
original app's run, on one device and, with a tile -> device map, on
two.  The ports are the only schedules the model paths read, so the
model's answers for an app are its port's, wrapped in the app's own
envelope, and variants without a port stay on the DES.
"""

import pytest

from repro.apps import (
    CholeskyApp,
    HotspotApp,
    KmeansApp,
    MatMulApp,
    NNApp,
    SradApp,
)
from repro.engine import DEFAULT_TOLERANCE, predict_run, predict_runs
from repro.engine.analytic import stream_geometry
from repro.errors import ConfigurationError, ModelUnsupportedError
from repro.parallel import RunSpec, SweepExecutor
from repro.workload import WorkloadApp, WorkloadSpec, workload_of

#: Small geometries of all six apps — every schedule shape the ports
#: must reproduce (dedup'd uploads, pipelines, iterated barriers,
#: explicit task DAGs), at DES-friendly sizes.
APPS = [
    pytest.param(MatMulApp, (600, 16), {}, id="mm"),
    pytest.param(NNApp, (20000, 16), {}, id="nn"),
    pytest.param(KmeansApp, (20000, 8), {"iterations": 3}, id="kmeans"),
    pytest.param(HotspotApp, (256, 8), {"iterations": 3}, id="hotspot"),
    pytest.param(SradApp, (200, 8), {"iterations": 2}, id="srad"),
    pytest.param(CholeskyApp, (720, 9), {}, id="cf"),
]

PLACES = [1, 2, 5, 8]


@pytest.mark.parametrize("app_cls, args, kwargs", APPS)
def test_port_matches_original_on_des_bit_exactly(app_cls, args, kwargs):
    app = app_cls(*args, **kwargs)
    port = WorkloadApp(workload_of(app), spec=app.spec)
    for p in PLACES:
        assert port.run(places=p).elapsed == app.run(places=p).elapsed


def _device_map(places: int, num_devices: int):
    geometry = stream_geometry(places, num_devices)
    return lambda tile: int(geometry.device[tile % geometry.num_streams])


@pytest.mark.parametrize("app_cls, args", [
    pytest.param(MatMulApp, (600, 16), id="mm"),
    pytest.param(CholeskyApp, (720, 9), id="cf"),
])
def test_device_mapped_port_matches_original_on_des(app_cls, args):
    app = app_cls(*args)
    single = workload_of(app)
    remapped = 0
    for p in (2, 5, 8):
        port = workload_of(app, _device_map(p, 2))
        remapped += port != single  # uploads dedup per device
        assert WorkloadApp(port).run(places=p, num_devices=2).elapsed == \
            app.run(places=p, num_devices=2).elapsed
    assert remapped


@pytest.mark.parametrize("app_cls, args, kwargs", APPS)
def test_two_device_port_tracks_des(app_cls, args, kwargs):
    # MatMul and Cholesky get a device-mapped port per point; the other
    # four schedules do not depend on the device layout.
    for p in (2, 5, 8):
        spec = RunSpec.for_app(
            app_cls, *args, places=p, num_devices=2, **kwargs
        )
        assert predict_run(spec).elapsed == pytest.approx(
            spec.execute().elapsed, rel=DEFAULT_TOLERANCE / 5
        )


@pytest.mark.parametrize("app_cls, args, kwargs", APPS)
def test_model_envelope_is_the_apps_own(app_cls, args, kwargs):
    app = app_cls(*args, **kwargs)
    if app.total_flops() == 0:
        # Hotspot, NN and SRAD report no GFLOPS, though their ports'
        # kernels carry flops: an envelope taken from the port would
        # invent one.
        assert workload_of(app).total_flops() > 0
    specs = [
        RunSpec.for_app(app_cls, *args, places=p, **kwargs) for p in PLACES
    ]
    for spec, grid_run in zip(specs, predict_runs(specs)):
        des = spec.execute()
        for run in (predict_run(spec), grid_run):
            assert (run.app, run.tiles) == (des.app, des.tiles)
            if des.gflops is None:
                assert run.gflops is None
            else:
                assert run.gflops == pytest.approx(des.gflops, rel=1e-9)


@pytest.mark.parametrize("app_cls, args, kwargs", APPS)
def test_port_round_trips_through_json(app_cls, args, kwargs):
    w = workload_of(app_cls(*args, **kwargs))
    assert WorkloadSpec.from_json(w.to_json()) == w


def test_iterated_ports_carry_iteration_kwargs():
    few = workload_of(KmeansApp(20000, 8, iterations=2))
    many = workload_of(KmeansApp(20000, 8, iterations=5))
    assert few != many
    assert WorkloadApp(many).run(places=4).elapsed > \
        WorkloadApp(few).run(places=4).elapsed


UNPORTABLE = [
    pytest.param(
        HotspotApp, (256, 8), {"iterations": 2, "halo_sync": "p2p"},
        id="hotspot-p2p",
    ),
    pytest.param(
        CholeskyApp, (720, 9), {"mapping": "round_robin"},
        id="cf-round-robin",
    ),
]


@pytest.mark.parametrize("app_cls, args, kwargs", UNPORTABLE)
def test_unportable_variants_fall_back_to_des(app_cls, args, kwargs):
    specs = [
        RunSpec.for_app(app_cls, *args, places=p, **kwargs) for p in (1, 4)
    ]
    with pytest.raises(ModelUnsupportedError) as info:
        predict_run(specs[0])
    assert not isinstance(info.value, ConfigurationError)
    with pytest.raises(ModelUnsupportedError):
        predict_runs(specs)
    runs = SweepExecutor(jobs=1, engine="hybrid").map(specs)
    assert [run.engine for run in runs] == ["sim"] * len(specs)
    assert [run.elapsed for run in runs] == [
        spec.execute().elapsed for spec in specs
    ]


def test_unportable_variants_are_refused():
    with pytest.raises(ConfigurationError, match="halo"):
        workload_of(HotspotApp(256, 8, iterations=2, halo_sync="p2p"))
    with pytest.raises(ConfigurationError, match="mapping"):
        workload_of(CholeskyApp(720, 9, mapping="round_robin"))
    with pytest.raises(ConfigurationError, match="no workload port"):
        workload_of(object())
