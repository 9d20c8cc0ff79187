"""Closed-form phases against an explicit replay.

:func:`repro.workload.compile.predict_workload` closes synced phases of
dependency-free kernels in form instead of replaying them action by
action.  The reference here is the plain walk the closed form replaces:
every repetition of every phase issued through a
:class:`~repro.engine.analytic.StreamReplay`, in
:meth:`~repro.workload.spec.WorkloadSpec.expanded_phases` order.  The
two must agree to float rounding, with and without first-invocation
uploads, and the closed form must actually be taken.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import HotspotApp, KmeansApp, SradApp
from repro.device.spec import PHI_31SP, RuntimeOverheads
from repro.engine import predict_run
from repro.engine.analytic import StreamReplay, invoke_cost
from repro.parallel import RunSpec
from repro.workload import (
    DISTRIBUTIONS,
    ScenarioGenerator,
    WorkloadApp,
    predict_workload,
    workload_of,
)
from repro.workload import compile as compile_mod
from tests.strategies import workload_specs

#: A device spec whose kernels pay a one-off upload on first invocation.
WARM = PHI_31SP.with_overrides(
    overheads=RuntimeOverheads(first_invoke_extra=1.5e-3)
)

SPECS = [pytest.param(PHI_31SP, id="cold"), pytest.param(WARM, id="warm")]

#: The iterated apps: repeated phases entered synced (Hotspot, SRAD)
#: and with staggered tails (Kmeans after its unsynced upload).
ITERATED = [
    pytest.param(KmeansApp, (20000, 8), {"iterations": 4}, id="kmeans"),
    pytest.param(KmeansApp, (30000, 7), {"iterations": 1}, id="kmeans-1"),
    pytest.param(HotspotApp, (256, 8), {"iterations": 5}, id="hotspot"),
    pytest.param(HotspotApp, (320, 5), {"iterations": 1}, id="hotspot-1"),
    pytest.param(SradApp, (200, 8), {"iterations": 3}, id="srad"),
    pytest.param(SradApp, (300, 7), {"iterations": 1}, id="srad-1"),
]

PLACES = (1, 2, 3, 5, 8, 13)


def explicit_replay(app: WorkloadApp, places: int) -> float:
    """Every repetition of every phase, action by action."""
    rep = StreamReplay(places, app.spec)
    costs = [invoke_cost(work, rep.geometry, app.spec) for work in app._works]
    for phase in app.workload.expanded_phases():
        handles: dict = {}
        for op in phase.ops:
            s = op.tile % rep.num_streams
            deps = tuple(handles[d] for d in op.deps)
            if op.kind == "exe":
                h = rep.invoke(
                    s, costs[op.kernel][s], deps=deps,
                    name=app._works[op.kernel].name,
                )
            else:
                h = rep.transfer(s, op.nbytes, deps=deps)
            if op.name is not None:
                handles[op.name] = h
        if phase.sync:
            rep.sync_all()
    return rep.sync_all()


def assert_closed_equals_explicit(app: WorkloadApp) -> None:
    for p in PLACES:
        assert predict_workload(app, p, 1) == pytest.approx(
            explicit_replay(app, p), rel=1e-12
        )


@settings(max_examples=40, deadline=None)
@given(workload=workload_specs(), warm=st.booleans())
def test_closed_form_equals_explicit_replay(workload, warm):
    assert_closed_equals_explicit(
        WorkloadApp(workload, spec=WARM if warm else PHI_31SP)
    )


@settings(max_examples=30, deadline=None)
@given(
    distribution=st.sampled_from(sorted(DISTRIBUTIONS)),
    seed=st.integers(min_value=0, max_value=10**6),
    warm=st.booleans(),
)
def test_generated_scenarios_close_exactly(distribution, seed, warm):
    workload = ScenarioGenerator(seed).generate(distribution, 0)
    assert_closed_equals_explicit(
        WorkloadApp(workload, spec=WARM if warm else PHI_31SP)
    )


def test_multi_phase_scenarios_repeat_phases():
    # The distribution the closed form exists for really repeats.
    gen = ScenarioGenerator(seed=3)
    workloads = [gen.generate("multi_phase", i) for i in range(5)]
    assert all(
        any(phase.repeat > 1 for phase in w.phases) for w in workloads
    )
    for w in workloads:
        assert_closed_equals_explicit(WorkloadApp(w))


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("app_cls, args, kwargs", ITERATED)
def test_iterated_ports_close_exactly(app_cls, args, kwargs, spec):
    app = app_cls(*args, spec=spec, **kwargs)
    assert_closed_equals_explicit(
        WorkloadApp(workload_of(app), spec=spec)
    )


@pytest.mark.parametrize(
    "app_cls, args, kwargs, spec, kernels",
    [
        # Entered synced, nothing owed: every iteration closed.
        (HotspotApp, (256, 8), {"iterations": 50}, PHI_31SP, 0),
        (SradApp, (200, 8), {"iterations": 20}, PHI_31SP, 0),
        # Staggered entry: one iteration replayed, the rest closed.
        (KmeansApp, (20000, 8), {"iterations": 50}, PHI_31SP, 8),
        # Uploads owed: one iteration (per phase) replayed.
        (HotspotApp, (256, 8), {"iterations": 50}, WARM, 8),
        (SradApp, (200, 8), {"iterations": 20}, WARM, 16),
    ],
    ids=["hotspot", "srad", "kmeans", "hotspot-warm", "srad-warm"],
)
def test_closed_form_is_taken(
    monkeypatch, app_cls, args, kwargs, spec, kernels
):
    invoked = []

    class Counting(StreamReplay):
        def invoke(self, stream, cost, deps=(), name=None):
            invoked.append(name)
            return super().invoke(stream, cost, deps=deps, name=name)

    monkeypatch.setattr(compile_mod, "StreamReplay", Counting)
    app = app_cls(*args, spec=spec, **kwargs)
    predict_workload(WorkloadApp(workload_of(app), spec=spec), 4, 1)
    assert len(invoked) == kernels


@pytest.mark.parametrize("places", [2, 5, 16])
@pytest.mark.parametrize("app_cls, args, kwargs", ITERATED)
def test_first_invocation_uploads_track_des(app_cls, args, kwargs, places):
    # Dropping the upload charges from a closed phase shifts the answer
    # by whole milliseconds, far outside this bound.
    spec = RunSpec.for_app(app_cls, *args, places=places, spec=WARM, **kwargs)
    simulated = spec.execute()
    predicted = predict_run(spec)
    assert predicted.elapsed == pytest.approx(simulated.elapsed, rel=1e-9)
