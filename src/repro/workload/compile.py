"""Lower a workload spec onto the analytic and grid engines.

Every model path reads a schedule as a :class:`WorkloadSpec`: the six
built-in apps arrive through their ports
(:func:`repro.workload.ports.workload_of`).  Both lowerings walk the
same phase order as :meth:`repro.workload.app.WorkloadApp._execute`
walks on the DES:

* :func:`predict_workload` drives a
  :class:`~repro.engine.analytic.StreamReplay` (the scalar model path,
  called by :func:`repro.engine.profiles.predict_run`);
* :func:`lower_workload` drives the grid path's
  :class:`~repro.engine.grid._FamilyBuilder` (registered in
  :data:`repro.engine.grid._LOWERERS`), recording the schedule once per
  family with streams and costs deferred.

Both take the same steps from :func:`_steps`, which closes phases in
form where that is exact.  A synced phase of dependency-free kernels,
entered with every stream tail equal (right after a global sync, or at
t = 0) and with no first-invocation upload still owed for its kernels,
lasts ``max over streams of sum(dispatch + cost)`` plus its sync
(:func:`repro.engine.analytic.chain_max`), once per repetition.  A
repeated phase entered with staggered tails, or owing an upload,
replays one repetition explicitly and closes the rest.

``tests/workload`` holds the consumers together: grid == scalar
bit-exactly, the closed form == an explicit replay, and both track the
DES within certification tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.engine.analytic import StreamReplay, chain_max, invoke_cost

#: Walk steps: issue one phase's ops, global sync, close repetitions.
_REPLAY, _SYNC, _CLOSE = 0, 1, 2


def _steps(workload, owes=None):
    """The walk both lowerings take: ``(_REPLAY, phase)``,
    ``(_SYNC, None)`` and ``(_CLOSE, ((tiles, kernels), reps))`` steps,
    ending in the harness's final global sync.  ``owes(phase)`` (asked
    after every earlier step was carried out) tells whether a kernel of
    the phase would still pay a first-invocation upload.
    """
    synced = True  # every tail equal and nothing pending
    shapes: dict = {}  # id(ops) -> (tiles, kernels); ports share ops
    for phase in workload.phases:
        ops, reps = phase.ops, phase.repeat
        if phase.sync and id(ops) not in shapes:
            shapes[id(ops)] = all(
                op.kind == "exe" and not op.deps for op in ops
            ) and (
                np.array([op.tile for op in ops], dtype=np.int64),
                np.array([op.kernel for op in ops], dtype=np.int64),
            )
        shape = phase.sync and shapes[id(ops)]
        if not shape:
            for _ in range(reps):
                yield _REPLAY, phase
                if phase.sync:
                    yield _SYNC, None
            synced = phase.sync or (synced and not ops)
            continue
        if not synced or (owes is not None and owes(phase)):
            yield _REPLAY, phase
            yield _SYNC, None
            reps -= 1
            synced = True
        if reps:
            yield _CLOSE, (shape, reps)
    yield _SYNC, None


def predict_workload(app, places: int, num_devices: int) -> float:
    """Replay a :class:`~repro.workload.app.WorkloadApp`'s schedule
    through the scalar analytic model."""
    rep = StreamReplay(places, app.spec, num_devices)
    S = rep.num_streams
    over = app.spec.overheads
    works = app._works
    rows = [invoke_cost(work, rep.geometry, app.spec) for work in works]
    ctable = np.vstack(rows) if rows else np.zeros((0, S))
    names = [work.name for work in works]

    def owes(phase) -> bool:
        return any(
            rep.first_invoke_owed(op.tile % S, names[op.kernel])
            for op in phase.ops
        )

    t = 0.0
    closed: dict = {}
    for step, arg in _steps(
        app.workload, owes if over.first_invoke_extra > 0.0 else None
    ):
        if step == _REPLAY:
            handles: dict = {}
            for op in arg.ops:
                s = op.tile % S
                deps = tuple(handles[d] for d in op.deps)
                if op.kind == "exe":
                    h = rep.invoke(
                        s, rows[op.kernel][s], deps=deps,
                        name=names[op.kernel],
                    )
                else:
                    h = rep.transfer(s, op.nbytes, deps=deps)
                if op.name is not None:
                    handles[op.name] = h
        elif step == _SYNC:
            t = rep.sync_all()
        else:
            (tiles, kernels), reps = arg
            cm = closed.get(id(tiles))
            if cm is None:
                streams = tiles % S
                cm = closed[id(tiles)] = chain_max(
                    streams, ctable[kernels, streams], over.dispatch, S
                )
            t += reps * (cm + S * over.sync_per_stream)
            rep.advance_to(t)
    return t


def lower_workload(app, bld) -> None:
    """Record a workload family into a grid ``_FamilyBuilder``.

    Same steps as :func:`predict_workload` with streams deferred (the
    op's tile is the chain id) and costs deferred (one cost class per
    kernel); the grid evaluator then serves every partition count from
    this one recording.  The grid path refuses first-invocation
    uploads, so no phase owes one here.
    """
    kls = [bld.kernel_class(work) for work in app._works]
    kls_of = np.asarray(kls, dtype=np.int64)
    for step, arg in _steps(app.workload):
        if step == _REPLAY:
            handles: dict = {}
            for op in arg.ops:
                deps = tuple(handles[d] for d in op.deps)
                if op.kind == "exe":
                    h = bld.invoke(op.tile, kls[op.kernel], deps=deps)
                else:
                    h = bld.transfer(op.tile, op.nbytes, deps=deps)
                if op.name is not None:
                    handles[op.name] = h
        elif step == _SYNC:
            bld.sync_all()
        else:
            (tiles, kernels), reps = arg
            bld.closed_form(id(tiles), kls_of[kernels], tiles, reps)
