"""Declarative streamed workloads: spec, generator, and lowerings.

The workload DSL describes a streamed scenario — phases of tile-tagged
transfer/kernel ops with optional same-phase dependencies — as plain
data.  It is the one schedule description the engines read: one spec
drives all three.  :class:`WorkloadApp` runs it on the DES,
:func:`~repro.workload.compile.predict_workload` replays it through the
scalar analytic model, and
:func:`~repro.workload.compile.lower_workload` records it once into the
grid path's family builder.  :func:`workload_of` re-derives the six
built-in apps as specs, which is how the model paths see them;
:class:`ScenarioGenerator` draws reproducible random scenarios for
fuzzing and corpus generation.
"""

from repro.workload.app import WorkloadApp
from repro.workload.compile import lower_workload, predict_workload
from repro.workload.generator import DISTRIBUTIONS, ScenarioGenerator
from repro.workload.ports import workload_of
from repro.workload.spec import (
    OP_KINDS,
    SCHEMA_VERSION,
    KernelSpec,
    OpSpec,
    PhaseSpec,
    WorkloadSpec,
)

# Register the grid lowering.  Every app reaches the grid path as a
# WorkloadApp (the built-in apps through their ports), so this is the
# grid's only lowerer.  The import runs in this direction (workload ->
# engine) because workload.compile already depends on engine.analytic;
# the engine imports this package lazily before it compiles a family,
# so the registration is in place before any lowering is looked up.
from repro.engine import grid as _grid

_grid._LOWERERS[WorkloadApp] = lower_workload
del _grid

__all__ = [
    "DISTRIBUTIONS",
    "KernelSpec",
    "OP_KINDS",
    "OpSpec",
    "PhaseSpec",
    "SCHEMA_VERSION",
    "ScenarioGenerator",
    "WorkloadApp",
    "WorkloadSpec",
    "workload_of",
]
