"""Pluggable evaluation engines: DES, analytic model, hybrid, learned.

The public surface (see ``docs/API.md``):

* :data:`~repro.engine.engines.ENGINE_NAMES` / :func:`resolve_engine` —
  the ``engine=`` knob accepted by
  :class:`~repro.parallel.executor.SweepExecutor`, the figure drivers
  and both CLIs;
* :class:`ModelEngine` / :class:`HybridEngine` /
  :class:`~repro.engine.learned.LearnedEngine` — the non-default
  backends (``hybrid`` certifies the model per spec family against a
  simulated calibration subset, within :data:`DEFAULT_TOLERANCE`;
  ``learned`` answers from a corpus-trained ridge behind an
  uncertainty gate, see :mod:`repro.engine.learned` and
  ``docs/LEARNED.md``);
* :func:`~repro.engine.profiles.predict_run` — one-spec analytic
  evaluation of the run's :class:`~repro.workload.WorkloadSpec` (the
  built-in apps through their ports), raising
  :class:`~repro.errors.ModelUnsupportedError` outside the fast path;
* :func:`~repro.engine.grid.predict_grid` /
  :func:`~repro.engine.grid.predict_runs` /
  :class:`~repro.engine.grid.GridPlan` — batch evaluation: a whole
  (P, T, D) sweep lowered to per-family array evaluations, element-wise
  identical to the scalar replay;
* :mod:`repro.engine.analytic` — the vectorized cost-model replicas
  both model paths are built from.
"""

from repro.engine.engines import (
    DEFAULT_CALIBRATION_POINTS,
    DEFAULT_TOLERANCE,
    ENGINE_NAMES,
    HybridEngine,
    ModelEngine,
    resolve_engine,
)
from repro.engine.grid import GridPlan, predict_grid, predict_runs
from repro.engine.learned import (
    DEFAULT_GATE,
    LearnedEngine,
    RidgeModel,
    build_corpus,
    train_model,
)
from repro.engine.profiles import predict_run
from repro.engine.store import (
    DEFAULT_STORE_CAPACITY,
    EngineStore,
    FamilyVerdict,
    family_store_key,
    resolve_store,
)

__all__ = [
    "ENGINE_NAMES",
    "DEFAULT_TOLERANCE",
    "DEFAULT_CALIBRATION_POINTS",
    "DEFAULT_GATE",
    "DEFAULT_STORE_CAPACITY",
    "EngineStore",
    "FamilyVerdict",
    "ModelEngine",
    "HybridEngine",
    "LearnedEngine",
    "RidgeModel",
    "build_corpus",
    "train_model",
    "family_store_key",
    "resolve_engine",
    "resolve_store",
    "predict_run",
    "predict_grid",
    "predict_runs",
    "GridPlan",
]
