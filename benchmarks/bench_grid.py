"""Vectorized grid-path benches (fig9-mm full grid, P=1..56).

Times the full 56-point MM partition sweep (D=6000, T=144 — the fig9a
full geometry) through the hybrid engine on a shared warm simulation
cache: the steady-state re-sweep that dominates the autotune / ML-tuner
workloads, where calibration is amortized and the per-point analytic
evaluation is the whole cost.

``test_fig9_mm_scalar_pointwise`` is the per-point baseline: a bare
scalar ``predict_run`` loop, one replay per grid point, with no engine
routing around it.  ``test_fig9_mm_hybrid_grid`` is the hybrid sweep
answered from per-family array evaluations; it asserts the >= 20x
speedup over that loop documented in ``docs/PERF.md`` and records it (plus the exactly-zero worst per-point relative error vs the scalar
predictor, asserted in ``test_fig9_mm_grid_predict``) in the committed
``BENCH_grid.json`` baseline; ``scripts/bench_compare.py --suite grid``
guards it against regression.
"""

import time

from repro.apps import MatMulApp
from repro.engine import HybridEngine, predict_grid, predict_run
from repro.engine.grid import clear_grid_caches
from repro.parallel import RunSpec, SimulationCache, SweepExecutor

FULL_GRID = list(range(1, 57))

#: The >= bar for the grid-routed hybrid sweep over the scalar loop.
TARGET_SPEEDUP = 20.0


def _specs():
    return [
        RunSpec.for_app(MatMulApp, 6000, 144, places=p) for p in FULL_GRID
    ]


def _sweep(engine, cache):
    executor = SweepExecutor(cache=cache, engine=engine)
    runs = executor.map(_specs())
    assert len(runs) == len(FULL_GRID)
    assert all(run.elapsed > 0 for run in runs)
    return runs


def _warm_cache():
    """One cold vectorized sweep: fills the calibration entries in the
    simulation cache and the compiled-family/point caches."""
    cache = SimulationCache()
    _sweep(HybridEngine(), cache)
    return cache


def _scalar_loop():
    runs = [predict_run(spec) for spec in _specs()]
    assert all(run.elapsed > 0 for run in runs)
    return runs


def test_fig9_mm_scalar_pointwise(benchmark):
    """The per-point baseline: one scalar ``predict_run`` per point."""
    benchmark.pedantic(
        _scalar_loop, rounds=3, iterations=1, warmup_rounds=0,
    )


def test_fig9_mm_hybrid_grid(benchmark):
    """Grid routing on the same warm cache — and the speedup gate."""
    cache = _warm_cache()
    pointwise = min(_timed(_scalar_loop) for _ in range(3))
    benchmark.pedantic(
        lambda: _sweep(HybridEngine(), cache),
        rounds=5, iterations=1, warmup_rounds=1,
    )
    grid_mean = benchmark.stats.stats.mean
    speedup = pointwise / grid_mean
    benchmark.extra_info["pointwise_seconds"] = pointwise
    benchmark.extra_info["speedup_vs_pointwise"] = speedup
    assert speedup >= TARGET_SPEEDUP, (
        f"grid routing {speedup:.1f}x over the scalar loop, "
        f"expected >= {TARGET_SPEEDUP:.0f}x"
    )


def test_fig9_mm_hybrid_grid_cold(benchmark):
    """Honest cold cost: fresh simulation cache and fresh family
    compile every round (calibration sims included)."""

    def cold_sweep():
        clear_grid_caches()
        return _sweep(HybridEngine(), SimulationCache())

    benchmark.pedantic(cold_sweep, rounds=3, iterations=1, warmup_rounds=0)


def test_fig9_mm_grid_predict(benchmark):
    """Pure analytic grid evaluation (warm), plus the accuracy
    contract: worst per-point relative error vs scalar ``predict_run``
    is exactly zero."""
    specs = _specs()
    predict_grid(specs)  # warm the compile/point caches
    grid = benchmark.pedantic(
        lambda: predict_grid(specs),
        rounds=10, iterations=1, warmup_rounds=0,
    )
    scalar = [predict_run(spec).elapsed for spec in specs]
    worst = max(
        abs(g - s) / s for g, s in zip(grid, scalar)
    )
    benchmark.extra_info["worst_rel_err_vs_scalar"] = worst
    assert worst == 0.0


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
