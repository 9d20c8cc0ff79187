"""The vectorized grid path: planning, exactness, engine routing.

The grid path's contract is *exact float equality* with the scalar
predictor and bit-identical sweep results through the engines — these
tests pin the routing rules (which specs vectorize, which fall back)
and the equality, family by family.
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
from repro.engine import (
    GridPlan,
    HybridEngine,
    ModelEngine,
    predict_grid,
    predict_run,
    predict_runs,
)
from repro.engine.grid import clear_grid_caches
from repro.errors import ModelUnsupportedError
from repro.metrics.registry import scoped_registry
from repro.parallel import RunSpec, SweepExecutor


@pytest.fixture(autouse=True)
def _fresh_grid_caches():
    clear_grid_caches()
    yield
    clear_grid_caches()


def _mm_specs(places=(1, 2, 4, 8, 13, 28, 56)):
    return [
        RunSpec.for_app(MatMulApp, 3000, 36, places=p) for p in places
    ]


class TestGridPlan:
    def test_partition_sweep_is_one_array_family(self):
        plan = GridPlan.build(_mm_specs())
        assert len(plan.families) == 1
        assert plan.families[0].route == "array"
        assert plan.vectorized_points == 7

    def test_heterogeneous_batch_groups_by_family(self):
        specs = (
            _mm_specs(places=(1, 4))
            + [RunSpec.for_app(NNApp, 65536, 16, places=p) for p in (2, 8)]
            + _mm_specs(places=(8,))
        )
        plan = GridPlan.build(specs)
        assert len(plan.families) == 2
        # Family membership preserves submission indices.
        assert sorted(plan.families[0].indices) == [0, 1, 4]
        assert sorted(plan.families[1].indices) == [2, 3]

    def test_scalar_leftovers_route_past_the_array_path(self):
        specs = [
            # Multi-device topologies are P-dependent: scalar route.
            RunSpec.for_app(CholeskyApp, 2400, 16, places=4, num_devices=2),
            # Supported single-device family: array route.
            RunSpec.for_app(MatMulApp, 3000, 36, places=4),
        ]
        plan = GridPlan.build(specs)
        routes = {
            spec.app_cls.__name__: fam.route
            for fam in plan.families
            for i in fam.indices
            for spec in [specs[i]]
        }
        assert routes == {"CholeskyApp": "scalar", "MatMulApp": "array"}
        runs = plan.predict_runs()
        for spec, run in zip(specs, runs):
            assert run.elapsed == predict_run(spec).elapsed

    def test_unsupported_specs_raise_exactly_like_the_scalar_loop(self):
        specs = [
            RunSpec.for_app(
                MatMulApp, 3000, 36, places=4, streams_per_place=2
            )
        ]
        with pytest.raises(ModelUnsupportedError):
            predict_grid(specs)
        with pytest.raises(ModelUnsupportedError):
            predict_runs(specs)
        # Non-strict: the plan reports None instead of raising.
        assert GridPlan.build(specs).predict_runs(strict=False) == [None]

    def test_empty_batch(self):
        assert predict_grid([]).shape == (0,)
        assert predict_runs([]) == []


class TestExactEquality:
    @pytest.mark.parametrize(
        "spec",
        [
            RunSpec.for_app(MatMulApp, 3000, 36, places=13),
            RunSpec.for_app(NNApp, 1048576, 128, places=14),
            RunSpec.for_app(KmeansApp, 280000, 28, places=16, iterations=4),
            RunSpec.for_app(HotspotApp, 4096, 64, places=37, iterations=3),
            RunSpec.for_app(SradApp, 4000, 100, places=16, iterations=2),
            RunSpec.for_app(CholeskyApp, 4800, 36, places=8),
        ],
        ids=lambda s: s.app_cls.__name__,
    )
    def test_grid_equals_scalar_bitwise(self, spec):
        grid_run = predict_runs([spec])[0]
        scalar_run = predict_run(spec)
        assert grid_run.elapsed == scalar_run.elapsed  # exact, not approx
        assert grid_run.gflops == scalar_run.gflops
        assert grid_run.engine == scalar_run.engine == "model"
        assert grid_run.tiles == scalar_run.tiles

    def test_fig9_partition_sweep_exact(self):
        specs = [
            RunSpec.for_app(MatMulApp, 3000, 36, places=p)
            for p in range(1, 57, 5)
        ]
        grid = predict_grid(specs)
        for x, spec in zip(grid, specs):
            assert x == predict_run(spec).elapsed

    def test_memoized_reevaluation_is_stable(self):
        specs = _mm_specs()
        first = predict_grid(specs)
        again = predict_grid(specs)  # served from the point cache
        assert list(first) == list(again)


class TestEngineRouting:
    def test_model_engine_vectorized_equals_scalar_loop(self):
        specs = _mm_specs()
        with scoped_registry():
            vec = SweepExecutor(jobs=1, engine=ModelEngine()).map(specs)
        plain = [predict_run(spec) for spec in specs]
        for a, b in zip(vec, plain):
            assert a.elapsed == b.elapsed
            assert a.engine == b.engine == "model"

    def test_hybrid_grid_bit_identical_to_pointwise(self):
        # Certified: every point is the scalar prediction, bit for bit,
        # except the calibration points, which report the DES run.
        specs = _mm_specs()
        engine = HybridEngine()
        with scoped_registry():
            grid_runs = SweepExecutor(jobs=1, engine=engine).map(specs)
        calibration = {0, 3, 6}  # the spread picks of 7 points, k=3
        for i, (run, spec) in enumerate(zip(grid_runs, specs)):
            if i in calibration:
                assert run.engine == "sim"
                assert run.elapsed == spec.execute().elapsed
            else:
                assert run.engine == "model"
                assert run.elapsed == predict_run(spec).elapsed

    def test_hybrid_grid_metrics(self):
        specs = _mm_specs()
        with scoped_registry() as registry:
            SweepExecutor(jobs=1, engine="hybrid").map(specs)
            snapshot = registry.snapshot()
        assert snapshot.counter_value(
            "engine.grid.families", route="array"
        ) == 1
        assert snapshot.counter_value(
            "engine.grid.points", route="array"
        ) == len(specs)
        # The three calibration points report simulated results.
        assert snapshot.counter_value(
            "engine.grid.points", route="sim"
        ) == 3

    def test_hybrid_grid_unsupported_family_falls_back(self):
        specs = [
            RunSpec.for_app(
                MatMulApp, 3000, 36, places=p, streams_per_place=2
            )
            for p in (2, 4)
        ]
        with scoped_registry() as registry:
            runs = SweepExecutor(jobs=1, engine="hybrid").map(specs)
            snapshot = registry.snapshot()
        assert all(run.engine == "sim" for run in runs)
        assert snapshot.counter_value("engine.families_fallback") == 1
        assert snapshot.counter_value(
            "engine.grid.points", route="sim"
        ) == len(specs)

    def test_hybrid_grid_failed_certification_falls_back(self, monkeypatch):
        from repro.engine import grid

        real_evaluate = grid._CompiledFamily.evaluate

        def skewed_evaluate(self, places):
            return real_evaluate(self, places) * 1.5

        monkeypatch.setattr(
            grid._CompiledFamily, "evaluate", skewed_evaluate
        )
        specs = _mm_specs(places=(1, 2, 4, 8))
        baseline = SweepExecutor(jobs=1).map(specs)
        with scoped_registry() as registry:
            runs = SweepExecutor(jobs=1, engine="hybrid").map(specs)
            snapshot = registry.snapshot()
        assert all(run.engine == "sim" for run in runs)
        for run, ref in zip(runs, baseline):
            assert run.elapsed == ref.elapsed
        assert snapshot.counter_value("engine.families_fallback") == 1
        assert snapshot.gauge_value(
            "engine.calibration_error", family="matmulapp-d1-s1"
        ) == pytest.approx(0.5, rel=1e-6)

    def test_model_engine_emits_grid_metrics(self):
        specs = _mm_specs()
        with scoped_registry() as registry:
            SweepExecutor(jobs=1, engine="model").map(specs)
            snapshot = registry.snapshot()
        assert snapshot.counter_value(
            "engine.grid.points", route="array"
        ) == len(specs)
        assert (
            snapshot.counter_value("engine.points", backend="model")
            == len(specs)
        )
