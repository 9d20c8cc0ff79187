"""``probe_series`` — the engine contract for the fig5/6/7 probes."""

import pytest

from repro.engine import HybridEngine
from repro.errors import ConfigurationError
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.probe_engine import probe_series
from repro.metrics.registry import scoped_registry


XS = [1, 2, 3, 4, 5]


def _sim(x):
    return float(10 * x)


def _model_exact(x):
    return float(10 * x)


def _model_off(x):
    return float(25 * x)


class TestSimAndModel:
    @pytest.mark.parametrize("engine", [None, "sim"])
    def test_sim_uses_probe_and_records_nothing(self, engine):
        with scoped_registry() as registry:
            values = probe_series(engine, XS, _sim, _model_off)
            snapshot = registry.snapshot()
        assert values == [_sim(x) for x in XS]
        assert snapshot.empty()

    def test_model_uses_model_everywhere(self):
        with scoped_registry() as registry:
            values = probe_series("model", XS, _sim, _model_off)
            snapshot = registry.snapshot()
        assert values == [_model_off(x) for x in XS]
        assert snapshot.counter_value(
            "engine.points", backend="model"
        ) == len(XS)


class TestHybrid:
    def test_certifies_and_keeps_simulated_midpoint(self):
        def _model_near(x):
            return _sim(x) * 1.01  # within the 5 % default tolerance

        with scoped_registry() as registry:
            values = probe_series(
                "hybrid", XS, _sim, _model_near, label="probe-test"
            )
            snapshot = registry.snapshot()
        mid = XS[len(XS) // 2]
        for x, value in zip(XS, values):
            expected = _sim(x) if x == mid else _model_near(x)
            assert value == pytest.approx(expected)
        assert snapshot.counter_value("engine.calibration_points") == 1
        assert snapshot.counter_value("engine.families_certified") == 1
        assert snapshot.counter_value(
            "engine.points", backend="model"
        ) == len(XS) - 1
        assert snapshot.counter_value("engine.points", backend="sim") == 1
        assert snapshot.gauge_value(
            "engine.calibration_error", family="probe-test"
        ) == pytest.approx(0.01)

    def test_falls_back_to_sim_when_model_misses(self):
        with scoped_registry() as registry:
            values = probe_series("hybrid", XS, _sim, _model_off)
            snapshot = registry.snapshot()
        assert values == [_sim(x) for x in XS]
        assert snapshot.counter_value("engine.families_fallback") == 1
        assert snapshot.counter_value(
            "engine.points", backend="sim"
        ) == len(XS)

    def test_tolerance_knob(self):
        def _model_near(x):
            return _sim(x) * 1.01

        with scoped_registry() as registry:
            values = probe_series(
                "hybrid", XS, _sim, _model_near, tolerance=0.001
            )
            snapshot = registry.snapshot()
        assert values == [_sim(x) for x in XS]  # 1 % err > 0.1 % tol
        assert snapshot.counter_value("engine.families_fallback") == 1


def test_unknown_engine_rejected():
    with pytest.raises(ConfigurationError):
        probe_series("oracle", XS, _sim, _model_exact)


class TestEngineForms:
    def test_engine_instance_read_by_name(self):
        values = probe_series(HybridEngine(), XS, _sim, _model_off)
        assert values == [_sim(x) for x in XS]  # hybrid fell back

    def test_learned_runs_as_hybrid(self):
        def _model_near(x):
            return _sim(x) * 1.01

        assert probe_series("learned", XS, _sim, _model_near) == (
            probe_series("hybrid", XS, _sim, _model_near)
        )


class TestProbeFiguresFromCli:
    def test_learned_engine(self, tmp_path):
        argv = ["fig5", "fig6", "fig7", "--engine", "learned"]
        argv += ["--results-dir", str(tmp_path)]
        assert experiments_main(argv) == 0

    def test_engine_store_instance(self, tmp_path):
        argv = ["fig5", "--engine", "hybrid"]
        argv += ["--engine-store", str(tmp_path / "s.json")]
        argv += ["--results-dir", str(tmp_path)]
        assert experiments_main(argv) == 0
