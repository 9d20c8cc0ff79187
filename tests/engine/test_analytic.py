"""The analytic model against the DES, app by app.

Each spot check executes the same :class:`RunSpec` through both paths
and bounds the relative error.  Most points agree to float precision —
the replay reproduces the simulator's cost model, dispatch chain, link
lane and sync semantics exactly; the lone documented exception is
same-instant tie-breaking on the transfer lane under dense Cholesky
traffic (sub-percent).
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
from repro.engine import DEFAULT_TOLERANCE, predict_run
from repro.errors import ModelUnsupportedError
from repro.parallel import RunSpec


def _check(spec, rel=1e-9):
    simulated = spec.execute()
    predicted = predict_run(spec)
    assert predicted.engine == "model"
    assert predicted.elapsed == pytest.approx(simulated.elapsed, rel=rel)
    if simulated.gflops is not None:
        assert predicted.gflops == pytest.approx(simulated.gflops, rel=rel)
    return predicted


class TestPredictorsMatchSimulation:
    @pytest.mark.parametrize("places", [1, 4, 13, 56])
    def test_matmul(self, places):
        _check(RunSpec.for_app(MatMulApp, 3000, 36, places=places))

    @pytest.mark.parametrize("places", [1, 8])
    def test_cholesky(self, places):
        # P=8 interleaves enough same-instant lane requests that the
        # replay's tie-breaking can differ from the simulator's; the
        # divergence stays far below the certification tolerance.
        _check(
            RunSpec.for_app(CholeskyApp, 4800, 36, places=places),
            rel=DEFAULT_TOLERANCE / 5,
        )

    def test_cholesky_two_devices(self):
        _check(
            RunSpec.for_app(
                CholeskyApp, 4800, 36, places=8, num_devices=2
            ),
            rel=DEFAULT_TOLERANCE / 5,
        )

    @pytest.mark.parametrize("places", [2, 16])
    def test_kmeans(self, places):
        _check(
            RunSpec.for_app(
                KmeansApp, 280000, 28, places=places, iterations=4
            )
        )

    @pytest.mark.parametrize("places", [4, 37])
    def test_hotspot(self, places):
        _check(
            RunSpec.for_app(
                HotspotApp, 4096, 64, places=places, iterations=3
            )
        )

    @pytest.mark.parametrize("places", [4, 14])
    def test_nn(self, places):
        _check(RunSpec.for_app(NNApp, 1048576, 128, places=places))

    @pytest.mark.parametrize("places", [4, 16])
    def test_srad(self, places):
        _check(
            RunSpec.for_app(
                SradApp, 4000, 100, places=places, iterations=2
            )
        )


class TestFastPathBoundary:
    def test_streams_per_place_unsupported(self):
        spec = RunSpec.for_app(
            MatMulApp, 3000, 36, places=4, streams_per_place=2
        )
        with pytest.raises(ModelUnsupportedError):
            predict_run(spec)

    def test_keep_timeline_unsupported(self):
        spec = RunSpec.for_app(
            MatMulApp, 3000, 36, places=4, keep_timeline=True
        )
        with pytest.raises(ModelUnsupportedError):
            predict_run(spec)

    def test_unknown_app_unsupported(self):
        from repro.apps.hbench import HBench

        spec = RunSpec(app_cls=HBench, places=1)
        with pytest.raises(ModelUnsupportedError):
            predict_run(spec)

    def test_spec_predict_delegates(self):
        spec = RunSpec.for_app(MatMulApp, 3000, 36, places=4)
        assert spec.predict().elapsed == pytest.approx(
            predict_run(spec).elapsed
        )
