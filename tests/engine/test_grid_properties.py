"""Property test: ``predict_grid`` is *exactly* ``predict_run``.

Both paths read each app's workload-spec port, the grid path as a
lowered recording; any drift between the two — a reordered float add,
a differently closed phase, a wrong tie-break on the transfer lane —
shows up as a bitwise inequality somewhere in the (P, T, D) space.  Hypothesis
walks that space across all six app profiles and demands exact float
equality (``==``, never ``approx``) at every point.
"""

from hypothesis import given, settings

from repro.engine import predict_run, predict_runs
from tests.strategies import spec_grids


@settings(max_examples=30, deadline=None)
@given(specs=spec_grids)
def test_predict_grid_is_elementwise_identical_to_predict_run(specs):
    grid_runs = predict_runs(specs)
    for spec, grid_run in zip(specs, grid_runs):
        scalar_run = predict_run(spec)
        assert grid_run.elapsed == scalar_run.elapsed
        assert grid_run.gflops == scalar_run.gflops
        assert grid_run.app == scalar_run.app
        assert grid_run.places == scalar_run.places
        assert grid_run.tiles == scalar_run.tiles
        assert grid_run.engine == scalar_run.engine == "model"
