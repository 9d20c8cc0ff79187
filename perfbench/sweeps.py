"""One process of the des-fig9 or grid-sweep workload.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/sweeps.py WORKLOAD --seed N --seconds S --trace 0|1
        --work DIR [--setup-only]
    python perfbench/sweeps.py warm-store --work DIR
    python perfbench/sweeps.py des-fig9 --work DIR --write-reference

The process sets up, prints ``READY`` on stdout, and with
``--setup-only`` exits there: the harness times process start to that
line, scaled to nominal host speed by the ratio the line carries, as
``setup_s``.  Otherwise it runs whole passes until ``S`` seconds of
pass time have been spent, checks every answer, and prints one JSON
line with its measurements.  Every time is read on a
:class:`hostclock.HostClock`, ticked before each request and each
simulator run.  ``--trace 1`` spends half the
time untraced and half traced, and reports the per-layer summary plus
the tracing overhead.  ``warm-store`` is grid-sweep's cold
certification alone (serve-mix's store warm-up).  ``--write-reference``
re-records the des-fig9 digest file after a deliberate change to the
simulator.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import statistics
import sys
import time
from pathlib import Path

import common
import hostclock
import tracing

REFERENCE = Path(__file__).resolve().parent / "fig9_reference.json"

#: Grid-sweep answers re-checked against the scalar predictor.
CHECK_SAMPLE = 48


def learned_errors(specs, reference, cache=None, store=None) -> dict:
    """The learned tier's answers for ``specs`` against ``reference``
    elapsed seconds: |error| percentiles over the points it labelled
    ``learned`` (the rest went to its hybrid fallback)."""
    from repro.engine.learned import LearnedEngine
    from repro.parallel import SweepExecutor

    executor = SweepExecutor(
        jobs=1, cache=cache, engine=LearnedEngine(store=store)
    )
    runs = executor.map(specs)
    errors = [
        100.0 * abs(run.elapsed - ref) / ref
        for run, ref in zip(runs, reference)
        if run.engine == "learned"
    ]
    if not errors:
        raise RuntimeError("the learned tier answered none of the points")
    return {
        "learned_err_p50_pct": statistics.median(errors),
        "learned_err_max_pct": max(errors),
    }


class SweepWorkload:
    """Passes of requests, each request one sweep of one family.

    Every request is timed on the workload's :class:`HostClock`, ticked
    just before it.  Subclasses set ``points_per_request`` and implement
    ``requests``, ``send``, ``begin_pass``, ``check`` and ``learned``.
    """

    points_per_request: int

    def __init__(self, clock: hostclock.HostClock) -> None:
        self.clock = clock
        #: Seconds of each request, one list per pass.
        self.pass_latencies: list[list[float]] = []
        self.failed = 0
        self.hook()

    def hook(self) -> None:
        """Tick the clock before every simulator run too."""
        hostclock.hook_execute(self.clock)

    @property
    def points(self) -> int:
        return self.points_per_request * sum(map(len, self.pass_latencies))

    def run_pass(self) -> float:
        """One pass; returns its seconds."""
        self.begin_pass()
        clock = self.clock
        latencies = []
        for request in self.requests():
            clock.tick()
            start = clock.now()
            self.send(request)
            latencies.append(clock.now() - start)
        self.pass_latencies.append(latencies)
        return sum(latencies)

    def run_for(self, seconds: float) -> None:
        """Whole passes, as many as fit ``seconds`` best (at least one),
        so the pass count does not flip with small speed changes."""
        start = len(self.pass_latencies)
        busy = self.run_pass()
        while busy + busy / (len(self.pass_latencies) - start) / 2 < seconds:
            busy += self.run_pass()

    def steady_latencies(self, passes: "slice" = slice(None)) -> list[float]:
        """Each request's median seconds across ``passes``, so a stall in
        one pass (a garbage-collector pause landing on a request) moves
        the run's figures less than plain totals would."""
        per_request = zip(*self.pass_latencies[passes])
        return [statistics.median(lats) for lats in per_request]

    def point_latencies(self) -> list[float]:
        """Seconds per point: each request's steady share."""
        return [
            lat / self.points_per_request for lat in self.steady_latencies()
        ]

    def metrics(self) -> dict:
        """Throughput, and latency percentiles over points and requests,
        all from steady times."""
        latencies = self.steady_latencies()
        steady = sum(latencies)
        n_requests = len(latencies)
        per_point = self.point_latencies()
        values = {
            "points_per_s": n_requests * self.points_per_request / steady,
            "requests_per_s": n_requests / steady,
            "predict_p50_ms": 1e3 * common.percentile(per_point, 50),
            "predict_p90_ms": 1e3 * common.percentile(per_point, 90),
            "sweep_p50_ms": 1e3 * common.percentile(latencies, 50),
        }
        values.update(self.learned())
        return values


# -- des-fig9 ----------------------------------------------------------------


def _digest(values) -> str:
    text = "\n".join(repr(float(v)) for v in values)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class Fig9(SweepWorkload):
    """Fig. 9 passes, one fig9 CLI invocation per panel, simulator
    only, simulation cache emptied before each pass.  Each of a pass's
    78 simulator runs is timed on its own (``point_latencies``)."""

    def __init__(self, seed: int, work: Path, clock) -> None:
        #: Seconds of every simulator run, one list per pass.
        self.run_times: list[list[float]] = [[]]
        super().__init__(clock)
        from repro.apps import MatMulApp
        from repro.engine.learned.engine import default_model
        from repro.experiments.__main__ import main
        from repro.experiments.fig9_partition_sweep import FAST_PARTITIONS
        from repro.parallel import RunSpec, shared_cache
        from repro.serve.api import APP_PROFILES

        self.cli = main
        self.cache = shared_cache()
        self.points_per_request = len(FAST_PARTITIONS)
        # The 78 points the CLI builds (caption geometry), panel order.
        self.specs = [
            APP_PROFILES[app].spec(p, None, None)
            for app in common.APPS
            for p in FAST_PARTITIONS
        ]
        self.results_dir = str(work / "results")
        # The seed orders the panels; the points are the paper's own.
        self.order = list(common.APPS)
        random.Random(seed).shuffle(self.order)
        clock.tick()
        default_model()
        RunSpec.for_app(MatMulApp, 1200, 16, places=4).execute()

    def hook(self) -> None:
        hostclock.hook_execute(self.clock, self._on_run)

    def _on_run(self, seconds: float) -> None:
        self.run_times[-1].append(seconds)

    def begin_pass(self) -> None:
        self.cache.clear()
        if self.pass_latencies:
            self.run_times.append([])
        else:
            self.run_times = [[]]  # drop the set-up's warm-up run

    def point_latencies(self) -> list[float]:
        return [t for times in self.run_times for t in times]

    def requests(self):
        return self.order

    def send(self, app: str) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.cli(
                ["fig9", "--app", app, "--engine", "sim",
                 "--results-dir", self.results_dir, "--run-name", "fig9"]
            )
        if rc != 0 or "[FAIL]" in out.getvalue():
            self.failed += self.points_per_request

    def elapsed(self) -> list[float]:
        """Simulated seconds of every point of the last pass."""
        return [self.cache.get(spec).elapsed for spec in self.specs]

    def check(self) -> None:
        got = self.elapsed()
        reference = json.loads(REFERENCE.read_text())
        if _digest(got) != reference["digest"]:
            self.failed += sum(
                a != b for a, b in zip(got, reference["elapsed"])
            ) or len(got)

    def learned(self) -> dict:
        return learned_errors(self.specs, self.elapsed(), self.cache)


# -- grid-sweep --------------------------------------------------------------


def grid_families() -> list[tuple[str, list]]:
    """The 24 app families plus ``SCENARIOS`` generated scenarios, each
    over the full partition axis."""
    from repro.parallel import RunSpec
    from repro.serve.api import APP_PROFILES
    from repro.workload import ScenarioGenerator

    families = [
        (f"{app}-T{t}", [APP_PROFILES[app].spec(p, t, None) for p in common.P_AXIS])
        for app, tiles in common.TILES.items()
        for t in tiles
    ]
    generator = ScenarioGenerator(common.SCENARIO_SEED)
    for spec in generator.corpus(common.SCENARIOS):
        families.append(
            (spec.name, [RunSpec.for_workload(spec, places=p) for p in common.P_AXIS])
        )
    return families


def warm_store(store: Path, clock=None) -> list[tuple[str, list]]:
    """Cold certification: one hybrid sweep of every family into a new
    store file (the DES calibration runs happen here), ticking
    ``clock`` before each family."""
    from repro.engine import HybridEngine
    from repro.parallel import SimulationCache, SweepExecutor

    if store.exists():
        store.unlink()
    families = grid_families()
    executor = SweepExecutor(
        jobs=1, cache=SimulationCache(), engine=HybridEngine(store=str(store))
    )
    for _name, specs in families:
        if clock is not None:
            clock.tick()
        executor.map(specs)
    return families


class GridSweep(SweepWorkload):
    """Warm hybrid sweeps over a certified store, each pass with the
    compile cache cleared and a new executor, like a fresh CLI."""

    points_per_request = len(common.P_AXIS)

    def __init__(self, seed: int, work: Path, clock) -> None:
        super().__init__(clock)
        from repro.engine.learned.engine import default_model

        self.seed = seed
        self.store = work / "store.json"
        self.families = warm_store(self.store, clock)
        # The seed orders the families and picks the checked sample.
        random.Random(seed).shuffle(self.families)
        clock.tick()
        default_model()
        self.answers: list = []

    def begin_pass(self) -> None:
        from repro.engine import HybridEngine
        from repro.engine.grid import clear_grid_caches
        from repro.parallel import SimulationCache, SweepExecutor

        clear_grid_caches()
        self.executor = SweepExecutor(
            jobs=1,
            cache=SimulationCache(),
            engine=HybridEngine(store=str(self.store)),
        )
        self.answers = []

    def requests(self):
        return [specs for _name, specs in self.families]

    def send(self, specs) -> None:
        runs = self.executor.map(specs)
        # A certified family answers every point from the model;
        # anything else means the DES ran in the timed phase.
        self.failed += sum(run.engine != "model" for run in runs)
        self.answers.extend(zip(specs, runs))

    def check(self) -> None:
        from repro.engine.profiles import predict_run

        rng = random.Random(self.seed)
        for spec, run in rng.sample(self.answers, CHECK_SAMPLE):
            want = predict_run(spec)
            if (want.elapsed, want.gflops) != (run.elapsed, run.gflops):
                self.failed += 1

    def learned(self) -> dict:
        # The app families at Fig. 9's partition counts: the same
        # points for every seed.
        from repro.experiments.fig9_partition_sweep import FAST_PARTITIONS

        apps = [
            (spec, run) for spec, run in self.answers
            if spec.app_cls.__name__ != "WorkloadApp"
            and spec.places in FAST_PARTITIONS
        ]
        return learned_errors(
            [spec for spec, _run in apps],
            [run.elapsed for _spec, run in apps],
            store=str(self.store),
        )


WORKLOADS = {"des-fig9": Fig9, "grid-sweep": GridSweep}


def ready(clock: hostclock.HostClock) -> None:
    """Tell the harness set-up is done: ``READY`` with this process's
    wall and nominal-speed seconds so far, the ratio it scales its own
    start-to-READY time by."""
    clock.tick()
    print(f"READY {clock.wall()!r} {clock.now()!r}", flush=True)


def run(args, clock: hostclock.HostClock) -> dict:
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    if args.workload == "warm-store":
        hostclock.hook_execute(clock)
        warm_store(work / "store.json", clock)
        ready(clock)
        return {}
    workload = WORKLOADS[args.workload](args.seed, work, clock)
    ready(clock)
    if args.setup_only:
        return {}
    if not args.trace:
        workload.run_for(args.seconds)
        workload.check()
        values = workload.metrics()
        values["peak_rss_mb"] = common.peak_rss_mb()
        return {
            "values": values,
            "attempted": workload.points,
            "failed": workload.failed,
            "detail": {
                "passes": len(workload.pass_latencies),
                "chunk_ms_p50": clock.median_chunk_ms(),
            },
        }

    workload.run_for(args.seconds / 2)
    untraced = slice(0, len(workload.pass_latencies))
    tracer = tracing.Tracer()
    # The clock's tick stays outside the traced simulator span.
    hostclock.unhook_execute()
    tracing.install(tracer)
    workload.hook()
    traced_start = time.perf_counter()
    if args.workload == "grid-sweep":
        # A traced cold certification, for the set-up's DES counts.
        warm_store(work / "traced-store.json")
    timed_start = time.perf_counter()
    workload.run_for(args.seconds / 2)
    timed_end = time.perf_counter()
    traced = slice(untraced.stop, None)
    workload.check()
    check_start = time.perf_counter()
    workload.learned()
    layers = tracing.summarise(tracer.spans, timed_start, timed_end)
    accuracy = tracing.summarise(tracer.spans, check_start)
    for name in ("engine.learned.answered_ratio", "engine.learned.predict_ms"):
        layers[name] = accuracy[name]
    layers["engine.calibration.des_runs"] = tracing.summarise(
        tracer.spans, traced_start
    )["engine.calibration.des_runs"]
    layers["trace.overhead_pct"] = 100.0 * (
        sum(workload.steady_latencies(traced))
        / sum(workload.steady_latencies(untraced))
        - 1.0
    )
    return {
        "values": layers,
        "attempted": workload.points,
        "failed": workload.failed,
        "detail": {"passes": len(workload.pass_latencies)},
    }


def write_reference(work: Path) -> None:
    """Record every Fig. 9 point's simulated elapsed from one pass."""
    fig9 = Fig9(0, work, hostclock.HostClock())
    fig9.run_pass()
    elapsed = fig9.elapsed()
    REFERENCE.write_text(
        json.dumps({"digest": _digest(elapsed), "elapsed": elapsed}, indent=1)
        + "\n"
    )


def main(argv=None) -> int:
    # First, so the set-up's imports are timed on it too.
    clock = hostclock.HostClock()
    clock.tick()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=[*WORKLOADS, "warm-store"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference:
        write_reference(Path(args.work))
        return 0
    result = run(args, clock)
    if result:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
