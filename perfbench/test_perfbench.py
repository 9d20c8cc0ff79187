"""Self-test of the benchmark: a short run of every workload.

Run from the checkout root with ``python -m pytest perfbench -q``
(about three minutes; not part of the tier-1 suite).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=180,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in declared}
    return result["metrics"]


def test_host_clock_scales_wall_time_by_the_chunk_speed():
    sys.path.insert(0, str(HERE))
    import hostclock

    # A host at half the nominal speed: its chunk takes twice as long,
    # so its clock runs at half the wall rate, chunks not counted.
    clock = hostclock.HostClock(lambda: 2 * hostclock.REF_CHUNK_S)
    time.sleep(0.05)
    clock.tick()
    start, wall = clock.now(), time.perf_counter()
    time.sleep(0.2)
    took, wall = clock.now() - start, time.perf_counter() - wall
    assert took == pytest.approx(wall / 2, rel=0.05)
    assert clock.now() == pytest.approx(0.025 + wall / 2, abs=0.01)


def test_workloads_match_the_declared_ones():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == ["des-fig9", "grid-sweep", "serve-mix"]


@pytest.mark.parametrize("workload", ["des-fig9", "grid-sweep", "serve-mix"])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = _result(workload, 0)
    assert all(m["value"] > 0 for m in metrics.values())


# grid-sweep's traced cold certification: (6 apps + 18 scenarios) x 3
# calibration points; the server starts on an already warm store.
@pytest.mark.parametrize(
    "workload, calibration", [("grid-sweep", 72), ("serve-mix", 0)]
)
def test_traced_run_shows_no_des_in_the_timed_phase(workload, calibration):
    metrics = _result(workload, 1)
    assert metrics["sim.des_runs"]["value"] == 0
    assert metrics["sim.events"]["value"] == 0
    assert metrics["engine.store.hit_ratio"]["value"] == 1.0
    assert metrics["engine.calibration.des_runs"]["value"] == calibration


def test_traced_des_fig9_counts_every_simulated_event():
    metrics = _result("des-fig9", 1)
    assert metrics["sim.des_runs"]["value"] == 78
    assert metrics["sim.events"]["value"] > 0
    assert metrics["engine.learned.answered_ratio"]["value"] > 0


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run("grid-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
