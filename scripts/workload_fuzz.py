#!/usr/bin/env python
"""Workload-corpus tooling: fuzz smoke and golden regeneration.

Fuzz smoke (CI runs this with ``--count 50``)::

    PYTHONPATH=src python scripts/workload_fuzz.py --count 50

Generates ``count`` seeded scenarios cycling over every distribution,
and checks each one end to end: spec validation, JSON round-trip
identity, fingerprint stability, scalar model == grid path bit for bit
over a partition axis (both close repeated kernel phases in form), and
a short DES run.  Exits non-zero on the first violation.

Golden regeneration (after an *intentional* cost-model change)::

    PYTHONPATH=src python scripts/workload_fuzz.py --write-corpus

Rewrites ``tests/data/scenarios/*.json`` and the pinned DES makespans
in ``tests/data/scenarios/golden_makespans.json`` that
``tests/workload/test_golden_scenarios.py`` asserts against.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.device.calibration import model_fingerprint  # noqa: E402
from repro.device.spec import PHI_31SP  # noqa: E402
from repro.engine import GridPlan, predict_run  # noqa: E402
from repro.parallel import RunSpec  # noqa: E402
from repro.workload import (  # noqa: E402
    ScenarioGenerator,
    WorkloadApp,
    WorkloadSpec,
)

SCENARIO_DIR = REPO / "tests" / "data" / "scenarios"
GOLDEN_FILE = SCENARIO_DIR / "golden_makespans.json"

#: The checked-in corpus: size, seed, and the partition counts whose
#: DES makespans are pinned.
CORPUS_SIZE = 12
CORPUS_SEED = 0
GOLDEN_PLACES = (1, 2, 4, 8)

#: Partition counts the scalar and grid model answers are compared at.
FUZZ_PLACES = (1, 2, 3, 5, 8, 13, 56)


def fuzz(count: int, seed: int) -> int:
    gen = ScenarioGenerator(seed=seed)
    for i, w in enumerate(gen.corpus(count)):
        back = WorkloadSpec.from_json(w.to_json())
        if back != w:
            print(f"FAIL {w.name}: JSON round-trip is not identity")
            return 1
        if back.fingerprint() != w.fingerprint():
            print(f"FAIL {w.name}: fingerprint changed in round-trip")
            return 1
        specs = [RunSpec.for_workload(w, places=p) for p in FUZZ_PLACES]
        plan = GridPlan.build(specs)
        if plan.vectorized_points != len(specs):
            print(f"FAIL {w.name}: the grid path refused the scenario")
            return 1
        grid = [run.elapsed for run in plan.predict_runs()]
        scalar = [predict_run(spec).elapsed for spec in specs]
        if grid != scalar:
            print(f"FAIL {w.name}: grid {grid} != scalar {scalar}")
            return 1
        elapsed = WorkloadApp(w).run(places=2).elapsed
        if not elapsed > 0:
            print(f"FAIL {w.name}: non-positive DES makespan {elapsed}")
            return 1
        print(f"ok {i + 1:3d}/{count} {w.name} ({w.fingerprint()})")
    print(
        f"fuzzed {count} scenarios: all valid, round-trip clean, "
        "grid == scalar"
    )
    return 0


def write_corpus() -> int:
    SCENARIO_DIR.mkdir(parents=True, exist_ok=True)
    for stale in SCENARIO_DIR.glob("*.json"):
        stale.unlink()
    golden: dict = {
        "model_fingerprint": model_fingerprint(PHI_31SP),
        "places": list(GOLDEN_PLACES),
        "makespans": {},
    }
    for w in ScenarioGenerator(seed=CORPUS_SEED).corpus(CORPUS_SIZE):
        path = SCENARIO_DIR / f"{w.name}.json"
        path.write_text(w.to_json(indent=2) + "\n", encoding="utf-8")
        app = WorkloadApp(w)
        golden["makespans"][w.fingerprint()] = {
            "scenario": w.name,
            "elapsed": [app.run(places=p).elapsed for p in GOLDEN_PLACES],
        }
        print(f"wrote {path.relative_to(REPO)} ({w.fingerprint()})")
    GOLDEN_FILE.write_text(
        json.dumps(golden, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_FILE.relative_to(REPO)}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--count", type=int, default=50, metavar="N",
        help="scenarios to fuzz (default 50)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="generator seed (default 0)"
    )
    parser.add_argument(
        "--write-corpus", action="store_true",
        help="regenerate tests/data/scenarios/ and the golden makespans "
        "instead of fuzzing",
    )
    args = parser.parse_args(argv)
    if args.write_corpus:
        return write_corpus()
    return fuzz(args.count, args.seed)


if __name__ == "__main__":
    sys.exit(main())
