"""The repository's benchmark: three workloads, each driving a real
entry point, with end-to-end metrics from untraced runs and per-layer
metrics from traced ones.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload des-fig9|grid-sweep|serve-mix
        --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``,
``--trace 1`` every per-layer one.  The last stdout line is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it stamps the machine, versions, ``git describe`` and seed, and
adds per-workload detail.  See ``perfbench/README.md`` for what each
metric means on each workload.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import common

#: Hard limit on one invocation.
TIMEOUT_S = 170

#: Worker processes started by this invocation (killed on the way out).
_children: list[subprocess.Popen] = []


def _spawn(workload: str, args, work, extra=()) -> tuple[subprocess.Popen, float]:
    """Start a sweeps.py process; returns it once it printed READY,
    with the seconds from start to that line at nominal host speed."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable, str(common.ROOT / "perfbench" / "sweeps.py"),
            workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", str(work), *extra,
        ],
        stdout=subprocess.PIPE,
        env=common.child_env(),
        cwd=common.ROOT,
        text=True,
    )
    _children.append(proc)
    common.pin(proc.pid, worker=True)
    return proc, common.read_ready(proc.stdout, start, workload)


def _finish(proc: subprocess.Popen) -> "dict | None":
    """Wait for a worker; its result line, if it printed one."""
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_sweep(args, work) -> dict:
    setups = []
    for _ in range(0 if args.trace else common.SETUP_REPS - 1):
        proc, took = _spawn(args.workload, args, work, ["--setup-only"])
        _finish(proc)
        setups.append(took)
    proc, took = _spawn(args.workload, args, work)
    setups.append(took)
    result = _finish(proc)
    if not args.trace:
        result["values"]["setup_s"] = common.percentile(setups, 50)
        result["detail"]["setups_s"] = setups
    return result


def _on_timeout(_signum, _frame):
    raise TimeoutError(f"benchmark exceeded {TIMEOUT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.source_present():
        print(f"no repro sources under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    common.pin(0, worker=False)

    signal.signal(signal.SIGALRM, _on_timeout)
    signal.alarm(TIMEOUT_S)
    common.WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=common.WORK))
    try:
        if args.workload == "serve-mix":
            import serve_mix

            result = serve_mix.run(args.seed, args.seconds, args.trace, work)
        else:
            result = run_sweep(args, work)
        stamp = common.stamp(args.seed, args.workload)
    finally:
        signal.alarm(0)
        for proc in _children:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    units = common.declared("per_layer" if args.trace else "end_to_end")
    print(json.dumps({"stamp": stamp, "detail": result["detail"]}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and result["attempted"] > 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": common.metric_table(result["values"], units),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
