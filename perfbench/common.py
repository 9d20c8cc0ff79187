"""Shared helpers: paths, the result stamp, percentiles, metric tables."""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

#: The checkout root: the benchmark runs from there.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, manifests and span files (git-ignored).
WORK = Path(__file__).resolve().parent / ".work"

WORKLOADS = ("des-fig9", "grid-sweep", "serve-mix")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3

#: Paper apps in Fig. 9 panel order (the names ``--app`` and the
#: server's ``app`` field accept).
APPS = ("mm", "cf", "kmeans", "hotspot", "nn", "srad")


#: Tile counts per app in the grid-sweep and serve-mix families: three
#: of Fig. 10's lighter tile counts plus the Fig. 9 caption T, so
#: 6 apps x 4 = 24 families.  The hybrid store keys a verdict by app,
#: not T, so only each app's first family is calibrated cold.
TILES = {
    "mm": (4, 16, 36, 144),
    "cf": (4, 16, 36, 144),
    "kmeans": (4, 16, 56, 112),
    "hotspot": (4, 16, 64, 256),
    "nn": (4, 32, 128, 512),
    "srad": (4, 16, 100, 400),
}

#: grid-sweep's ScenarioGenerator specs: ``corpus(SCENARIOS)`` at a
#: fixed generator seed, so every --seed sweeps the same work.
SCENARIO_SEED = 0
SCENARIOS = 18

#: The partition axis every grid-sweep and serve-mix family covers.
P_AXIS = tuple(range(1, 57))


def child_env() -> dict:
    """Environment for a process that imports ``repro`` from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def source_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def percentile(values, q: int) -> float:
    """The q-th percentile of ``values`` by the Harrell-Davis estimator:
    a beta-weighted mean of every order statistic, so it moves smoothly
    when a sample crosses a gap in the distribution (des-fig9's 78
    points cluster by app, and a plain median of them jumped between
    clusters from run to run)."""
    from scipy.stats.mstats import hdquantiles

    values = list(values)
    if len(values) == 1:
        return float(values[0])
    return float(hdquantiles(values, prob=[q / 100.0])[0])


#: The CPUs this process may use, read before any pinning.
_CPUS = sorted(os.sched_getaffinity(0))


def pin(pid: int, worker: bool) -> None:
    """Pin a process to one CPU: the last one for the process doing the
    work, the first for the harness and client, so the two never share
    a CPU or migrate.  A no-op on one CPU."""
    if len(_CPUS) > 1:
        os.sched_setaffinity(pid, {_CPUS[-1] if worker else _CPUS[0]})


def read_ready(stream, start: float, what: str) -> float:
    """Wait for a sweeps.py process's ``READY <wall> <nominal>`` line;
    the seconds from ``start`` to it, scaled by ``nominal / wall``
    (the process's own time on its :class:`hostclock.HostClock`)."""
    line = stream.readline()
    took = time.perf_counter() - start
    words = line.split()
    if not words or words[0] != "READY":
        raise RuntimeError(f"{what} set-up failed")
    wall, nominal = float(words[1]), float(words[2])
    return took * nominal / wall


def stamp(seed: int, workload: str) -> dict:
    """What a result was measured on."""
    import numpy

    from repro.metrics import git_describe

    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_describe": git_describe(ROOT) or "unavailable",
    }


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit of one BENCHMARK.json list (``end_to_end``
    or ``per_layer``), in its order."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def metric_table(values: dict, units: dict) -> dict:
    """``{name: {"value": v, "unit": u}}`` for every name in ``units``."""
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Another process's peak resident set size, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
