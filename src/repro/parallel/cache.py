"""Content-addressed memoization of simulation timings.

The figure sweeps and the Sec. V-C tuning studies re-evaluate the same
``(app, dataset, P, T, streams-per-place)`` points over and over —
fig8's best-config search, fig9's partition sweep and the heuristics
comparison all visit overlapping configurations.  The simulation is
deterministic, so a run's timings are a pure function of the
:meth:`~repro.parallel.runspec.RunSpec.cache_key` — which embeds the
calibration fingerprint of the device model, making stale entries
impossible to serve after a recalibration.

Two layers:

* an in-memory LRU (:class:`SimulationCache`), shared process-wide via
  :func:`shared_cache` so successive experiments in one CLI invocation
  reuse each other's runs;
* an optional on-disk JSON store (one file per calibration fingerprint
  under ``results/cache/``) so repeated CLI invocations and the
  thousands-of-evaluations tuning workloads survive process restarts.

Only the scalar timings are memoized (elapsed, gflops, geometry) —
never timelines or outputs; specs with ``keep_timeline=True`` bypass
the cache entirely.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.apps.base import AppRun
from repro.metrics.registry import get_registry
from repro.parallel.runspec import RunSpec
from repro.util.atomic import atomic_write_json

#: Default location of the on-disk store, relative to the repo root.
DEFAULT_CACHE_DIR = Path("results") / "cache"


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`SimulationCache`."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    puts: int = 0
    evictions: int = 0
    disk_evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def encode_run(run: AppRun) -> dict:
    """The JSON-serializable subset of an AppRun worth persisting —
    shared by the cache's disk tier and sweep checkpoints."""
    return {
        "app": run.app,
        "elapsed": run.elapsed,
        "places": run.places,
        "tiles": run.tiles,
        "gflops": run.gflops,
    }


def decode_run(record: dict) -> AppRun:
    """Inverse of :func:`encode_run`.

    The decoded run deliberately carries ``metrics=None``: a restored
    run (cache hit or checkpoint resume) was already merged into its
    producer's registry when it first executed, so serving it again
    must not re-contribute metrics or executed-run counts (the executor
    merges only in its newly-executed path).
    """
    return AppRun(
        app=record["app"],
        elapsed=record["elapsed"],
        places=record["places"],
        tiles=record["tiles"],
        gflops=record["gflops"],
    )


class SimulationCache:
    """LRU-bounded ``cache_key -> timings`` map with an optional disk tier.

    ``capacity`` bounds the in-memory layer only; the disk tier (enabled
    by passing ``disk_dir``) is write-through.  Disk files are
    partitioned by calibration fingerprint — the last ``|``-segment of
    every key — so recalibrating the model simply starts a new file.
    ``disk_capacity`` bounds the disk tier to that many shard files:
    exceeding it deletes the oldest-fingerprint shards (mtime order,
    never the shard just written) and counts each deletion as
    ``stats.disk_evictions`` / the ``engine.cache.disk_evictions``
    metric.  ``disk_capacity=None`` (the default) leaves the tier
    unbounded, as before.
    """

    def __init__(
        self,
        capacity: int = 4096,
        disk_dir: "str | os.PathLike | None" = None,
        disk_capacity: "int | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if disk_capacity is not None and disk_capacity < 1:
            raise ValueError(
                f"disk_capacity must be >= 1, got {disk_capacity}"
            )
        self.capacity = capacity
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.disk_capacity = disk_capacity
        self.stats = CacheStats()
        self._memory: OrderedDict[str, dict] = OrderedDict()
        #: Lazily-loaded disk files, keyed by fingerprint.
        self._disk: dict[str, dict[str, dict]] = {}
        #: Fingerprints whose shard file is known absent — a negative
        #: lookup is answered from here, not by re-probing the
        #: filesystem on every miss.
        self._disk_missing: set[str] = set()

    def __len__(self) -> int:
        return len(self._memory)

    # -- lookup ------------------------------------------------------------

    def get(self, spec: RunSpec) -> AppRun | None:
        """The memoized run for ``spec``, or None on a miss."""
        if spec.keep_timeline:
            return None
        key = spec.cache_key()
        record = self._memory.get(key)
        if record is not None:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            return decode_run(record)
        if self.disk_dir is not None:
            record = self._disk_load(key).get(key)
            if record is not None:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._remember(key, record)
                return decode_run(record)
        self.stats.misses += 1
        return None

    def get_many(self, specs: "list[RunSpec]") -> "list[AppRun | None]":
        """Batch :meth:`get`: one lookup per *unique* cache key.

        Duplicate specs inside one batch cost a single hit or miss (the
        executor's in-batch dedup simulates the representative once and
        serves the rest), and all keys sharing a calibration fingerprint
        share one disk-shard load.  Each served slot gets its own
        freshly-decoded :class:`AppRun`.
        """
        results: "list[AppRun | None]" = [None] * len(specs)
        seen: dict[str, "dict | None"] = {}
        for i, spec in enumerate(specs):
            if spec.keep_timeline:
                continue
            key = spec.cache_key()
            if key in seen:
                record = seen[key]
            else:
                record = self._memory.get(key)
                if record is not None:
                    self._memory.move_to_end(key)
                    self.stats.hits += 1
                elif self.disk_dir is not None:
                    record = self._disk_load(key).get(key)
                    if record is not None:
                        self.stats.hits += 1
                        self.stats.disk_hits += 1
                        self._remember(key, record)
                    else:
                        self.stats.misses += 1
                else:
                    self.stats.misses += 1
                seen[key] = record
            if record is not None:
                results[i] = decode_run(record)
        return results

    def put(self, spec: RunSpec, run: AppRun) -> None:
        """Memoize ``run`` as the outcome of ``spec``."""
        if spec.keep_timeline:
            return
        key = spec.cache_key()
        record = encode_run(run)
        self._remember(key, record)
        self.stats.puts += 1
        if self.disk_dir is not None:
            self._disk_load(key)[key] = record
            self._store_shard(self._fingerprint_of(key))

    def put_many(self, items: "list[tuple[RunSpec, AppRun]]") -> None:
        """Batch :meth:`put`: one disk-shard write per calibration
        fingerprint instead of one whole-file rewrite per run — the
        executor buffers a sweep's completions and flushes them here."""
        dirty: set[str] = set()
        for spec, run in items:
            if spec.keep_timeline:
                continue
            key = spec.cache_key()
            record = encode_run(run)
            self._remember(key, record)
            self.stats.puts += 1
            if self.disk_dir is not None:
                self._disk_load(key)[key] = record
                dirty.add(self._fingerprint_of(key))
        for fingerprint in dirty:
            self._store_shard(fingerprint)

    def clear(self) -> None:
        """Drop the in-memory layer (disk files are left alone)."""
        self._memory.clear()
        self._disk.clear()
        self._disk_missing.clear()

    # -- internals ---------------------------------------------------------

    def _remember(self, key: str, record: dict) -> None:
        self._memory[key] = record
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    @staticmethod
    def _fingerprint_of(key: str) -> str:
        return key.rsplit("|", 1)[-1]

    def _disk_path(self, fingerprint: str) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / f"simcache-{fingerprint}.json"

    def _disk_load(self, key: str) -> dict[str, dict]:
        fingerprint = self._fingerprint_of(key)
        shard = self._disk.get(fingerprint)
        if shard is None:
            if fingerprint in self._disk_missing:
                # Negative lookup already established: no filesystem
                # probe for repeated misses on the same fingerprint.
                shard = {}
            else:
                path = self._disk_path(fingerprint)
                try:
                    shard = json.loads(path.read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    self._disk_missing.add(fingerprint)
                    shard = {}
            self._disk[fingerprint] = shard
        return shard

    def _store_shard(self, fingerprint: str) -> None:
        shard = self._disk.get(fingerprint, {})
        path = self._disk_path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(path, shard)
        self._disk_missing.discard(fingerprint)
        self._evict_disk(keep=fingerprint)

    def _evict_disk(self, keep: str) -> None:
        """Bound the disk tier: beyond ``disk_capacity`` shard files,
        delete the oldest-fingerprint shards (mtime order) — never the
        shard just written, which ``keep`` names."""
        if self.disk_capacity is None or self.disk_dir is None:
            return
        try:
            shards = sorted(
                self.disk_dir.glob("simcache-*.json"),
                key=lambda p: p.stat().st_mtime,
            )
        except OSError:
            return
        excess = len(shards) - self.disk_capacity
        for path in shards:
            if excess <= 0:
                break
            fingerprint = path.stem[len("simcache-"):]
            if fingerprint == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            excess -= 1
            self._disk.pop(fingerprint, None)
            self._disk_missing.add(fingerprint)
            self.stats.disk_evictions += 1
            get_registry().counter("engine.cache.disk_evictions").inc()


_shared: SimulationCache | None = None


def shared_cache() -> SimulationCache:
    """The process-wide cache the experiment drivers default to."""
    global _shared
    if _shared is None:
        _shared = SimulationCache()
    return _shared
