"""Declarative workload specs: streamed scenarios as plain data.

The six paper applications hard-code their enqueue schedules in Python;
everything else in the stack (the DES, the analytic replay, the grid
lowering, serve, the sweep executor) only ever *consumes* those
schedules.  A :class:`WorkloadSpec` captures a schedule declaratively —
kernels, per-tile transfer/execute ops with explicit dependencies,
sync-delimited phases with repeat counts — so one description can be

* executed on the DES (:class:`repro.workload.app.WorkloadApp`),
* costed analytically (:func:`repro.workload.compile.predict_workload`),
* lowered to the vectorized grid path
  (:func:`repro.workload.compile.lower_workload`),

with all three walking the *identical* expanded phase/op order (the
differential property suite in ``tests/workload`` holds them together).

Specs are frozen, hashable and picklable, so a spec rides a
:class:`~repro.parallel.runspec.RunSpec` through worker pools, result
caches and the engine store unchanged.  JSON round-tripping is
schema-versioned (:data:`SCHEMA_VERSION`); :meth:`WorkloadSpec.fingerprint`
is a content hash of the canonical JSON, used for certification-family
identity and golden-corpus keying.

Spec semantics (shared by every consumer):

* an op's ``tile`` picks its stream as ``tile % num_streams``;
* ``h2d``/``d2h`` ops move ``nbytes`` over the half-duplex link;
  ``nbytes == 0`` is a pure residency marker (no link traffic);
* ``exe`` ops invoke ``kernels[kernel]``;
* ``deps`` name *earlier ops of the same phase* (cross-phase ordering is
  what syncs are for — and the grid lowering requires it);
* a phase with ``sync=True`` ends in a global ``sync_all``;
  ``repeat > 1`` expands the phase that many times (each repetition
  re-binds its op names);
* the run harness always appends one final global sync.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

from repro.device.compute import KernelWork
from repro.errors import ConfigurationError

#: Current workload-spec schema version (bumped on incompatible changes).
SCHEMA_VERSION = 1

#: Schema identifier embedded in serialized specs.
SCHEMA = "repro.workload"

#: Valid op kinds.
OP_KINDS = ("h2d", "d2h", "exe")


@dataclass(frozen=True)
class KernelSpec:
    """Declarative twin of :class:`repro.device.compute.KernelWork`.

    Field-for-field identical, except ``parallel_width`` uses ``None``
    for "unbounded" so the spec is JSON-clean (no ``inf`` literals).
    """

    name: str
    flops: float
    bytes_touched: float
    thread_rate: float
    serial_time: float = 0.0
    temp_alloc_bytes: int = 0
    temp_alloc_per_thread: bool = True
    cache_sensitive: bool = False
    efficiency: float = 1.0
    parallel_width: "float | None" = None

    def work(self) -> KernelWork:
        """The runtime kernel descriptor (validated by ``KernelWork``)."""
        return KernelWork(
            name=self.name,
            flops=self.flops,
            bytes_touched=self.bytes_touched,
            thread_rate=self.thread_rate,
            serial_time=self.serial_time,
            temp_alloc_bytes=self.temp_alloc_bytes,
            temp_alloc_per_thread=self.temp_alloc_per_thread,
            cache_sensitive=self.cache_sensitive,
            efficiency=self.efficiency,
            parallel_width=(
                float("inf")
                if self.parallel_width is None
                else self.parallel_width
            ),
        )

    @classmethod
    def from_work(cls, work: KernelWork) -> "KernelSpec":
        """Exact (round-trippable) capture of a ``KernelWork``."""
        import math

        return cls(
            name=work.name,
            flops=work.flops,
            bytes_touched=work.bytes_touched,
            thread_rate=work.thread_rate,
            serial_time=work.serial_time,
            temp_alloc_bytes=work.temp_alloc_bytes,
            temp_alloc_per_thread=work.temp_alloc_per_thread,
            cache_sensitive=work.cache_sensitive,
            efficiency=work.efficiency,
            parallel_width=(
                None if math.isinf(work.parallel_width)
                else work.parallel_width
            ),
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "KernelSpec":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"kernel entry must be an object, got {payload!r}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown kernel field(s) {sorted(unknown)}"
            )
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ConfigurationError(f"invalid kernel entry: {exc}")


@dataclass(frozen=True)
class OpSpec:
    """One enqueued action: a transfer (``h2d``/``d2h``) or an ``exe``.

    ``name`` makes the op referenceable by later ``deps`` entries of
    the same phase; unnamed ops only order through their stream's FIFO.
    """

    kind: str
    tile: int = 0
    nbytes: int = 0
    kernel: "int | None" = None
    name: "str | None" = None
    deps: tuple = ()

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "tile": self.tile}
        if self.nbytes:
            out["nbytes"] = self.nbytes
        if self.kernel is not None:
            out["kernel"] = self.kernel
        if self.name is not None:
            out["name"] = self.name
        if self.deps:
            out["deps"] = list(self.deps)
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "OpSpec":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"op entry must be an object, got {payload!r}"
            )
        known = {"kind", "tile", "nbytes", "kernel", "name", "deps"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(f"unknown op field(s) {sorted(unknown)}")
        deps = payload.get("deps", ())
        if not isinstance(deps, (list, tuple)):
            raise ConfigurationError(
                f"op 'deps' must be a list of names, got {deps!r}"
            )
        try:
            return cls(
                kind=payload.get("kind"),
                tile=payload.get("tile", 0),
                nbytes=payload.get("nbytes", 0),
                kernel=payload.get("kernel"),
                name=payload.get("name"),
                deps=tuple(deps),
            )
        except TypeError as exc:  # pragma: no cover - defensive
            raise ConfigurationError(f"invalid op entry: {exc}")


@dataclass(frozen=True)
class PhaseSpec:
    """A run of ops, optionally globally synced, optionally repeated."""

    ops: tuple = ()
    sync: bool = True
    repeat: int = 1

    def to_dict(self) -> dict:
        out: dict = {
            "ops": [op.to_dict() for op in self.ops],
            "sync": self.sync,
        }
        if self.repeat != 1:
            out["repeat"] = self.repeat
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "PhaseSpec":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"phase entry must be an object, got {payload!r}"
            )
        known = {"ops", "sync", "repeat"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown phase field(s) {sorted(unknown)}"
            )
        ops = payload.get("ops", [])
        if not isinstance(ops, (list, tuple)):
            raise ConfigurationError("phase 'ops' must be a list")
        return cls(
            ops=tuple(OpSpec.from_dict(op) for op in ops),
            sync=payload.get("sync", True),
            repeat=payload.get("repeat", 1),
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """One declarative streamed scenario (see the module docstring).

    Validates on construction, so an invalid spec can never reach a
    consumer: every :class:`ConfigurationError` here is raised where the
    spec is *built* (or parsed), not in a worker process mid-sweep.
    """

    name: str
    kernels: tuple = ()
    phases: tuple = ()
    schema_version: int = SCHEMA_VERSION
    #: Memoized content hash (filled lazily by :meth:`fingerprint`).
    _fingerprint: "str | None" = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.validate()

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(
                f"workload name must be a non-empty string, got {self.name!r}"
            )
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported workload schema version "
                f"{self.schema_version!r} (this build reads "
                f"{SCHEMA_VERSION})"
            )
        for k, kernel in enumerate(self.kernels):
            if not isinstance(kernel, KernelSpec):
                raise ConfigurationError(
                    f"kernels[{k}] must be a KernelSpec, got {kernel!r}"
                )
            kernel.work()  # KernelWork validates rates/efficiency/width
        checked: set = set()
        for p, phase in enumerate(self.phases):
            if id(phase) in checked:
                continue  # one phase object repeated (an unrolled loop)
            checked.add(id(phase))
            if not isinstance(phase, PhaseSpec):
                raise ConfigurationError(
                    f"phases[{p}] must be a PhaseSpec, got {phase!r}"
                )
            if not isinstance(phase.repeat, int) or phase.repeat < 1:
                raise ConfigurationError(
                    f"phases[{p}].repeat must be a positive integer, "
                    f"got {phase.repeat!r}"
                )
            self._validate_phase(p, phase)

    def _validate_phase(self, p: int, phase: PhaseSpec) -> None:
        seen: set = set()
        for o, op in enumerate(phase.ops):
            where = f"phases[{p}].ops[{o}]"
            if op.kind not in OP_KINDS:
                raise ConfigurationError(
                    f"{where}: kind must be one of {OP_KINDS}, "
                    f"got {op.kind!r}"
                )
            if not isinstance(op.tile, int) or op.tile < 0:
                raise ConfigurationError(
                    f"{where}: tile must be a non-negative integer, "
                    f"got {op.tile!r}"
                )
            if not isinstance(op.nbytes, int) or op.nbytes < 0:
                raise ConfigurationError(
                    f"{where}: nbytes must be a non-negative integer, "
                    f"got {op.nbytes!r}"
                )
            if op.kind == "exe":
                if op.nbytes != 0:
                    raise ConfigurationError(
                        f"{where}: exe ops carry no transfer bytes"
                    )
                if (
                    isinstance(op.kernel, bool)
                    or not isinstance(op.kernel, int)
                    or not 0 <= op.kernel < len(self.kernels)
                ):
                    raise ConfigurationError(
                        f"{where}: kernel must index one of "
                        f"{len(self.kernels)} kernel(s), got {op.kernel!r}"
                    )
            elif op.kernel is not None:
                raise ConfigurationError(
                    f"{where}: transfer ops take no kernel"
                )
            for dep in op.deps:
                if dep not in seen:
                    raise ConfigurationError(
                        f"{where}: dep {dep!r} does not name an earlier "
                        f"op of the same phase (cross-phase ordering is "
                        f"what sync phases are for)"
                    )
            if op.name is not None:
                if not isinstance(op.name, str) or not op.name:
                    raise ConfigurationError(
                        f"{where}: name must be a non-empty string"
                    )
                if op.name in seen:
                    raise ConfigurationError(
                        f"{where}: duplicate op name {op.name!r} in phase"
                    )
                seen.add(op.name)

    # -- derived shape ------------------------------------------------------

    @property
    def tiles(self) -> int:
        """Distinct tile-index span (drives stream assignment)."""
        top = -1
        for phase in self.phases:
            for op in phase.ops:
                if op.tile > top:
                    top = op.tile
        return max(top + 1, 1)

    def total_flops(self) -> float:
        """Useful floating-point work of one full run (repeat-expanded)."""
        total = 0.0
        for phase in self.phases:
            phase_flops = sum(
                self.kernels[op.kernel].flops
                for op in phase.ops
                if op.kind == "exe"
            )
            total += phase.repeat * phase_flops
        return total

    def expanded_phases(self) -> "list[PhaseSpec]":
        """Phases with ``repeat`` unrolled (each entry has repeat=1) —
        the exact order every consumer walks."""
        out: list[PhaseSpec] = []
        for phase in self.phases:
            once = (
                phase if phase.repeat == 1
                else PhaseSpec(ops=phase.ops, sync=phase.sync, repeat=1)
            )
            out.extend([once] * phase.repeat)
        return out

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "schema_version": self.schema_version,
            "name": self.name,
            "kernels": [k.to_dict() for k in self.kernels],
            "phases": [p.to_dict() for p in self.phases],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkloadSpec":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"workload spec must be an object, got {payload!r}"
            )
        schema = payload.get("schema", SCHEMA)
        if schema != SCHEMA:
            raise ConfigurationError(
                f"not a workload spec (schema={schema!r}, "
                f"expected {SCHEMA!r})"
            )
        known = {"schema", "schema_version", "name", "kernels", "phases"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown workload field(s) {sorted(unknown)}"
            )
        kernels = payload.get("kernels", [])
        phases = payload.get("phases", [])
        if not isinstance(kernels, (list, tuple)):
            raise ConfigurationError("workload 'kernels' must be a list")
        if not isinstance(phases, (list, tuple)):
            raise ConfigurationError("workload 'phases' must be a list")
        return cls(
            name=payload.get("name"),
            kernels=tuple(KernelSpec.from_dict(k) for k in kernels),
            phases=tuple(PhaseSpec.from_dict(p) for p in phases),
            schema_version=payload.get("schema_version", SCHEMA_VERSION),
        )

    def to_json(self, indent: "int | None" = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WorkloadSpec":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"workload spec is not JSON: {exc}")
        return cls.from_dict(payload)

    def fingerprint(self) -> str:
        """Content hash of the canonical JSON (16 hex chars): two specs
        share a fingerprint iff they describe the same scenario."""
        if self._fingerprint is None:
            digest = hashlib.sha256(
                self.to_json().encode("utf-8")
            ).hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", digest)
        return self._fingerprint

    def __repr__(self) -> str:
        # Compact and content-addressed: this repr feeds RunSpec cache
        # keys, so it must identify the scenario without dumping it.
        return (
            f"WorkloadSpec({self.name!r}, "
            f"fingerprint={self.fingerprint()!r})"
        )

    # -- composition --------------------------------------------------------

    @classmethod
    def co_resident(
        cls, workloads, name: "str | None" = None
    ) -> "WorkloadSpec":
        """Multiple apps sharing one device: phases are aligned by index
        (repeat-expanded), each merged phase carrying every co-resident
        app's ops back-to-back.  Tile indices are interleaved
        (``tile * n + k`` for app ``k`` of ``n``) so the apps spread
        over the same streams, and op names are prefixed ``w<k>:`` so
        dependency edges stay app-local.  A merged phase syncs when any
        contributor synced."""
        workloads = list(workloads)
        if not workloads:
            raise ConfigurationError(
                "co_resident needs at least one workload"
            )
        n = len(workloads)
        kernels: list[KernelSpec] = []
        offsets: list[int] = []
        for w in workloads:
            offsets.append(len(kernels))
            kernels.extend(w.kernels)
        expanded = [w.expanded_phases() for w in workloads]
        depth = max(len(e) for e in expanded)
        phases: list[PhaseSpec] = []
        for level in range(depth):
            ops: list[OpSpec] = []
            sync = False
            for k, phase_list in enumerate(expanded):
                if level >= len(phase_list):
                    continue
                phase = phase_list[level]
                sync = sync or phase.sync
                for op in phase.ops:
                    ops.append(
                        OpSpec(
                            kind=op.kind,
                            tile=op.tile * n + k,
                            nbytes=op.nbytes,
                            kernel=(
                                None if op.kernel is None
                                else op.kernel + offsets[k]
                            ),
                            name=(
                                None if op.name is None
                                else f"w{k}:{op.name}"
                            ),
                            deps=tuple(f"w{k}:{d}" for d in op.deps),
                        )
                    )
            phases.append(PhaseSpec(ops=tuple(ops), sync=sync))
        return cls(
            name=name or "+".join(w.name for w in workloads),
            kernels=tuple(kernels),
            phases=tuple(phases),
        )
