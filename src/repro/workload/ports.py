"""The six built-in apps expressed as workload specs.

:func:`workload_of` re-derives an app instance's enqueue schedule as a
:class:`~repro.workload.spec.WorkloadSpec` — the same transfers, the
same dedup/residency bookkeeping, the same dependency edges, in the
same emission order.  The port is *DES-exact*: a
``WorkloadApp(workload_of(app))`` run produces bit-identical elapsed
times to the original app (held by ``tests/workload/test_ports.py``).
The ports are the only schedules the analytic and grid paths read
(:func:`repro.engine.profiles.workload_port`).

Multi-device runs: MatMul and Cholesky deduplicate uploads per
*device*, and a spec fixes the dedup pattern at build time.  Their
ports therefore take an optional tile -> device map (``device_of``);
without one they encode the single-device pattern, which is all the
grid path accepts.  The other four schedules do not depend on the
device layout.
"""

from __future__ import annotations

import numpy as np

from repro.apps.cholesky_app import CholeskyApp
from repro.apps.hotspot_app import HotspotApp
from repro.apps.kmeans_app import KmeansApp
from repro.apps.matmul_app import MatMulApp
from repro.apps.nn_app import NNApp
from repro.apps.srad_app import SradApp
from repro.errors import ConfigurationError
from repro.kernels.cholesky import (
    gemm_update_work,
    potrf_work,
    syrk_update_work,
    trsm_work,
)
from repro.kernels.hotspot import hotspot_work
from repro.kernels.kmeans import kmeans_assign_work
from repro.kernels.matmul import gemm_work
from repro.kernels.nn import nn_work
from repro.kernels.srad import srad_statistics_work, srad_update_work
from repro.workload.spec import KernelSpec, OpSpec, PhaseSpec, WorkloadSpec


def _one_device(tile: int) -> int:
    return 0


class _Kernels:
    """Deduplicating kernel table: identical work descriptors share one
    spec slot (mirrors the apps' per-tile-size work dedup)."""

    def __init__(self):
        self.specs: list[KernelSpec] = []
        self._index: dict[KernelSpec, int] = {}

    def add(self, work) -> int:
        spec = KernelSpec.from_work(work)
        idx = self._index.get(spec)
        if idx is None:
            idx = len(self.specs)
            self._index[spec] = idx
            self.specs.append(spec)
        return idx

    def sized(self, make_work):
        """``size -> index`` of ``make_work(size)``, building each
        distinct tile size's work descriptor once."""
        memo: dict[int, int] = {}

        def index(size: int) -> int:
            idx = memo.get(size)
            if idx is None:
                idx = memo[size] = self.add(make_work(size))
            return idx

        return index


def _port_matmul(app: MatMulApp, device_of) -> WorkloadSpec:
    d, g = app.d, app.grid
    block = d // g
    itemsize = app.dtype.itemsize
    kernels = _Kernels()
    gemm = kernels.add(gemm_work(block, block, d, itemsize, app.spec))
    row_bytes = block * d * itemsize
    ops: list[OpSpec] = []
    # Row/column block -> op name of its upload, per device.
    a_blocks: dict[tuple[int, int], str] = {}
    b_blocks: dict[tuple[int, int], str] = {}
    for t in range(g * g):
        i, j = divmod(t, g)
        dev = device_of(t)
        suffix = f"@{dev}" if dev else ""
        if (dev, i) not in a_blocks:
            a_blocks[(dev, i)] = f"a{i}{suffix}"
            ops.append(OpSpec("h2d", t, row_bytes, name=a_blocks[(dev, i)]))
        if (dev, j) not in b_blocks:
            b_blocks[(dev, j)] = f"b{j}{suffix}"
            ops.append(OpSpec("h2d", t, row_bytes, name=b_blocks[(dev, j)]))
        ops.append(
            OpSpec(
                "exe", t, kernel=gemm,
                deps=(a_blocks[(dev, i)], b_blocks[(dev, j)]),
            )
        )
        ops.append(OpSpec("d2h", t, block * block * itemsize))
    return WorkloadSpec(
        name=f"mm-d{d}-t{g * g}",
        kernels=tuple(kernels.specs),
        phases=(PhaseSpec(ops=tuple(ops), sync=False),),
    )


def _port_nn(app: NNApp, device_of) -> WorkloadSpec:
    bounds = np.linspace(0, app.n_records, app.tiles + 1).astype(int)
    kernels = _Kernels()
    nn = kernels.sized(lambda n: nn_work(n, 4, app.spec))
    ops: list[OpSpec] = []
    for t, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        count = int(hi - lo)
        if count == 0:
            continue
        kl = nn(count)
        ops.append(OpSpec("h2d", t, count * 2 * 4))
        ops.append(OpSpec("h2d", t, 0))  # output residency marker
        ops.append(OpSpec("exe", t, kernel=kl))
        ops.append(OpSpec("d2h", t, count * 4))
    return WorkloadSpec(
        name=f"nn-r{app.n_records}-t{app.tiles}",
        kernels=tuple(kernels.specs),
        phases=(PhaseSpec(ops=tuple(ops), sync=False),),
    )


def _port_kmeans(app: KmeansApp, device_of) -> WorkloadSpec:
    f = app.n_features
    tiles = app._tile_bounds()
    kernels = _Kernels()
    assign = kernels.sized(
        lambda n: kmeans_assign_work(n, app.n_clusters, f, 4, app.spec)
    )
    uploads = tuple(
        OpSpec("h2d", t, (hi - lo) * f * 4)
        for t, (lo, hi) in enumerate(tiles)
    )
    assigns = tuple(
        OpSpec("exe", t, kernel=assign(hi - lo))
        for t, (lo, hi) in enumerate(tiles)
    )
    return WorkloadSpec(
        name=f"kmeans-n{app.n_points}-t{len(tiles)}",
        kernels=tuple(kernels.specs),
        phases=(
            PhaseSpec(ops=uploads, sync=False),
            PhaseSpec(ops=assigns, sync=True, repeat=app.iterations),
        ),
    )


def _port_hotspot(app: HotspotApp, device_of) -> WorkloadSpec:
    if app.halo_sync != "global":
        raise ConfigurationError(
            "only Hotspot's global halo barrier is portable to a "
            f"workload spec (halo_sync={app.halo_sync!r})"
        )
    d = app.d
    bands = app._row_bands()
    kernels = _Kernels()
    uploads: list[OpSpec] = []
    for t, (lo, hi) in enumerate(bands):
        uploads.append(OpSpec("h2d", t, (hi - lo) * d * 4))  # temp
        uploads.append(OpSpec("h2d", t, (hi - lo) * d * 4))  # power
        uploads.append(OpSpec("h2d", t, 0))  # scratch marker
    step = kernels.sized(lambda n: hotspot_work(n, d, 4, app.spec))
    steps = tuple(
        OpSpec("exe", t, kernel=step(hi - lo))
        for t, (lo, hi) in enumerate(bands)
    )
    downloads = tuple(
        OpSpec("d2h", t, (hi - lo) * d * 4)
        for t, (lo, hi) in enumerate(bands)
    )
    return WorkloadSpec(
        name=f"hotspot-d{d}-t{len(bands)}",
        kernels=tuple(kernels.specs),
        phases=(
            PhaseSpec(ops=tuple(uploads), sync=True),
            PhaseSpec(ops=steps, sync=True, repeat=app.iterations),
            PhaseSpec(ops=downloads, sync=False),
        ),
    )


def _port_srad(app: SradApp, device_of) -> WorkloadSpec:
    d = app.d
    bands = app._row_bands()
    kernels = _Kernels()
    uploads: list[OpSpec] = []
    for t, (lo, hi) in enumerate(bands):
        uploads.append(OpSpec("h2d", t, (hi - lo) * d * 4))  # image
        uploads.append(OpSpec("h2d", t, 0))  # scratch marker
    stat = kernels.sized(lambda n: srad_statistics_work(n, d, 4, app.spec))
    update = kernels.sized(lambda n: srad_update_work(n, d, 4, app.spec))
    stats = tuple(
        OpSpec("exe", t, kernel=stat(hi - lo))
        for t, (lo, hi) in enumerate(bands)
    )
    updates = tuple(
        OpSpec("exe", t, kernel=update(hi - lo))
        for t, (lo, hi) in enumerate(bands)
    )
    downloads = tuple(
        OpSpec("d2h", t, (hi - lo) * d * 4)
        for t, (lo, hi) in enumerate(bands)
    )
    # The statistics/update pair repeats as a unit; PhaseSpec.repeat
    # covers a single phase, so the iterations unroll explicitly here,
    # every iteration sharing the same two phase objects.
    pair = [PhaseSpec(ops=stats, sync=True), PhaseSpec(ops=updates, sync=True)]
    phases = [
        PhaseSpec(ops=tuple(uploads), sync=True),
        *pair * app.iterations,
        PhaseSpec(ops=downloads, sync=False),
    ]
    return WorkloadSpec(
        name=f"srad-d{d}-t{len(bands)}",
        kernels=tuple(kernels.specs),
        phases=tuple(phases),
    )


def _port_cholesky(app: CholeskyApp, device_of) -> WorkloadSpec:
    if app.mapping != "owner":
        raise ConfigurationError(
            "only the owner stream mapping is portable to a workload "
            f"spec (mapping={app.mapping!r})"
        )
    nb, b = app.nb, app.block
    tile_bytes = b * b * 8
    kernels = _Kernels()
    kls = {
        kind: kernels.add(work)
        for kind, work in (
            ("potrf", potrf_work(b, 8, app.spec)),
            ("trsm", trsm_work(b, 8, app.spec)),
            ("syrk", syrk_update_work(b, 8, app.spec)),
            ("gemm", gemm_update_work(b, 8, app.spec)),
        )
    }
    ops: list[OpSpec] = []
    last_writer: dict[tuple[int, int], str] = {}
    # Tile coordinate -> devices holding a current copy (a write leaves
    # the writer's device the only holder).
    resident: dict[tuple[int, int], set[int]] = {}

    def h2d_count(tile, reads=(), writes=()):
        device = device_of(tile)
        n = 0
        for coord in (*reads, *writes):
            homes = resident.setdefault(coord, set())
            if device not in homes:
                homes.add(device)
                n += 1
        for coord in writes:
            resident[coord] = {device}
        return n

    def emit(name, kind, tile, after, n_h2d, with_d2h):
        # Dependencies attach to the task's FIRST action (the pipeline
        # scheduler's contract); dependents wait on its LAST.
        deps = tuple(after)
        first = True
        for _ in range(n_h2d):
            ops.append(
                OpSpec("h2d", tile, tile_bytes, deps=deps if first else ())
            )
            first = False
        exe = OpSpec(
            "exe",
            tile,
            kernel=kls[kind],
            deps=deps if first else (),
            name=None if with_d2h else name,
        )
        ops.append(exe)
        if with_d2h:
            ops.append(OpSpec("d2h", tile, tile_bytes, name=name))

    for j in range(nb):
        after = [last_writer[(j, j)]] if (j, j) in last_writer else []
        n = h2d_count(j, writes=((j, j),))
        emit(f"potrf_{j}", "potrf", j, after, n, with_d2h=True)
        last_writer[(j, j)] = f"potrf_{j}"
        for i in range(j + 1, nb):
            after = [f"potrf_{j}"]
            if (i, j) in last_writer:
                after.append(last_writer[(i, j)])
            n = h2d_count(i, reads=((j, j),), writes=((i, j),))
            emit(f"trsm_{i}_{j}", "trsm", i, after, n, with_d2h=True)
            last_writer[(i, j)] = f"trsm_{i}_{j}"
        for i in range(j + 1, nb):
            for k in range(j + 1, i + 1):
                after = [f"trsm_{i}_{j}"]
                if k != i:
                    after.append(f"trsm_{k}_{j}")
                if (i, k) in last_writer:
                    after.append(last_writer[(i, k)])
                kind = "syrk" if k == i else "gemm"
                reads = ((i, j),) if k == i else ((i, j), (k, j))
                name = (
                    f"syrk_{i}_{j}" if k == i else f"gemm_{i}_{k}_{j}"
                )
                n = h2d_count(i, reads=reads, writes=((i, k),))
                emit(name, kind, i, after, n, with_d2h=False)
                last_writer[(i, k)] = name
    return WorkloadSpec(
        name=f"cf-d{app.d}-t{nb * nb}",
        kernels=tuple(kernels.specs),
        phases=(PhaseSpec(ops=tuple(ops), sync=False),),
    )


#: App class -> (app, device_of) -> spec.  Only MatMul and Cholesky read
#: ``device_of``; the other schedules are device-independent.
_PORTS = {
    MatMulApp: _port_matmul,
    NNApp: _port_nn,
    KmeansApp: _port_kmeans,
    HotspotApp: _port_hotspot,
    SradApp: _port_srad,
    CholeskyApp: _port_cholesky,
}


def workload_of(app, device_of=None) -> WorkloadSpec:
    """The workload spec equivalent to ``app``'s enqueue schedule.

    ``device_of(tile)`` names the device each tile's stream lives on
    (default: one device); see the module docstring.
    """
    port = _PORTS.get(type(app))
    if port is None:
        raise ConfigurationError(
            f"no workload port for app class {type(app).__name__}"
        )
    return port(app, device_of or _one_device)
