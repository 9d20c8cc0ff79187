"""Workload feature extraction for the learned engine tier.

Two layers, one source of truth:

* :func:`config_features` — the configuration-only map the paper's
  Sec. V-C analysis motivates (log-scales of ``P`` and ``T`` with
  quadratic terms, the tiles-per-stream ratio, the core-alignment
  indicator).  :class:`repro.autotune.mltune.LearnedTuner` delegates
  here, so the hand-built map that used to live in ``mltune`` and the
  learned tier can never drift apart.
* :class:`FeatureExtractor` — the full map over a
  :class:`~repro.workload.spec.WorkloadSpec` at a partition count:
  the configuration block plus a *physics block* derived from the same
  vectorized cost models the analytic engine uses
  (:func:`~repro.engine.analytic.invoke_cost`,
  :func:`~repro.engine.analytic.stream_geometry`).  The dominant
  physics feature is the log of a closed-form makespan estimate —
  per-stream compute sums, a serialized-link bound, and sync
  overheads — so the trained model only has to learn a *correction
  factor* over scheduling effects the estimate cannot see (dependency
  stalls, link-grant interleaving).  That is what makes a 13-feature
  ridge accurate to a few percent on held-out scenarios (see
  ``docs/LEARNED.md``).

Feature extraction never walks an event loop: cost per point is a few
array reductions, ~20x cheaper than a single scalar
:class:`~repro.engine.analytic.StreamReplay` settle and ~3 orders of
magnitude cheaper than the DES.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.device.spec import DeviceSpec, PHI_31SP
from repro.device.topology import Topology
from repro.engine.analytic import check_supported, invoke_cost, stream_geometry
from repro.engine.profiles import workload_port
from repro.errors import ConfigurationError, ModelUnsupportedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.runspec import RunSpec
    from repro.workload.spec import WorkloadSpec

#: The configuration block (order is part of the contract: persisted
#: models record these names and refuse mismatched corpora).
CONFIG_FEATURE_NAMES: tuple[str, ...] = (
    "bias",
    "log_p",
    "log_p_sq",
    "log_t",
    "log_t_sq",
    "log_ratio",
    "log_ratio_sq",
    "aligned",
    "fill",
)

#: The physics block appended by :class:`FeatureExtractor`.
PHYSICS_FEATURE_NAMES: tuple[str, ...] = (
    "log_estimate",
    "link_fraction",
    "log_sync_phases",
    "log_exec_ops",
)

#: Full feature vector layout of the learned tier.
FEATURE_NAMES: tuple[str, ...] = CONFIG_FEATURE_NAMES + PHYSICS_FEATURE_NAMES


def config_features(
    places: int, tiles: int, spec: DeviceSpec = PHI_31SP
) -> np.ndarray:
    """The 9-entry configuration feature vector for ``(P, T)``.

    Exactly the map :class:`~repro.autotune.mltune.LearnedTuner` trains
    on: log-scales with quadratic terms (both sweeps are U-shaped on log
    axes), the tiles-per-stream ratio (load balance), and the
    core-alignment indicator (Fig. 9's divisor spikes).
    """
    if places < 1 or tiles < 1:
        raise ConfigurationError(
            f"places and tiles must be >= 1, got ({places}, {tiles})"
        )
    aligned = 1.0 if Topology(spec).partition_is_aligned(places) else 0.0
    log_p = np.log2(places)
    log_t = np.log2(tiles)
    # Tiles per stream; < 1 means idle partitions.
    fill = min(tiles / places, 1.0)
    log_ratio = np.log2(max(tiles / places, 1.0))
    return np.array(
        [
            1.0,
            log_p,
            log_p**2,
            log_t,
            log_t**2,
            log_ratio,
            log_ratio**2,
            aligned,
            fill,
        ]
    )


@dataclass(frozen=True)
class WorkloadPoint:
    """One featurized (workload, P) point plus the metadata an
    :class:`~repro.apps.base.AppRun` envelope needs."""

    features: np.ndarray
    app: str
    places: int
    tiles: int
    total_flops: float
    workload: "WorkloadSpec"


class FeatureExtractor:
    """Featurize workload scenarios (and ported app specs) at a given
    partition count; see the module docstring for the layout."""

    def __init__(self, spec: DeviceSpec = PHI_31SP) -> None:
        check_supported(spec)
        self.spec = spec
        self.feature_names = FEATURE_NAMES

    # -- the feature map -----------------------------------------------------

    def _estimate(
        self, workload: "WorkloadSpec", works, places: int
    ) -> tuple[float, float, int, int]:
        """Closed-form makespan estimate (no event loop) plus the raw
        shape statistics the secondary features are built from.

        Per expanded phase: the slower of the busiest stream's summed
        invoke costs and the serialized link occupancy, then one
        ``P * sync_per_stream`` charge per sync phase (and one for the
        harness's final global sync) — the same cost constants the DES
        and the analytic replay use, minus dependency interleaving.
        """
        geom = stream_geometry(places, 1, self.spec)
        n_streams = geom.num_streams
        over = self.spec.overheads
        costs = [invoke_cost(w, geom, self.spec) for w in works]
        link_bw = self.spec.link.bandwidth
        link_lat = self.spec.link.latency

        total = 0.0
        link_time_total = 0.0
        n_sync = 0
        n_exec = 0
        first: set[str] = set()
        for phase in workload.expanded_phases():
            stream_t = np.zeros(n_streams)
            link_t = 0.0
            for op in phase.ops:
                s = op.tile % n_streams
                if op.kind == "exe":
                    cost = costs[op.kernel][s] + over.dispatch
                    name = works[op.kernel].name
                    if name not in first:
                        first.add(name)
                        cost += over.first_invoke_extra
                    stream_t[s] += cost
                    n_exec += 1
                elif op.nbytes > 0:
                    link_t += link_lat + op.nbytes / link_bw + over.dispatch
                else:
                    # Residency marker: dispatch only, no link occupancy.
                    stream_t[s] += over.dispatch
            total += max(float(stream_t.max()), link_t)
            link_time_total += link_t
            if phase.sync:
                total += n_streams * over.sync_per_stream
                n_sync += 1
        total += n_streams * over.sync_per_stream  # final harness sync
        return total, link_time_total, n_sync, n_exec

    def features(self, workload: "WorkloadSpec", places: int) -> np.ndarray:
        """The full feature vector for ``workload`` at ``places``."""
        works = tuple(k.work() for k in workload.kernels)
        est, link_time, n_sync, n_exec = self._estimate(
            workload, works, places
        )
        est = max(est, 1e-30)
        physics = np.array(
            [
                np.log(est),
                link_time / est,
                np.log1p(n_sync),
                np.log1p(n_exec),
            ]
        )
        return np.concatenate(
            (config_features(places, workload.tiles, self.spec), physics)
        )

    # -- RunSpec surface -----------------------------------------------------

    def describe(self, spec: "RunSpec") -> WorkloadPoint:
        """Featurize one :class:`RunSpec`.

        Every run is featurized from the workload spec the model paths
        read for it (:func:`repro.engine.profiles.workload_port`: the
        six named apps through their DES-exact ports), keeping the
        app's own name, tile count and flops on the envelope.  Raises
        :class:`~repro.errors.ModelUnsupportedError` outside the
        learned tier's surface (same refusals as the analytic path,
        plus multi-device runs — the feature map is single-device).
        """
        if spec.streams_per_place != 1:
            raise ModelUnsupportedError(
                "learned engine requires one stream per place "
                f"(streams_per_place={spec.streams_per_place})"
            )
        if spec.num_devices != 1:
            raise ModelUnsupportedError(
                "learned engine features are single-device "
                f"(num_devices={spec.num_devices})"
            )
        if spec.keep_timeline:
            raise ModelUnsupportedError(
                "learned engine produces no event trace (keep_timeline=True)"
            )
        app, port = workload_port(spec)
        return WorkloadPoint(
            features=self.features(port.workload, spec.places),
            app=app.name,
            places=spec.places,
            tiles=app.tiles,
            total_flops=app.total_flops(),
            workload=port.workload,
        )
