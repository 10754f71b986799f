"""Outside-in layer timing for the traced benchmark run.

Every layer is measured from outside the program: :func:`install` replaces
public functions and methods of ``repro`` with wrappers that time each call,
and :class:`LayerClock` folds nested calls into *self time*, so a second spent
inside a measured call nested in another measured call is counted once, at
the innermost layer.  Nothing under ``src/`` is edited; the wrappers exist
only in a process that called :func:`install`.

``TARGETS`` is the map from layer metric to the public calls that make up the
layer.  The README lists which end-to-end metric each layer should move.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Count = Tuple[str, Callable[[object], int]]


def _one(_result: object) -> int:
    return 1


def _rows(result: object) -> int:
    return len(result)


def _hit(result: object) -> int:
    return result is not None


def _miss(result: object) -> int:
    return result is None


#: (layer, module, attribute path, counters).  The layer's self-time metric is
#: ``<layer>_s``; each counter adds ``measure(return value)`` per call.
TARGETS: Sequence[Tuple[str, str, str, Sequence[Count]]] = (
    ("cli.main", "repro.cli", "main", ()),
    ("experiments.context", "repro.experiments.context", "build_context", ()),
    ("experiments.context", "repro.experiments.context", "ExperimentContext.result", ()),
    ("experiments.context", "repro.experiments.context", "ExperimentContext.raw_table", ()),
    ("experiments.context", "repro.experiments.context", "ExperimentContext.clean_table", ()),
    ("experiments.context", "repro.experiments.context", "ExperimentContext.scanner_lines", ()),
    ("experiments.context", "repro.experiments.context", "ExperimentContext.raw_flows", ()),
    ("experiments.context", "repro.experiments.context", "ExperimentContext.clean_flows", ()),
    ("simulation.build_world", "repro.simulation.world", "build_world",
     (("simulation.build_world_calls", _one),)),
    ("flows.workload.generate", "repro.flows.workload", "WorkloadGenerator.generate_period_table",
     (("flows.workload.rows", _rows),)),
    ("flows.netflow.export", "repro.flows.netflow", "NetFlowCollector.export_table",
     (("flows.netflow.rows", _rows),)),
    ("flows.flowtable.to_records", "repro.flows.flowtable", "FlowTable.to_records",
     (("flows.flowtable.to_records_rows", _rows),)),
    ("flows.flowtable.group_index", "repro.flows.flowtable", "FlowTable.group_index", ()),
    ("flows.flowtable.group_index", "repro.flows.kernels", "build_group_index",
     (("flows.flowtable.group_index_builds", _one),)),
    ("flows.kernels.aggregate", "repro.flows.flowtable", "FlowTable.group_sums", ()),
    ("flows.kernels.aggregate", "repro.flows.flowtable", "FlowTable.group_sum", ()),
    ("flows.kernels.aggregate", "repro.flows.flowtable", "FlowTable.group_distinct", ()),
    ("flows.kernels.aggregate", "repro.flows.flowtable", "FlowTable.group_distinct_count", ()),
    ("flows.kernels.aggregate", "repro.flows.flowtable", "FlowTable.distinct", ()),
    ("flows.kernels.aggregate", "repro.flows.flowtable", "FlowTable.total", ()),
    ("core.pipeline.run", "repro.core.pipeline", "DiscoveryPipeline.run", ()),
    ("core.pipeline.tls", "repro.core.pipeline", "DiscoveryPipeline.discover_tls", ()),
    ("core.pipeline.ipv6", "repro.core.pipeline", "DiscoveryPipeline.discover_ipv6", ()),
    ("core.pipeline.active_dns", "repro.core.pipeline", "DiscoveryPipeline.discover_active_dns", ()),
    # DiscoveryPipeline.run classifies passive DNS through these two calls
    # rather than through DiscoveryPipeline.discover_passive_dns.
    ("core.pipeline.passive_dns", "repro.core.pipeline", "DiscoveryPipeline.discover_passive_dns", ()),
    ("core.pipeline.passive_dns", "repro.core.discovery", "BackendDiscovery.passive_dns_observations", ()),
    ("core.pipeline.passive_dns", "repro.core.discovery",
     "BackendDiscovery.result_from_passive_observations", ()),
    # Discovery classifies one name per call; bulk match_many is not on its path.
    ("core.matcher.match", "repro.core.matcher", "CompiledPatternSet.match",
     (("core.matcher.names", _one),)),
    ("core.matcher.match", "repro.core.matcher", "CompiledPatternSet.match_all",
     (("core.matcher.names", _one),)),
    ("core.matcher.match", "repro.core.matcher", "CompiledPatternSet.matches_any",
     (("core.matcher.names", _one),)),
    ("core.matcher.match", "repro.core.matcher", "CompiledPatternSet.matches_provider",
     (("core.matcher.names", _one),)),
    ("core.matcher.match", "repro.core.matcher", "CompiledPatternSet.match_many",
     (("core.matcher.names", _rows),)),
    ("core.traffic.scanner_exclusion", "repro.core.traffic", "ScannerExclusion.__init__", ()),
    ("core.traffic.scanner_exclusion", "repro.core.traffic", "ScannerExclusion.scanner_lines", ()),
    ("core.traffic.scanner_exclusion", "repro.core.traffic", "ScannerExclusion.server_coverage", ()),
    ("scan.censys.snapshot", "repro.scan.censys", "CensysService.snapshot",
     (("scan.censys.snapshots", _one),)),
    ("netmodel.geo.lookup_ip", "repro.netmodel.geo", "GeoDatabase.lookup_ip",
     (("netmodel.geo.lookup_ip_calls", _one),)),
    ("routing.bgp.lookup", "repro.routing.bgp", "RoutingTable.lookup",
     (("routing.bgp.lookup_calls", _one),)),
    ("routing.bgp.lookup", "repro.routing.bgp", "RoutingTable.covers",
     (("routing.bgp.lookup_calls", _one),)),
    ("store.get", "repro.store.artifacts", "ArtifactStore.get_table",
     (("store.hits", _hit), ("store.misses", _miss))),
    ("store.get", "repro.store.artifacts", "ArtifactStore.get_pipeline_result",
     (("store.hits", _hit), ("store.misses", _miss))),
    ("store.put", "repro.store.artifacts", "ArtifactStore.put_table", ()),
    ("store.put", "repro.store.artifacts", "ArtifactStore.put_pipeline_result", ()),
    ("experiments.table1", "repro.experiments.characterization", "table1_characterization", ()),
    ("experiments.patterns", "repro.experiments.characterization", "table2_regexes", ()),
    ("experiments.discovery", "repro.experiments.characterization", "pipeline_summary", ()),
    ("experiments.sources", "repro.experiments.characterization", "fig3_source_contribution", ()),
    ("experiments.stability", "repro.experiments.characterization", "fig4_stability", ()),
    ("experiments.validation", "repro.experiments.characterization", "sec34_validation", ()),
    ("experiments.traffic", "repro.experiments.traffic_experiments", "fig5_scanner_threshold", ()),
    ("experiments.traffic", "repro.experiments.traffic_experiments", "fig6_visibility", ()),
    ("experiments.traffic", "repro.experiments.traffic_experiments", "fig7_tls_only_loss", ()),
    ("experiments.traffic", "repro.experiments.traffic_experiments", "fig8_subscriber_activity", ()),
    ("experiments.traffic", "repro.experiments.traffic_experiments", "fig9_traffic_volume", ()),
    ("experiments.traffic", "repro.experiments.traffic_experiments", "fig10_direction_ratio", ()),
    ("experiments.traffic", "repro.experiments.traffic_experiments", "fig11_port_mix", ()),
    ("experiments.traffic", "repro.experiments.traffic_experiments",
     "fig12_per_subscriber_volumes", ()),
    ("experiments.traffic", "repro.experiments.traffic_experiments",
     "fig13_fig14_region_crossing", ()),
    ("experiments.outage", "repro.experiments.disruption_experiments", "fig15_fig16_outage", ()),
    ("experiments.disruptions", "repro.experiments.disruption_experiments",
     "sec62_potential_disruptions", ()),
    ("experiments.ablations", "repro.experiments.disruption_experiments",
     "ablation_portscan_baseline", ()),
    ("experiments.ablations", "repro.experiments.disruption_experiments",
     "ablation_vantage_points", ()),
    ("sweeps.scenario", "repro.sweeps.runner", "SweepRunner.run",
     (("sweeps.scenarios", _rows),)),
)

#: Metrics measured by the benchmark around the wrapped calls rather than by a
#: wrapper: interpreter start-up and exit of each process, import of
#: ``repro.cli``, bytes the store grew by, the cost of installing the
#: wrappers, the traced repetition's wall time, and what no layer explains.
EXTRA_METRICS: Sequence[Tuple[str, str]] = (
    ("process.startup_s", "s"),
    ("process.exit_s", "s"),
    ("cli.import_s", "s"),
    ("store.bytes_written_mb", "MB"),
    ("trace.install_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
)


def layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric the traced run prints, as (name, unit)."""
    names: Dict[str, str] = {}
    for layer, _module, _path, counts in TARGETS:
        names.setdefault(f"{layer}_s", "s")
        for count_name, _measure in counts:
            names.setdefault(count_name, "count")
    for name, unit in EXTRA_METRICS:
        names.setdefault(name, unit)
    return sorted(names.items())


class LayerClock:
    """Self time and counts per layer, folded from nested wrapped calls.

    Each open call keeps an accumulator of the time its measured children
    took; when a call returns, its duration minus that accumulator is its
    self time, and its whole duration is added to its parent's accumulator.
    The wrapped program runs its layers on one thread.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._open: List[List[float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    def call(self, layer: str, fn: Callable, args: tuple, kwargs: dict) -> object:
        """Run ``fn(*args, **kwargs)`` as one call into ``layer``."""
        children = [0.0]
        self._open.append(children)
        start = self._clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self._clock() - start
            self._open.pop()
            self.self_s[layer] += elapsed - children[0]
            if self._open:
                self._open[-1][0] += elapsed

    def wrap(self, layer: str, fn: Callable, counts: Sequence[Count] = ()) -> Callable:
        """A wrapper of ``fn`` that times every call into ``layer``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(layer, fn, args, kwargs)
            for name, measure in counts:
                self.counts[name] += int(measure(result))
            return result

        return wrapper

    def snapshot(self) -> Dict[str, float]:
        """Self times (``<layer>_s``) and counts as one flat mapping."""
        flat: Dict[str, float] = {f"{layer}_s": seconds for layer, seconds in self.self_s.items()}
        flat.update(self.counts)
        return flat


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` at ``replacement``.

    Modules import functions by name (``from repro.simulation.world import
    build_world``), so patching only the defining module would miss callers.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def install(clock: LayerClock) -> None:
    """Import every target module and wrap every target call with ``clock``."""
    for _layer, module_name, _path, _counts in TARGETS:
        importlib.import_module(module_name)
    for layer, module_name, path, counts in TARGETS:
        module = sys.modules[module_name]
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = vars(owner)[attr]
            if isinstance(original, property):
                wrapped = property(clock.wrap(layer, original.fget, counts), doc=original.__doc__)
            else:
                wrapped = clock.wrap(layer, original, counts)
            setattr(owner, attr, wrapped)
        else:
            original = getattr(module, attr)
            _rebind(original, clock.wrap(layer, original, counts))


def store_bytes(root: Optional[str]) -> int:
    """Total size of the files under an artifact-store directory (0 when absent)."""
    if root is None:
        return 0
    base = Path(root)
    if not base.is_dir():
        return 0
    return sum(path.stat().st_size for path in base.rglob("*") if path.is_file())
