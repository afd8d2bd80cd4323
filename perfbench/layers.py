"""Per-layer metrics: the catalog, its routing table, and the aggregator.

The catalog names every metric the traced run reports, the module
(layer) it measures, the end-to-end metric a gain in that layer must
show up in, and the workload it is routed to.  A later change that
claims a gain names its layer here and predicts "no change" for every
other pairing.

Timing metrics are reported as three per-layer values: the median per
call (``<base>_<unit>``), the number of calls (``<base>.calls``) and the
total busy seconds (``<base>.busy_s``); the p99 per call is printed in
the human-readable table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from perfbench.stats import self_times

UNIT_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


@dataclass(frozen=True)
class Timing:
    base: str  # e.g. "protocol.decode"
    unit: str  # us | ms | s
    source: str  # span name, or value series name when kind == "value"
    kind: str  # "dur" span duration | "self" span self time | "value" series
    layer: str
    moves: str  # end-to-end metric(s) a gain here should move
    workload: str
    scope: str = "window"  # "window" | "setup"

    @property
    def name(self) -> str:
        return f"{self.base}_{self.unit}"


@dataclass(frozen=True)
class Figure:
    name: str
    unit: str
    layer: str
    moves: str
    workload: str


R50 = "read_p50_ms"
TIMINGS: List[Timing] = [
    Timing("protocol.decode", "us", "protocol.decode", "dur", "serve.protocol", R50, "hot-social"),
    Timing("protocol.encode", "us", "protocol.encode", "dur", "serve.protocol", R50, "hot-social"),
    Timing("admission.wait", "ms", "admission.wait", "value", "serve.admission",
           "read_p50_ms, failed_frac", "hot-social"),
    Timing("batching.linger", "ms", "batching.linger", "value", "serve.batching", R50, "hot-social"),
    Timing("batching.handoff", "ms", "batching.handoff", "value", "serve.batching",
           "read_p50_ms, read_qps", "hot-social, uniform-web"),
    Timing("cache.lookup", "us", "cache.hit_lookup", "value", "workloads", R50, "hot-social"),
    Timing("query.top_k", "ms", "query.top_k_query", "self", "core.query",
           "read_p50_ms, read_qps, recall_at_k", "uniform-web"),
    Timing("index.candidates", "us", "index.candidates", "dur", "core.index", R50, "uniform-web"),
    Timing("index.build", "s", "index.build_index", "dur", "core.index", "setup_s",
           "all", scope="setup"),
    Timing("traversal.bfs", "ms", "traversal.bfs_distances", "dur", "graph.traversal", R50,
           "uniform-web"),
    Timing("traversal.ball", "ms", "traversal.distance_ball", "dur", "graph.traversal",
           "visible_p50_s", "churn-web"),
    Timing("bounds.alpha_beta", "ms", "bounds.compute_alpha_beta", "self", "core.bounds", R50,
           "uniform-web"),
    Timing("bounds.gamma", "us", "bounds.gamma_bound_many", "dur", "core.bounds", R50,
           "uniform-web"),
    Timing("bounds.gamma_build", "s", "bounds.compute_gamma_all", "dur", "core.bounds",
           "setup_s", "all", scope="setup"),
    Timing("montecarlo.u_bundle", "ms", "montecarlo.u_bundle", "dur", "core.montecarlo",
           "read_p50_ms, read_qps", "uniform-web"),
    Timing("montecarlo.screen", "ms", "montecarlo.screen", "dur", "core.montecarlo",
           "read_p50_ms, read_qps", "uniform-web"),
    Timing("montecarlo.refine", "ms", "montecarlo.refine", "dur", "core.montecarlo",
           "read_p50_ms, read_qps", "uniform-web"),
    Timing("montecarlo.rng", "us", "montecarlo.rng", "dur", "core.montecarlo",
           "read_p50_ms, read_qps", "uniform-web"),
    Timing("walks.step", "us", "walks.step_given", "dur", "core.walks", R50, "uniform-web"),
    Timing("walks.collision", "us", "walks.segment_collisions", "dur", "core.walks", R50,
           "uniform-web"),
    Timing("walks.sketch", "us", "walks.flat_sketch", "dur", "core.walks", R50, "uniform-web"),
    Timing("shard.query", "ms", "shard.top_k", "dur", "shard.pool", R50, "shard2-web"),
    Timing("shard.busy", "ms", "shard.busy", "value", "shard.pool", R50, "shard2-web"),
    Timing("shard.comm", "ms", "shard.comm", "value", "shard.pool", R50, "shard2-web"),
    Timing("shard.merge", "ms", "shard.replay_merge", "dur", "shard.merge", R50, "shard2-web"),
    Timing("shard.publish", "s", "shard.publish", "dur", "shard.pool", "setup_s", "shard2-web",
           scope="setup"),
    Timing("dynamic.stage", "us", "dynamic.stage", "dur", "core.dynamic", "write_p99_ms",
           "churn-web"),
    Timing("dynamic.throttle", "ms", "dynamic.throttle", "dur", "core.dynamic", "write_p99_ms",
           "churn-web"),
    Timing("dynamic.flush", "ms", "dynamic.flush", "dur", "core.dynamic", "visible_p50_s",
           "churn-web"),
    Timing("csr.apply_delta", "ms", "csr.apply_delta", "dur", "graph.csr",
           "visible_p50_s, read_p90_ms", "churn-web"),
    Timing("index.clone_cow", "ms", "index.clone_cow", "dur", "core.index",
           "visible_p50_s, read_p90_ms", "churn-web"),
    Timing("index.repair", "ms", "index.repair", "dur", "core.index",
           "visible_p50_s, read_p90_ms", "churn-web"),
    Timing("bounds.gamma_repair", "ms", "bounds.gamma_repair", "dur", "core.bounds",
           "visible_p50_s, read_p90_ms", "churn-web"),
]

FIGURES: List[Figure] = [
    Figure("admission.depth_max", "count", "serve.admission", "read_p50_ms, failed_frac",
           "hot-social"),
    Figure("admission.shed", "count", "serve.admission", "failed_frac", "hot-social"),
    Figure("batching.batch_size", "count", "serve.batching", "read_qps", "uniform-web"),
    Figure("cache.hit_ratio", "ratio", "workloads", R50, "hot-social"),
    Figure("lifecycle.swaps", "count", "serve.lifecycle", "read_p90_ms", "churn-web"),
    Figure("query.candidates", "count", "core.query", "read_p50_ms, recall_at_k", "uniform-web"),
    Figure("query.prune_ratio", "ratio", "core.query", "read_p50_ms, recall_at_k", "uniform-web"),
    Figure("query.refine_ratio", "ratio", "core.query", "read_p50_ms, recall_at_k",
           "uniform-web"),
    Figure("index.mb", "MB", "core.index", "rss_mb", "all"),
    Figure("traversal.bfs_per_query", "count", "graph.traversal", R50, "uniform-web"),
    Figure("montecarlo.rng_calls_per_query", "count", "core.montecarlo", R50, "uniform-web"),
    Figure("montecarlo.walks_per_query", "count", "core.montecarlo", "read_p50_ms, read_qps",
           "uniform-web"),
    Figure("shard.imbalance", "ratio", "shard.pool", R50, "shard2-web"),
    Figure("dynamic.edits_per_flush", "count", "core.dynamic", "visible_p50_s", "churn-web"),
    Figure("dynamic.affected_per_edit", "count", "core.dynamic", "visible_p50_s", "churn-web"),
    Figure("dynamic.full_rebuilds", "count", "core.dynamic", "visible_p50_s", "churn-web"),
    # Run-level figures of the traced invocation.
    Figure("trace.read_p50_ms", "ms", "trace", R50, "all"),
    Figure("trace.overhead_ms", "ms", "trace", R50, "all"),
    Figure("trace.accounted_share", "ratio", "trace", R50, "all"),
    # Client-side figures that carry no bound: the tail and throughput
    # swing more than any allowed bound between identical runs on a
    # 2-vCPU host, and the write figures exist on churn-web only.
    # Measured in the untraced half of a traced invocation.
    Figure("client.read_p90_ms", "ms", "client", "read_p90_ms", "all"),
    Figure("client.read_p99_ms", "ms", "client", "read_p99_ms", "all"),
    Figure("client.read_qps", "1/s", "client", "read_qps", "all"),
    Figure("client.write_p50_ms", "ms", "client", "write_p50_ms", "churn-web"),
    Figure("client.write_p99_ms", "ms", "client", "write_p99_ms", "churn-web"),
    Figure("client.visible_p50_s", "s", "client", "visible_p50_s", "churn-web"),
]


def catalog() -> List[Dict[str, str]]:
    """Every per-layer metric as BENCHMARK.json lists it (name, unit, better)."""
    out = []
    for t in TIMINGS:
        out.append({"name": t.name, "unit": t.unit, "better": "lower"})
        out.append({"name": f"{t.base}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{t.base}.busy_s", "unit": "s", "better": "lower"})
    higher = {"cache.hit_ratio", "query.prune_ratio", "trace.accounted_share",
              "client.read_qps"}
    for f in FIGURES:
        out.append({"name": f.name, "unit": f.unit,
                    "better": "higher" if f.name in higher else "lower"})
    return out


def routing() -> List[Dict[str, str]]:
    """The per-layer -> end-to-end -> workload routing table."""
    rows = [{"metric": t.name, "layer": t.layer, "moves": t.moves, "workload": t.workload}
            for t in TIMINGS]
    rows += [{"metric": f.name, "layer": f.layer, "moves": f.moves, "workload": f.workload}
             for f in FIGURES]
    return rows


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

class Trace:
    """Spans and value series the traced server wrote, cut to one window."""

    def __init__(self, path: str, window_ids: Tuple[int, int], window_time: Tuple[float, float]):
        data = np.load(path)
        with open(path + ".json") as fh:
            meta = json.load(fh)
        self.names: List[str] = meta["names"]
        self.values: Dict[str, List[List[float]]] = meta["values"]
        self.name = data["name"]
        self.start = data["start"]
        self.end = data["end"]
        self.parent = data["parent"]
        self.rid = data["rid"]
        self.duration = self.end - self.start
        self.self_time = self_times(self.duration, self.parent)
        lo, hi = window_ids
        t0, t1 = window_time
        request = (self.rid >= lo) & (self.rid <= hi)
        background = (self.rid < 0) & (self.start >= t0) & (self.start <= t1)
        self.in_window = request | background
        self.in_setup = self.start < t0
        self.window_ids = window_ids
        self.window_time = window_time

    def mask(self, span: str, scope: str = "window") -> np.ndarray:
        if span not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        chosen = self.name == self.names.index(span)
        return chosen & (self.in_setup if scope == "setup" else self.in_window)

    def series(self, name: str, scope: str = "window") -> np.ndarray:
        rows = self.values.get(name, [])
        if not rows:
            return np.zeros(0)
        arr = np.asarray(rows, dtype=np.float64)
        t, rid, value = arr[:, 0], arr[:, 1], arr[:, 2]
        if scope == "setup":
            keep = t < self.window_time[0]
        else:
            lo, hi = self.window_ids
            t0, t1 = self.window_time
            keep = ((rid >= lo) & (rid <= hi)) | ((rid < 0) & (t >= t0) & (t <= t1))
        return value[keep]

    def samples(self, timing: Timing) -> np.ndarray:
        """Seconds per call of one timing metric."""
        if timing.kind == "value":
            if timing.source == "shard.comm":
                return self.shard_comm()
            return self.series(timing.source, timing.scope)
        mask = self.mask(timing.source, timing.scope)
        return (self.self_time if timing.kind == "self" else self.duration)[mask]

    def per_request(self, span: str) -> Dict[int, float]:
        mask = self.mask(span) & (self.rid >= 0)
        out: Dict[int, float] = {}
        for rid, d in zip(self.rid[mask].tolist(), self.duration[mask].tolist()):
            out[rid] = out.get(rid, 0.0) + d
        return out

    def shard_comm(self) -> np.ndarray:
        """Per sharded query: wall - largest worker busy - merge."""
        wall = self.per_request("shard.top_k")
        merge = self.per_request("shard.replay_merge")
        rows = self.values.get("shard.busy", [])
        lo, hi = self.window_ids
        busy = {int(r): v for _, r, v in rows if lo <= r <= hi}
        return np.asarray(
            [wall[r] - busy[r] - merge.get(r, 0.0) for r in wall if r in busy]
        )


def aggregate(trace: Trace, client_ids: List[int], client_latency: List[float]) -> Tuple[
    Dict[str, float], List[Dict[str, object]]
]:
    """(per-layer metrics, human-readable detail rows)."""
    metrics: Dict[str, float] = {}
    detail: List[Dict[str, object]] = []
    for timing in TIMINGS:
        secs = trace.samples(timing)
        scale = UNIT_SCALE[timing.unit]
        p50, p99 = np.percentile(secs, [50.0, 99.0]) * scale if secs.size else (0.0, 0.0)
        metrics[timing.name] = float(p50)
        metrics[f"{timing.base}.calls"] = float(secs.size)
        metrics[f"{timing.base}.busy_s"] = float(secs.sum())
        detail.append({"metric": timing.name, "calls": int(secs.size),
                       "busy_s": float(secs.sum()), "p50": float(p50), "p99": float(p99)})

    def median(values: np.ndarray) -> float:
        return float(np.median(values)) if values.size else 0.0

    def mean(values: np.ndarray) -> float:
        return float(np.mean(values)) if values.size else 0.0

    queries = int(trace.mask("query.top_k_query").sum())
    per_query = 1.0 / queries if queries else 0.0
    depth = trace.series("admission.depth")
    hits = trace.series("cache.hit_lookup").size
    misses = trace.series("cache.miss").size
    index_bytes = trace.series("index.bytes", scope="setup")
    metrics.update({
        "admission.depth_max": float(depth.max()) if depth.size else 0.0,
        "admission.shed": float(trace.series("admission.shed").size),
        "batching.batch_size": mean(trace.series("batching.batch_size")),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "lifecycle.swaps": float(trace.mask("lifecycle.swap").sum()),
        "query.candidates": median(trace.series("query.candidates")),
        "query.prune_ratio": mean(trace.series("query.prune_ratio")),
        "query.refine_ratio": mean(trace.series("query.refine_ratio")),
        "index.mb": float(index_bytes[-1]) / 1e6 if index_bytes.size else 0.0,
        "traversal.bfs_per_query": trace.mask("traversal.bfs_distances").sum() * per_query,
        "montecarlo.rng_calls_per_query": trace.mask("montecarlo.rng").sum() * per_query,
        "montecarlo.walks_per_query": median(trace.series("montecarlo.walks")),
        "shard.imbalance": median(trace.series("shard.imbalance")),
        "dynamic.edits_per_flush": median(trace.series("dynamic.edits_per_flush")),
        "dynamic.affected_per_edit": median(trace.series("dynamic.affected_per_edit")),
        "dynamic.full_rebuilds": float(trace.series("dynamic.full_rebuild").sum()),
    })
    metrics["trace.accounted_share"], shares = blocking_path(trace, client_ids, client_latency)
    detail.extend(shares)
    return metrics, detail


#: Server-side steps a request blocks on, in order.  Engine work is the
#: ``serve.execute`` span; everything outside them (socket, loop
#: scheduling, the executor future's return) is unaccounted.
BLOCKING_STEPS = ("protocol.decode", "admission.wait", "batching.handoff",
                  "serve.execute", "protocol.encode")


def blocking_path(trace: Trace, client_ids: List[int], client_latency: List[float]) -> Tuple[
    float, List[Dict[str, object]]
]:
    """Share of client latency the traced steps account for, plus per-layer shares.

    Means are used because they add up: the per-layer self times of a
    request sum to its ``serve.execute`` span.
    """
    latency = dict(zip(client_ids, client_latency))
    if not latency:
        return 0.0, []
    mean_latency = float(np.mean(client_latency))
    steps: Dict[str, Dict[int, float]] = {
        "protocol.decode": trace.per_request("protocol.decode"),
        "protocol.encode": trace.per_request("protocol.encode"),
        "serve.execute": trace.per_request("serve.execute"),
    }
    lo, hi = trace.window_ids
    for series in ("admission.wait", "batching.handoff"):
        rows = trace.values.get(series, [])
        steps[series] = {int(r): v for _, r, v in rows if lo <= r <= hi}
    accounted = sum(
        float(np.mean([steps[s].get(r, 0.0) for r in latency])) for s in BLOCKING_STEPS
    )
    # Per-layer self time inside serve.execute, grouped by module prefix.
    request = (trace.rid >= lo) & (trace.rid <= hi)
    groups: Dict[str, float] = {}
    for nid, name in enumerate(trace.names):
        mask = request & (trace.name == nid)
        if mask.any() and name not in ("protocol.decode", "protocol.encode"):
            group = name.split(".")[0]
            groups[group] = groups.get(group, 0.0) + float(trace.self_time[mask].sum())
    rows: List[Dict[str, object]] = []
    for step in ("protocol.decode", "admission.wait", "batching.handoff", "protocol.encode"):
        mean = float(np.mean([steps[step].get(r, 0.0) for r in latency]))
        rows.append({"layer": step, "mean_ms": mean * 1e3, "share": mean / mean_latency})
    for group, total in sorted(groups.items(), key=lambda kv: -kv[1]):
        mean = total / len(latency)
        rows.append({"layer": group, "mean_ms": mean * 1e3, "share": mean / mean_latency})
    return accounted / mean_latency, rows

