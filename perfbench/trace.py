"""Span recording around the public calls of each serving layer.

Installed into the server process by ``perfbench/server.py --trace``;
nothing under ``src/`` knows about it.  Every wrapped call records one
span ``(name, start, end, parent span, request id)`` into compact
in-memory arrays; :meth:`Tracer.dump` writes them out when the server
stops.  The request id is the NDJSON ``id`` the load generator sent,
carried in thread-local context from the event loop across the executor
hand-off (``MicroBatcher._execute`` sets it on the worker thread).

Besides spans the tracer keeps per-request timestamps (admission offer,
batch take, executor entry) and per-call values (``QueryStats`` ratios,
``FlushStats``, shard busy times), each stamped with time and request id
so the aggregator can keep only the measured window.
"""

from __future__ import annotations

import functools
import json
import threading
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

NO_REQUEST = -1


class Tracer:
    """In-memory span store plus the monkeypatches that feed it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.rid = array("q")
        # (time, request id, value) per named series.
        self.values: Dict[str, List[Tuple[float, int, float]]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def name_id(self, name: str) -> int:
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_rid(self) -> int:
        return getattr(self._local, "rid", NO_REQUEST)

    def open(self, nid: int) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        rid = self.current_rid()
        now = perf_counter()
        with self._lock:
            idx = len(self.start)
            self.name.append(nid)
            self.start.append(now)
            self.end.append(now)
            self.parent.append(parent)
            self.rid.append(rid)
        stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        now = perf_counter()
        self.end[idx] = now
        self._stack().pop()
        return now - self.start[idx]

    def value(self, series: str, value: float, rid: Optional[int] = None) -> None:
        entry = (perf_counter(), self.current_rid() if rid is None else rid, float(value))
        with self._lock:
            self.values.setdefault(series, []).append(entry)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def span(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[[int, tuple, dict, Any], None]] = None,
    ) -> None:
        """Wrap ``owner.attr`` so each call records one span ``name``."""
        original = owner.__dict__[attr]
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = tracer.open(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write spans (``.npz``) and value series (``.json`` beside it)."""
        with self._lock:
            np.savez(
                path,
                name=np.frombuffer(self.name, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
                parent=np.frombuffer(self.parent, dtype=np.int64),
                rid=np.frombuffer(self.rid, dtype=np.int64),
            )
            meta = {"names": self.names, "values": self.values}
        with open(path + ".json", "w") as fh:
            json.dump(meta, fh)


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the benchmark reports on."""
    from repro.core import bounds, dynamic, engine, index, montecarlo, query, walks
    from repro.graph import csr
    from repro.serve import admission, batching, lifecycle, protocol
    from repro.shard import pool
    from repro import workloads

    local = tracer._local
    t = tracer

    # -- serve.protocol ------------------------------------------------
    def after_decode(idx: int, args: tuple, kwargs: dict, result: Any) -> None:
        rid = result.get("id") if isinstance(result, dict) else None
        if isinstance(rid, int):
            t.rid[idx] = rid

    def after_encode(idx: int, args: tuple, kwargs: dict, result: Any) -> None:
        rid = args[0].get("id") if args and isinstance(args[0], dict) else None
        if isinstance(rid, int):
            t.rid[idx] = rid

    t.span(protocol, "decode", "protocol.decode", after_decode)
    t.span(protocol, "encode", "protocol.encode", after_encode)

    # -- serve.admission / serve.batching --------------------------------
    queue_cls = admission.AdmissionQueue
    offer = queue_cls.offer
    take = queue_cls.take
    drain = queue_cls._drain

    def ticket_rid(ticket: Any) -> int:
        rid = ticket.payload.get("id") if isinstance(ticket.payload, dict) else None
        return rid if isinstance(rid, int) else NO_REQUEST

    @functools.wraps(offer)
    def offer_wrapper(self: Any, ticket: Any) -> bool:
        ticket._pb_offer = perf_counter()
        admitted = offer(self, ticket)
        rid = ticket_rid(ticket)
        t.value("admission.depth", len(self), rid)
        if not admitted:
            t.value("admission.shed", 1.0, rid)
        return admitted

    @functools.wraps(drain)
    def drain_wrapper(self: Any, batch: list, max_items: int) -> None:
        if getattr(self, "_pb_first_drain", None) is None:
            self._pb_first_drain = perf_counter()
        drain(self, batch, max_items)

    @functools.wraps(take)
    async def take_wrapper(self: Any, max_items: int = 16, window: float = 0.0) -> list:
        self._pb_first_drain = None
        batch = await take(self, max_items, window)
        now = perf_counter()
        if batch:
            first = self._pb_first_drain if self._pb_first_drain is not None else now
            t.value("batching.linger", now - first)
            t.value("batching.batch_size", len(batch))
            for ticket in batch:
                ticket._pb_taken = now
                offered = getattr(ticket, "_pb_offer", now)
                t.value("admission.wait", now - offered, ticket_rid(ticket))
        return batch

    queue_cls.offer = offer_wrapper
    queue_cls._drain = drain_wrapper
    queue_cls.take = take_wrapper

    execute = batching.MicroBatcher._execute
    execute_nid = t.name_id("serve.execute")

    @functools.wraps(execute)
    def execute_wrapper(self: Any, snapshot: Any, ticket: Any) -> Any:
        local.rid = ticket_rid(ticket)
        local.dispatched = getattr(ticket, "_pb_taken", None)
        idx = t.open(execute_nid)
        try:
            return execute(self, snapshot, ticket)
        finally:
            t.close(idx)
            local.rid = NO_REQUEST
            local.dispatched = None

    batching.MicroBatcher._execute = execute_wrapper

    # -- serve.lifecycle / workloads (cache) -----------------------------
    snapshot_top_k = lifecycle.EngineSnapshot.top_k
    snapshot_nid = t.name_id("lifecycle.snapshot_top_k")

    @functools.wraps(snapshot_top_k)
    def snapshot_wrapper(self: Any, u: int, k: Any = None) -> Any:
        dispatched = getattr(local, "dispatched", None)
        if dispatched is not None:
            t.value("batching.handoff", perf_counter() - dispatched)
            local.dispatched = None
        idx = t.open(snapshot_nid)
        try:
            return snapshot_top_k(self, u, k)
        finally:
            t.close(idx)

    lifecycle.EngineSnapshot.top_k = snapshot_wrapper

    cached_top_k = workloads.CachedSimRankEngine.top_k
    cache_nid = t.name_id("cache.top_k")

    @functools.wraps(cached_top_k)
    def cached_wrapper(self: Any, u: int, k: Any = None) -> Any:
        local.engine_called = False
        idx = t.open(cache_nid)
        try:
            return cached_top_k(self, u, k)
        finally:
            elapsed = t.close(idx)
            if local.engine_called:
                t.value("cache.miss", 1.0)
            else:
                t.value("cache.hit_lookup", elapsed)

    workloads.CachedSimRankEngine.top_k = cached_wrapper

    def mark_engine(idx: int, args: tuple, kwargs: dict, result: Any) -> None:
        local.engine_called = True

    t.span(engine.SimRankEngine, "top_k", "engine.top_k", mark_engine)
    t.span(lifecycle.EngineHandle, "swap", "lifecycle.swap")

    # -- core.query / core.index / graph.traversal / core.bounds ---------
    def after_query(idx: int, args: tuple, kwargs: dict, result: Any) -> None:
        stats = result.stats
        t.value("query.candidates", stats.candidates)
        if stats.candidates:
            t.value(
                "query.prune_ratio",
                (stats.pruned_by_bound + stats.skipped_by_termination) / stats.candidates,
            )
        if stats.screened:
            t.value("query.refine_ratio", stats.refined / stats.screened)
        t.value("montecarlo.walks", stats.walks_simulated)

    t.span(engine, "top_k_query", "query.top_k_query", after_query)
    t.span(index.CandidateIndex, "candidates", "index.candidates")
    t.span(engine, "build_index", "index.build_index")
    for module in (query, bounds):
        t.span(module, "bfs_distances", "traversal.bfs_distances")
    for module in (query, dynamic):
        t.span(module, "distance_ball", "traversal.distance_ball")
    t.span(query, "compute_alpha_beta", "bounds.compute_alpha_beta")
    t.span(bounds.GammaTable, "bound_many", "bounds.gamma_bound_many")
    t.span(index, "compute_gamma_all", "bounds.compute_gamma_all")

    # -- core.montecarlo / core.walks ------------------------------------
    estimator = montecarlo.SingleSourceEstimator
    t.span(estimator, "__init__", "montecarlo.u_bundle")
    estimate_batch = estimator.estimate_batch
    screen_nid = t.name_id("montecarlo.screen")
    refine_nid = t.name_id("montecarlo.refine")
    other_nid = t.name_id("montecarlo.estimate_batch")

    @functools.wraps(estimate_batch)
    def estimate_wrapper(self: Any, candidates: Any, R: Any = None) -> Any:
        samples = R if R is not None else self.config.r_pair
        if samples == self.config.r_screen:
            nid = screen_nid
        elif samples == self.config.r_pair:
            nid = refine_nid
        else:
            nid = other_nid
        idx = t.open(nid)
        try:
            return estimate_batch(self, candidates, R)
        finally:
            t.close(idx)

    estimator.estimate_batch = estimate_wrapper
    t.span(montecarlo, "derive_seed", "montecarlo.rng")
    t.span(montecarlo, "ensure_rng", "montecarlo.rng")
    t.span(walks.WalkEngine, "step_given", "walks.step_given")
    t.span(montecarlo, "segment_collisions", "walks.segment_collisions")
    t.span(walks.FlatSketch, "__init__", "walks.flat_sketch")

    # -- shard.pool / shard.merge ----------------------------------------
    shard_top_k = pool.ShardPool.top_k
    shard_nid = t.name_id("shard.top_k")

    @functools.wraps(shard_top_k)
    def shard_wrapper(self: Any, u: int, *args: Any, **kwargs: Any) -> Any:
        local.engine_called = True
        timings = kwargs.get("timings_out")
        if timings is None:
            timings = kwargs["timings_out"] = {}
        idx = t.open(shard_nid)
        try:
            return shard_top_k(self, u, *args, **kwargs)
        finally:
            t.close(idx)
            busy = timings.get("busy_seconds") or []
            if busy:
                t.value("shard.busy", max(busy))
                mean = sum(busy) / len(busy)
                t.value("shard.imbalance", max(busy) / mean if mean > 0 else 1.0)

    pool.ShardPool.top_k = shard_wrapper
    t.span(pool, "replay_merge", "shard.replay_merge")
    t.span(pool.ShardPool, "publish", "shard.publish")

    # -- core.dynamic / graph.csr / index + γ repair ----------------------
    dyn = dynamic.DynamicSimRankEngine
    t.span(dyn, "add_edge", "dynamic.stage")
    t.span(dyn, "remove_edge", "dynamic.stage")
    t.span(dynamic.FlushPipeline, "throttle", "dynamic.throttle")

    def after_flush(idx: int, args: tuple, kwargs: dict, result: Any) -> None:
        if result.edits_applied:
            t.value("dynamic.edits_per_flush", result.edits_applied)
            t.value(
                "dynamic.affected_per_edit",
                result.vertices_affected / result.edits_applied,
            )
            t.value("dynamic.full_rebuild", 1.0 if result.full_rebuild else 0.0)

    t.span(dyn, "flush", "dynamic.flush", after_flush)
    t.span(csr.CSRGraph, "apply_delta", "csr.apply_delta")
    t.span(index.CandidateIndex, "clone_cow", "index.clone_cow")
    t.span(dynamic, "build_signatures", "index.repair")
    t.span(dynamic, "compute_gamma_rows", "bounds.gamma_repair")
