"""Parallel all-vertices similarity search (§2.2's distribution claim).

The paper notes the all-vertices mode is "distributed computing
friendly": each vertex's top-k search is independent, so M machines cut
the wall clock by a factor M.  This module realises the same claim on
one machine with ``multiprocessing`` — each worker process receives the
(immutable) graph, config, and candidate index once via the pool
initializer, then answers whole vertex chunks without further pickling
of the shared state.

The output is bit-identical to the sequential :meth:`SimRankEngine.top_k_all`
because every per-vertex query derives its seed the same way from the
base seed (queries are deterministic functions of ``(seed, u)``, not of
execution order).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SimRankConfig
from repro.core.index import CandidateIndex
from repro.core.query import top_k_query, top_k_seed
from repro.graph.csr import CSRGraph
from repro.obs import instrument as obs
from repro.obs.metrics import Snapshot
from repro.utils.rng import SeedLike, derive_seed


__all__ = ["ChunkResult", "top_k_all_parallel"]
# Worker-process globals, installed once by _initializer.
_WORKER_STATE: Dict[str, object] = {}

#: One chunk's answer: the per-vertex item lists plus the chunk's private
#: metrics-registry snapshot (None when metrics are disabled).
ChunkResult = Tuple[List[Tuple[int, List[Tuple[int, float]]]], Optional[Snapshot]]


def _initializer(
    graph: CSRGraph,
    index: CandidateIndex,
    config: SimRankConfig,
    diagonal: np.ndarray,
    seed: Optional[int],
    k: Optional[int],
    metrics_enabled: bool = False,
) -> None:
    _WORKER_STATE["graph"] = graph
    _WORKER_STATE["index"] = index
    _WORKER_STATE["config"] = config
    _WORKER_STATE["diagonal"] = diagonal
    _WORKER_STATE["seed"] = seed
    _WORKER_STATE["k"] = k
    if metrics_enabled:
        # Spawned workers start with metrics off; mirror the parent's
        # switch so chunk queries record into their scoped registries.
        obs.enable()


def _query_chunk(vertices: Sequence[int]) -> ChunkResult:
    graph = _WORKER_STATE["graph"]
    index = _WORKER_STATE["index"]
    config = _WORKER_STATE["config"]
    diagonal = _WORKER_STATE["diagonal"]
    seed = _WORKER_STATE["seed"]
    k = _WORKER_STATE["k"]
    out: List[Tuple[int, List[Tuple[int, float]]]] = []
    if not obs.OBS.enabled:
        for u in vertices:
            result = top_k_query(
                graph,
                index,
                int(u),
                k=k,
                config=config,
                seed=top_k_seed(seed, int(u)),
                diagonal=diagonal,
            )
            out.append((int(u), [(v, float(s)) for v, s in result.items]))
        return out, None
    # Metrics on: collect this chunk into a private registry so the
    # parent can merge exactly what these queries recorded — never the
    # worker's (possibly fork-inherited) global registry.
    with obs.collecting() as chunk_registry:
        for u in vertices:
            result = top_k_query(
                graph,
                index,
                int(u),
                k=k,
                config=config,
                seed=top_k_seed(seed, int(u)),
                diagonal=diagonal,
            )
            out.append((int(u), [(v, float(s)) for v, s in result.items]))
    return out, chunk_registry.snapshot()


def _chunked(items: List[int], chunks: int) -> List[List[int]]:
    size = max(1, (len(items) + chunks - 1) // chunks)
    return [items[i : i + size] for i in range(0, len(items), size)]


def top_k_all_parallel(
    graph: CSRGraph,
    index: CandidateIndex,
    config: SimRankConfig,
    diagonal: np.ndarray,
    seed: SeedLike = None,
    k: Optional[int] = None,
    vertices: Optional[Iterable[int]] = None,
    workers: Optional[int] = None,
    chunks_per_worker: int = 4,
) -> Dict[int, List[Tuple[int, float]]]:
    """Answer Problem 1 for every vertex across a process pool.

    Returns ``{u: [(v, score), ...]}``.  Matches the sequential engine's
    answers exactly (same per-vertex derived seeds).  ``workers``
    defaults to the CPU count; with ``workers=1`` the pool is skipped
    entirely (useful under profilers and on Windows-style spawn costs).
    """
    targets = [int(u) for u in (vertices if vertices is not None else range(graph.n))]
    workers = workers or os.cpu_count() or 1
    # Canonicalise any SeedLike to a stable int before it crosses the
    # process boundary: a Generator can't be pickled usefully, and
    # silently mapping it to None (fresh entropy per worker) would break
    # the documented bit-identical-to-sequential guarantee.
    base_seed = seed if (seed is None or isinstance(seed, int)) else derive_seed(seed)
    metrics_enabled = obs.OBS.enabled
    if workers <= 1 or len(targets) < 2:
        _initializer(graph, index, config, diagonal, base_seed, k)
        try:
            answers, chunk_snapshot = _query_chunk(targets)
        finally:
            _WORKER_STATE.clear()
        if chunk_snapshot is not None:
            obs.merge_worker_snapshot(chunk_snapshot)
        return dict(answers)

    results: Dict[int, List[Tuple[int, float]]] = {}
    chunks = _chunked(targets, workers * chunks_per_worker)
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_initializer,
        initargs=(graph, index, config, diagonal, base_seed, k, metrics_enabled),
    ) as pool:
        for answers, chunk_snapshot in pool.map(_query_chunk, chunks):
            results.update(answers)
            if chunk_snapshot is not None and metrics_enabled:
                obs.merge_worker_snapshot(chunk_snapshot)
    return results
