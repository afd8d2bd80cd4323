"""Scatter-gather merge: the engine's scan reading the shard records.

The workers did all the numeric work (:mod:`repro.shard.worker`); this
module runs the same shell scan the engine runs
(:func:`repro.core.query.scan_shells`) — shell batching, the
frozen-per-shell cutoff, θ-termination, adaptive promote, the k-heap —
with a value source that reads the merged per-candidate records instead
of computing them.  Since every number it reads is the exact bit
pattern the single process would have computed, the replay reproduces
the heap's insertion sequence and therefore the result items *and* the
`QueryStats` counters exactly (``elapsed_seconds`` aside — walltime is
not a semantic output).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Sequence

import numpy as np

from repro.core.config import SimRankConfig
from repro.core.query import PreparedQuery, QueryStats, TopKResult, scan_shells
from repro.errors import ShardError


__all__ = ["replay_merge"]


class _MergedRecords:
    """Scan values read from the workers' records, never computed."""

    def __init__(self, bound: np.ndarray, screen: np.ndarray, refined: np.ndarray) -> None:
        self._bound = bound
        self._screen = screen
        self._refined = refined

    def bound(self, lo: int, hi: int, d: int) -> np.ndarray:
        return _require_finite(self._bound[lo:hi], "bound")

    def screen(self, at: np.ndarray) -> np.ndarray:
        return _require_finite(self._screen[at], "screen")

    def refine(self, at: np.ndarray) -> np.ndarray:
        return _require_finite(self._refined[at], "refined")


def replay_merge(
    u: int,
    k: int,
    config: SimRankConfig,
    shard_results: Sequence[Dict[str, Any]],
    use_l1: bool = True,
    adaptive: bool = True,
) -> TopKResult:
    """Merge per-shard θ-floor records into the exact single-process answer."""
    stats = QueryStats()
    live = [r for r in shard_results if r is not None]
    if not live:
        raise ShardError("no shard results to merge")
    stats.fallback_used = bool(live[0]["fallback_used"])

    v_all = np.concatenate([r["v"] for r in live])
    stats.candidates = int(v_all.size)
    result = TopKResult(u=u, k=k, stats=stats)
    if v_all.size == 0:
        return result
    d_all = np.concatenate([r["d"] for r in live])
    # Recover the exact (distance, vertex) scan order of the sequential
    # algorithm; lexsort's last key is primary.
    order = np.lexsort((v_all, d_all))
    records = _MergedRecords(
        *(np.concatenate([r[key] for r in live])[order]
          for key in ("bound", "screen", "refined"))
    )

    beta = None
    if use_l1:
        beta = next((r["beta"] for r in live if r["beta"] is not None), None)
        if beta is None:
            raise ShardError("use_l1 replay needs a beta vector from a shard")
        beta = np.asarray(beta, dtype=np.float64)

    scan = PreparedQuery(u, k, config, stats, v_all[order], d_all[order], beta)
    result.items = scan_shells(scan, records, adaptive)
    # Walks as the single process counts them: r_alphabeta for the
    # β-vector, r_pair for the estimator's u-sketch, then R per batched
    # candidate — all of which the replay knows exactly.
    stats.walks_simulated = (
        config.r_pair
        + (config.r_alphabeta if use_l1 else 0)
        + stats.screened * config.r_screen
        + stats.refined * config.r_pair
    )
    return result


def _require_finite(values: np.ndarray, kind: str) -> np.ndarray:
    if values.size and math.isnan(float(np.min(values))):
        raise ShardError(
            f"replay needed a {kind} value a shard never computed — "
            "θ-floor superset invariant violated (protocol bug)"
        )
    return values
