"""Scatter-gather throughput: ``ShardPool`` at 1/2/4 shards.

The workload is the one sharding exists for: *hub* queries — vertices
whose θ-floor candidate sets are largest, i.e. the most expensive
single-source queries the serving tier sees.  Each query is scattered
through a real multi-process :class:`~repro.shard.pool.ShardPool`
(spawn workers, shared-memory attach, replay merge), so the numbers
include the true coordination overhead: pickling, pipe transfer, and
the coordinator's replay loop.

Accounting.  The headline ``speedups`` are measured wall clock over the
1-shard pool, and only for shard counts the host has a core for
(``shards <= cpu_count``); a larger count reads "no measured speedup",
because its workers time-slice fewer cores and wall clock shows no
parallelism.  Per query we also compute the critical-path model

    span = max(max(busy_s), sum(busy_s) / min(shards, cpu_count))
    modeled_wall = (wall - span) + max(busy_s)

where ``busy_s`` is each shard's self-reported in-worker compute time
and ``span`` the wall time the workers' compute can have taken on this
host: serial coordination cost stays fully counted, and the per-shard
compute collapses to the slowest shard — the wall clock a machine with
``cpu_count >= shards`` would see.  Where the host has that many cores
the model equals the measured wall clock; on one core ``span`` is
``sum(busy_s)``.  The model is recorded as the separately labelled
``modeled_speedups`` field, never as the headline.

The regression gate asserts bit-identity against the single-process
engine on every query and a >= 1.7x modeled speedup at 4 shards
(relaxed in ``REPRO_BENCH_QUICK=1`` smoke runs, which use fewer queries
and therefore noisier timings).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core.engine import SimRankEngine
from repro.graph.generators import copying_web_graph
from repro.shard.pool import ShardPool
from repro.utils.bench import write_sidecar

SIDECAR_PATH = Path(__file__).resolve().parent.parent / "BENCH_shard.json"

#: Shard counts compared; 1 is the scatter-gather baseline (one worker
#: owning every vertex), so coordination overhead is paid on both sides
#: and the ratio isolates the parallelism win.
SHARD_COUNTS = (1, 2, 4)


def _hub_vertices(engine: SimRankEngine, n_hubs: int, sample_n: int) -> List[int]:
    """The ``n_hubs`` sampled vertices with the largest candidate sets."""
    rng = np.random.default_rng(0)
    sample = rng.choice(engine.graph.n, size=sample_n, replace=False)
    ranked = sorted(
        ((engine.top_k(int(u)).stats.candidates, int(u)) for u in sample),
        reverse=True,
    )
    return [u for _, u in ranked[:n_hubs]]


class TestShardThroughput:
    def test_scatter_gather_speedup_and_sidecar(self, bench_config):
        quick = os.environ.get("REPRO_BENCH_QUICK") == "1"
        # Hub serving workload: low θ keeps the floor wide, so screening
        # and refinement (the work the shards divide) dominate the
        # per-shard duplicated prologue (BFS shells + L1 bound walks).
        config = bench_config.with_(theta=0.0005)
        graph = copying_web_graph(6000, out_degree=6, seed=31)
        engine = SimRankEngine(graph, config, seed=7).preprocess()
        hubs = _hub_vertices(
            engine, n_hubs=6 if quick else 16, sample_n=40 if quick else 80
        )
        expected = {u: engine.top_k(u).items for u in hubs}

        cpu_count = os.cpu_count() or 1
        runs: Dict[int, Dict[str, float]] = {}
        for n_shards in SHARD_COUNTS:
            wall_total = modeled_total = busy_total = 0.0
            with ShardPool(engine, n_shards) as pool:
                pool.top_k(hubs[0])  # warm every worker's query path
                for u in hubs:
                    timings: Dict[str, object] = {}
                    result = pool.top_k(u, timings_out=timings)
                    assert result.items == expected[u]
                    wall = float(timings["wall_seconds"])
                    busy = [float(b) for b in timings["busy_seconds"]]
                    wall_total += wall
                    # Worker compute overlaps at most min(shards, cores)
                    # ways; the rest of the wall clock is serial.
                    span = max(max(busy), sum(busy) / min(n_shards, cpu_count))
                    modeled_total += (wall - span) + max(busy)
                    busy_total += sum(busy)
            runs[n_shards] = {
                "wall_seconds": wall_total,
                "modeled_wall_seconds": modeled_total,
                "busy_seconds": busy_total,
            }

        # Measured wall clock is only meaningful when the workers do not
        # time-slice fewer cores than there are shards.
        base = runs[SHARD_COUNTS[0]]
        speedups = {
            str(s): base["wall_seconds"] / runs[s]["wall_seconds"]
            if s <= cpu_count
            else f"no measured speedup: {s} shards on {cpu_count} cores"
            for s in SHARD_COUNTS
        }
        modeled_speedups = {
            str(s): base["modeled_wall_seconds"] / runs[s]["modeled_wall_seconds"]
            for s in SHARD_COUNTS
        }
        throughput = {str(s): len(hubs) / runs[s]["wall_seconds"] for s in SHARD_COUNTS}

        sidecar = {
            "graph": {"n": graph.n, "m": graph.m},
            "parameters": {
                "T": config.T,
                "theta": config.theta,
                "k": config.k,
                "queries": len(hubs),
                "quick": quick,
            },
            "host": {"cpu_count": cpu_count},
            "runs_seconds": runs,
            "throughput_qps": throughput,
            "speedups": speedups,
            "modeled_speedups": modeled_speedups,
        }
        write_sidecar(SIDECAR_PATH, "shard", sidecar)

        assert modeled_speedups["2"] >= (1.0 if quick else 1.2)
        assert modeled_speedups["4"] >= (1.3 if quick else 1.7)
