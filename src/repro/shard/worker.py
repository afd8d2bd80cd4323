"""Shard worker: the engine's scan over owned candidates, and the process loop.

**Why bit-identity survives sharding.**  Every per-candidate number the
single-process Algorithm 5 computes is *composition-independent*: batch
estimates draw from per-candidate derived seeds
(``derive_seed(batch_seed, v, R)``), γ bounds are row-wise, and the L1
β-vector depends only on ``(seed, u)``.  The only state that couples
candidates is the *control flow* — the k-heap cutoff that decides who
gets pruned, screened, or refined.  So each shard runs the engine's own
prologue and scan (:mod:`repro.core.query`) over the candidates it owns,
with a heap that never fills: its cutoff stays at θ, the loosest one
the real scan can ever have (``cutoff() = max(θ, kth_best)``).  It
prunes only what θ alone prunes, screens every survivor, and refines
everything whose screen clears ``θ·screen_slack``.  Because the real
cutoff is always ≥ θ and ``screen_slack ≥ 0``, these decisions are a
superset of the real scan's — every value the coordinator's replay
(:func:`repro.shard.merge.replay_merge`) will ask for has been
computed, with the exact bits the single process would have produced.
θ-termination depends only on β and θ and is monotone in the distance,
so keeping only owned shells does not move the point where it stops.

The worker process itself is a small message loop over a duplex pipe:
``load_epoch`` attaches a :class:`SharedArrayBundle` and rebuilds the
engine zero-copy, ``patch`` rolls a resident epoch forward by applying
a row-level delta segment (edited edges + affected signature/γ rows —
O(Δ) transport instead of a full re-export; the patched arrays are
fresh process-local copies, so the delta segment closes immediately
and the base epoch can still be released), ``release_epoch`` drops an
epoch (the sanitizer screams if any view survives), ``query`` scores,
``pair`` answers ``engine.single_pair``, ``health`` reports loaded
epochs, ``stop`` exits.  It keeps at
most the two newest epochs, so a swap never races an in-flight query.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.core.engine import SimRankEngine
from repro.core.query import (
    ComputedValues,
    PreparedQuery,
    prepare_query,
    scan_shells,
    top_k_seed,
)
from repro.shard.plan import ShardPlan


__all__ = ["score_shard", "worker_main"]


class _RecordedValues(ComputedValues):
    """Computes like the engine and keeps every value it computed."""

    def __init__(self, query: PreparedQuery) -> None:
        super().__init__(query)
        self.bounds = np.full(query.ordered.size, np.nan)
        self.screens = np.full(query.ordered.size, np.nan)
        self.refines = np.full(query.ordered.size, np.nan)

    def bound(self, lo: int, hi: int, d: int) -> np.ndarray:
        self.bounds[lo:hi] = values = super().bound(lo, hi, d)
        return values

    def screen(self, at: np.ndarray) -> np.ndarray:
        self.screens[at] = values = super().screen(at)
        return values

    def refine(self, at: np.ndarray) -> np.ndarray:
        self.refines[at] = values = super().refine(at)
        return values


def score_shard(
    engine: SimRankEngine,
    plan: ShardPlan,
    shard_id: int,
    u: int,
    k: Optional[int] = None,
    use_l1: bool = True,
    use_l2: bool = True,
    adaptive: bool = True,
    extra_candidates: Optional[Sequence[int]] = None,
) -> Dict[str, Any]:
    """The engine's scan over the candidates ``shard_id`` owns, for query
    ``u``, with a heap that never fills (so the cutoff is the θ-floor).

    Pure function of ``(engine seed, u, shard assignment)`` — every
    shard sees the *full* candidate set (so the global <2k fallback
    decision and β replicate exactly) but spends walk budget only on its
    owned slice.  Returns per-candidate record arrays in (distance,
    vertex) order plus the β-vector; values the scan never needed are
    NaN, and by the superset argument above the replay never reads
    those.
    """
    # CPU time, not wall clock: workers on an oversubscribed host spend
    # much of each request descheduled, and busy_seconds must mean "the
    # compute this shard performed" for the coordinator's critical-path
    # accounting to hold regardless of core count.
    start_time = time.process_time()
    query = prepare_query(
        engine.graph, engine.index, u, k, engine.config, top_k_seed(engine.seed, u),
        engine.diagonal, use_l1, use_l2, extra_candidates,
    )
    owned = plan.owned_mask(query.ordered, shard_id)
    query.ordered, query.distance = query.ordered[owned], query.distance[owned]
    bounds, screens, refines = (np.full(query.ordered.size, np.nan) for _ in range(3))
    if query.estimator is not None:
        # k above the owned count: the heap never fills, the cutoff stays θ.
        query.k = query.ordered.size + 1
        values = _RecordedValues(query)
        scan_shells(query, values, adaptive)
        bounds, screens, refines = values.bounds, values.screens, values.refines
    return {
        "v": query.ordered,
        "d": query.distance,
        "bound": bounds,
        "screen": screens,
        "refined": refines,
        "beta": query.beta,
        "fallback_used": query.stats.fallback_used,
        "busy_seconds": time.process_time() - start_time,
    }


# ----------------------------------------------------------------------
# Worker process main loop
# ----------------------------------------------------------------------


def worker_main(conn: Any, shard_id: int) -> None:
    """Entry point of a spawned shard worker.

    Messages are dicts with an ``id``, an ``op``, and op-specific
    fields; every message gets exactly one reply
    ``{"id", "ok", "result" | "error"}``.  The parent detects death via
    the pipe (EOF), so this loop never swallows a crash silently.
    """
    from repro.shard.codec import engine_from_arrays, patch_engine_arrays
    from repro.shard.memory import SharedArrayBundle

    # epoch -> (bundle | None, engine, plan); patched epochs own no
    # segment (their arrays are process-local), so bundle is None.
    epochs: Dict[int, Any] = {}

    def reply(msg_id: int, result: Any) -> None:
        conn.send({"id": msg_id, "ok": True, "result": result})

    def reply_error(msg_id: int, exc: BaseException) -> None:
        conn.send(
            {"id": msg_id, "ok": False,
             "error": f"{type(exc).__name__}: {exc}"}
        )

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break  # parent died or closed the pipe; nothing left to serve
        msg_id = msg.get("id", -1)
        op = msg.get("op")
        try:
            if op == "stop":
                reply(msg_id, None)
                break
            elif op == "load_epoch":
                bundle = SharedArrayBundle.attach(msg["manifest"])
                engine = engine_from_arrays(bundle.arrays, msg["meta"])
                plan = ShardPlan.from_manifest(msg["plan"])
                epochs[msg["epoch"]] = (bundle, engine, plan)
                reply(msg_id, None)
            elif op == "patch":
                _, base_engine, _ = epochs[msg["base_epoch"]]
                delta = SharedArrayBundle.attach(msg["manifest"])
                try:
                    arrays = patch_engine_arrays(
                        base_engine, delta.arrays, msg["meta"]
                    )
                finally:
                    # The patched arrays are fresh copies; close() would
                    # scream (refcount escape) if any view leaked out.
                    del base_engine
                    delta.close()
                engine = engine_from_arrays(arrays, msg["meta"])
                plan = ShardPlan.from_manifest(msg["plan"])
                epochs[msg["epoch"]] = (None, engine, plan)
                reply(msg_id, None)
            elif op == "release_epoch":
                state = epochs.pop(msg["epoch"], None)
                if state is not None:
                    bundle, engine, plan = state
                    del state, engine, plan  # drop views before close
                    if bundle is not None:  # patched epochs own no segment
                        bundle.close()
                reply(msg_id, None)
            elif op == "query":
                bundle, engine, plan = epochs[msg["epoch"]]
                overrides = msg.get("overrides")
                if overrides:
                    # Query-time config carried by the coordinator (live
                    # tunables); a zero-copy view, never a mutation of
                    # the resident epoch engine.
                    engine = engine.with_config(**overrides)
                reply(
                    msg_id,
                    score_shard(
                        engine,
                        plan,
                        shard_id,
                        msg["u"],
                        k=msg.get("k"),
                        use_l1=msg.get("use_l1", True),
                        use_l2=msg.get("use_l2", True),
                        adaptive=msg.get("adaptive", True),
                        extra_candidates=msg.get("extra_candidates"),
                    ),
                )
            elif op == "pair":
                bundle, engine, plan = epochs[msg["epoch"]]
                overrides = msg.get("overrides")
                if overrides:
                    engine = engine.with_config(**overrides)
                reply(msg_id, engine.single_pair(msg["u"], msg["v"]))
            elif op == "health":
                reply(
                    msg_id,
                    {"shard_id": shard_id, "epochs": sorted(epochs)},
                )
            elif op == "crash":  # repro: noqa R11 -- test-only hook: crash-isolation tests send it raw; no production sender exists by design
                conn.close()
                return
            else:
                reply_error(msg_id, ValueError(f"unknown op {op!r}"))
        except KeyError as exc:
            reply_error(
                msg_id, RuntimeError(f"epoch or field not loaded: {exc}")
            )
        except Exception as exc:  # noqa: BLE001 - forwarded to the parent
            reply_error(msg_id, exc)
    conn.close()
