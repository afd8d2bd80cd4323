"""Engine ⇄ flat-array codec for the shared-memory transport.

``engine_to_arrays`` flattens a preprocessed :class:`SimRankEngine`
into a named dict of numpy arrays (graph CSR, packed candidate index,
γ table, diagonal) plus a small picklable meta dict; ``engine_from_arrays``
rebuilds a queryable engine over those arrays **without copying them** —
the graph aliases the views directly and the index is a
:class:`~repro.core.index.BufferBackedCandidateIndex`.  The meta dict
carries the same config payload as :meth:`CandidateIndex.save` (both
come from :meth:`SimRankConfig.to_dict`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.config import SimRankConfig
from repro.core.engine import SimRankEngine
from repro.core.index import CandidateIndex
from repro.errors import ShardError
from repro.graph.csr import CSRGraph


__all__ = [
    "engine_to_arrays",
    "engine_from_arrays",
    "delta_to_arrays",
    "patch_engine_arrays",
    "patch_index_buffers",
]

_GRAPH_PREFIX = "graph."
_INDEX_PREFIX = "index."
_DELTA_PREFIX = "delta."


def engine_to_arrays(
    engine: SimRankEngine, seed: int
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Flatten a preprocessed engine into (arrays, meta).

    ``seed`` is the canonical integer base seed workers must derive
    query streams from (the pool fixes it; see
    :meth:`repro.shard.pool.ShardPool.publish`).
    """
    if not engine.is_preprocessed:
        raise ShardError("engine must be preprocessed before sharding")
    arrays: Dict[str, np.ndarray] = {}
    for key, array in engine.graph.to_buffers().items():
        arrays[_GRAPH_PREFIX + key] = array
    for key, array in engine.index.to_buffers().items():
        arrays[_INDEX_PREFIX + key] = array
    arrays["diagonal"] = engine.diagonal
    meta = {
        "n": engine.graph.n,
        "seed": int(seed),
        "config": engine.config.to_dict(),
        "build_seconds": engine.index.build_seconds,
    }
    return arrays, meta


def engine_from_arrays(
    arrays: Dict[str, np.ndarray], meta: Dict[str, Any]
) -> SimRankEngine:
    """Rebuild a queryable engine over existing arrays (zero-copy).

    The result answers ``top_k`` / ``single_pair`` bit-identically to
    the exporting engine (same config, same seed, same index payload);
    only the diagonal vector is copied (``resolve_diagonal`` copies
    defensively — n floats, negligible).
    """
    try:
        n = int(meta["n"])
        seed = meta["seed"]
        config = SimRankConfig(**meta["config"])
        build_seconds = float(meta.get("build_seconds", 0.0))
    except KeyError as exc:
        raise ShardError(f"engine meta is missing field {exc}") from exc
    graph_buffers = {
        key[len(_GRAPH_PREFIX):]: array
        for key, array in arrays.items()
        if key.startswith(_GRAPH_PREFIX)
    }
    index_buffers = {
        key[len(_INDEX_PREFIX):]: array
        for key, array in arrays.items()
        if key.startswith(_INDEX_PREFIX)
    }
    graph = CSRGraph.from_buffers(n, graph_buffers)
    index = CandidateIndex.from_buffers(
        config, n, index_buffers, build_seconds=build_seconds
    )
    engine = SimRankEngine(graph, config, diagonal=arrays["diagonal"], seed=seed)
    engine._index = index
    return engine


# ---------------------------------------------------------------------------
# Delta codec: ship only the patched rows of a flush, not the engine
# ---------------------------------------------------------------------------


def delta_to_arrays(
    engine: SimRankEngine,
    adds: Any,
    removes: Any,
    affected: Any,
    old_n: int,
) -> Dict[str, np.ndarray]:
    """Flatten one flush's delta against ``old_n`` into named arrays.

    ``engine`` is the *patched* engine (the flush's output); ``adds`` /
    ``removes`` / ``affected`` are the edit lists a
    :class:`~repro.core.dynamic.FlushStats` records.  The payload is
    O(Δ + affected rows): edited edges, the affected vertices' fresh
    signature and γ rows, and the diagonal tail for grown vertices —
    everything :func:`patch_engine_arrays` needs to rebuild the full
    flat-array form on the other side of a pipe.
    """
    affected_array = np.asarray(list(affected), dtype=np.int64).reshape(-1)
    signatures = engine.index.signatures
    sig_rows = [signatures[int(u)] for u in affected_array]
    sig_offsets = np.zeros(affected_array.size + 1, dtype=np.int64)
    np.cumsum([len(row) for row in sig_rows], out=sig_offsets[1:])
    sig_flat = np.array(
        [v for row in sig_rows for v in row], dtype=np.int64
    )
    gamma_rows = (
        engine.index.gamma.values[affected_array]
        if affected_array.size
        else np.zeros((0, engine.index.gamma.values.shape[1]))
    )
    return {
        _DELTA_PREFIX + "adds": np.asarray(list(adds), dtype=np.int64).reshape(-1, 2),
        _DELTA_PREFIX + "removes": np.asarray(
            list(removes), dtype=np.int64
        ).reshape(-1, 2),
        _DELTA_PREFIX + "affected": affected_array,
        _DELTA_PREFIX + "sig_offsets": sig_offsets,
        _DELTA_PREFIX + "sig_flat": sig_flat,
        _DELTA_PREFIX + "gamma_rows": np.ascontiguousarray(gamma_rows),
        _DELTA_PREFIX + "diagonal_tail": np.ascontiguousarray(
            engine.diagonal[int(old_n):]
        ),
    }


def patch_engine_arrays(
    base_engine: SimRankEngine,
    delta: Dict[str, np.ndarray],
    meta: Dict[str, Any],
) -> Dict[str, np.ndarray]:
    """Apply a :func:`delta_to_arrays` payload to a resident base engine.

    Returns the full ``engine_from_arrays`` array set of the patched
    engine, bit-identical to ``engine_to_arrays`` of the coordinator's
    patched engine.  Every returned array is **freshly allocated** —
    never a view into the base engine's buffers or the delta segment —
    so the delta bundle can be closed immediately (the refcount escape
    check in :meth:`SharedArrayBundle.close` enforces this) and the base
    epoch can be released later without invalidating the patched one.
    """
    try:
        new_n = int(meta["n"])
        adds = delta[_DELTA_PREFIX + "adds"]
        removes = delta[_DELTA_PREFIX + "removes"]
        affected = delta[_DELTA_PREFIX + "affected"]
        sig_offsets = delta[_DELTA_PREFIX + "sig_offsets"]
        sig_flat = delta[_DELTA_PREFIX + "sig_flat"]
        gamma_rows = delta[_DELTA_PREFIX + "gamma_rows"]
        diagonal_tail = delta[_DELTA_PREFIX + "diagonal_tail"]
    except KeyError as exc:
        raise ShardError(f"delta payload is missing field {exc}") from exc
    base_n = base_engine.graph.n
    if new_n != base_n + diagonal_tail.shape[0]:
        raise ShardError(
            f"delta diagonal tail covers {diagonal_tail.shape[0]} grown "
            f"vertices but n goes {base_n} -> {new_n}"
        )
    graph = base_engine.graph.apply_delta(
        [(int(u), int(v)) for u, v in adds],
        [(int(u), int(v)) for u, v in removes],
        n=new_n,
    )
    arrays: Dict[str, np.ndarray] = {}
    for key, array in graph.to_buffers().items():
        arrays[_GRAPH_PREFIX + key] = array
    index_buffers = patch_index_buffers(
        base_engine.index.to_buffers(),
        base_n=base_n,
        new_n=new_n,
        affected=affected,
        sig_offsets=sig_offsets,
        sig_flat=sig_flat,
        gamma_rows=gamma_rows,
    )
    for key, array in index_buffers.items():
        arrays[_INDEX_PREFIX + key] = array
    arrays["diagonal"] = np.concatenate(
        [np.asarray(base_engine.diagonal, dtype=np.float64), diagonal_tail]
    )
    return arrays


def patch_index_buffers(
    base: Dict[str, np.ndarray],
    base_n: int,
    new_n: int,
    affected: np.ndarray,
    sig_offsets: np.ndarray,
    sig_flat: np.ndarray,
    gamma_rows: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Row-splice a packed index: replace ``affected`` rows, keep the rest.

    Pure array surgery, no walk recomputation: signature rows are
    slab-spliced (the :meth:`CSRGraph.apply_delta` technique applied to
    the index payload), posting lists are patched per touched key from
    the old-vs-new signature diff, and the γ table is row-assigned.
    Raises :class:`ShardError` on any inconsistency — a patch that does
    not line up with the resident base must fail loudly, never produce
    a silently wrong index.
    """
    affected = np.asarray(affected, dtype=np.int64).reshape(-1)
    base_sig_offsets = base["signature_offsets"]
    base_sig_flat = base["signatures"]
    if affected.size:
        if int(affected.min()) < 0 or int(affected.max()) >= new_n:
            raise ShardError(
                f"affected vertices out of range for n={new_n}"
            )
        if np.any(np.diff(affected) <= 0):
            raise ShardError("affected vertices must be sorted and unique")
    grown = np.setdiff1d(np.arange(base_n, new_n, dtype=np.int64), affected)
    if grown.size:
        raise ShardError(
            f"grown vertices {grown[:5].tolist()}... missing from the "
            "affected set; their signature rows are unknown"
        )

    # --- signatures: slab-splice replacement rows into the flat form
    counts = np.zeros(new_n, dtype=np.int64)
    counts[:base_n] = np.diff(base_sig_offsets)
    counts[affected] = np.diff(sig_offsets)
    out_sig_offsets = np.zeros(new_n + 1, dtype=np.int64)
    np.cumsum(counts, out=out_sig_offsets[1:])
    out_sig_flat = np.empty(int(out_sig_offsets[-1]), dtype=np.int64)
    prev = 0  # next base row not yet copied
    for i, row in enumerate(int(u) for u in affected):
        slab_stop = min(row, base_n)
        if slab_stop > prev:
            out_sig_flat[
                out_sig_offsets[prev]:out_sig_offsets[slab_stop]
            ] = base_sig_flat[base_sig_offsets[prev]:base_sig_offsets[slab_stop]]
        out_sig_flat[
            out_sig_offsets[row]:out_sig_offsets[row + 1]
        ] = sig_flat[sig_offsets[i]:sig_offsets[i + 1]]
        prev = row + 1
    if prev < base_n:
        out_sig_flat[
            out_sig_offsets[prev]:out_sig_offsets[base_n]
        ] = base_sig_flat[base_sig_offsets[prev]:base_sig_offsets[base_n]]

    # --- postings: per-key patch from the old-vs-new signature diff
    base_keys = base["posting_keys"]
    base_poffsets = base["posting_offsets"]
    base_postings = base["postings"]
    removals: Dict[int, List[int]] = {}
    additions: Dict[int, List[int]] = {}
    for i, row in enumerate(int(u) for u in affected):
        old_keys = (
            {int(w) for w in base_sig_flat[base_sig_offsets[row]:base_sig_offsets[row + 1]]}
            if row < base_n
            else set()
        )
        new_keys = {int(w) for w in sig_flat[sig_offsets[i]:sig_offsets[i + 1]]}
        for key in old_keys - new_keys:
            removals.setdefault(key, []).append(row)
        for key in new_keys - old_keys:
            additions.setdefault(key, []).append(row)
    patched: Dict[int, List[int]] = {}
    for key in sorted(set(removals) | set(additions)):
        at = int(np.searchsorted(base_keys, key))
        present = at < base_keys.size and int(base_keys[at]) == key
        members = (
            {int(u) for u in base_postings[base_poffsets[at]:base_poffsets[at + 1]]}
            if present
            else set()
        )
        for u in removals.get(key, ()):
            if u not in members:
                raise ShardError(
                    f"patch removes vertex {u} absent from posting list {key}"
                )
            members.discard(u)
        members.update(additions.get(key, ()))
        patched[key] = sorted(members)

    key_parts: List[np.ndarray] = []
    count_parts: List[np.ndarray] = []
    posting_parts: List[np.ndarray] = []
    prev = 0  # next base key index not yet copied
    for key in sorted(patched):
        at = int(np.searchsorted(base_keys, key))
        if at > prev:  # untouched slab of keys before this one
            key_parts.append(base_keys[prev:at])
            count_parts.append(np.diff(base_poffsets[prev:at + 1]))
            posting_parts.append(base_postings[base_poffsets[prev]:base_poffsets[at]])
        members = patched[key]
        if members:  # a key with no postings left is dropped entirely
            key_parts.append(np.array([key], dtype=np.int64))
            count_parts.append(np.array([len(members)], dtype=np.int64))
            posting_parts.append(np.asarray(members, dtype=np.int64))
        in_base = at < base_keys.size and int(base_keys[at]) == key
        prev = at + 1 if in_base else at
    if prev < base_keys.size:
        key_parts.append(base_keys[prev:])
        count_parts.append(np.diff(base_poffsets[prev:]))
        posting_parts.append(base_postings[base_poffsets[prev]:])
    empty_i = np.empty(0, dtype=np.int64)
    out_keys = np.concatenate(key_parts) if key_parts else empty_i.copy()
    out_counts = np.concatenate(count_parts) if count_parts else empty_i.copy()
    out_poffsets = np.zeros(out_keys.size + 1, dtype=np.int64)
    np.cumsum(out_counts, out=out_poffsets[1:])
    out_postings = (
        np.concatenate(posting_parts) if posting_parts else empty_i.copy()
    )

    # --- γ table: row assignment into a fresh array
    base_gamma = base["gamma"]
    out_gamma = np.zeros((new_n, base_gamma.shape[1]), dtype=np.float64)
    out_gamma[:base_n] = base_gamma
    if affected.size:
        out_gamma[affected] = gamma_rows

    return {
        "signature_offsets": out_sig_offsets,
        "signatures": out_sig_flat,
        "posting_keys": out_keys,
        "posting_offsets": out_poffsets,
        "postings": out_postings,
        "gamma": out_gamma,
    }
