"""Preprocessing: the candidate bipartite graph H and the γ table (§7.1).

Algorithm 4 builds, for every vertex u, a small set of "signature"
vertices: repeat P times — run one walk W₀ of length T from u plus Q
confirmation walks W₁..W_Q, and record the step-t vertex of W₀ whenever
the confirmation walks show that position is *frequently* reached.  The
paper states this rule twice, slightly differently:

- the §7.1 **text** rule: record v = W₀[t] if at least two of W₁..W_Q
  are also at v at step t (default here);
- the **Algorithm 4 pseudocode** rule: record W₀[t] whenever any two
  confirmation walks collide at step t (selectable via
  ``candidate_rule="pseudocode"``).

Vertices u and v become mutual candidates when their signature sets
intersect — implemented with an inverted list, so candidate enumeration
is a union of short postings.  Total index space is O(nP) plus the O(nT)
γ table, the paper's "small space" claim.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Union

import numpy as np

from repro.errors import SerializationError, VertexError
from repro.graph.csr import CSRGraph
from repro.core.bounds import GammaTable, compute_gamma_all
from repro.core.config import SimRankConfig
from repro.core.walks import WalkEngine
from repro.obs import instrument as obs
from repro.utils.rng import SeedLike, derive_seed, derived_uniforms


__all__ = [
    "INDEX_FORMAT_VERSION",
    "CandidateIndex",
    "BufferBackedCandidateIndex",
    "build_signatures",
    "build_index",
]
INDEX_FORMAT_VERSION = 1


@dataclass
class CandidateIndex:
    """The preprocess artefact: signature sets, inverted lists, γ table."""

    config: SimRankConfig
    n: int
    signatures: List[List[int]]
    inverted: Dict[int, List[int]]
    gamma: GammaTable
    build_seconds: float = 0.0
    #: Posting-list keys whose lists still alias a ``clone_cow()`` parent
    #: (``None`` on fully-materialised indexes); ``replace_signature``
    #: copies such a list before its first write.
    _cow_shared: Optional[Set[int]] = None

    def candidates(self, u: int, include_self: bool = False) -> List[int]:
        """All v whose signature set intersects u's (sorted, deduplicated).

        This is line 2 of Algorithm 5: S = {v | δ_H(u_left) ∩ δ_H(v_left) ≠ ∅}.
        """
        if not 0 <= u < self.n:
            raise VertexError(u, self.n)
        found: Set[int] = set()
        for signature_vertex in self.signatures[u]:
            found.update(self.inverted.get(signature_vertex, ()))
        if not include_self:
            found.discard(u)
        return sorted(found)

    def replace_signature(self, u: int, new_signature: Sequence[int]) -> None:
        """Swap one vertex's signature, keeping the inverted lists exact.

        The incremental-maintenance hook: old postings of ``u`` are
        removed, new ones inserted (sorted, so candidate output order is
        unchanged vs a full rebuild).
        """
        if not 0 <= u < self.n:
            raise VertexError(u, self.n)
        # Posting lists reached through a clone_cow() may still alias the
        # parent index; materialise a private copy before the first write.
        shared = self._cow_shared
        for vertex in self.signatures[u]:
            key = int(vertex)
            postings = self.inverted.get(key)
            if postings is not None:
                if shared is not None and key in shared:
                    postings = list(postings)
                    self.inverted[key] = postings
                    shared.discard(key)
                try:
                    postings.remove(u)
                except ValueError:
                    pass
                if not postings:
                    del self.inverted[key]
        cleaned = sorted({int(v) for v in new_signature})
        self.signatures[u] = cleaned
        for vertex in cleaned:
            postings = self.inverted.get(vertex)
            if postings is None:
                postings = []
                self.inverted[vertex] = postings
            elif shared is not None and vertex in shared:
                postings = list(postings)
                self.inverted[vertex] = postings
                shared.discard(vertex)
            # Keep postings sorted for deterministic candidate output.
            bisect.insort(postings, u)

    def clone(self) -> "CandidateIndex":
        """An independent deep copy (config shared — it is frozen).

        Incremental maintenance patches index rows in place; cloning
        first is what lets :class:`~repro.core.dynamic.DynamicSimRankEngine`
        publish the patched index as a *new* engine while readers of the
        old one (in-flight queries on a serve snapshot) keep a
        consistent view.  Cost is O(index size) — far below the walk
        recomputation a flush performs anyway.
        """
        return CandidateIndex(
            config=self.config,
            n=self.n,
            signatures=[list(s) for s in self.signatures],
            inverted={k: list(v) for k, v in self.inverted.items()},
            gamma=GammaTable(c=self.gamma.c, values=self.gamma.values.copy()),
            build_seconds=self.build_seconds,
        )

    def clone_cow(self) -> "CandidateIndex":
        """Row-level copy-on-write clone — O(n) pointers, not O(index).

        The outer containers (signature list, inverted dict) are fresh,
        so rebinding a row never touches the parent; the *rows* —
        signature lists, posting lists, the γ array — stay shared until
        written.  :meth:`replace_signature` copies a shared posting list
        the first time it mutates it (tracked in ``_cow_shared``), and
        signature rows are always rebound wholesale, never edited in
        place.  The caller must treat ``gamma`` the same way: publish a
        fresh :class:`GammaTable`, never write ``gamma.values[u] = ...``
        through a COW clone.  This is what makes a flush O(Δ) instead of
        O(index): the deep :meth:`clone` copies every posting of every
        vertex even when two rows changed.
        """
        inverted = dict(self.inverted)
        return CandidateIndex(
            config=self.config,
            n=self.n,
            signatures=list(self.signatures),
            inverted=inverted,
            gamma=self.gamma,
            build_seconds=self.build_seconds,
            _cow_shared=set(inverted),
        )

    def signature_size_stats(self) -> Dict[str, float]:
        """Mean/max signature-set sizes — diagnostic for index quality."""
        sizes = np.array([len(s) for s in self.signatures], dtype=np.float64)
        if sizes.size == 0:
            return {"mean": 0.0, "max": 0.0, "empty_fraction": 1.0}
        return {
            "mean": float(sizes.mean()),
            "max": float(sizes.max()),
            "empty_fraction": float((sizes == 0).mean()),
        }

    def nbytes(self) -> int:
        """Index payload bytes: signatures + inverted lists + γ table.

        Counted as packed int64/float64 payloads (see
        :mod:`repro.utils.memory`) so comparisons against the baselines'
        O(nR'T) and O(n^2) indexes reflect algorithmic space.
        """
        signature_bytes = sum(8 * len(s) for s in self.signatures)
        inverted_bytes = sum(8 * len(v) for v in self.inverted.values())
        return signature_bytes + inverted_bytes + self.gamma.nbytes()

    # ------------------------------------------------------------------
    # Zero-copy buffer export / attach
    # ------------------------------------------------------------------

    def to_buffers(self) -> Dict[str, np.ndarray]:
        """Pack the index payload into six flat arrays (one-time copy).

        The inverse of :meth:`from_buffers`; together they form the
        shared-memory transport contract of :mod:`repro.shard`.  Postings
        are concatenated in ascending-key order and each posting list is
        itself sorted, so the packed form reproduces :meth:`candidates`
        output exactly.  ``gamma`` is the live γ-table array (no copy).
        """
        flat_signatures = np.array(
            [v for s in self.signatures for v in s], dtype=np.int64
        )
        signature_offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum([len(s) for s in self.signatures], out=signature_offsets[1:])
        keys = sorted(self.inverted)
        posting_keys = np.asarray(keys, dtype=np.int64)
        posting_offsets = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum([len(self.inverted[key]) for key in keys], out=posting_offsets[1:])
        postings = np.array(
            [u for key in keys for u in self.inverted[key]], dtype=np.int64
        )
        return {
            "signature_offsets": signature_offsets,
            "signatures": flat_signatures,
            "posting_keys": posting_keys,
            "posting_offsets": posting_offsets,
            "postings": postings,
            "gamma": self.gamma.values,
        }

    @classmethod
    def from_buffers(
        cls,
        config: SimRankConfig,
        n: int,
        buffers: Dict[str, np.ndarray],
        build_seconds: float = 0.0,
    ) -> "BufferBackedCandidateIndex":
        """Reconstruct a queryable index over existing arrays, copying none.

        Returns a :class:`BufferBackedCandidateIndex` whose
        :meth:`candidates` runs directly on the packed arrays — this is
        how shard workers answer queries out of a shared-memory segment
        owned by another process.
        """
        try:
            return BufferBackedCandidateIndex(
                config=config,
                n=int(n),
                signature_offsets=buffers["signature_offsets"],
                signature_flat=buffers["signatures"],
                posting_keys=buffers["posting_keys"],
                posting_offsets=buffers["posting_offsets"],
                postings=buffers["postings"],
                gamma=GammaTable(c=config.c, values=buffers["gamma"]),
                build_seconds=build_seconds,
            )
        except KeyError as exc:
            raise SerializationError(
                f"index buffer set is missing array {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Persist to a .npz alongside a JSON config sidecar payload."""
        path = Path(path)
        flat_signatures = np.array(
            [v for s in self.signatures for v in s], dtype=np.int64
        )
        signature_offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum([len(s) for s in self.signatures], out=signature_offsets[1:])
        meta = {
            "version": INDEX_FORMAT_VERSION,
            "n": self.n,
            "build_seconds": self.build_seconds,
            "config": self.config.to_dict(),
        }
        np.savez_compressed(
            path,
            meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
            signatures=flat_signatures,
            signature_offsets=signature_offsets,
            gamma=self.gamma.values,
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CandidateIndex":
        """Load an index written by :meth:`save`; the inverted lists are rebuilt.

        Every failure mode — unreadable file, truncated archive, wrong
        format version, missing arrays, internally inconsistent
        offsets — raises :class:`~repro.errors.SerializationError` with
        a message naming the problem, never a raw numpy/zip/struct
        error.
        """
        import zipfile

        path = Path(path)
        try:
            payload = np.load(path if path.suffix == ".npz" else path.with_suffix(".npz"))
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise SerializationError(f"cannot read index file {path}: {exc}") from exc
        try:
            meta = json.loads(bytes(payload["meta"]).decode("utf-8"))
            if not isinstance(meta, dict):
                raise SerializationError(
                    f"index file {path} header is not a JSON object"
                )
            if meta.get("version") != INDEX_FORMAT_VERSION:
                raise SerializationError(
                    f"index file {path} has unsupported format version "
                    f"{meta.get('version')!r} (this build reads version "
                    f"{INDEX_FORMAT_VERSION})"
                )
            config_fields = dict(meta["config"])
            # Older headers carry the retired "kernel" option; both of its
            # values built identical signatures, so the payload is valid.
            config_fields.pop("kernel", None)
            config = SimRankConfig(**config_fields)
            offsets = payload["signature_offsets"]
            flat = payload["signatures"]
            n = int(meta["n"])
            _validate_index_arrays(path, n, offsets, flat, payload["gamma"])
            signatures = [
                [int(v) for v in flat[offsets[u] : offsets[u + 1]]] for u in range(n)
            ]
            gamma = GammaTable(c=config.c, values=payload["gamma"])
        except KeyError as exc:
            raise SerializationError(f"index file {path} is missing field {exc}") from exc
        except (TypeError, ValueError, OSError, zipfile.BadZipFile) as exc:
            raise SerializationError(f"index file {path} is corrupt: {exc}") from exc
        index = cls(
            config=config,
            n=n,
            signatures=signatures,
            inverted=_invert(signatures),
            gamma=gamma,
            build_seconds=float(meta.get("build_seconds", 0.0)),
        )
        return index


class BufferBackedCandidateIndex(CandidateIndex):
    """A read-only :class:`CandidateIndex` view over packed flat arrays.

    Built by :meth:`CandidateIndex.from_buffers`, typically over arrays
    attached from a :class:`multiprocessing.shared_memory` segment that
    another process owns.  :meth:`candidates` is answered array-natively
    (binary search over the posting keys, one ``np.unique`` merge) so no
    per-vertex Python lists need to exist; the list/dict ``signatures``
    and ``inverted`` attributes materialize lazily — and privately —
    only if legacy code touches them.

    Mutation (:meth:`replace_signature`) is refused: the backing arrays
    may be shared read-only across processes.  :meth:`clone` (inherited)
    materializes an ordinary mutable :class:`CandidateIndex`, which is
    exactly the clone-then-patch path the dynamic engine needs.
    """

    _signature_offsets: np.ndarray
    _signature_flat: np.ndarray
    _posting_keys: np.ndarray
    _posting_offsets: np.ndarray
    _postings: np.ndarray

    def __init__(
        self,
        config: SimRankConfig,
        n: int,
        signature_offsets: np.ndarray,
        signature_flat: np.ndarray,
        posting_keys: np.ndarray,
        posting_offsets: np.ndarray,
        postings: np.ndarray,
        gamma: GammaTable,
        build_seconds: float = 0.0,
    ) -> None:
        if signature_offsets.ndim != 1 or signature_offsets.shape[0] != n + 1:
            raise SerializationError(
                f"index buffers are inconsistent: expected {n + 1} signature "
                f"offsets for n={n}, got shape {signature_offsets.shape}"
            )
        if posting_offsets.ndim != 1 or posting_offsets.shape[0] != posting_keys.shape[0] + 1:
            raise SerializationError(
                "index buffers are inconsistent: posting_offsets must have "
                f"{posting_keys.shape[0] + 1} entries, got shape {posting_offsets.shape}"
            )
        self.config = config
        self.n = int(n)
        self.gamma = gamma
        self.build_seconds = float(build_seconds)
        self._signature_offsets = signature_offsets
        self._signature_flat = signature_flat
        self._posting_keys = posting_keys
        self._posting_offsets = posting_offsets
        self._postings = postings

    def candidates(self, u: int, include_self: bool = False) -> List[int]:
        """Array-native Algorithm 5 line 2 over the packed postings."""
        if not 0 <= u < self.n:
            raise VertexError(u, self.n)
        offsets = self._signature_offsets
        signature = self._signature_flat[offsets[u] : offsets[u + 1]]
        if signature.size == 0:
            return []
        keys = self._posting_keys
        positions = np.searchsorted(keys, signature)
        parts: List[np.ndarray] = []
        for position, vertex in zip(positions.tolist(), signature.tolist()):
            if position < keys.shape[0] and int(keys[position]) == vertex:
                lo = self._posting_offsets[position]
                hi = self._posting_offsets[position + 1]
                parts.append(self._postings[lo:hi])
        if not parts:
            return []
        merged = np.unique(np.concatenate(parts))
        if not include_self:
            merged = merged[merged != u]
        return [int(v) for v in merged.tolist()]

    def replace_signature(self, u: int, new_signature: Sequence[int]) -> None:
        raise TypeError(
            "BufferBackedCandidateIndex is read-only (its arrays may be "
            "shared across processes); clone() it to get a mutable index"
        )

    def to_buffers(self) -> Dict[str, np.ndarray]:
        """The backing arrays themselves — re-export is copy-free."""
        return {
            "signature_offsets": self._signature_offsets,
            "signatures": self._signature_flat,
            "posting_keys": self._posting_keys,
            "posting_offsets": self._posting_offsets,
            "postings": self._postings,
            "gamma": self.gamma.values,
        }

    def signature_size_stats(self) -> Dict[str, float]:
        sizes = np.diff(self._signature_offsets).astype(np.float64)
        if sizes.size == 0:
            return {"mean": 0.0, "max": 0.0, "empty_fraction": 1.0}
        return {
            "mean": float(sizes.mean()),
            "max": float(sizes.max()),
            "empty_fraction": float((sizes == 0).mean()),
        }

    def nbytes(self) -> int:
        return int(self._signature_flat.nbytes + self._postings.nbytes) + self.gamma.nbytes()

    def __getattr__(self, name: str) -> Any:
        # Lazy bridge for legacy list/dict access; query paths never hit it.
        if name == "signatures":
            offsets = self._signature_offsets
            flat = self._signature_flat
            signatures = [
                [int(v) for v in flat[offsets[u] : offsets[u + 1]]]
                for u in range(self.n)
            ]
            self.signatures = signatures
            return signatures
        if name == "inverted":
            keys = self._posting_keys
            offsets = self._posting_offsets
            inverted = {
                int(keys[i]): [int(u) for u in self._postings[offsets[i] : offsets[i + 1]]]
                for i in range(keys.shape[0])
            }
            self.inverted = inverted
            return inverted
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __repr__(self) -> str:
        return (
            f"BufferBackedCandidateIndex(n={self.n}, "
            f"signature_entries={int(self._signature_flat.shape[0])}, "
            f"posting_entries={int(self._postings.shape[0])})"
        )


def _validate_index_arrays(
    path: Path,
    n: int,
    offsets: np.ndarray,
    flat: np.ndarray,
    gamma_values: np.ndarray,
) -> None:
    """Structural consistency checks on a loaded index payload.

    A partially written or hand-truncated .npz can decompress fine yet
    hold arrays that disagree with the header; catching that here turns
    a would-be silent mis-answer (or an IndexError deep in a query) into
    a :class:`SerializationError` at load time.
    """
    if n < 0:
        raise SerializationError(f"index file {path} declares negative n={n}")
    if offsets.ndim != 1 or offsets.shape[0] != n + 1:
        raise SerializationError(
            f"index file {path} is truncated: expected {n + 1} signature "
            f"offsets for n={n}, found {offsets.shape[0] if offsets.ndim == 1 else offsets.shape}"
        )
    if n >= 0 and offsets.shape[0] and int(offsets[0]) != 0:
        raise SerializationError(
            f"index file {path} is corrupt: signature offsets start at "
            f"{int(offsets[0])}, not 0"
        )
    if np.any(np.diff(offsets) < 0):
        raise SerializationError(
            f"index file {path} is corrupt: signature offsets are not monotone"
        )
    if int(offsets[-1]) != flat.shape[0]:
        raise SerializationError(
            f"index file {path} is truncated: offsets expect "
            f"{int(offsets[-1])} signature entries, payload holds {flat.shape[0]}"
        )
    if gamma_values.ndim != 2 or gamma_values.shape[0] != n:
        raise SerializationError(
            f"index file {path} is corrupt: gamma table covers "
            f"{gamma_values.shape[0] if gamma_values.ndim == 2 else gamma_values.shape} "
            f"vertices, header declares {n}"
        )


def _invert(signatures: Sequence[Sequence[int]]) -> Dict[int, List[int]]:
    inverted: Dict[int, List[int]] = {}
    for u, signature in enumerate(signatures):
        for vertex in signature:
            inverted.setdefault(int(vertex), []).append(u)
    return inverted


def _signatures_from_block(
    bundle: np.ndarray,
    starts: Sequence[int],
    config: SimRankConfig,
) -> List[List[int]]:
    """Signature sets of a fused Algorithm-4 walk block, fully vectorised.

    ``bundle`` has shape (T, B·P·(1+Q)) — B vertex blocks of P index
    iterations, each one anchor walk W₀ followed by Q confirmation
    walks.  The per-p/per-t anchor-vs-checks loop of Algorithm 4 becomes
    one broadcast comparison over the whole block; the original loop's
    ``break`` on a dead anchor is equivalent to masking dead anchors
    out, because a dead walk stays dead.
    """
    P, Q, T = config.index_walks, config.index_checks, config.T
    B = len(starts)
    shaped = bundle.reshape(T, B, P, 1 + Q)
    if T > 1:
        anchors = shaped[1:, :, :, 0]  # (T-1, B, P)
        checks = shaped[1:, :, :, 1:]  # (T-1, B, P, Q)
        if config.candidate_rule == "text":
            # ≥ 2 confirmation walks sit exactly at the (alive) anchor.
            hits = (checks == anchors[..., None]).sum(axis=-1) >= 2
        else:
            # Pseudocode rule: any collision among the Q alive walks —
            # dead slots sort first and never pair with a live value.
            ordered = np.sort(checks, axis=-1)
            hits = ((ordered[..., 1:] == ordered[..., :-1]) & (ordered[..., 1:] >= 0)).any(
                axis=-1
            )
        recorded = hits & (anchors >= 0)
    else:
        anchors = np.empty((0, B, P), dtype=np.int64)
        recorded = np.zeros((0, B, P), dtype=bool)
    signatures: List[List[int]] = []
    for b, u in enumerate(starts):
        found = anchors[:, b, :][recorded[:, b, :]]
        signature: Set[int] = {int(v) for v in np.unique(found)}
        signature.add(int(u))
        signatures.append(sorted(signature))
    return signatures


def build_signatures(
    graph: CSRGraph,
    config: SimRankConfig,
    seed: SeedLike = None,
    vertices: Optional[Sequence[int]] = None,
) -> List[List[int]]:
    """Algorithm 4 over ``vertices`` (default: every vertex).

    The subset form is what incremental maintenance uses: after an edge
    update only the vertices whose reverse-walk ball touched the change
    need new signatures.

    Each vertex's P·(1+Q) walks draw from ``derive_seed(seed, 29, u)``,
    so a vertex's signature is a deterministic function of ``(seed, u)``
    and independent of which other vertices are (re)built alongside it —
    incremental rebuilds reproduce exactly what a full build produces.
    Whole blocks of vertices run as one fused walk matrix; because each
    vertex's uniform block is consumed positionally, the result equals
    walking every vertex alone (see ``docs/performance.md``).  A vertex
    is always in its own signature, so postings are never empty.
    """
    targets = [int(u) for u in (range(graph.n) if vertices is None else vertices)]
    base_seed = seed if (seed is None or isinstance(seed, int)) else derive_seed(seed)
    engine = WalkEngine(graph)
    P, Q, T = config.index_walks, config.index_checks, config.T
    width = P * (1 + Q)

    signatures: List[List[int]] = []
    block_size = max(1, 16384 // width)
    for lo in range(0, len(targets), block_size):
        block = targets[lo : lo + block_size]
        starts = np.repeat(np.asarray(block, dtype=np.int64), width)
        bundle = np.empty((T, starts.size), dtype=np.int64)
        bundle[0] = starts
        if T > 1:
            uniforms = derived_uniforms(base_seed, block, (T - 1, width), prefix=(29,))
            for t in range(1, T):
                bundle[t] = engine.step_given(bundle[t - 1], uniforms[t - 1])
        signatures.extend(_signatures_from_block(bundle, block, config))
    return signatures


def build_index(
    graph: CSRGraph,
    config: Optional[SimRankConfig] = None,
    seed: SeedLike = None,
) -> CandidateIndex:
    """Full §7.1 preprocess: signatures (Algorithm 4) + γ table (Algorithm 3).

    Time O(n (R + P Q) T), space O(nP + nT) — the paper's preprocess
    complexity.
    """
    import time

    config = config or SimRankConfig()
    start = time.perf_counter()
    with obs.trace("preprocess.signatures", n=graph.n):
        signatures = build_signatures(graph, config, seed=derive_seed(seed, 1))
    signature_mark = time.perf_counter()
    with obs.trace("preprocess.gamma", n=graph.n):
        gamma = compute_gamma_all(graph, config, seed=derive_seed(seed, 2))
    gamma_mark = time.perf_counter()
    with obs.trace("preprocess.invert"):
        inverted = _invert(signatures)
    end = time.perf_counter()
    index = CandidateIndex(
        config=config,
        n=graph.n,
        signatures=signatures,
        inverted=inverted,
        gamma=gamma,
        build_seconds=end - start,
    )
    if obs.OBS.enabled:
        obs.record_preprocess(
            vertices=graph.n,
            seconds=end - start,
            signature_seconds=signature_mark - start,
            gamma_seconds=gamma_mark - signature_mark,
            invert_seconds=end - gamma_mark,
        )
        obs.record_index(index)
    return index
