"""The query phase: top-k similarity search with pruning (Algorithm 5).

For a query vertex u the phase runs:

1. **Candidate enumeration** — vertices sharing a signature vertex with
   u in the bipartite graph H (§7.1).  If the signature sets produced no
   candidates (possible on very sparse graphs), fall back to the
   distance ball of radius ``config.fallback_ball_radius`` — the paper's
   ingredient 3 guarantees high-SimRank vertices are local, so the ball
   is a superset of everything worth scoring.
2. **Pruning** — candidates are visited in ascending (undirected) graph
   distance; each is bounded by min(L1 β(u, d), L2 γ-dot, trivial
   c^(d/2)) and dropped when the bound falls below
   ``max(θ, current k-th best score)``.  When even the best remaining β
   is below that cutoff the scan stops early (§8's θ-termination).
3. **Adaptive sampling** (§7.2) — survivors get a cheap R=10 estimate;
   only those whose rough score clears ``screen_slack × cutoff`` are
   re-estimated with the full R=100 bundle.

The code is split in two.  :func:`prepare_query` is the *prologue*: it
validates the inputs, gathers candidates, runs the BFS, computes α/β,
builds the estimator and produces the (distance, vertex) scan order.
:func:`scan_shells` is the *scan* of steps 2–3.  The scan reads each
shell's bound, screen and refine values from a :class:`ShellValues`
source, so one scan serves three callers: :func:`top_k_query` passes
:class:`ComputedValues`, a shard worker passes a computing source that
records what it computed (:func:`repro.shard.worker.score_shard`), and
the coordinator passes one that reads the merged worker records
(:func:`repro.shard.merge.replay_merge`).  The paper's per-candidate
estimates are independent of each other, which is what lets the numbers
come from anywhere while the control flow stays one piece of code.

The scan is *shell-batched*: candidates at the same distance form one
shell, the pruning cutoff is frozen at the shell boundary (freezing can
only prune less than the per-candidate evolving cutoff, so it stays
sound), and the whole shell is bounded, screened, and refined with
vectorised kernels — ``GammaTable.bound_many`` plus
``SingleSourceEstimator.estimate_batch``, which fuses all surviving
bundles into one walk matrix.  θ-termination is still evaluated at every
shell boundary against the live cutoff, exactly where the sequential
scan evaluated it.  Batch scores come from per-candidate derived seeds,
so results are reproducible regardless of shell composition (see
``docs/performance.md``).

Distances are measured in the *undirected* graph: reverse-walk supports
satisfy d_und(u, w) ≤ t, so the symmetric triangle inequality makes the
L1 window of Proposition 4 sound, and co-cited siblings (mutually
unreachable by directed paths but highly similar) are still found.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Protocol, Set, Tuple

import numpy as np

from repro.errors import VertexError
from repro.graph.csr import CSRGraph
from repro.graph.traversal import UNREACHABLE, bfs_distances, distance_ball
from repro.core.bounds import GammaTable, compute_alpha_beta, trivial_bound
from repro.core.config import SimRankConfig
from repro.core.index import CandidateIndex
from repro.core.linear import DiagonalLike
from repro.core.montecarlo import SingleSourceEstimator
from repro.obs import instrument as obs
from repro.utils.rng import SeedLike, derive_seed


__all__ = [
    "ComputedValues", "PreparedQuery", "QueryStats", "ShellValues", "TopKResult",
    "prepare_query", "scan_shells", "top_k_query", "top_k_seed",
]
@dataclass
class QueryStats:
    """Instrumentation of one top-k query (drives the ablation benches)."""

    candidates: int = 0
    fallback_used: bool = False
    pruned_by_bound: int = 0
    skipped_by_termination: int = 0
    stopped_early_at_distance: Optional[int] = None
    screened: int = 0
    refined: int = 0
    walks_simulated: int = 0
    elapsed_seconds: float = 0.0


@dataclass
class TopKResult:
    """Answer to Problem 1 for one query vertex."""

    u: int
    k: int
    items: List[Tuple[int, float]] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)

    def vertices(self) -> List[int]:
        """Result vertices, best first."""
        return [vertex for vertex, _ in self.items]

    def scores(self) -> Dict[int, float]:
        """vertex -> estimated SimRank score."""
        return {vertex: score for vertex, score in self.items}

    def __len__(self) -> int:
        return len(self.items)


def top_k_seed(base_seed: SeedLike, u: int) -> Optional[int]:
    """The per-query seed of a top-k search for ``u`` under ``base_seed``.

    Every process that answers (part of) a top-k query derives it the
    same way, which is what makes parallel and sharded answers
    bit-identical to the engine's.
    """
    return derive_seed(base_seed, 11, u)


@dataclass
class PreparedQuery:
    """What the prologue hands the scan for one query vertex."""

    u: int
    k: int
    config: SimRankConfig
    stats: QueryStats
    ordered: np.ndarray  # candidates in (distance, vertex) order
    distance: np.ndarray  # their distances, UNREACHABLE clamped to d_max
    beta: Optional[np.ndarray] = None  # L1 β(u, ·); None: no L1, no θ-termination
    gamma: Optional[GammaTable] = None
    estimator: Optional[SingleSourceEstimator] = None


def _gather_candidates(
    graph: CSRGraph,
    index: Optional[CandidateIndex],
    u: int,
    config: SimRankConfig,
    stats: QueryStats,
    extra: List[int],
    k: int,
) -> np.ndarray:
    """Candidate set from the bipartite graph H (§7.1), ascending.

    With the default Algorithm-4 pseudocode signature rule the H-index
    alone covers ~95% of the exact high-score sets (matching the
    accuracy band of Table 3) while keeping the candidate count
    structure-dependent rather than size-dependent — the property behind
    §8.1's "query time does not much depend on the size of networks".
    Only when the index yields *too few* candidates to answer a top-k
    query confidently (fewer than 2k, including the empty case of
    isolated vertices) does the query union in the local distance ball,
    where ingredient 3 (§5) guarantees the top-k lives.
    """
    found: Set[int] = set(index.candidates(u)) if index is not None else set()
    stats.fallback_used = len(found) < 2 * k
    if stats.fallback_used and config.fallback_ball_radius > 0:
        ball = distance_ball(graph, u, config.fallback_ball_radius, direction="both")
        found.update(ball)
    found.update(extra)
    found.discard(u)
    stats.candidates = len(found)
    return np.asarray(sorted(found), dtype=np.int64)


def prepare_query(
    graph: CSRGraph,
    index: Optional[CandidateIndex],
    u: int,
    k: Optional[int] = None,
    config: Optional[SimRankConfig] = None,
    seed: SeedLike = None,
    diagonal: DiagonalLike = None,
    use_l1: bool = True,
    use_l2: bool = True,
    extra_candidates: Optional[Iterable[int]] = None,
) -> PreparedQuery:
    """The prologue of Algorithm 5: everything the scan needs for ``u``.

    Raises :class:`VertexError` for an out-of-range ``u`` or extra
    candidate and ``ValueError`` for ``k < 1``.  With no candidates the
    BFS, α/β and estimator are skipped and ``ordered`` is empty.
    """
    config = config or (index.config if index is not None else SimRankConfig())
    extra = [int(v) for v in extra_candidates] if extra_candidates is not None else []
    for vertex in (int(u), *extra):
        if not 0 <= vertex < graph.n:
            raise VertexError(vertex, graph.n)
    k = k if k is not None else config.k
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    stats = QueryStats()
    candidates = _gather_candidates(graph, index, u, config, stats, extra, k)
    if not candidates.size:
        return PreparedQuery(u, k, config, stats, ordered=candidates, distance=candidates)

    d_max = config.effective_d_max
    distances = bfs_distances(graph, u, direction="both", max_distance=d_max)
    beta = None
    if use_l1:
        beta = compute_alpha_beta(
            graph,
            u,
            config=config,
            seed=derive_seed(seed, u, 101),
            diagonal=diagonal,
            distances=distances,
        ).beta
        stats.walks_simulated += config.r_alphabeta
    estimator = SingleSourceEstimator(
        graph, u, config=config, seed=derive_seed(seed, u, 202), diagonal=diagonal
    )

    distance = distances[candidates]
    distance[distance == UNREACHABLE] = d_max
    order = np.lexsort((candidates, distance))  # last key is primary
    gamma = index.gamma if (index is not None and use_l2) else None
    return PreparedQuery(
        u, k, config, stats, candidates[order], distance[order], beta, gamma, estimator
    )


class ShellValues(Protocol):
    """Where the scan gets its per-candidate numbers.

    ``lo:hi`` is one shell's slice of the scan order and ``at`` holds
    positions in that order; each method returns a fresh array aligned
    with it, which the scan may overwrite.
    """

    def bound(self, lo: int, hi: int, d: int) -> np.ndarray: ...

    def screen(self, at: np.ndarray) -> np.ndarray: ...

    def refine(self, at: np.ndarray) -> np.ndarray: ...


class ComputedValues:
    """Computes every value the scan asks for: min(trivial, L1, L2) bounds
    and R=r_screen / R=r_pair batch estimates."""

    def __init__(self, query: PreparedQuery) -> None:
        if query.estimator is None:
            raise ValueError("a query without candidates has nothing to compute")
        self.query = query
        self.estimator = query.estimator

    def bound(self, lo: int, hi: int, d: int) -> np.ndarray:
        query = self.query
        shell = query.ordered[lo:hi]
        bound = np.full(shell.size, trivial_bound(query.config.c, d))
        if query.beta is not None:  # L1Bound.bound: β clamped past d_max
            bound = np.minimum(bound, float(query.beta[min(d, query.beta.size - 1)]))
        if query.gamma is not None:
            bound = np.minimum(bound, query.gamma.bound_many(query.u, shell))
        return bound

    def screen(self, at: np.ndarray) -> np.ndarray:
        return self.estimator.estimate_batch(
            self.query.ordered[at], R=self.query.config.r_screen
        )

    def refine(self, at: np.ndarray) -> np.ndarray:
        return self.estimator.estimate_batch(
            self.query.ordered[at], R=self.query.config.r_pair
        )


def scan_shells(
    query: PreparedQuery, values: ShellValues, adaptive: bool = True
) -> List[Tuple[int, float]]:
    """Algorithm 5's shell-batched scan; returns the items, best first.

    Reads the scan order, ``k``, θ and β from ``query`` and every bound
    and estimate from ``values``.  The prune, screen, refine and
    termination counters accumulate into ``query.stats``.
    """
    ordered, distance, beta = query.ordered, query.distance, query.beta
    k, config, stats = query.k, query.config, query.stats
    # Min-heap of (score, vertex) holding the best k seen so far.
    heap: List[Tuple[float, int]] = []

    def cutoff() -> float:
        return max(config.theta, heap[0][0] if len(heap) >= k else 0.0)

    # One shell = the maximal run of candidates at the same distance.
    starts = np.flatnonzero(np.diff(distance, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [int(ordered.size)]):
        d = int(distance[lo])
        # New distance shell: if no remaining shell can beat the cutoff,
        # terminate the whole scan (θ-termination of §8).
        if beta is not None and float(beta[min(d, beta.size - 1) :].max()) < cutoff():
            stats.stopped_early_at_distance = d
            stats.skipped_by_termination = int(ordered.size) - lo
            break

        # Cutoff frozen at the shell boundary; all of the shell's prune
        # and screen/refine decisions use it (sound: frozen ≤ evolving).
        cut = cutoff()
        at = lo + np.flatnonzero(values.bound(lo, hi, d) >= cut)
        stats.pruned_by_bound += (hi - lo) - int(at.size)
        if at.size == 0:
            continue

        if adaptive:
            scores = values.screen(at)
            stats.screened += int(at.size)
            promote = scores >= cut * config.screen_slack
            if promote.any():
                scores[promote] = values.refine(at[promote])
                stats.refined += int(np.count_nonzero(promote))
        else:
            scores = values.refine(at)
            stats.refined += int(at.size)

        for v, score in zip(ordered[at].tolist(), scores.tolist()):
            if score >= config.theta:
                if len(heap) < k:
                    heapq.heappush(heap, (score, v))
                elif score > heap[0][0]:
                    heapq.heapreplace(heap, (score, v))

    return sorted(
        ((vertex, score) for score, vertex in heap), key=lambda it: (-it[1], it[0])
    )


def top_k_query(
    graph: CSRGraph,
    index: Optional[CandidateIndex],
    u: int,
    k: Optional[int] = None,
    config: Optional[SimRankConfig] = None,
    seed: SeedLike = None,
    diagonal: DiagonalLike = None,
    use_l1: bool = True,
    use_l2: bool = True,
    adaptive: bool = True,
    extra_candidates: Optional[Iterable[int]] = None,
) -> TopKResult:
    """Algorithm 5: top-k SimRank similarity search for one query vertex.

    ``index`` may be ``None`` (pure fallback-ball mode, used by the
    ablation benches); ``use_l1`` / ``use_l2`` / ``adaptive`` switch the
    individual optimisations off for the §6.3 ablations.
    """
    start_time = time.perf_counter()
    query = prepare_query(
        graph, index, u, k, config, seed, diagonal, use_l1, use_l2, extra_candidates
    )
    stats = query.stats
    result = TopKResult(u=u, k=query.k, stats=stats)
    if query.estimator is not None:
        result.items = scan_shells(query, ComputedValues(query), adaptive)
        stats.walks_simulated += query.estimator.walks_simulated
    stats.elapsed_seconds = time.perf_counter() - start_time
    if obs.OBS.enabled:
        obs.record_query(stats)
    return result
