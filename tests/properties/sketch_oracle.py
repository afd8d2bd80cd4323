"""Dict-based reference implementation of the sketch kernels (test oracle).

Production has one sketch kernel: :class:`~repro.core.walks.FlatSketch`
plus the fused batch kernels (``SingleSourceEstimator._batch_array``
and the blocked Algorithm 4 in ``build_signatures``).  This module
restates the same estimators the slow, literal way — one bundle at a
time, per-step ``Dict[vertex, count]`` occupation tables, Algorithm 4's
anchor/confirmation loop walked step by step — so the equivalence suite
(``test_kernel_equivalence.py``) and the kernel micro-benchmark have an
independent reference to compare against on identical seeds.

Everything here consumes randomness exactly as production does
(per-candidate ``derive_seed(seed, v, R)`` and per-vertex
``derive_seed(base_seed, 29, u)`` streams, one uniform per walk slot per
step), so agreement is expected to within float rounding for scores and
exactly for signatures, top-k vertex sets and query counters.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.config import SimRankConfig
from repro.core.linear import DiagonalLike, resolve_diagonal
from repro.core.montecarlo import SingleSourceEstimator
from repro.core.walks import WalkEngine
from repro.errors import VertexError
from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, derive_seed, ensure_rng

__all__ = [
    "PositionSketch",
    "walk_matrix_seeded",
    "reference_series",
    "reference_single_pair",
    "reference_batch",
    "reference_signatures",
]


class PositionSketch:
    """Per-step occupation counts of one walk bundle, as dicts.

    ``sketch.counts[t]`` maps vertex w to ``#{r : u_r^(t) = w}``;
    dividing by R gives the empirical ``P^t e_u`` of eq. (14).
    """

    def __init__(self, walk_matrix: np.ndarray, R: Optional[int] = None) -> None:
        self.T, bundle = walk_matrix.shape
        self.R = R if R is not None else bundle
        self.counts: List[Dict[int, int]] = []
        for t in range(self.T):
            row = walk_matrix[t]
            alive = row[row >= 0]
            vertices, counts = np.unique(alive, return_counts=True)
            self.counts.append({int(v): int(cnt) for v, cnt in zip(vertices, counts)})

    def alive_fraction(self, t: int) -> float:
        """Fraction of the bundle still alive at step t."""
        return sum(self.counts[t].values()) / self.R

    def collision_value(self, other: "PositionSketch", t: int, diagonal: np.ndarray) -> float:
        """``(1/R²) Σ_w D_ww · #u-walks at w · #v-walks at w`` at step t."""
        mine = self.counts[t]
        theirs = other.counts[t]
        if len(theirs) < len(mine):
            mine, theirs = theirs, mine
        total = 0.0
        for w, count in mine.items():
            other_count = theirs.get(w)
            if other_count:
                total += diagonal[w] * count * other_count
        return total / (self.R * other.R)

    def self_collision_value(self, t: int, diagonal: np.ndarray) -> float:
        """``Σ_w D_ww · (count_w / R)²`` at step t (Algorithm 3)."""
        total = 0.0
        for w, count in self.counts[t].items():
            total += diagonal[w] * (count / self.R) ** 2
        return total


def walk_matrix_seeded(
    engine: WalkEngine, start: int, R: int, T: int, seed: SeedLike
) -> np.ndarray:
    """R walks of T steps from ``start``, driven by a private seeded stream.

    The whole uniform block is drawn up front as one
    ``rng.random((T - 1, R))`` call and consumed positionally through
    :meth:`WalkEngine.step_given` — the per-bundle walk the fused batch
    kernels must reproduce slice by slice.
    """
    if not 0 <= start < engine.graph.n:
        raise VertexError(start, engine.graph.n)
    if R < 1 or T < 1:
        raise ValueError(f"R and T must be >= 1, got R={R}, T={T}")
    uniforms = ensure_rng(seed).random((T - 1, R))
    out = np.empty((T, R), dtype=np.int64)
    out[0] = start
    for t in range(1, T):
        out[t] = engine.step_given(out[t - 1], uniforms[t - 1])
    return out


def reference_series(
    sketch_u: PositionSketch,
    sketch_v: PositionSketch,
    c: float,
    diagonal: np.ndarray,
    terms_out: Optional[List[float]] = None,
) -> float:
    """``Σ_t c^t · collision_value(t)`` — Algorithm 1's truncated series."""
    total = 0.0
    weight = 1.0
    for t in range(min(sketch_u.T, sketch_v.T)):
        term = weight * sketch_u.collision_value(sketch_v, t, diagonal)
        if terms_out is not None:
            terms_out.append(term)
        total += term
        weight *= c
    return total


def reference_single_pair(
    graph: CSRGraph,
    u: int,
    v: int,
    config: SimRankConfig,
    seed: SeedLike = None,
    diagonal: DiagonalLike = None,
) -> float:
    """Algorithm 1 with the draw order of ``single_pair_simrank``."""
    if u == v:
        return 1.0
    d = resolve_diagonal(graph.n, config.c, diagonal)
    engine = WalkEngine(graph, seed)
    sketch_u = PositionSketch(engine.walk_matrix(u, config.r_pair, config.T))
    sketch_v = PositionSketch(engine.walk_matrix(v, config.r_pair, config.T))
    return reference_series(sketch_u, sketch_v, config.c, d)


def reference_batch(
    estimator: SingleSourceEstimator, others: np.ndarray, samples: int
) -> Tuple[np.ndarray, int]:
    """Per-candidate reference for ``SingleSourceEstimator._batch_array``.

    Same signature and return value ``(scores, meetings)``, so a test
    can substitute it for the fused kernel with ``monkeypatch``.  The
    u-bundle is re-drawn from the estimator's integer seed (exactly the
    draws its constructor made) and every candidate walks its own
    derived-seed bundle alone.
    """
    seed = estimator._batch_seed
    if seed is None:
        raise ValueError("the reference batch scorer needs an integer-seeded estimator")
    config = estimator.config
    u_walks = WalkEngine(estimator.graph, ensure_rng(seed)).walk_matrix(
        estimator.u, config.r_pair, config.T
    )
    sketch_u = PositionSketch(u_walks)
    values = np.empty(others.size)
    meetings = 0
    for i, v in enumerate(others):
        child = derive_seed(seed, int(v), samples)
        sketch_v = PositionSketch(
            walk_matrix_seeded(estimator.engine, int(v), samples, config.T, child)
        )
        terms: List[float] = []
        values[i] = reference_series(
            sketch_u, sketch_v, config.c, estimator.diagonal, terms_out=terms
        )
        meetings += sum(1 for term in terms if term > 0.0)
    return values, meetings


def reference_signatures(
    graph: CSRGraph,
    config: SimRankConfig,
    seed: SeedLike = None,
    vertices: Optional[Sequence[int]] = None,
) -> List[List[int]]:
    """Algorithm 4 one vertex at a time, with the loops written out.

    For each vertex u: P iterations of one anchor walk W₀ plus Q
    confirmation walks, read from the vertex's own derived-seed bundle;
    at each step t ≥ 1 the anchor's vertex is recorded when the rule
    fires (``"text"``: at least two confirmation walks sit on it;
    ``"pseudocode"``: any two alive confirmation walks collide), and the
    iteration stops once the anchor dies.  u itself is always recorded.
    """
    targets = [int(u) for u in (range(graph.n) if vertices is None else vertices)]
    base_seed = seed if (seed is None or isinstance(seed, int)) else derive_seed(seed)
    engine = WalkEngine(graph)
    P, Q, T = config.index_walks, config.index_checks, config.T
    width = P * (1 + Q)
    signatures: List[List[int]] = []
    for u in targets:
        bundle = walk_matrix_seeded(engine, u, width, T, derive_seed(base_seed, 29, u))
        signature: Set[int] = {u}
        for p in range(P):
            anchor_walk = bundle[:, p * (1 + Q)]
            check_walks = bundle[:, p * (1 + Q) + 1 : (p + 1) * (1 + Q)]
            for t in range(1, T):
                anchor = int(anchor_walk[t])
                if anchor < 0:
                    break
                checks = [int(w) for w in check_walks[t] if w >= 0]
                if config.candidate_rule == "text":
                    fires = checks.count(anchor) >= 2
                else:
                    fires = len(set(checks)) < len(checks)
                if fires:
                    signature.add(anchor)
        signatures.append(sorted(signature))
    return signatures
