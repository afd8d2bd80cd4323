"""Bit-identity of the scatter-gather decomposition, fully in-process.

The acceptance property of the shard subsystem: for ANY shard count,
``score_shard`` on each shard followed by ``replay_merge`` produces the
same :class:`TopKResult` — items AND QueryStats — as the single-process
engine, because every per-candidate number is derived from the same
seeds and the coordinator replays the engine's exact control flow over
the concatenated shard records (see ``repro/shard/merge.py``).
"""

from __future__ import annotations

from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import SimRankConfig
from repro.core.engine import SimRankEngine
from repro.graph.csr import CSRGraph
from repro.shard.merge import replay_merge
from repro.shard.plan import ShardPlan
from repro.shard.worker import score_shard


def scatter_gather(engine, u, n_shards, k=None, **kwargs):
    plan = ShardPlan(n=engine.graph.n, n_shards=n_shards)
    results = [
        score_shard(engine, plan, shard_id, u, k=k, **kwargs)
        for shard_id in range(n_shards)
    ]
    return replay_merge(
        u,
        k if k is not None else engine.config.k,
        engine.config,
        results,
        use_l1=kwargs.get("use_l1", True),
        adaptive=kwargs.get("adaptive", True),
    )


def assert_identical(merged, reference):
    assert merged.u == reference.u and merged.k == reference.k
    assert merged.items == reference.items
    got, want = asdict(merged.stats), asdict(reference.stats)
    got.pop("elapsed_seconds")
    want.pop("elapsed_seconds")
    assert got == want


@pytest.mark.parametrize("n_shards", [1, 2, 4])
class TestBitIdentity:
    def test_social_graph(self, shard_engine, n_shards):
        for u in range(0, shard_engine.graph.n, 7):
            assert_identical(
                scatter_gather(shard_engine, u, n_shards), shard_engine.top_k(u)
            )

    def test_web_graph(self, web_engine, n_shards):
        for u in range(0, web_engine.graph.n, 17):
            assert_identical(
                scatter_gather(web_engine, u, n_shards), web_engine.top_k(u)
            )

    def test_explicit_k(self, shard_engine, n_shards):
        for k in (1, 3, 11):
            assert_identical(
                scatter_gather(shard_engine, 5, n_shards, k=k),
                shard_engine.top_k(5, k=k),
            )

    def test_non_adaptive(self, shard_engine, n_shards):
        assert_identical(
            scatter_gather(shard_engine, 9, n_shards, adaptive=False),
            shard_engine.top_k(9, adaptive=False),
        )

    def test_without_l1(self, shard_engine, n_shards):
        assert_identical(
            scatter_gather(shard_engine, 9, n_shards, use_l1=False),
            shard_engine.top_k(9, use_l1=False),
        )

    def test_without_l2(self, shard_engine, n_shards):
        assert_identical(
            scatter_gather(shard_engine, 9, n_shards, use_l2=False),
            shard_engine.top_k(9, use_l2=False),
        )

    def test_extra_candidates(self, shard_engine, n_shards):
        extra = [1, 2, 3, 40, 41]
        assert_identical(
            scatter_gather(shard_engine, 9, n_shards, extra_candidates=extra),
            shard_engine.top_k(9, extra_candidates=extra),
        )


@st.composite
def decomposition_cases(draw):
    """A small graph whose last vertex is isolated, a config and a query."""
    n = draw(st.integers(min_value=2, max_value=30))
    vertex = st.integers(min_value=0, max_value=n - 2)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n))
    T = draw(st.sampled_from([3, 4]))
    config = SimRankConfig(
        T=T, r_pair=20, r_screen=8, r_alphabeta=30, r_gamma=15,
        index_walks=3, index_checks=2,
        theta=draw(st.sampled_from([0.0, 1e-4, 0.05, 0.3])),
        screen_slack=draw(st.sampled_from([0.0, 0.3, 1.0])),
        d_max=draw(st.sampled_from([None, 1, T + 3])),
        fallback_ball_radius=draw(st.sampled_from([0, 1, 2])),
    )
    return dict(
        graph=CSRGraph.from_edges(n, edges),
        config=config,
        u=draw(st.integers(min_value=0, max_value=n - 1)),
        k=draw(st.sampled_from([1, 3, 40])),  # 40 exceeds every candidate count
        n_shards=draw(st.sampled_from([1, 2, 5, 40])),  # 40 exceeds n
        flags=dict(
            use_l1=draw(st.booleans()),
            use_l2=draw(st.booleans()),
            adaptive=draw(st.booleans()),
        ),
    )


class TestDecompositionProperty:
    """N × ``score_shard`` + ``replay_merge`` == ``engine.top_k`` for inputs
    the fixed matrix above does not reach: θ = 0 (cutoff driven only by
    the heap), screen_slack at both ends, d_max below and above T, the
    isolated-vertex empty path, k above the candidate count and more
    shards than candidates."""

    @given(decomposition_cases())
    @settings(max_examples=60, deadline=None)
    @example(dict(
        graph=CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 0)]),
        config=SimRankConfig(T=3, r_pair=20, r_screen=8, r_alphabeta=30,
                             r_gamma=15, index_walks=3, index_checks=2,
                             fallback_ball_radius=0),
        u=3, k=3, n_shards=2, flags={},
    ))
    def test_matches_engine(self, case):
        engine = SimRankEngine(case["graph"], case["config"], seed=3).preprocess()
        assert_identical(
            scatter_gather(
                engine, case["u"], case["n_shards"], k=case["k"], **case["flags"]
            ),
            engine.top_k(case["u"], k=case["k"], **case["flags"]),
        )


class TestWorkerContract:
    def test_busy_seconds_reported(self, shard_engine):
        plan = ShardPlan(n=shard_engine.graph.n, n_shards=2)
        result = score_shard(shard_engine, plan, 0, 5)
        assert result["busy_seconds"] >= 0.0

    def test_merge_requires_results(self, shard_engine):
        from repro.errors import ShardError

        with pytest.raises(ShardError):
            replay_merge(0, 5, shard_engine.config, [None, None])
