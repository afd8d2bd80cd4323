"""Unit tests for BFS traversal primitives."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VertexError
from repro.graph.csr import CSRGraph
from repro.graph.traversal import (
    UNREACHABLE,
    bfs_distances,
    distance_ball,
    vertices_by_distance,
    weakly_connected_components,
)


@pytest.fixture
def diamond() -> CSRGraph:
    # 0 -> 1 -> 3, 0 -> 2 -> 3
    return CSRGraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


class TestBfsDistances:
    def test_out_direction(self, diamond):
        dist = bfs_distances(diamond, 0, direction="out")
        assert dist.tolist() == [0, 1, 1, 2]

    def test_in_direction(self, diamond):
        dist = bfs_distances(diamond, 3, direction="in")
        assert dist.tolist() == [2, 1, 1, 0]

    def test_in_direction_unreachable(self, diamond):
        dist = bfs_distances(diamond, 0, direction="in")
        assert dist[0] == 0
        assert all(dist[v] == UNREACHABLE for v in (1, 2, 3))

    def test_both_direction_ignores_orientation(self, diamond):
        dist = bfs_distances(diamond, 1, direction="both")
        assert dist.tolist() == [1, 0, 2, 1]

    def test_max_distance_truncates(self, small_path):
        dist = bfs_distances(small_path, 0, direction="out", max_distance=2)
        assert dist[2] == 2
        assert dist[3] == UNREACHABLE

    def test_source_out_of_range(self, diamond):
        with pytest.raises(VertexError):
            bfs_distances(diamond, 10)

    def test_unknown_direction(self, diamond):
        with pytest.raises(ValueError):
            bfs_distances(diamond, 0, direction="sideways")  # type: ignore[arg-type]

    def test_isolated_source(self):
        graph = CSRGraph.from_edges(3, [(1, 2)])
        dist = bfs_distances(graph, 0, direction="both")
        assert dist.tolist() == [0, UNREACHABLE, UNREACHABLE]


def deque_bfs(graph: CSRGraph, source: int, direction: str, max_distance):
    """Textbook queue BFS: the oracle for the vectorised levels."""
    dist = [UNREACHABLE] * graph.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        if max_distance is not None and dist[vertex] >= max_distance:
            continue
        neighbors = []
        if direction in ("in", "both"):
            neighbors += graph.in_neighbors(vertex).tolist()
        if direction in ("out", "both"):
            neighbors += graph.out_neighbors(vertex).tolist()
        for nxt in neighbors:
            if dist[nxt] == UNREACHABLE:
                dist[nxt] = dist[vertex] + 1
                queue.append(nxt)
    return dist


@st.composite
def multigraphs(draw, max_n: int = 14, max_m: int = 45):
    """Edge lists kept as drawn: duplicate edges and self-loops included."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_m))
    loops = draw(st.lists(vertex, max_size=3))
    edges += [(v, v) for v in loops] + edges[: draw(st.integers(0, 5))]
    return CSRGraph.from_edges(n, edges)


class TestBfsOracle:
    @given(multigraphs(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_deque_bfs_every_direction_and_horizon(self, graph, data):
        source = data.draw(st.integers(min_value=0, max_value=graph.n - 1))
        for direction in ("in", "out", "both"):
            for max_distance in [None, *range(graph.n + 1)]:
                got = bfs_distances(graph, source, direction, max_distance)
                assert got.dtype == np.int64
                assert got.tolist() == deque_bfs(graph, source, direction, max_distance)

    @pytest.mark.parametrize("direction", ["in", "out", "both"])
    def test_whole_graph_balls_match_deque_bfs(self, social_graph, web_graph, direction):
        # Small-world balls cover the graph within a few hops, so late
        # levels gather many copies of the same fresh vertex.
        for graph in (social_graph, web_graph):
            for source in (0, graph.n // 2, graph.n - 1):
                for max_distance in (None, 2, 11):
                    got = bfs_distances(graph, source, direction, max_distance)
                    assert got.tolist() == deque_bfs(graph, source, direction, max_distance)

    def test_duplicate_edges_and_self_loops(self):
        graph = CSRGraph.from_edges(
            5, [(0, 0), (0, 1), (0, 1), (1, 1), (1, 2), (1, 2), (3, 2), (3, 3)]
        )
        assert bfs_distances(graph, 0, "out").tolist() == [0, 1, 2, -1, -1]
        assert bfs_distances(graph, 2, "in").tolist() == [2, 1, 0, 1, -1]
        assert bfs_distances(graph, 0, "both", max_distance=2).tolist() == [0, 1, 2, -1, -1]
        assert bfs_distances(graph, 0, "both").tolist() == [0, 1, 2, 3, -1]


class TestDistanceBall:
    def test_ball_radius_zero(self, diamond):
        assert distance_ball(diamond, 0, 0, direction="out") == {0: 0}

    def test_ball_radius_one(self, diamond):
        ball = distance_ball(diamond, 0, 1, direction="out")
        assert ball == {0: 0, 1: 1, 2: 1}

    def test_ball_negative_radius(self, diamond):
        with pytest.raises(ValueError):
            distance_ball(diamond, 0, -1)

    def test_vertices_by_distance_shells(self, diamond):
        shells = vertices_by_distance(diamond, 0, 2, direction="out")
        assert shells == [[0], [1, 2], [3]]

    def test_ball_covers_whole_small_world(self, social_graph):
        ball = distance_ball(social_graph, 0, social_graph.n, direction="both")
        assert len(ball) == social_graph.n  # PA graphs are connected


class TestGatherNeighbors:
    def test_gather_is_int64_end_to_end(self, diamond):
        """Regression (found by R14): the arange in the vectorised gather
        defaulted to the platform int, so on 32-bit-long platforms the
        index math silently narrowed before hitting ``indices``."""
        from repro.graph.traversal import _gather_neighbors

        import numpy as np

        frontier = np.array([0, 1], dtype=np.int64)
        gathered = _gather_neighbors(
            diamond.out_indptr, diamond.out_indices, frontier
        )
        assert gathered.dtype == np.int64
        assert sorted(gathered.tolist()) == [1, 2, 3]

    def test_empty_frontier_gather_is_int64(self, diamond):
        from repro.graph.traversal import _gather_neighbors

        import numpy as np

        empty = np.empty(0, dtype=np.int64)
        gathered = _gather_neighbors(
            diamond.out_indptr, diamond.out_indices, empty
        )
        assert gathered.dtype == np.int64 and gathered.size == 0


class TestComponents:
    def test_single_component(self, small_cycle):
        components = weakly_connected_components(small_cycle)
        assert components == [list(range(6))]

    def test_two_components_largest_first(self):
        graph = CSRGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        components = weakly_connected_components(graph)
        assert components == [[0, 1, 2], [3, 4]]

    def test_isolated_vertices_are_singletons(self):
        graph = CSRGraph.empty(3)
        assert weakly_connected_components(graph) == [[0], [1], [2]]

    def test_direction_irrelevant_for_weak_components(self):
        graph = CSRGraph.from_edges(4, [(0, 1), (2, 1), (3, 2)])
        assert weakly_connected_components(graph) == [[0, 1, 2, 3]]
