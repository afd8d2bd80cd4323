"""Out-of-range ``extra_candidates`` are rejected as :class:`VertexError`.

Both backends check the vertices a caller adds before any scoring: the
engine in the query prologue, the shard pool before it scatters (a
worker-side failure would otherwise come back as a ``ShardError``).
"""

from __future__ import annotations

import pytest

from repro.errors import VertexError
from repro.shard.pool import ShardPool


@pytest.fixture(scope="module", params=["engine", "pool"])
def backend(request, shard_engine):
    if request.param == "engine":
        yield shard_engine
    else:
        with ShardPool(shard_engine, 2) as pool:
            yield pool


@pytest.mark.parametrize("extra", [[120], [-1], [3, 120]])
def test_out_of_range_extra_candidate_raises_vertex_error(backend, extra):
    with pytest.raises(VertexError):
        backend.top_k(9, extra_candidates=extra)


def test_in_range_extra_candidates_still_answer(backend, shard_engine):
    extra = [1, 2, 119]
    assert (
        backend.top_k(9, extra_candidates=extra).items
        == shard_engine.top_k(9, extra_candidates=extra).items
    )
