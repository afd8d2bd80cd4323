"""The benchmark's own arithmetic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import layers  # noqa: E402
from perfbench.inputs import recall  # noqa: E402
from perfbench.loadgen import classify, well_formed  # noqa: E402
from perfbench.stats import (  # noqa: E402
    Outcomes,
    beyond,
    highest_supported,
    open_loop_latency,
    self_times,
    summarize,
    supports,
)


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------

def spans(rows):
    """rows: (start, end, parent) -> (durations, parents)."""
    starts = np.array([r[0] for r in rows], dtype=float)
    ends = np.array([r[1] for r in rows], dtype=float)
    return ends - starts, np.array([r[2] for r in rows])


def test_self_time_subtracts_back_to_back_children():
    # root [0, 10] with children [1, 3] and [3, 6] touching end to start.
    durations, parents = spans([(0, 10, -1), (1, 3, 0), (3, 6, 0)])
    assert self_times(durations, parents).tolist() == [5.0, 2.0, 3.0]


def test_self_time_does_not_subtract_grandchildren_twice():
    # root [0, 10] > child [2, 8] > grandchild [3, 7].
    durations, parents = spans([(0, 10, -1), (2, 8, 0), (3, 7, 1)])
    assert self_times(durations, parents).tolist() == [4.0, 2.0, 4.0]


def test_self_time_with_gaps_between_children():
    durations, parents = spans([(0, 10, -1), (1, 2, 0), (5, 9, 0), (6, 7, 2)])
    assert self_times(durations, parents).tolist() == [5.0, 1.0, 3.0, 1.0]


def test_self_times_sum_to_root_duration():
    durations, parents = spans([(0, 10, -1), (1, 4, 0), (4, 9, 0), (5, 6, 2), (6, 8, 2)])
    assert self_times(durations, parents).sum() == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# Percentiles and the ">= 10 samples beyond" rule
# ---------------------------------------------------------------------------

def test_p99_needs_a_thousand_samples():
    assert supports(1000, 99.0)
    assert not supports(999, 99.0)
    assert supports(200, 95.0)
    assert not supports(199, 95.0)


def test_highest_supported_percentile():
    assert highest_supported(9) is None
    assert highest_supported(20) == 50.0
    assert highest_supported(100) == 90.0
    assert highest_supported(500) == 95.0
    assert highest_supported(1000) == 99.0
    assert highest_supported(10_000) == 99.9


def test_summary_flags_unsupported_tail_and_counts_beyond():
    values = [float(i) for i in range(1, 501)]
    s = summarize(values, 99.0)
    assert s["count"] == 500
    assert not s["tail_supported"]
    assert s["highest_supported"] == 95.0
    assert s["tail_beyond"] == beyond(values, s["tail"]) == 5
    s = summarize([float(i) for i in range(1, 1001)], 99.0)
    assert s["tail_supported"]
    assert s["tail_beyond"] == 10


# ---------------------------------------------------------------------------
# failed_frac accounting
# ---------------------------------------------------------------------------

def test_shed_timeout_and_wrong_answer_each_count_once():
    outcomes = Outcomes()
    outcomes.record("ok")
    outcomes.record(classify({"ok": False, "code": "overloaded", "error": "full"}))
    outcomes.record("timeout")
    # A reply that is "ok" on the wire but fails the shape check.
    reply = {"ok": True, "vertex": 3, "items": [[3, 0.5]]}
    outcomes.record("ok" if well_formed(reply, 3, 20) else "wrong")
    assert outcomes.attempted == 4
    assert outcomes.failed == 3
    assert outcomes.by_kind == {"overloaded": 1, "timeout": 1, "wrong": 1}
    assert outcomes.wrong == 1
    assert outcomes.failed_frac == 0.75


def test_merge_keeps_counts():
    a, b = Outcomes(), Outcomes()
    a.record("ok")
    b.record("deadline")
    b.record("ok")
    a.merge(b)
    assert (a.attempted, a.failed, a.by_kind) == (3, 1, {"deadline": 1})


def test_unknown_error_code_counts_as_internal():
    assert classify({"ok": False, "code": "weird"}) == "internal"
    assert classify({"ok": True}) == "ok"


def test_well_formed_rejects_unsorted_and_oversized_answers():
    assert well_formed({"vertex": 1, "items": [[2, 0.3], [4, 0.2]]}, 1, 2)
    assert not well_formed({"vertex": 1, "items": [[2, 0.2], [4, 0.3]]}, 1, 2)
    assert not well_formed({"vertex": 1, "items": [[2, 0.3], [4, 0.2]]}, 1, 1)
    assert not well_formed({"vertex": 1, "items": [[2, 0.3], [2, 0.2]]}, 1, 2)
    assert not well_formed({"vertex": 2, "items": []}, 1, 2)


# ---------------------------------------------------------------------------
# Open-loop timing
# ---------------------------------------------------------------------------

def test_open_loop_latency_is_timed_from_the_due_time():
    # Due at 1.0, sent late at 1.5 because a predecessor stalled, answered at 1.6.
    latency, late = open_loop_latency(due=1.0, sent=1.5, replied=1.6)
    assert latency == pytest.approx(0.6)
    assert late == pytest.approx(0.5)
    # Sent on time: latency is just the round trip.
    latency, late = open_loop_latency(due=2.0, sent=2.0, replied=2.05)
    assert latency == pytest.approx(0.05)
    assert late == 0.0


# ---------------------------------------------------------------------------
# Recall and the catalog
# ---------------------------------------------------------------------------

def test_recall_counts_found_truth():
    truth = {1: [5, 6, 7, 8], 2: [9]}
    answers = {1: [5, 7, 10], 2: []}
    assert recall(answers, truth) == pytest.approx(2 / 5)
    assert recall({}, {1: []}) == 1.0


def test_benchmark_json_lists_the_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["per_layer"] == layers.catalog()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    routed = {row["metric"] for row in layers.routing()}
    assert routed == {t.name for t in layers.TIMINGS} | {f.name for f in layers.FIGURES}
