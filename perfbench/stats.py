"""The benchmark's own arithmetic: quantiles, tail support, self time,
failure accounting and open-loop timing.

Kept free of I/O and of the program under test so that
``perfbench/tests`` can pin the rules down exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; fewer and the value is one or two outliers.
MIN_BEYOND = 10

#: Percentiles considered for "the highest percentile the sample supports".
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)


def beyond(values: Sequence[float], threshold: float) -> int:
    """How many samples lie strictly above ``threshold``."""
    return sum(1 for v in values if v > threshold)


def supports(count: int, q: float) -> bool:
    """Whether ``count`` samples leave at least MIN_BEYOND beyond ``q``.

    The expected number beyond the q-th percentile is
    ``count * (1 - q/100)``; a small epsilon keeps exact cases such as
    1000 samples at p99 (10 beyond) supported despite float rounding.
    """
    return count * (1.0 - q / 100.0) >= MIN_BEYOND - 1e-9


def highest_supported(count: int) -> Optional[float]:
    """The highest ladder percentile with >= MIN_BEYOND samples beyond."""
    best = None
    for q in TAIL_LADDER:
        if supports(count, q):
            best = q
    return best


def summarize(values: Sequence[float], tail: float = 99.0) -> Dict[str, object]:
    """Median, requested tail and sample accounting for one latency series.

    ``tail_supported`` is False when fewer than MIN_BEYOND samples lie
    beyond the requested tail; the value is still given so a reader can
    see it, but it must not be used as a headline.
    """
    if not values:
        return {"count": 0, "p50": None, "tail": None, "tail_beyond": 0, "tail_supported": False,
                "highest_supported": None}
    tail_value = float(np.percentile(values, tail))
    return {
        "count": len(values),
        "p50": float(np.percentile(values, 50.0)),
        "tail": tail_value,
        "tail_beyond": beyond(values, tail_value),
        "tail_supported": supports(len(values), tail),
        "highest_supported": highest_supported(len(values)),
    }


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def self_times(durations: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the time its children cover.

    ``parents[i]`` is the index of span ``i``'s parent, or -1.  Only
    direct children are subtracted: a grandchild already lies inside its
    parent's interval, so subtracting it again would double count.
    Children come off one thread's call stack, so siblings never
    overlap and their covered time is the sum of their durations, be
    they back-to-back or separated by gaps.
    """
    durations = np.asarray(durations, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    covered = np.bincount(
        parents[has_parent], weights=durations[has_parent], minlength=durations.size
    )
    return durations - covered


# ---------------------------------------------------------------------------
# Operations and failures
# ---------------------------------------------------------------------------

#: Error codes a server reply can carry; each counts as one failure.
ERROR_KINDS = ("overloaded", "deadline", "internal", "bad_request",
               "unsupported", "shutting_down")


class Outcomes:
    """Attempted/failed accounting: every operation counts exactly once.

    A failure is an error reply (any protocol code), a dropped
    connection, a timeout, or an answer that fails a correctness check.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.by_kind: Dict[str, int] = {}

    def record(self, kind: str) -> None:
        """Count one operation whose outcome is ``kind`` (``"ok"`` or a failure)."""
        self.attempted += 1
        if kind != "ok":
            self.failed += 1
            self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    def merge(self, other: "Outcomes") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for kind, n in other.by_kind.items():
            self.by_kind[kind] = self.by_kind.get(kind, 0) + n

    @property
    def wrong(self) -> int:
        """Answers that failed a correctness check."""
        return self.by_kind.get("wrong", 0)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# Open-loop timing
# ---------------------------------------------------------------------------

def open_loop_latency(due: float, sent: float, replied: float) -> Tuple[float, float]:
    """(latency, lateness) of one open-loop request.

    Latency runs from when the request was *due*, not when it was sent,
    so a stalled generator or a throttled predecessor charges its wait
    to every request it delayed.  Lateness is how far behind schedule
    the generator sent it.
    """
    if replied < sent:
        raise ValueError("reply precedes send")
    return replied - due, max(0.0, sent - due)

