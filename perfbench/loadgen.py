"""Load generation over the server's NDJSON protocol.

One load-generator process drives the server with at most two
connections, each on its own thread: closed-loop readers (the next
``top_k`` is sent when the previous reply arrives) and, on write
workloads, one open-loop writer that sends ``update`` batches on a fixed
schedule and polls ``healthz`` for visibility in between.  Every request
carries a unique ``id`` so server-side spans can be joined to the
client-observed latency.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Any, Dict, Iterator, List, Optional, Tuple

from perfbench.stats import ERROR_KINDS, Outcomes, open_loop_latency

#: Seconds a reply may take before the request counts as timed out.
REQUEST_TIMEOUT = 30.0


class Dropped(Exception):
    """The connection closed or timed out before a reply arrived."""

    def __init__(self, kind: str) -> None:
        super().__init__(kind)
        self.kind = kind


class Conn:
    """One persistent NDJSON connection.

    Not :class:`repro.serve.client.ServeClient`: that raises on error
    replies and sends no request id, while the benchmark counts every
    error code and tags each request with the id the traced server joins
    its spans on.
    """

    def __init__(self, port: int, timeout: float = REQUEST_TIMEOUT) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rwb")

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        try:
            self._file.write(json.dumps(message, separators=(",", ":")).encode() + b"\n")
            self._file.flush()
            line = self._file.readline()
        except socket.timeout:
            raise Dropped("timeout") from None
        except OSError:
            raise Dropped("dropped") from None
        if not line:
            raise Dropped("dropped")
        return json.loads(line)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


def classify(reply: Dict[str, Any]) -> str:
    """``"ok"`` or the failure kind of one reply."""
    if reply.get("ok"):
        return "ok"
    code = str(reply.get("code", "internal"))
    return code if code in ERROR_KINDS else "internal"


def well_formed(reply: Dict[str, Any], vertex: int, k: int) -> bool:
    """Shape checks every ``top_k`` answer must pass."""
    if reply.get("vertex") != vertex:
        return False
    items = reply.get("items")
    if not isinstance(items, list) or len(items) > k:
        return False
    previous = float("inf")
    seen = set()
    for v, s in items:
        if not (isinstance(v, int) and 0.0 <= s <= 1.0 + 1e-9) or v == vertex or v in seen:
            return False
        if s > previous:
            return False
        seen.add(v)
        previous = s
    return True


@dataclass
class Window:
    """What one measured window observed."""

    outcomes: Outcomes = field(default_factory=Outcomes)
    read_latency: List[float] = field(default_factory=list)
    read_ids: List[int] = field(default_factory=list)  # parallel to read_latency
    write_latency: List[float] = field(default_factory=list)
    write_lateness: List[float] = field(default_factory=list)
    visible: List[float] = field(default_factory=list)
    edits_sent: int = 0
    start: float = 0.0
    end: float = 0.0
    first_id: int = 0
    last_id: int = 0


class LoadGen:
    """Shared request ids, query stream and window bookkeeping."""

    def __init__(self, port: int, k: int) -> None:
        self.port = port
        self.k = k
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    # ------------------------------------------------------------------
    # Single requests
    # ------------------------------------------------------------------

    def top_k(self, conn: Conn, vertex: int) -> Tuple[str, Optional[Dict[str, Any]], int]:
        """(outcome, reply, id) of one ``top_k``; shape failures are ``wrong``."""
        rid = self.next_id()
        reply = conn.call({"op": "top_k", "vertex": vertex, "id": rid})
        kind = classify(reply)
        if kind == "ok" and not well_formed(reply, vertex, self.k):
            kind = "wrong"
        return kind, reply, rid

    def warm(self, vertices: List[int], connections: int) -> Outcomes:
        """Query each vertex once (not timed) across ``connections`` threads."""
        outcomes = Outcomes()
        chunks = [vertices[i::connections] for i in range(connections)]

        def worker(chunk: List[int]) -> None:
            conn = Conn(self.port)
            try:
                for u in chunk:
                    kind, _, _ = self.top_k(conn, u)
                    with self._lock:
                        outcomes.record(kind)
            finally:
                conn.close()

        run_threads([lambda c=c: worker(c) for c in chunks if c])
        return outcomes

    # ------------------------------------------------------------------
    # The measured window
    # ------------------------------------------------------------------

    def measure(
        self,
        seconds: float,
        readers: int,
        queries: Iterator[int],
        edits: Optional[List[Tuple[str, int, int]]] = None,
        write_rate: float = 0.0,
        edit_batch: int = 4,
        base_n: int = 0,
    ) -> Window:
        window = Window()
        window.first_id = self.next_id()
        window.start = perf_counter()
        deadline = window.start + seconds
        stream_lock = threading.Lock()
        tasks = []
        for _ in range(readers):
            tasks.append(lambda: self._reader(window, deadline, queries, stream_lock))
        if edits is not None:
            tasks.append(
                lambda: self._writer(window, deadline, edits, write_rate, edit_batch, base_n)
            )
        run_threads(tasks)
        window.last_id = self.next_id()
        return window

    def _reader(
        self, window: Window, deadline: float, queries: Iterator[int], stream_lock: threading.Lock
    ) -> None:
        conn = Conn(self.port)
        try:
            while True:
                with stream_lock:
                    u = next(queries)
                sent = perf_counter()
                if sent >= deadline:
                    break
                try:
                    kind, _, rid = self.top_k(conn, u)
                except Dropped as exc:
                    kind, rid = exc.kind, -1
                    conn.close()
                    conn = Conn(self.port)
                done = perf_counter()
                with self._lock:
                    window.outcomes.record(kind)
                    if kind == "ok":
                        window.read_latency.append(done - sent)
                        window.read_ids.append(rid)
                        window.end = max(window.end, done)
        finally:
            conn.close()

    def _writer(
        self,
        window: Window,
        deadline: float,
        edits: List[Tuple[str, int, int]],
        write_rate: float,
        edit_batch: int,
        base_n: int,
        poll_interval: float = 0.005,
        grace: float = 10.0,
    ) -> None:
        """Open-loop ``update`` batches on schedule; poll visibility between.

        Each update is timed from its due time.  An update that grows the
        graph stays open until ``healthz`` reports more vertices than its
        new id; its outcome is recorded then (or as ``invisible`` after
        ``grace`` seconds), so every update counts exactly once.
        """
        conn = Conn(self.port)
        interval = edit_batch / write_rate
        due = window.start
        cursor = 0
        pending: List[Tuple[int, float]] = []  # (new vertex id, ack time)
        n_seen = base_n
        try:
            while True:
                now = perf_counter()
                writing = due < deadline and cursor < len(edits)
                if writing and now >= due:
                    batch = edits[cursor:cursor + edit_batch]
                    cursor += len(batch)
                    grows = [v for op, _, v in batch if op == "add" and v >= n_seen]
                    message = {
                        "op": "update",
                        "id": self.next_id(),
                        "add": [[u, v] for op, u, v in batch if op == "add"],
                        "remove": [[u, v] for op, u, v in batch if op == "remove"],
                    }
                    sent = perf_counter()
                    try:
                        kind = classify(conn.call(message))
                    except Dropped as exc:
                        kind = exc.kind
                        conn.close()
                        conn = Conn(self.port)
                    replied = perf_counter()
                    latency, late = open_loop_latency(due, sent, replied)
                    with self._lock:
                        window.edits_sent += len(batch)
                        if kind == "ok":
                            window.write_latency.append(latency)
                            window.write_lateness.append(late)
                        if kind != "ok" or not grows:
                            window.outcomes.record(kind)
                    if kind == "ok" and grows:
                        pending.append((max(grows), replied))
                        n_seen = max(grows) + 1
                    due += interval
                    continue
                if not pending:
                    if not writing:
                        break
                    sleep(due - now)
                    continue
                try:
                    vertices = int(conn.call({"op": "healthz"})["vertices"])
                except Dropped:
                    conn.close()
                    conn = Conn(self.port)
                    vertices = -1
                seen_at = perf_counter()
                still = []
                for vertex, acked in pending:
                    if vertices > vertex:
                        kind = "ok"
                        window.visible.append(seen_at - acked)
                    elif seen_at - acked > grace:
                        kind = "invisible"
                    else:
                        still.append((vertex, acked))
                        continue
                    with self._lock:
                        window.outcomes.record(kind)
                pending = still
                nap = poll_interval if not writing else min(poll_interval, due - seen_at)
                if nap > 0:
                    sleep(nap)
        finally:
            conn.close()


def run_threads(tasks: List[Any]) -> None:
    """Run each callable on its own thread; re-raise the first error."""
    errors: List[BaseException] = []

    def guard(task: Any) -> None:
        try:
            task()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guard, args=(task,)) for task in tasks]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
