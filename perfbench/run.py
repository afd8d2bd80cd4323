"""Run one workload of the end-to-end serving benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload uniform-web --seed 11 --seconds 10 --trace 0

Boots the real ``SimRankServer`` in its own process (``perfbench/
server.py``), drives it over TCP from this process, checks the answers
and prints every metric by name and unit.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics from a run
whose server has the layer wrappers of ``perfbench/trace.py``
installed.  A full record (host, inputs, config, routing table, every
figure) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Server boots per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Seconds a server may take from process start to its first healthz.
BOOT_TIMEOUT = 60.0
#: Queries pre-generated per reader stream (far more than a window uses).
STREAM_LENGTH = 200_000
#: Seconds of untimed closed-loop load before the window (uniform streams).
WARM_SECONDS = 2.0


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------

class ServerProc:
    """One ``perfbench/server.py`` process, booted and health-checked."""

    def __init__(self, run_dir: Path, trace_path: Optional[Path] = None) -> None:
        from perfbench.loadgen import Conn

        self.log_path = run_dir / "server.log"
        command = [sys.executable, str(ROOT / "perfbench" / "server.py"), str(run_dir)]
        if trace_path is not None:
            command += ["--trace", str(trace_path)]
        started = perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                command, cwd=str(ROOT), stdout=subprocess.PIPE, stderr=log
            )
        try:
            self.port = self._read_port(started)
            while True:
                try:
                    conn = Conn(self.port)
                    ok = conn.call({"op": "healthz"}).get("ok")
                    conn.close()
                except OSError:
                    ok = False
                if ok:
                    break
                if perf_counter() - started > BOOT_TIMEOUT:
                    raise RuntimeError("server never answered healthz")
        except BaseException:
            self.kill()
            raise
        self.setup_seconds = perf_counter() - started

    def _read_port(self, started: float) -> int:
        assert self.proc.stdout is not None
        while True:
            remaining = BOOT_TIMEOUT - (perf_counter() - started)
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
            if not ready:
                raise RuntimeError("server did not report its port in time")
            line = self.proc.stdout.readline().decode()
            if not line:
                raise RuntimeError(f"server exited during boot; see {self.log_path}")
            if line.startswith("PORT "):
                return int(line.split()[1])

    def rss_mb(self) -> float:
        """Peak resident memory (VmHWM) of the server plus its shard workers."""
        total = 0
        for pid in [self.proc.pid] + children(self.proc.pid):
            total += vm_hwm_kb(pid)
        return total / 1024.0

    def stop(self) -> None:
        from perfbench.loadgen import Conn, Dropped

        try:
            conn = Conn(self.port)
            conn.call({"op": "shutdown"})
            conn.close()
        except (OSError, Dropped):
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not stop after shutdown") from None
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited {self.proc.returncode}; see {self.log_path}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def children(pid: int) -> List[int]:
    """Child processes of ``pid`` except multiprocessing's resource tracker."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        if ppid == pid and b"resource_tracker" not in cmdline:
            found.append(int(entry))
    return found


def vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# ---------------------------------------------------------------------------
# Reference answers and ground truth
# ---------------------------------------------------------------------------

def code_digest() -> str:
    """Hash of the program and input-generation sources (cache key part)."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    files.append(ROOT / "perfbench" / "inputs.py")
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def reference(graph, config, probes: List[int], key: str) -> Dict[str, Any]:
    """In-process answers and series ground truth for the probes (cached).

    Computed once per (inputs, source digest) outside any timed window
    and stored with the probe vertex ids in ``perfbench/out``.
    """
    from perfbench.inputs import ENGINE_SEED, ground_truth
    from repro.core.engine import SimRankEngine

    path = OUT / f"reference-{key}-{code_digest()}.json"
    if path.exists():
        cached = json.loads(path.read_text())
        if cached["probes"] == probes:
            return cached
    engine = SimRankEngine(graph, config, seed=ENGINE_SEED).preprocess()
    answers = {str(u): [[int(v), float(s)] for v, s in engine.top_k(u).items] for u in probes}
    truth = ground_truth(engine, probes)
    record = {"probes": probes, "answers": answers,
              "truth": {str(u): t for u, t in truth.items()}}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record))
    tmp.replace(path)
    return record


def check_probes(gen, port: int, record: Dict[str, Any], outcomes) -> Tuple[float, int]:
    """Query every probe; bit-compare with the reference; return (recall, mismatches)."""
    from perfbench.inputs import recall
    from perfbench.loadgen import Conn, Dropped

    conn = Conn(port)
    answers: Dict[int, List[int]] = {}
    mismatches = 0
    try:
        for u in record["probes"]:
            try:
                kind, reply, _ = gen.top_k(conn, u)
            except Dropped as exc:
                kind, reply = exc.kind, None
            if kind == "ok" and reply["items"] != record["answers"][str(u)]:
                kind = "wrong"
            if kind != "ok":
                mismatches += 1
            outcomes.record(kind)
            if reply is not None and reply.get("ok"):
                answers[u] = [v for v, _ in reply["items"]]
    finally:
        conn.close()
    truth = {int(u): t for u, t in record["truth"].items()}
    return recall(answers, truth), mismatches


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def prepare(workload, seed: int, run_dir: Path) -> Dict[str, Any]:
    """Generate the graph and streams; write what the server receives."""
    from dataclasses import asdict

    from perfbench.inputs import (
        ENGINE_SEED, edit_stream, engine_config, make_graph, probe_vertices, query_stream,
    )

    graph = make_graph(workload)
    config = engine_config(workload)
    graph.save(run_dir / "graph.npz")
    spec = {"config": asdict(config), "seed": ENGINE_SEED, "serve": workload.serve,
            "dynamic": workload.dynamic}
    (run_dir / "spec.json").write_text(json.dumps(spec))
    return {
        "graph": graph,
        "config": config,
        "queries": query_stream(workload, graph, seed, STREAM_LENGTH),
        "edits": edit_stream(workload, graph, seed, 4000) if workload.write_rate else None,
        "probes": probe_vertices(graph),
    }


def drive(workload, inputs: Dict[str, Any], server: ServerProc, seconds: float,
          outcomes) -> Tuple[Any, Any]:
    """Warm the server, then run the measured window on it; returns (generator, window)."""
    from perfbench.loadgen import LoadGen

    gen = LoadGen(server.port, inputs["config"].k)
    queries = inputs["queries"]
    if workload.queries == "zipf":
        # The hot set is queried once before timing starts.
        outcomes.merge(gen.warm(sorted(set(queries)), workload.readers))
    else:
        # A fresh server answers its first seconds of queries about 10%
        # slower, so untimed load runs first.  It walks the stream from
        # the far end, leaving the window's queries independent of timing.
        warm = gen.measure(WARM_SECONDS, workload.readers, iter(queries[::-1]))
        outcomes.merge(warm.outcomes)
    window = gen.measure(
        seconds,
        workload.readers,
        iter(queries),
        edits=inputs["edits"],
        write_rate=workload.write_rate,
        edit_batch=workload.edit_batch,
        base_n=inputs["graph"].n,
    )
    outcomes.merge(window.outcomes)
    return gen, window


def reference_key(workload, *extra: object) -> str:
    key = json.dumps([workload.family, workload.n, workload.config, *extra], sort_keys=True)
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def final_reference(workload, inputs: Dict[str, Any], seed: int, server: ServerProc,
                    window, outcomes) -> Dict[str, Any]:
    """Reference for the probes against the graph a write workload ends with.

    The server applies a final flush; its vertex and edge counts must
    match a local replay of the edits it acknowledged, and the probe
    answers must then equal a from-scratch preprocess of that graph.
    """
    from perfbench.inputs import replay_edits
    from perfbench.loadgen import Conn

    graph = replay_edits(inputs["graph"], inputs["edits"][: window.edits_sent])
    conn = Conn(server.port)
    try:
        flushed = conn.call({"op": "flush"}).get("ok")
        health = conn.call({"op": "healthz"})
    finally:
        conn.close()
    same = flushed and health.get("vertices") == graph.n and health.get("edges") == graph.m
    outcomes.record("ok" if same else "wrong")
    key = reference_key(workload, seed, window.edits_sent)
    return reference(graph, inputs["config"], inputs["probes"], key)


def ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds * 1e3


def latency_block(values: List[float], tail: float) -> Dict[str, Any]:
    from perfbench.stats import summarize

    s = summarize(values, tail)
    return {"count": s["count"], "p50_ms": ms(s["p50"]), f"p{tail:g}_ms": ms(s["tail"]),
            "beyond": s["tail_beyond"], "supported": s["tail_supported"],
            "highest_supported": s["highest_supported"]}


def window_figures(window) -> Dict[str, Any]:
    read = window.read_latency
    span = (window.end - window.start) if window.end > window.start else None
    figures: Dict[str, Any] = {
        "read_p50_ms": ms(float(np.percentile(read, 50))) if read else None,
        "read_p90_ms": ms(float(np.percentile(read, 90))) if read else None,
        "read_p95_ms": ms(float(np.percentile(read, 95))) if read else None,
        "read_qps": len(read) / span if span else None,
        "read": latency_block(read, 99.0),
    }
    if window.write_latency or window.visible:
        figures["write"] = latency_block(window.write_latency, 99.0)
        figures["write_lateness_ms_max"] = ms(max(window.write_lateness, default=0.0))
        figures["visible"] = {"count": len(window.visible),
                              "p50_s": float(np.median(window.visible)) if window.visible else None}
        figures["edits_sent"] = window.edits_sent
    return figures


def run(args: argparse.Namespace) -> int:
    from perfbench import layers
    from perfbench.inputs import WORKLOADS
    from perfbench.stats import Outcomes

    workload = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    inputs = prepare(workload, args.seed, run_dir)
    outcomes = Outcomes()
    record: Dict[str, Any] = {
        "workload": workload.describe(), "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host(),
        "graph": {"n": inputs["graph"].n, "m": inputs["graph"].m},
        "connections": workload.readers + (1 if workload.write_rate else 0),
        "routing": layers.routing(),
    }
    # Read-only references are built before any server runs, so they never
    # compete with a timed window.
    expected = None if workload.dynamic else reference(
        inputs["graph"], inputs["config"], inputs["probes"], reference_key(workload)
    )
    trace_path = run_dir / "spans.npz"
    if args.trace:
        # A half-length untraced window on a fresh server first: the
        # tracing-overhead baseline and the client.* figures.  Then the
        # traced server.
        plain = ServerProc(run_dir)
        try:
            _, base_window = drive(workload, inputs, plain, args.seconds / 2, outcomes)
        finally:
            plain.stop()
        base = window_figures(base_window)
        server = ServerProc(run_dir, trace_path)
    else:
        setups = []
        for _ in range(SETUP_REPS - 1):
            boot = ServerProc(run_dir)
            setups.append(boot.setup_seconds)
            boot.stop()
        server = ServerProc(run_dir)
        setups.append(server.setup_seconds)
    try:
        gen, window = drive(workload, inputs, server, args.seconds, outcomes)
        if expected is None:
            expected = final_reference(workload, inputs, args.seed, server, window, outcomes)
        recall_at_k, mismatches = check_probes(gen, server.port, expected, outcomes)
        rss = server.rss_mb()
    finally:
        server.stop()
    figures = window_figures(window)
    record.update(window=figures, recall_at_k=recall_at_k, probe_mismatches=mismatches)
    if args.trace:
        trace = layers.Trace(
            str(trace_path), (window.first_id, window.last_id), (window.start, window.end)
        )
        found, detail = layers.aggregate(trace, window.read_ids, window.read_latency)
        found["trace.read_p50_ms"] = figures["read_p50_ms"]
        found["trace.overhead_ms"] = (figures["read_p50_ms"] or 0.0) - (
            base["read_p50_ms"] or 0.0)
        found["client.read_p90_ms"] = base["read_p90_ms"]
        found["client.read_p99_ms"] = base["read"]["p99_ms"]
        found["client.read_qps"] = base["read_qps"]
        found["client.write_p50_ms"] = base.get("write", {}).get("p50_ms") or 0.0
        found["client.write_p99_ms"] = base.get("write", {}).get("p99_ms") or 0.0
        found["client.visible_p50_s"] = base.get("visible", {}).get("p50_s") or 0.0
        metrics = {m["name"]: found[m["name"]] for m in layers.catalog()}
        record.update(untraced_window=base, layers=detail)
    else:
        metrics = {
            "setup_s": float(np.median(setups)),
            "read_p50_ms": figures["read_p50_ms"],
            "rss_mb": rss,
            "recall_at_k": recall_at_k,
        }
        record.update(setup_samples_s=setups)
    correct = outcomes.wrong == 0 and all(v is not None for v in metrics.values())
    record.update(metrics=metrics, correct=correct, attempted=outcomes.attempted,
                  failed=outcomes.failed, failed_frac=outcomes.failed_frac,
                  outcomes=outcomes.by_kind)
    report(record, metrics)
    suffix = "trace" if args.trace else "e2e"
    (OUT / f"{args.workload}-seed{args.seed}-{suffix}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    # Kept on failure (server.log) for inspection; removed once the run finished.
    shutil.rmtree(run_dir, ignore_errors=True)
    units = unit_table()
    print(json.dumps({
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def unit_table() -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def host() -> Dict[str, Any]:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def num(value: Optional[float], spec: str = ".3f") -> str:
    return "n/a" if value is None else format(value, spec)


def report(record: Dict[str, Any], metrics: Dict[str, Optional[float]]) -> None:
    """Human-readable lines: every figure by name with its unit."""
    w = record["window"]
    print(f"workload {record['workload']['name']} seed {record['seed']} "
          f"graph n={record['graph']['n']} m={record['graph']['m']} "
          f"connections={record['connections']} trace={record['trace']}")
    read = w["read"]
    tail = (f"{num(read['p99_ms'])} ms ({read['beyond']} beyond)" if read["supported"] else
            f"unsupported ({read['count']} samples, {read['beyond']} beyond; "
            f"highest supported p{num(read['highest_supported'], 'g')})")
    print(f"  reads: {read['count']} ok, p50 {num(w['read_p50_ms'])} ms, "
          f"p90 {num(w['read_p90_ms'])} ms, p95 {num(w['read_p95_ms'])} ms, p99 {tail}, "
          f"{num(w['read_qps'], '.2f')} 1/s")
    if "write" in w:
        wr = w["write"]
        tail = f"{num(wr['p99_ms'])} ms" if wr["supported"] else (
            f"unsupported ({wr['count']} samples)")
        print(f"  writes: {wr['count']} ok, p50 {num(wr['p50_ms'])} ms, p99 {tail}; "
              f"generator late by up to {num(w['write_lateness_ms_max'])} ms; "
              f"{w['edits_sent']} edits sent")
        vis = w["visible"]
        print(f"  visible_p50_s: {num(vis['p50_s'], '.4f')} s over {vis['count']} growing edits")
    print(f"  failed_frac: {record['failed_frac']:.6f} ratio "
          f"({record['failed']} of {record['attempted']}: {record['outcomes'] or 'none'})")
    print(f"  recall_at_k: {record['recall_at_k']:.4f} ratio; "
          f"probe mismatches {record['probe_mismatches']}")
    units = unit_table()
    for name, value in metrics.items():
        print(f"  {name}: {num(value, '.6g')} {units.get(name, '')}")
    for row in record.get("layers", []):
        if "metric" in row:
            print(f"    {row['metric']}: calls {row['calls']}, busy {row['busy_s']:.4f} s, "
                  f"p50 {row['p50']:.4g}, p99 {row['p99']:.4g}")
        else:
            print(f"    share {row['layer']}: {row['mean_ms']:.3f} ms/request "
                  f"({100 * row['share']:.1f}% of mean latency)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end serving benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing")
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.inputs import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed is None:
        args.seed = DEFAULT_SEED
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
