"""Server process of the benchmark: boot one real ``SimRankServer``.

Usage (from the repository root; ``run.py`` does this)::

    python3 perfbench/server.py RUN_DIR [--trace SPANS_PATH]

``RUN_DIR`` holds ``graph.npz`` and ``spec.json`` (engine config, seed,
serve config, whether the engine is dynamic).  The process preprocesses
the graph, binds an ephemeral port, prints ``PORT <n>`` and serves until
a ``shutdown`` request.  With ``--trace`` the layer wrappers of
``perfbench/trace.py`` are installed before anything is built, and the
recorded spans are written to ``SPANS_PATH`` on shutdown.

The module body stays import-only: shard workers start with the
``spawn`` method, which re-imports this file in every worker.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def main(argv: list) -> int:
    import argparse
    import asyncio
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_dir")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from perfbench.trace import Tracer, install

        tracer = Tracer()
        install(tracer)

    from repro.core.config import SimRankConfig
    from repro.core.dynamic import DynamicSimRankEngine
    from repro.core.engine import SimRankEngine
    from repro.graph.csr import CSRGraph
    from repro.serve import ServeConfig, SimRankServer

    with open(os.path.join(args.run_dir, "spec.json")) as fh:
        spec = json.load(fh)
    graph = CSRGraph.load(os.path.join(args.run_dir, "graph.npz"))
    config = SimRankConfig(**spec["config"])
    if spec["dynamic"]:
        engine = DynamicSimRankEngine(graph, config, seed=spec["seed"])
        index = engine.engine.index
    else:
        engine = SimRankEngine(graph, config, seed=spec["seed"]).preprocess()
        index = engine.index
    if tracer is not None:
        tracer.value("index.bytes", index.nbytes())
    server = SimRankServer(engine, ServeConfig(port=0, **spec["serve"]))

    async def serve() -> None:
        port = await server.start()
        print(f"PORT {port}", flush=True)
        await server.wait_stopped()

    asyncio.run(serve())
    if tracer is not None:
        tracer.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
