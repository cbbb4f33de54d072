"""One measured run of a workload in a fresh interpreter.

Imports finetype, loads and indexes the workload's inputs as a separate
timed step (setup_s), then runs the workload's command sequence through
``finetype.cli.main`` (wall_s), then times a fixed reference job
(reference_s) that run.py uses to report timings at reference speed.
Interpreter start and imports are outside all three timings. With tracing
on, finetype's entry points are wrapped after the setup step and the spans
are written next to the result.

Usage: python3 perfbench/child.py SPEC.json RESULT.json
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np
from finetype import cli
from finetype.embeddings import load_embeddings
from finetype.kb import load_snapshot
from finetype.tagger import (PrecomputedVectors, StaticVectors, TaggerModel, attach_vectors,
                             read_conll)
from finetype.taxonomy import load_hierarchy

import spans


def reference() -> float:
    """Seconds for a fixed job that does not touch finetype: dict and set
    churn plus small matrix-vector products, the two kinds of work the
    workloads spend their time in. It tracks the machine's current speed."""
    start = time.perf_counter()
    for _ in range(6):  # small tables, so the job never raises peak RSS
        table = {f"k{i}": {i, i + 1, i + 2} for i in range(10_000)}
        sum(len(v & {5, 6}) for v in table.values())
    rng = np.random.default_rng(0)
    w, x, h = rng.standard_normal((128, 64)), rng.standard_normal(64), np.zeros(128)
    for _ in range(3000):
        h = np.tanh(w @ x + h)
    return time.perf_counter() - start


def setup(inputs: dict) -> float:
    """Seconds to load every input the commands read, through the public loaders."""
    start = time.perf_counter()
    loaded = [load_hierarchy(inputs["hierarchy"]), load_snapshot(inputs["kb"]),
              load_embeddings(inputs["embeddings"])]
    provider = None
    if "sidecar" in inputs:
        provider = PrecomputedVectors.load(inputs["sidecar"])
    elif "static" in inputs:
        provider = StaticVectors(load_embeddings(inputs["static"]))
    for corpus in inputs["corpora"]:
        examples = read_conll(corpus)
        loaded.append(attach_vectors(examples, provider) if provider else examples)
    if "model" in inputs:
        loaded.append(TaggerModel.load(inputs["model"]))
    elapsed = time.perf_counter() - start
    del loaded, provider
    gc.collect()
    return elapsed


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result_path = Path(sys.argv[2])
    setup_s = setup(spec["inputs"])
    recorder = spans.Recorder() if spec["trace"] else None
    if recorder:
        recorder.install()
    codes = []
    start = time.perf_counter()
    for argv in spec["commands"]:
        if recorder:
            with recorder.span("cli.main"):
                codes.append(cli.main(argv))
        else:
            codes.append(cli.main(argv))
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "codes": codes,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "reference_s": (reference() + reference()) / 2,
        "peak_rss_mb": peak_rss_mb,
    }
    if recorder:
        recorder.write(result_path.with_name("spans.json"))
        metrics, absent, idle = spans.layer_metrics(recorder.summary(), recorder.missing)
        result.update(layers=metrics, absent=absent, idle=idle)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
