"""In-memory span recorder that wraps finetype's entry points from outside.

Each target is patched under the name its caller looks it up by (for
example ``finetype.cli.link_mention``, which ``link_corpus`` calls, rather
than ``finetype.linker.link_mention``). A span holds its name, start, end and
the index of the span that was open when it started; self time is a span's
duration minus the time its direct children cover.

A target that no longer exists is recorded as missing, and every metric
derived from it is reported as absent rather than as zero, so a renamed
entry point shows up as unmeasured and never as a saving.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

# (span name, module, attribute path, value recorded per call or None)
TARGETS = (
    ("tagger.train", "finetype.cli", "train",
     lambda args, result: sum(len(ex) for ex in args[0]) * args[1].epochs),
    ("tagger.predict", "finetype.tagger", "TaggerModel.predict",
     lambda args, result: len(args[1])),
    ("tagger.read_conll", "finetype.cli", "read_conll", None),
    ("tagger.sidecar_load", "finetype.tagger", "PrecomputedVectors.load", None),
    ("tagger.attach_vectors", "finetype.cli", "attach_vectors", None),
    ("tagger.model_load", "finetype.tagger", "TaggerModel.load", None),
    ("tagger.model_save", "finetype.tagger", "TaggerModel.save", None),
    ("kb.load_snapshot", "finetype.cli", "load_snapshot", lambda args, result: len(result)),
    ("kb.narrow_candidates", "finetype.kb", "KnowledgeBase.narrow_candidates", None),
    ("kb.subclass_closure", "finetype.kb", "KnowledgeBase.subclass_closure", None),
    ("kb.lookup", "finetype.kb", "KnowledgeBase.lookup",
     lambda args, result: result is not None),
    ("linker.link_mention", "finetype.cli", "link_mention", None),
    ("linker.cluster_to_subtype", "finetype.linker", "cluster_to_subtype",
     lambda args, result: result is not None),
    ("embeddings.load_embeddings", "finetype.cli", "load_embeddings", None),
    ("embeddings.phrase_similarity", "finetype.linker", "phrase_similarity",
     lambda args, result: result is not None),
    ("taxonomy.load_hierarchy", "finetype.cli", "load_hierarchy", None),
    ("evaluation.match_exact", "finetype.cli", "match_exact", None),
    ("cli.write_conll", "finetype.cli", "write_conll", None),
    ("cli.write_linked", "finetype.cli", "write_linked", None),
    ("cli.write_report", "finetype.cli", "_write_report", None),
    ("cli.read_linked", "finetype.cli", "read_linked", None),
)
STAGE_TARGET = ("cli.stage", "finetype.cli", "_stage")
STAGES = {"load inputs": "load", "train tagger": "train", "tag corpus": "tag",
          "link mentions": "link", "evaluate": "evaluate"}


class Recorder:
    """Spans as (name, start, end, parent, value) kept in a list until written."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.missing: list[str] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        entry = [name, time.perf_counter(), None, self._open[-1] if self._open else -1, None]
        self.spans.append(entry)
        self._open.append(index)
        try:
            yield entry
        finally:
            entry[2] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn, value):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as entry:
                result = fn(*args, **kwargs)
                if value is not None:
                    entry[4] = value(args, result)
                return result
        return traced

    def install(self) -> None:
        """Patch every target that exists; note the ones that do not."""
        for name, module, path, value in TARGETS:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, value)))
            else:
                setattr(owner, attr, self._wrap(name, raw, value))
        name, module, attr = STAGE_TARGET
        owner = importlib.import_module(module)
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        recorder = self

        @contextmanager
        def stage(label, *args, **kwargs):
            with recorder.span(f"{name}.{STAGES.get(label, label.replace(' ', '_'))}"):
                with original(label, *args, **kwargs):
                    yield

        setattr(owner, attr, stage)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing,
                       "spans": [dict(zip(("name", "start", "end", "parent", "value"), s))
                                 for s in self.spans]}, fh)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and the summed value."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _, value), children in zip(self.spans, child_time):
            s = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0})
            s["calls"] += 1
            s["s"] += end - start
            s["self_s"] += end - start - children
            s["value"] += value or 0
        return out


def layer_metrics(summary: dict[str, dict], missing: list[str]) -> tuple[dict, list, list]:
    """Per-layer metrics from a span summary.

    Returns (metrics, absent, idle): ``absent`` names metrics whose entry
    point is missing, which are left out; ``idle`` names rates whose layer
    never ran on this workload, reported as 0.
    """
    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []
    idle: list[str] = []

    def stat(span, key):
        return summary.get(span, {}).get(key, 0)

    def put(metric, unit, spans, compute, rate_of=None):
        if any(s in missing for s in spans):
            absent.append(metric)
            return
        if rate_of is not None and stat(rate_of, "calls") == 0:
            idle.append(metric)
            metrics[metric] = (0.0, unit)
            return
        metrics[metric] = (float(compute()), unit)

    def total(metric, *spans):
        put(metric, "s", spans, lambda: sum(stat(s, "s") for s in spans))

    def calls(metric, span):
        put(metric, "count", [span], lambda: stat(span, "calls"))

    def per_call(metric, span, key="s"):
        put(metric, "us", [span], lambda: 1e6 * stat(span, key) / stat(span, "calls"), span)

    def ratio(metric, span, unit="fraction", num="value", den="calls"):
        put(metric, unit, [span], lambda: stat(span, num) / stat(span, den), span)

    total("tagger.train.s", "tagger.train")
    ratio("tagger.train.tokens_per_s", "tagger.train", "tok/s", den="s")
    calls("tagger.predict.calls", "tagger.predict")
    total("tagger.predict.s", "tagger.predict")
    ratio("tagger.predict.tokens_per_s", "tagger.predict", "tok/s", den="s")
    total("tagger.read_conll.s", "tagger.read_conll")
    total("tagger.vectors.load_s", "tagger.sidecar_load", "tagger.attach_vectors")
    total("tagger.model_load_s", "tagger.model_load")
    total("tagger.model_save_s", "tagger.model_save")
    total("kb.load_snapshot.s", "kb.load_snapshot")
    ratio("kb.load_snapshot.records_per_s", "kb.load_snapshot", "records/s", den="s")
    calls("kb.narrow_candidates.calls", "kb.narrow_candidates")
    per_call("kb.narrow_candidates.us_per_call", "kb.narrow_candidates")
    calls("kb.subclass_closure.calls", "kb.subclass_closure")
    calls("kb.lookup.calls", "kb.lookup")
    per_call("kb.lookup.us_per_call", "kb.lookup")
    ratio("kb.lookup.hit_ratio", "kb.lookup")
    calls("linker.link_mention.calls", "linker.link_mention")
    per_call("linker.link_mention.self_us_per_call", "linker.link_mention", "self_s")
    calls("linker.cluster_to_subtype.calls", "linker.cluster_to_subtype")
    per_call("linker.cluster_to_subtype.us_per_call", "linker.cluster_to_subtype")
    ratio("linker.clustered_ratio", "linker.cluster_to_subtype")
    total("embeddings.load_embeddings.s", "embeddings.load_embeddings")
    calls("embeddings.phrase_similarity.calls", "embeddings.phrase_similarity")
    per_call("embeddings.phrase_similarity.us_per_call", "embeddings.phrase_similarity")
    ratio("embeddings.phrase_similarity.defined_ratio", "embeddings.phrase_similarity")
    total("taxonomy.load_hierarchy.s", "taxonomy.load_hierarchy")
    calls("evaluation.match_exact.calls", "evaluation.match_exact")
    per_call("evaluation.match_exact.us_per_call", "evaluation.match_exact")
    for stage in STAGES.values():
        put(f"cli.stage.{stage}.s", "s", ["cli.stage"],
            lambda stage=stage: stat(f"cli.stage.{stage}", "s"))
    total("cli.write.s", "cli.write_conll", "cli.write_linked", "cli.write_report")
    total("cli.read_linked.s", "cli.read_linked")
    return metrics, absent, idle
