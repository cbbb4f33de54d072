"""Command-line pipeline wiring ingestion, tagging, linking, and evaluation.

One flat key/value configuration file drives every stage; command-line flags
override individual fields. All randomness (parameter init, batch shuffling,
dropout) flows from the single ``seed`` key, so two runs with the same
configuration produce byte-identical outputs.

Exit codes: 0 success, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pickle
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .embeddings import EmbeddingError, EmbeddingTable, load_embeddings
from .evaluation import EvalError, MatchCounts, build_report, format_report, match_exact
from .kb import (
    KnowledgeBase,
    MissingClassRootsError,
    SnapshotError,
    format_qid,
    load_snapshot,
    parse_qid,
)
from .linker import FineTypedMention, LinkerConfig, link_mention, require_class_roots
from .tagger import (
    CorpusError,
    PrecomputedVectors,
    SequenceExample,
    StaticVectors,
    TaggerConfig,
    TaggerModel,
    TrainingError,
    attach_vectors,
    extract_spans,
    read_conll,
    train,
    write_conll,
)
from .taxonomy import HierarchyError, TypeHierarchy, load_hierarchy

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class ConfigError(ValueError):
    """Invalid or incomplete pipeline configuration."""


_VALIDATION_ERRORS = (
    ConfigError,
    HierarchyError,
    SnapshotError,
    EmbeddingError,
    CorpusError,
    EvalError,
    MissingClassRootsError,
)

_PATH_KEYS = {
    "hierarchy", "kb", "embeddings", "token_vectors", "corpus",
    "train_corpus", "model", "output_dir",
}
_TAGGER_KEYS = {
    "hidden_size", "embedding_dim", "dropout", "batch_size", "epochs",
    "learning_rate", "beta1", "beta2", "eps", "bidirectional",
}
_LINKER_KEYS = {"threshold", "similarity_mode"}
_OTHER_KEYS = {"seed", "granularity", "vector_source", "case_sensitive"}


@dataclasses.dataclass
class PipelineConfig:
    hierarchy: Path | None = None
    kb: Path | None = None
    embeddings: Path | None = None
    token_vectors: Path | None = None
    corpus: Path | None = None
    train_corpus: Path | None = None
    model: Path | None = None
    output_dir: Path = Path("out")
    seed: int = 13
    granularity: str = "fine"
    vector_source: str = "static"
    case_sensitive: bool = False
    tagger: TaggerConfig = dataclasses.field(default_factory=TaggerConfig)
    linker: LinkerConfig = dataclasses.field(default_factory=LinkerConfig)
    embedding_dim_fixed: bool = False


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` comments and blank lines ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not eq or not key:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        if key in values:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _parse_bool(key: str, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {value!r}")


def build_config(values: dict[str, str], base_dir: Path) -> PipelineConfig:
    """Typed configuration from raw key/value pairs; relative paths resolve
    against the config file's directory."""
    cfg = PipelineConfig()
    tagger_kwargs: dict = {}
    class_roots: dict[str, set[int]] = {}
    linker_kwargs: dict = {}
    for key, value in values.items():
        try:
            if key in _PATH_KEYS:
                setattr(cfg, key, (base_dir / value).resolve() if value else None)
            elif key == "seed":
                cfg.seed = int(value)
            elif key == "granularity":
                if value not in ("fine", "coarse"):
                    raise ConfigError(f"granularity must be 'fine' or 'coarse', got {value!r}")
                cfg.granularity = value
            elif key == "vector_source":
                if value not in ("static", "precomputed"):
                    raise ConfigError(
                        f"vector_source must be 'static' or 'precomputed', got {value!r}"
                    )
                cfg.vector_source = value
            elif key == "case_sensitive":
                cfg.case_sensitive = _parse_bool(key, value)
            elif key == "bidirectional":
                tagger_kwargs[key] = _parse_bool(key, value)
            elif key in ("hidden_size", "embedding_dim", "batch_size", "epochs"):
                tagger_kwargs[key] = int(value)
            elif key in _TAGGER_KEYS:
                tagger_kwargs[key] = float(value)
            elif key == "threshold":
                linker_kwargs["threshold"] = float(value)
            elif key == "similarity_mode":
                linker_kwargs["similarity_mode"] = value
            elif key.startswith("class_roots."):
                coarse = key.split(".", 1)[1]
                ids = {parse_qid(v) for v in value.replace(",", " ").split()}
                class_roots[coarse] = ids
            else:
                raise ConfigError(f"unknown configuration key: {key!r}")
        except (ValueError, SnapshotError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"key {key!r}: {exc}") from None
    cfg.embedding_dim_fixed = "embedding_dim" in tagger_kwargs
    tagger_kwargs.setdefault("seed", cfg.seed)
    try:
        cfg.tagger = TaggerConfig(**tagger_kwargs)
        cfg.linker = LinkerConfig(class_roots=class_roots, **linker_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def load_config(path: str | Path, overrides: dict[str, str] | None = None) -> PipelineConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values = parse_config_text(path.read_text(encoding="utf-8"))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        # flag paths are cwd-relative, unlike file values (config-relative)
        if key in _PATH_KEYS:
            value = Path(value).resolve()
        values[key] = str(value)
    return build_config(values, path.parent.resolve())


def _require_paths(cfg: PipelineConfig, keys: list[str]) -> None:
    """Fail before any work when a referenced input is missing."""
    problems = []
    for key in keys:
        value = getattr(cfg, key)
        if value is None:
            problems.append(f"{key} is not configured")
        elif not Path(value).is_file():
            problems.append(f"{key} does not exist: {value}")
    if problems:
        raise ConfigError("; ".join(problems))


@contextmanager
def _stage(name: str):
    try:
        yield
    except Exception:
        print(f"pipeline stage failed: {name}", file=sys.stderr)
        raise


# ---------------------------------------------------------------------------
# Shared pipeline pieces


def project_tags_to_coarse(tags: list[str], hierarchy: TypeHierarchy) -> list[str]:
    """Map fine BIO tags onto their coarse roots; labels outside the
    hierarchy (date, cardinal, ...) pass through unchanged."""
    projected = []
    for tag in tags:
        prefix, dash, label = tag.partition("-")
        if dash and label in hierarchy:
            projected.append(f"{prefix}-{hierarchy.coarse_of(label)}")
        else:
            projected.append(tag)
    return projected


def _project_label(label: str, hierarchy: TypeHierarchy) -> str:
    return str(hierarchy.coarse_of(label)) if label in hierarchy else label


def _make_provider(cfg: PipelineConfig, table: EmbeddingTable | None):
    if cfg.vector_source == "precomputed":
        if cfg.token_vectors is None:
            raise ConfigError("vector_source = precomputed requires token_vectors")
        return PrecomputedVectors.load(cfg.token_vectors)
    if cfg.token_vectors is not None:
        return StaticVectors(load_embeddings(cfg.token_vectors))
    if table is None:
        raise ConfigError("no token vector source: set token_vectors or embeddings")
    return StaticVectors(table)


def _reconcile_dim(cfg: PipelineConfig, provider) -> None:
    if cfg.embedding_dim_fixed and cfg.tagger.embedding_dim != provider.dim:
        raise ConfigError(
            f"embedding_dim is {cfg.tagger.embedding_dim} but the vector source"
            f" provides dimension {provider.dim}"
        )
    cfg.tagger = dataclasses.replace(cfg.tagger, embedding_dim=provider.dim)


def _train_model(cfg: PipelineConfig, hierarchy: TypeHierarchy, provider) -> TaggerModel:
    corpus_path = cfg.train_corpus or cfg.corpus
    corpus = read_conll(corpus_path)
    labeled = []
    for ex in corpus:
        if ex.gold_tags is None:
            raise TrainingError(f"training corpus {corpus_path} has untagged sentences")
        labeled.append(
            SequenceExample(ex.tokens, gold_tags=project_tags_to_coarse(ex.gold_tags, hierarchy))
        )
    labeled = attach_vectors(labeled, provider)
    return train(labeled, cfg.tagger)


def link_corpus(
    corpus: list[SequenceExample],
    tag_sequences: list[list[str]],
    kb: KnowledgeBase,
    hierarchy: TypeHierarchy,
    table: EmbeddingTable,
    linker_cfg: LinkerConfig,
) -> list[tuple[int, FineTypedMention]]:
    """Extract spans from per-sentence tags and link every mention."""
    linked: list[tuple[int, FineTypedMention]] = []
    for doc, (ex, tags) in enumerate(zip(corpus, tag_sequences)):
        for span in extract_spans(tags):
            linked.append((doc, link_mention(span, ex.tokens, kb, hierarchy, table, linker_cfg)))
    return linked


def write_linked(path: Path, corpus: list[SequenceExample],
                 linked: list[tuple[int, FineTypedMention]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc, mention in linked:
            span = mention.span
            record = {
                "doc": doc,
                "start": span.start,
                "end": span.end,
                "surface": " ".join(corpus[doc].tokens[span.start : span.end]),
                "coarse": str(span.coarse),
                "fine": str(mention.fine_type),
                "entity": format_qid(mention.entity) if mention.entity is not None else None,
                "score": mention.score,
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_linked(path: Path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise EvalError(f"{path} line {lineno}: invalid JSON: {exc}") from None
            for field in ("doc", "start", "end", "surface", "fine"):
                if field not in obj:
                    raise EvalError(f"{path} line {lineno}: missing field {field!r}")
            records.append(obj)
    return records


def evaluate_linked(
    records: list[dict],
    gold_corpus: list[SequenceExample],
    hierarchy: TypeHierarchy,
    granularity: str,
) -> MatchCounts:
    """Per-sentence exact matching of linked records against gold tags.

    Verifies the prediction file indexes the same tokenization as the gold
    corpus, reporting the first offending sentence.
    """
    pred_by_doc: dict[int, list[tuple[int, int, str]]] = {}
    for rec in sorted(records, key=lambda r: (r["doc"], r["start"], r["end"])):
        doc = int(rec["doc"])
        if doc < 0 or doc >= len(gold_corpus):
            raise EvalError(f"tokenization mismatch in sentence {doc}: no such gold sentence")
        tokens = gold_corpus[doc].tokens
        start, end = int(rec["start"]), int(rec["end"])
        if start < 0 or end > len(tokens) or start >= end:
            raise EvalError(
                f"tokenization mismatch in sentence {doc}: span [{start}, {end})"
                f" outside {len(tokens)} tokens"
            )
        surface = " ".join(tokens[start:end])
        if surface != rec["surface"]:
            raise EvalError(
                f"tokenization mismatch in sentence {doc}: prediction surface"
                f" {rec['surface']!r} != corpus text {surface!r}"
            )
        label = str(rec["fine"])
        if granularity == "coarse":
            label = _project_label(label, hierarchy)
        pred_by_doc.setdefault(doc, []).append((start, end, label))

    counts = MatchCounts()
    for doc, ex in enumerate(gold_corpus):
        if ex.gold_tags is None:
            raise EvalError(f"gold corpus sentence {doc} has no annotations")
        gold_tags = ex.gold_tags
        if granularity == "coarse":
            gold_tags = project_tags_to_coarse(gold_tags, hierarchy)
        gold_spans = [(s.start, s.end, str(s.coarse)) for s in extract_spans(gold_tags)]
        counts = counts + match_exact(pred_by_doc.get(doc, []), gold_spans)
    return counts


def _report_order(hierarchy: TypeHierarchy, granularity: str) -> list[str]:
    if granularity == "coarse":
        return [str(r) for r in hierarchy.roots]
    return [str(label) for label in hierarchy.labels()]


def _write_report(counts: MatchCounts, hierarchy: TypeHierarchy, granularity: str,
                  output_dir: Path) -> str:
    report = build_report(counts, order=_report_order(hierarchy, granularity))
    table = format_report(report)
    (output_dir / "report.txt").write_text(table + "\n", encoding="utf-8")
    payload = {"granularity": granularity, **report.to_dict()}
    (output_dir / "report.json").write_text(
        json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    return table


# ---------------------------------------------------------------------------
# Commands


def cmd_ingest_kb(args) -> int:
    snapshot = Path(args.snapshot)
    if not snapshot.is_file():
        raise ConfigError(f"snapshot does not exist: {snapshot}")
    kb = load_snapshot(snapshot, case_sensitive=args.case_sensitive)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "wb") as fh:
        pickle.dump(kb, fh, protocol=4)
    if len(kb) == 0:
        print("warning: snapshot is empty; wrote an empty knowledge base", file=sys.stderr)
    print(
        f"ingest: {len(kb)} records, {kb.label_index_size} label keys,"
        f" {kb.alias_index_size} alias keys -> {out}"
    )
    return EXIT_OK


def _overrides_from(args, keys: list[str]) -> dict[str, str]:
    return {key: getattr(args, key.replace("-", "_")) for key in keys
            if getattr(args, key.replace("-", "_"), None) is not None}


_COMMON_OVERRIDES = ["output_dir", "seed", "corpus", "model", "granularity",
                     "threshold", "epochs"]


def cmd_train(args) -> int:
    cfg = load_config(args.config, _overrides_from(args, _COMMON_OVERRIDES))
    _require_paths(cfg, ["hierarchy", "corpus"])
    hierarchy = load_hierarchy(cfg.hierarchy)
    table = load_embeddings(cfg.embeddings) if cfg.embeddings else None
    provider = _make_provider(cfg, table)
    _reconcile_dim(cfg, provider)
    model = _train_model(cfg, hierarchy, provider)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    model_path = cfg.model or (cfg.output_dir / "model.pkl")
    model.save(model_path)
    print(f"train: {cfg.tagger.epochs} epochs, final loss {model.final_loss:.6f} -> {model_path}")
    return EXIT_OK


def cmd_tag(args) -> int:
    cfg = load_config(args.config, _overrides_from(args, _COMMON_OVERRIDES))
    _require_paths(cfg, ["corpus", "model"])
    model = TaggerModel.load(cfg.model)
    corpus = read_conll(cfg.corpus)
    table = load_embeddings(cfg.embeddings) if cfg.embeddings else None
    provider = _make_provider(cfg, table)
    if provider.dim != model.config.embedding_dim:
        raise ConfigError(
            f"model expects {model.config.embedding_dim}-dimensional vectors,"
            f" source provides {provider.dim}"
        )
    corpus = attach_vectors(corpus, provider)
    tag_sequences = model.predict_batch([ex.vectors for ex in corpus])
    tagged = [SequenceExample(ex.tokens, gold_tags=tags) for ex, tags in zip(corpus, tag_sequences)]
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out = cfg.output_dir / "tagged.conll"
    write_conll(out, tagged)
    print(f"tag: {len(tagged)} sentences -> {out}")
    return EXIT_OK


def cmd_link(args) -> int:
    cfg = load_config(args.config, _overrides_from(args, _COMMON_OVERRIDES))
    _require_paths(cfg, ["hierarchy", "kb", "embeddings"])
    tagged_path = Path(args.tagged) if args.tagged else cfg.output_dir / "tagged.conll"
    if not tagged_path.is_file():
        raise ConfigError(f"tagged corpus does not exist: {tagged_path}")
    hierarchy = load_hierarchy(cfg.hierarchy)
    require_class_roots(hierarchy, cfg.linker)
    kb = load_snapshot(cfg.kb, case_sensitive=cfg.case_sensitive)
    table = load_embeddings(cfg.embeddings)
    corpus = read_conll(tagged_path)
    tag_sequences = [ex.gold_tags or ["O"] * len(ex.tokens) for ex in corpus]
    linked = link_corpus(corpus, tag_sequences, kb, hierarchy, table, cfg.linker)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out = cfg.output_dir / "linked.jsonl"
    write_linked(out, corpus, linked)
    print(f"link: {len(linked)} mentions -> {out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config, _overrides_from(args, _COMMON_OVERRIDES))
    _require_paths(cfg, ["hierarchy"])
    pred_path = Path(args.pred) if args.pred else cfg.output_dir / "linked.jsonl"
    gold_path = Path(args.gold) if args.gold else cfg.corpus
    if not pred_path.is_file():
        raise ConfigError(f"prediction file does not exist: {pred_path}")
    if gold_path is None or not Path(gold_path).is_file():
        raise ConfigError(f"gold corpus does not exist: {gold_path}")
    hierarchy = load_hierarchy(cfg.hierarchy)
    gold_corpus = read_conll(gold_path)
    records = read_linked(pred_path)
    counts = evaluate_linked(records, gold_corpus, hierarchy, cfg.granularity)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    table = _write_report(counts, hierarchy, cfg.granularity, cfg.output_dir)
    print(table)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    cfg = load_config(args.config, _overrides_from(args, _COMMON_OVERRIDES))
    _require_paths(cfg, ["hierarchy", "kb", "embeddings", "corpus"])
    cfg.output_dir.mkdir(parents=True, exist_ok=True)

    with _stage("load inputs"):
        hierarchy = load_hierarchy(cfg.hierarchy)
        require_class_roots(hierarchy, cfg.linker)
        kb = load_snapshot(cfg.kb, case_sensitive=cfg.case_sensitive)
        table = load_embeddings(cfg.embeddings)
        provider = _make_provider(cfg, table)
        _reconcile_dim(cfg, provider)
        corpus = attach_vectors(read_conll(cfg.corpus), provider)
    has_gold = all(ex.gold_tags is not None for ex in corpus)

    with _stage("train tagger"):
        if cfg.model is not None:
            if not Path(cfg.model).is_file():
                raise ConfigError(f"model does not exist: {cfg.model}")
            model = TaggerModel.load(cfg.model)
        else:
            if not has_gold:
                raise ConfigError(
                    "corpus has no gold tags: supply a trained model via 'model ='"
                )
            model = _train_model(cfg, hierarchy, provider)
            model.save(cfg.output_dir / "model.pkl")
            print(f"train: final loss {model.final_loss:.6f}")

    with _stage("tag corpus"):
        tag_sequences = model.predict_batch([ex.vectors for ex in corpus])
        write_conll(
            cfg.output_dir / "tagged.conll",
            [SequenceExample(ex.tokens, gold_tags=tags)
             for ex, tags in zip(corpus, tag_sequences)],
        )
        mention_total = sum(len(extract_spans(tags)) for tags in tag_sequences)
        print(f"tag: {len(corpus)} sentences, {mention_total} mentions")

    with _stage("link mentions"):
        linked = link_corpus(corpus, tag_sequences, kb, hierarchy, table, cfg.linker)
        write_linked(cfg.output_dir / "linked.jsonl", corpus, linked)
        resolved = sum(1 for _, m in linked if m.entity is not None)
        print(f"link: {len(linked)} mentions, {resolved} resolved to entities")

    if not has_gold:
        print("warning: corpus has no gold annotations; skipping evaluation", file=sys.stderr)
        return EXIT_OK

    with _stage("evaluate"):
        records = read_linked(cfg.output_dir / "linked.jsonl")
        counts = evaluate_linked(records, corpus, hierarchy, cfg.granularity)
        table_text = _write_report(counts, hierarchy, cfg.granularity, cfg.output_dir)
        print(table_text)
    return EXIT_OK


def cmd_demo_config(args) -> int:
    print(Path(__file__).parent / "data" / "demo" / "pipeline.cfg")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finetype",
        description="Fine-grained entity typing: tag, link, cluster, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-kb", help="validate and index a KB snapshot")
    p.add_argument("snapshot", help="newline-delimited JSON snapshot")
    p.add_argument("out", help="output path for the indexed artifact")
    p.add_argument("--case-sensitive", action="store_true")
    p.set_defaults(func=cmd_ingest_kb)

    def common(p):
        p.add_argument("--config", required=True, help="flat key/value configuration file")
        p.add_argument("--output-dir", dest="output_dir")
        p.add_argument("--seed", type=int)
        p.add_argument("--corpus")
        p.add_argument("--model")
        p.add_argument("--granularity", choices=["fine", "coarse"])
        p.add_argument("--threshold", type=float)
        p.add_argument("--epochs", type=int)

    p = sub.add_parser("train", help="train the coarse tagger")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="tag a corpus with a trained model")
    common(p)
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("link", help="link mentions in a tagged corpus")
    common(p)
    p.add_argument("--tagged", help="tagged corpus (default: <output_dir>/tagged.conll)")
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("evaluate", help="score a linked output against gold annotations")
    common(p)
    p.add_argument("--pred", help="linked output (default: <output_dir>/linked.jsonl)")
    p.add_argument("--gold", help="gold corpus (default: the configured corpus)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="run tag -> link -> evaluate end to end")
    common(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("demo-config", help="print the packaged demo configuration path")
    p.set_defaults(func=cmd_demo_config)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
