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
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable

from . import __version__
from .embeddings import EmbeddingError, load_embeddings
from .evaluation import Counts, EvalError, build_report, format_report, match_exact
from .kb import (
    NARROWED_CATEGORIES,
    KnowledgeBase,
    MissingClassRootsError,
    SnapshotError,
    format_qid,
    load_snapshot,
    parse_qid,
)
from .linker import FineTypedMention, Linker, LinkerConfig, link_mention
from .tagger import (
    CorpusError,
    ModelError,
    PrecomputedVectors,
    SequenceExample,
    StaticVectors,
    TaggerConfig,
    TaggerModel,
    attach_vectors,
    extract_spans,
    read_conll,
    train,
    write_conll,
)
from .taxonomy import HierarchyError, TypeHierarchy, load_hierarchy
from .textfile import decode_json_line, open_utf8

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
    ModelError,
)

_PATH_KEYS = {
    "hierarchy", "kb", "embeddings", "token_vectors", "corpus",
    "train_corpus", "model", "output_dir",
}
_CHOICES = {"granularity": ("fine", "coarse"), "vector_source": ("static", "precomputed")}


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
    tagger: TaggerConfig = dataclasses.field(default_factory=TaggerConfig)
    linker: LinkerConfig = dataclasses.field(default_factory=LinkerConfig)


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
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
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
                if not value:
                    raise ConfigError(f"key {key!r}: expected a path, got an empty value")
                setattr(cfg, key, (base_dir / value).resolve())
            elif key == "seed":
                cfg.seed = int(value)
            elif key in _CHOICES:
                if value not in _CHOICES[key]:
                    raise ConfigError(f"key {key!r}: expected one of"
                                      f" {', '.join(map(repr, _CHOICES[key]))}, got {value!r}")
                setattr(cfg, key, value)
            elif key == "bidirectional":
                tagger_kwargs[key] = _parse_bool(key, value)
            elif key in ("hidden_size", "batch_size", "epochs"):
                tagger_kwargs[key] = int(value)
            elif key in ("dropout", "learning_rate"):
                tagger_kwargs[key] = float(value)
            elif key == "threshold":
                linker_kwargs["threshold"] = float(value)
            elif key == "similarity_mode":  # one value, accepted so existing configurations load
                if value != "pairwise-mean":
                    raise ValueError(f"expected 'pairwise-mean', got {value!r}")
            elif key.startswith("class_roots."):
                coarse = key.split(".", 1)[1]
                if coarse not in NARROWED_CATEGORIES:
                    raise ValueError(f"{coarse!r} is not one of {sorted(NARROWED_CATEGORIES)}")
                class_roots[coarse] = {parse_qid(v) for v in value.replace(",", " ").split()}
            else:
                raise ConfigError(f"unknown configuration key: {key!r}")
        except (ValueError, SnapshotError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"key {key!r}: {exc}") from None
    tagger_kwargs.setdefault("seed", cfg.seed)
    try:
        cfg.tagger = TaggerConfig(**tagger_kwargs)
        cfg.linker = LinkerConfig(class_roots=class_roots, **linker_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def load_config(path: str | Path | None,
                overrides: dict[str, str] | None = None) -> PipelineConfig:
    """The configuration in ``path`` (the defaults when None) with overrides applied."""
    values: dict[str, str] = {}
    base_dir = Path.cwd()
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        with open_utf8(path, ConfigError) as fh:
            values = parse_config_text(fh.read())
        base_dir = path.parent.resolve()
    for key, value in (overrides or {}).items():
        # flag paths are cwd-relative, unlike file values (config-relative);
        # an empty one stays empty, so build_config rejects it
        if key in _PATH_KEYS and value:
            value = Path(value).resolve()
        values[key] = str(value)
    return build_config(values, base_dir)


@contextmanager
def _stage(name: str):
    """Name the failing step on stderr; steps look it up at run time, so it can be wrapped."""
    try:
        yield
    except Exception:
        print(f"stage failed: {name}", file=sys.stderr)
        raise


# ---------------------------------------------------------------------------
# Loading


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


def _output_dir(cfg: PipelineConfig) -> Path:
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    return cfg.output_dir


# Configuration keys that every command's flags of the same name override;
# ingest-kb's SNAPSHOT overrides kb.
_FLAG_KEYS = ["output_dir", "seed", "corpus", "model", "granularity", "threshold", "epochs"]


@dataclasses.dataclass
class Inputs:
    """A command's configuration and the inputs it reads; what the command
    does not need stays None."""

    cfg: PipelineConfig
    hierarchy: TypeHierarchy | None = None
    kb: KnowledgeBase | None = None
    linker: Linker | None = None
    corpus: list[SequenceExample] | None = None
    training: list[SequenceExample] | None = None
    model: TaggerModel | None = None
    pred: Path | None = None


def load_inputs(args, keys: set[str]) -> Inputs:
    """Load the configuration and the inputs named by ``keys``.

    ``hierarchy``, ``kb``, ``embeddings`` (the linker's table) and ``corpus``
    are the configured files, and given all of the first three the linker is
    built from them; ``tagged`` reads ``--tagged`` (default
    ``<output_dir>/tagged.conll``) as the corpus; ``pred`` is ``--pred``
    (default ``<output_dir>/linked.jsonl``), checked here and read by
    ``evaluate_linked``. ``gold`` requires gold tags on every corpus
    sentence, as scoring does; without ``pred`` a corpus with none passes too
    (``pipeline`` then skips scoring). ``output_dir`` checks that the output
    directory is one or can be made. ``model`` loads the configured model and
    ``train`` builds a coarse-tagged training set from ``train_corpus``
    (default: the corpus, read once for both); given both, a configured model
    is used and nothing is trained. With either, vectors from ``token_vectors`` are
    attached to the sentences read: a table, or under ``vector_source =
    precomputed`` a sidecar.

    Every path is checked before the "load inputs" stage opens; every
    condition spanning inputs (class roots for the linker, the vector
    dimension, the parameter cap at that dimension, the sidecar's sentence
    count, a nonempty training set with gold tags, a gold corpus tagged
    throughout) is checked inside it, before any command does work.
    """
    overrides = {key: getattr(args, key) for key in (*_FLAG_KEYS, "kb")
                 if getattr(args, key, None) is not None}
    cfg = load_config(getattr(args, "config", None), overrides)
    use_model = "model" in keys and (cfg.model is not None or "train" not in keys)
    training = "train" in keys and not use_model
    paths = {key: getattr(cfg, key) for key in ("hierarchy", "kb", "embeddings", "corpus")
             if key in keys}
    for key, default in (("tagged", "tagged.conll"), ("pred", "linked.jsonl")):
        if key in keys:
            flag = getattr(args, key)
            paths[key] = Path(flag) if flag else cfg.output_dir / default
    if use_model:
        paths["model"] = cfg.model
    if training:
        paths["train_corpus" if cfg.train_corpus else "corpus"] = cfg.train_corpus or cfg.corpus
    vectors = use_model or training
    if vectors:
        paths["token_vectors"] = cfg.token_vectors
    problems = [f"{key} is not configured" if path is None else f"{key} does not exist: {path}"
                for key, path in paths.items() if path is None or not Path(path).is_file()]
    if "output_dir" in keys:  # steps create it when they first write; a file there would fail
        existing = next(p for p in (cfg.output_dir, *cfg.output_dir.parents) if p.exists())
        if not existing.is_dir():
            problems.append(f"output_dir is not a directory: {existing}")
    if problems:
        raise ConfigError("; ".join(problems))

    inputs = Inputs(cfg, pred=paths.get("pred"))
    with _stage("load inputs"):
        if "hierarchy" in keys:
            inputs.hierarchy = load_hierarchy(cfg.hierarchy)
        if "kb" in keys:
            inputs.kb = load_snapshot(cfg.kb)
        if {"hierarchy", "kb", "embeddings"} <= keys:
            inputs.linker = Linker(inputs.kb, inputs.hierarchy, load_embeddings(cfg.embeddings),
                                   cfg.linker)
        if vectors:
            if cfg.vector_source == "precomputed":
                provider = PrecomputedVectors.load(cfg.token_vectors)
            else:
                provider = StaticVectors(load_embeddings(cfg.token_vectors))
            if use_model:
                inputs.model = TaggerModel.load(cfg.model)
                _check_coarse_tags(cfg.model, inputs.model.tags, inputs.hierarchy, ModelError)
                dim = inputs.model.config.embedding_dim
                if dim != provider.dim:
                    raise ConfigError(f"model {cfg.model} expects {dim}-dimensional vectors but"
                                      f" the vector source provides dimension {provider.dim}")
            else:
                try:  # the parameter cap, checked at the vectors' width
                    cfg.tagger = dataclasses.replace(cfg.tagger, embedding_dim=provider.dim)
                except ValueError as exc:
                    raise ConfigError(f"key 'hidden_size': with the {provider.dim}-dimensional"
                                      f" vectors in {cfg.token_vectors}, {exc}") from None
        if "corpus" in keys or "tagged" in keys:
            source = paths.get("tagged", cfg.corpus)
            inputs.corpus = read_conll(source)
            if "tagged" in keys:  # linked as a model's output, so with a model's labels
                tags = dict.fromkeys(tag for ex in inputs.corpus for tag in ex.gold_tags or ())
                _check_coarse_tags(source, tags, inputs.hierarchy, CorpusError)
            if "gold" in keys:  # pipeline does not score a wholly untagged corpus
                untagged = [doc for doc, ex in enumerate(inputs.corpus) if ex.gold_tags is None]
                if untagged and ("pred" in keys or len(untagged) < len(inputs.corpus)):
                    raise CorpusError(f"{source}: sentence {untagged[0]} has no gold tags;"
                                      " evaluation needs them on every sentence")
            if vectors:
                inputs.corpus = _with_vectors(inputs.corpus, source, provider, cfg.token_vectors)
        if training:
            source = cfg.train_corpus or cfg.corpus
            if cfg.train_corpus is None and "corpus" in keys:
                examples = inputs.corpus
            else:
                examples = _with_vectors(read_conll(source), source, provider, cfg.token_vectors)
            if not examples:
                raise ConfigError(f"training corpus {source} has no sentences")
            if any(ex.gold_tags is None for ex in examples):
                raise ConfigError(f"training corpus {source} has untagged sentences:"
                                  " supply a trained model via 'model ='")
            inputs.training = [
                dataclasses.replace(ex, gold_tags=project_tags_to_coarse(ex.gold_tags,
                                                                         inputs.hierarchy))
                for ex in examples
            ]
    return inputs


def _check_coarse_tags(path: Path, tags: Iterable[str], hierarchy: TypeHierarchy | None,
                       error: type[Exception]) -> None:
    """Raise ``error`` naming ``path`` and the first of ``tags`` that is not O,
    or B-/I- over a hierarchy root or over a label outside the hierarchy."""
    try:
        for tag in tags:
            extract_spans([tag])
            if hierarchy and project_tags_to_coarse([tag], hierarchy) != [tag]:
                raise ValueError(f"tag {tag!r} is not over a hierarchy root")
    except ValueError as exc:
        raise error(f"{path}: {exc}") from None


def _with_vectors(examples: list[SequenceExample], path: Path, provider,
                  vectors_path: Path) -> list[SequenceExample]:
    """``attach_vectors`` for the corpus read from ``path``; an error names the
    vector file ``vectors_path``, and a sentence count mismatch the corpus too."""
    try:
        return attach_vectors(examples, provider, f"the corpus {path}")
    except CorpusError as exc:
        raise CorpusError(f"{vectors_path}: {exc}") from None


# ---------------------------------------------------------------------------
# Steps: each runs on loaded inputs in its own stage and writes its output file


def train_tagger(inputs: Inputs) -> TaggerModel:
    """Train on the loaded training set; save to ``model`` or ``<output_dir>/model.npz``."""
    with _stage("train tagger"):
        cfg = inputs.cfg
        model = train(inputs.training, cfg.tagger)
        path = cfg.model or _output_dir(cfg) / "model.npz"
        model.save(path)
        loss = "none" if model.final_loss is None else f"{model.final_loss:.6f}"
        print(f"train: {cfg.tagger.epochs} epochs, final loss {loss} -> {path}")
        return model


def tag_corpus(inputs: Inputs) -> list[SequenceExample]:
    """Tag the loaded corpus with the model; write and return ``tagged.conll``'s sentences."""
    with _stage("tag corpus"):
        tag_sequences = inputs.model.predict_batch([ex.vectors for ex in inputs.corpus])
        tagged = [SequenceExample(ex.tokens, gold_tags=tags)
                  for ex, tags in zip(inputs.corpus, tag_sequences)]
        out = _output_dir(inputs.cfg) / "tagged.conll"
        write_conll(out, tagged)
        mention_total = sum(len(extract_spans(tags)) for tags in tag_sequences)
        print(f"tag: {len(tagged)} sentences, {mention_total} mentions -> {out}")
        return tagged


def link_mentions(inputs: Inputs, tagged: list[SequenceExample]) -> Path:
    """Link every mention tagged in ``tagged``; write ``linked.jsonl`` and return its path."""
    with _stage("link mentions"):
        linked = [(doc, link_mention(inputs.linker, span, ex.tokens))
                  for doc, ex in enumerate(tagged) for span in extract_spans(ex.gold_tags or [])]
        out = _output_dir(inputs.cfg) / "linked.jsonl"
        write_linked(out, tagged, linked)
        resolved = sum(1 for _, m in linked if m.entity is not None)
        print(f"link: {len(linked)} mentions, {resolved} resolved to entities -> {out}")
        return out


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


_LINKED_FIELDS = {"doc": int, "start": int, "end": int, "surface": str, "fine": str}


def read_linked(path: Path) -> list[tuple[int, dict]]:
    """The records of a ``linked.jsonl`` file with their line numbers; each
    line must be a JSON object whose ``doc``, ``start`` and ``end`` are
    integers and whose ``surface`` and ``fine`` are strings."""
    records = []
    with open_utf8(path, EvalError) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = decode_json_line(line, EvalError)
                if not isinstance(obj, dict):
                    raise EvalError("record is not a JSON object")
                for field, kind in _LINKED_FIELDS.items():
                    if field not in obj:
                        raise EvalError(f"missing field {field!r}")
                    if not isinstance(obj[field], kind) or isinstance(obj[field], bool):
                        raise EvalError(f"field {field!r} must be"
                                        f" {'an integer' if kind is int else 'a string'}")
            except EvalError as exc:
                raise EvalError(f"line {lineno}: {exc}") from None
            records.append((lineno, obj))
    return records


def evaluate_linked(inputs: Inputs, pred: Path) -> None:
    """Score the linked records in ``pred`` against the loaded gold corpus by
    exact matching of (sentence, start, end, label) spans; write and print
    the report.

    Checks the records in file order against the gold corpus's tokenization;
    an error names ``pred`` and the line of the first offending record.
    """
    with _stage("evaluate"):
        gold_corpus, hierarchy = inputs.corpus, inputs.hierarchy
        coarse = inputs.cfg.granularity == "coarse"
        pred_spans: dict[tuple[int, int, int, str], int] = {}  # span -> line
        for lineno, rec in read_linked(pred):
            doc, start, end = rec["doc"], rec["start"], rec["end"]
            where = f"{pred}: line {lineno}: tokenization mismatch in sentence {doc}"
            if doc < 0 or doc >= len(gold_corpus):
                raise EvalError(f"{where}: no such gold sentence")
            tokens = gold_corpus[doc].tokens
            if start < 0 or end > len(tokens) or start >= end:
                raise EvalError(f"{where}: span [{start}, {end}) outside {len(tokens)} tokens")
            surface = " ".join(tokens[start:end])
            if surface != rec["surface"]:
                raise EvalError(f"{where}: prediction surface {rec['surface']!r}"
                                f" != corpus text {surface!r}")
            label = rec["fine"]
            if coarse and label in hierarchy:
                label = str(hierarchy.coarse_of(label))
            span = (doc, start, end, label)
            if span in pred_spans:
                raise EvalError(f"{pred}: line {lineno}: duplicate predicted span: {span},"
                                f" first on line {pred_spans[span]}")
            pred_spans[span] = lineno
        gold_spans = [
            (doc, s.start, s.end, str(s.coarse))
            for doc, ex in enumerate(gold_corpus)
            for s in extract_spans(project_tags_to_coarse(ex.gold_tags, hierarchy)
                                   if coarse else ex.gold_tags)
        ]
        counts = match_exact(pred_spans, gold_spans)
        print(_write_report(counts, hierarchy, inputs.cfg.granularity, _output_dir(inputs.cfg)))


def _report_order(hierarchy: TypeHierarchy, granularity: str) -> list[str]:
    if granularity == "coarse":
        return [str(r) for r in hierarchy.roots]
    return [str(label) for label in hierarchy.labels()]


def _write_report(counts: dict[str, Counts], hierarchy: TypeHierarchy, granularity: str,
                  output_dir: Path) -> str:
    report = build_report(counts, order=_report_order(hierarchy, granularity))
    table = format_report(report)
    (output_dir / "report.txt").write_text(table + "\n", encoding="utf-8")
    payload = {"granularity": granularity, **report}
    (output_dir / "report.json").write_text(
        json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    return table


# ---------------------------------------------------------------------------
# Commands


def cmd_ingest_kb(args) -> None:
    kb = load_inputs(args, {"kb"}).kb
    if len(kb) == 0:
        print("warning: snapshot is empty", file=sys.stderr)
    print(f"ingest: {len(kb)} records, {kb.label_index_size} label keys,"
          f" {kb.alias_index_size} alias keys")


def cmd_train(args) -> None:
    train_tagger(load_inputs(args, {"hierarchy", "train", "output_dir"}))


def cmd_tag(args) -> None:
    tag_corpus(load_inputs(args, {"hierarchy", "corpus", "model", "output_dir"}))


def cmd_link(args) -> None:
    inputs = load_inputs(args, {"hierarchy", "kb", "embeddings", "tagged", "output_dir"})
    link_mentions(inputs, inputs.corpus)


def cmd_evaluate(args) -> None:
    inputs = load_inputs(args, {"hierarchy", "corpus", "gold", "pred", "output_dir"})
    evaluate_linked(inputs, inputs.pred)


def cmd_pipeline(args) -> None:
    inputs = load_inputs(args, {"hierarchy", "kb", "embeddings", "corpus", "gold", "model",
                                "train", "output_dir"})
    if inputs.model is None:
        inputs.model = train_tagger(inputs)
    linked = link_mentions(inputs, tag_corpus(inputs))
    if any(ex.gold_tags is None for ex in inputs.corpus):
        print("warning: corpus has no gold annotations; skipping evaluation", file=sys.stderr)
        return
    evaluate_linked(inputs, linked)


def cmd_demo_config(args) -> None:
    print(Path(__file__).parent / "data" / "demo" / "pipeline.cfg")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finetype",
        description="Fine-grained entity typing: tag, link, cluster, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-kb", help="validate and summarize a KB snapshot")
    p.add_argument("kb", metavar="SNAPSHOT", help="newline-delimited JSON snapshot")
    p.set_defaults(func=cmd_ingest_kb)

    def command(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="flat key/value configuration file")
        for key in _FLAG_KEYS:  # values are checked by build_config, like the file's
            p.add_argument("--" + key.replace("_", "-"))
        p.set_defaults(func=func)
        return p

    command("train", cmd_train, "train the coarse tagger")
    command("tag", cmd_tag, "tag a corpus with a trained model")
    p = command("link", cmd_link, "link mentions in a tagged corpus")
    p.add_argument("--tagged", help="tagged corpus (default: <output_dir>/tagged.conll)")
    p = command("evaluate", cmd_evaluate, "score a linked output against gold annotations")
    p.add_argument("--pred", help="linked output (default: <output_dir>/linked.jsonl)")
    p.add_argument("--gold", dest="corpus", metavar="GOLD",
                   help="gold corpus (default: the configured corpus)")
    command("pipeline", cmd_pipeline, "run tag -> link -> evaluate end to end")

    p = sub.add_parser("demo-config", help="print the packaged demo configuration path")
    p.set_defaults(func=cmd_demo_config)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION if isinstance(exc, _VALIDATION_ERRORS) else EXIT_RUNTIME
    return EXIT_OK


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
