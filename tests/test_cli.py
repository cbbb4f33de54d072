import contextlib
import io
import json
import math
import random
import re
import shlex
import tempfile
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finetype import cli, tagger
from finetype.cli import (
    ConfigError,
    build_config,
    load_config,
    main,
    parse_config_text,
    project_tags_to_coarse,
)
from finetype.tagger import TaggerConfig, TaggerModel, _streamed_logits, init_params, read_conll
from finetype.taxonomy import parse_hierarchy
from finetype.textfile import open_utf8

from conftest import (DATA_DIR, DEMO_DIR, demo_sidecar_sentences, generated, rational_prf,
                      sidecar_text)


class Base(NamedTuple):
    """A run that twins must reproduce: its config, its output directory,
    what ``ingest-kb`` prints for its KB and the model it tagged with."""
    config: Path
    out: Path
    summary: str
    model: Path


def base_run(config, out):
    """The ``Base`` of ``pipeline`` run on ``config`` into ``out``: it trains
    ``{out}/model.npz`` unless ``config`` supplies a model."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["pipeline", "--config", str(config), "--output-dir", str(out)]) == 0
    cfg = load_config(config)
    with contextlib.redirect_stdout(io.StringIO()) as summary:
        assert main(["ingest-kb", str(cfg.kb)]) == 0
    return Base(config, out, summary.getvalue(), cfg.model or out / "model.npz")


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory, demo_config_path):
    """One shared demo pipeline run, also the twins' first base."""
    return base_run(demo_config_path, tmp_path_factory.mktemp("pipeline"))


@pytest.fixture(scope="module")
def train_tag_run(tmp_path_factory):
    """The train-tag workload's inputs, run as the benchmark runs them: the
    twins' second base."""
    files = generated("train-tag", tmp_path_factory.mktemp("inputs"))
    return base_run(files["config"], tmp_path_factory.mktemp("train-tag"))


@pytest.fixture(scope="module")
def infer_contextual_run(tmp_path_factory):
    """The infer-contextual workload's inputs, with its supplied bidirectional
    model trained as the benchmark trains it before timing: the twins' third
    base."""
    files = generated("infer-contextual", tmp_path_factory.mktemp("inputs"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", str(files["train_config"]), "--model",
                     str(files["model"]), "--output-dir",
                     str(tmp_path_factory.mktemp("model-train"))]) == 0
    return base_run(files["config"], tmp_path_factory.mktemp("infer-contextual"))


# --- config parsing ------------------------------------------------------------

def test_parse_config_text_basics():
    values = parse_config_text("a = 1\n# comment\n\nb = two words  # trailing\n")
    assert values == {"a": "1", "b": "two words"}


def test_build_config_types_and_relative_paths(tmp_path):
    values = {
        "hierarchy": "types.txt",
        "seed": "99",
        "threshold": "0.25",
        "hidden_size": "8",
        "bidirectional": "true",
        "class_roots.person": "Q5, Q42",
        "granularity": "coarse",
    }
    cfg = build_config(values, tmp_path)
    assert cfg.hierarchy == (tmp_path / "types.txt").resolve()
    assert cfg.seed == 99 and cfg.tagger.seed == 99
    assert cfg.linker.threshold == 0.25
    assert cfg.tagger.hidden_size == 8 and cfg.tagger.bidirectional
    assert cfg.linker.class_roots["person"] == {5, 42}
    assert cfg.granularity == "coarse"


# Config faults, and the text each is reported with: no file, a line that is
# not a pair, a key twice, an unknown key, or a value its key refuses.
CONFIG_ERRORS = [
    (None, "not found"),
    ("a = 1\nnot a pair\n", "line 2"),
    ("a = 1\na = 2\n", "duplicate"),
    ("frobnicate = yes", "unknown configuration key"),
    ("seed = lots", "'seed'"),
    ("granularity = medium", "granularity"),
    # class roots only for a category that is narrowed
    *((f"{key} = Q1", re.escape(
        f"key {key!r}: {key[12:]!r} is not one of ['location', 'organization', 'person']"))
      for key in ("class_roots.persn", "class_roots.product", "class_roots.")),
    *((f"{key} = {value}", key) for key, value in [
        ("seed", "-1"), ("learning_rate", "nan"), ("learning_rate", "inf"),
        ("learning_rate", "-inf"), ("learning_rate", "-0.5"),
        ("hidden_size", "99999999999999999999"), ("hidden_size", "6000")]),
]


@pytest.mark.parametrize("text, message", CONFIG_ERRORS)
def test_config_error_text(tmp_path, text, message):
    path = tmp_path / "edited.cfg"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_build_config_accepts_the_papers_tagger_size():
    # the vector width comes from the vectors, so the paper's 1024-d input is set here
    cfg = TaggerConfig(hidden_size=512, embedding_dim=1024, bidirectional=True)
    assert cfg.encoder_width == 1024


def test_flag_overrides_config(demo_config_path):
    cfg = load_config(demo_config_path, {"seed": "123", "threshold": "0.4"})
    assert cfg.seed == 123
    assert cfg.linker.threshold == 0.4


def test_flag_paths_resolve_against_cwd(tmp_path, demo_config_path, monkeypatch):
    # config-file paths are config-relative, but flag paths follow the caller
    monkeypatch.chdir(tmp_path)
    cfg = load_config(demo_config_path, {"output_dir": "here"})
    assert cfg.output_dir == tmp_path / "here"
    assert cfg.corpus == (demo_config_path.parent / "corpus.conll").resolve()


def test_project_tags_to_coarse():
    h = parse_hierarchy(["person", "person.artist"])
    tags = ["B-person.artist", "I-person.artist", "O", "B-date", "B-person"]
    assert project_tags_to_coarse(tags, h) == [
        "B-person", "I-person", "O", "B-date", "B-person"
    ]


def edited_config(config, edits):
    """``config``'s text with its path keys made absolute, so that a copy
    may live elsewhere, and each of ``edits`` applied by ``set_key``."""
    lines = []
    for line in Path(config).read_text().splitlines():
        key, _, value = (part.strip() for part in line.partition("="))
        if key in ("hierarchy", "kb", "embeddings", "token_vectors", "corpus"):
            line = f"{key} = {(Path(config).parent / value).resolve()}"
        lines.append(line)
    text = "\n".join(lines) + "\n"
    for key, value in edits.items():
        text = set_key(text, key, value)
    return text


def set_key(text, key, value):
    """Config text with ``key`` set to ``value``: its line replaced, or one
    appended; with None, its line deleted."""
    line = "" if value is None else f"{key} = {value}\n"
    edited, count = re.subn(rf"^{re.escape(key)} =.*\n", lambda _: line, text, flags=re.M)
    return edited if count or value is None else text + line


# --- ingest-kb -------------------------------------------------------------------

def test_ingest_kb_summary(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["ingest-kb", str(DEMO_DIR / "snapshot.jsonl")])
    assert code == 0
    assert capsys.readouterr().out == "ingest: 30 records, 28 label keys, 28 alias keys\n"
    assert not any(tmp_path.iterdir())


def test_ingest_kb_empty_snapshot_warns(tmp_path, capsys, monkeypatch):
    snapshot = tmp_path / "empty.jsonl"
    snapshot.write_text("")
    monkeypatch.chdir(tmp_path)
    code = main(["ingest-kb", str(snapshot)])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["empty.jsonl"]


# --- pipeline ----------------------------------------------------------------------

def test_pipeline_demo_report_is_perfect(demo_run):
    report = json.loads((demo_run.out / "report.json").read_text())
    assert report["granularity"] == "fine"
    assert report["micro_f1"] == 1.0
    assert report["macro_f1"] == 1.0
    assert report["per_class"]["product.computer"]["f1"] == 1.0


def test_pipeline_reads_and_vectorizes_the_corpus_once(tmp_path, demo_config_path, monkeypatch,
                                                     capsys):
    # without train_corpus the tagger trains on the corpus it tags
    calls = {"read_conll": 0, "attach_vectors": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(cli, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(demo_config_path), "--output-dir", str(out)]) == 0
    capsys.readouterr()
    assert calls == {"read_conll": 1, "attach_vectors": 1}
    assert json.loads((out / "report.json").read_text())["micro_f1"] == 1.0


def demo_corpus_without_tags(sentences=None):
    """The demo corpus's text with the tags of ``sentences`` (default: all) removed."""
    text = (DEMO_DIR / "corpus.conll").read_text().split("\n\n")
    for i in range(len(text)) if sentences is None else sentences:
        text[i] = "\n".join(row.split("\t")[0] for row in text[i].splitlines())
    return "\n\n".join(text)


def test_pipeline_with_a_model_links_an_untagged_corpus_without_report(
    tmp_path, demo_config_path, demo_run, capsys
):
    untagged = tmp_path / "plain.conll"
    untagged.write_text(demo_corpus_without_tags())
    out = tmp_path / "out"
    code = main(["pipeline", "--config", str(demo_config_path),
                 "--corpus", str(untagged), "--output-dir", str(out),
                 "--model", str(demo_run.out / "model.npz")])
    captured = capsys.readouterr()
    assert code == 0
    assert "skipping evaluation" in captured.err
    assert (out / "linked.jsonl").exists()
    assert not (out / "report.json").exists()


def test_pipeline_with_zero_epochs_runs(tmp_path, demo_config_path, capsys):
    out = tmp_path / "out"
    code = main(["pipeline", "--config", str(demo_config_path), "--output-dir", str(out),
                 "--epochs", "0"])
    assert code == 0
    assert "0 epochs, final loss none" in capsys.readouterr().out
    assert (out / "linked.jsonl").exists()


def test_pipeline_runtime_failure_exits_2(tmp_path, demo_config_path, monkeypatch, capsys):
    def failing_step(*args):
        raise RuntimeError("injected training step failure")

    monkeypatch.setattr(tagger, "_loss_grads", failing_step)
    code = main(["pipeline", "--config", str(demo_config_path), "--output-dir",
                 str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "stage failed: train tagger\nerror: injected training step failure\n"


def test_pipeline_at_the_largest_accepted_learning_rate_exits_0(tmp_path, demo_config_path):
    # the demo trains for 80 steps: 40 epochs of two 4-sentence batches
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(edited_config(demo_config_path,
                                 {"learning_rate": repr(tagger.MAX_RATE_STEPS / 80)}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["pipeline", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0


def largest_accepted_rate(steps):
    """The largest float whose product with ``steps`` is at most MAX_RATE_STEPS."""
    rate = tagger.MAX_RATE_STEPS / steps
    while rate * steps > tagger.MAX_RATE_STEPS:
        rate = math.nextafter(rate, 0)
    while math.nextafter(rate, math.inf) * steps <= tagger.MAX_RATE_STEPS:
        rate = math.nextafter(rate, math.inf)
    return rate


@settings(derandomize=True, deadline=None, max_examples=60)
@given(epochs=st.integers(1, 10**7), batch_size=st.integers(1, 16))
def test_learning_rate_rule_loads_the_largest_rate_and_refuses_the_next(demo_config_path, epochs,
                                                                         batch_size):
    # load_inputs as `train` calls it, so that no example trains; no demo
    # sentence is empty, so each epoch has ceil(8 / batch_size) batches
    batches = -(-len(DEMO_SENTENCES) // batch_size)
    steps = epochs * batches
    largest = largest_accepted_rate(steps)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "rate.cfg"

        def load(rate):
            cfg.write_text(edited_config(demo_config_path, {
                "epochs": epochs, "batch_size": batch_size, "learning_rate": repr(rate)}))
            args = cli.build_parser().parse_args(["train", "--config", str(cfg)])
            return cli.load_inputs(args, {"hierarchy", "train", "output_dir"})

        inputs = load(largest)
        assert inputs.cfg.tagger.learning_rate == largest
        assert len(inputs.training) == len(DEMO_SENTENCES)
        above = math.nextafter(largest, math.inf)
        with pytest.raises(ConfigError) as refused:
            load(above)
    assert str(refused.value) == (
        f"key 'learning_rate': {above!r} times {steps} training steps ({epochs} epochs of"
        f" {batches} batches) is more than 67108864")


# --- evaluate ---------------------------------------------------------------------------

def test_evaluate_coarse_granularity(tmp_path, demo_config_path, demo_run, capsys):
    out = tmp_path / "coarse"
    code = main(["evaluate", "--config", str(demo_config_path),
                 "--pred", str(demo_run.out / "linked.jsonl"),
                 "--granularity", "coarse", "--output-dir", str(out)])
    assert code == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["granularity"] == "coarse"
    assert set(report["per_class"]) == {
        "person", "location", "organization", "product", "building", "date"
    }
    assert report["micro_f1"] == 1.0


def write_eval_fixture(tmp_path, tp, fp, fn, label="person"):
    """Gold corpus plus linked records engineered to hit exact tp/fp/fn."""
    gold_sentences = tp + fn + fp  # one gold span in the first tp+fn sentences
    corpus_lines = []
    records = []
    for doc in range(gold_sentences):
        if doc < tp + fn:
            corpus_lines += [f"a\tB-{label}", "b\tO", ""]
        else:
            corpus_lines += ["a\tO", "b\tO", ""]
        if doc < tp:
            records.append({"doc": doc, "start": 0, "end": 1, "surface": "a",
                            "coarse": label, "fine": label, "entity": None, "score": None})
        elif doc >= tp + fn:
            records.append({"doc": doc, "start": 1, "end": 2, "surface": "b",
                            "coarse": label, "fine": label, "entity": None, "score": None})
    gold = tmp_path / "gold.conll"
    gold.write_text("\n".join(corpus_lines))
    pred = tmp_path / "pred.jsonl"
    pred.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return pred, gold


# Each fixture's counts, and its pinned precision, recall and F-1 in percent
# as the published tables round it. The paper-shaped person row's counts give
# P = 0.79 and R = 0.59 exactly.
EVAL_FIXTURES = {"pred-equals-gold": ((5, 0, 0), (1.0, 1.0, 100)),
                 "paper-shaped-person-row": ((4661, 1239, 3239), (0.79, 0.59, 68)),
                 "empty-predictions": ((0, 0, 4), (0.0, 0.0, 0))}


@pytest.mark.parametrize("case", EVAL_FIXTURES)
def test_evaluate_scores_the_fixture_as_the_rational_oracle(tmp_path, capsys, case):
    counts, pinned = EVAL_FIXTURES[case]
    pred, gold = write_eval_fixture(tmp_path, *counts)
    cfg, out = tmp_path / "eval.cfg", tmp_path / "out"
    cfg.write_text(f"hierarchy = {DATA_DIR / 'wikigold.types'}\n")
    code = main(["evaluate", "--config", str(cfg), "--pred", str(pred),
                 "--gold", str(gold), "--output-dir", str(out)])
    assert code == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    row = report["per_class"]["person"]
    p, r, f = rational_prf(*counts)
    assert (row["precision"], row["recall"]) == (float(p), float(r))
    assert row["f1"] == report["micro_f1"] == pytest.approx(float(f), abs=1e-12)
    assert (row["precision"], row["recall"], round(100 * row["f1"])) == pinned


# --- runs refused before work ----------------------------------------------------------

class Refused(NamedTuple):
    """A run that must exit 1 before it writes anything. ``argv`` and ``tail``
    are templates of the fields ``prepared`` sets, with ``{demo}`` the demo
    run's output directory; the run's working directory is ``{tmp}``. stderr
    must be ``error: <tail>``, after ``stage failed: <stage>`` when the error
    is raised in a stage."""
    argv: str
    tail: str
    stage: str | None = "load inputs"
    cfg: dict | None = None
    edit: Callable | None = None


def prepared(row, tmp, config, source, **fields):
    """The fields of ``row``'s run in ``tmp``, where ``row.edit(tmp, source)``
    has written its files and may return more fields: ``{tmp}``, ``{out}``
    (``{tmp}/out``) and ``{cfg}``, which is ``config``, or its copy in
    ``{tmp}`` with ``row.cfg``'s edits (see ``set_key``), themselves
    templates of the fields."""
    fields.update(tmp=tmp, out=tmp / "out", cfg=config)
    fields.update(row.edit(tmp, source) or {} if row.edit else {})
    if row.cfg is not None:
        fields["cfg"] = tmp / "edited.cfg"
        fields["cfg"].write_text(edited_config(config, {
            key: value if value is None else str(value).format(**fields)
            for key, value in row.cfg.items()}))
    return fields


PIPELINE = "pipeline --config {cfg} --output-dir {out}"
HUGE = "99999999999999999999"
DEMO_SENTENCES = read_conll(DEMO_DIR / "corpus.conll")
SNAPSHOT = (DEMO_DIR / "snapshot.jsonl").read_text()


def written(name, content):
    """An edit that writes ``content`` (text, bytes, or a function of the
    edit's source returning either) to ``{tmp}/name``; the number of its
    last line is the field ``{line}``."""
    def edit(tmp, source):
        data = content(source) if callable(content) else content
        (tmp / name).write_bytes(data if isinstance(data, bytes) else data.encode())
        return {"line": len((tmp / name).read_bytes().splitlines())}
    return edit


def made(name):
    """An edit making the directory ``{tmp}/name`` and its parents."""
    return lambda tmp, source: (tmp / name).mkdir(parents=True)


def set_fields(lines, lineno, **fields):
    lines[lineno - 1] = json.dumps({**json.loads(lines[lineno - 1]), **fields})


def demo_linked(change):
    """An edit writing the demo run's ``linked.jsonl`` to ``{tmp}`` with its
    lines passed through ``change``."""
    def edit(tmp, demo):
        lines = (demo / "linked.jsonl").read_text().splitlines()
        change(lines)
        (tmp / "linked.jsonl").write_text("\n".join(lines) + "\n")
    return edit


def first_error_in_file_order(lines):
    lines.reverse()  # sentence 7's record comes first, sentence 0's last
    set_fields(lines, 1, surface="Lyon")
    set_fields(lines, 21, surface="2012")


def model_file(name="model.npz", tags=("O", "B-person", "I-person"), embedding_dim=16,
               count=None, half=False, **members):
    """An edit saving a random H=4 model with ``tags`` to ``{tmp}/name``: its
    parameters sized for ``count`` tags (default: as many), ``members`` in
    place of its own, and with ``half`` only the first half of the file."""
    def edit(tmp, demo):
        cfg = TaggerConfig(hidden_size=4, embedding_dim=embedding_dim)
        params = init_params(cfg, len(tags) if count is None else count, np.random.default_rng(0))
        TaggerModel(cfg, tags, {**params, **members}).save(tmp / name)
        if half:
            (tmp / name).write_bytes((tmp / name).read_bytes()[: (tmp / name).stat().st_size // 2])
    return edit


def numpy_refusal(data):
    """What ``np.load`` says as it refuses ``data``, which is no archive."""
    try:
        np.load(io.BytesIO(data), allow_pickle=False)
    except ValueError as exc:
        return str(exc)


UNPICKLED = []


def record_unpickling():
    UNPICKLED.append(True)


class PicklePayload:
    def __reduce__(self):
        return record_unpickling, ()


# Saved tag lists that are not a nonempty list of distinct strings (a string's
# characters would pass for tags, and "O" is a valid tag), and tag sets that
# are not BIO tags over hierarchy roots.
BAD_MODEL_TAGS = {
    "non-string-tag": (["O", 5, "B-person"], "'tags' is not a nonempty list of strings"),
    "duplicate-tags": (["O", "B-person", "B-person"], "'tags' lists a tag more than once"),
    "tags-not-a-list": ("O", "'tags' is not a nonempty list of strings"),
    "no-tags": ([], "'tags' is not a nonempty list of strings")}
TAG_SET_CASES = {"not-bio": (["O", "X"], "not a BIO tag: 'X'"),
                 "no-label": (["B-", "O"], "not a BIO tag: 'B-'"),
                 "non-root-label": (["O", "B-person.artist", "I-person.artist"],
                                    "tag 'B-person.artist' is not over a hierarchy root")}
LINKED_RECORD = {"doc": 0, "start": 0, "end": 1, "surface": "a", "fine": "person"}
# A linked.jsonl line that is not an object, or the fields that give the
# record above a wrong type, and its error.
MALFORMED_LINKED_LINES = {
    "int-line": (b"5", "record is not a JSON object"),
    "array-line": (b"[1]", "record is not a JSON object"),
    "string-line": (b'"x"', "record is not a JSON object"),
    "doc-string": ({"doc": "x"}, "field 'doc' must be an integer"),
    "doc-null": ({"doc": None}, "field 'doc' must be an integer"),
    "doc-bool": ({"doc": True}, "field 'doc' must be an integer"),
    "start-float": ({"start": 0.5}, "field 'start' must be an integer"),
    "end-float": ({"end": 1.0}, "field 'end' must be an integer"),
    "surface-int": ({"surface": 3}, "field 'surface' must be a string"),
    "fine-null": ({"fine": None}, "field 'fine' must be a string"),
    "fine-list": ({"fine": ["person"]}, "field 'fine' must be a string"),
    "invalid-json": (b"{", "invalid JSON at column 2:"
                           " Expecting property name enclosed in double quotes"),
}
# Edits of the demo run's linked.jsonl, and the error each is refused with.
LINKED_RECORD_EDITS = {
    "evaluate-tokenization-mismatch-cites-sentence": (
        lambda lines: set_fields(lines, 6, surface="wrong text"),
        "line 6: tokenization mismatch in sentence 1: prediction surface 'wrong text'"
        " != corpus text 'San Jose'"),
    "evaluate-span-outside-sentence": (
        lambda lines: set_fields(lines, 7, end=99),
        "line 7: tokenization mismatch in sentence 2: span [0, 99) outside 7 tokens"),
    "evaluate-record-error-surface-on-line-3": (
        lambda lines: set_fields(lines, 3, surface="Apple Inc"),
        "line 3: tokenization mismatch in sentence 0: prediction surface 'Apple Inc'"
        " != corpus text 'Apple'"),
    "evaluate-record-error-no-such-sentence": (
        lambda lines: set_fields(lines, 5, doc=8),
        "line 5: tokenization mismatch in sentence 8: no such gold sentence"),
    "evaluate-record-error-span-outside-sentence": (
        lambda lines: set_fields(lines, 2, end=99),
        "line 2: tokenization mismatch in sentence 0: span [12, 99) outside 18 tokens"),
    "evaluate-record-error-duplicate-record": (
        lambda lines: lines.insert(3, lines[0]),
        "line 4: duplicate predicted span: (0, 8, 11, 'date'), first on line 1"),
    "evaluate-record-error-first-error-in-file-order": (
        first_error_in_file_order,
        "line 1: tokenization mismatch in sentence 7: prediction surface 'Lyon'"
        " != corpus text 'Paris'"),
}
SIDECAR_ROW = b" ".join([b"0.5"] * 16)
# Each input read from {tmp}/bad: its usual content, and the config edits and
# command line that read it.
BAD_LINE_RUNS = {
    "config": (edited_config(DEMO_DIR / "pipeline.cfg", {}).encode(), None,
               "pipeline --config {tmp}/bad --output-dir {out}"),
    "hierarchy": (DATA_DIR / "wikigold.types", {"hierarchy": "{tmp}/bad"}, PIPELINE),
    "kb": (DEMO_DIR / "snapshot.jsonl", {"kb": "{tmp}/bad"}, PIPELINE),
    "embeddings": (DEMO_DIR / "wiki_vectors.vec", {"embeddings": "{tmp}/bad"}, PIPELINE),
    "token_vectors": (DEMO_DIR / "token_vectors.vec", {"token_vectors": "{tmp}/bad"}, PIPELINE),
    # two sentences of a row each: a line appended is the second sentence's second row
    "sidecar": (b"16\n%s\n\n%s\n" % (SIDECAR_ROW, SIDECAR_ROW),
                {"token_vectors": "{tmp}/bad", "vector_source": "precomputed"}, PIPELINE),
    # pipeline then reads two corpora, the bad one first
    "corpus": (DEMO_DIR / "corpus.conll",
               {"corpus": "{tmp}/bad", "train_corpus": DEMO_DIR / "corpus.conll"}, PIPELINE),
    "train_corpus": (DEMO_DIR / "corpus.conll", {"train_corpus": "{tmp}/bad"}, PIPELINE),
    "tagged": ("tagged.conll", None, "link --config {cfg} --tagged {tmp}/bad --output-dir {out}"),
    "gold": (DEMO_DIR / "corpus.conll", None, "evaluate --config {cfg} --gold {tmp}/bad"
             " --pred {demo}/linked.jsonl --output-dir {out}"),
    "pred": ("linked.jsonl", None, "evaluate --config {cfg} --pred {tmp}/bad --output-dir {out}"),
}
# One line each reader rejects, and its error after the line number.
MALFORMED_LINES = {
    "config": (b"no equals sign", "expected 'key = value'"),
    "hierarchy": (b"person", "duplicate label 'person' (first declared on line 14)"),
    "kb": (b"{}", "record has no 'qid' field"),
    **{case: (b"tok 0.5 x", "could not convert string to float: 'x'")
       for case in ("embeddings", "token_vectors")},
    "sidecar": (b"0.5", "expected 16 values, found 1"),
    **{case: (b"a\tb\tc", "expected 'token<TAB>tag', found 3 columns")
       for case in ("corpus", "train_corpus", "tagged", "gold")},
    "pred": (b'{"doc": 0}', "missing field 'start'"),
}


def bad_line(case, line, text):
    """The run reading input ``case`` with ``line`` appended, refused with ``text``."""
    source, cfg, argv = BAD_LINE_RUNS[case]

    def content(demo):  # the usual content is bytes, a file, or the name of a demo output
        data = source if isinstance(source, bytes) else (
            demo / source if isinstance(source, str) else source).read_bytes()
        return data + (b"" if data.endswith(b"\n") else b"\n") + line + b"\n"
    stage = {"config": None, "pred": "evaluate"}.get(case, "load inputs")
    return Refused(argv, "{tmp}/bad: line {line}: " + text, stage, cfg, written("bad", content))


def non_finite_row(case, value):
    """A row of ``case``'s vector file holding ``value`` among 0.5s: a table
    row's first value, or a sidecar row's last."""
    if case == "sidecar":
        return b" ".join([b"0.5"] * 15 + [value.encode()])
    width = 8 if case == "embeddings" else 16
    return " ".join(["nonfinite", value] + ["0.5"] * (width - 1)).encode()


SIDECAR = {"token_vectors": "{tmp}/context.vec", "vector_source": "precomputed"}
# Flag values and the error each is refused with. The same value in the config
# file is refused alike; an empty path there is an empty-path-value row.
FLAG_VALUES = [("seed", "abc", "key 'seed': invalid literal for int() with base 10: 'abc'"),
               ("epochs", "1.5", "key 'epochs': invalid literal for int() with base 10: '1.5'"),
               ("granularity", "medium",
                "key 'granularity': expected one of 'fine', 'coarse', got 'medium'"),
               ("threshold", "x", "key 'threshold': could not convert string to float: 'x'"),
               ("threshold", "2", "threshold must lie in [0, 1], got 2.0"),
               ("seed", "-1", "batch_size must be positive, and epochs and seed non-negative"),
               *((key, "", f"key {key!r}: expected a path, got an empty value")
                 for key in ("output_dir", "corpus", "model"))]

REFUSED = {
    "ingest-kb-malformed-line-cited": Refused(
        "ingest-kb {tmp}/bad.jsonl", "{tmp}/bad.jsonl: line 3: invalid JSON at column 2:"
        " Expecting property name enclosed in double quotes",
        edit=written("bad.jsonl", '{"qid": "Q1", "label": "a"}\n{"qid": "Q2", "label": "a"}\n'
                                  "{broken\n")),
    "ingest-kb-missing-snapshot": Refused("ingest-kb {tmp}/nope.jsonl",
                                          "kb does not exist: {tmp}/nope.jsonl", None),
    # a record repeated after two blank lines, with two more before the first
    # record: both lines are counted with the blanks
    "ingest-kb-duplicate-after-blank-lines": Refused(
        "ingest-kb {tmp}/duplicate.jsonl",
        "{tmp}/duplicate.jsonl: line 35: duplicate entity id Q515 (first seen on line 4)",
        edit=written("duplicate.jsonl", f"\n\n{SNAPSHOT}\n\n{SNAPSHOT.splitlines()[1]}\n")),
    # the learning rate times the demo's 80 training steps, past MAX_RATE_STEPS
    **{f"learning-rate-{rate}": Refused(
        PIPELINE, f"key 'learning_rate': {float(rate)!r} times 80 training steps (40 epochs of"
        f" 2 batches) is more than {tagger.MAX_RATE_STEPS}", cfg={"learning_rate": rate})
       for rate in ("1e200", "838860.9")},
    "pipeline-missing-embeddings": Refused(PIPELINE, "embeddings does not exist: {tmp}/missing.vec",
                                           None, {"embeddings": "{tmp}/missing.vec"}),
    # without gold tags, pipeline needs a model to tag the corpus with
    "pipeline-untagged-corpus-needs-model": Refused(
        PIPELINE + " --corpus {tmp}/plain.conll", "training corpus {tmp}/plain.conll has untagged"
        " sentences: supply a trained model via 'model ='",
        edit=written("plain.conll", demo_corpus_without_tags())),
    # scoring needs gold tags on every sentence; only pipeline skips a wholly untagged corpus
    **{f"gold-corpus-untagged-in-part-{name}": Refused(
        f"{command} --config {{cfg}} --corpus {{tmp}}/partly.conll --output-dir {{out}} {given}",
        f"{{tmp}}/partly.conll: sentence {1 if untagged else 0} has no gold tags; evaluation"
        " needs them on every sentence",
        edit=written("partly.conll", demo_corpus_without_tags(untagged)))
       for name, command, given, untagged in [
           ("pipeline", "pipeline", "", [1]),
           ("pipeline-model", "pipeline", "--model {demo}/model.npz", [1]),
           ("evaluate", "evaluate", "--pred {demo}/linked.jsonl", [1]),
           ("evaluate-wholly-untagged", "evaluate", "--pred {demo}/linked.jsonl", None)]},
    "pipeline-stage-failure-identifies-stage": Refused(
        PIPELINE + " --corpus {tmp}/bad.conll",
        "{tmp}/bad.conll: line 1: expected 'token<TAB>tag', found 3 columns",
        edit=written("bad.conll", "a\tO\tX\n")),
    # appended to the demo run's linked.jsonl
    **{f"malformed-linked-line-{case}": bad_line("pred", line if isinstance(line, bytes) else
                                                 json.dumps({**LINKED_RECORD, **line}).encode(),
                                                 error)
       for case, (line, error) in MALFORMED_LINKED_LINES.items()},
    **{case: Refused(
        "evaluate --config {cfg} --pred {tmp}/linked.jsonl --output-dir {out}",
        f"{{tmp}}/linked.jsonl: {error}", "evaluate", edit=demo_linked(change))
       for case, (change, error) in LINKED_RECORD_EDITS.items()},
    **{f"empty-path-value-{key}": Refused(
        "pipeline --config {cfg}", f"key {key!r}: expected a path, got an empty value", None,
        {key: ""}) for key in sorted(cli._PATH_KEYS)},
    "oversized-tagger": Refused(
        "pipeline --config {cfg}", f"hidden_size {HUGE} and embedding_dim 16 give"
        " 40000000000000000007699999999999999999920 parameters, more than MAX_PARAMETERS"
        " (134217728)",
        None, {"hidden_size": HUGE}),
    # 5700 units pass the cap at the 16-d width build_config assumes, and would
    # allocate about 1 GiB there; over these 200-d vectors they exceed it
    "parameter-cap-is-checked-at-the-vectors-width": Refused(
        "pipeline --config {cfg}", "key 'hidden_size': with the 200-dimensional vectors in"
        " {tmp}/wide.vec, hidden_size 5700 and embedding_dim 200 give 135688501 parameters, more"
        " than MAX_PARAMETERS (134217728)",
        cfg={"hidden_size": "5700", "token_vectors": "{tmp}/wide.vec"},
        edit=written("wide.vec", "".join(f"{token} {' '.join(['0.5'] * 200)}\n"
                                         for token in ("ocean", ".")))),
    # Adam's constants are fixed, the vector width is the vectors', and KB keys
    # are always casefolded
    **{f"deleted-key-is-unknown-{key}": Refused(
        PIPELINE, f"unknown configuration key: {key!r}", None, {key: value})
       for key, value in [("beta1", "0.9"), ("beta2", "0.999"), ("eps", "1e-8"),
                          ("embedding_dim", "16"), ("case_sensitive", "false")]},
    **{f"empty-training-corpus-{command}-{key}": Refused(
        command + " --config {cfg} --output-dir {out}",
        "training corpus {tmp}/empty.conll has no sentences", cfg={key: "{tmp}/empty.conll"},
        edit=written("empty.conll", "\n\n"))
       for command, key in [("train", "corpus"), ("pipeline", "corpus"),
                            ("pipeline", "train_corpus")]},
    **{f"similarity-mode-{value}": Refused(
        PIPELINE, f"key 'similarity_mode': expected 'pairwise-mean', got {value!r}", None,
        {"similarity_mode": value}) for value in ("mean-vector", "median")},
    **{f"pipeline-sidecar-fault-{case}": Refused(
        PIPELINE, f"{{tmp}}/context.vec: {message}", cfg=SIDECAR, edit=written("context.vec", text))
       for case, text, message in [
           ("superscript-two", "²\n1 0\n", "line 1: expected a dimension header"),
           ("5000-digits", "1" * 5000 + "\n1 0\n", "line 1: dimension header is too long"),
           ("missing-sentence", lambda demo: sidecar_text(demo_sidecar_sentences()[1:]),
            f"sidecar holds {len(DEMO_SENTENCES) - 1} sentences but the corpus"
            f" {DEMO_DIR / 'corpus.conll'} has {len(DEMO_SENTENCES)}"),
           ("short-sentence", lambda demo: sidecar_text(
               [x[:-1] if i == 1 else x for i, x in enumerate(demo_sidecar_sentences())]),
            f"sentence 1: sidecar holds {len(DEMO_SENTENCES[1]) - 1} vectors"
            f" for {len(DEMO_SENTENCES[1])} tokens"),
           ("header", "16\n", "sidecar contains no sentences"),
           ("header-blank-lines", "16\n\n\n", "sidecar contains no sentences")]},
    # the rule for a supplied model's tags: O, or B-/I- over a hierarchy root
    # or over a label outside the hierarchy
    "link-tagged-takes-only-coarse-labels-person.artist": Refused(
        "link --config {cfg} --tagged {tmp}/tagged.conll --output-dir {out}",
        "{tmp}/tagged.conll: tag 'B-person.artist' is not over a hierarchy root",
        edit=written("tagged.conll",
                     "Michael\tB-person.artist\nJordan\tI-person.artist\nplays\tO\n")),
    # rejected with the path checks, before loading
    **{f"output-dir-naming-a-file-{name}": Refused(
        "pipeline --config {cfg} --output-dir " + output_dir,
        "output_dir is not a directory: {tmp}/afile", None,
        edit=written("afile", "not a directory\n"))
       for name, output_dir in [("afile", "afile"), ("afile-sub", "afile/sub")]},
    # the file a training run saves its model to, also checked with the paths
    **{f"model-path-{name}": Refused(
        command + " --config {cfg} --output-dir {out}" + given, tail, None, edit=edit)
       for name, command, given, tail, edit in [
           ("is-a-directory-train", "train", " --model {tmp}/adir",
            "model is a directory: {tmp}/adir", made("adir")),
           ("is-a-directory-pipeline", "pipeline", "", "model is a directory: {out}/model.npz",
            made("out/model.npz")),
           ("under-a-file-afile", "train", " --model {tmp}/afile/model.npz",
            "model is under a file: {tmp}/afile", written("afile", "not a directory\n")),
           ("under-a-file-afile-sub", "train", " --model {tmp}/afile/sub/model.npz",
            "model is under a file: {tmp}/afile", written("afile", "not a directory\n"))]},
    **{f"bad-input-line-{case}-not-utf8": bad_line(case, "caf\xe9".encode("latin-1"),
                                                   "not UTF-8 text") for case in BAD_LINE_RUNS},
    **{f"bad-input-line-{case}-malformed": bad_line(case, *MALFORMED_LINES[case])
       for case in BAD_LINE_RUNS},
    "hierarchy-label-deeper-than-two-levels": bad_line(
        "hierarchy", b"Person.Artist.Painter",
        "label 'person.artist.painter' is deeper than root.leaf"),
    **{f"bad-input-line-{case}-not-bio": bad_line(case, b"Paris\tX-date", "not a BIO tag: 'X-date'")
       for case in ("corpus", "train_corpus", "tagged", "gold")},
    # every reader refuses nan and ±inf; the vector readers also refuse a row whose
    # sum of squares overflows, which would make norms and training overflow
    **{f"non-finite-input-{case}-{value}": bad_line(case, non_finite_row(case, value),
                                                    "values are not finite or too large")
       for case in ("embeddings", "token_vectors", "sidecar")
       for value in ("nan", "inf", "-inf", "1e200", "1e308")},
    **{f"non-finite-input-model-{value}": Refused(
        PIPELINE + " --model {tmp}/bad", "{tmp}/bad: member 'dec_b' is not an array of finite"
        " numbers", edit=model_file("bad", dec_b=np.array([0.0, float(value), 0.0])))
       for value in ("nan", "inf", "-inf")},
    # the tagger never falls back to the linker's table
    **{f"only-the-tagger-needs-token-vectors-{command}": Refused(
        command + " --config {cfg} --output-dir {out}" + given, "token_vectors is not configured",
        None, {"token_vectors": None})
       for command, given in [("train", ""), ("tag", " --model {demo}/model.npz"),
                              ("pipeline", "")]},
    **{f"missing-class-roots-{command}": Refused(
        command + " --config {cfg} --output-dir {out}" + given,
        "no class roots configured for narrowable categories: set class_roots.person",
        cfg={"class_roots.person": None})
       for command, given in [("pipeline", ""), ("link", " --tagged {demo}/tagged.conll")]},
    # the demo's token vectors are 16-d
    **{f"model-dimension-mismatch-{command}": Refused(
        command + " --config {cfg} --output-dir {out} --model {tmp}/model8.npz",
        "model {tmp}/model8.npz expects 8-dimensional vectors but the vector source provides"
        " dimension 16", edit=model_file("model8.npz", embedding_dim=8))
       for command in ("pipeline", "tag")},
    **{f"malformed-model-file-{kind}": Refused(
        "tag --config {cfg} --output-dir {out} --model {tmp}/model.npz",
        "{tmp}/model.npz: " + error, edit=edit)
       for kind, error, edit in [
           ("garbage", "not a readable model file: " + numpy_refusal(b"garbage\n"),
            written("model.npz", "garbage\n")),
           ("truncated", "not a readable model file: File is not a zip file",
            model_file(half=True)),
           ("object-member", "not a readable model file: Object arrays cannot be loaded when"
            " allow_pickle=False",
            model_file(dec_b=np.array([PicklePayload()], dtype=object))),
           ("wrong-shapes", "parameters do not match the model's config and tags",
            model_file(tags=["O"], count=3)),
           *((kind, error, model_file(tags=tags))
             for kind, (tags, error) in BAD_MODEL_TAGS.items())]},
    **{f"model-tag-set-checked-{prefix}{case}": Refused(
        command + " --config {cfg} --output-dir {out} --model {tmp}/model.npz",
        "{tmp}/model.npz: " + error, edit=model_file(tags=tags))
       for command, prefix in [("pipeline", ""), ("tag", "tag-")]
       for case, (tags, error) in TAG_SET_CASES.items()},
    "pipeline-missing-model": Refused(PIPELINE + " --model {tmp}/missing.npz",
                                      "model does not exist: {tmp}/missing.npz", None),
    # a flag's value is checked as the same value in the config file (whose
    # output_dir is "out") is
    **{f"flag-values-are-checked-{key}-{value}": Refused(
        f"{PIPELINE} --{key.replace('_', '-')} '{value}'", error, None)
       for key, value, error in FLAG_VALUES},
    **{f"config-values-are-checked-{key}-{value}": Refused(
        "pipeline --config {cfg}", error, None, {key: value})
       for key, value, error in FLAG_VALUES if value},
}


def refuse(*args, **kwargs):
    raise ValueError("refused")


def tree(directory):
    """Every path under ``directory``, with a file's bytes."""
    return {str(path.relative_to(directory)): path.read_bytes() if path.is_file() else None
            for path in directory.rglob("*")}


@pytest.mark.parametrize("case", REFUSED)
def test_refused_run_exits_1_before_work(tmp_path, demo_run, monkeypatch, capsys, case):
    row = REFUSED[case]
    monkeypatch.chdir(tmp_path)
    fields = prepared(row, tmp_path, demo_run.config, demo_run.out, demo=demo_run.out)
    written_before = tree(tmp_path)
    if row.stage is None:  # refused before the stage that loads inputs opens
        for name in ("load_hierarchy", "load_snapshot", "load_embeddings", "read_conll"):
            monkeypatch.setattr(cli, name, refuse)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([arg.format(**fields) for arg in shlex.split(row.argv)])
    stage = "" if row.stage is None else f"stage failed: {row.stage}\n"
    assert (code, *capsys.readouterr()) == (1, "", f"{stage}error: {row.tail.format(**fields)}\n")
    assert caught == [] and UNPICKLED == []
    assert tree(tmp_path) == written_before


def test_train_saves_the_model_into_directories_it_makes(tmp_path, demo_run):
    model = tmp_path / "new" / "sub" / "model.npz"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", str(demo_run.config), "--model", str(model),
                     "--output-dir", str(tmp_path / "out")]) == 0
    assert tree(tmp_path) == {"new": None, "new/sub": None,
                              "new/sub/model.npz": (demo_run.out / "model.npz").read_bytes()}


# --- twins that must write the demo's files ---------------------------------------------

class Twin(NamedTuple):
    """How a run differs from a ``Base`` run, whose files it must write byte
    for byte. Each of ``commands`` is a template of the fields ``prepared``
    sets, with ``{base}`` the base run's output directory and ``{model}`` the
    model it tagged with, and runs with ``--config {cfg} --output-dir {out}``,
    except ``ingest-kb``, which must print what it prints for the base's KB.
    ``cfg`` and ``edit(tmp, base)`` are applied by ``prepared``; ``patch`` is
    ``(module, name, replacement)``, put in place for the run, which must
    call it."""
    commands: tuple
    cfg: dict | None = None
    edit: Callable | None = None
    patch: tuple | None = None


def kb_lines(lines):
    """An edit writing the base KB's records as the text lines
    ``lines(records)`` to ``{tmp}/kb.jsonl``."""
    def content(base):
        with open(load_config(base.config).kb, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        return "".join(line + "\n" for line in lines(records))
    return written("kb.jsonl", content)


def first_space_doubled(obj):
    return {**obj, "label": obj["label"].replace(" ", "  ", 1),
            "aliases": [alias.replace(" ", "  ", 1) for alias in obj["aliases"]]}


def with_unused_alias(obj):  # no corpus mention uses it, and its key needs NFC
    return {**obj, "aliases": [*obj["aliases"], "Zoë Ørsted"]}


WITH_MODEL = ("ingest-kb {tmp}/kb.jsonl", "pipeline --model {model}")
KB = {"kb": "{tmp}/kb.jsonl"}
# The demo's lines take the documented-layout pattern and its ASCII key
# shortcut. With compact separators every line takes the general parser; with
# the first space of each label and alias doubled, the shortcut refuses each
# text that holds one and normalize_surface collapses it; lookup must not
# depend on line order; and an unused alias needing NFC is keyed by
# normalize_surface raw and takes the general parser escaped.
KB_TWINS = {
    "kb-compact-separators": Twin(WITH_MODEL, KB, kb_lines(
        lambda records: [json.dumps(obj, separators=(",", ":")) for obj in records])),
    "kb-first-space-doubled": Twin(WITH_MODEL, KB, kb_lines(
        lambda records: [json.dumps(first_space_doubled(obj)) for obj in records])),
    "kb-lines-shuffled": Twin(WITH_MODEL, KB, kb_lines(
        lambda records: [json.dumps(obj)
                         for obj in random.Random(0).sample(records, len(records))])),
    "kb-unused-alias-raw": Twin(WITH_MODEL[1:], KB, kb_lines(
        lambda records: [json.dumps(with_unused_alias(obj), ensure_ascii=False)
                         for obj in records])),
    "kb-unused-alias-escaped": Twin(WITH_MODEL[1:], KB, kb_lines(
        lambda records: [json.dumps(with_unused_alias(obj)) for obj in records])),
    "kb-blank-lines": Twin(WITH_MODEL, KB, kb_lines(
        lambda records: [line for obj in records for line in ("", " \t", json.dumps(obj))])),
    # every group then tags in float64
    "tagged-in-float64-only": Twin(("tag --model {model}", "link", "evaluate"),
                                   patch=(tagger, "_single_precision", lambda params: None)),
    # each vector row is then read through float
    "vector-rows-read-one-by-one": Twin(("pipeline",), patch=(np, "loadtxt", refuse)),
}
TWINS = {
    "staged-commands-match-pipeline": Twin(("train", "tag --model {out}/model.npz", "link",
                                            "evaluate")),
    "evaluate-stage-isolation": Twin(("evaluate --pred {base}/linked.jsonl",)),
    "tag-with-the-saved-model": Twin(("tag --model {model}",)),
    # its tags are over hierarchy roots (person, ...) and labels outside it (date)
    "link-tagged-takes-coarse-labels": Twin(("link --tagged {base}/tagged.conll",)),
    # identical vectors and seed: the whole run reproduces the static-table one
    "pipeline-with-precomputed-sidecar": Twin(
        ("pipeline",), SIDECAR, written("context.vec", lambda base: sidecar_text(
            demo_sidecar_sentences()))),
    # the tagger never falls back to the linker's table
    "only-the-tagger-needs-token-vectors-link": Twin(("link --tagged {base}/tagged.conll",),
                                                     {"token_vectors": None}),
    "only-the-tagger-needs-token-vectors-evaluate": Twin(("evaluate --pred {base}/linked.jsonl",),
                                                         {"token_vectors": None}),
    "similarity-mode-pairwise-mean": Twin(("pipeline",), {"similarity_mode": "pairwise-mean"}),
    # every label capitalized word by word, with its spaces doubled: labels
    # are lowercased and each whitespace run collapsed as they load
    "pipeline-reads-hierarchy-labels-normalized": Twin(
        ("pipeline",), {"hierarchy": "{tmp}/types"},
        written("types", "".join(line.title().replace(" ", "  ") + "\n" for line in
                                 (DATA_DIR / "wikigold.types").read_text().splitlines()))),
    # a subtype without a word token: the demo has no mention it could take,
    # so linking is unchanged
    "pipeline-skips-subtype-without-word-token": Twin(
        ("pipeline",), {"hierarchy": "{tmp}/types"},
        written("types", (DATA_DIR / "wikigold.types").read_text() + "person.+\n")),
    **KB_TWINS,
}
WRITES = {"train": ["model.npz"], "tag": ["tagged.conll"], "link": ["linked.jsonl"],
          "evaluate": ["report.json", "report.txt"],
          "pipeline": ["tagged.conll", "linked.jsonl", "report.json", "report.txt"]}


# Float32-first tagging of the benchmark's contextual model, and its sidecar's
# block parse, against their slow twins.
CONTEXTUAL_TWINS = ("tagged-in-float64-only", "vector-rows-read-one-by-one")


@pytest.mark.parametrize("base, case", [*(("demo", case) for case in TWINS),
                                        *(("train-tag", case) for case in KB_TWINS),
                                        *(("infer-contextual", case) for case in CONTEXTUAL_TWINS)])
def test_twin_writes_the_demo_files(request, tmp_path, monkeypatch, capsys, base, case):
    base, row = request.getfixturevalue(f"{base.replace('-', '_')}_run"), TWINS[case]
    fields = prepared(row, tmp_path, base.config, base, base=base.out, model=base.model)
    calls = []
    if row.patch:
        module, name, replacement = row.patch

        def counted(*args, **kwargs):
            calls.append(args)
            return replacement(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    written_files = set()
    for command in row.commands:
        argv = [arg.format(**fields) for arg in command.split()]
        if argv[0] == "ingest-kb":
            assert main(argv) == 0
            assert capsys.readouterr().out == base.summary
            continue
        code = main([*argv, "--config", str(fields["cfg"]), "--output-dir", str(fields["out"])])
        assert code == 0, capsys.readouterr().err
        trains = (argv[0] == "pipeline" and "--model" not in argv
                  and base.model == base.out / "model.npz")
        written_files |= {*WRITES[argv[0]], *(["model.npz"] if trains else [])}
    capsys.readouterr()
    assert bool(calls) == bool(row.patch)
    assert tree(fields["out"]) == {name: (base.out / name).read_bytes() for name in written_files}


# --- sweeps: a run exits 0 or 1, never 2, and with no warning ------------------------------

# Keys the demo config leaves unset; they are edited too, after every key it sets.
UNSET_KEYS = ["bidirectional", "vector_source", "train_corpus", "model"]
EDITS = ["", "garb@ge", "-1", "0", "1", "nan", "inf", HUGE]


def test_config_edits_never_fail_after_work_starts(tmp_path, demo_config_path, capsys):
    # a bad value exits 1 before any work; a value that parses must run (exit 0).
    # A huge epoch count is legal and would only train for ever, so it is left out.
    base = edited_config(demo_config_path, {"epochs": "1"})
    keys = [line.split("=")[0].strip() for line in base.splitlines()
            if "=" in line and not line.startswith("#")]
    edits = [(k, v) for k in keys + UNSET_KEYS for v in EDITS if (k, v) != ("epochs", HUGE)]
    failures = []
    for run, (key, value) in enumerate(edits):
        cfg = tmp_path / f"run{run}" / "edited.cfg"
        cfg.parent.mkdir()
        cfg.write_text(set_key(base, key, value))
        with np.errstate(all="ignore"):
            code = main(["pipeline", "--config", str(cfg)])
        err = capsys.readouterr().err
        if code not in (0, 1):
            failures.append(f"{key} = {value!r}: exit {code}: {err.strip()}")
    assert failures == []


# Values a vector row may hold: refused at load (exit 1), or used with no warning
# (exit 0). "1.3e154 once" sets one component; every other value sets them all.
ROW_VALUES = ["nan", "inf", "-inf", "1e150", "1e153", "-3e153", "1.3e154 once", "1e200", "1e308",
              "5e-324", "-0.0"]


def with_row(values, value):
    """``values`` with every component set to ``value``, or the first to its number
    when it ends in " once"."""
    number, _, once = value.partition(" ")
    return [number, *values[1:]] if once else [number] * len(values)


@pytest.mark.parametrize("source", ["embeddings", "token_vectors", "sidecar"])
def test_extreme_vector_rows_never_fail_after_work_starts_or_warn(tmp_path, demo_config_path,
                                                                  demo_run, capsys, source):
    # "ocean" is the only corpus token the linker's table holds, and a description
    # token; "." is the corpus's most frequent token. With "embeddings" the demo
    # model tags, so "Atlantic Ocean" is linked.
    token = "ocean" if source == "embeddings" else "."
    base = edited_config(demo_config_path, {})
    argv = ["pipeline", "--epochs", "2"]
    if source == "embeddings":
        argv += ["--model", str(demo_run.out / "model.npz")]
    if source == "sidecar":
        sentences = [(ex.tokens, [[repr(float(v)) for v in row] for row in x])
                     for ex, x in zip(DEMO_SENTENCES, demo_sidecar_sentences())]
        base = set_key(base, "vector_source", "precomputed")
    key = "embeddings" if source == "embeddings" else "token_vectors"
    table = DEMO_DIR / ("token_vectors.vec" if key == "token_vectors" else "wiki_vectors.vec")
    failures = []
    for run, value in enumerate(ROW_VALUES):
        bad = tmp_path / f"run{run}" / "vectors"
        bad.parent.mkdir()
        if source == "sidecar":
            bad.write_text("16\n" + "\n".join(
                "".join(" ".join(with_row(row, value) if tok == token else row) + "\n"
                        for tok, row in zip(tokens, rows)) for tokens, rows in sentences))
        else:
            lines = [line.split() for line in table.read_text().splitlines()]
            bad.write_text("".join(" ".join([token, *with_row(parts[1:], value)]
                                            if parts[0] == token else parts) + "\n"
                                   for parts in lines))
        cfg = bad.parent / "edited.cfg"
        cfg.write_text(set_key(base, key, bad))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--config", str(cfg), "--output-dir", str(bad.parent / "out")])
        err = capsys.readouterr().err
        if code not in (0, 1) or caught:
            failures.append(f"{value}: exit {code}: {[str(w.message) for w in caught]}"
                            f" {err.strip()}")
    assert failures == []


def test_a_model_beyond_float32_range_tags_in_float64_with_no_warning(tmp_path, demo_config_path,
                                                                     demo_run, capsys):
    # as a model trained at learning_rate = 1e100 would be: its weights do not fit float32
    model = TaggerModel.load(demo_run.out / "model.npz")
    model.params = {key: value * 1e100 for key, value in model.params.items()}
    model.save(tmp_path / "scaled.npz")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["tag", "--config", str(demo_config_path), "--model", str(tmp_path / "scaled.npz"),
                     "--output-dir", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    assert caught == []
    want = dict(_streamed_logits(model.params, model.config, demo_sidecar_sentences()))
    assert [ex.gold_tags for ex in read_conll(tmp_path / "out" / "tagged.conll")] == [
        [model.tags[j] for j in want[i].argmax(axis=1)] for i in range(len(DEMO_SENTENCES))]


DEMO_INPUTS = [*(DEMO_DIR / name for name in ("pipeline.cfg", "corpus.conll", "snapshot.jsonl",
                                               "token_vectors.vec", "wiki_vectors.vec")),
               DATA_DIR / "wikigold.types"]
DEMO_INPUT_LINES = [path.read_text(encoding="utf-8").splitlines() for path in DEMO_INPUTS]


@st.composite
def demo_input_mutations(draw):
    """One line-level edit of one demo input: its index in ``DEMO_INPUTS`` and
    its edited lines. A line is deleted, duplicated, swapped with another,
    truncated, or replaced by a line of any demo input."""
    target = draw(st.integers(0, len(DEMO_INPUTS) - 1))
    lines = list(DEMO_INPUT_LINES[target])
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["delete", "duplicate", "swap", "truncate", "replace"]))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "truncate":
        lines[i] = lines[i][: draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
    else:
        lines[i] = draw(st.sampled_from(draw(st.sampled_from(DEMO_INPUT_LINES))))
    return target, lines


@settings(derandomize=True, deadline=None, max_examples=350)
@given(demo_input_mutations())
def test_line_mutation_of_a_demo_input_exits_0_or_1_and_writes_nothing_on_1(mutation):
    target, lines = mutation
    with tempfile.TemporaryDirectory() as tmp:
        for index, path in enumerate(DEMO_INPUTS):
            copy = Path(tmp) / path.relative_to(DATA_DIR)
            copy.parent.mkdir(exist_ok=True)
            if index == target:
                copy.write_text("\n".join(lines) + "\n", encoding="utf-8")
            else:
                copy.write_bytes(path.read_bytes())
        out = Path(tmp) / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["pipeline", "--config", str(Path(tmp) / "demo" / "pipeline.cfg"),
                         "--output-dir", str(out), "--epochs", "2"])
        assert code in (0, 1)
        assert [str(w.message) for w in caught] == []
        assert code == 0 or not out.exists()


# --- misc ---------------------------------------------------------------------------------

def test_non_utf8_line_is_counted_as_text_reading_counts_lines(tmp_path):
    bad = tmp_path / "mixed-endings"
    bad.write_bytes(b"a\r\nb\rc\n\nok \xc3\xa9\n\xe9\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(bad))}: line 6: not UTF-8 text$"):
        with open_utf8(bad, ConfigError) as fh:
            fh.read()


def test_demo_config_command(capsys):
    assert main(["demo-config"]) == 0
    printed = capsys.readouterr().out.strip()
    assert Path(printed).is_file()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
