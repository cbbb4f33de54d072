import json
import re
import tempfile
import warnings
from pathlib import Path

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
from finetype.tagger import (StaticVectors, TaggerConfig, TaggerModel, _streamed_logits, init_params,
                             read_conll)
from finetype.taxonomy import parse_hierarchy
from finetype.textfile import open_utf8

from conftest import DATA_DIR, DEMO_DIR, demo_sidecar_sentences, rational_prf, sidecar_text


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory, demo_config_path):
    """One shared demo pipeline run."""
    out = tmp_path_factory.mktemp("pipeline")
    code = main(["pipeline", "--config", str(demo_config_path), "--output-dir", str(out)])
    assert code == 0
    return out


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


@pytest.mark.parametrize("flag, value, key", [
    ("--seed", "abc", "seed"), ("--epochs", "1.5", "epochs"),
    ("--granularity", "medium", "granularity"), ("--threshold", "x", "threshold"),
    ("--threshold", "2", "threshold"), ("--seed", "-1", "seed"),
    ("--output-dir", "", "output_dir"), ("--corpus", "", "corpus"), ("--model", "", "model"),
])
def test_flag_values_are_checked_like_config_values(tmp_path, demo_config_path, capsys, flag,
                                                     value, key):
    out = tmp_path / "out"
    code = main(["pipeline", "--config", str(demo_config_path), "--output-dir", str(out),
                 flag, value])
    err = capsys.readouterr().err
    assert code == 1
    assert key in err and "stage" not in err
    assert not out.exists()
    # the same value in the config file (whose output_dir is "out") fails the same way
    cfg = tmp_path / "edited.cfg"
    cfg.write_text(set_key(demo_cfg_with_absolute_paths(demo_config_path), key, value))
    assert main(["pipeline", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == err
    assert not out.exists()


def test_project_tags_to_coarse():
    h = parse_hierarchy(["person", "person.artist"])
    tags = ["B-person.artist", "I-person.artist", "O", "B-date", "B-person"]
    assert project_tags_to_coarse(tags, h) == [
        "B-person", "I-person", "O", "B-date", "B-person"
    ]


# --- ingest-kb -------------------------------------------------------------------

def test_ingest_kb_summary(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["ingest-kb", str(DEMO_DIR / "snapshot.jsonl")])
    assert code == 0
    assert "ingest: 30 records, 28 label keys, 28 alias keys" in capsys.readouterr().out
    assert not any(tmp_path.iterdir())


def test_ingest_kb_malformed_line_cited(tmp_path, capsys):
    snapshot = tmp_path / "bad.jsonl"
    good = json.dumps({"qid": "Q1", "label": "a"})
    snapshot.write_text(good + "\n" + good.replace("Q1", "Q2") + "\n{broken\n")
    code = main(["ingest-kb", str(snapshot)])
    assert code == 1
    assert "line 3" in capsys.readouterr().err


def test_ingest_kb_empty_snapshot_warns(tmp_path, capsys, monkeypatch):
    snapshot = tmp_path / "empty.jsonl"
    snapshot.write_text("")
    monkeypatch.chdir(tmp_path)
    code = main(["ingest-kb", str(snapshot)])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["empty.jsonl"]


def test_ingest_kb_missing_snapshot(tmp_path, capsys):
    code = main(["ingest-kb", str(tmp_path / "nope.jsonl")])
    assert code == 1


# --- pipeline ----------------------------------------------------------------------

def test_pipeline_demo_report_is_perfect(pipeline_out):
    report = json.loads((pipeline_out / "report.json").read_text())
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


def test_pipeline_missing_embeddings_fails_before_work(tmp_path, demo_config_path, capsys):
    cfg_text = demo_config_path.read_text().replace(
        "embeddings = wiki_vectors.vec", "embeddings = missing.vec"
    )
    cfg = tmp_path / "broken.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "out"
    code = main(["pipeline", "--config", str(cfg), "--output-dir", str(out)])
    assert code == 1
    assert "embeddings" in capsys.readouterr().err
    assert not (out / "linked.jsonl").exists()


def test_pipeline_untagged_corpus_needs_model_then_links_without_report(
    tmp_path, demo_config_path, pipeline_out, capsys
):
    untagged = tmp_path / "plain.conll"
    lines = []
    for sentence in (DEMO_DIR / "corpus.conll").read_text().split("\n\n"):
        for row in sentence.splitlines():
            if row.strip():
                lines.append(row.split("\t")[0])
        lines.append("")
    untagged.write_text("\n".join(lines))

    out = tmp_path / "out"
    code = main(["pipeline", "--config", str(demo_config_path),
                 "--corpus", str(untagged), "--output-dir", str(out)])
    assert code == 1  # no gold tags and no model is a validation failure
    capsys.readouterr()

    code = main(["pipeline", "--config", str(demo_config_path),
                 "--corpus", str(untagged), "--output-dir", str(out),
                 "--model", str(pipeline_out / "model.npz")])
    captured = capsys.readouterr()
    assert code == 0
    assert "skipping evaluation" in captured.err
    assert (out / "linked.jsonl").exists()
    assert not (out / "report.json").exists()


def demo_corpus_without_tags(path, sentences=None):
    """The demo corpus with the tags of ``sentences`` (default: all) removed."""
    text = (DEMO_DIR / "corpus.conll").read_text().split("\n\n")
    for i in range(len(text)) if sentences is None else sentences:
        text[i] = "\n".join(row.split("\t")[0] for row in text[i].splitlines())
    path.write_text("\n\n".join(text))
    return path


@pytest.mark.parametrize("command, flag, untagged", [
    ("pipeline", None, [1]),
    ("pipeline", "--model", [1]),
    ("evaluate", "--pred", [1]),
    ("evaluate", "--pred", None),
])
def test_gold_corpus_untagged_in_part_exits_1_before_any_step(
    tmp_path, demo_config_path, pipeline_out, capsys, command, flag, untagged
):
    # scoring needs gold tags on every sentence; only pipeline skips a wholly untagged corpus
    corpus = demo_corpus_without_tags(tmp_path / "partly.conll", untagged)
    out = tmp_path / "out"
    given = {"--model": ["--model", str(pipeline_out / "model.npz")],
             "--pred": ["--pred", str(pipeline_out / "linked.jsonl")]}.get(flag, [])
    code = main([command, "--config", str(demo_config_path), "--corpus", str(corpus),
                 "--output-dir", str(out), *given])
    assert code == 1
    assert capsys.readouterr().err.endswith(
        f"stage failed: load inputs\nerror: {corpus}: sentence {1 if untagged else 0} has no"
        " gold tags; evaluation needs them on every sentence\n")
    assert not out.exists()  # no model.npz, tagged.conll, linked.jsonl or report


def test_pipeline_stage_failure_identifies_stage(tmp_path, demo_config_path, capsys):
    # corpus parse failure surfaces the failing stage on stderr
    bad_corpus = tmp_path / "bad.conll"
    bad_corpus.write_text("a\tO\tX\n")
    code = main(["pipeline", "--config", str(demo_config_path),
                 "--corpus", str(bad_corpus), "--output-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert "stage failed: load inputs" in captured.err


# --- train / tag / link chained -------------------------------------------------------

def test_staged_commands_match_pipeline(tmp_path, demo_config_path, pipeline_out, capsys):
    out = tmp_path / "staged"
    for argv in (
        ["train", "--config", str(demo_config_path), "--output-dir", str(out)],
        ["tag", "--config", str(demo_config_path), "--output-dir", str(out),
         "--model", str(out / "model.npz")],
        ["link", "--config", str(demo_config_path), "--output-dir", str(out)],
        ["evaluate", "--config", str(demo_config_path), "--output-dir", str(out)],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert (out / "linked.jsonl").read_bytes() == (pipeline_out / "linked.jsonl").read_bytes()
    assert (out / "report.json").read_bytes() == (pipeline_out / "report.json").read_bytes()


# Slow twins of the demo run: each forces one fast path's fallback over a whole
# run and must write the demo run's files byte for byte.
DEMO_OUTPUTS = ["tagged.conll", "linked.jsonl", "report.json", "report.txt"]


def test_demo_tagged_in_float64_only_writes_the_demo_files(tmp_path, demo_config_path,
                                                           pipeline_out, monkeypatch, capsys):
    calls = []

    def no_float32_copy(params):  # every group then runs in float64
        calls.append(params)

    monkeypatch.setattr(tagger, "_single_precision", no_float32_copy)
    out = tmp_path / "out"
    for argv in (["tag", "--model", str(pipeline_out / "model.npz")], ["link"], ["evaluate"]):
        assert main([*argv, "--config", str(demo_config_path), "--output-dir", str(out)]) == 0
    capsys.readouterr()
    assert calls
    for name in DEMO_OUTPUTS:
        assert (out / name).read_bytes() == (pipeline_out / name).read_bytes(), name


def test_demo_with_vector_rows_read_one_by_one_writes_the_demo_files(
        tmp_path, demo_config_path, pipeline_out, monkeypatch, capsys):
    calls = []

    def refuse(*args, **kwargs):  # each row is then read through float
        calls.append(args)
        raise ValueError("refused")

    monkeypatch.setattr(np, "loadtxt", refuse)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(demo_config_path), "--output-dir", str(out)]) == 0
    capsys.readouterr()
    assert calls
    for name in [*DEMO_OUTPUTS, "model.npz"]:
        assert (out / name).read_bytes() == (pipeline_out / name).read_bytes(), name


# --- evaluate ---------------------------------------------------------------------------

def test_evaluate_stage_isolation(tmp_path, demo_config_path, pipeline_out, capsys):
    out = tmp_path / "eval"
    code = main(["evaluate", "--config", str(demo_config_path),
                 "--pred", str(pipeline_out / "linked.jsonl"),
                 "--output-dir", str(out)])
    assert code == 0
    capsys.readouterr()
    assert (out / "report.json").read_bytes() == (pipeline_out / "report.json").read_bytes()
    assert (out / "report.txt").read_bytes() == (pipeline_out / "report.txt").read_bytes()


def test_evaluate_coarse_granularity(tmp_path, demo_config_path, pipeline_out, capsys):
    out = tmp_path / "coarse"
    code = main(["evaluate", "--config", str(demo_config_path),
                 "--pred", str(pipeline_out / "linked.jsonl"),
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


def eval_cfg(tmp_path):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text(f"hierarchy = {DEMO_DIR / '..' / 'wikigold.types'}\n")
    return cfg


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
    out = tmp_path / "out"
    code = main(["evaluate", "--config", str(eval_cfg(tmp_path)), "--pred", str(pred),
                 "--gold", str(gold), "--output-dir", str(out)])
    assert code == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    row = report["per_class"]["person"]
    p, r, f = rational_prf(*counts)
    assert (row["precision"], row["recall"]) == (float(p), float(r))
    assert row["f1"] == report["micro_f1"] == pytest.approx(float(f), abs=1e-12)
    assert (row["precision"], row["recall"], round(100 * row["f1"])) == pinned


def test_evaluate_tokenization_mismatch_cites_sentence(tmp_path, capsys):
    pred, gold = write_eval_fixture(tmp_path, tp=2, fp=0, fn=0)
    records = [json.loads(l) for l in pred.read_text().splitlines()]
    records[1]["surface"] = "wrong text"
    pred.write_text("\n".join(json.dumps(r) for r in records))
    code = main(["evaluate", "--config", str(eval_cfg(tmp_path)), "--pred", str(pred),
                 "--gold", str(gold), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert "tokenization mismatch in sentence 1" in capsys.readouterr().err


# A second linked.jsonl line that is not an object, or has a field of the
# wrong type, which the error names; the test adds a line that is not JSON.
LINKED_RECORD_CASES = {
    "int-line": 5, "array-line": [1], "string-line": "x",
    "doc-string": {"doc": "x"}, "doc-null": {"doc": None}, "doc-bool": {"doc": True},
    "start-float": {"start": 0.5}, "end-float": {"end": 1.0}, "surface-int": {"surface": 3},
    "fine-null": {"fine": None}, "fine-list": {"fine": ["person"]},
}


@pytest.mark.parametrize("case", [*LINKED_RECORD_CASES, "invalid-json"])
def test_malformed_linked_line_exits_1_and_cites_it(tmp_path, capsys, case):
    pred, gold = write_eval_fixture(tmp_path, tp=2, fp=0, fn=0)
    first, second = pred.read_text().splitlines()
    bad = LINKED_RECORD_CASES.get(case)
    line = "{" if case == "invalid-json" else json.dumps(
        {**json.loads(second), **bad} if isinstance(bad, dict) else bad)
    pred.write_text(f"{first}\n{line}\n")
    code = main(["evaluate", "--config", str(eval_cfg(tmp_path)), "--pred", str(pred),
                 "--gold", str(gold), "--output-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"{pred}: line 2: " in err
    if isinstance(bad, dict):
        assert repr(next(iter(bad))) in err
    if case == "invalid-json":  # one line cited, and a column on it
        assert err.endswith(f"error: {pred}: line 2: invalid JSON at column 2:"
                            " Expecting property name enclosed in double quotes\n")
    assert not (tmp_path / "out" / "report.json").exists()


def test_evaluate_span_outside_sentence(tmp_path, capsys):
    pred, gold = write_eval_fixture(tmp_path, tp=1, fp=0, fn=0)
    records = [json.loads(l) for l in pred.read_text().splitlines()]
    records[0]["end"] = 99
    pred.write_text("\n".join(json.dumps(r) for r in records))
    code = main(["evaluate", "--config", str(eval_cfg(tmp_path)), "--pred", str(pred),
                 "--gold", str(gold), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert "sentence 0" in capsys.readouterr().err


def set_fields(lines, lineno, **fields):
    lines[lineno - 1] = json.dumps({**json.loads(lines[lineno - 1]), **fields})


def surface_on_line_3(lines):
    set_fields(lines, 3, surface="Apple Inc")
    return ("line 3: tokenization mismatch in sentence 0: prediction surface 'Apple Inc'"
            " != corpus text 'Apple'")


def no_such_sentence(lines):
    set_fields(lines, 5, doc=8)
    return "line 5: tokenization mismatch in sentence 8: no such gold sentence"


def span_outside_sentence(lines):
    set_fields(lines, 2, end=99)
    return "line 2: tokenization mismatch in sentence 0: span [12, 99) outside 18 tokens"


def duplicate_record(lines):
    lines.insert(3, lines[0])
    return "line 4: duplicate predicted span: (0, 8, 11, 'date'), first on line 1"


def first_error_in_file_order(lines):
    lines.reverse()  # sentence 7's record comes first, sentence 0's last
    set_fields(lines, 1, surface="Lyon")
    set_fields(lines, 21, surface="2012")
    return ("line 1: tokenization mismatch in sentence 7: prediction surface 'Lyon'"
            " != corpus text 'Paris'")


@pytest.mark.parametrize("edit", [surface_on_line_3, no_such_sentence, span_outside_sentence,
                                  duplicate_record, first_error_in_file_order])
def test_evaluate_record_error_names_prediction_file_and_line(
    tmp_path, demo_config_path, pipeline_out, capsys, edit
):
    lines = (pipeline_out / "linked.jsonl").read_text().splitlines()
    expected = edit(lines)
    pred = tmp_path / "linked.jsonl"
    pred.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main(["evaluate", "--config", str(demo_config_path), "--pred", str(pred),
                 "--output-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err.endswith(f"error: {pred}: {expected}\n")
    assert not out.exists()


# --- alternative vector sources and exit codes ----------------------------------------------

def demo_cfg_with_absolute_paths(demo_config_path):
    """Demo config text with path keys rewritten, so copies relocate safely."""
    lines = []
    for line in demo_config_path.read_text().splitlines():
        key = line.split("=")[0].strip()
        if key in ("hierarchy", "kb", "embeddings", "token_vectors", "corpus"):
            value = line.split("=", 1)[1].strip()
            line = f"{key} = {(demo_config_path.parent / value).resolve()}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def set_key(text, key, value):
    """Config text with ``key`` set to ``value``: its line replaced, or one appended."""
    line = f"{key} = {value}"
    edited, count = re.subn(rf"^{re.escape(key)} =.*$", lambda _: line, text, flags=re.M)
    return edited if count else text + line + "\n"


@pytest.mark.parametrize("key", sorted(cli._PATH_KEYS))
def test_empty_path_value_fails_before_work(tmp_path, demo_config_path, capsys, monkeypatch, key):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "blank.cfg"
    cfg.write_text(set_key(demo_cfg_with_absolute_paths(demo_config_path), key, ""))
    code = main(["pipeline", "--config", str(cfg)])
    assert code == 1
    assert f"key {key!r}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["blank.cfg"]


def test_oversized_tagger_fails_before_work(tmp_path, demo_config_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(set_key(demo_cfg_with_absolute_paths(demo_config_path), "hidden_size", HUGE))
    code = main(["pipeline", "--config", str(cfg)])
    assert code == 1
    assert "hidden_size" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["huge.cfg"]


def test_parameter_cap_is_checked_at_the_vectors_width(tmp_path, demo_config_path, capsys,
                                                        monkeypatch):
    # 5700 units pass the cap at the 16-d width build_config assumes, and would
    # allocate about 1 GiB there; over these 200-d vectors they exceed it
    monkeypatch.chdir(tmp_path)
    wide = tmp_path / "wide.vec"
    wide.write_text("".join(f"{token} {' '.join(['0.5'] * 200)}\n" for token in ("ocean", ".")))
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(set_key(set_key(demo_cfg_with_absolute_paths(demo_config_path), "hidden_size",
                                   "5700"), "token_vectors", wide))
    code = main(["pipeline", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: key 'hidden_size': with the 200-dimensional vectors in {wide}, " in err
    assert "MAX_PARAMETERS" in err and "stage failed: load inputs" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wide.cfg", "wide.vec"]


@pytest.mark.parametrize("key, value", [("beta1", "0.9"), ("beta2", "0.999"), ("eps", "1e-8"),
                                        ("embedding_dim", "16"), ("case_sensitive", "false")])
def test_deleted_key_is_unknown(tmp_path, demo_config_path, capsys, key, value):
    # Adam's constants are fixed, the vector width is the vectors', and KB keys
    # are always casefolded
    cfg = tmp_path / "edited.cfg"
    cfg.write_text(set_key(demo_cfg_with_absolute_paths(demo_config_path), key, value))
    out = tmp_path / "out"
    code = main(["pipeline", "--config", str(cfg), "--output-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"error: unknown configuration key: {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, key", [("train", "corpus"), ("pipeline", "corpus"),
                                          ("pipeline", "train_corpus")])
def test_empty_training_corpus_fails_before_training(tmp_path, demo_config_path, capsys,
                                                    command, key):
    empty = tmp_path / "empty.conll"
    empty.write_text("\n\n")
    cfg = tmp_path / "edited.cfg"
    cfg.write_text(set_key(demo_cfg_with_absolute_paths(demo_config_path), key, empty))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--output-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert f"error: training corpus {empty} has no sentences" in err
    assert "stage failed: load inputs" in err and "train tagger" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["pairwise-mean", "mean-vector", "median"])
def test_similarity_mode_accepts_only_pairwise_mean(tmp_path, demo_config_path, capsys, value):
    cfg = tmp_path / "mode.cfg"
    cfg.write_text(set_key(demo_cfg_with_absolute_paths(demo_config_path), "similarity_mode",
                           value))
    out = tmp_path / "out"
    code = main(["pipeline", "--config", str(cfg), "--output-dir", str(out)])
    if value == "pairwise-mean":
        assert code == 0 and (out / "linked.jsonl").exists()
    else:
        assert code == 1
        assert "key 'similarity_mode'" in capsys.readouterr().err
        assert not out.exists()


def test_pipeline_with_zero_epochs_runs(tmp_path, demo_config_path, capsys):
    out = tmp_path / "out"
    code = main(["pipeline", "--config", str(demo_config_path), "--output-dir", str(out),
                 "--epochs", "0"])
    assert code == 0
    assert "0 epochs, final loss none" in capsys.readouterr().out
    assert (out / "linked.jsonl").exists()


# Keys the demo config leaves unset; they are edited too, after every key it sets.
UNSET_KEYS = ["bidirectional", "vector_source", "train_corpus", "model"]
HUGE = "99999999999999999999"
EDITS = ["", "garb@ge", "-1", "0", "1", "nan", "inf", HUGE]


def test_config_edits_never_fail_after_work_starts(tmp_path, demo_config_path, capsys):
    # a bad value exits 1 before any work; a value that parses must run (exit 0).
    # A huge epoch count is legal and would only train for ever, so it is left out.
    base = set_key(demo_cfg_with_absolute_paths(demo_config_path), "epochs", "1")
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


def sidecar_config(tmp_path, demo_config_path, text):
    """The demo config with a precomputed sidecar holding ``text``; returns
    the config's and the sidecar's paths."""
    sidecar = tmp_path / "context.vec"
    sidecar.write_text(text)
    cfg = tmp_path / "sidecar.cfg"
    cfg.write_text(
        demo_cfg_with_absolute_paths(demo_config_path).replace(
            f"token_vectors = {DEMO_DIR / 'token_vectors.vec'}",
            f"token_vectors = {sidecar}\nvector_source = precomputed",
        )
    )
    return cfg, sidecar


def test_pipeline_with_precomputed_sidecar_matches_static_run(
    tmp_path, demo_config_path, pipeline_out, capsys
):
    cfg, _ = sidecar_config(tmp_path, demo_config_path, sidecar_text(demo_sidecar_sentences()))
    out = tmp_path / "out"
    code = main(["pipeline", "--config", str(cfg), "--output-dir", str(out)])
    capsys.readouterr()
    assert code == 0
    # identical vectors and seed: the whole run reproduces the static-table one
    assert (out / "linked.jsonl").read_bytes() == (pipeline_out / "linked.jsonl").read_bytes()
    assert (out / "report.json").read_bytes() == (pipeline_out / "report.json").read_bytes()


@pytest.mark.parametrize("case", ["superscript-two", "5000-digits", "missing-sentence",
                                  "short-sentence", "header", "header-blank-lines"])
def test_pipeline_sidecar_fault_names_it_and_fails_before_work(tmp_path, demo_config_path,
                                                               capsys, case):
    sentences, short = demo_sidecar_sentences(), demo_sidecar_sentences()
    short[1] = short[1][:-1]
    text, message = {
        "superscript-two": ("\u00b2\n1 0\n", "line 1: expected a dimension header"),
        "5000-digits": ("1" * 5000 + "\n1 0\n", "line 1: dimension header is too long"),
        "missing-sentence": (sidecar_text(sentences[1:]), (
            f"sidecar holds {len(sentences) - 1} sentences but the corpus"
            f" {DEMO_DIR / 'corpus.conll'} has {len(sentences)}")),
        "short-sentence": (sidecar_text(short), (
            f"sentence 1: sidecar holds {len(sentences[1]) - 1} vectors"
            f" for {len(sentences[1])} tokens")),
        "header": ("16\n", "sidecar contains no sentences"),
        "header-blank-lines": ("16\n\n\n", "sidecar contains no sentences"),
    }[case]
    cfg, sidecar = sidecar_config(tmp_path, demo_config_path, text)
    out = tmp_path / "out"
    code = main(["pipeline", "--config", str(cfg), "--output-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err.endswith(f"error: {sidecar}: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("label,code", [("person.artist", 1), ("person", 0), ("date", 0)])
def test_link_tagged_takes_only_coarse_labels(tmp_path, demo_config_path, capsys, label, code):
    # the rule for a supplied model's tags: O, or B-/I- over a hierarchy root
    # or over a label outside the hierarchy
    tagged = tmp_path / "tagged.conll"
    tagged.write_text(f"Michael\tB-{label}\nJordan\tI-{label}\nplays\tO\n")
    out = tmp_path / "out"
    assert main(["link", "--config", str(demo_config_path), "--tagged", str(tagged),
                 "--output-dir", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.endswith(f"error: {tagged}: tag 'B-{label}' is not over a hierarchy root\n")
        assert not out.exists()
    else:
        assert (out / "linked.jsonl").exists()


@pytest.mark.parametrize("output_dir", ["afile", "afile/sub"])
def test_output_dir_naming_a_file_fails_before_work(tmp_path, demo_config_path, capsys,
                                                   monkeypatch, output_dir):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("not a directory\n")
    code = main(["pipeline", "--config", str(demo_config_path), "--output-dir", output_dir])
    err = capsys.readouterr().err
    assert code == 1
    assert f"output_dir is not a directory: {tmp_path / 'afile'}" in err
    assert "stage failed" not in err  # rejected with the path checks, before loading
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").read_text() == "not a directory\n"


def with_line(src, dst, line):
    """Copy ``src`` to ``dst`` with the bytes ``line`` appended as a line; returns its number."""
    data = src.read_bytes()
    if not data.endswith(b"\n"):
        data += b"\n"
    dst.write_bytes(data + line + b"\n")
    return data.count(b"\n") + 1


def bad_input_run(case, tmp_path, demo_config_path, pipeline_out, line):
    """(argv, bad file, number of its bad line) for a run reading one input
    whose usual content has the bytes ``line`` appended as a line."""
    text = demo_cfg_with_absolute_paths(demo_config_path)
    good, bad = tmp_path / "good", tmp_path / f"bad-{case}"
    if case == "config":
        good.write_text(text)
    elif case == "sidecar":
        good.write_text("16\n" + " ".join(["0.5"] * 16) + "\n")
    corpus = DEMO_DIR / "corpus.conll"
    sources = {"hierarchy": DATA_DIR / "wikigold.types", "kb": DEMO_DIR / "snapshot.jsonl",
               "embeddings": DEMO_DIR / "wiki_vectors.vec",
               "token_vectors": DEMO_DIR / "token_vectors.vec", "corpus": corpus,
               "train_corpus": corpus, "gold": corpus, "tagged": pipeline_out / "tagged.conll",
               "pred": pipeline_out / "linked.jsonl"}
    lineno = with_line(sources.get(case, good), bad, line)
    if case in ("hierarchy", "kb", "embeddings", "token_vectors", "corpus", "train_corpus"):
        text = set_key(text, case, bad)
    elif case == "sidecar":
        text = set_key(set_key(text, "token_vectors", bad), "vector_source", "precomputed")
    if case == "corpus":  # pipeline then reads two corpora, the bad one first
        text = set_key(text, "train_corpus", corpus)
    cfg = bad if case == "config" else tmp_path / "edited.cfg"
    if case != "config":
        cfg.write_text(text)
    argv = {"tagged": ["link", "--tagged", str(bad)],
            "gold": ["evaluate", "--gold", str(bad), "--pred", str(pipeline_out / "linked.jsonl")],
            "pred": ["evaluate", "--pred", str(bad)]}.get(case, ["pipeline"])
    return argv + ["--config", str(cfg), "--output-dir", str(tmp_path / "out")], bad, lineno


INPUT_CASES = ["config", "hierarchy", "kb", "embeddings", "token_vectors", "sidecar", "corpus",
               "train_corpus", "tagged", "gold", "pred"]


MALFORMED_LINES = {  # one line that the case's reader rejects
    "config": b"no equals sign", "hierarchy": b"person", "kb": b"{}", "embeddings": b"tok 0.5 x",
    "token_vectors": b"tok 0.5 x", "sidecar": b"0.5", "corpus": b"a\tb\tc",
    "train_corpus": b"a\tb\tc", "tagged": b"a\tb\tc", "gold": b"a\tb\tc", "pred": b"[1]",
}
# Each input with one bad line appended, and the error text after its line
# number: bytes that are not UTF-8, a line its reader rejects, a tag not BIO.
BAD_INPUT_LINES = [
    *((case, "caf\xe9".encode("latin-1"), "not UTF-8 text") for case in INPUT_CASES),
    *((case, MALFORMED_LINES[case], "") for case in INPUT_CASES),
    *((case, b"Paris\tX-date", "not a BIO tag: 'X-date'")
      for case in ["corpus", "train_corpus", "tagged", "gold"]),
]


@pytest.mark.parametrize("case, line, text", BAD_INPUT_LINES)
def test_bad_input_line_exits_1_and_cites_file_and_line(tmp_path, demo_config_path, pipeline_out,
                                                        capsys, case, line, text):
    argv, bad, lineno = bad_input_run(case, tmp_path, demo_config_path, pipeline_out, line)
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"error: {bad}: line {lineno}: {text}" in err
    assert str(DEMO_DIR / "corpus.conll") not in err  # nor the good corpus read with a bad one
    if case not in ("config", "pred"):  # read before any stage, and at the evaluate stage
        assert "stage failed: load inputs" in err
    assert not (tmp_path / "out").exists()


def with_bad_vector_row(src, dst, value):
    """Copy the vector file ``src`` to ``dst`` with a row whose first value is
    ``value`` appended; returns that row's line number."""
    lines = src.read_text().splitlines()
    width = len(lines[-1].split()) - 1
    dst.write_text("\n".join(lines + ["nonfinite " + " ".join([value] + ["0.5"] * (width - 1))])
                   + "\n")
    return len(lines) + 1


# every reader refuses nan and ±inf; the vector readers also refuse a row whose
# sum of squares overflows, which would make norms and training overflow
NON_FINITE_CASES = (
    [(reader, value) for reader in ("embeddings", "token_vectors", "sidecar", "model")
     for value in ("nan", "inf", "-inf")]
    + [(reader, value) for reader in ("embeddings", "token_vectors", "sidecar")
       for value in ("1e200", "1e308")]
)


@pytest.mark.parametrize(("reader", "value"), NON_FINITE_CASES)
def test_non_finite_input_exits_1_and_cites_file_and_line(tmp_path, demo_config_path, capsys,
                                                          reader, value):
    text = demo_cfg_with_absolute_paths(demo_config_path)
    bad = tmp_path / f"bad-{reader}"
    argv = ["pipeline", "--output-dir", str(tmp_path / "out")]
    if reader in ("embeddings", "token_vectors"):
        source = DEMO_DIR / ("wiki_vectors.vec" if reader == "embeddings" else "token_vectors.vec")
        place = f"{bad}: line {with_bad_vector_row(source, bad, value)}: "
        text = set_key(text, reader, bad)
    elif reader == "sidecar":
        good_row = " ".join(["0.5"] * 16)
        bad.write_text(f"16\n{good_row}\n\n{good_row}\n" + " ".join(["0.5"] * 15 + [value]) + "\n")
        place = f"{bad}: line 5: "  # the second row of the second sentence
        text = set_key(set_key(text, "token_vectors", bad), "vector_source", "precomputed")
    else:
        save_random_model(bad, embedding_dim=16)
        with np.load(bad) as data:
            members = {key: data[key] for key in data.files}
        members["dec_b"][1] = float(value)
        with open(bad, "wb") as fh:
            np.savez(fh, **members)
        place = f"{bad}: member 'dec_b' "
        argv += ["--model", str(bad)]
    cfg = tmp_path / "edited.cfg"
    cfg.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1, err
    assert caught == []
    assert f"error: {place}" in err and "finite" in err
    assert "stage failed: load inputs" in err
    assert not (tmp_path / "out").exists()


# Values a vector row may hold: refused at load (exit 1), or used with no warning
# (exit 0). "1.3e154 once" sets one component; every other value sets them all.
ROW_VALUES = ["nan", "inf", "-inf", "1e150", "1e153", "-3e153", "1.3e154 once", "1e200", "1e308",
              "5e-324", "-0.0"]


def with_row(values, value):
    """``values`` with every component set to ``value``, or the first to its number
    when it ends in " once"."""
    number, _, once = value.partition(" ")
    return [number, *values[1:]] if once else [number] * len(values)


def sidecar_rows():
    """Per demo corpus sentence, its tokens and their token-table rows as text."""
    provider = StaticVectors(cli.load_embeddings(DEMO_DIR / "token_vectors.vec"))
    return [(ex.tokens, [[repr(float(v)) for v in row]
                         for row in provider.vectors_for(i, ex.tokens)])
            for i, ex in enumerate(read_conll(DEMO_DIR / "corpus.conll"))]


@pytest.mark.parametrize("source", ["embeddings", "token_vectors", "sidecar"])
def test_extreme_vector_rows_never_fail_after_work_starts_or_warn(tmp_path, demo_config_path,
                                                                  pipeline_out, capsys, source):
    # "ocean" is the only corpus token the linker's table holds, and a description
    # token; "." is the corpus's most frequent token. With "embeddings" the demo
    # model tags, so "Atlantic Ocean" is linked.
    token = "ocean" if source == "embeddings" else "."
    base = demo_cfg_with_absolute_paths(demo_config_path)
    argv = ["pipeline", "--epochs", "2"]
    if source == "embeddings":
        argv += ["--model", str(pipeline_out / "model.npz")]
    if source == "sidecar":
        sentences = sidecar_rows()
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
                                                                     pipeline_out, capsys):
    # as a model trained at learning_rate = 1e100 would be: its weights do not fit float32
    model = TaggerModel.load(pipeline_out / "model.npz")
    model.params = {key: value * 1e100 for key, value in model.params.items()}
    model.save(tmp_path / "scaled.npz")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["tag", "--config", str(demo_config_path), "--model", str(tmp_path / "scaled.npz"),
                     "--output-dir", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    assert caught == []
    provider = StaticVectors(cli.load_embeddings(DEMO_DIR / "token_vectors.vec"))
    corpus = read_conll(DEMO_DIR / "corpus.conll")
    want = dict(_streamed_logits(model.params, model.config,
                                 [provider.vectors_for(i, ex.tokens) for i, ex in enumerate(corpus)]))
    assert [ex.gold_tags for ex in read_conll(tmp_path / "out" / "tagged.conll")] == [
        [model.tags[j] for j in want[i].argmax(axis=1)] for i in range(len(corpus))]


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


@pytest.mark.parametrize("command", ["train", "tag", "pipeline", "link", "evaluate"])
def test_only_the_tagger_needs_token_vectors(tmp_path, demo_config_path, pipeline_out, capsys,
                                             command):
    # the tagger never falls back to the linker's table
    cfg = tmp_path / "no-token-vectors.cfg"
    cfg.write_text(re.sub(r"^token_vectors =.*\n", "",
                          demo_cfg_with_absolute_paths(demo_config_path), flags=re.M))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--output-dir", str(out)]
    argv += {"tag": ["--model", str(pipeline_out / "model.npz")],
             "link": ["--tagged", str(pipeline_out / "tagged.conll")],
             "evaluate": ["--pred", str(pipeline_out / "linked.jsonl")]}.get(command, [])
    code = main(argv)
    err = capsys.readouterr().err
    if command in ("link", "evaluate"):
        assert code == 0, err
        name = "linked.jsonl" if command == "link" else "report.json"
        assert (out / name).read_bytes() == (pipeline_out / name).read_bytes()
    else:
        assert code == 1
        assert err == "error: token_vectors is not configured\n"
        assert not out.exists()


def test_non_utf8_line_is_counted_as_text_reading_counts_lines(tmp_path):
    bad = tmp_path / "mixed-endings"
    bad.write_bytes(b"a\r\nb\rc\n\nok \xc3\xa9\n\xe9\n")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(bad))}: line 6: not UTF-8 text$"):
        with open_utf8(bad, ConfigError) as fh:
            fh.read()


def test_pipeline_skips_subtype_without_word_token(tmp_path, demo_config_path, capsys):
    hierarchy = tmp_path / "types"
    hierarchy.write_text((DEMO_DIR / ".." / "wikigold.types").read_text() + "person.+\n")
    cfg = tmp_path / "plus.cfg"
    cfg.write_text(set_key(demo_cfg_with_absolute_paths(demo_config_path), "hierarchy",
                           hierarchy))
    out = tmp_path / "out"
    code = main(["pipeline", "--config", str(cfg), "--output-dir", str(out)])
    capsys.readouterr()
    assert code == 0
    # the demo has no mention a "+" subtype could take, so linking is unchanged
    plain = tmp_path / "plain"
    assert main(["pipeline", "--config", str(demo_config_path), "--output-dir", str(plain)]) == 0
    capsys.readouterr()
    assert (out / "linked.jsonl").read_bytes() == (plain / "linked.jsonl").read_bytes()


def test_pipeline_runtime_failure_exits_2(tmp_path, demo_config_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(
        demo_cfg_with_absolute_paths(demo_config_path).replace(
            "learning_rate = 0.02", "learning_rate = 1e200"
        ).replace("dropout = 0.1", "dropout = 0.0")
    )
    import numpy as np

    with np.errstate(all="ignore"):
        code = main(["pipeline", "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "stage failed: train tagger" in captured.err
    assert "non-finite" in captured.err


@pytest.mark.parametrize("command", ["pipeline", "link"])
def test_missing_class_roots_fail_before_work(tmp_path, demo_config_path, pipeline_out, capsys,
                                              command):
    cfg = tmp_path / "no-person.cfg"
    cfg.write_text(
        demo_cfg_with_absolute_paths(demo_config_path).replace("class_roots.person = Q5\n", "")
    )
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--output-dir", str(out)]
    if command == "link":
        argv += ["--tagged", str(pipeline_out / "tagged.conll")]
    code = main(argv)
    assert code == 1
    assert "class_roots.person" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


# --- model files ----------------------------------------------------------------------------

def save_random_model(path, embedding_dim, tags=("O", "B-person", "I-person")):
    cfg = TaggerConfig(hidden_size=4, embedding_dim=embedding_dim)
    tags = list(tags)
    TaggerModel(cfg, tags, init_params(cfg, len(tags), np.random.default_rng(0))).save(path)


@pytest.mark.parametrize("command", ["pipeline", "tag"])
def test_model_dimension_mismatch_fails_before_work(tmp_path, demo_config_path, capsys, command):
    model = tmp_path / "model8.npz"
    save_random_model(model, embedding_dim=8)  # the demo's token vectors are 16-d
    out = tmp_path / "out"
    code = main([command, "--config", str(demo_config_path), "--output-dir", str(out),
                 "--model", str(model)])
    err = capsys.readouterr().err
    assert code == 1
    assert "8-dimensional" in err and "dimension 16" in err
    assert not (out / "tagged.conll").exists()


UNPICKLED = []


def record_unpickling():
    UNPICKLED.append(True)


class PicklePayload:
    def __reduce__(self):
        return record_unpickling, ()


# Saved tag lists that are not a nonempty list of distinct strings; a string's
# characters would pass for tags, and "O" is a valid tag.
BAD_MODEL_TAGS = {"non-string-tag": ["O", 5, "B-person"],
                  "duplicate-tags": ["O", "B-person", "B-person"], "tags-not-a-list": "O",
                  "no-tags": []}


@pytest.mark.parametrize("kind", ["garbage", "truncated", "object-member", "wrong-shapes",
                                  *BAD_MODEL_TAGS])
def test_malformed_model_file_exits_1_and_names_it(tmp_path, demo_config_path, capsys, kind):
    model = tmp_path / "model.npz"
    if kind == "garbage":
        model.write_text("garbage\n")
    elif kind == "truncated":
        save_random_model(model, embedding_dim=16)
        model.write_bytes(model.read_bytes()[: model.stat().st_size // 2])
    elif kind == "object-member":
        save_random_model(model, embedding_dim=16)
        with np.load(model) as data:
            members = {key: data[key] for key in data.files}
        members["dec_b"] = np.array([PicklePayload()], dtype=object)
        with open(model, "wb") as fh:
            np.savez(fh, **members)
    elif kind in BAD_MODEL_TAGS:
        cfg, tags = TaggerConfig(hidden_size=4, embedding_dim=16), BAD_MODEL_TAGS[kind]
        TaggerModel(cfg, tags, init_params(cfg, len(tags), np.random.default_rng(0))).save(model)
    else:
        cfg = TaggerConfig(hidden_size=4, embedding_dim=16)
        TaggerModel(cfg, ["O"], init_params(cfg, 3, np.random.default_rng(0))).save(model)
    code = main(["tag", "--config", str(demo_config_path), "--output-dir", str(tmp_path / "out"),
                 "--model", str(model)])
    assert code == 1
    assert str(model) in capsys.readouterr().err
    assert UNPICKLED == []


TAG_SET_CASES = {"not-bio": (["O", "X"], "X"), "no-label": (["B-", "O"], "B-"),
                 "non-root-label": (["O", "B-person.artist", "I-person.artist"], "B-person.artist")}


@pytest.mark.parametrize("command, case", [
    *(("pipeline", case) for case in TAG_SET_CASES), *(("tag", case) for case in TAG_SET_CASES),
], ids=[*TAG_SET_CASES, *(f"tag-{case}" for case in TAG_SET_CASES)])
def test_model_tag_set_checked_before_work(tmp_path, demo_config_path, capsys, command, case):
    tags, bad = TAG_SET_CASES[case]
    model = tmp_path / "model.npz"
    save_random_model(model, embedding_dim=16, tags=tags)
    out = tmp_path / "out"
    code = main([command, "--config", str(demo_config_path), "--output-dir", str(out),
                 "--model", str(model)])
    err = capsys.readouterr().err
    assert code == 1
    assert str(model) in err and repr(bad) in err
    assert not out.exists()


def test_pipeline_missing_model_fails_before_any_input_loads(tmp_path, demo_config_path, capsys,
                                                             monkeypatch):
    def must_not_load(*args, **kwargs):
        raise AssertionError("an input was loaded")

    for name in ("load_hierarchy", "load_snapshot", "load_embeddings", "read_conll"):
        monkeypatch.setattr(cli, name, must_not_load)
    out = tmp_path / "out"
    code = main(["pipeline", "--config", str(demo_config_path), "--output-dir", str(out),
                 "--model", str(tmp_path / "missing.npz")])
    err = capsys.readouterr().err
    assert code == 1
    assert "model does not exist" in err
    assert "stage" not in err
    assert not out.exists()


# --- misc ---------------------------------------------------------------------------------

def test_demo_config_command(capsys):
    assert main(["demo-config"]) == 0
    printed = capsys.readouterr().out.strip()
    assert Path(printed).is_file()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
