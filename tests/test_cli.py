import json
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from finetype.cli import (
    ConfigError,
    build_config,
    load_config,
    main,
    parse_config_text,
    project_tags_to_coarse,
)
from finetype.taxonomy import parse_hierarchy

from conftest import DEMO_DIR


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


def test_parse_config_rejects_bad_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("a = 1\nnot a pair\n")


def test_parse_config_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2\n")


def test_build_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        build_config({"frobnicate": "yes"}, Path("."))


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


def test_build_config_bad_value_cites_key():
    with pytest.raises(ConfigError, match="'seed'"):
        build_config({"seed": "lots"}, Path("."))
    with pytest.raises(ConfigError, match="granularity"):
        build_config({"granularity": "medium"}, Path("."))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.cfg")


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


# --- ingest-kb -------------------------------------------------------------------

def test_ingest_kb_summary(tmp_path, capsys):
    out = tmp_path / "kb.pkl"
    code = main(["ingest-kb", str(DEMO_DIR / "snapshot.jsonl"), str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "30 records" in printed
    with open(out, "rb") as fh:
        kb = pickle.load(fh)
    assert kb.lookup("iPad").id == 2796


def test_ingest_kb_malformed_line_cited(tmp_path, capsys):
    snapshot = tmp_path / "bad.jsonl"
    good = json.dumps({"qid": "Q1", "label": "a"})
    snapshot.write_text(good + "\n" + good.replace("Q1", "Q2") + "\n{broken\n")
    code = main(["ingest-kb", str(snapshot), str(tmp_path / "kb.pkl")])
    assert code == 1
    assert "line 3" in capsys.readouterr().err


def test_ingest_kb_empty_snapshot_warns(tmp_path, capsys):
    snapshot = tmp_path / "empty.jsonl"
    snapshot.write_text("")
    out = tmp_path / "kb.pkl"
    code = main(["ingest-kb", str(snapshot), str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err
    assert out.exists()


def test_ingest_kb_missing_snapshot(tmp_path, capsys):
    code = main(["ingest-kb", str(tmp_path / "nope.jsonl"), str(tmp_path / "kb.pkl")])
    assert code == 1


# --- pipeline ----------------------------------------------------------------------

def test_pipeline_links_ipad_to_computer(pipeline_out):
    records = [json.loads(l) for l in (pipeline_out / "linked.jsonl").read_text().splitlines()]
    ipads = [r for r in records if r["surface"] == "iPad"]
    assert ipads, "no iPad mention in linked output"
    for rec in ipads:
        assert rec["fine"] == "product.computer"
        assert rec["entity"] == "Q2796"
        assert rec["score"] > 0.1


def test_pipeline_writes_all_artifacts(pipeline_out):
    for name in ("model.pkl", "tagged.conll", "linked.jsonl", "report.txt", "report.json"):
        assert (pipeline_out / name).exists(), name


def test_pipeline_demo_report_is_perfect(pipeline_out):
    report = json.loads((pipeline_out / "report.json").read_text())
    assert report["granularity"] == "fine"
    assert report["micro_f1"] == 1.0
    assert report["macro_f1"] == 1.0
    assert report["per_class"]["product.computer"]["f1"] == 1.0


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
                 "--model", str(pipeline_out / "model.pkl")])
    captured = capsys.readouterr()
    assert code == 0
    assert "skipping evaluation" in captured.err
    assert (out / "linked.jsonl").exists()
    assert not (out / "report.json").exists()


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
         "--model", str(out / "model.pkl")],
        ["link", "--config", str(demo_config_path), "--output-dir", str(out)],
        ["evaluate", "--config", str(demo_config_path), "--output-dir", str(out)],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert (out / "linked.jsonl").read_bytes() == (pipeline_out / "linked.jsonl").read_bytes()
    assert (out / "report.json").read_bytes() == (pipeline_out / "report.json").read_bytes()


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


def test_evaluate_pred_equals_gold(tmp_path, capsys):
    pred, gold = write_eval_fixture(tmp_path, tp=5, fp=0, fn=0)
    out = tmp_path / "out"
    code = main(["evaluate", "--config", str(eval_cfg(tmp_path)), "--pred", str(pred),
                 "--gold", str(gold), "--output-dir", str(out)])
    assert code == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["per_class"]["person"]["f1"] == 1.0
    assert report["micro_f1"] == 1.0


def test_evaluate_paper_shaped_person_row(tmp_path, capsys):
    # counts chosen so P = 0.79 and R = 0.59 exactly
    tp, fp, fn = 4661, 1239, 3239
    assert Fraction(tp, tp + fp) == Fraction(79, 100)
    assert Fraction(tp, tp + fn) == Fraction(59, 100)
    pred, gold = write_eval_fixture(tmp_path, tp, fp, fn)
    out = tmp_path / "out"
    code = main(["evaluate", "--config", str(eval_cfg(tmp_path)), "--pred", str(pred),
                 "--gold", str(gold), "--output-dir", str(out)])
    assert code == 0
    capsys.readouterr()
    row = json.loads((out / "report.json").read_text())["per_class"]["person"]
    assert row["precision"] == 0.79
    assert row["recall"] == 0.59
    p, r = Fraction(79, 100), Fraction(59, 100)
    expected_f1 = float(2 * p * r / (p + r))
    assert row["f1"] == pytest.approx(expected_f1, abs=1e-12)
    assert round(100 * row["f1"]) == 68  # rounded like the published tables


def test_evaluate_empty_predictions(tmp_path, capsys):
    pred, gold = write_eval_fixture(tmp_path, tp=0, fp=0, fn=4)
    out = tmp_path / "out"
    code = main(["evaluate", "--config", str(eval_cfg(tmp_path)), "--pred", str(pred),
                 "--gold", str(gold), "--output-dir", str(out)])
    assert code == 0
    capsys.readouterr()
    row = json.loads((out / "report.json").read_text())["per_class"]["person"]
    assert row["precision"] == 0.0 and row["recall"] == 0.0


def test_evaluate_tokenization_mismatch_cites_sentence(tmp_path, capsys):
    pred, gold = write_eval_fixture(tmp_path, tp=2, fp=0, fn=0)
    records = [json.loads(l) for l in pred.read_text().splitlines()]
    records[1]["surface"] = "wrong text"
    pred.write_text("\n".join(json.dumps(r) for r in records))
    code = main(["evaluate", "--config", str(eval_cfg(tmp_path)), "--pred", str(pred),
                 "--gold", str(gold), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert "tokenization mismatch in sentence 1" in capsys.readouterr().err


def test_evaluate_span_outside_sentence(tmp_path, capsys):
    pred, gold = write_eval_fixture(tmp_path, tp=1, fp=0, fn=0)
    records = [json.loads(l) for l in pred.read_text().splitlines()]
    records[0]["end"] = 99
    pred.write_text("\n".join(json.dumps(r) for r in records))
    code = main(["evaluate", "--config", str(eval_cfg(tmp_path)), "--pred", str(pred),
                 "--gold", str(gold), "--output-dir", str(tmp_path / "out")])
    assert code == 1
    assert "sentence 0" in capsys.readouterr().err


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


def test_pipeline_with_precomputed_sidecar_matches_static_run(
    tmp_path, demo_config_path, pipeline_out, capsys
):
    from finetype.embeddings import load_embeddings
    from finetype.tagger import StaticVectors, read_conll

    corpus = read_conll(DEMO_DIR / "corpus.conll")
    provider = StaticVectors(load_embeddings(DEMO_DIR / "token_vectors.vec"))
    sidecar = tmp_path / "context.vec"
    with open(sidecar, "w") as fh:
        fh.write(f"{provider.dim}\n")
        for i, ex in enumerate(corpus):
            for row in provider.vectors_for(i, ex.tokens):
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
            fh.write("\n")

    cfg = tmp_path / "sidecar.cfg"
    cfg.write_text(
        demo_cfg_with_absolute_paths(demo_config_path).replace(
            f"token_vectors = {DEMO_DIR / 'token_vectors.vec'}",
            f"token_vectors = {sidecar}\nvector_source = precomputed",
        )
    )
    out = tmp_path / "out"
    code = main(["pipeline", "--config", str(cfg), "--output-dir", str(out)])
    capsys.readouterr()
    assert code == 0
    # identical vectors and seed: the whole run reproduces the static-table one
    assert (out / "linked.jsonl").read_bytes() == (pipeline_out / "linked.jsonl").read_bytes()
    assert (out / "report.json").read_bytes() == (pipeline_out / "report.json").read_bytes()


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


# --- misc ---------------------------------------------------------------------------------

def test_demo_config_command(capsys):
    assert main(["demo-config"]) == 0
    printed = capsys.readouterr().out.strip()
    assert Path(printed).is_file()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
