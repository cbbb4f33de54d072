"""The benchmark's traced breakdown (perfbench/spans.py) wraps finetype entry
points by module and name. A renamed entry point, or one the CLI calls under
another name, would leave its per-layer metrics absent or idle."""

import importlib
import importlib.util
from pathlib import Path

from finetype.cli import main

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def owner_of(module: str, path: str):
    """The object holding the target's attribute, and the attribute name."""
    owner = importlib.import_module(module)
    owner_path, _, attr = path.rpartition(".")
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part)
    return owner, attr


def targets(spans):
    return [(module, path) for _, module, path, _ in spans.TARGETS] + [spans.STAGE_TARGET[1:]]


def test_every_trace_target_resolves():
    unresolved = []
    for module, path in targets(load_spans()):
        try:
            owner, attr = owner_of(module, path)
            getattr(owner, attr)
        except (ImportError, AttributeError):
            unresolved.append(f"{module}.{path}")
    assert unresolved == []


def test_pipeline_calls_every_cli_target_through_its_global(tmp_path, demo_config_path, capsys):
    spans = load_spans()
    saved = [(owner, attr, vars(owner)[attr])
             for owner, attr in (owner_of(m, p) for m, p in targets(spans))]
    recorder = spans.Recorder()
    try:
        recorder.install()
        code = main(["pipeline", "--config", str(demo_config_path),
                     "--output-dir", str(tmp_path / "out")])
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
    capsys.readouterr()
    assert code == 0
    assert recorder.missing == []
    seen = set(recorder.summary())
    cli_targets = {name for name, module, _, _ in spans.TARGETS if module == "finetype.cli"}
    stages = {f"cli.stage.{short}" for short in spans.STAGES.values()}
    assert sorted((cli_targets | stages | {"tagger.model_save"}) - seen) == []
