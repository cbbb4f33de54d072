"""finetype benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Generates the workload's inputs from
the seed under .perfbench_work/, then launches fresh child interpreters one
at a time (closed loop, one command sequence in flight) until S seconds have
passed, checks every child's outputs, and prints one JSON object as the last
line of standard output. --trace 0 reports the end-to-end metrics; --trace 1
alternates untraced and traced children and reports the per-layer metrics.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import generate

BLAS_THREADS = 1  # pinned in every child; recorded with the results
MIN_CHILDREN = 3  # per kind (untraced, traced), so every median has three samples
DEADLINE_S = 170  # the whole invocation, generation included
# child.reference() on an unloaded core of the machine the bounds were set
# on; timings are reported at this reference speed (see README).
REFERENCE_S = 0.1
ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    env.update(PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
               PYTHONHASHSEED="0", OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    return env


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def prepare(workload: generate.Workload, seed: int, work: Path, deadline: float):
    """Generate inputs; train the supplied model (untimed) where the workload needs one."""
    shutil.rmtree(work, ignore_errors=True)
    gen = generate.generate(workload, seed, work / "inputs")
    files = gen.files
    if "model" in files:
        subprocess.run(
            [sys.executable, "-m", "finetype.cli", "train", "--config", str(files["train_config"]),
             "--model", str(files["model"]), "--output-dir", str(work / "model-train")],
            env=child_env(), stdout=subprocess.DEVNULL, check=True,
            timeout=max(1.0, deadline - time.monotonic()))
    inputs = {"hierarchy": str(files["hierarchy"]), "kb": str(files["kb"]),
              "embeddings": str(files["embeddings"])}
    if workload.sidecar_dim:
        inputs["sidecar"] = str(files["token_vectors"])
        inputs["model"] = str(files["model"])
    elif workload.static_dim:
        inputs["static"] = str(files["token_vectors"])
    if "link" in workload.commands:
        inputs["corpora"] = [str(files["tagged"]), str(files["gold"])]
    else:
        inputs["corpora"] = [str(files["gold"])]
    return gen, inputs


def commands(workload: generate.Workload, gen: generate.Generated, out: Path) -> list[list[str]]:
    common = ["--config", str(gen.files["config"]), "--output-dir", str(out)]
    if workload.commands == ("pipeline",):
        return [["pipeline", *common]]
    return [["link", *common, "--tagged", str(gen.files["tagged"])], ["evaluate", *common]]


def at_reference_speed(result: dict, key: str) -> float:
    """A child's timing scaled to the reference speed (see README)."""
    return result[key] * REFERENCE_S / result["reference_s"]


def run_child(spec: dict, out: Path, deadline: float) -> dict:
    out.mkdir(parents=True)
    spec_path, result_path = out / "spec.json", out / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(out / "child.log", "w", encoding="utf-8") as log:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path),
                               str(result_path)],
                              env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                              timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not result_path.is_file():
        raise CheckFailed(f"child exited {proc.returncode}; see {out / 'child.log'}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if any(code != 0 for code in result["codes"]):
        raise CheckFailed(f"finetype exited {result['codes']}; see {out / 'child.log'}")
    return result


class CheckFailed(Exception):
    pass


def scores(pred: set, gold: set) -> tuple[float, float]:
    """Micro and macro F-1 under exact (doc, start, end, label) matching;
    macro averages over labels with any prediction or gold span."""
    labels = {s[-1] for s in pred | gold}
    tp_all = fp_all = fn_all = 0
    f1s = []
    for label in labels:
        p = {s for s in pred if s[-1] == label}
        g = {s for s in gold if s[-1] == label}
        tp, fp, fn = len(p & g), len(p - g), len(g - p)
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    prec = tp_all / (tp_all + fp_all) if tp_all + fp_all else 0.0
    rec = tp_all / (tp_all + fn_all) if tp_all + fn_all else 0.0
    micro = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return micro, sum(f1s) / len(f1s)


def check_outputs(workload, gen: generate.Generated, out: Path) -> dict:
    """Check one child's outputs against the oracle and the gold corpus;
    returns the facts the metrics need."""
    linked = [json.loads(line) for line in
              (out / "linked.jsonl").read_text(encoding="utf-8").splitlines() if line]
    for rec in linked:
        entity, fine, score = gen.oracle.expect(rec["surface"], rec["coarse"])
        got_entity = rec["entity"]
        if got_entity != (f"Q{entity}" if entity is not None else None) or rec["fine"] != fine:
            raise CheckFailed(f"doc {rec['doc']} {rec['surface']!r}/{rec['coarse']}: got"
                              f" {got_entity} {rec['fine']}, expected Q{entity} {fine}")
        if (score is None) != (rec["score"] is None) or (
                score is not None and abs(score - rec["score"]) > 1e-9):
            raise CheckFailed(f"doc {rec['doc']} {rec['surface']!r}: score {rec['score']},"
                              f" expected {score}")
    gold = {(m.doc, m.start, m.start + 2, m.gold) for m in gen.mentions}
    if "link" in workload.commands:
        spans_in = {(r["doc"], r["start"], r["end"], r["coarse"]) for r in linked}
        spans_gold = {(m.doc, m.start, m.start + 2, m.coarse) for m in gen.mentions}
        if spans_in != spans_gold:
            raise CheckFailed(f"linked spans differ from the tagged corpus:"
                              f" {len(spans_in ^ spans_gold)} mismatches")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    micro, macro = scores({(r["doc"], r["start"], r["end"], r["fine"]) for r in linked}, gold)
    if abs(report["micro_f1"] - micro) > 1e-12 or abs(report["macro_f1"] - macro) > 1e-12:
        raise CheckFailed(f"report F-1 {report['micro_f1']}/{report['macro_f1']} differs from"
                          f" recomputed {micro}/{macro}")
    digest = hashlib.sha256()
    for name in ("linked.jsonl", "report.json"):
        digest.update((out / name).read_bytes())
    return {"digest": digest.hexdigest(), "micro_f1": micro, "macro_f1": macro,
            "resolved_ratio": sum(r["entity"] is not None for r in linked) / len(linked)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(generate.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "finetype" / "cli.py").is_file():
        print(f"error: no finetype sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workload = generate.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    gen, inputs = prepare(workload, args.seed, work, deadline)
    tokens = gen.train_tokens or gen.corpus_tokens

    kinds = [False, True] if args.trace else [False]
    runs = {kind: [] for kind in kinds}
    failures: list[str] = []
    facts = []
    window_end = time.monotonic() + args.seconds
    durations = [0.0]  # seconds per child, launch to exit
    attempted = 0
    # Launch children back to back until the window is used up; the last one
    # may overrun the window by at most half a typical child.
    while (time.monotonic() + statistics.median(durations) / 2 < window_end
           or min(len(r) for r in runs.values()) < MIN_CHILDREN):
        if time.monotonic() > deadline - 30 or len(failures) >= MIN_CHILDREN:
            break
        trace = kinds[attempted % len(kinds)]
        out = work / f"child{attempted:03d}"
        attempted += 1
        spec = {"inputs": inputs, "trace": trace, "commands": commands(workload, gen, out / "out")}
        try:
            launched = time.monotonic()
            result = run_child(spec, out, deadline)
            durations.append(time.monotonic() - launched)
            fact = check_outputs(workload, gen, out / "out")
            if facts and fact["digest"] != facts[0]["digest"]:
                raise CheckFailed(f"{out}: outputs differ from the first run of this seed")
        except (CheckFailed, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
            failures.append(f"{out.name}: {exc}")
            continue
        facts.append(fact)
        runs[trace].append(result)

    env = environment()
    med = statistics.median
    plain = runs[False]
    metrics: dict[str, dict] = {}
    detail = {"workload": args.workload, "seed": args.seed, "environment": env,
              "children": {str(k): len(v) for k, v in runs.items()}, "failures": failures}
    if not args.trace and plain:
        wall = [at_reference_speed(r, "wall_s") for r in plain]
        detail.update(raw_wall_s=med(r["wall_s"] for r in plain),
                      raw_setup_s=med(r["setup_s"] for r in plain),
                      reference_s=med(r["reference_s"] for r in plain))
        values = {
            "wall_s": (med(wall), "s"),
            "setup_s": (med(at_reference_speed(r, "setup_s") for r in plain), "s"),
            "tokens_per_s": (med(tokens / w for w in wall), "tok/s"),
            "peak_rss_mb": (med(r["peak_rss_mb"] for r in plain), "MiB"),
            "micro_f1": (facts[0]["micro_f1"], "fraction"),
            "macro_f1": (facts[0]["macro_f1"], "fraction"),
            "success_rate": (1.0 - len(failures) / attempted, "fraction"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    elif args.trace and runs[True]:
        traced = runs[True]
        for name in traced[0]["layers"]:
            unit = traced[0]["layers"][name][1]
            metrics[name] = {"value": med(r["layers"][name][0] for r in traced), "unit": unit}
        metrics["linker.resolved_ratio"] = {"value": facts[0]["resolved_ratio"],
                                            "unit": "fraction"}
        if plain:
            overhead = (med(at_reference_speed(r, "wall_s") for r in traced)
                        - med(at_reference_speed(r, "wall_s") for r in plain))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        detail.update(absent=traced[0]["absent"], idle=traced[0]["idle"],
                      traced_wall_s=med(r["wall_s"] for r in traced))
    correct = not failures and bool(metrics)
    (work / "result.json").write_text(json.dumps({**detail, "metrics": metrics}, indent=1),
                                      encoding="utf-8")
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
