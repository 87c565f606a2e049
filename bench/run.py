"""corpusphon benchmark: seeded corpora, three CLI pipelines, checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload vot-cycle --seed 1 --seconds 20 --trace 0

Generates the workload's corpus from the seed under bench/.work/, then runs
the workload's step sequence (bench/steps.py) through `corpusphon.cli.main`
in a separate process, pass after pass, for the given seconds, sampling the
set-up cost of a CLI call in fresh interpreters between passes
(bench/runner.py). Every pass's outputs must be byte-identical; the last
pass's are checked against the ground truth (bench/check.py). With --trace 0
it reports the end-to-end metrics named in BENCHMARK.json, with --trace 1 the
per-layer ones, which come from traced passes (bench/spans.py). Each metric
is printed by name and unit; the last line of output is one JSON object. The
exit code is 1 when an output is wrong without the program reporting a
failure for it.

run_s is a median over blocks of consecutive untraced passes (at least 4 s
each) of each block's mean pass wall; setup_s is the median set-up sample.
Both are scaled to a reference machine: multiplied by REFERENCE_S over the
median time this machine took, during the run, for a fixed standard-library
import job (bench/runner.py). The speed of a shared host drifts by half and
more over minutes, and the job follows that drift, so scaled times repeat
where wall times do not. The unscaled times are per-layer metrics
(run.wall_s, setup.wall_s, with host.reference_ms).

The page cache stays warm: inputs are read right after they are written and
nothing is dropped, so I/O figures are warm-cache figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import corpus
from check import check
from spans import pass_metrics
from steps import JOBS, NAMED, STEPS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
BLOCK_S = 4.0  # seconds of passes averaged into one run_s sample
REFERENCE_S = 0.05  # the reference machine runs the reference job in this time


def environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def step_walls(record: dict) -> dict[str, float]:
    return {s["name"]: s["wall"] for s in record["steps"]}


def block_means(walls: list[float], span: float = BLOCK_S) -> list[float]:
    """Mean wall of consecutive passes, grouped into blocks of at least span seconds.

    On a shared host the machine's speed can switch between levels every few
    seconds, so single sub-second passes fall into one level or the other and
    their median jumps between the levels with the mix; a block's mean moves
    with the mix smoothly. A pass longer than span is a block of its own; a
    short tail joins the block before it.
    """
    blocks: list[list[float]] = []
    current: list[float] = []
    for wall in walls:
        current.append(wall)
        if sum(current) >= span:
            blocks.append(current)
            current = []
    if current:
        if blocks:
            blocks[-1] += current
        else:
            blocks.append(current)
    return [sum(b) / len(b) for b in blocks]


def unscaled(result: dict) -> dict[str, float]:
    plain = [p for p in result["passes"] if p["kind"] == "plain"]
    return {
        "setup.wall_s": median(result["setup"]),
        "run.wall_s": median(block_means([p["total"] for p in plain])),
        "host.reference_ms": median(result["reference"]) * 1e3,
    }


def end_to_end(result: dict) -> dict[str, float]:
    walls = unscaled(result)
    scale = REFERENCE_S * 1e3 / walls["host.reference_ms"]
    return {
        "setup_s": walls["setup.wall_s"] * scale,
        "run_s": walls["run.wall_s"] * scale,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict, workload: str) -> dict[str, float]:
    passes = result["passes"]
    plain = [p for p in passes if p["kind"] == "plain"]
    jobs = JOBS[workload]
    # a cycle is plain [, plain1], traced; pair each traced pass with its cycle
    cycles = []
    for i, p in enumerate(passes):
        if p["kind"] == "traced":
            base = passes[i - 1]
            cycles.append((p, base, passes[i - 2] if base["kind"] == "plain1" else base))
    per_pass = [
        pass_metrics(spans, step_walls(plain_w), jobs)
        for spans, (_, _, plain_w) in zip(result["spans"], cycles)
    ]
    m = {key: median(pm[key] for pm in per_pass) for key in per_pass[0]}
    m["trace.overhead_ratio"] = median(t["total"] / b["total"] - 1 for t, b, _ in cycles)

    for step in {n for ns in NAMED.values() for n in ns}:
        rows = [s for p in plain for s in p["steps"] if s["name"] == step]
        m[f"step.{step}.s"] = median(s["wall"] for s in rows)
        m[f"step.{step}.read_mb"] = median(s["read"] / 1e6 for s in rows)
        m[f"step.{step}.write_mb"] = median(s["write"] / 1e6 for s in rows)
    m["io.read_mb"] = median(sum(s["read"] for s in p["steps"]) / 1e6 for p in plain)
    m["io.write_mb"] = median(sum(s["write"] for s in p["steps"]) / 1e6 for p in plain)
    m.update(unscaled(result))
    ctm2tg = m["step.ctm2tg.s"]
    m["ctm.lines_per_s"] = m.pop("ctm_lines") / ctm2tg if ctm2tg else 0.0
    return m


def write_trace(result: dict, workload: str) -> Path:
    path = WORK / "traces" / f"{workload}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        for k, spans in enumerate(result["spans"]):
            for name, start, end, parent, step, extra in spans:
                f.write(json.dumps({"pass": k, "name": name, "start_ns": start,
                                    "end_ns": end, "parent": parent, "step": step,
                                    "extra": extra}) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(STEPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_file = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec_file["per_layer" if args.trace else "end_to_end"]
    if not (ROOT / "src" / "corpusphon" / "cli.py").is_file():
        sys.exit(f"no corpusphon sources under {ROOT / 'src'}; run from a full checkout")

    env = environment()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        truth = corpus.generate(args.workload, args.seed, work)
        steps = STEPS[args.workload](truth)
        spec = {"steps": steps, "jobs": JOBS[args.workload], "seconds": args.seconds,
                "mode": "trace" if args.trace else "plain", "result": "result.json"}
        (work / "spec.json").write_text(json.dumps(spec))
        subprocess.run([sys.executable, str(BENCH / "runner.py"), "spec.json"], cwd=work,
                       env=env, check=True, timeout=170)
        result = json.loads((work / "result.json").read_text())

        last = result["passes"][-1]
        outcome = check(truth, work, steps, last)
        diverged = [p["kind"] for p in result["passes"] if p["digest"] != last["digest"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = result["passes"]
    attempted = len(outcome.ops) * len(passes)
    failed = len(outcome.failed) * len(passes)
    correct = not outcome.silent and not diverged

    values = end_to_end(result)
    if args.trace:
        values = per_layer(result, args.workload)
        values.update({f"findings.{s.lower()}": n for s, n in outcome.findings.items()})
        values["fail_ratio"] = failed / attempted
        values.update({f"corpus.{k}": v for k, v in truth["stats"].items()})
        trace_path = write_trace(result, args.workload)

    stats = truth["stats"]
    print(f"# corpusphon benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} python={platform.python_version()} nproc={os.cpu_count()} "
          f"jobs={JOBS[args.workload]} warm-cache")
    print(f"# corpus: {stats['files']} files, {stats['words']} words, "
          f"{stats['ctm_lines']} CTM lines, {stats['wav_mb']:.1f} MB WAV")
    kind_totals = [f"{p['kind']}={p['total']:.4f}" for p in passes]
    print(f"# passes: {' '.join(kind_totals)}")
    print(f"# setup samples: {' '.join(f'{x:.4f}' for x in result['setup'])}")
    print(f"# reference samples: {' '.join(f'{x:.4f}' for x in result['reference'])}")
    if not args.trace:
        plain = [p for p in passes if p["kind"] == "plain"]
        blocks = block_means([p["total"] for p in plain])
        print(f"# run_s blocks ({len(plain)} passes): {' '.join(f'{b:.4f}' for b in blocks)}")
        print("# unscaled: " + " ".join(f"{k} = {v:.6g}" for k, v in unscaled(result).items()))
        print(f"fail_ratio = {failed / attempted:.6f} ratio")
        for step in NAMED[args.workload]:
            walls = [step_walls(p)[step] for p in plain]
            print(f"{step}_s = {median(walls):.6f} s  (n={len(walls)})")
    else:
        counts: dict[str, int] = {}
        for span in result["spans"][-1]:
            counts[span[0]] = counts.get(span[0], 0) + 1
        print(f"# spans written to {trace_path.relative_to(ROOT)}; per-layer values are "
              f"medians over {len(result['spans'])} traced pass(es)")
        print("# spans per traced pass: "
              + " ".join(f"{name}={n}" for name, n in sorted(counts.items())))
    for op in outcome.failed:
        kind = "silent" if op in outcome.silent else "reported"
        print(f"# failed op {op[0]}/{op[1]} ({kind}): {'; '.join(outcome.ops[op])[:300]}")
    for kind in diverged:
        print(f"# outputs of a {kind} pass differ from the last pass")

    metrics = {}
    for entry in wanted:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} = {value:.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
