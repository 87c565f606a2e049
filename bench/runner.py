"""Run a workload's CLI steps in-process, pass after pass, and record timings.

Usage: python3 runner.py SPEC.json  (cwd: the run's work directory, with the
package's src/ on PYTHONPATH). SPEC holds the steps, the workload's worker
count, the mode ("plain" or "trace") and the seconds to measure for. Writes
SPEC's "result" file: per pass the wall time and /proc/self/io deltas of each
step, exit codes, and a digest of every output file; the set-up and reference
samples; peak RSS; and in trace mode the spans of each traced pass.

Set-up samples (the fixed cost of every CLI call: a fresh interpreter
importing corpusphon.cli and building its parser) are taken between passes,
spread over the run, because the machine's speed drifts over seconds. Each is
paired with a reference sample: a fresh interpreter importing a fixed set of
standard-library modules, which does not depend on corpusphon and so gauges
the machine's speed during the run.

Each pass starts from an empty out/ directory. Passes follow one another
until the seconds are used up; there is no separate warm-up, since every
module is imported before the first pass and the inputs were just written. In
trace mode one cycle is an untraced pass at the workload's worker count, an
untraced pass with one worker (when that differs) and a traced pass with one
worker, so tracing overhead is measured at equal worker counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

from corpusphon import cli

from spans import Tracer

OUT = Path("out")
SETUP_SAMPLES = 24
SETUP_CODE = (
    "import time; t = time.perf_counter(); import corpusphon.cli as c; "
    "c.build_parser(); print(time.perf_counter() - t)"
)
# -I: isolated from PYTHONPATH and user site, so only the standard library counts
REFERENCE_CODE = (
    "import time; t = time.perf_counter(); "
    "import argparse, csv, decimal, difflib, email.parser, fractions, http.client, json, "
    "re, statistics, tarfile, textwrap, wave, xml.dom.minidom, zipfile; "
    "print(time.perf_counter() - t)"
)


def timed(*args: str) -> float:
    """The seconds a fresh interpreter prints for the given arguments."""
    done = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout)


def io_counters() -> tuple[int, int]:
    """Bytes this process has passed to read and write calls (rchar, wchar)."""
    fields = dict(
        line.split(": ") for line in Path("/proc/self/io").read_text().splitlines()
    )
    return int(fields["rchar"]), int(fields["wchar"])


def digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def run_pass(steps: list[dict], jobs: int, kind: str, tracer: Tracer | None = None) -> dict:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    record = {"kind": kind, "jobs": jobs, "steps": []}
    for step in steps:
        stdout = io.StringIO()
        wall, codes = 0.0, []
        r0, w0 = io_counters()
        for argv in step["calls"]:
            argv = [a.replace("{jobs}", str(jobs)) for a in argv]
            scope = tracer.step(step["name"]) if tracer else contextlib.nullcontext()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                try:
                    with scope:
                        code = cli.main(argv)
                except Exception:  # a crash costs this call, not the run
                    code = 2
                    traceback.print_exc(file=sys.__stderr__)
                wall += time.perf_counter() - t0
            codes.append(code)
        r1, w1 = io_counters()
        record["steps"].append({
            "name": step["name"], "wall": wall, "codes": codes,
            "read": r1 - r0, "write": w1 - w0,
        })
        (OUT / "_stdout").mkdir(exist_ok=True)
        (OUT / "_stdout" / f"{step['name']}.txt").write_text(stdout.getvalue())
    record["total"] = sum(s["wall"] for s in record["steps"])
    record["digest"] = digest(OUT)
    return record


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    steps, jobs, seconds = spec["steps"], spec["jobs"], spec["seconds"]
    passes, setup, reference, traced_spans = [], [], [], []
    timed("-c", SETUP_CODE)  # compiles bytecode; not counted
    timed("-I", "-c", REFERENCE_CODE)
    busy = 0.0  # seconds spent in passes; set-up samples are spread over them
    while not passes or busy < seconds:
        t0 = time.perf_counter()
        passes.append(run_pass(steps, jobs, "plain"))
        if spec["mode"] == "trace":
            if jobs != 1:
                passes.append(run_pass(steps, 1, "plain1"))
            tracer = Tracer()
            with tracer.installed():
                passes.append(run_pass(steps, 1, "traced", tracer))
            traced_spans.append(tracer.spans)
        busy += time.perf_counter() - t0
        while len(setup) < SETUP_SAMPLES * min(1.0, busy / seconds):
            reference.append(timed("-I", "-c", REFERENCE_CODE))
            setup.append(timed("-c", SETUP_CODE))
    result = {
        "passes": passes,
        "setup": setup,
        "reference": reference,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": traced_spans,
    }
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
