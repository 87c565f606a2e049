"""Tests of the benchmark itself: seeded generation and the output checker.

Run from the repository root: PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest
from corpusphon import cli, textgrid

import corpus
import runner
from check import check
from run import REFERENCE_S, block_means, end_to_end
from spans import Tracer
from steps import JOBS, STEPS


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


@pytest.mark.parametrize("workload", sorted(STEPS))
def test_generator_is_deterministic_for_a_seed(workload, tmp_path):
    first = corpus.generate(workload, 5, tmp_path / "a")
    again = corpus.generate(workload, 5, tmp_path / "b")
    other = corpus.generate(workload, 6, tmp_path / "c")
    assert first == again
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")
    if workload == "vot-cycle":  # every seed asks for the same amount of work
        assert first["stats"] == other["stats"]


def run_once(workload, seed, work, monkeypatch, tracer=None):
    truth = corpus.generate(workload, seed, work)
    steps = STEPS[workload](truth)
    monkeypatch.chdir(work)
    if tracer is None:
        record = runner.run_pass(steps, JOBS[workload], "plain")
    else:
        with tracer.installed():
            record = runner.run_pass(steps, 1, "traced", tracer)
    return truth, steps, record


def test_checker_accepts_batch_outputs_and_rejects_corruption(tmp_path, monkeypatch):
    truth, steps, record = run_once("batch-qc", 3, tmp_path, monkeypatch)
    outcome = check(truth, tmp_path, steps, record)
    assert outcome.failed == []
    assert outcome.findings["ERROR"] > 0

    mono = tmp_path / "out" / "mono" / f"{truth['stereo'][0]}_mono.wav"
    data = bytearray(mono.read_bytes())
    data[100] ^= 0xFF
    mono.write_bytes(bytes(data))
    report = tmp_path / "out" / "reports" / "validate_mfa-0.tsv"
    lines = report.read_text().splitlines(keepends=True)
    report.write_text("".join(lines[1:]))

    outcome = check(truth, tmp_path, steps, record)
    assert ("audio_mono", truth["stereo"][0]) in outcome.silent
    dropped = Path(lines[0].split("\t")[1]).stem
    assert ("validate_mfa", dropped) in outcome.silent


def test_checker_rejects_a_wrong_measurement(tmp_path, monkeypatch):
    truth, steps, record = run_once("vot-cycle", 3, tmp_path, monkeypatch)
    before = check(truth, tmp_path, steps, record)
    assert before.silent == []

    table = tmp_path / "out" / "measure" / "measurements.tsv"
    header, first, *rest = table.read_text().splitlines(keepends=True)
    fields = first.split("\t")
    fields[5] = str(float(fields[5]) + 0.001)  # the VOT column
    table.write_text("".join([header, "\t".join(fields)] + rest))

    after = check(truth, tmp_path, steps, record)
    fid = fields[0].split("_")[0]
    assert ("vot_measure", fid) in after.silent


def test_traced_outputs_match_untraced_and_originals_return(tmp_path, monkeypatch):
    plain = run_once("batch-qc", 4, tmp_path / "plain", monkeypatch)[2]
    tracer = Tracer()
    traced = run_once("batch-qc", 4, tmp_path / "traced", monkeypatch, tracer)[2]
    assert traced["digest"] == plain["digest"]
    assert {s[0] for s in tracer.spans} >= {"step", "cli.batch", "cli.file", "textgrid.parse"}
    assert cli.process_files.__name__ == "process_files"
    assert textgrid.IntervalTier.normalized.__name__ == "normalized"


def test_block_means_average_short_passes_and_keep_long_ones():
    assert block_means([0.5] * 17, span=4.0) == [0.5, 0.5]  # 8 passes, then 9
    assert block_means([5.0, 6.0, 4.5], span=4.0) == [5.0, 6.0, 4.5]
    assert block_means([3.0, 2.0, 1.0], span=4.0) == [2.0]  # short tail joins
    assert block_means([1.0], span=4.0) == [1.0]


def test_end_to_end_times_are_scaled_to_the_reference_machine():
    result = {"passes": [{"kind": "plain", "total": 5.0}, {"kind": "traced", "total": 9.0}],
              "setup": [0.1, 0.2, 0.3], "reference": [REFERENCE_S * 2] * 3, "peak_rss_mb": 40.0}
    assert end_to_end(result) == pytest.approx({"setup_s": 0.1, "run_s": 2.5, "peak_rss_mb": 40.0})
