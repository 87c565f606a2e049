"""Shared fixtures and seeded random generators for the test suite."""

from __future__ import annotations

import random
import warnings
from pathlib import Path

import pytest

from corpusphon import kaldi
from corpusphon.textgrid import Interval, IntervalTier, TextGrid

# Hypothesis's pytest plugin imports this module (and libcst through it) to
# suggest a patch for a failing property. That import can warn of a
# deprecation inside libcst, which filterwarnings = error would raise inside
# the report hook, ending the session in INTERNALERROR without the falsifying
# example. Importing it here first, with that warning ignored, keeps the report.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

FIXTURES = Path(__file__).parent / "fixtures"

LABELS = ["", "AH1", "K_B", "sp", 'say "hi"', "naïve", "PAT", "T_E", "SIL"]


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES


# ---------------------------------------------------------------------------
# TextGrid comparison


def textgrid_equal(a: TextGrid, b: TextGrid, time_tol: float = 1e-6) -> bool:
    """Structural equality with a time tolerance (default 1 µs)."""

    def teq(x: float, y: float) -> bool:
        return abs(x - y) <= time_tol

    if not (teq(a.xmin, b.xmin) and teq(a.xmax, b.xmax)):
        return False
    if len(a.tiers) != len(b.tiers):
        return False
    for ta, tb in zip(a.tiers, b.tiers):
        if type(ta) is not type(tb) or ta.name != tb.name:
            return False
        if not (teq(ta.xmin, tb.xmin) and teq(ta.xmax, tb.xmax)):
            return False
        if isinstance(ta, IntervalTier):
            if len(ta.intervals) != len(tb.intervals):
                return False
            for ia, ib in zip(ta.intervals, tb.intervals):
                if ia.text != ib.text:
                    return False
                if not (teq(ia.xmin, ib.xmin) and teq(ia.xmax, ib.xmax)):
                    return False
        else:
            if len(ta.points) != len(tb.points):
                return False
            for pa, pb in zip(ta.points, tb.points):
                if pa.mark != pb.mark or not teq(pa.time, pb.time):
                    return False
    return True


# ---------------------------------------------------------------------------
# random TextGrids


def random_tier(rng: random.Random, name: str, xmax_ms: int,
                max_intervals: int = 50) -> IntervalTier:
    """A normalized tier with boundaries on the millisecond grid."""
    intervals = []
    t = 0
    for _ in range(rng.randint(0, max_intervals)):
        if t >= xmax_ms - 2:
            break
        if rng.random() < 0.3:  # leave a gap for normalization to fill
            t = min(xmax_ms - 2, t + rng.randint(1, 400))
        if t >= xmax_ms - 2:
            break
        end = min(xmax_ms, t + rng.randint(1, 800))
        intervals.append(Interval(t / 1000, end / 1000, rng.choice(LABELS)))
        t = end
    tier = IntervalTier(name, 0.0, xmax_ms / 1000, tuple(intervals))
    return tier.normalized()


def random_grid(rng: random.Random, max_tiers: int = 5,
                max_intervals: int = 50) -> TextGrid:
    xmax_ms = rng.randint(2000, 30000)
    tiers = tuple(
        random_tier(rng, rng.choice(["phones", "words", "vot", "tier"]),
                    xmax_ms, max_intervals)
        for _ in range(rng.randint(1, max_tiers))
    )
    return TextGrid(0.0, xmax_ms / 1000, tiers)


# ---------------------------------------------------------------------------
# random Kaldi data directories


def random_consistent_dir(rng: random.Random) -> kaldi.KaldiDataDir:
    words = ["SAY", "PAT", "DOT", "AGAIN", "KLATT", "I'M", "WORRIED"]
    records = []
    n_speakers = rng.randint(1, 4)
    for s in range(n_speakers):
        speaker = f"spk{s:02d}"
        file_id = f"{speaker}_session"
        t = 0.0
        for u in range(rng.randint(1, 6)):
            start = round(t + rng.randint(10, 80) / 100, 2)
            end = round(start + rng.randint(50, 400) / 100, 2)
            t = end
            records.append(
                kaldi.UtteranceRecord(
                    utt=f"{speaker}_{u:03d}",
                    file_id=file_id,
                    start=start,
                    end=end,
                    words=tuple(
                        rng.choice(words)
                        for _ in range(rng.randint(1, 5))
                    ),
                    speaker=speaker,
                    source=f"path/{file_id}.wav",
                )
            )
    return kaldi.build_from_records(records)


def corrupt_dir(rng: random.Random, d: kaldi.KaldiDataDir) -> kaldi.KaldiDataDir:
    """Random drops, duplicates, shuffles, and a stale spk2utt.

    Keeps at least one utterance present everywhere, keeps segments
    well-formed and backed by wav.scp, so the surviving set of a repair
    equals the three-way ID intersection.
    """
    text = list(d.text)
    segments = list(d.segments)
    utt2spk = list(d.utt2spk)
    protected = {rng.choice(text).utt}

    def drop_some(lines, key):
        kept = []
        for line in lines:
            if key(line) not in protected and rng.random() < 0.25:
                continue
            kept.append(line)
        return kept

    text = drop_some(text, lambda l: l.utt)
    segments = drop_some(segments, lambda l: l.utt)
    utt2spk = drop_some(utt2spk, lambda p: p[0])

    if text and rng.random() < 0.5:
        text.append(rng.choice(text))  # byte-identical duplicate
    if utt2spk and rng.random() < 0.5:
        utt2spk.append(rng.choice(utt2spk))

    rng.shuffle(text)
    rng.shuffle(segments)
    rng.shuffle(utt2spk)

    spk2utt = list(d.spk2utt)  # now stale after the drops
    if rng.random() < 0.5:
        rng.shuffle(spk2utt)

    wav = list(d.wav_scp)
    if rng.random() < 0.3:
        wav.append(kaldi.WavScpEntry("zz_unreferenced", "path/zz.wav"))
    return kaldi.KaldiDataDir(
        text=text, segments=segments, wav_scp=wav,
        utt2spk=utt2spk, spk2utt=spk2utt,
    )
