"""The CLI step sequence of each workload, as a user's pipeline script runs it.

Every step is one or more `corpusphon` command lines, run one after another
(a closed loop with one client). Paths are relative to the run's work
directory: inputs under `corpus/`, outputs under `out/`. `{jobs}` is filled
in by the runner. A step's name is the name its wall time is reported under.
"""

from __future__ import annotations

JOBS = {"vot-cycle": 1, "batch-qc": 2, "corpus-prep": 1}


def _step(name: str, *calls: list[str]) -> dict:
    return {
        "name": name,
        "calls": [
            argv + ["--jobs", "{jobs}", "--report", f"out/reports/{name}-{k}.tsv"]
            for k, argv in enumerate(calls)
        ],
    }


def vot_cycle(truth: dict) -> list[dict]:
    stack = [
        ["tg", "stack", f"out/merged/{fid}_stops.TextGrid",
         f"corpus/manual/{fid}.TextGrid", "--out", f"out/stacked/{fid}_stacked.TextGrid"]
        for fid in sorted(truth["grids"])
    ]
    return [
        _step("vot_words", ["vot", "words", "--lexicon", "corpus/dict.txt",
                            "--out", "out/words/wordList.txt"]),
        _step("vot_locate", ["vot", "locate", "corpus/aligned/*.TextGrid",
                             "--words", "out/words/wordList.txt",
                             "--out", "out/locate/CVWordLocations.txt"]),
        _step("vot_windows", ["vot", "windows", "corpus/aligned/*.TextGrid",
                              "--locations", "out/locate/CVWordLocations.txt",
                              "--out-dir", "out/windows"]),
        _step("vot_lists", ["vot", "lists", "--wav-dir", "corpus/wav",
                            "--textgrid-dir", "out/windows", "--out-dir", "out/config"]),
        # the decoder's output is planted in corpus/decoded; its six per-stop
        # tiers follow phones and words
        _step("vot_merge", ["vot", "merge", "corpus/decoded/*.TextGrid",
                            "--tiers", "3,4,5,6,7,8", "--name", "vot",
                            "--out-dir", "out/merged"]),
        _step("tg_stack", *stack),
        _step("vot_prefer", ["vot", "prefer-manual", "out/stacked/*.TextGrid",
                             "--manual-tier", "manual", "--auto-tier", "vot",
                             "--out-dir", "out/final"]),
        _step("vot_compare", ["vot", "compare", "out/stacked/*.TextGrid",
                              "--manual-tier", "manual", "--auto-tier", "vot",
                              "--out", "out/compare/deltas.tsv"]),
        _step("vot_measure", ["vot", "measure", "out/final/*.TextGrid",
                              "--out", "out/measure/measurements.tsv"]),
    ]


def batch_qc(truth: dict) -> list[dict]:
    stereo = [f"corpus/wav/{fid}.wav" for fid in truth["stereo"]]
    return [
        _step("validate_mfa", ["validate-mfa", "corpus/grids/*.TextGrid",
                               "--wav-dir", "corpus/wav"]),
        _step("tg_diagnose", ["tg", "diagnose", "corpus/grids/*.TextGrid"]),
        _step("fave_check", ["fave", "check", "corpus/fave/*.txt", "--wav-dir",
                             "corpus/wav", "--lexicon", "corpus/fave_dict.txt"]),
        _step("audio_info", ["audio", "info", "corpus/wav/*.wav"]),
        _step("audio_mono", ["audio", "mono", *stereo, "--channel", "2",
                             "--out-dir", "out/mono"]),
    ]


def corpus_prep(truth: dict) -> list[dict]:
    return [
        _step("kaldi_build", ["kaldi-prep", "build", "--records", "corpus/records.tsv",
                              "--out", "out/train", "--mfcc-conf", "out/conf/mfcc.conf"]),
        _step("kaldi_validate", ["kaldi-prep", "validate", "corpus/data_raw"]),
        _step("kaldi_fix", ["kaldi-prep", "fix", "corpus/data_raw", "--out", "out/fixed"]),
        _step("lexicon_filter", ["lexicon", "filter", "--lexicon", "corpus/dict/cmudict.txt",
                                 "--kaldi-text", "out/train/text",
                                 "--out", "out/lang/lexicon.txt"]),
        _step("lexicon_missing", ["lexicon", "missing", "--lexicon", "corpus/dict/cmudict.txt",
                                  "--kaldi-text", "out/train/text",
                                  "--out", "out/missing/missing.txt"]),
        _step("lexicon_phones", ["lexicon", "phones", "--lexicon", "out/lang/lexicon.txt",
                                 "--out-dir", "out/phones"]),
        _step("ctm2tg", ["ctm2tg", "--ctm", "corpus/ali.ctm", "--segments", "out/train/segments",
                         "--phones", "corpus/lang/phones.txt",
                         "--lexicon", "corpus/dict/aligner_lexicon.txt",
                         "--text", "out/train/text", "--out", "out/grids"]),
    ]


STEPS = {"vot-cycle": vot_cycle, "batch-qc": batch_qc, "corpus-prep": corpus_prep}

# the steps whose wall time is reported by name (per workload)
NAMED = {
    "vot-cycle": ("vot_locate", "vot_prefer", "vot_compare", "vot_measure"),
    "batch-qc": ("validate_mfa", "tg_diagnose", "audio_mono"),
    "corpus-prep": ("ctm2tg", "kaldi_validate", "lexicon_filter"),
}
