"""Compare one pass's outputs with the generator's ground truth.

Each checked unit is an operation: one (step, file) pair for per-file work,
or one (step, output) pair otherwise. An operation fails when its step exited
with code 2, or when an output or a finding disagrees with the ground truth.
Planted defects that are reported as expected are not failures. A failure is
loud when the program reported it itself (exit code 2 or an ERROR finding
for that operation); a silent one means a wrong output went unreported.
"""

from __future__ import annotations

import struct
from pathlib import Path

from corpus import VOICED, VOICELESS, byte_sorted, in_seconds, kaldi_seconds, sec
from praat import labelled, read_grid, tier_names

TOL = 2e-6
# analysis-window padding around a stop, in ms
PAD_MS = {**{s: 31 for s in VOICELESS}, **{s: 11 for s in VOICED}}
SEVERITIES = ("ERROR", "WARNING", "INFO")


class Outcome:
    def __init__(self) -> None:
        self.ops: dict[tuple[str, str], list[str]] = {}
        self.loud: set[tuple[str, str]] = set()
        self.findings = dict.fromkeys(SEVERITIES, 0)

    def expect(self, step: str, keys) -> None:
        for key in keys:
            self.ops.setdefault((step, key), [])

    def fail(self, step: str, key: str, why: str, loud: bool = False) -> None:
        self.ops.setdefault((step, key), []).append(why)
        if loud:
            self.loud.add((step, key))

    def same(self, step: str, key: str, what: str, got, want) -> None:
        if not _close(got, want):
            self.fail(step, key, f"{what} differs from ground truth")

    @property
    def failed(self) -> list[tuple[str, str]]:
        return [op for op, why in self.ops.items() if why]

    @property
    def silent(self) -> list[tuple[str, str]]:
        return [op for op in self.failed if op not in self.loud]


def _close(a, b) -> bool:
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        try:
            return abs(float(a) - float(b)) <= TOL
        except (TypeError, ValueError):
            return False
    return a == b


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def _grid(out: Outcome, step: str, key: str, path: Path):
    text = _read(path)
    if text is None:
        out.fail(step, key, f"{path} missing")
        return None, None
    return read_grid(text), tier_names(text)


def _rows(text: str | None, header: str | None = None) -> list[list[str]]:
    if text is None:
        return []
    lines = text.splitlines()
    if header is not None:
        if not lines or lines[0] != header:
            return []
        lines = lines[1:]
    return [line.split("\t") for line in lines if line]


def check_step_basics(out: Outcome, step: dict, record: dict, work: Path,
                      expected: dict[str, list[tuple]], keys: list[str], key_of) -> None:
    """Exit codes and findings of one step against the planted defects.

    expected maps an operation key to (severity, location, keyword) triples.
    """
    name = step["name"]
    out.expect(name, keys)
    if 2 in record["codes"]:
        for key in keys:
            out.fail(name, key, "exit code 2", loud=True)
    want: dict[tuple[str, str, str], list[str]] = {}
    for key, items in expected.items():
        for sev, loc, keyword in items:
            want.setdefault((key, sev, loc), []).append(keyword)
    for k in range(len(step["calls"])):
        text = _read(work / "out" / "reports" / f"{name}-{k}.tsv") or ""
        for line in text.splitlines():
            sev, file, loc, msg = line.split("\t", 3)
            out.findings[sev] = out.findings.get(sev, 0) + 1
            key = key_of(file)
            keywords = want.get((key, sev, loc), [])
            hit = next((kw for kw in keywords if kw in msg), None)
            if hit is not None:
                keywords.remove(hit)
                continue
            for k2 in (keys if key not in keys else [key]):
                out.fail(name, k2, f"unexpected {sev} [{loc}] {msg}", loud=sev == "ERROR")
    for (key, sev, loc), keywords in want.items():
        for kw in keywords:
            out.fail(name, key, f"expected {sev} [{loc}] '{kw}' not reported")


def _fid(file: str) -> str:
    return Path(file).stem.split("_")[0]


# ---------------------------------------------------------------------------
# vot-cycle


def check_vot_cycle(truth: dict, work: Path, steps: list[dict], record: dict) -> Outcome:
    out = Outcome()
    o = work / "out"
    grids = truth["grids"]
    fids = sorted(grids)
    by_name = {s["name"]: s for s in steps}
    records = {s["name"]: s for s in record["steps"]}

    def basics(name, expected=None, keys=fids):
        check_step_basics(out, by_name[name], records[name], work, expected or {}, keys, _fid)

    def final_tokens(g):
        manual = {m[3]: m for m in g["manuals"]}
        return [(*manual.get(a[3], a)[:2], a[2], a[3]) for a in g["autos"]]

    basics("vot_words", keys=["wordList"])
    want = "".join(w + "\n" for w in truth["word_list"])
    if _read(o / "words" / "wordList.txt") != want:
        out.fail("vot_words", "wordList", "word list differs from ground truth")

    basics("vot_locate")
    rows = _rows(_read(o / "locate" / "CVWordLocations.txt"))
    for fid in fids:
        got = [r[1:] for r in rows if r[0] == fid]
        want = [[c["word"], sec(c["start"]), sec(c["end"]), c["stop"], sec(c["stop_end"])]
                for c in grids[fid]["occurrences"]]
        out.same("vot_locate", fid, "located words", got, want)

    basics("vot_windows")
    for fid in fids:
        g = grids[fid]
        tiers, names = _grid(out, "vot_windows", fid, o / "windows" / f"{fid}_allauto.TextGrid")
        if tiers is None:
            continue
        want = [(max(0.0, sec(c["start"] - PAD_MS[c["stop"]])),
                 min(sec(g["xmax"]), sec(c["stop_end"] + PAD_MS[c["stop"]])), c["stop"])
                for c in g["occurrences"]]
        out.same("vot_windows", fid, "tiers", names, ["phones", "words", "manual", "vot"])
        out.same("vot_windows", fid, "windows", labelled(tiers.get("vot", [])), want)

    basics("vot_lists", keys=["lists"])
    wavs = "".join(f"{(work / 'corpus' / 'wav' / f'{fid}.wav').resolve()}\n" for fid in fids)
    tgs = "".join(f"{(o / 'windows' / f'{fid}_allauto.TextGrid').resolve()}\n" for fid in fids)
    printed = _read(o / "_stdout" / "vot_lists.txt") or ""
    if (_read(o / "config" / "ListWavFiles.txt") != wavs
            or _read(o / "config" / "ListTextGrids.txt") != tgs
            or [f"--window_mark {s} " in line for s, line in zip("PTKBDG", printed.splitlines())]
            != [True] * 6):
        out.fail("vot_lists", "lists", "decoder lists or commands differ from ground truth")

    for name, path, layout in (
        ("vot_merge", "merged/{}_stops", ["phones", "words", "vot"]),
        ("tg_stack", "stacked/{}_stacked", ["phones", "words", "vot", "manual"]),
        ("vot_prefer", "final/{}_stacked2", ["phones", "words", "vot", "manual"]),
    ):
        basics(name)
        for fid in fids:
            g = grids[fid]
            tiers, names = _grid(out, name, fid, o / f"{path.format(fid)}.TextGrid")
            if tiers is None:
                continue
            autos = final_tokens(g) if name == "vot_prefer" else g["autos"]
            out.same(name, fid, "tiers", names, layout)
            out.same(name, fid, "vot tier", labelled(tiers.get("vot", [])), in_seconds(autos))
            if "manual" in layout:
                out.same(name, fid, "manual tier", labelled(tiers.get("manual", [])),
                         in_seconds(g["manuals"]))

    expected = {}
    for fid in fids:
        g = grids[fid]
        auto_ids = {a[3] for a in g["autos"]}
        manual_ids = {m[3] for m in g["manuals"]}
        expected[fid] = [
            ("WARNING", f"[{sec(m[0])}, {sec(m[1])}]", "manual token with no auto counterpart")
            for m in g["manuals"] if m[3] not in auto_ids
        ] + [
            ("WARNING", f"[{sec(a[0])}, {sec(a[1])}]", "auto token with no manual counterpart")
            for a in g["autos"] if a[3] not in manual_ids
        ]
    basics("vot_compare", expected)
    rows = _rows(_read(o / "compare" / "deltas.tsv"),
                 "file_id\tlabel\tmanual_burst\tauto_burst\tburst_delta\tvowel_delta")
    for fid in fids:
        g = grids[fid]
        autos = {a[3]: a for a in g["autos"]}
        pairs = sorted((m, autos[m[3]]) for m in g["manuals"] if m[3] in autos)
        want = [[m[2], sec(m[0]), sec(a[0]), sec(a[0] - m[0]), sec(a[1] - m[1])]
                for m, a in pairs]
        out.same("vot_compare", fid, "boundary deltas",
                 [r[1:] for r in rows if _fid(r[0]) == fid], want)

    basics("vot_measure")
    rows = _rows(_read(o / "measure" / "measurements.tsv"),
                 "file_id\tword\tstop\tburst_onset\tvocalic_onset\tvot\t"
                 "vowel_duration\tword_duration\tspeaking_rate")
    for fid in fids:
        occ = grids[fid]["occurrences"]
        want = [[occ[k]["word"], stop, sec(a), sec(b), sec(b - a), sec(occ[k]["vowel_ms"]),
                 sec(occ[k]["end"] - occ[k]["start"]), occ[k]["rate"]]
                for a, b, stop, k in final_tokens(grids[fid])]
        out.same("vot_measure", fid, "measurements",
                 [r[1:] for r in rows if _fid(r[0]) == fid], want)
    return out


# ---------------------------------------------------------------------------
# batch-qc


def _wav_info(data: bytes) -> tuple[int, int, int, bytes] | None:
    """(channels, rate, bits, samples) of a canonical 44-byte-header PCM WAV."""
    if len(data) < 44 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        return None
    code, channels, rate = struct.unpack_from("<HHI", data, 20)
    (bits,) = struct.unpack_from("<H", data, 34)
    (size,) = struct.unpack_from("<I", data, 40)
    if code != 1 or data[36:40] != b"data":
        return None
    return channels, rate, bits, data[44:44 + size]


def check_batch_qc(truth: dict, work: Path, steps: list[dict], record: dict) -> Outcome:
    out = Outcome()
    o = work / "out"
    files = truth["files"]
    fids = sorted(files)
    by_name = {s["name"]: s for s in steps}
    records = {s["name"]: s for s in record["steps"]}

    mfa, diag, fave = {}, {}, {}
    for fid in fids:
        f = files[fid]
        grid, rows = f["grid"], f["rows"]
        items = []
        if f["channels"] != 1:
            items.append(("ERROR", "wav", "not mono"))
        if f["rate"] != 16000:
            items.append(("ERROR", "wav", f"sample rate is {f['rate']} Hz"))
        first, last = grid[0], grid[-1]
        loc = lambda iv: f"tier 'transcript' [{sec(iv[0])}, {sec(iv[1])}]"
        items += {
            "start_edge": [("ERROR", loc(first), "absolute start of the file")],
            "end_edge": [("ERROR", loc(last), "final boundary at file end")],
            "margin_error": [("ERROR", "grid", "between the final boundary and the file end")],
            "margin_warn": [("WARNING", "grid", "under the recommended")],
        }.get(f["grid_defect"], [])
        mfa[fid] = items
        if f["grid_defect"] == "overlap":
            diag[fid] = [("ERROR", "tier 1 (transcript)", "intervals 1 and 2 overlap")]
        fave[fid] = {
            "swap": [("ERROR", "line 1", "is not before offset")],
            "overlap": [("ERROR", "lines 1+2", "overlapping utterances")],
            "past_end": [("WARNING", f"line {len(rows)}", "past the end of the audio")],
            "budget": [("WARNING", "line 1", "expect overlapping intervals")],
        }.get(f["fave_defect"], [])

    for name, expected in (("validate_mfa", mfa), ("tg_diagnose", diag), ("fave_check", fave)):
        check_step_basics(out, by_name[name], records[name], work, expected, fids, _fid)

    check_step_basics(out, by_name["audio_info"], records["audio_info"], work, {}, fids, _fid)
    printed = set((_read(o / "_stdout" / "audio_info.txt") or "").splitlines())
    for fid in fids:
        f = files[fid]
        line = (f"corpus/wav/{fid}.wav: {f['rate']} Hz, {f['channels']} ch, "
                f"16-bit PCM, {kaldi_seconds(sec(f['dur']))} s")
        if line not in printed:
            out.fail("audio_info", fid, "header summary differs from ground truth")

    stereo = truth["stereo"]
    check_step_basics(out, by_name["audio_mono"], records["audio_mono"], work, {}, stereo, _fid)
    for fid in stereo:
        f = files[fid]
        path = o / "mono" / f"{fid}_mono.wav"
        info = _wav_info(path.read_bytes()) if path.exists() else None
        if info != (1, f["rate"], 16, f["channel2"]):
            out.fail("audio_mono", fid, "mono file is not the planted second channel")
    return out


# ---------------------------------------------------------------------------
# corpus-prep


def _pron_groups(entries) -> str:
    groups: dict[str, list[str]] = {}
    for phone in {p for _, pron in entries for p in pron} - {"oov", "SIL"}:
        groups.setdefault(phone.rstrip("012"), []).append(phone)
    return "".join(" ".join(byte_sorted(groups[b])) + "\n" for b in byte_sorted(groups))


def check_corpus_prep(truth: dict, work: Path, steps: list[dict], record: dict) -> Outcome:
    out = Outcome()
    o = work / "out"
    by_name = {s["name"]: s for s in steps}
    records = {s["name"]: s for s in record["steps"]}
    kaldi = truth["kaldi"]
    names = list(kaldi)

    def basics(name, keys, expected=None, key_of=None):
        check_step_basics(out, by_name[name], records[name], work, expected or {}, keys,
                          key_of or (lambda file: keys[0]))

    basics("kaldi_build", names + ["mfcc.conf"])
    for name in names:
        if _read(o / "train" / name) != kaldi[name]:
            out.fail("kaldi_build", name, "data-dir file differs from ground truth")
    if _read(o / "conf" / "mfcc.conf") != "--use-energy=false\n--sample-frequency=16000\n":
        out.fail("kaldi_build", "mfcc.conf", "mfcc.conf differs from ground truth")

    dups = truth["dup_keys"]
    expected = [("ERROR", name, "not in C-sorted order") for name in dups]
    expected += [("ERROR", name, f"duplicate entry for {key!r}")
                 for name in ("text", "segments", "utt2spk") for key in dups[name]]
    expected += [("WARNING", "wav.scp", f"repeated identical entry for {key!r}")
                 for key in dups["wav.scp"]]
    basics("kaldi_validate", ["data_raw"], {"data_raw": expected})

    log = [("INFO", "fix", f"{name}: dropped duplicate line for {key!r}")
           for name in ("text", "segments", "utt2spk") for key in dups[name]]
    log += [("INFO", "fix", f"wav.scp: dropped repeated identical entry for {key!r}")
            for key in dups["wav.scp"]]
    basics("kaldi_fix", ["data_raw"] + names, {"data_raw": log})
    for name in names:
        if _read(o / "fixed" / name) != kaldi[name]:
            out.fail("kaldi_fix", name, "repaired file differs from the clean data dir")

    used = {w for u in truth["utts"] for w in u[5]}
    kept = [(w, p) for w, p in truth["cmudict"] if w in used]
    filtered = [("<oov>", ("oov",))] + kept
    unstressed = [
        ("INFO", w, "has no stressed vowel") for w, p in kept
        if all(x.endswith("0") for x in p if x[-1] in "012")
    ]
    basics("lexicon_filter", ["lexicon.txt"], {"lexicon.txt": unstressed})
    if _read(o / "lang" / "lexicon.txt") != "".join(f"{w} {' '.join(p)}\n" for w, p in filtered):
        out.fail("lexicon_filter", "lexicon.txt", "filtered lexicon differs from ground truth")

    missing = byte_sorted(used & set(truth["missing"]))
    basics("lexicon_missing", ["missing.txt"],
           {"missing.txt": [("WARNING", w, "missing from lexicon") for w in missing]})
    if _read(o / "missing" / "missing.txt") != "".join(w + "\n" for w in missing):
        out.fail("lexicon_missing", "missing.txt", "missing-word list differs from ground truth")

    basics("lexicon_phones", ["phones"])
    if (_read(o / "phones" / "nonsilence_phones.txt") != _pron_groups(filtered)
            or _read(o / "phones" / "silence_phones.txt") != "SIL\noov\n"
            or _read(o / "phones" / "optional_silence.txt") != "SIL\n"):
        out.fail("lexicon_phones", "phones", "phone-set files differ from ground truth")

    utts = sorted(truth["utts"], key=lambda u: u[0].encode("utf-8"))
    fids = sorted({u[1] for u in utts})
    basics("ctm2tg", ["final_ali"] + fids, key_of=_fid)
    ids = {s: i for i, s in enumerate(truth["symbols"])}
    want = [
        [u[0], u[1], str(ids[sym]), "1", sec(s), sec(d), sym, sec(u[2]), sec(u[3]),
         sec(u[2] + s), sec(u[2] + s + d)]
        for u in utts for s, d, sym, _ in u[6]
    ]
    got = _rows(_read(o / "grids" / "final_ali.txt"),
                "file_utt\tfile\tid\tali\tstartinutt\tdur\tphone\tstart_utt\tend_utt\tstart\tend")
    out.same("ctm2tg", "final_ali", "alignment table", got, want)
    by_file: dict[str, list] = {}
    for u in utts:
        by_file.setdefault(u[1], []).append(u)
    for fid in fids:
        phones, words = [], []
        for u in sorted(by_file[fid], key=lambda u: u[2]):
            phones += [(sec(u[2] + s), sec(u[2] + s + d), sym) for s, d, sym, _ in u[6]]
            for k, word in enumerate(u[5]):
                spans = [(s, s + d) for s, d, _, w in u[6] if w == k]
                words.append((sec(u[2] + spans[0][0]), sec(u[2] + spans[-1][1]), word))
        tiers, names_ = _grid(out, "ctm2tg", fid, o / "grids" / f"{fid}.TextGrid")
        if tiers is None:
            continue
        out.same("ctm2tg", fid, "tiers", names_, ["phones", "words"])
        out.same("ctm2tg", fid, "phone tier", labelled(tiers.get("phones", [])), phones)
        out.same("ctm2tg", fid, "word tier", labelled(tiers.get("words", [])), words)
    return out


CHECKS = {
    "vot-cycle": check_vot_cycle,
    "batch-qc": check_batch_qc,
    "corpus-prep": check_corpus_prep,
}


def check(truth: dict, work: Path, steps: list[dict], record: dict) -> Outcome:
    """Check the outputs left in work/out by the pass described by record."""
    return CHECKS[truth["workload"]](truth, work, steps, record)
