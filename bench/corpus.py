"""Seeded synthetic corpora for the three benchmark workloads.

`generate(workload, seed, root)` writes the program's inputs under
`root/corpus` and returns the ground truth the checker compares outputs
with. It uses only the standard library and `praat`, never the package under
test. Sizes are fixed per workload; the seed only chooses content (words,
durations, which files carry which planted defect), so runs with different
seeds do the same amount of work.

All times are whole milliseconds until they are written out.
"""

from __future__ import annotations

import random
import struct
from pathlib import Path

from praat import write_grid

VOICELESS = "PTK"
VOICED = "BDG"
STOPS = VOICELESS + VOICED
CONSONANTS = "S M N L R F V Z SH HH W Y CH JH TH NG".split()
VOWELS = "AA AE AH AO AW AY EH ER EY IH IY OW OY UH UW".split()

# vot-cycle: word counts per grid span 4x, so per-item cost growth shows
VOT_GRID_WORDS = (200, 320, 480, 800)
VOT_VOCAB = 300

# batch-qc: durations on a fixed geometric ladder, so total audio is seed-free
QC_FILES = 120
QC_MIN_MS, QC_MAX_MS = 2_000, 150_000
QC_STEREO_RANKS = (10, 30, 50, 70, 90, 110)
QC_44K_RANKS = (20, 40, 60, 80, 100, 119)
QC_GRID_DEFECTS = {"overlap": 5, "start_edge": 4, "end_edge": 3,
                   "margin_error": 3, "margin_warn": 4}
QC_FAVE_DEFECTS = {"swap": 2, "overlap": 3, "past_end": 3, "budget": 3}

# corpus-prep: ~1e5 CTM lines over 100 files
CP_FILES = 100
CP_UTTS_PER_FILE = 40
CP_VOCAB = 1500
CP_LEXICON = 30_000
CP_MISSING = 12
CP_SPN = 40
CP_DUPLICATES = {"text": 25, "segments": 25, "utt2spk": 25, "wav.scp": 5}


def sec(ms: int) -> float:
    return ms / 1000


def in_seconds(intervals) -> list[tuple[float, float, str]]:
    """(start_ms, end_ms, label, ...) tuples as (start_s, end_s, label)."""
    return [(sec(a), sec(b), x) for a, b, x, *_ in intervals]


def kaldi_seconds(t: float) -> str:
    s = f"{t:.6f}".rstrip("0")
    return s + "0" if s.endswith(".") else s


def byte_sorted(items):
    return sorted(items, key=lambda s: s.encode("utf-8"))


def write(path: Path, data: str | bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.write_bytes(data)


# ---------------------------------------------------------------------------
# words


def make_pron(rng: random.Random, onset: str, syllables: int,
              unstressed: bool = False) -> tuple[str, ...]:
    """A pronunciation of one or two VC syllables with Arpabet stress digits.

    onset "cv": stop + vowel (an AutoVOT target); "cc": stop + liquid;
    "c": a non-stop consonant; anything else: no onset consonant.
    """
    head = {
        "cv": lambda: [rng.choice(STOPS)],
        "cc": lambda: [rng.choice(STOPS), rng.choice(["L", "R"])],
        "c": lambda: [rng.choice(CONSONANTS)],
    }.get(onset, lambda: [])()
    body = []
    for _ in range(syllables):
        body += [rng.choice(VOWELS), rng.choice(CONSONANTS + list(STOPS))]
    vowel_slots = [i for i, p in enumerate(body) if p in VOWELS]
    primary = rng.choice(vowel_slots)
    for i in vowel_slots:
        digit = "0" if unstressed or i != primary else "1"
        body[i] += digit
    return tuple(head + body)


def spelling(pron: tuple[str, ...]) -> str:
    return "".join(p.rstrip("012") for p in pron)


MIXED = [("cv", 0.3), ("cc", 0.1), ("c", 0.5), ("", 0.1)]


def make_vocab(rng: random.Random, n: int, onsets: list[tuple[str, float]],
               syllables: int | None = None, unstressed_share: float = 0.0,
               taken: set[str] | None = None):
    """n distinct (word, pron) pairs; onset kinds drawn with given weights.

    Words have one or two syllables (one two times in three) unless
    syllables fixes the count.
    """
    taken = set() if taken is None else taken
    kinds = [k for k, _ in onsets]
    weights = [w for _, w in onsets]
    out = []
    while len(out) < n:
        pron = make_pron(rng, rng.choices(kinds, weights)[0],
                         syllables or rng.choice((1, 1, 2)),
                         rng.random() < unstressed_share)
        word = spelling(pron)
        if word in taken:
            continue
        taken.add(word)
        out.append((word, pron))
    return out


def byte_sorted_entries(entries):
    return sorted(entries, key=lambda e: e[0].encode("utf-8"))


def is_cv_target(pron: tuple[str, ...]) -> bool:
    return len(pron) >= 2 and pron[0] in STOPS and pron[1].rstrip("012") in VOWELS


def lexicon_text(entries) -> str:
    return "".join(f"{w}  {' '.join(p)}\n" for w, p in entries)


def positioned(pron: tuple[str, ...]) -> list[str]:
    """Kaldi word-position-dependent phone symbols for one word."""
    if len(pron) == 1:
        return [pron[0] + "_S"]
    return [pron[0] + "_B"] + [p + "_I" for p in pron[1:-1]] + [pron[-1] + "_E"]


# ---------------------------------------------------------------------------
# WAV


def wav_bytes(frames: bytes, rate: int, channels: int) -> bytes:
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(frames), b"WAVE", b"fmt ", 16,
        1, channels, rate, rate * channels * 2, channels * 2, 16,
        b"data", len(frames),
    )
    return header + frames


def interleave(ch1: bytes, ch2: bytes) -> bytes:
    out = bytearray(len(ch1) * 2)
    out[0::4], out[1::4] = ch1[0::2], ch1[1::2]
    out[2::4], out[3::4] = ch2[0::2], ch2[1::2]
    return bytes(out)


# ---------------------------------------------------------------------------
# vot-cycle


def _phone_ms(rng: random.Random, phone: str, initial: bool) -> int:
    base = phone.rstrip("012")
    if initial and base in VOICELESS:
        return rng.randrange(80, 140, 10)
    if initial and base in VOICED:
        return rng.randrange(50, 100, 10)
    if base in VOWELS:
        return rng.randrange(60, 170, 10)
    return rng.randrange(40, 110, 10)


def _vot_grid(rng: random.Random, n_words: int, shapes: list[list]) -> dict:
    """One aligned grid: tiers, stop occurrences, and planted decoder tokens.

    The words come from the vocabularies in shapes, in fixed proportions, so
    every seed gives the same number of phones and stop tokens.
    """
    slots = [k for k in range(len(shapes)) for _ in range(n_words // len(shapes))]
    slots += rng.sample(range(len(shapes)), n_words - len(slots))
    rng.shuffle(slots)
    words, phones, occurrences = [], [], []
    t = rng.randrange(200, 500, 10)
    words.append((0, t, "sil"))
    phones.append((0, t, "SIL"))
    remaining = n_words
    while remaining:
        size = min(remaining, rng.randint(6, 12))
        remaining -= size
        sentence_words = []
        for _ in range(size):
            word, pron = rng.choice(shapes[slots.pop()])
            start = t
            spans = []
            for i, (p, sym) in enumerate(zip(pron, positioned(pron))):
                d = _phone_ms(rng, p, i == 0)
                phones.append((t, t + d, sym))
                spans.append((t, t + d))
                t += d
            words.append((start, t, word))
            sentence_words.append((start, t))
            if is_cv_target(pron):
                occurrences.append({
                    "word": word, "start": start, "end": t, "stop": pron[0],
                    "stop_end": spans[0][1], "vowel_ms": spans[1][1] - spans[1][0],
                    "sentence": sentence_words,
                })
        sp, gap = rng.randrange(100, 210, 10), rng.randrange(200, 510, 10)
        # "sp" then an empty interval: two silent intervals end a sentence
        words.append((t, t + sp, "sp" if remaining else "sil"))
        phones.append((t, t + sp + gap, "SIL"))
        t += sp + gap
    for occ in occurrences:
        s = occ.pop("sentence")
        occ["rate"] = sum(sec(b) - sec(a) for a, b in s) / len(s)

    autos, manuals = [], []
    for k, occ in enumerate(occurrences):
        voiceless = occ["stop"] in VOICELESS
        vot = rng.randint(25, 65) if voiceless else rng.randint(6, 20)
        vocalic = occ["stop_end"] - rng.randint(0, 4)
        auto = (vocalic - vot, vocalic, occ["stop"], k)
        roll = rng.random()
        if roll < 0.33:  # hand-corrected, a few ms off the decoder
            d1, d2 = rng.randint(-3, 3), rng.randint(-3, 3)
            if vot + d2 - d1 < 3:
                d2 = d1
            manuals.append((auto[0] + d1, auto[1] + d2, occ["stop"], k))
        if roll < 0.03:  # the decoder missed it; only the annotator marked it
            continue
        autos.append(auto)
    return {"xmax": t, "words": words, "phones": phones,
            "occurrences": occurrences, "autos": autos, "manuals": manuals}


def _plant_long_lag(grid: dict) -> None:
    """A long-lag token: it overlaps the vowel (30 ms) more than the stop (20 ms).

    Its stop is the phone holding the burst onset. It goes on the last
    voiceless token with no manual counterpart, so it sits late in the file
    and measuring the file does nearly all its per-token work before it.
    """
    manual_ids = {m[3] for m in grid["manuals"]}
    for i in range(len(grid["autos"]) - 1, -1, -1):
        *_, stop, k = grid["autos"][i]
        if stop in VOICELESS and k not in manual_ids:
            se = grid["occurrences"][k]["stop_end"]
            grid["autos"][i] = (se - 20, se + 30, stop, k)
            return
    raise RuntimeError("no voiceless token without a manual counterpart")


def gen_vot_cycle(rng: random.Random, root: Path) -> dict:
    c = root / "corpus"
    taken: set[str] = set()
    # grid words: stop-initial targets and consonant-initial others, one and
    # two syllables each; the stop + liquid words are only in the lexicon
    shapes = [make_vocab(rng, VOT_VOCAB // 5, [(onset, 1)], syllables, taken=taken)
              for onset in ("cv", "c") for syllables in (1, 2)]
    vocab = [e for shape in shapes for e in shape]
    vocab += make_vocab(rng, VOT_VOCAB // 5, [("cc", 1)], taken=taken)
    targets = [(w, p) for w, p in vocab if is_cv_target(p)]
    write(c / "dict.txt", lexicon_text(byte_sorted_entries(vocab)))

    sizes = list(VOT_GRID_WORDS)
    middle = [i for i, n in enumerate(sizes) if min(sizes) < n < max(sizes)]
    lag_file = rng.choice(middle)
    grids = {}
    for i, n in enumerate(sizes):
        fid = f"v{i}"
        g = _vot_grid(rng, n, shapes)
        if i == lag_file:
            _plant_long_lag(g)
        grids[fid] = g
        xmax = sec(g["xmax"])
        write(c / "aligned" / f"{fid}.TextGrid", write_grid(xmax, [
            ("phones", in_seconds(g["phones"])), ("words", in_seconds(g["words"])),
            ("manual", in_seconds(g["manuals"]))]))
        write(c / "manual" / f"{fid}.TextGrid",
              write_grid(xmax, [("manual", in_seconds(g["manuals"]))]))
        decoded = [(f"{s}_auto", in_seconds(a for a in g["autos"] if a[2] == s))
                   for s in STOPS]
        write(c / "decoded" / f"{fid}_allauto.TextGrid", write_grid(xmax, [
            ("phones", in_seconds(g["phones"])), ("words", in_seconds(g["words"]))] + decoded))
        # the decoder's audio list needs files; nothing here reads samples
        write(c / "wav" / f"{fid}.wav", wav_bytes(bytes(3200), 16000, 1))
    return {
        "workload": "vot-cycle",
        "word_list": byte_sorted(w for w, _ in targets),
        "grids": grids,
        "stats": {"files": len(grids), "words": sum(sizes), "ctm_lines": 0,
                  "wav_mb": 0.0},
    }


# ---------------------------------------------------------------------------
# batch-qc


def _qc_utterances(rng: random.Random, dur: int, vocab) -> list[list]:
    n = max(1, min(8, dur // 5000))
    lo, hi = 200, dur - 300
    slot = (hi - lo) // n
    utts = []
    for k in range(n):
        a = lo + k * slot + rng.randrange(0, 200, 10)
        b = lo + (k + 1) * slot - rng.randrange(100, 300, 10)
        words = [rng.choice(vocab)[0] for _ in range(max(1, min(12, (b - a) // 500)))]
        utts.append([a, b, " ".join(words)])
    return utts


def gen_batch_qc(rng: random.Random, root: Path) -> dict:
    c = root / "corpus"
    vocab = make_vocab(rng, 200, MIXED)
    write(c / "fave_dict.txt", lexicon_text(vocab))

    ladder = [
        round(QC_MIN_MS * (QC_MAX_MS / QC_MIN_MS) ** (i / (QC_FILES - 1)) / 10) * 10
        for i in range(QC_FILES)
    ]
    # which file gets which duration is fixed too: at --jobs 2 the sizes of
    # neighbouring files decide how much audio is in memory at once
    order = random.Random("batch-qc durations").sample(range(QC_FILES), QC_FILES)
    files = {}
    for rank, idx in enumerate(order):
        fid = f"q{idx:03d}"
        dur = ladder[rank]
        rate = 44100 if rank in QC_44K_RANKS else 16000
        channels = 2 if rank in QC_STEREO_RANKS else 1
        files[fid] = {"dur": dur, "rate": rate, "channels": channels,
                      "utts": _qc_utterances(rng, dur, vocab),
                      "grid_defect": None, "fave_defect": None}
    ids = sorted(files)
    multi = [f for f in ids if len(files[f]["utts"]) >= 2]

    pool = list(ids)
    for defect, count in QC_GRID_DEFECTS.items():
        eligible = [f for f in pool if defect != "overlap" or f in multi]
        for fid in rng.sample(eligible, count):
            files[fid]["grid_defect"] = defect
            pool.remove(fid)
    pool = list(ids)
    for defect, count in QC_FAVE_DEFECTS.items():
        eligible = [f for f in pool if defect != "overlap" or f in multi]
        for fid in rng.sample(eligible, count):
            files[fid]["fave_defect"] = defect
            pool.remove(fid)

    wav_bytes_total = 0
    for fid in ids:
        f = files[fid]
        dur, utts = f["dur"], f["utts"]
        frames = dur * f["rate"] // 1000
        if f["channels"] == 2:
            ch1, ch2 = rng.randbytes(2 * frames), rng.randbytes(2 * frames)
            data = interleave(ch1, ch2)
            f["channel2"] = ch2
        else:
            data = rng.randbytes(2 * frames)
        wav = wav_bytes(data, f["rate"], f["channels"])
        wav_bytes_total += len(wav)
        write(c / "wav" / f"{fid}.wav", wav)

        grid = [list(u) for u in utts]
        defect = f["grid_defect"]
        if defect == "overlap":
            grid[0][1] = grid[1][0] + 100
        elif defect == "start_edge":
            grid[0][0] = 0
        elif defect == "end_edge":
            grid[-1][1] = dur
        elif defect == "margin_error":
            grid[-1][1] = dur - 10
        elif defect == "margin_warn":
            grid[-1][1] = dur - 30
        f["grid"] = grid
        write(c / "grids" / f"{fid}.TextGrid", write_grid(
            sec(dur), [("transcript", [(sec(a), sec(b), t) for a, b, t in grid])]))

        rows = [[("A", "B")[k % 2], a, b, t] for k, (a, b, t) in enumerate(utts)]
        defect = f["fave_defect"]
        if defect == "swap":
            rows[0][1], rows[0][2] = rows[0][2], rows[0][1]
        elif defect == "overlap":
            rows[1][0] = rows[0][0]
            rows[1][1] = rows[0][2] - 100
        elif defect == "past_end":
            rows[-1][2] = dur + 3000
        elif defect == "budget":
            rows[0][2] = rows[0][1] + 50
        f["rows"] = rows
        write(c / "fave" / f"{fid}.txt", "".join(
            f"{spk}\tSpeaker {spk}\t{sec(a):.3f}\t{sec(b):.3f}\t{t}\n"
            for spk, a, b, t in rows))
    return {
        "workload": "batch-qc",
        "files": files,
        "stereo": [fid for fid in ids if files[fid]["channels"] == 2],
        "stats": {"files": QC_FILES,
                  "words": sum(len(u[2].split()) for f in files.values() for u in f["utts"]),
                  "ctm_lines": 0, "wav_mb": wav_bytes_total / 1e6},
    }


# ---------------------------------------------------------------------------
# corpus-prep


def gen_corpus_prep(rng: random.Random, root: Path) -> dict:
    c = root / "corpus"
    taken: set[str] = set()
    vocab = make_vocab(rng, CP_VOCAB, MIXED, unstressed_share=0.05, taken=taken)
    prons = {w: [p] for w, p in vocab}
    for w, p in rng.sample(vocab, CP_VOCAB // 10):  # pronunciation variants
        variant = p[:-1] + (rng.choice(CONSONANTS),)
        if variant not in prons[w]:
            prons[w].append(variant)
    missing = set(rng.sample([w for w, _ in vocab], CP_MISSING))
    fillers = make_vocab(rng, CP_LEXICON - CP_VOCAB, MIXED, taken=taken)
    cmudict = [(w, p) for w, ps in prons.items() if w not in missing for p in ps]
    cmudict += fillers
    cmudict = byte_sorted_entries(cmudict)
    write(c / "dict" / "cmudict.txt", lexicon_text(cmudict))
    added = [(w, p) for w in byte_sorted(missing) for p in prons[w]]
    write(c / "dict" / "aligner_lexicon.txt", lexicon_text(cmudict + added))

    symbols = ["<eps>", "SIL", "SPN"]
    bases = sorted(set(CONSONANTS) | set(STOPS)) + [v + d for v in VOWELS for d in "012"]
    symbols += [f"{b}_{pos}" for b in bases for pos in "BEIS"]
    phone_id = {s: i for i, s in enumerate(symbols)}
    write(c / "lang" / "phones.txt", "".join(f"{s} {i}\n" for s, i in phone_id.items()))

    words = [w for w, _ in vocab]
    utts = []  # (utt, fid, start, end, speaker, words, tokens)
    for fnum in range(CP_FILES):
        fid = f"c{fnum:03d}"
        spk = f"s{fnum % 40:02d}"
        t = rng.randrange(200, 800, 10)
        for u in range(CP_UTTS_PER_FILE):
            utt_words = [rng.choice(words) for _ in range(rng.randint(4, 8))]
            tokens = []  # (start_in_utt, dur, symbol, word index or None)
            x = rng.randrange(100, 310, 10)
            tokens.append((0, x, "SIL", None))
            for k, w in enumerate(utt_words):
                if k and rng.random() < 0.15:
                    d = rng.randrange(50, 210, 10)
                    tokens.append((x, d, "SIL", None))
                    x += d
                for sym in positioned(rng.choice(prons[w])):
                    d = rng.randrange(30, 160, 10)
                    tokens.append((x, d, sym, k))
                    x += d
            d = rng.randrange(100, 310, 10)
            tokens.append((x, d, "SIL", None))
            x += d
            utts.append([f"{spk}-{fid}-{u:03d}", fid, t, t + x, spk, utt_words, tokens])
            t += x + rng.randrange(200, 810, 10)

    # suffixless spoken-noise tokens between words: group_words defects
    def word_gaps(tokens):
        return [i for i in range(2, len(tokens) - 1)
                if tokens[i][3] is not None and tokens[i - 1][3] is not None
                and tokens[i][3] != tokens[i - 1][3]]

    for utt in rng.sample([u for u in utts if word_gaps(u[6])], CP_SPN):
        tokens = utt[6]
        i = rng.choice(word_gaps(tokens))
        shift = 50
        tokens[i:] = [(s + shift, d, sym, k) for s, d, sym, k in tokens[i:]]
        tokens.insert(i, (tokens[i][0] - shift, shift, "SPN", None))
        utt[3] += shift
    # the shift may have run an utterance into the next one: re-space the files
    by_file: dict[str, list] = {}
    for utt in utts:
        by_file.setdefault(utt[1], []).append(utt)
    for file_utts in by_file.values():
        for prev, nxt in zip(file_utts, file_utts[1:]):
            if nxt[2] < prev[3] + 200:
                delta = prev[3] + 200 - nxt[2]
                nxt[2] += delta
                nxt[3] += delta

    order = rng.sample(utts, len(utts))
    write(c / "records.tsv", "".join(
        f"{u[0]}\t{u[1]}\t{kaldi_seconds(sec(u[2]))}\t{kaldi_seconds(sec(u[3]))}\t"
        f"{u[4]}\twav/{u[1]}.wav\t{' '.join(u[5])}\n" for u in order))

    ctm_lines = []
    for u in sorted(utts, key=lambda u: u[0].encode("utf-8")):
        for s, d, sym, _ in u[6]:
            ctm_lines.append(f"{u[0]} 1 {sec(s):.2f} {sec(d):.2f} {phone_id[sym]}\n")
    write(c / "ali.ctm", "".join(ctm_lines))

    clean = kaldi_files(utts)
    raw, dup_keys = {}, {}
    for name in ("text", "segments", "utt2spk", "wav.scp"):
        lines = clean[name].splitlines(keepends=True)
        dups = rng.sample(lines, CP_DUPLICATES[name])
        dup_keys[name] = byte_sorted(line.split()[0] for line in dups)
        lines += dups
        rng.shuffle(lines)
        raw[name] = lines
    raw["spk2utt"] = clean["spk2utt"].splitlines(keepends=True)
    for name, lines in raw.items():
        write(c / "data_raw" / name, "".join(lines))

    return {
        "workload": "corpus-prep",
        "utts": utts,
        "symbols": symbols,
        "kaldi": clean,
        "dup_keys": dup_keys,
        "cmudict": cmudict,
        "missing": byte_sorted(missing),
        "stats": {"files": CP_FILES, "words": sum(len(u[5]) for u in utts),
                  "ctm_lines": len(ctm_lines), "wav_mb": 0.0},
    }


def kaldi_files(utts) -> dict[str, str]:
    """The five data-dir files Kaldi expects for these utterances."""
    ordered = sorted(utts, key=lambda u: u[0].encode("utf-8"))
    spk2utt: dict[str, list[str]] = {}
    for u in ordered:
        spk2utt.setdefault(u[4], []).append(u[0])
    return {
        "text": "".join(f"{u[0]} {' '.join(u[5])}\n" for u in ordered),
        "segments": "".join(
            f"{u[0]} {u[1]} {kaldi_seconds(sec(u[2]))} {kaldi_seconds(sec(u[3]))}\n"
            for u in ordered),
        "wav.scp": "".join(f"{f} wav/{f}.wav\n" for f in byte_sorted({u[1] for u in utts})),
        "utt2spk": "".join(f"{u[0]} {u[4]}\n" for u in ordered),
        "spk2utt": "".join(f"{s} {' '.join(us)}\n" for s, us in
                           sorted(spk2utt.items(), key=lambda kv: kv[0].encode("utf-8"))),
    }


GENERATORS = {
    "vot-cycle": gen_vot_cycle,
    "batch-qc": gen_batch_qc,
    "corpus-prep": gen_corpus_prep,
}


def generate(workload: str, seed: int, root: Path) -> dict:
    """Write the workload's inputs under root/corpus; return the ground truth."""
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, Path(root))
