"""Subcommand front end wiring the library into the standard pipelines.

Each subcommand is one row of the COMMANDS table: its group, its name, its
cmd_* handler, its help and its arguments. build_parser builds the argparse
tree from that table in one loop. main builds only the command that its
arguments name, because a pipeline pays that build once per step, and the
one-command tree keeps the whole tree's top-level usage line, so help and
errors read the same. Help at the top or group level, a group alone and a
word that names no command get the whole tree.

Each cmd_* handler, and each helper that reads through a library module,
imports the modules it uses in its own body. A pipeline starts one process
per step, and importing the whole library before parsing an argument
would cost more than a short step's own work. Only lexicon is imported here, as its
Separator names are the --separator choices, so --help and a usage error
load no other library module.

Exit codes: 0 success, 1 validation errors found, 2 usage or I/O failure,
141 stdout or stderr closed by its reader (`| head`), as for a tool that SIGPIPE
ends; the command stops there, and its findings so far are still reported.
Human-readable findings go to stderr; --report writes the machine format,
one finding per line: SEVERITY<TAB>file<TAB>location<TAB>message.

Batch subcommands process independent files one at a time, in input
order, and report each file's findings together, so the aggregate output
depends only on the input file list and configuration; --jobs is accepted
and has no effect. No subcommand ever writes into or below the directory
of anything it reads (the MFA deletes everything in its output folder, so
mixing the two destroys corpora).

main pauses Python's cyclic garbage collector while a command runs and
restores the state it found on every exit, exceptions included; reference
counting still frees each record as soon as it is dropped. A library caller
of main sees its collector setting unchanged.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob as globmod
import os
import sys
import warnings
from collections.abc import Iterable
from pathlib import Path

from . import lexicon
from .errors import ToolkitError
from .report import Finding, Report, Severity
from .rows import UndecodableText, read_rows, read_utf8

PROG = "corpusphon"


class UsageError(Exception):
    """Bad invocation, refused output location or failed output write; maps to exit 2."""


# ---------------------------------------------------------------------------
# context: findings, report output, dry-run


_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def replace_file(path: Path, data: bytes | Iterable[bytes]) -> None:
    """Write data, bytes or byte chunks, to a sibling temp file and move it over path.

    A write that fails or is interrupted, also in the middle of the chunks,
    removes its temp file, so path is either its old self or complete: never
    a partial file. A failed write raises UsageError, which ends the command
    even inside a batch; chunks that read an input report a failed read as a
    ToolkitError, which costs only that file.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(data, bytes):
            tmp.write_bytes(data)
        else:
            with tmp.open("wb") as f:
                f.writelines(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError):
            raise UsageError(str(exc)) from exc
        raise


class Ctx:
    def __init__(self, args: argparse.Namespace, config: dict[str, str]):
        self.config = config
        self.report_path: str | None = getattr(args, "report", None)
        # what check_outputs guards: every output path given, --report included
        self.outputs = [Path(v) for d in (*WRITTEN_ARGS, "report")
                        if (v := getattr(args, d, None)) is not None]
        self.dry_run: bool = bool(getattr(args, "dry_run", False))
        self.findings: list[Finding] = []

    def value(self, args, key, default, cast):
        v = getattr(args, key, None)
        if v is not None:
            return v
        if key in self.config:
            raw = self.config[key]
            if cast is bool:
                word = raw.strip().lower()
                if word in _BOOL_WORDS:
                    return _BOOL_WORDS[word]
                raise UsageError(
                    f"config value {key} = {raw!r} is not a boolean; use one of "
                    f"{', '.join(_BOOL_WORDS)}"
                )
            try:
                return cast(raw)
            except ValueError:
                raise UsageError(
                    f"config value {key} = {raw!r} is not a valid {cast.__name__}"
                ) from None
        return default

    @property
    def has_errors(self) -> bool:
        return any(f.severity is Severity.ERROR for f in self.findings)

    def out_file(self, path: Path, data: bytes | Iterable[bytes]) -> None:
        if self.dry_run:
            print(f"dry-run: would write {path}")
            return
        replace_file(path, data)

    def out_text(self, path: Path, text: str) -> None:
        self.out_file(path, text.encode("utf-8"))

    def out_or_print(self, out: str | None, text: str) -> None:
        """Write text to the --out file when one is given, else to stdout."""
        if out:
            self.out_text(Path(out), text)
        else:
            print(text, end="")

    def check_outputs(self, inputs: list[Path]) -> None:
        """Refuse any output, --report included, inside an input's directory."""
        # each distinct directory is resolved once, as a batch may name thousands
        # of files; a symlinked file guards its target's directory too
        dirs = {p.parent if p.suffix or p.is_file() else p for p in inputs}
        dirs = {d.resolve() for d in dirs}
        dirs |= {p.resolve().parent for p in inputs if p.is_symlink() and p.is_file()}
        for path in self.outputs:
            out_dir = (path if path.suffix == "" else path.parent).resolve()
            for d in sorted(dirs):
                if out_dir == d or d in out_dir.parents:
                    raise UsageError(
                        f"output {path} is inside (or equals) input directory {d}; "
                        "use separate input and output folders"
                    )

    def flush(self) -> None:
        """Write --report before anything is printed, as stderr or stdout may be closed."""
        if self.report_path and not self.dry_run:
            lines = "".join(f.machine_line() + "\n" for f in self.findings)
            replace_file(Path(self.report_path), lines.encode("utf-8"))
        for f in self.findings:
            print(f.human_line(), file=sys.stderr)
        if self.report_path and self.dry_run:
            print(f"dry-run: would write {self.report_path}")


def expand_paths(ctx: Ctx, patterns: list[str]) -> list[Path]:
    out: list[Path] = []
    for pattern in patterns:
        if any(c in pattern for c in "*?["):
            matches = sorted(globmod.glob(pattern))
            if not matches:
                with file_findings(ctx, pattern) as report:
                    report.warning("", "glob matched no files")
            out.extend(Path(m) for m in matches)
        else:
            out.append(Path(pattern))
    return out


class _Reported(Exception):
    """A ToolkitError that file_findings made the last finding of its scope."""


@contextlib.contextmanager
def file_findings(ctx: Ctx, file: str):
    """Yield one file's Report; it also takes every warning raised inside.

    The report goes to ctx.findings once, on exit, so a file's findings are
    reported together and in the order they arose. A ToolkitError that
    escapes becomes its last finding and ends the command as _Reported.
    """
    report = Report(file)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: report.warning("", str(message))
        try:
            yield report
        except ToolkitError as exc:
            report.error("", str(exc))
            raise _Reported from exc
        finally:
            ctx.findings.extend(report.findings)


def process_files(ctx: Ctx, paths: list[Path] | list[str], fn) -> list[tuple]:
    """Call fn(path, report) for each file (path or file ID) in input order.

    Each file gets its own report: its warnings, whatever fn adds, and a
    ToolkitError (undecodable text included) or OSError as an ERROR, so a bad
    file costs only itself. A failed output write (UsageError) or a closed
    stdout (BrokenPipeError) is not caught: it ends the command. Returns
    (path, result) for each file that did not fail.
    """
    done = []
    for path in paths:
        with file_findings(ctx, str(path)) as report:
            try:
                done.append((path, fn(path, report)))
            except BrokenPipeError:
                raise
            except (ToolkitError, OSError) as exc:
                report.error("", str(exc))
    return done


def read_input(path: str | Path) -> str:
    """A text input read outside a batch; text that is not UTF-8 is a usage error."""
    try:
        return read_utf8(path)
    except UndecodableText as exc:
        raise UsageError(str(exc)) from None


def parse_input(ctx: Ctx, path: str, parse):
    """parse(the text of path) for an input read outside a batch, in its file_findings."""
    with file_findings(ctx, path):
        return parse(read_input(path))


def read_words(path: str) -> set[str]:
    """A word list file: one word per line, blank lines skipped."""
    rows = read_rows(read_input(path), path, UsageError, 1, "expected one word, got {got} fields")
    return {word for _, (word,) in rows}


def read_grid(path: Path) -> textgrid.TextGrid:
    from . import textgrid
    return textgrid.parse_textgrid(path.read_bytes())


def read_wav_info(path: Path) -> audio.WavInfo:
    from . import audio
    with path.open("rb") as f:
        return audio.read_wav_header(f)


def _parse_indices(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise UsageError(f"bad tier index list {raw!r}") from None


def _stem_wav(wav_dir: Path, stem: str) -> Path | None:
    cand = wav_dir / f"{stem}.wav"
    return cand if cand.exists() else None


def stem_wavs(ctx: Ctx, wav_dir: str | None, stems: Iterable[str]) -> dict[str, Path | None]:
    """Each stem's WAV in wav_dir (None: no wav_dir or no such file), guarded.

    main guards wav_dir itself; a matched WAV that is a symlink also guards
    its target's directory, so no output lands beside audio read through it.
    """
    wavs = {stem: _stem_wav(Path(wav_dir), stem) if wav_dir else None for stem in stems}
    ctx.check_outputs([w for w in wavs.values() if w is not None])
    return wavs


# pipeline-step name templates; a new step's suffix replaces the old one
_STEP_SUFFIXES = ("_allauto", "_stops", "_stacked2", "_stacked")


def step_name(stem: str, suffix: str) -> str:
    for known in _STEP_SUFFIXES:
        if stem.endswith(known):
            return stem[: -len(known)] + suffix
    return stem + suffix


def step_path(out_dir: Path, suffix: str):
    """The output path of a pipeline step: out_dir/step_name(stem).TextGrid."""
    return lambda path: out_dir / f"{step_name(path.stem, suffix)}.TextGrid"


def write_grid_step(ctx: Ctx, paths: list[Path], out_path, fn) -> None:
    """Write fn(path, grid) to out_path(path) for each grid file, as it succeeds."""
    from . import textgrid

    def step(path: Path, report: Report) -> None:
        ctx.out_file(out_path(path), textgrid.write_textgrid(fn(path, read_grid(path))))

    process_files(ctx, paths, step)


# ---------------------------------------------------------------------------
# kaldi-prep


def cmd_kaldi_build(args, ctx: Ctx) -> None:
    from . import kaldi
    out = Path(args.out)
    records_path = Path(args.records)
    rate = ctx.value(args, "sample_rate", 16000, int)
    if rate <= 0:
        raise UsageError(f"sample rate must be positive, got {rate}")
    rows = read_rows(
        read_input(records_path), str(records_path), UsageError, 7,
        "expected 7 tab-separated columns (utt, file_id, start, end, speaker, source, words)",
        sep="\t", times=(2, 3),
    )
    records = [
        kaldi.UtteranceRecord(utt, file_id, start, end, tuple(words.split()), speaker, source, i)
        for i, (utt, file_id, _, _, speaker, source, words, start, end) in rows
    ]
    with file_findings(ctx, args.records):  # a bad record names the records file
        d = kaldi.build_from_records(records)
    for name, content in d.render().items():
        ctx.out_text(out / name, content)
    if args.mfcc_conf:
        ctx.out_file(Path(args.mfcc_conf), kaldi.write_mfcc_conf(rate))


def cmd_kaldi_validate(args, ctx: Ctx) -> None:
    from . import kaldi

    def validate(path: Path, report: Report) -> None:
        d = kaldi.read_data_dir(path)
        report.extend(kaldi.validate_data_dir(d, args.strict_speaker_prefix))

    process_files(ctx, [Path(args.dir)], validate)


def cmd_kaldi_fix(args, ctx: Ctx) -> None:
    from . import kaldi
    out = Path(args.out)
    with file_findings(ctx, args.dir) as report:
        fixed, log = kaldi.fix_data_dir(kaldi.read_data_dir(args.dir))
        for entry in log:
            report.info("fix", entry)
    for name, content in fixed.render().items():
        ctx.out_text(out / name, content)


# ---------------------------------------------------------------------------
# lexicon


_SEPARATOR_NAMES = [s.value for s in lexicon.Separator]


def _load_lexicon(args, ctx: Ctx, words: set[str] | None = None) -> lexicon.Lexicon:
    """The --lexicon entries of words (every entry when None); every line is checked."""
    sep = ctx.value(args, "separator", lexicon.Separator.ANY_WHITESPACE.value, str)
    if sep not in _SEPARATOR_NAMES:
        raise UsageError(f"separator {sep!r} is not one of: {', '.join(_SEPARATOR_NAMES)}")
    with file_findings(ctx, args.lexicon):
        return lexicon.parse_lexicon(read_input(args.lexicon), lexicon.Separator(sep), words)


def _corpus_words(args, ctx: Ctx) -> set[str]:
    """The corpus vocabulary, from --words or from the transcripts and --kaldi-text."""
    from . import kaldi
    if args.words:
        # every vocabulary source given is read, so one that would be ignored is refused
        if args.transcripts or args.kaldi_text:
            raise UsageError("--words cannot be combined with --transcripts or --kaldi-text")
        return read_words(args.words)
    if not args.transcripts and not args.kaldi_text:
        raise UsageError("need --words, --transcripts, or --kaldi-text")
    policy = lexicon.NormalizationPolicy(
        uppercase=not args.no_uppercase,
        strip_chars=ctx.value(args, "strip_chars", lexicon.DEFAULT_STRIP_CHARS, str),
        keep_apostrophe=not args.strip_apostrophe,
    )
    # through read_rows, so a transcript's byte order mark is refused at its line 1
    chunks = [" ".join(fields) + "\n" for p in args.paths
              for _, fields in read_rows(read_input(p), str(p), UsageError, 1, "", exact=False)]
    if args.kaldi_text:
        # the data-dir text file: drop the utterance-ID column
        chunks += [
            " ".join(line.words) + "\n"
            for line in parse_input(ctx, args.kaldi_text, kaldi.parse_text)
        ]
    return lexicon.extract_word_list("".join(chunks), policy)


def cmd_lexicon_filter(args, ctx: Ctx) -> None:
    oov = []
    for key, default in zip(("oov_word", "oov_phone"), lexicon.DEFAULT_OOV):
        value = ctx.value(args, key, default, str)
        if value.split() != [value]:  # the OOV entry is written as one lexicon line
            given = f"config value {key}" if getattr(args, key) is None else "--" + key.replace("_", "-")
            raise UsageError(f"{given} {value!r} is not one whitespace-free token")
        oov.append(value)
    words = _corpus_words(args, ctx)
    lex = _load_lexicon(args, ctx, words)
    filtered = lexicon.filter_lexicon(lex, words, tuple(oov))
    with file_findings(ctx, args.lexicon) as report:
        for word, pron in lexicon.unstressed_only_prons(filtered):
            report.info(
                word, f"pronunciation {' '.join(pron)!r} has no stressed vowel; "
                "was the stress annotation step skipped?",
            )
    ctx.out_text(Path(args.out), lexicon.render_lexicon(filtered))


def cmd_lexicon_missing(args, ctx: Ctx) -> None:
    words = _corpus_words(args, ctx)
    lex = _load_lexicon(args, ctx, words)
    missing = lexicon.missing_words(words, lex)
    with file_findings(ctx, args.lexicon) as report:
        for w in missing:
            report.warning(w, "missing from lexicon")
    ctx.out_or_print(args.out, "".join(w + "\n" for w in missing))


def cmd_lexicon_phones(args, ctx: Ctx) -> None:
    lex = _load_lexicon(args, ctx)
    out = Path(args.out_dir)
    exclude = {
        tok for tok in ctx.value(args, "exclude", "oov,SIL", str).split(",") if tok
    }
    groups = lexicon.derive_nonsilence_phones(lex, exclude)
    silence, optional = lexicon.derive_silence_files()
    ctx.out_text(out / "nonsilence_phones.txt", lexicon.render_phone_groups(groups))
    ctx.out_text(out / "silence_phones.txt", silence)
    ctx.out_text(out / "optional_silence.txt", optional)


# ---------------------------------------------------------------------------
# ctm2tg


def cmd_ctm2tg(args, ctx: Ctx) -> None:
    from . import ctm, kaldi, textgrid
    out = Path(args.out)
    segments = parse_input(ctx, args.segments, kaldi.parse_segments)
    table = parse_input(ctx, args.phones, ctm.PhoneSymbolTable.parse)
    # a bad line, an unknown phone ID or an unknown utterance names its CTM line
    tokens = parse_input(ctx, args.ctm, lambda content: ctm.read_ctm(content, segments, table))
    text = None
    if args.text:
        text = {l.utt: list(l.words) for l in parse_input(ctx, args.text, kaldi.parse_text)}
    # the transcript's words, unless an utterance with no text line is matched by its
    # pronunciation alone, which needs every entry
    used = None
    if text is not None and all(seg.utt in text for seg in segments):
        used = {w for words in text.values() for w in words}
    lex = _load_lexicon(args, ctx, used)

    per_file = ctm.align_corpus(tokens, segments)
    wavs = stem_wavs(ctx, args.wav_dir, per_file)  # guarded before anything is written
    ctx.out_file(out / "final_ali.txt", ctm.render_alignment_table(tokens))
    del tokens  # from here a file's tokens live in per_file until its grid is written
    durations = ctm.corpus_durations(segments)

    def to_grid(fid: str, report: Report) -> None:
        # written here, not after the loop: holding every grid raises peak RSS
        utterances, duration, wav = per_file.pop(fid), durations[fid], wavs[fid]
        if wav is not None:
            duration = read_wav_info(wav).duration
        file_tokens, words = ctm.align_file(utterances, lex, text)
        tiers = (ctm.phones_to_tier(file_tokens, duration), ctm.words_to_tier(words, duration))
        grid = textgrid.TextGrid(0.0, duration, tiers)
        ctx.out_file(out / f"{fid}.TextGrid", textgrid.write_textgrid(grid))

    process_files(ctx, list(per_file), to_grid)


# ---------------------------------------------------------------------------
# validate-mfa / fave


def cmd_validate_mfa(args, ctx: Ctx) -> None:
    from . import audio, transcripts
    min_margin = ctx.value(args, "min_end_margin", 0.020, float)
    recommended = ctx.value(args, "recommended_end_margin", 0.050, float)
    separators = ctx.value(args, "require_separator_intervals", False, bool)
    try:
        cfg = transcripts.MfaCheckConfig(min_margin, recommended, separators)
    except ValueError:
        raise UsageError(
            f"min_end_margin {min_margin} must be > 0 and no larger than "
            f"recommended_end_margin {recommended}"
        ) from None
    target = ctx.value(args, "target_rate", audio.MFA_SAMPLE_RATE, int)

    # every input given is used, so a selection that would ignore one is refused
    if args.wav and args.textgrid and not (args.textgrids or args.wav_dir):
        paths, wavs = [Path(args.textgrid)], {Path(args.textgrid).stem: Path(args.wav)}
    elif args.textgrids and not (args.wav or args.textgrid):
        paths = args.paths
        wavs = stem_wavs(ctx, args.wav_dir, (p.stem for p in paths))
    else:
        raise UsageError("need --wav with --textgrid, or TextGrid paths and an optional --wav-dir")

    def check(path: Path, report: Report) -> None:
        # the MFA reads a .lab single-line transcript in place of a TextGrid
        lab = path.suffix == ".lab"
        transcript = read_utf8(path) if lab else read_grid(path)
        wav_path = wavs[path.stem]
        if wav_path is None:
            report.warning("wav", "no matching wav file; skipping audio checks")
            duration = None if lab else transcript.xmax
        else:
            info = read_wav_info(wav_path)
            report.extend(audio.validate_for_mfa(info, target))
            duration = info.duration
        if lab:
            report.extend(transcripts.validate_single_line_transcript(transcript))
        else:
            report.extend(transcripts.validate_mfa_textgrid(transcript, duration, cfg))

    process_files(ctx, paths, check)


def cmd_fave_check(args, ctx: Ctx) -> None:
    from . import transcripts
    lex = _load_lexicon(args, ctx) if args.lexicon else None
    wavs = stem_wavs(ctx, args.wav_dir, (p.stem for p in args.paths))

    def check(path: Path, report: Report) -> None:
        records = transcripts.parse_fave_transcript(read_utf8(path))
        wav = wavs[path.stem]
        duration = None if wav is None else read_wav_info(wav).duration
        report.extend(transcripts.validate_fave(records, duration, lex))

    process_files(ctx, args.paths, check)


# ---------------------------------------------------------------------------
# audio


def cmd_audio_info(args, ctx: Ctx) -> None:
    from . import audio, textgrid

    def show(path: Path, report: Report) -> None:
        info = read_wav_info(path)
        kind = "PCM" if info.format_code == audio.WAVE_FORMAT_PCM else "float"
        print(
            f"{path}: {info.sample_rate} Hz, {info.channels} ch, "
            f"{info.bits_per_sample}-bit {kind}, "
            f"{textgrid.format_seconds(info.duration)} s"
        )

    process_files(ctx, args.paths, show)


def cmd_audio_mono(args, ctx: Ctx) -> None:
    from . import audio
    out_dir = Path(args.out_dir)

    def convert(path: Path, report: Report) -> None:
        with path.open("rb") as f:
            ctx.out_file(out_dir / f"{path.stem}_mono.wav", audio.read_channel(f, args.channel))

    process_files(ctx, args.paths, convert)


# ---------------------------------------------------------------------------
# vot


def cmd_vot_words(args, ctx: Ctx) -> None:
    from . import vot
    lex = _load_lexicon(args, ctx)
    words = vot.find_cv_stop_words(lex)
    ctx.out_text(Path(args.out), vot.render_word_list(words))


def cmd_vot_locate(args, ctx: Ctx) -> None:
    from . import vot
    words = read_words(args.words)
    word_tier = ctx.value(args, "word_tier", "words", str)
    phone_tier = ctx.value(args, "phone_tier", "phones", str)
    tol = ctx.value(args, "tolerance", vot.DEFAULT_COINCIDENCE_TOL, float)
    paths = sorted(args.paths, key=lambda p: p.stem)
    occurrences: list[vot.WordOccurrence] = []

    def locate(path: Path, report: Report) -> None:
        grid = read_grid(path)
        occurrences.extend(
            vot.locate_words(grid, word_tier, phone_tier, words, file_id=path.stem, tolerance=tol)
        )

    process_files(ctx, paths, locate)
    ctx.out_text(Path(args.out), vot.render_word_locations(occurrences))


def cmd_vot_windows(args, ctx: Ctx) -> None:
    from . import textgrid, vot
    by_file: dict[str, list[vot.WordOccurrence]] = {}
    for occ in parse_input(ctx, args.locations, vot.parse_word_locations):
        by_file.setdefault(occ.file_id, []).append(occ)

    tier_name = ctx.value(args, "vot_tier", "vot", str)

    def add_windows(path: Path, grid: textgrid.TextGrid) -> textgrid.TextGrid:
        occs = by_file.get(path.stem, [])
        tier = vot.make_vot_windows(occs, grid.xmax, tier_name)
        return textgrid.TextGrid(grid.xmin, grid.xmax, grid.tiers + (tier,))

    write_grid_step(ctx, args.paths, step_path(Path(args.out_dir), args.suffix), add_windows)


def cmd_vot_lists(args, ctx: Ctx) -> None:
    from . import vot
    # the decoder pairs the two lists line by line: line i of each names one grid
    # and the WAV of its stem before any step suffix; a file without its pair is left out
    out_dir, wav_dir = Path(args.out_dir), Path(args.wav_dir)
    pairs = []
    for tg in sorted(Path(args.textgrid_dir).glob("*.TextGrid")):
        wav = _stem_wav(wav_dir, step_name(tg.stem, ""))
        if wav is None:
            with file_findings(ctx, str(tg)) as report:
                report.warning("", "no matching wav file; not listed")
        else:
            pairs.append((wav, tg))
    for wav in sorted(set(wav_dir.glob("*.wav")) - {w for w, _ in pairs}):
        with file_findings(ctx, str(wav)) as report:
            report.warning("", "no matching TextGrid; not listed")
    wav_list, tg_list = out_dir / vot.WAV_LIST_NAME, out_dir / vot.TEXTGRID_LIST_NAME
    ctx.out_text(wav_list, vot.render_path_list([w for w, _ in pairs]))
    ctx.out_text(tg_list, vot.render_path_list([t for _, t in pairs]))
    tier = ctx.value(args, "vot_tier", "vot", str)  # the tier vot windows wrote
    for letter in "PTKBDG":
        print(vot.decode_command(letter, str(wav_list), str(tg_list), args.classifier, tier))


def cmd_vot_merge(args, ctx: Ctx) -> None:
    from . import textgrid
    indices = _parse_indices(args.tiers)

    def merge(path: Path, grid: textgrid.TextGrid) -> textgrid.TextGrid:
        return textgrid.merge_interval_tiers(grid, indices, args.name)

    write_grid_step(ctx, args.paths, step_path(Path(args.out_dir), args.suffix), merge)


def cmd_vot_prefer_manual(args, ctx: Ctx) -> None:
    from . import vot

    def prefer(path: Path, grid: textgrid.TextGrid) -> textgrid.TextGrid:
        return vot.prefer_manual(grid, args.manual_tier, args.auto_tier)

    write_grid_step(ctx, args.paths, step_path(Path(args.out_dir), args.suffix), prefer)


def cmd_vot_measure(args, ctx: Ctx) -> None:
    from . import vot
    vot_tier = ctx.value(args, "vot_tier", "vot", str)
    phone_tier = ctx.value(args, "phone_tier", "phones", str)
    word_tier = ctx.value(args, "word_tier", "words", str)
    labels = ctx.value(args, "silence_labels", None, str)
    silent = vot.DEFAULT_SILENT_LABELS if labels is None else frozenset(labels.split(","))
    paths = sorted(args.paths, key=lambda p: p.stem)

    def measure(path: Path, report: Report) -> list[vot.VotMeasurement]:
        return vot.measure_cues(
            read_grid(path), vot_tier, phone_tier, word_tier,
            include_speaking_rate=not args.no_rate, silent_labels=silent,
        )

    measured = [(path.stem, ms) for path, ms in process_files(ctx, paths, measure)]
    # no grid measured, no header: the table is empty
    ctx.out_or_print(args.out, vot.render_measurements(measured) if measured else "")


def cmd_vot_compare(args, ctx: Ctx) -> None:
    from . import textgrid, vot
    tol = ctx.value(args, "tolerance", 0.0, float)
    lines = ["file_id\tlabel\tmanual_burst\tauto_burst\tburst_delta\tvowel_delta"]

    def compare(path: Path, report: Report) -> None:
        grid = read_grid(path)
        manual = grid.find_interval_tier(args.manual_tier)
        auto = grid.find_interval_tier(args.auto_tier)
        cmp_result = vot.compare_boundaries(manual, auto, tol)
        for d in cmp_result.pairs:
            times = (d.manual.xmin, d.auto.xmin, d.burst_delta, d.vowel_delta)
            lines.append("\t".join([path.stem, d.label, *map(textgrid.format_seconds, times)]))
        for iv in cmp_result.unpaired_manual:
            report.warning(
                f"[{iv.xmin}, {iv.xmax}]", "manual token with no auto counterpart"
            )
        for iv in cmp_result.unpaired_auto:
            report.warning(
                f"[{iv.xmin}, {iv.xmax}]", "auto token with no manual counterpart"
            )
        for msg in cmp_result.conflicts:
            report.warning("", msg)

    process_files(ctx, args.paths, compare)
    ctx.out_or_print(args.out, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# tg


def cmd_tg_stack(args, ctx: Ctx) -> None:
    from . import textgrid
    paths = args.paths
    if not paths:
        raise UsageError(f"no TextGrids to stack: {' '.join(args.textgrids)} matched no files")
    grids = process_files(ctx, paths, lambda path, report: read_grid(path))
    if len(grids) == len(paths):  # a stack missing a grid would be wrong
        stacked = textgrid.stack_tiers([g for _, g in grids])
        ctx.out_file(Path(args.out), textgrid.write_textgrid(stacked))


def cmd_tg_rename(args, ctx: Ctx) -> None:
    from . import textgrid
    write_grid_step(
        ctx, [Path(args.textgrid)], lambda _: Path(args.out),
        lambda path, grid: textgrid.rename_tier(grid, args.index, args.name),
    )


def cmd_tg_merge(args, ctx: Ctx) -> None:
    from . import textgrid
    indices = _parse_indices(args.indices)
    write_grid_step(
        ctx, [Path(args.textgrid)], lambda _: Path(args.out),
        lambda path, grid: textgrid.merge_interval_tiers(grid, indices, args.name),
    )


def cmd_tg_diagnose(args, ctx: Ctx) -> None:
    from . import textgrid

    def diagnose(path: Path, report: Report) -> None:
        grid = read_grid(path)
        for i, tier in enumerate(grid.tiers, 1):
            if not isinstance(tier, textgrid.IntervalTier):
                continue
            for ov in textgrid.diagnose_overlaps(tier):
                report.error(
                    f"tier {i} ({tier.name})",
                    f"intervals {ov.first_index} and {ov.second_index} overlap "
                    f"in [{ov.start}, {ov.end}]",
                )

    process_files(ctx, args.paths, diagnose)


# ---------------------------------------------------------------------------
# parser


# An argument is (flag, add_argument kwargs). Every command takes COMMON;
# the arguments after it are shared by several commands and defined once.
COMMON = (
    ("--config", {"help": "key = value settings file; flags win"}),
    ("--report", {"help": "write machine-readable findings here"}),
    ("--jobs", {"type": int, "help": "accepted and has no effect"}),
    ("--dry-run", {"action": "store_true", "help": "print intended outputs, write nothing"}),
)
OUT = ("--out", {"required": True})
OUT_DIR = ("--out-dir", {"required": True})
TEXTGRIDS = ("textgrids", {"nargs": "+"})
SEPARATOR = ("--separator", {"choices": _SEPARATOR_NAMES})
LEXICON = (("--lexicon", {"required": True}), SEPARATOR)
VOCABULARY = (
    ("--words", {"help": "word list file (one per line)"}),
    ("--transcripts", {"nargs": "*", "default": []}),
    ("--kaldi-text", {"help": "data-dir text file; first column is dropped"}),
    ("--no-uppercase", {"action": "store_true"}),
    ("--strip-apostrophe", {"action": "store_true"}),
    ("--strip-chars", {}),
)
TIER_PAIR = (("--manual-tier", {"required": True}), ("--auto-tier", {"required": True}))

GROUPS = {
    "kaldi-prep": "Kaldi data directory files",
    "lexicon": "pronunciation lexicon tools",
    "fave": "FAVE transcript checks",
    "audio": "WAV inspection and channel extraction",
    "vot": "AutoVOT preparation and measurement",
    "tg": "TextGrid surgery",
}

# (group, command) -> (handler, help, arguments); group None is a top-level
# command, and only top-level entries have help. Rows are in --help order.
COMMANDS = {
    ("kaldi-prep", "build"): (cmd_kaldi_build, None, (
        ("--records", {"required": True,
                       "help": "TSV: utt, file_id, start, end, speaker, source, words"}),
        OUT, ("--mfcc-conf", {"help": "also write mfcc.conf here"}),
        ("--sample-rate", {"type": int}))),
    ("kaldi-prep", "validate"): (cmd_kaldi_validate, None, (
        ("dir", {}), ("--strict-speaker-prefix", {"action": "store_true"}))),
    ("kaldi-prep", "fix"): (cmd_kaldi_fix, None, (("dir", {}), OUT)),
    ("lexicon", "filter"): (cmd_lexicon_filter, None, (
        *LEXICON, *VOCABULARY, OUT, ("--oov-word", {}), ("--oov-phone", {}))),
    ("lexicon", "missing"): (cmd_lexicon_missing, None, (*LEXICON, *VOCABULARY, ("--out", {}))),
    ("lexicon", "phones"): (cmd_lexicon_phones, None, (
        *LEXICON, OUT_DIR,
        ("--exclude", {"help": "comma-separated phones to leave out of nonsilence"}))),
    (None, "ctm2tg"): (cmd_ctm2tg, "CTM alignment to Praat TextGrids", (
        ("--ctm", {"required": True}), ("--segments", {"required": True}),
        ("--phones", {"required": True, "help": "phones.txt symbol table"}),
        *LEXICON,
        ("--text", {"help": "data-dir text file for positional matching"}),
        ("--wav-dir", {"help": "read true file durations from audio"}),
        OUT)),
    (None, "validate-mfa"): (cmd_validate_mfa, "check TextGrid+wav against MFA input rules", (
        ("textgrids", {"nargs": "*"}), ("--wav", {}), ("--textgrid", {}), ("--wav-dir", {}),
        ("--min-end-margin", {"type": float}), ("--recommended-end-margin", {"type": float}),
        ("--require-separator-intervals", {"action": "store_const", "const": True}),
        ("--target-rate", {"type": int}))),
    ("fave", "check"): (cmd_fave_check, None, (
        ("transcripts", {"nargs": "+"}), ("--wav-dir", {}), ("--lexicon", {}), SEPARATOR)),
    ("audio", "info"): (cmd_audio_info, None, (("wavs", {"nargs": "+"}),)),
    ("audio", "mono"): (cmd_audio_mono, None, (
        ("wavs", {"nargs": "+"}), ("--channel", {"type": int, "required": True}), OUT_DIR)),
    ("vot", "words"): (cmd_vot_words, None, (*LEXICON, OUT)),
    ("vot", "locate"): (cmd_vot_locate, None, (
        TEXTGRIDS, ("--words", {"required": True}), ("--word-tier", {}), ("--phone-tier", {}),
        ("--tolerance", {"type": float}), OUT)),
    ("vot", "windows"): (cmd_vot_windows, None, (
        TEXTGRIDS, ("--locations", {"required": True}), ("--vot-tier", {}),
        ("--suffix", {"default": "_allauto"}), OUT_DIR)),
    ("vot", "lists"): (cmd_vot_lists, None, (
        ("--wav-dir", {"required": True}), ("--textgrid-dir", {"required": True}), OUT_DIR,
        ("--classifier", {"default": "<path/to/classifier.model>"}))),
    ("vot", "merge"): (cmd_vot_merge, None, (
        TEXTGRIDS, ("--tiers", {"required": True, "help": "1-based indices, e.g. 3,4,5,6,7,8"}),
        ("--name", {"default": "vot"}), ("--suffix", {"default": "_stops"}), OUT_DIR)),
    ("vot", "prefer-manual"): (cmd_vot_prefer_manual, None, (
        TEXTGRIDS, *TIER_PAIR, ("--suffix", {"default": "_stacked2"}), OUT_DIR)),
    ("vot", "measure"): (cmd_vot_measure, None, (
        TEXTGRIDS, ("--vot-tier", {}), ("--phone-tier", {}), ("--word-tier", {}),
        ("--silence-labels", {}),
        ("--no-rate", {"action": "store_true", "help": "skip the speaking-rate measurement"}),
        ("--out", {}))),
    ("vot", "compare"): (cmd_vot_compare, None, (
        TEXTGRIDS, *TIER_PAIR, ("--tolerance", {"type": float}), ("--out", {}))),
    ("tg", "stack"): (cmd_tg_stack, None, (TEXTGRIDS, OUT)),
    ("tg", "rename"): (cmd_tg_rename, None, (
        ("textgrid", {}), ("--index", {"type": int, "required": True}),
        ("--name", {"required": True}), OUT)),
    ("tg", "merge"): (cmd_tg_merge, None, (
        ("textgrid", {}), ("--indices", {"required": True}), ("--name", {"required": True}), OUT)),
    ("tg", "diagnose"): (cmd_tg_diagnose, None, (TEXTGRIDS,)),
}


def build_parser(only: tuple[str | None, str] | None = None) -> argparse.ArgumentParser:
    """The argparse tree of every command, or of the one COMMANDS key only names."""
    common = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in COMMON:
        common.add_argument(flag, **kwargs)
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Forced-aligner corpus preparation and post-processing.",
    )
    # a one-command tree keeps the whole tree's usage line, which an unknown
    # option prints; the whole tree needs no metavar, which would also replace
    # "command" in its required and invalid-choice errors
    choices = "{" + ",".join(dict.fromkeys(group or name for group, name in COMMANDS)) + "}"
    top = parser.add_subparsers(
        dest="command", required=True, **({"metavar": choices} if only else {})
    )
    groups = {None: top}
    for (group, name), (func, summary, arguments) in COMMANDS.items():
        if only and (group, name) != only:
            continue
        if group not in groups:
            sub = top.add_parser(group, help=GROUPS[group])
            groups[group] = sub.add_subparsers(dest="subcommand", required=True)
        help_kw = {"help": summary} if summary else {}
        p = groups[group].add_parser(name, parents=[common], **help_kw)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


# Every path argument by role, named once, so main guards them all before a
# command runs: no output (nor --report) may lie in or below a read path's
# directory. A command has at most one glob list; main expands it into
# args.paths and leaves the raw patterns in place. A test fails on a parser
# argument that is in none of these tables and not on its list of non-paths.
READ_ARGS = (
    "records", "dir", "lexicon", "words", "kaldi_text", "ctm", "segments", "phones",
    "text", "wav_dir", "textgrid", "wav", "locations", "textgrid_dir",
)
GLOB_ARGS = ("textgrids", "transcripts", "wavs")
WRITTEN_ARGS = ("out", "out_dir", "mfcc_conf")


def load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    config: dict[str, str] = {}
    for i, (raw,) in read_rows(read_input(path), path, UsageError, 1, "", maxsplit=0):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path} line {i}: {raw!r} is not 'key = value'")
        key, value = line.split("=", 1)
        config[key.strip().replace("-", "_")] = value.strip()
    return config


def main(argv: list[str] | None = None) -> int:
    # safe: per-file work makes no reference cycles (tested), so refcounts free it
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if was_enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the named command's tree alone; the whole tree for help, a group alone or a typo
    key = (None, argv[0]) if argv and (None, argv[0]) in COMMANDS else tuple(argv[:2])
    parser = build_parser(key if key in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    stopped = False
    try:
        ctx = Ctx(args, load_config(getattr(args, "config", None)))
        globs = [getattr(args, d) for d in GLOB_ARGS if hasattr(args, d)]
        args.paths = expand_paths(ctx, globs[0]) if globs else []
        reads = [Path(v) for d in READ_ARGS if (v := getattr(args, d, None)) is not None]
        ctx.check_outputs(args.paths + reads)
        with contextlib.suppress(_Reported), file_findings(ctx, ""):
            try:
                args.func(args, ctx)
                sys.stdout.flush()  # a closed stdout shows here, not at the interpreter's exit
            except BrokenPipeError:
                # stdout's reader has gone (`| head`): the command stops, as one that
                # SIGPIPE ends, and what is still printed or flushed to stdout goes nowhere
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                stopped = True
        try:
            ctx.flush()
            sys.stdout.flush()
        except BrokenPipeError:  # stderr's reader has gone too (`2>&1 | head`), or stdout's
            for stream in (sys.stdout, sys.stderr):
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
            stopped = True
    except (UsageError, OSError) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2
    return 141 if stopped else 1 if ctx.has_errors else 0


def entry() -> None:
    sys.exit(main())
