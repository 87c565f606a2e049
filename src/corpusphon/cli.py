"""Subcommand front end wiring the library into the standard pipelines.

Exit codes: 0 success, 1 validation errors found, 2 usage or I/O failure.
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

from . import audio, ctm, kaldi, lexicon, textgrid, transcripts, vot
from .errors import ToolkitError
from .report import Finding, Report, Severity

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
        self.dry_run: bool = bool(getattr(args, "dry_run", False))
        self.findings: list[tuple[str, Finding]] = []

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

    def add_finding(self, file: str, severity: Severity, location: str, message: str) -> None:
        self.findings.append((file, Finding(severity, location, message)))

    @property
    def has_errors(self) -> bool:
        return any(f.severity is Severity.ERROR for _, f in self.findings)

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

    def check_outputs(self, out: str | Path | None, inputs: list[Path]) -> None:
        """Refuse out (None for no output) or the --report file inside an input's directory."""
        outs = [Path(p) for p in (out, self.report_path) if p is not None]
        # each distinct directory is resolved once, as a batch may name thousands
        # of files; a symlinked file guards its target's directory too
        dirs = {p.parent if p.suffix or p.is_file() else p for p in inputs}
        dirs = {d.resolve() for d in dirs}
        dirs |= {p.resolve().parent for p in inputs if p.is_symlink() and p.is_file()}
        for path in outs:
            out_dir = (path if path.suffix == "" else path.parent).resolve()
            for d in sorted(dirs):
                if out_dir == d or d in out_dir.parents:
                    raise UsageError(
                        f"output {path} is inside (or equals) input directory {d}; "
                        "use separate input and output folders"
                    )

    def flush(self) -> None:
        for file, f in self.findings:
            print(f"{file}: {f.human_line()}" if file else f.human_line(), file=sys.stderr)
        if self.report_path:
            lines = "".join(
                f.machine_line(file) + "\n" for file, f in self.findings
            )
            if self.dry_run:
                print(f"dry-run: would write {self.report_path}")
            else:
                replace_file(Path(self.report_path), lines.encode("utf-8"))


def expand_paths(ctx: Ctx, patterns: list[str]) -> list[Path]:
    out: list[Path] = []
    for pattern in patterns:
        if any(c in pattern for c in "*?["):
            matches = sorted(globmod.glob(pattern))
            if not matches:
                ctx.add_finding(
                    pattern, Severity.WARNING, "", "glob matched no files"
                )
            out.extend(Path(m) for m in matches)
        else:
            out.append(Path(pattern))
    return out


@contextlib.contextmanager
def file_findings(ctx: Ctx, file: str):
    """Yield one file's Report; it also takes every warning raised inside.

    The report goes to ctx.findings once, on exit, so a file's findings are
    reported together and in the order they arose.
    """
    report = Report()
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: report.warning("", str(message))
        try:
            yield report
        finally:
            ctx.findings.extend((file, f) for f in report.findings)


def process_files(ctx: Ctx, paths: list[Path] | list[str], fn) -> list[tuple]:
    """Call fn(path, report) for each file (path or file ID) in input order.

    Each file gets its own report: its warnings, whatever fn adds, and a
    ToolkitError, OSError or undecodable text as an ERROR, so a bad file
    costs only itself. A failed output write (UsageError) is not caught: it
    ends the command. Returns (path, result) for each file that did not fail.
    """
    done = []
    for path in paths:
        with file_findings(ctx, str(path)) as report:
            try:
                done.append((path, fn(path, report)))
            except (ToolkitError, OSError, UnicodeDecodeError) as exc:
                report.error("", str(exc))
    return done


def read_input(path: str | Path) -> str:
    """A text input read outside a batch; text that is not UTF-8 is a usage error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: {exc}") from None


def read_words(path: str) -> set[str]:
    """A word list file: one word per line, blank lines skipped."""
    return {w.strip() for w in read_input(path).splitlines() if w.strip()}


def read_grid(path: Path) -> textgrid.TextGrid:
    return textgrid.parse_textgrid(path.read_bytes())


def read_wav_info(path: Path) -> audio.WavInfo:
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

    def step(path: Path, report: Report) -> None:
        ctx.out_file(out_path(path), textgrid.write_textgrid(fn(path, read_grid(path))))

    process_files(ctx, paths, step)


# ---------------------------------------------------------------------------
# kaldi-prep


def cmd_kaldi_build(args, ctx: Ctx) -> None:
    out = Path(args.out)
    records_path = Path(args.records)
    ctx.check_outputs(out, [records_path])
    ctx.check_outputs(args.mfcc_conf, [records_path])
    rate = ctx.value(args, "sample_rate", 16000, int)
    if rate <= 0:
        raise UsageError(f"sample rate must be positive, got {rate}")
    records = []
    for i, line in enumerate(read_input(records_path).splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 7:
            raise UsageError(
                f"{records_path} line {i}: expected 7 tab-separated columns "
                "(utt, file_id, start, end, speaker, source, words)"
            )
        utt, file_id, start, end, speaker, source, words = fields
        try:
            records.append(
                kaldi.UtteranceRecord(
                    utt, file_id, float(start), float(end),
                    tuple(words.split()), speaker, source,
                )
            )
        except ValueError:
            raise UsageError(f"{records_path} line {i}: non-numeric time") from None
    d = kaldi.build_from_records(records)
    for name, content in d.render().items():
        ctx.out_text(out / name, content)
    if args.mfcc_conf:
        ctx.out_file(Path(args.mfcc_conf), kaldi.write_mfcc_conf(rate))


def cmd_kaldi_validate(args, ctx: Ctx) -> None:
    def validate(path: Path, report: Report) -> None:
        d = kaldi.read_data_dir(path)
        report.extend(kaldi.validate_data_dir(d, args.strict_speaker_prefix))

    ctx.check_outputs(None, [Path(args.dir)])
    process_files(ctx, [Path(args.dir)], validate)


def cmd_kaldi_fix(args, ctx: Ctx) -> None:
    src = Path(args.dir)
    out = Path(args.out)
    ctx.check_outputs(out, [src])
    d = kaldi.read_data_dir(src)
    fixed, log = kaldi.fix_data_dir(d)
    for entry in log:
        ctx.add_finding(args.dir, Severity.INFO, "fix", entry)
    for name, content in fixed.render().items():
        ctx.out_text(out / name, content)


# ---------------------------------------------------------------------------
# lexicon


_SEPARATORS = {
    "whitespace": lexicon.Separator.ANY_WHITESPACE,
    "two-spaces": lexicon.Separator.TWO_SPACES,
    "tab": lexicon.Separator.TAB,
}


def add_lexicon_options(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--lexicon", required=required)
    p.add_argument("--separator", choices=list(_SEPARATORS), default=None)


def _load_lexicon(args, ctx: Ctx) -> lexicon.Lexicon:
    sep = ctx.value(args, "separator", "whitespace", str)
    if sep not in _SEPARATORS:
        raise UsageError(
            f"separator {sep!r} is not one of: {', '.join(_SEPARATORS)}"
        )
    text = read_input(args.lexicon)
    with file_findings(ctx, args.lexicon):
        return lexicon.parse_lexicon(text, _SEPARATORS[sep])


def _corpus_words(args, ctx: Ctx, out: str | None) -> set[str]:
    """The corpus vocabulary; out, if given, must lie outside every input."""
    transcripts = [] if args.words else expand_paths(ctx, args.transcripts)
    inputs = [Path(p) for p in (args.lexicon, args.words, args.kaldi_text) if p]
    ctx.check_outputs(out, inputs + transcripts)
    if args.words:
        return read_words(args.words)
    if not args.transcripts and not args.kaldi_text:
        raise UsageError("need --words, --transcripts, or --kaldi-text")
    policy = lexicon.NormalizationPolicy(
        uppercase=not args.no_uppercase,
        strip_chars=ctx.value(args, "strip_chars", lexicon.DEFAULT_STRIP_CHARS, str),
        keep_apostrophe=not args.strip_apostrophe,
    )
    chunks = [read_input(p) for p in transcripts]
    if args.kaldi_text:
        # the data-dir text file: drop the utterance-ID column
        chunks += [
            " ".join(line.words) + "\n"
            for line in kaldi.parse_text(read_input(args.kaldi_text))
        ]
    return {wc.word for wc in lexicon.extract_word_list("".join(chunks), policy)}


def cmd_lexicon_filter(args, ctx: Ctx) -> None:
    words = _corpus_words(args, ctx, args.out)
    lex = _load_lexicon(args, ctx)
    oov = (
        ctx.value(args, "oov_word", lexicon.DEFAULT_OOV[0], str),
        ctx.value(args, "oov_phone", lexicon.DEFAULT_OOV[1], str),
    )
    filtered = lexicon.filter_lexicon(lex, words, oov)
    for word, pron in lexicon.unstressed_only_prons(filtered):
        ctx.add_finding(
            args.lexicon, Severity.INFO, word,
            f"pronunciation {' '.join(pron)!r} has no stressed vowel; "
            "was the stress annotation step skipped?",
        )
    ctx.out_text(Path(args.out), lexicon.render_lexicon(filtered))


def cmd_lexicon_missing(args, ctx: Ctx) -> None:
    words = _corpus_words(args, ctx, args.out)
    lex = _load_lexicon(args, ctx)
    missing = lexicon.missing_words(words, lex)
    for w in missing:
        ctx.add_finding(args.lexicon, Severity.WARNING, w, "missing from lexicon")
    ctx.out_or_print(args.out, "".join(w + "\n" for w in missing))


def cmd_lexicon_phones(args, ctx: Ctx) -> None:
    lex = _load_lexicon(args, ctx)
    out = Path(args.out_dir)
    ctx.check_outputs(out, [Path(args.lexicon)])
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
    out = Path(args.out)
    inputs = [args.ctm, args.segments, args.phones, args.lexicon, args.text, args.wav_dir]
    ctx.check_outputs(out, [Path(p) for p in inputs if p])

    entries = ctm.parse_ctm(read_input(args.ctm))
    segments = kaldi.parse_segments(read_input(args.segments))
    table = ctm.PhoneSymbolTable.parse(read_input(args.phones))
    lex = _load_lexicon(args, ctx)
    text = None
    if args.text:
        text = {line.utt: list(line.words) for line in kaldi.parse_text(read_input(args.text))}

    symbols = ctm.resolve_phone_ids(entries, table)
    tokens = ctm.alignment_rows(entries, segments, symbols)
    del entries, symbols  # corpus-sized, and the tokens carry all they held
    ctx.out_file(out / "final_ali.txt", ctm.render_alignment_table(tokens))

    durations = ctm.corpus_durations(segments)
    per_file = ctm.align_corpus(tokens, segments)
    del tokens  # from here a file's tokens live in per_file until its grid is written

    def to_grid(fid: str, report: Report) -> None:
        # written here, not after the loop: holding every grid raises peak RSS
        utterances, duration = per_file.pop(fid), durations[fid]
        wav = _stem_wav(Path(args.wav_dir), fid) if args.wav_dir else None
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

    if args.wav and args.textgrid:
        paths, wavs = [Path(args.textgrid)], [Path(args.wav)]
    elif args.textgrids:
        paths = expand_paths(ctx, args.textgrids)
        wavs = [_stem_wav(Path(args.wav_dir), p.stem) if args.wav_dir else None for p in paths]
    else:
        raise UsageError("need --wav/--textgrid or TextGrid paths")
    ctx.check_outputs(None, paths + [w for w in wavs if w is not None])
    wav_by_grid = dict(zip(paths, wavs))

    def check(path: Path, report: Report) -> None:
        # the MFA reads a .lab single-line transcript in place of a TextGrid
        lab = path.suffix == ".lab"
        transcript = path.read_text(encoding="utf-8") if lab else read_grid(path)
        wav_path = wav_by_grid[path]
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
    lex = None
    if args.lexicon:
        lex = _load_lexicon(args, ctx)
    wav_dir = Path(args.wav_dir) if args.wav_dir else None

    def check(path: Path, report: Report) -> None:
        records = transcripts.parse_fave_transcript(
            path.read_text(encoding="utf-8")
        )
        duration = None
        if wav_dir:
            wav = _stem_wav(wav_dir, path.stem)
            if wav is not None:
                duration = read_wav_info(wav).duration
        report.extend(transcripts.validate_fave(records, duration, lex))

    paths = expand_paths(ctx, args.transcripts)
    ctx.check_outputs(None, paths + [Path(p) for p in (args.lexicon, args.wav_dir) if p])
    process_files(ctx, paths, check)


# ---------------------------------------------------------------------------
# audio


def cmd_audio_info(args, ctx: Ctx) -> None:
    def show(path: Path, report: Report) -> None:
        info = read_wav_info(path)
        kind = "PCM" if info.format_code == audio.WAVE_FORMAT_PCM else "float"
        print(
            f"{path}: {info.sample_rate} Hz, {info.channels} ch, "
            f"{info.bits_per_sample}-bit {kind}, "
            f"{kaldi.format_seconds(info.duration)} s"
        )

    paths = expand_paths(ctx, args.wavs)
    ctx.check_outputs(None, paths)
    process_files(ctx, paths, show)


def cmd_audio_mono(args, ctx: Ctx) -> None:
    out_dir = Path(args.out_dir)
    wavs = expand_paths(ctx, args.wavs)
    ctx.check_outputs(out_dir, wavs)

    def convert(path: Path, report: Report) -> None:
        with path.open("rb") as f:
            ctx.out_file(out_dir / f"{path.stem}_mono.wav", audio.read_channel(f, args.channel))

    process_files(ctx, wavs, convert)


# ---------------------------------------------------------------------------
# vot


def cmd_vot_words(args, ctx: Ctx) -> None:
    ctx.check_outputs(args.out, [Path(args.lexicon)])
    lex = _load_lexicon(args, ctx)
    words = vot.find_cv_stop_words(lex)
    ctx.out_text(Path(args.out), vot.render_word_list(words))


def cmd_vot_locate(args, ctx: Ctx) -> None:
    words = read_words(args.words)
    word_tier = ctx.value(args, "word_tier", "words", str)
    phone_tier = ctx.value(args, "phone_tier", "phones", str)
    tol = ctx.value(args, "tolerance", vot.DEFAULT_COINCIDENCE_TOL, float)
    paths = sorted(expand_paths(ctx, args.textgrids), key=lambda p: p.stem)
    ctx.check_outputs(Path(args.out), paths + [Path(args.words)])
    occurrences: list[vot.WordOccurrence] = []

    def locate(path: Path, report: Report) -> None:
        grid = read_grid(path)
        occurrences.extend(
            vot.locate_words(grid, word_tier, phone_tier, words, file_id=path.stem, tolerance=tol)
        )

    process_files(ctx, paths, locate)
    ctx.out_text(Path(args.out), vot.render_word_locations(occurrences))


def cmd_vot_windows(args, ctx: Ctx) -> None:
    out_dir = Path(args.out_dir)
    grids = expand_paths(ctx, args.textgrids)
    ctx.check_outputs(out_dir, grids + [Path(args.locations)])
    by_file: dict[str, list[vot.WordOccurrence]] = {}
    for occ in vot.parse_word_locations(read_input(args.locations)):
        by_file.setdefault(occ.file_id, []).append(occ)

    tier_name = ctx.value(args, "vot_tier", "vot", str)

    def add_windows(path: Path, grid: textgrid.TextGrid) -> textgrid.TextGrid:
        occs = by_file.get(path.stem, [])
        tier = vot.make_vot_windows(occs, grid.xmax, tier_name)
        return textgrid.TextGrid(grid.xmin, grid.xmax, grid.tiers + (tier,))

    write_grid_step(ctx, grids, step_path(out_dir, args.suffix), add_windows)


def cmd_vot_lists(args, ctx: Ctx) -> None:
    out_dir = Path(args.out_dir)
    wavs = sorted(Path(args.wav_dir).glob("*.wav"))
    tgs = sorted(Path(args.textgrid_dir).glob("*.TextGrid"))
    ctx.check_outputs(out_dir, [Path(args.wav_dir), Path(args.textgrid_dir)])
    ctx.out_text(out_dir / vot.WAV_LIST_NAME, vot.render_path_list(wavs))
    ctx.out_text(out_dir / vot.TEXTGRID_LIST_NAME, vot.render_path_list(tgs))
    for letter in "PTKBDG":
        print(
            vot.decode_command(
                letter,
                str(out_dir / vot.WAV_LIST_NAME),
                str(out_dir / vot.TEXTGRID_LIST_NAME),
                args.classifier,
            )
        )


def cmd_vot_merge(args, ctx: Ctx) -> None:
    out_dir = Path(args.out_dir)
    grids = expand_paths(ctx, args.textgrids)
    ctx.check_outputs(out_dir, grids)
    indices = _parse_indices(args.tiers)

    def merge(path: Path, grid: textgrid.TextGrid) -> textgrid.TextGrid:
        return textgrid.merge_interval_tiers(grid, indices, args.name)

    write_grid_step(ctx, grids, step_path(out_dir, args.suffix), merge)


def cmd_vot_prefer_manual(args, ctx: Ctx) -> None:
    out_dir = Path(args.out_dir)
    grids = expand_paths(ctx, args.textgrids)
    ctx.check_outputs(out_dir, grids)

    def prefer(path: Path, grid: textgrid.TextGrid) -> textgrid.TextGrid:
        return vot.prefer_manual(grid, args.manual_tier, args.auto_tier)

    write_grid_step(ctx, grids, step_path(out_dir, args.suffix), prefer)


def cmd_vot_measure(args, ctx: Ctx) -> None:
    vot_tier = ctx.value(args, "vot_tier", "vot", str)
    phone_tier = ctx.value(args, "phone_tier", "phones", str)
    word_tier = ctx.value(args, "word_tier", "words", str)
    labels = ctx.value(args, "silence_labels", None, str)
    silent = vot.DEFAULT_SILENT_LABELS if labels is None else frozenset(labels.split(","))
    paths = sorted(expand_paths(ctx, args.textgrids), key=lambda p: p.stem)
    ctx.check_outputs(args.out, paths)
    chunks: list[str] = []

    def measure(path: Path, report: Report) -> None:
        measurements = vot.measure_cues(
            read_grid(path), vot_tier, phone_tier, word_tier,
            include_speaking_rate=not args.no_rate, silent_labels=silent,
        )
        table = vot.render_measurements(measurements, file_id=path.stem)
        chunks.append(table if not chunks else table.split("\n", 1)[1])

    process_files(ctx, paths, measure)
    ctx.out_or_print(args.out, "".join(chunks))


def cmd_vot_compare(args, ctx: Ctx) -> None:
    tol = ctx.value(args, "tolerance", 0.0, float)
    paths = expand_paths(ctx, args.textgrids)
    ctx.check_outputs(args.out, paths)
    lines = ["file_id\tlabel\tmanual_burst\tauto_burst\tburst_delta\tvowel_delta"]

    def compare(path: Path, report: Report) -> None:
        grid = read_grid(path)
        manual, _ = grid.find_tier(args.manual_tier)
        auto, _ = grid.find_tier(args.auto_tier)
        cmp_result = vot.compare_boundaries(manual, auto, tol)
        for d in cmp_result.pairs:
            times = (d.manual.xmin, d.auto.xmin, d.burst_delta, d.vowel_delta)
            lines.append("\t".join([path.stem, d.label, *map(kaldi.format_seconds, times)]))
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

    process_files(ctx, paths, compare)
    ctx.out_or_print(args.out, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# tg


def cmd_tg_stack(args, ctx: Ctx) -> None:
    out = Path(args.out)
    paths = expand_paths(ctx, args.textgrids)
    if not paths:
        raise UsageError(f"no TextGrids to stack: {' '.join(args.textgrids)} matched no files")
    ctx.check_outputs(out, paths)
    grids = process_files(ctx, paths, lambda path, report: read_grid(path))
    if len(grids) == len(paths):  # a stack missing a grid would be wrong
        ctx.out_file(out, textgrid.write_textgrid(textgrid.stack_tiers([g for _, g in grids])))


def cmd_tg_rename(args, ctx: Ctx) -> None:
    out = Path(args.out)
    src = Path(args.textgrid)
    ctx.check_outputs(out, [src])
    write_grid_step(
        ctx, [src], lambda _: out,
        lambda path, grid: textgrid.rename_tier(grid, args.index, args.name),
    )


def cmd_tg_merge(args, ctx: Ctx) -> None:
    out = Path(args.out)
    src = Path(args.textgrid)
    ctx.check_outputs(out, [src])
    indices = _parse_indices(args.indices)
    write_grid_step(
        ctx, [src], lambda _: out,
        lambda path, grid: textgrid.merge_interval_tiers(grid, indices, args.name),
    )


def cmd_tg_diagnose(args, ctx: Ctx) -> None:
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

    paths = expand_paths(ctx, args.textgrids)
    ctx.check_outputs(None, paths)
    process_files(ctx, paths, diagnose)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value settings file; flags win")
    common.add_argument("--report", help="write machine-readable findings here")
    common.add_argument(
        "--jobs", type=int, default=None, help="accepted and has no effect"
    )
    common.add_argument(
        "--dry-run", action="store_true", help="print intended outputs, write nothing"
    )

    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Forced-aligner corpus preparation and post-processing.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    # kaldi-prep
    kp = top.add_parser("kaldi-prep", help="Kaldi data directory files")
    kps = kp.add_subparsers(dest="subcommand", required=True)
    p = kps.add_parser("build", parents=[common])
    p.add_argument("--records", required=True,
                   help="TSV: utt, file_id, start, end, speaker, source, words")
    p.add_argument("--out", required=True)
    p.add_argument("--mfcc-conf", help="also write mfcc.conf here")
    p.add_argument("--sample-rate", type=int, default=None)
    p.set_defaults(func=cmd_kaldi_build)
    p = kps.add_parser("validate", parents=[common])
    p.add_argument("dir")
    p.add_argument("--strict-speaker-prefix", action="store_true")
    p.set_defaults(func=cmd_kaldi_validate)
    p = kps.add_parser("fix", parents=[common])
    p.add_argument("dir")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kaldi_fix)

    # lexicon
    lx = top.add_parser("lexicon", help="pronunciation lexicon tools")
    lxs = lx.add_subparsers(dest="subcommand", required=True)

    def lex_common(p):
        add_lexicon_options(p)
        p.add_argument("--words", help="word list file (one per line)")
        p.add_argument("--transcripts", nargs="*", default=[])
        p.add_argument("--kaldi-text", dest="kaldi_text",
                       help="data-dir text file; first column is dropped")
        p.add_argument("--no-uppercase", action="store_true")
        p.add_argument("--strip-apostrophe", action="store_true")
        p.add_argument("--strip-chars", default=None)

    p = lxs.add_parser("filter", parents=[common])
    lex_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--oov-word", default=None)
    p.add_argument("--oov-phone", default=None)
    p.set_defaults(func=cmd_lexicon_filter)
    p = lxs.add_parser("missing", parents=[common])
    lex_common(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lexicon_missing)
    p = lxs.add_parser("phones", parents=[common])
    add_lexicon_options(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--exclude", default=None,
                   help="comma-separated phones to leave out of nonsilence")
    p.set_defaults(func=cmd_lexicon_phones)

    # ctm2tg
    p = top.add_parser("ctm2tg", parents=[common],
                       help="CTM alignment to Praat TextGrids")
    p.add_argument("--ctm", required=True)
    p.add_argument("--segments", required=True)
    p.add_argument("--phones", required=True, help="phones.txt symbol table")
    add_lexicon_options(p)
    p.add_argument("--text", help="data-dir text file for positional matching")
    p.add_argument("--wav-dir", help="read true file durations from audio")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ctm2tg)

    # validate-mfa
    p = top.add_parser("validate-mfa", parents=[common],
                       help="check TextGrid+wav against MFA input rules")
    p.add_argument("textgrids", nargs="*")
    p.add_argument("--wav")
    p.add_argument("--textgrid")
    p.add_argument("--wav-dir")
    p.add_argument("--min-end-margin", dest="min_end_margin", type=float, default=None)
    p.add_argument("--recommended-end-margin", dest="recommended_end_margin",
                   type=float, default=None)
    p.add_argument("--require-separator-intervals", dest="require_separator_intervals",
                   action="store_const", const=True, default=None)
    p.add_argument("--target-rate", dest="target_rate", type=int, default=None)
    p.set_defaults(func=cmd_validate_mfa)

    # fave
    fv = top.add_parser("fave", help="FAVE transcript checks")
    fvs = fv.add_subparsers(dest="subcommand", required=True)
    p = fvs.add_parser("check", parents=[common])
    p.add_argument("transcripts", nargs="+")
    p.add_argument("--wav-dir")
    add_lexicon_options(p, required=False)
    p.set_defaults(func=cmd_fave_check)

    # audio
    au = top.add_parser("audio", help="WAV inspection and channel extraction")
    aus = au.add_subparsers(dest="subcommand", required=True)
    p = aus.add_parser("info", parents=[common])
    p.add_argument("wavs", nargs="+")
    p.set_defaults(func=cmd_audio_info)
    p = aus.add_parser("mono", parents=[common])
    p.add_argument("wavs", nargs="+")
    p.add_argument("--channel", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_audio_mono)

    # vot
    vt = top.add_parser("vot", help="AutoVOT preparation and measurement")
    vts = vt.add_subparsers(dest="subcommand", required=True)
    p = vts.add_parser("words", parents=[common])
    add_lexicon_options(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_vot_words)
    p = vts.add_parser("locate", parents=[common])
    p.add_argument("textgrids", nargs="+")
    p.add_argument("--words", required=True)
    p.add_argument("--word-tier", dest="word_tier", default=None)
    p.add_argument("--phone-tier", dest="phone_tier", default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_vot_locate)
    p = vts.add_parser("windows", parents=[common])
    p.add_argument("textgrids", nargs="+")
    p.add_argument("--locations", required=True)
    p.add_argument("--vot-tier", dest="vot_tier", default=None)
    p.add_argument("--suffix", default="_allauto")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_vot_windows)
    p = vts.add_parser("lists", parents=[common])
    p.add_argument("--wav-dir", required=True)
    p.add_argument("--textgrid-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--classifier", default="<path/to/classifier.model>")
    p.set_defaults(func=cmd_vot_lists)
    p = vts.add_parser("merge", parents=[common])
    p.add_argument("textgrids", nargs="+")
    p.add_argument("--tiers", required=True, help="1-based indices, e.g. 3,4,5,6,7,8")
    p.add_argument("--name", default="vot")
    p.add_argument("--suffix", default="_stops")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_vot_merge)
    p = vts.add_parser("prefer-manual", parents=[common])
    p.add_argument("textgrids", nargs="+")
    p.add_argument("--manual-tier", required=True)
    p.add_argument("--auto-tier", required=True)
    p.add_argument("--suffix", default="_stacked2")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_vot_prefer_manual)
    p = vts.add_parser("measure", parents=[common])
    p.add_argument("textgrids", nargs="+")
    p.add_argument("--vot-tier", dest="vot_tier", default=None)
    p.add_argument("--phone-tier", dest="phone_tier", default=None)
    p.add_argument("--word-tier", dest="word_tier", default=None)
    p.add_argument("--silence-labels", dest="silence_labels", default=None)
    p.add_argument("--no-rate", action="store_true",
                   help="skip the speaking-rate measurement")
    p.add_argument("--out")
    p.set_defaults(func=cmd_vot_measure)
    p = vts.add_parser("compare", parents=[common])
    p.add_argument("textgrids", nargs="+")
    p.add_argument("--manual-tier", required=True)
    p.add_argument("--auto-tier", required=True)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_vot_compare)

    # tg
    tg = top.add_parser("tg", help="TextGrid surgery")
    tgs = tg.add_subparsers(dest="subcommand", required=True)
    p = tgs.add_parser("stack", parents=[common])
    p.add_argument("textgrids", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tg_stack)
    p = tgs.add_parser("rename", parents=[common])
    p.add_argument("textgrid")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tg_rename)
    p = tgs.add_parser("merge", parents=[common])
    p.add_argument("textgrid")
    p.add_argument("--indices", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tg_merge)
    p = tgs.add_parser("diagnose", parents=[common])
    p.add_argument("textgrids", nargs="+")
    p.set_defaults(func=cmd_tg_diagnose)

    return parser


def load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    config: dict[str, str] = {}
    for raw in read_input(path).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {raw!r} is not 'key = value'")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        ctx = Ctx(args, load_config(getattr(args, "config", None)))
        try:
            args.func(args, ctx)
        except ToolkitError as exc:
            ctx.add_finding("", Severity.ERROR, "", str(exc))
        ctx.flush()
    except (UsageError, OSError) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2
    return 1 if ctx.has_errors else 0


def entry() -> None:
    sys.exit(main())
