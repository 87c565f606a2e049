"""Subcommand front end wiring the library into the standard pipelines.

Exit codes: 0 success, 1 validation errors found, 2 usage or I/O failure.
Human-readable findings go to stderr; --report writes the machine format,
one finding per line: SEVERITY<TAB>file<TAB>location<TAB>message.

Batch subcommands process independent files one at a time, in input
order, so the aggregate output depends only on the input file list and
configuration; --jobs is accepted and has no effect. No subcommand ever
writes into an input directory (the MFA deletes everything in its output
folder, so mixing the two destroys corpora; the same discipline is
enforced everywhere here).
"""

from __future__ import annotations

import argparse
import contextlib
import glob as globmod
import sys
import warnings
from pathlib import Path

from . import audio, ctm, kaldi, lexicon, textgrid, transcripts, vot
from .errors import ToolkitError
from .report import Finding, Report, Severity

PROG = "corpusphon"


class UsageError(Exception):
    """Bad invocation or refused output location; maps to exit 2."""


# ---------------------------------------------------------------------------
# context: findings, report output, dry-run


class Ctx:
    def __init__(self, args: argparse.Namespace, config: dict[str, str]):
        self.config = config
        self.report_path: str | None = getattr(args, "report", None)
        self.dry_run: bool = bool(getattr(args, "dry_run", False))
        self.findings: list[tuple[str, Finding]] = []
        self.written: list[Path] = []

    def value(self, args, key, default, cast):
        v = getattr(args, key, None)
        if v is not None:
            return v
        if key in self.config:
            raw = self.config[key]
            if cast is bool:
                return raw.strip().lower() in ("1", "true", "yes", "on")
            try:
                return cast(raw)
            except ValueError:
                raise UsageError(
                    f"config value {key} = {raw!r} is not a valid {cast.__name__}"
                ) from None
        return default

    def add(self, file: str, report: Report) -> None:
        for f in report.findings:
            self.findings.append((file, f))

    def add_finding(self, file: str, severity: Severity, location: str, message: str) -> None:
        self.findings.append((file, Finding(severity, location, message)))

    @property
    def has_errors(self) -> bool:
        return any(f.severity is Severity.ERROR for _, f in self.findings)

    def out_file(self, path: Path, data: bytes) -> None:
        if self.dry_run:
            print(f"dry-run: would write {path}")
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        self.written.append(path)

    def out_text(self, path: Path, text: str) -> None:
        self.out_file(path, text.encode("utf-8"))

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
                Path(self.report_path).parent.mkdir(parents=True, exist_ok=True)
                Path(self.report_path).write_text(lines, encoding="utf-8")


def check_output_separation(out: Path, inputs: list[Path]) -> None:
    out_dir = out if out.suffix == "" else out.parent
    out_dir = out_dir.resolve()
    for p in inputs:
        d = p.resolve()
        if d.is_file() or d.suffix:
            d = d.parent
        if out_dir == d or d in out_dir.parents:
            raise UsageError(
                f"output {out} is inside (or equals) input directory {d}; "
                "use separate input and output folders"
            )


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
def warnings_as_findings(ctx: Ctx, file: str):
    """Record every warning raised inside as a WARNING finding for file."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        finally:
            for w in caught:
                ctx.add_finding(file, Severity.WARNING, "", str(w.message))


def process_files(ctx: Ctx, paths: list[Path], fn) -> list[tuple[Path, object]]:
    """Apply fn to each file in input order; per-file failures become findings.

    A file's warnings become WARNING findings and a ToolkitError or OSError
    an ERROR finding for that file (its result is then None); the batch
    never aborts.
    """
    results = []
    for path in paths:
        result = None
        try:
            with warnings_as_findings(ctx, str(path)):
                result = fn(path)
        except (ToolkitError, OSError) as exc:
            ctx.add_finding(str(path), Severity.ERROR, "", str(exc))
        results.append((path, result))
    return results


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


def write_grid_step(ctx: Ctx, paths: list[Path], out_dir: Path, suffix: str, fn) -> None:
    """Write fn(path, grid) for each grid file as a step_name()-named TextGrid."""

    def step(path: Path) -> bytes:
        return textgrid.write_textgrid(fn(path, read_grid(path)))

    for path, data in process_files(ctx, paths, step):
        if data is not None:
            ctx.out_file(out_dir / f"{step_name(path.stem, suffix)}.TextGrid", data)


# ---------------------------------------------------------------------------
# kaldi-prep


def cmd_kaldi_build(args, ctx: Ctx) -> None:
    out = Path(args.out)
    records_path = Path(args.records)
    check_output_separation(out, [records_path])
    records = []
    for i, line in enumerate(records_path.read_text(encoding="utf-8").splitlines(), 1):
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
    rate = ctx.value(args, "sample_rate", 16000, int)
    if args.mfcc_conf:
        ctx.out_file(Path(args.mfcc_conf), kaldi.write_mfcc_conf(rate))


def cmd_kaldi_validate(args, ctx: Ctx) -> None:
    d = kaldi.read_data_dir(args.dir)
    ctx.add(args.dir, kaldi.validate_data_dir(d, args.strict_speaker_prefix))


def cmd_kaldi_fix(args, ctx: Ctx) -> None:
    src = Path(args.dir)
    out = Path(args.out)
    check_output_separation(out, [src])
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
    text = Path(args.lexicon).read_text(encoding="utf-8")
    with warnings_as_findings(ctx, args.lexicon):
        return lexicon.parse_lexicon(text, _SEPARATORS[sep])


def _corpus_words(args, ctx: Ctx) -> set[str]:
    if args.words:
        return {
            w.strip()
            for w in Path(args.words).read_text(encoding="utf-8").splitlines()
            if w.strip()
        }
    if not args.transcripts and not args.kaldi_text:
        raise UsageError("need --words, --transcripts, or --kaldi-text")
    policy = lexicon.NormalizationPolicy(
        uppercase=not args.no_uppercase,
        strip_chars=ctx.value(args, "strip_chars", lexicon.DEFAULT_STRIP_CHARS, str),
        keep_apostrophe=not args.strip_apostrophe,
    )
    chunks = [
        p.read_text(encoding="utf-8")
        for p in expand_paths(ctx, args.transcripts)
    ]
    if args.kaldi_text:
        # the data-dir text file: drop the utterance-ID column
        chunks += [
            " ".join(line.words) + "\n"
            for line in kaldi.parse_text(
                Path(args.kaldi_text).read_text(encoding="utf-8")
            )
        ]
    return {wc.word for wc in lexicon.extract_word_list("".join(chunks), policy)}


def cmd_lexicon_filter(args, ctx: Ctx) -> None:
    lex = _load_lexicon(args, ctx)
    words = _corpus_words(args, ctx)
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
    out = Path(args.out)
    check_output_separation(out, [Path(args.lexicon)])
    ctx.out_text(out, lexicon.render_lexicon(filtered))


def cmd_lexicon_missing(args, ctx: Ctx) -> None:
    lex = _load_lexicon(args, ctx)
    words = _corpus_words(args, ctx)
    missing = lexicon.missing_words(words, lex)
    for w in missing:
        ctx.add_finding(args.lexicon, Severity.WARNING, w, "missing from lexicon")
    body = "".join(w + "\n" for w in missing)
    if args.out:
        ctx.out_text(Path(args.out), body)
    else:
        print(body, end="")


def cmd_lexicon_phones(args, ctx: Ctx) -> None:
    lex = _load_lexicon(args, ctx)
    out = Path(args.out_dir)
    check_output_separation(out, [Path(args.lexicon)])
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
    inputs = [Path(args.ctm), Path(args.segments), Path(args.phones), Path(args.lexicon)]
    if args.text:
        inputs.append(Path(args.text))
    check_output_separation(out, inputs)

    entries = ctm.parse_ctm(Path(args.ctm).read_text(encoding="utf-8"))
    segments = kaldi.parse_segments(Path(args.segments).read_text(encoding="utf-8"))
    table = ctm.PhoneSymbolTable.parse(Path(args.phones).read_text(encoding="utf-8"))
    lex = _load_lexicon(args, ctx)
    text = None
    if args.text:
        text = {
            line.utt: list(line.words)
            for line in kaldi.parse_text(Path(args.text).read_text(encoding="utf-8"))
        }

    rows = ctm.alignment_rows(entries, segments, table)
    ctx.out_text(out / "final_ali.txt", ctm.render_alignment_table(rows))

    resolved = ctm.resolve_phone_ids(entries, table)
    durations = ctm.corpus_durations(segments)
    if args.wav_dir:
        for fid in list(durations):
            wav = _stem_wav(Path(args.wav_dir), fid)
            if wav is not None:
                durations[fid] = read_wav_info(wav).duration

    per_file = ctm.align_corpus(resolved, segments, lex, text)
    for fid, (tokens, words) in per_file.items():
        duration = durations[fid]
        grid = textgrid.TextGrid(
            0.0,
            duration,
            (
                ctm.phones_to_tier(tokens, duration),
                ctm.words_to_tier(words, duration),
            ),
        )
        ctx.out_file(out / f"{fid}.TextGrid", textgrid.write_textgrid(grid))


# ---------------------------------------------------------------------------
# validate-mfa / fave


def cmd_validate_mfa(args, ctx: Ctx) -> None:
    cfg = transcripts.MfaCheckConfig(
        min_end_margin=ctx.value(args, "min_end_margin", 0.020, float),
        recommended_end_margin=ctx.value(args, "recommended_end_margin", 0.050, float),
        require_separator_intervals=ctx.value(
            args, "require_separator_intervals", False, bool
        ),
    )
    target = ctx.value(args, "target_rate", audio.MFA_SAMPLE_RATE, int)

    pairs: list[tuple[Path, Path | None]] = []
    if args.wav and args.textgrid:
        pairs.append((Path(args.textgrid), Path(args.wav)))
    elif args.textgrids:
        wav_dir = Path(args.wav_dir) if args.wav_dir else None
        for tg in expand_paths(ctx, args.textgrids):
            wav = _stem_wav(wav_dir, tg.stem) if wav_dir else None
            pairs.append((tg, wav))
    else:
        raise UsageError("need --wav/--textgrid or TextGrid paths")

    wav_by_grid = dict(pairs)

    def check(tg_path: Path) -> Report:
        report = Report()
        grid = read_grid(tg_path)
        wav_path = wav_by_grid.get(tg_path)
        if wav_path is None:
            report.warning("wav", "no matching wav file; skipping audio checks")
            duration = grid.xmax
        else:
            info = read_wav_info(wav_path)
            report.extend(audio.validate_for_mfa(info, target))
            duration = info.duration
        report.extend(transcripts.validate_mfa_textgrid(grid, duration, cfg))
        return report

    for path, report in process_files(ctx, [tg for tg, _ in pairs], check):
        if report is not None:
            ctx.add(str(path), report)


def cmd_fave_check(args, ctx: Ctx) -> None:
    lex = None
    if args.lexicon:
        lex = _load_lexicon(args, ctx)
    wav_dir = Path(args.wav_dir) if args.wav_dir else None

    def check(path: Path) -> Report:
        records = transcripts.parse_fave_transcript(
            path.read_text(encoding="utf-8")
        )
        duration = None
        if wav_dir:
            wav = _stem_wav(wav_dir, path.stem)
            if wav is not None:
                duration = read_wav_info(wav).duration
        return transcripts.validate_fave(records, duration, lex)

    for path, report in process_files(
        ctx, expand_paths(ctx, args.transcripts), check
    ):
        if report is not None:
            ctx.add(str(path), report)


# ---------------------------------------------------------------------------
# audio


def cmd_audio_info(args, ctx: Ctx) -> None:
    for path, info in process_files(ctx, expand_paths(ctx, args.wavs), read_wav_info):
        if info is None:
            continue
        kind = "PCM" if info.format_code == audio.WAVE_FORMAT_PCM else "float"
        print(
            f"{path}: {info.sample_rate} Hz, {info.channels} ch, "
            f"{info.bits_per_sample}-bit {kind}, "
            f"{kaldi.format_seconds(info.duration)} s"
        )


def cmd_audio_mono(args, ctx: Ctx) -> None:
    out_dir = Path(args.out_dir)
    wavs = expand_paths(ctx, args.wavs)
    check_output_separation(out_dir, wavs)

    def convert(path: Path) -> bytes:
        return audio.extract_channel(path.read_bytes(), args.channel)

    for path, mono in process_files(ctx, wavs, convert):
        if mono is not None:
            ctx.out_file(out_dir / f"{path.stem}_mono.wav", mono)


# ---------------------------------------------------------------------------
# vot


def cmd_vot_words(args, ctx: Ctx) -> None:
    lex = _load_lexicon(args, ctx)
    words = vot.find_cv_stop_words(lex)
    ctx.out_text(Path(args.out), vot.render_word_list(words))


def cmd_vot_locate(args, ctx: Ctx) -> None:
    words = {
        w.strip()
        for w in Path(args.words).read_text(encoding="utf-8").splitlines()
        if w.strip()
    }
    word_tier = ctx.value(args, "word_tier", "words", str)
    phone_tier = ctx.value(args, "phone_tier", "phones", str)
    tol = ctx.value(args, "tolerance", vot.DEFAULT_COINCIDENCE_TOL, float)

    def locate(path: Path) -> list[vot.WordOccurrence]:
        grid = read_grid(path)
        return vot.locate_words(
            grid, word_tier, phone_tier, words, file_id=path.stem, tolerance=tol
        )

    paths = sorted(expand_paths(ctx, args.textgrids), key=lambda p: p.stem)
    occurrences: list[vot.WordOccurrence] = []
    for _, occs in process_files(ctx, paths, locate):
        if occs:
            occurrences.extend(occs)
    ctx.out_text(Path(args.out), vot.render_word_locations(occurrences))


def cmd_vot_windows(args, ctx: Ctx) -> None:
    out_dir = Path(args.out_dir)
    grids = expand_paths(ctx, args.textgrids)
    check_output_separation(out_dir, grids + [Path(args.locations)])
    by_file: dict[str, list[vot.WordOccurrence]] = {}
    for occ in vot.parse_word_locations(
        Path(args.locations).read_text(encoding="utf-8")
    ):
        by_file.setdefault(occ.file_id, []).append(occ)

    tier_name = ctx.value(args, "vot_tier", "vot", str)

    def add_windows(path: Path, grid: textgrid.TextGrid) -> textgrid.TextGrid:
        occs = by_file.get(path.stem, [])
        tier = vot.make_vot_windows(occs, grid.xmax, tier_name)
        return textgrid.TextGrid(grid.xmin, grid.xmax, grid.tiers + (tier,))

    write_grid_step(ctx, grids, out_dir, args.suffix, add_windows)


def cmd_vot_lists(args, ctx: Ctx) -> None:
    out_dir = Path(args.out_dir)
    wavs = sorted(Path(args.wav_dir).glob("*.wav"))
    tgs = sorted(Path(args.textgrid_dir).glob("*.TextGrid"))
    check_output_separation(out_dir, [Path(args.wav_dir), Path(args.textgrid_dir)])
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
    check_output_separation(out_dir, grids)
    indices = _parse_indices(args.tiers)

    def merge(path: Path, grid: textgrid.TextGrid) -> textgrid.TextGrid:
        return textgrid.merge_interval_tiers(grid, indices, args.name)

    write_grid_step(ctx, grids, out_dir, args.suffix, merge)


def cmd_vot_prefer_manual(args, ctx: Ctx) -> None:
    out_dir = Path(args.out_dir)
    grids = expand_paths(ctx, args.textgrids)
    check_output_separation(out_dir, grids)

    def prefer(path: Path, grid: textgrid.TextGrid) -> textgrid.TextGrid:
        return vot.prefer_manual(grid, args.manual_tier, args.auto_tier)

    write_grid_step(ctx, grids, out_dir, args.suffix, prefer)


def cmd_vot_measure(args, ctx: Ctx) -> None:
    vot_tier = ctx.value(args, "vot_tier", "vot", str)
    phone_tier = ctx.value(args, "phone_tier", "phones", str)
    word_tier = ctx.value(args, "word_tier", "words", str)
    silent = frozenset(
        ctx.value(args, "silence_labels", ",sp,SP,sil,SIL", str).split(",")
    )

    def measure(path: Path) -> list[vot.VotMeasurement]:
        grid = read_grid(path)
        return vot.measure_cues(
            grid,
            vot_tier,
            phone_tier,
            word_tier,
            include_speaking_rate=not args.no_rate,
            silent_labels=silent,
        )

    paths = sorted(expand_paths(ctx, args.textgrids), key=lambda p: p.stem)
    chunks = []
    for path, measurements in process_files(ctx, paths, measure):
        if measurements is None:
            continue
        table = vot.render_measurements(measurements, file_id=path.stem)
        chunks.append(table if not chunks else table.split("\n", 1)[1])
    body = "".join(chunks)
    if args.out:
        ctx.out_text(Path(args.out), body)
    else:
        print(body, end="")


def cmd_vot_compare(args, ctx: Ctx) -> None:
    tol = ctx.value(args, "tolerance", 0.0, float)

    def compare(path: Path) -> vot.BoundaryComparison:
        grid = read_grid(path)
        manual, _ = grid.find_tier(args.manual_tier)
        auto, _ = grid.find_tier(args.auto_tier)
        return vot.compare_boundaries(manual, auto, tol)

    lines = ["file_id\tlabel\tmanual_burst\tauto_burst\tburst_delta\tvowel_delta"]
    for path, cmp_result in process_files(
        ctx, expand_paths(ctx, args.textgrids), compare
    ):
        if cmp_result is None:
            continue
        for d in cmp_result.pairs:
            lines.append(
                "\t".join(
                    [
                        path.stem,
                        d.label,
                        kaldi.format_seconds(d.manual.xmin),
                        kaldi.format_seconds(d.auto.xmin),
                        kaldi.format_seconds(d.burst_delta),
                        kaldi.format_seconds(d.vowel_delta),
                    ]
                )
            )
        for iv in cmp_result.unpaired_manual:
            ctx.add_finding(
                str(path), Severity.WARNING,
                f"[{iv.xmin}, {iv.xmax}]", "manual token with no auto counterpart",
            )
        for iv in cmp_result.unpaired_auto:
            ctx.add_finding(
                str(path), Severity.WARNING,
                f"[{iv.xmin}, {iv.xmax}]", "auto token with no manual counterpart",
            )
        for msg in cmp_result.conflicts:
            ctx.add_finding(str(path), Severity.WARNING, "", msg)
    body = "\n".join(lines) + "\n"
    if args.out:
        ctx.out_text(Path(args.out), body)
    else:
        print(body, end="")


# ---------------------------------------------------------------------------
# tg


def cmd_tg_stack(args, ctx: Ctx) -> None:
    out = Path(args.out)
    paths = expand_paths(ctx, args.textgrids)
    check_output_separation(out, paths)
    grids = [read_grid(p) for p in paths]
    ctx.out_file(out, textgrid.write_textgrid(textgrid.stack_tiers(grids)))


def cmd_tg_rename(args, ctx: Ctx) -> None:
    out = Path(args.out)
    src = Path(args.textgrid)
    check_output_separation(out, [src])
    grid = textgrid.rename_tier(read_grid(src), args.index, args.name)
    ctx.out_file(out, textgrid.write_textgrid(grid))


def cmd_tg_merge(args, ctx: Ctx) -> None:
    out = Path(args.out)
    src = Path(args.textgrid)
    check_output_separation(out, [src])
    grid = textgrid.merge_interval_tiers(
        read_grid(src), _parse_indices(args.indices), args.name
    )
    ctx.out_file(out, textgrid.write_textgrid(grid))


def cmd_tg_diagnose(args, ctx: Ctx) -> None:
    def diagnose(path: Path) -> Report:
        grid = read_grid(path)
        report = Report()
        for i, tier in enumerate(grid.tiers, 1):
            if not isinstance(tier, textgrid.IntervalTier):
                continue
            for ov in textgrid.diagnose_overlaps(tier):
                report.error(
                    f"tier {i} ({tier.name})",
                    f"intervals {ov.first_index} and {ov.second_index} overlap "
                    f"in [{ov.start}, {ov.end}]",
                )
        return report

    for path, report in process_files(
        ctx, expand_paths(ctx, args.textgrids), diagnose
    ):
        if report is not None:
            ctx.add(str(path), report)


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
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {raw!r} is not 'key = value'")
        key, value = line.split("=", 1)
        config[key.strip().replace("-", "_")] = value.strip()
    return config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        config = load_config(getattr(args, "config", None))
        ctx = Ctx(args, config)
    except (UsageError, OSError) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2

    try:
        args.func(args, ctx)
    except (UsageError, OSError) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        ctx.add_finding("", Severity.ERROR, "", str(exc))

    ctx.flush()
    return 1 if ctx.has_errors else 0


def entry() -> None:
    sys.exit(main())
