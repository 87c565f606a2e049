"""In-memory spans around calls into corpusphon's modules, and what they add up to.

The benchmark records spans from its own files: while a traced pass runs,
`Tracer.installed()` replaces selected public functions of the package with
wrappers that time each call, and puts the originals back afterwards. Only
functions called once per step, per file or per utterance are wrapped; a
per-line function (such as `kaldi.format_seconds`) would distort the run it
measures. Traced passes run batch steps with one worker, so every span is
recorded in this process and spans nest as a simple stack.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import time


def _items_in(tier) -> int:
    return len(tier.non_empty())


# (module, attribute, span name, extra) — extra(args, result) runs after the
# span has ended, so its cost falls outside the timed call
WRAPPED = [
    ("cli", "process_files", "cli.batch", None),
    ("cli", "read_grid", "cli.read", None),
    ("cli", "Ctx.out_file", "cli.write", lambda a, r: {"bytes": len(a[2])}),
    ("cli", "Ctx.flush", "cli.flush", None),
    ("textgrid", "parse_textgrid", "textgrid.parse", lambda a, r: {"bytes": len(a[0])}),
    ("textgrid", "write_textgrid", "textgrid.write",
     lambda a, r: {"bytes": len(r) if r is not None else 0}),
    ("textgrid", "IntervalTier.normalized", "textgrid.normalize", None),
    ("textgrid", "merge_interval_tiers", "textgrid.merge", None),
    ("textgrid", "stack_tiers", "textgrid.stack", None),
    ("textgrid", "diagnose_overlaps", "textgrid.diagnose", None),
    ("vot", "find_cv_stop_words", "vot.words", None),
    ("vot", "locate_words", "vot.locate",
     lambda a, r: {"items": _items_in(a[0].find_tier(a[1])[0])}),
    ("vot", "make_vot_windows", "vot.windows", None),
    ("vot", "prefer_manual", "vot.prefer", None),
    ("vot", "compare_boundaries", "vot.compare", lambda a, r: {"items": _items_in(a[1])}),
    ("vot", "measure_cues", "vot.measure",
     lambda a, r: {"items": _items_in(a[0].find_tier(a[1])[0]),
                   "ok": len(r) if r is not None else 0}),
    ("vot", "render_word_list", "vot.render", None),
    ("vot", "render_word_locations", "vot.render", None),
    ("vot", "parse_word_locations", "vot.render", None),
    ("vot", "render_measurements", "vot.render", None),
    ("vot", "render_path_list", "vot.render", None),
    ("ctm", "parse_ctm", "ctm.parse", lambda a, r: {"lines": len(r) if r else 0}),
    ("ctm", "PhoneSymbolTable.parse", "ctm.symbols", None),
    ("ctm", "resolve_phone_ids", "ctm.resolve", None),
    ("ctm", "alignment_rows", "ctm.table", None),
    ("ctm", "render_alignment_table", "ctm.table", None),
    ("ctm", "align_corpus", "ctm.align", None),
    ("ctm", "group_words", "ctm.group",
     lambda a, r: {"tokens": len(a[0]), "defects": len(r.defects) if r else 0}),
    ("ctm", "match_words", "ctm.match", None),
    ("ctm", "phones_to_tier", "ctm.tier", None),
    ("ctm", "words_to_tier", "ctm.tier", None),
    ("kaldi", "build_from_records", "kaldi.build", None),
    ("kaldi", "read_data_dir", "kaldi.read", None),
    ("kaldi", "parse_text", "kaldi.parse", None),
    ("kaldi", "parse_segments", "kaldi.parse", None),
    ("kaldi", "parse_wav_scp", "kaldi.parse", None),
    ("kaldi", "parse_utt2spk", "kaldi.parse", None),
    ("kaldi", "parse_spk2utt", "kaldi.parse", None),
    ("kaldi", "validate_data_dir", "kaldi.validate", None),
    ("kaldi", "fix_data_dir", "kaldi.fix", None),
    ("kaldi", "KaldiDataDir.render", "kaldi.render", None),
    ("lexicon", "parse_lexicon", "lexicon.parse", None),
    ("lexicon", "extract_word_list", "lexicon.extract", None),
    ("lexicon", "filter_lexicon", "lexicon.filter", None),
    ("lexicon", "missing_words", "lexicon.missing", None),
    ("lexicon", "derive_nonsilence_phones", "lexicon.phones", None),
    ("lexicon", "render_lexicon", "lexicon.render", None),
    ("lexicon", "render_phone_groups", "lexicon.render", None),
    ("lexicon", "unstressed_only_prons", "lexicon.unstressed", None),
    ("transcripts", "parse_fave_transcript", "transcripts.parse", None),
    ("transcripts", "validate_mfa_textgrid", "transcripts.mfa", None),
    ("transcripts", "validate_fave", "transcripts.fave", None),
    ("audio", "parse_wav_header", "audio.header", None),
    ("audio", "validate_for_mfa", "audio.validate", None),
    ("audio", "extract_channel", "audio.extract", lambda a, r: {"bytes": len(a[0])}),
]

# span names whose calls can contain other spans: these also get a self time
PARENTS = (
    "cli.batch", "cli.read", "textgrid.write", "textgrid.merge", "textgrid.stack",
    "vot.windows", "vot.prefer", "ctm.table", "ctm.align", "ctm.tier",
    "kaldi.read", "audio.extract",
)
STEP = "step"
FILE = "cli.file"  # one call of the per-file function a batch step applies


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index, step, extra]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._step: str | None = None

    def _open(self, name: str) -> list:
        record = [name, 0, 0, self._stack[-1] if self._stack else -1, self._step, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, extra=None):
        def traced(*args, **kwargs):
            record = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(record)
                if extra is not None:
                    try:
                        record[5] = extra(args, result)
                    except Exception:  # never let measuring change what the call did
                        record[5] = None

        return traced

    @contextlib.contextmanager
    def step(self, name: str):
        self._step = name
        record = self._open(STEP)
        try:
            yield
        finally:
            self._close(record)
            self._step = None

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in WRAPPED; restore the originals on exit."""
        restore = []
        try:
            for module_name, attr, name, extra in WRAPPED:
                owner = importlib.import_module(f"corpusphon.{module_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[leaf] if isinstance(owner, type) else getattr(owner, leaf)
                restore.append((owner, leaf, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, extra))
                elif name == "cli.batch":
                    wrapped = self._wrap_batch(raw)
                else:
                    wrapped = self.wrap(name, raw, extra)
                setattr(owner, leaf, wrapped)
            yield self
        finally:
            for owner, leaf, raw in reversed(restore):
                setattr(owner, leaf, raw)

    def _wrap_batch(self, process_files):
        batch = self.wrap("cli.batch", process_files)

        def traced(ctx, paths, fn):
            return batch(ctx, paths, self.wrap(FILE, fn))

        return traced


# ---------------------------------------------------------------------------
# metrics of one traced pass


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _len_ratio(samples: list[tuple[float, dict]]) -> float:
    """Per-item cost on the largest input over that on the smallest (1 = linear)."""
    sized = [(e["items"], d) for d, e in samples if e and e["items"]]
    if len({n for n, _ in sized}) < 2:
        return 0.0
    big = max(sized)
    small = min(sized)
    return (big[1] / big[0]) / (small[1] / small[0])


def pass_metrics(spans: list[list], batch_wall: dict[str, float], jobs: int) -> dict:
    """Per-layer numbers from one traced pass.

    batch_wall maps a step name to its untraced wall time at the workload's
    worker count, the base of cli.batch.parallel_eff.
    """
    dur = [(s[2] - s[1]) / 1e9 for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    by_name: dict[str, list[tuple[float, dict]]] = {}
    self_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append((dur[i], s[5]))
        self_s[s[0]] = self_s.get(s[0], 0.0) + dur[i] - child[i]

    def total(name: str) -> float:
        return sum(d for d, _ in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def summed(name: str, key: str) -> float:
        return sum(e[key] for _, e in by_name.get(name, ()) if e)

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    m: dict[str, float] = {}
    for _, _, name, _ in WRAPPED:
        m[f"{name}.s"] = total(name)
    for name in PARENTS:
        m[f"{name}.self_s"] = self_s.get(name, 0.0)

    busy = total(FILE)
    batch_steps = {s[4] for s in spans if s[0] == "cli.batch"}
    m["cli.batch.busy_s"] = busy
    m["cli.batch.parallel_eff"] = rate(busy, jobs * sum(batch_wall.get(s, 0.0) for s in batch_steps))
    del m["cli.batch.s"]
    m["cli.write.mb"] = summed("cli.write", "bytes") / 1e6

    parse_ms = [d * 1e3 for d, _ in by_name.get("textgrid.parse", ())]
    m["textgrid.parse.calls"] = count("textgrid.parse")
    m["textgrid.parse.mb_per_s"] = rate(summed("textgrid.parse", "bytes") / 1e6, m["textgrid.parse.s"])
    m["textgrid.parse.p50_ms"] = _quantile(parse_ms, 0.5)
    m["textgrid.parse.p90_ms"] = _quantile(parse_ms, 0.9)
    m["textgrid.write.mb_per_s"] = rate(summed("textgrid.write", "bytes") / 1e6, m["textgrid.write.s"])

    m["vot.locate.us_per_word"] = rate(m["vot.locate.s"] * 1e6, summed("vot.locate", "items"))
    m["vot.locate.len_ratio"] = _len_ratio(by_name.get("vot.locate", []))
    m["vot.compare.len_ratio"] = _len_ratio(by_name.get("vot.compare", []))
    m["vot.measure.us_per_token"] = rate(m["vot.measure.s"] * 1e6, summed("vot.measure", "items"))
    m["vot.measure.len_ratio"] = _len_ratio(by_name.get("vot.measure", []))
    m["vot.measure.ok_ratio"] = rate(summed("vot.measure", "ok"), summed("vot.measure", "items"))

    m["ctm.resolve.calls"] = count("ctm.resolve")
    m["ctm.group.defect_ratio"] = rate(summed("ctm.group", "defects"), summed("ctm.group", "tokens"))
    m["lexicon.parse.calls"] = count("lexicon.parse")
    m["audio.header.calls"] = count("audio.header")
    m["audio.extract.mb_per_s"] = rate(summed("audio.extract", "bytes") / 1e6, m["audio.extract.s"])

    steps = [i for i, s in enumerate(spans) if s[0] == STEP]
    step_total = sum(dur[i] for i in steps)
    covered = sum(dur[i] for i, s in enumerate(spans) if s[3] >= 0 and spans[s[3]][0] == STEP)
    m["trace.coverage"] = rate(covered, step_total)
    m["trace.spans"] = len(spans)
    m["ctm_lines"] = summed("ctm.parse", "lines")
    return m
