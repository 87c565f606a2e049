"""Minimal Praat long-format TextGrid writer and reader for the benchmark.

The generator and the output checker use this instead of the package under
test, so a defect in corpusphon's own TextGrid code cannot hide itself by
being on both sides of a comparison. Only what the generated corpora need is
supported: interval tiers whose labels contain no quotes or newlines.
"""

from __future__ import annotations

import re

Interval = tuple[float, float, str]


def fmt(t: float) -> str:
    return f"{t:.6f}"


def write_grid(xmax: float, tiers: list[tuple[str, list[Interval]]]) -> str:
    """Long-format text for interval tiers over [0, xmax], gaps filled."""
    out = [
        'File type = "ooTextFile"',
        'Object class = "TextGrid"',
        "",
        "xmin = 0",
        f"xmax = {fmt(xmax)}",
        "tiers? <exists>",
        f"size = {len(tiers)}",
        "item []:",
    ]
    for k, (name, intervals) in enumerate(tiers, 1):
        filled = fill_gaps(intervals, xmax)
        out += [
            f"    item [{k}]:",
            '        class = "IntervalTier"',
            f'        name = "{name}"',
            "        xmin = 0",
            f"        xmax = {fmt(xmax)}",
            f"        intervals: size = {len(filled)}",
        ]
        for j, (a, b, text) in enumerate(filled, 1):
            out += [
                f"        intervals [{j}]:",
                f"            xmin = {fmt(a)}",
                f"            xmax = {fmt(b)}",
                f'            text = "{text}"',
            ]
    return "\n".join(out) + "\n"


def fill_gaps(intervals: list[Interval], xmax: float) -> list[Interval]:
    """Empty intervals in the gaps; overlapping input is kept as it is."""
    out: list[Interval] = []
    cursor = 0.0
    for a, b, text in sorted(intervals):
        if a > cursor + 1e-9:
            out.append((cursor, a, ""))
        out.append((a, b, text))
        cursor = max(cursor, b)
    if xmax > cursor + 1e-9:
        out.append((cursor, xmax, ""))
    return out


_TIER_RE = re.compile(
    r'class = "IntervalTier"\s*\n\s*name = "([^"]*)"\s*\n'
    r"\s*xmin = \S+\s*\n\s*xmax = (\S+)\s*\n\s*intervals: size = (\d+)\s*\n"
)
_INTERVAL_RE = re.compile(
    r'intervals \[\d+\]:\s*\n\s*xmin = (\S+)\s*\n\s*xmax = (\S+)\s*\n\s*text = "([^"]*)"'
)


def read_grid(text: str) -> dict[str, list[Interval]]:
    """Tier name -> intervals (empty ones included), first tier of a name wins."""
    tiers: dict[str, list[Interval]] = {}
    starts = list(_TIER_RE.finditer(text))
    for k, m in enumerate(starts):
        end = starts[k + 1].start() if k + 1 < len(starts) else len(text)
        ivs = [
            (float(a), float(b), t)
            for a, b, t in _INTERVAL_RE.findall(text, m.end(), end)
        ]
        if len(ivs) != int(m.group(3)):
            raise ValueError(f"tier {m.group(1)!r}: size does not match intervals")
        tiers.setdefault(m.group(1), ivs)
    return tiers


def tier_names(text: str) -> list[str]:
    return [m.group(1) for m in _TIER_RE.finditer(text)]


def labelled(intervals: list[Interval]) -> list[Interval]:
    return [iv for iv in intervals if iv[2]]
