"""The one reader from file to text, the one line cut, the one row reader and time spelling.

read_utf8 reads every text input but a TextGrid (whose decoder also reads
UTF-16) as strict UTF-8, line breaks kept. Lines.chunk cuts every text input.
read_rows reads Kaldi data files, CTM, phones.txt, lexicons, FAVE, .lab and
--transcripts transcripts, word locations, records TSVs, word lists and config
files straight from the chunks; the TextGrid reader walks Lines, moving its pos.
format_seconds spells each time of a Kaldi file, table or finding (not a TextGrid's)."""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Iterator

from .errors import ToolkitError


class UndecodableText(ToolkitError):
    """A text input that is not valid UTF-8."""


def read_utf8(path: str | Path) -> str:
    """The file's bytes as strict UTF-8, line breaks as they are: no '\r' becomes '\n'.

    Bytes that are not UTF-8 raise UndecodableText("<path>: <codec reason>").
    """
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableText(f"{path}: {exc}") from None


def format_seconds(t: float) -> str:
    """Trailing-zero-free decimal with at least one fractional digit."""
    s = f"{t:.6f}".rstrip("0")
    return s + "0" if s.endswith(".") else s


class Lines:
    """The (line number, line) pairs of a text, cut 8 K characters at a time.

    Only '\\n' breaks lines ('\\r', in a text without any '\\n'), so each line
    keeps its '\\r', form feed or U+2028. Holding one chunk at a time, it
    never builds the list of every line. pos is where the next line starts;
    a reader may move it on between two lines, and the numbering follows.
    """

    def __init__(self, text: str):
        self.text, self.pos = text, 0
        self.sep = "\n" if "\n" in text else "\r"  # classic Mac OS line breaks

    def chunk(self, pos: int) -> tuple[list[str], int]:
        """The lines to the first break 8 K characters past pos (or the end), and the next pos."""
        cut = self.text.find(self.sep, pos + 8192)
        if cut < 0:
            cut = len(self.text)
        return self.text[pos:cut].split(self.sep), cut + 1

    def __iter__(self):
        text, sep, n = self.text, self.sep, 0
        while (pos := self.pos) <= len(text):
            for line in self.chunk(pos)[0]:
                self.pos = pos = pos + len(line) + 1
                n += 1
                yield n, line
                if self.pos != pos:  # the reader read on
                    n += text.count(sep, pos, self.pos)
                    break


def read_rows(
    content: str, name: str, error: type[Exception], n: int, expected: str, *,
    sep: str | None = None, maxsplit: int = -1, exact: bool = True,
    times: tuple[int, ...] = (), time_error: type[Exception] | None = None,
) -> Iterator[tuple[int, list]]:
    """(line number, fields) of each non-blank line of content, cut by Lines.chunk.

    A '\\r' just before '\\n' belongs to the break, so it is dropped; one that
    ends the text stays. A form feed, U+0085 or U+2028 stays in its line,
    where str.splitlines() would break it. fields is line.split(sep,
    maxsplit) followed by the float of each field in times. A text that
    starts with a byte order mark (U+FEFF), which Kaldi's tools would read
    as part of the first field, raises error at line 1. A line with fewer
    than n fields, or more when exact, raises error("<where>: <expected>"),
    where <where> is "<name> line <number>" ("line <number>" when name is
    empty) and {got} in expected is the count. A time field that is not a
    number raises time_error (error when None) with "<where>: non-numeric
    time", a NaN or inf one "<where>: non-finite time". Each parser keeps
    only the checks of its own format.
    """
    if content.startswith("\ufeff"):
        raise error(f"{_where(name, 1)}: starts with a byte order mark (U+FEFF); "
                    "save the file as UTF-8 without one")
    most = n if exact else sys.maxsize
    time_error = time_error or error
    chunk, end, pos, i = Lines(content).chunk, len(content), 0, 0
    while pos <= end:
        lines, pos = chunk(pos)
        last = i + len(lines) if pos > end else 0  # the text's last line, which no break ends
        for line in lines:
            i += 1
            if line[-1:] == "\r" and i != last:  # a '\n' follows
                line = line[:-1]
            fields = line.split(sep, maxsplit)
            if not fields or sep and not line.strip():
                continue
            if not n <= len(fields) <= most:
                raise error(f"{_where(name, i)}: " + expected.format(got=len(fields)))
            # converted here, not by a call per line: a CTM has 1e5 lines
            for j in times:
                try:
                    t = float(fields[j])
                except ValueError:
                    raise time_error(f"{_where(name, i)}: non-numeric time") from None
                if t - t:  # 0.0 for a finite t, NaN (true) for NaN or inf
                    raise time_error(f"{_where(name, i)}: non-finite time")
                fields.append(t)
            yield i, fields


def _where(name: str, line: int) -> str:
    return f"{name} line {line}" if name else f"line {line}"
