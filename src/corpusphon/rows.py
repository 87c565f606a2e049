"""The one reader of line-oriented text files: Kaldi data files, CTM,
phones.txt, lexicons, FAVE and .lab transcripts, word locations, records
TSVs, word lists and config files."""

from __future__ import annotations

import sys
from typing import Iterator


def read_rows(
    content: str, name: str, error: type[Exception], n: int, expected: str, *,
    sep: str | None = None, maxsplit: int = -1, exact: bool = True,
    times: tuple[int, ...] = (), time_error: type[Exception] | None = None,
) -> Iterator[tuple[int, list]]:
    """(line number, fields) of each non-blank line of content.

    A line ends at '\\n', or at '\\r' in a file without any '\\n'; a '\\r' just
    before '\\n' belongs to the break. So a form feed, U+0085 or U+2028 stays
    in its line, where str.splitlines() would break it. fields is
    line.split(sep, maxsplit) followed by the float of each field in times.
    A line with fewer than n fields, or more when exact, raises
    error("<where>: <expected>"), where <where> is "<name> line <number>"
    ("line <number>" when name is empty) and {got} in expected is the count.
    A time field that is not a number raises time_error (error when None)
    with "<where>: non-numeric time", a NaN or inf one "<where>: non-finite
    time". Each parser keeps only the checks of its own format.
    """
    lines = content.replace("\r\n", "\n").split("\n") if "\n" in content else content.split("\r")
    most = n if exact else sys.maxsize
    time_error = time_error or error
    for i, line in enumerate(lines, 1):
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
