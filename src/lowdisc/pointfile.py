"""Flat-file serialisation of point sets.

Format: a header line `base m s precision count` (m is the smallest
integer with base^m >= count), an optional `# provenance: {json}` comment
carrying the construction family and parameters, then one line per point
holding s whitespace-separated digit strings, most significant digit
first.  Bases up to 10 use one character per digit; larger bases separate
digits with commas.  Round trips are bit-exact.

Bases up to 10 are written as one (N, s, precision + 1) byte array: the
digit characters of each coordinate and a space after it, or a newline
after the last.  Reading takes the same shortcut back: when the text after
the header (and an optional provenance line 2) is exactly that layout, one
vectorised check validates it and the digits are read from the reshaped
bytes.  Anything else -- comments elsewhere, CRLF, extra whitespace, comma
digits, non-ASCII text, every malformed file -- goes to the line parser,
which is the fallback, the oracle the shortcut must agree with, and the
only source of error messages.  The header is checked against the
digit-array capacity before any body work, and `read_point_file` checks it
before reading the body from disk.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .nets import PointSet, check_capacity

__all__ = ["write_point_file", "read_point_file", "dumps_point_file", "loads_point_file"]

# the first line as str.splitlines() delimits it
_FIRST_LINE = re.compile("[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")
_PROVENANCE = "# provenance: "
_HEADER_CHARS = 4096  # the longest first line `read_point_file` checks before the body


def dumps_point_file(ps: PointSet) -> str:
    m = 0
    while ps.base**m < len(ps):
        m += 1
    lines = [f"{ps.base} {m} {ps.s} {ps.precision} {len(ps)}"]
    if ps.provenance is not None:
        lines.append(_PROVENANCE + json.dumps(ps.provenance, sort_keys=True))
    digits = ps.digit_array()
    if ps.base <= 10:
        body = np.empty(digits.shape[:2] + (ps.precision + 1,), dtype=np.uint8)
        np.add(digits, ord("0"), out=body[:, :, :-1])
        body[:, :, -1] = ord(" ")
        body[:, -1, -1] = ord("\n")
        body = body.tobytes()
    else:
        # each digit's characters and the separator after it, NUL-padded to a common width
        tokens = np.array([[f"{d}{sep}" for d in range(ps.base)] for sep in ", \n"], dtype="S")
        sep = np.zeros((ps.s, ps.precision), dtype=np.intp)
        sep[:, -1] = 1
        sep[-1, -1] = 2
        body = tokens[sep, digits].tobytes().replace(b"\0", b"")
    return "\n".join(lines) + "\n" + body.decode("ascii")


def write_point_file(ps: PointSet, path) -> None:
    Path(path).write_text(dumps_point_file(ps), encoding="ascii")


def _header(line: str) -> tuple[int, int, int, int]:
    """base, s, precision and count from the header line."""
    header = line.split()
    if len(header) != 5:
        raise ParameterError("line 1: header must be 'base m s precision count'")
    try:
        base, _m, s, precision, count = (int(h) for h in header)
    except ValueError as exc:
        raise ParameterError(f"line 1: bad header field: {exc}") from exc
    if s < 1 or precision < 1:
        raise ParameterError("line 1: dimension and precision must be positive")
    return base, s, precision, count


def _canonical_body(text: str, start: int, base: int, s: int, precision: int, count: int):
    """(digits, provenance) when the text from `start` on -- the newline that
    ends the header, then the rest -- is exactly what dumps_point_file writes
    for base <= 10; None otherwise.  Never raises."""
    if base > 10 or not text.isascii() or not text.startswith("\n", start):
        return None
    start += 1
    provenance = None
    if text.startswith(_PROVENANCE, start):
        end = text.find("\n", start)
        line = text[start + len(_PROVENANCE) : end]
        if end < 0 or not line.isprintable():
            return None
        try:
            provenance = json.loads(line)
        except ValueError:
            return None
        if not isinstance(provenance, dict):
            return None
        start = end + 1
    if len(text) - start != count * s * (precision + 1):
        return None
    cells = np.frombuffer(text.encode("ascii"), dtype=np.uint8, offset=start)
    cells = cells.reshape(count, s, precision + 1)
    separators = np.full(s, ord(" "), dtype=np.uint8)
    separators[-1] = ord("\n")
    digits = cells[:, :, :-1] - np.uint8(ord("0"))  # characters below '0' wrap above 9
    if not (cells[:, :, -1] == separators).all() or (digits >= base).any():
        return None
    return digits, provenance


def _digit_values(fields: list[str], base: int) -> tuple[np.ndarray, np.ndarray]:
    """All digits of the fields in one flat array (-1 where not a decimal
    number), and the digit count of each field."""
    tokens = fields if base <= 10 else [f.split(",") for f in fields]
    counts = np.fromiter(map(len, tokens), dtype=np.int64, count=len(fields))
    if base <= 10:
        text = "".join(fields).encode("ascii", "replace")
        values = np.frombuffer(text, dtype=np.uint8).astype(np.int16) - ord("0")
        values[(values < 0) | (values > 9)] = -1
    else:
        values = np.array([min(int(t), base) if t.isdecimal() else -1 for ts in tokens for t in ts])
    return values, counts


def _parse_lines(lines: list[str], base: int, s: int, precision: int, count: int):
    """(digits, provenance) from the lines after the header, or ParameterError
    naming the first bad line."""
    provenance = None
    linenos, fields = [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw.startswith("#"):
            body = raw[1:].strip()
            if body.startswith("provenance:"):
                try:
                    provenance = json.loads(body[len("provenance:") :])
                except json.JSONDecodeError as exc:
                    raise ParameterError(f"line {lineno}: bad provenance json") from exc
                if not isinstance(provenance, dict):
                    raise ParameterError(f"line {lineno}: provenance is not a json object")
        elif words := raw.split():
            if len(words) != s:
                raise ParameterError(f"line {lineno}: point has {len(words)} coordinates, expected {s}")
            linenos.append(lineno)
            fields += words
    values, counts = _digit_values(fields, base)
    starts = np.cumsum(counts) - counts
    not_decimal = np.logical_or.reduceat(values < 0, starts)
    too_large = np.logical_or.reduceat(values >= base, starts)
    error = np.select([not_decimal, counts != precision, too_large], [1, 2, 3])
    if error.any():
        f = int(np.argmax(error > 0))
        reason = (
            f"bad digit string {fields[f]!r}",
            f"coordinate has {counts[f]} digits, expected {precision}",
            f"digit out of range for base {base}",
        )[error[f] - 1]
        raise ParameterError(f"line {linenos[f // s]}: {reason}")
    if len(linenos) != count:
        raise ParameterError(f"line {len(lines)}: file has {len(linenos)} points, header says {count}")
    return values.astype(np.uint8).reshape(len(linenos), s, precision), provenance


def loads_point_file(text: str) -> PointSet:
    if not text:
        raise ParameterError("line 1: empty point file")
    first = _FIRST_LINE.match(text).group()
    base, s, precision, count = _header(first)
    check_capacity(count, s, precision)
    parsed = _canonical_body(text, len(first), base, s, precision, count)
    if parsed is None:
        parsed = _parse_lines(text.splitlines(), base, s, precision, count)
    digits, provenance = parsed
    return PointSet.from_digits(digits, base, provenance)


def read_point_file(path) -> PointSet:
    # refuse a header above the capacity before the body is read
    with open(path, encoding="ascii") as f:
        head = f.readline(_HEADER_CHARS)
    first = _FIRST_LINE.match(head).group()
    if head and (len(first) < len(head) or len(head) < _HEADER_CHARS):  # `first` is all of line 1
        _, s, precision, count = _header(first)
        check_capacity(count, s, precision)
    return loads_point_file(Path(path).read_text(encoding="ascii"))
