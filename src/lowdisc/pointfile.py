"""Flat-file serialisation of point sets.

Format: a header line `base m s precision count` (m is the smallest
integer with base^m >= count), an optional `# provenance: {json}` comment
carrying the construction family and parameters, then one line per point
holding s whitespace-separated digit strings, most significant digit
first.  Bases up to 10 use one character per digit; larger bases separate
digits with commas.  Round trips are bit-exact.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .nets import PointSet

__all__ = ["write_point_file", "read_point_file", "dumps_point_file", "loads_point_file"]


def dumps_point_file(ps: PointSet) -> str:
    m = 0
    while ps.base**m < len(ps):
        m += 1
    lines = [f"{ps.base} {m} {ps.s} {ps.precision} {len(ps)}"]
    if ps.provenance is not None:
        lines.append("# provenance: " + json.dumps(ps.provenance, sort_keys=True))
    # each digit's characters and the separator after it, NUL-padded to a common width
    inner = "," if ps.base > 10 else ""
    tokens = np.array(
        [[f"{d}{sep}" for d in range(ps.base)] for sep in (inner, " ", "\n")], dtype="S"
    )
    sep = np.zeros((ps.s, ps.precision), dtype=np.intp)
    sep[:, -1] = 1
    sep[-1, -1] = 2
    body = tokens[sep, ps.digit_array()].tobytes().replace(b"\0", b"")
    return "\n".join(lines) + "\n" + body.decode("ascii")


def write_point_file(ps: PointSet, path) -> None:
    Path(path).write_text(dumps_point_file(ps), encoding="ascii")


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


def loads_point_file(text: str) -> PointSet:
    lines = text.splitlines()
    if not lines:
        raise ParameterError("line 1: empty point file")
    header = lines[0].split()
    if len(header) != 5:
        raise ParameterError("line 1: header must be 'base m s precision count'")
    try:
        base, _m, s, precision, count = (int(h) for h in header)
    except ValueError as exc:
        raise ParameterError(f"line 1: bad header field: {exc}") from exc
    if s < 1 or precision < 1:
        raise ParameterError("line 1: dimension and precision must be positive")
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
    digits = values.astype(np.uint8).reshape(len(linenos), s, precision)
    return PointSet.from_digits(digits, base, provenance)


def read_point_file(path) -> PointSet:
    return loads_point_file(Path(path).read_text(encoding="ascii"))
