"""Flat-file serialisation of point sets.

Format: a header line `base m s precision count` (m is the smallest
integer with base^m >= count), an optional `# provenance: {json}` comment
carrying the construction family and parameters, then one line per point
holding s whitespace-separated digit strings, most significant digit
first.  Bases up to 10 use one character per digit; larger bases separate
digits with commas.  Round trips are bit-exact.

There is one writer: a generator yields the file's bytes, the header lines
and then the points in blocks of at most `_BLOCK_BYTES` of text (one point
at least).  `write_point_file` writes the blocks to a path or to a binary
stream (`construct` passes `sys.stdout.buffer` when it has no --out), and
`dumps_point_file` joins them; so every destination gets the same bytes,
and a writer holds one block beside the digit array, never the whole
text.  For bases up to 10 a block is the (n, s, precision + 1) byte array
of its characters: the digit characters of each coordinate and a space
after it, or a newline after the last.

Reading takes the same layout back: when the text after the header (and an
optional provenance line 2) is exactly that layout, one vectorised check
validates it and the digits are read from the reshaped bytes.  Anything
else -- comments elsewhere, CRLF, extra whitespace, comma digits, every
malformed file -- goes to the line parser, which is the fallback, the
oracle the shortcut must agree with, and the only source of body error
messages.  It splits the lines into coordinate fields in Python and reads
all their digits, comma-separated numbers included, in one vectorised
pass.  Both read a provenance line by one rule (`_provenance`: valid JSON,
then a JSON object).  The header is checked against the digit-array
capacity before any body work, and `read_point_file` checks it before
reading the body from disk.

Every read is of bytes: `read_point_file` reads the file once, as bytes,
and `loads_point_file` reads a str as its UTF-8 bytes, so a text reads
the same from a str and from a file.  Point files are ASCII; the first
non-ASCII byte is refused, naming its line.  The canonical layout is read
from the bytes in place; only the line parser decodes a str copy.
"""

from __future__ import annotations

import contextlib
import json
import re
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .nets import PointSet, _exponent, check_capacity

__all__ = ["write_point_file", "read_point_file", "dumps_point_file", "loads_point_file"]

# the first line as str.splitlines() delimits it in ASCII text
_FIRST_ASCII_LINE = re.compile(b"[^\n\r\v\f\x1c\x1d\x1e]*")
_PROVENANCE = b"# provenance: "
_HEADER_CHARS = 4096  # the longest first line `read_point_file` checks before the body
_BLOCK_BYTES = 1 << 20  # the text of one block of points that a writer holds at once


def _blocks(ps: PointSet):
    """The point file's ASCII bytes, in order: the header lines, then the points in blocks of at most
    `_BLOCK_BYTES` of text (one point at least); for bases up to 10 a block is the (n, s, precision + 1)
    uint8 array of its characters."""
    yield f"{ps.base} {_exponent(len(ps), ps.base)} {ps.s} {ps.precision} {len(ps)}\n".encode("ascii")
    if ps.provenance is not None:
        yield _PROVENANCE + json.dumps(ps.provenance, sort_keys=True).encode("ascii") + b"\n"
    # a digit's text is at most the widest digit and the separator after it
    rows = max(1, _BLOCK_BYTES // (ps.s * ps.precision * (len(str(ps.base - 1)) + 1)))
    if ps.base > 10:
        # each digit's characters and the separator after it, NUL-padded to a common width
        tokens = np.array([[f"{d}{sep}" for d in range(ps.base)] for sep in ", \n"], dtype="S")
        sep = np.zeros((ps.s, ps.precision), dtype=np.intp)
        sep[:, -1] = 1
        sep[-1, -1] = 2
    for lo in range(0, len(ps), rows):
        digits = ps.digit_array()[lo : lo + rows]
        if ps.base > 10:
            yield tokens[sep, digits].tobytes().replace(b"\0", b"")
            continue
        block = np.empty(digits.shape[:2] + (ps.precision + 1,), dtype=np.uint8)
        np.add(digits, ord("0"), out=block[:, :, :-1])
        block[:, :, -1] = ord(" ")
        block[:, -1, -1] = ord("\n")
        yield block


def dumps_point_file(ps: PointSet) -> str:
    return "".join(str(block, "ascii") for block in _blocks(ps))


def write_point_file(ps: PointSet, dest) -> None:
    """Write the bytes of `dumps_point_file(ps)` block by block to `dest`, a path or a binary stream."""
    with contextlib.nullcontext(dest) if hasattr(dest, "write") else open(dest, "wb") as f:
        f.writelines(_blocks(ps))


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


def _provenance(text: str, lineno: int) -> dict:
    """The JSON object of the `# provenance:` comment on line `lineno`, from the text after its
    colon; ParameterError when that is not JSON (nesting too deep included) or not an object."""
    try:
        provenance = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParameterError(f"line {lineno}: bad provenance json") from exc
    if not isinstance(provenance, dict):
        raise ParameterError(f"line {lineno}: provenance is not a json object")
    return provenance


def _canonical_body(data: bytes, start: int, base: int, s: int, precision: int, count: int):
    """(digits, provenance) when the ASCII text bytes from `start` on -- the
    newline that ends the header, then the rest -- are exactly what
    dumps_point_file writes for base <= 10; None otherwise.  Raises only `_provenance`'s error."""
    if base > 10 or not data.startswith(b"\n", start):
        return None
    start += 1
    provenance = None
    if data.startswith(_PROVENANCE, start):
        end = data.find(b"\n", start)
        line = data[start + len(_PROVENANCE) : end].decode("ascii")
        if end < 0 or not line.isprintable():
            return None
        provenance = _provenance(line, 2)  # the line parser's first line too, so its error is the same
        start = end + 1
    if len(data) - start != count * s * (precision + 1):
        return None
    cells = np.frombuffer(data, dtype=np.uint8, offset=start)
    cells = cells.reshape(count, s, precision + 1)
    separators = np.full(s, ord(" "), dtype=np.uint8)
    separators[-1] = ord("\n")
    digits = cells[:, :, :-1] - np.uint8(ord("0"))  # characters below '0' wrap above 9
    if not (cells[:, :, -1] == separators).all() or digits.max(initial=0) >= base:
        return None
    return digits, provenance


def _digit_values(fields: list[str], base: int) -> tuple[np.ndarray, np.ndarray]:
    """All digits of the fields in one flat int64 array, and the digit count
    of each field; a digit that is not a decimal number reads -1, and one at
    least the base reads -2.

    Bases up to 10 take one character per digit.  Larger bases take
    comma-separated decimal numbers, read in one pass over the joined field
    bytes: a number is at least the base when it has more significant
    digits than the base, or as many and sorts at or above it.  Values below
    the base are exact up to 10^18.
    """
    if not fields:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    chars = np.frombuffer(" ".join(fields).encode("ascii"), dtype=np.uint8)
    space = chars == ord(" ")
    digit = chars - np.uint8(ord("0"))  # characters below '0' wrap above 9
    is_digit = digit <= 9
    if base <= 10:
        values = np.where(is_digit, digit.astype(np.int64), -1)[~space]
        values[values >= base] = -2
        return values, np.fromiter(map(len, fields), dtype=np.int64, count=len(fields))
    edges = np.flatnonzero(space | (chars == ord(",")))
    field_ends = np.flatnonzero(space[edges])
    counts = np.diff(np.concatenate(([-1], field_ends, [len(edges)])))
    starts, stops = np.append(0, edges + 1), np.append(edges, len(chars))  # of each number
    others = np.append(0, np.cumsum(~is_digit))
    decimal = (stops > starts) & (others[stops] == others[starts])
    nonzero = np.append(np.flatnonzero(is_digit & (digit > 0)), len(chars))
    significant = np.maximum(stops - nonzero[np.searchsorted(nonzero, starts)], 0)
    width = len(str(base))
    large = significant > width
    tie = np.flatnonzero(decimal & (significant == width))
    large[tie] = chars[stops[tie, None] - width + np.arange(width)].view(f"S{width}")[:, 0] >= str(base).encode()
    values = np.zeros(len(starts), dtype=np.int64)
    for place in range(min(width, 18)):  # the last `width` digits hold every value below the base
        at = stops - 1 - place
        values += np.where(at >= starts, digit[np.maximum(at, 0)], 0) * np.int64(10**place)
    return np.where(decimal, np.where(large, -2, values), -1), counts


def _parse_lines(lines: list[str], base: int, s: int, precision: int, count: int):
    """(digits, provenance) from the lines after the header, or ParameterError
    naming the first bad line."""
    provenance = None
    linenos, fields = [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw.startswith("#"):
            body = raw[1:].strip()
            if body.startswith("provenance:"):
                provenance = _provenance(body[len("provenance:") :], lineno)
        elif words := raw.split():
            if len(words) != s:
                raise ParameterError(f"line {lineno}: point has {len(words)} coordinates, expected {s}")
            linenos.append(lineno)
            fields += words
    values, counts = _digit_values(fields, base)
    starts = np.cumsum(counts) - counts
    not_decimal = np.logical_or.reduceat(values == -1, starts)
    too_large = np.logical_or.reduceat(values == -2, starts)
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


def loads_point_file(text: str | bytes) -> PointSet:
    """The point set in point-file text: bytes, which must be ASCII and are
    read in place (`read_point_file` passes a file's bytes), or a str, read
    as its UTF-8 bytes."""
    # a str is encoded now, as a temporary of the call: small objects allocated after a
    # file-sized buffer can keep the allocator from reusing its pages
    data = text.encode() if isinstance(text, str) else text
    if not data.isascii():
        at = re.search(rb"[\x80-\xff]", data).start()
        line = data.count(b"\n", 0, at) + 1
        raise ParameterError(f"line {line}: byte {data[at]:#04x} is not ASCII")
    if not data:
        raise ParameterError("line 1: empty point file")
    first = _FIRST_ASCII_LINE.match(data).group().decode("ascii")
    base, s, precision, count = _header(first)
    check_capacity(count, s, precision)
    parsed = _canonical_body(data, len(first), base, s, precision, count)
    if parsed is None:
        parsed = _parse_lines(data.decode("ascii").splitlines(), base, s, precision, count)
    digits, provenance = parsed
    return PointSet.from_digits(digits, base, provenance)


def read_point_file(path) -> PointSet:
    with open(path, "rb") as f:  # refuse a header above the capacity before the body is read
        head = f.readline(_HEADER_CHARS)
    first = _FIRST_ASCII_LINE.match(head).group()
    # `first` is all of line 1; loads_point_file names the line of a non-ASCII byte
    if head.isascii() and head and (len(first) < len(head) or len(head) < _HEADER_CHARS):
        _, s, precision, count = _header(first.decode("ascii"))
        check_capacity(count, s, precision)
    return loads_point_file(Path(path).read_bytes())
