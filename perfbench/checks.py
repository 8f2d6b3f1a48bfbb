"""Output checks that decide whether a job counts as done.

Each check returns None when the job's output is right and a one-line
reason otherwise.  References were recorded by ``make_references.py``.

- pointfile: sha256 of the header and digit lines, without the
  ``# provenance:`` comment, whose fields may grow.
- read: the point set read back holds exactly the digits of the file.
- verify: the CSV text.  Two cells are normalised first: the input path
  of a point-file check, and the char check's rounding residue, which
  depends on the seed-chosen Walsh indices and must stay <= 1e-9.
- discrepancy / scaling: N, s, q (and the scaling family and grid value)
  exactly; the values within ``RTOL``; the method column is not compared,
  so an exact evaluator may replace the float one.  Estimated (Lq) rows
  agree with a 16x-sample reference within ``LQ_SIGMAS`` combined standard
  errors.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Above the float L2 path's cancellation error (1.1e-9 relative at
# N = 16384, the largest here is 4096) and far below the change one
# misplaced point makes (about 1/N).
RTOL = 1e-7
# The reported standard error already upper-bounds the stratified error,
# so six of them make a false failure vanishingly rare.
LQ_SIGMAS = 6.0
CHAR_LIMIT = 1e-9


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def pointfile_digest(text: str) -> str:
    lines = [ln for ln in text.splitlines() if not ln.startswith("# provenance:")]
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def normalise_verify(text: str, inputs: dict[str, str]) -> str:
    """Replace input paths by their names and the char residue by a mark.

    Raises ValueError when the char residue exceeds CHAR_LIMIT.
    """
    for name, path in inputs.items():
        text = text.replace(path, "@in:" + name)
    rows = []
    for row in text.splitlines():
        cells = row.split(",")
        if cells[0] == "char":
            if not float(cells[3]) <= CHAR_LIMIT:
                raise ValueError(f"char residue {cells[3]} above {CHAR_LIMIT}")
            cells[3] = "<residue>"
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def _compare_table(got: str, want: str, exact: tuple[str, ...], close: tuple[str, ...]) -> str | None:
    got_rows = [r.split(",") for r in got.splitlines()]
    want_rows = [r.split(",") for r in want.splitlines()]
    if got_rows[:1] != want_rows[:1]:
        return f"header {got_rows[:1]} != {want_rows[:1]}"
    if len(got_rows) != len(want_rows):
        return f"{len(got_rows) - 1} rows, expected {len(want_rows) - 1}"
    header = want_rows[0]
    for g, w in zip(got_rows[1:], want_rows[1:]):
        row = dict(zip(header, g))
        ref = dict(zip(header, w))
        for col in exact:
            if row[col] != ref[col]:
                return f"{col} = {row[col]}, expected {ref[col]}"
        if row.get("method") == "estimated":
            tol = LQ_SIGMAS * (float(row["stderr"]) + float(ref["stderr"]))
            if not abs(float(row["value"]) - float(ref["value"])) <= tol:
                return f"Lq value {row['value']} not within {tol:.3g} of {ref['value']}"
            continue
        for col in close:
            if row[col] != ref[col] and not math.isclose(float(row[col]), float(ref[col]), rel_tol=RTOL, abs_tol=0.0):
                return f"{col} = {row[col]}, expected {ref[col]} within {RTOL}"
    return None


def _read_digits(text: str) -> tuple[tuple[int, ...], np.ndarray]:
    lines = text.splitlines()
    header = tuple(int(v) for v in lines[0].split())
    base, _m, s, precision, count = header
    if base > 10:
        raise ValueError("the read check handles bases up to 10")
    body = "".join(ln.replace(" ", "") for ln in lines[1:] if ln and not ln.startswith("#"))
    digits = np.frombuffer(body.encode("ascii"), dtype=np.uint8) - ord("0")
    return header, digits.reshape(count, s, precision)


def check(job, rc: int, out: Path, result, ref, inputs: dict[str, str]) -> str | None:
    """Why the job's output is wrong, or None when it passes."""
    if rc != 0:
        return f"exit code {rc}"
    if job.check == "read":
        (base, _m, s, precision, count), digits = _read_digits(out.read_text(encoding="ascii"))
        if (result.base, result.s, result.precision, len(result)) != (base, s, precision, count):
            return "shape of the point set differs from the file header"
        if not np.array_equal(result.digit_array(), digits):
            return "digits read differ from the file"
        return None
    if ref is None:
        return f"no reference for {job.key!r}"
    text = out.read_text(encoding="ascii")
    if job.check == "pointfile":
        digest = pointfile_digest(text)
        return None if digest == ref else f"point file sha256 {digest[:12]}, expected {ref[:12]}"
    if job.check == "verify":
        try:
            text = normalise_verify(text, inputs)
        except ValueError as exc:
            return str(exc)
        return None if text == ref else "verify CSV differs from the reference"
    if job.check == "discrepancy":
        return _compare_table(text, ref, ("N", "s", "q", "S_N"), ("value", "roth_ratio"))
    if job.check == "scaling":
        return _compare_table(
            text, ref, ("family", "params", "N", "s"), ("value", "n_times_value", "ratio")
        )
    raise ValueError(f"unknown check {job.check!r}")
