"""Digest the CLI's behaviour on a fixed corpus of commands.

    PYTHONPATH=src python3 scripts/cli_digest.py > digest.txt

Runs each command of `CORPUS` in-process through `lowdisc.cli.main` and
prints one line per command: the exit code, the sha256 of stdout + NUL +
stderr, and the argv.  The corpus covers every family with `construct`,
`verify all`/`t-value`/`order`/`hamming` and a `scaling` grid holding a
bad size, the missing-flag, wrong-family and out-of-range-flag errors,
the char check on the paper's alpha = 5 nets and on a b > 2 net, the
witness lines of two b > 2 nets, the geometric check of a 1200-coordinate
net, a sequence grid whose largest size cannot be built, `scaling` grids
at s = 4 and 5, and the refusal of an oversized net, of an empty grid, of
abbreviated flags and of flags that a command or a family does not read.
Run it on two checkouts (each with its own `src` on PYTHONPATH) and
`diff` the outputs: an empty diff means the commands behave
byte-identically.  An exception escaping `main` prints its type in place
of the exit code.  The corpus runs in a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import sys

from lowdisc.cli import main

# each family's flags for a small instance, with the size flag last
FAMILY_ARGS = {
    "van-der-corput": ("--b", "3", "--m", "3"),
    "faure": ("--b", "3", "--s", "2", "--m", "2"),
    "chen-skriganov": ("--b", "5", "--alpha", "2", "--s", "2", "--m", "1"),
    "niederreiter": ("--s", "3", "--m", "4"),
    "dp-net": ("--alpha", "2", "--s", "2", "--m", "3"),
    "dp-finite": ("--s", "2", "--N", "13"),
    "dp-sequence": ("--s", "2", "--N", "20"),
    "davenport": ("--N", "10"),
}
NETS = ("van-der-corput", "faure", "chen-skriganov", "niederreiter", "dp-net")
# scaling grids with one size that cannot be measured
GRIDS = {
    "dp-finite": "1:4",
    "dp-sequence": "1,2,5",
    "davenport": "0,2,4",
}


def corpus() -> list[tuple[str, ...]]:
    commands = []
    for family, args in FAMILY_ARGS.items():
        fam = ("--family", family)
        commands.append(("construct", *fam, *args))
        if family in NETS:
            for check in ("all", "t-value", "order", "hamming"):
                commands.append(("verify", check, *fam, *args))
        else:
            commands.append(("verify", "t-value", *fam, *args))
        size = args[-2]
        commands.append(("scaling", *fam, *args[:-1], GRIDS.get(family, "0:2")))
        commands.append(("construct", *fam))  # the first missing flag
        if len(args) > 2:
            commands.append(("construct", *fam, *args[:-2]))  # only the size missing
            commands.append(("scaling", *fam, size, args[-1]))  # per-row missing flags
    commands += [
        ("construct",),
        ("verify", "all"),
        ("scaling", "--m", "2"),
        ("verify", "all", "--family", "faure", "--b", "2", "--s", "2", "--m", "2", "--alpha", "2"),
        ("verify", "hamming", "--family", "chen-skriganov", "--b", "5", "--alpha", "2", "--s", "2",
         "--m", "2", "--cap", "10"),
        ("verify", "hamming", "--family", "faure", "--b", "3", "--m", "2", "--s", "2", "--alpha", "-3"),
        ("verify", "hamming", "--family", "faure", "--b", "3", "--m", "2", "--s", "2", "--alpha", "0"),
        ("construct", "--family", "dp-net", "--alpha", "0", "--s", "2", "--m", "2"),
        ("scaling", "--family", "dp-net", "--alpha", "0", "--s", "2", "--m", "2"),
        ("construct", "--family", "chen-skriganov", "--b", "3", "--alpha", "2", "--s", "2", "--m", "1"),
        ("construct", "--family", "mystery"),
        # the paper's interlacing factor 5: 65 index digits per coordinate, beyond int64
        ("verify", "all", "--family", "dp-net", "--alpha", "5", "--s", "2", "--m", "13"),
        ("verify", "char", "--family", "dp-net", "--alpha", "5", "--s", "1", "--m", "13"),
        # b > 2: the char residue depends on the drawn indices
        ("verify", "char", "--family", "faure", "--b", "5", "--m", "2", "--s", "3"),
        # witness lines: (20, 5, 0) in base 5, and (65792, 257) with the digit 256
        ("verify", "hamming", "--family", "faure", "--b", "5", "--m", "2", "--s", "3", "--alpha", "3"),
        ("verify", "hamming", "--family", "faure", "--b", "257", "--m", "2", "--s", "2", "--alpha", "2"),
        # a net of 3^1000 points, refused with exit 2
        ("construct", "--family", "faure", "--b", "3", "--m", "1000", "--s", "2"),
        # a flag outside the command's row: argparse refuses it before any file is opened
        ("construct", "--family", "faure", *FAMILY_ARGS["faure"], "--q", "4"),
        ("verify", "t-value", "--family", "faure", *FAMILY_ARGS["faure"], "--samples", "7"),
        ("discrepancy", "no-such-points.txt", "--family", "faure"),
        ("scaling", "--family", "dp-net", *FAMILY_ARGS["dp-net"], "--q", "4"),
        ("selftest", "--cap", "5"),
        # a size flag outside the family's row, and --alpha where no hamming check reads it
        ("construct", "--family", "van-der-corput", *FAMILY_ARGS["van-der-corput"], "--s", "4"),
        ("scaling", "--family", "davenport", "--N", GRIDS["davenport"], "--s", "2"),
        ("verify", "t-value", "--family", "niederreiter", *FAMILY_ARGS["niederreiter"], "--alpha", "4"),
        ("verify", "geometric", "no-such-points.txt", "--family", "faure"),
        # flags take their exact names only: no prefix of one is accepted
        ("construct", "--fam", "faure", *FAMILY_ARGS["faure"]),
        ("discrepancy", "no-such-points.txt", "--s", "3"),
        ("verify", "mu1", "--family", "faure", *FAMILY_ARGS["faure"], "--c", "5"),
        # a grid with no value
        ("scaling", "--family", "davenport", "--N", "5:2"),
        # a box walk over more coordinates than the recursion limit
        ("verify", "geometric", "--family", "niederreiter", "--s", "1200", "--m", "1"),
        # a sequence grid whose largest size cannot be built: the smaller rows keep their values
        ("scaling", "--family", "dp-sequence", "--s", "2", "--N", "4,8,100000000000"),
        # exact L2 at s = 4 and 5, on the weighted sweep
        ("scaling", "--family", "niederreiter", "--s", "5", "--m", "1:8"),
        ("scaling", "--family", "dp-finite", "--s", "4", "--N", "2,17,40"),
    ]
    return commands


def run(argv: tuple[str, ...]) -> tuple[str, bytes]:
    # stdout has a binary layer, as a real one does: bytes written to `sys.stdout.buffer` are kept
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="", write_through=True), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(list(argv)))
        except Exception as exc:  # a traceback is behaviour too: record its type
            code = type(exc).__name__
    return code, out.buffer.getvalue() + b"\0" + err.getvalue().encode()


def digest() -> str:
    """The printed digest: one line per command of the corpus."""
    lines = []
    for argv in corpus():
        code, captured = run(argv)
        lines.append(f"{code} {hashlib.sha256(captured).hexdigest()} {shlex.join(argv)}\n")
    return "".join(lines)


if __name__ == "__main__":
    sys.stdout.write(digest())
