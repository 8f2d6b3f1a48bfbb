"""Command-line front end.

Subcommands (COMMANDS): construct, verify, discrepancy, scaling, selftest;
each takes only the flags it reads.  Flag values can also come from a
JSON config file (--config), parsed as flags placed before explicit ones,
which win.  Exit codes: 0 success, 1 parameter/precondition error, 2
capacity refusal, 3 verification or consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import nets
from .constructions import (
    cs_matrices,
    davenport_symmetrized,
    dp_finite_pointset,
    dp_net_matrices,
    dp_sequence,
    faure_matrices,
    niederreiter_net_matrices,
    niederreiter_t_bound,
    van_der_corput_matrices,
)
from .discrepancy import CSV_HEADER, l2_exact, lq_estimate, roth_sequence_ratio
from .errors import CapacityError, ConsistencyError, LowdiscError, ParameterError
from .nets import (
    char_property_deviation,
    dual_space,
    generate_net_points,
    geometric_net_check,
    geometric_t_value,
    min_dependent_support,
)
from .pointfile import read_point_file, write_point_file
from .weights import order_alpha_profile, t_alpha


@dataclass(frozen=True)
class Family:
    """One construction family: every decision the subcommands make by family."""

    build: Callable  # the constructor, called with the values of `flags`
    flags: tuple[str, ...]  # its arguments in order; the size is "m" (a b^m-point net) or "N"
    ratio: Callable[[int, int, float, int], float]  # (N, s, value, size) -> `scaling` ratio column
    t: Callable[..., int] | None = None  # a net's guaranteed t from `build`'s arguments; None: no net
    dual_check: str | None = None  # the dual-weight check `verify all` adds
    sequence: bool = False  # its point sets are the prefixes of one sequence

    @property
    def size(self) -> str:
        return "m" if "m" in self.flags else "N"


def _net_ratio(n: int, s: int, value: float, m: int) -> float:
    """N * value over a b^m-point net's order m^((s-1)/2)."""
    return n * value / float(m) ** ((s - 1) / 2.0)


def _zero_t(*args) -> int:
    return 0


# The constructors are called through this module's names, so that a wrapper
# installed on those names (a tracer) sees every call.
FAMILIES: dict[str, Family] = {
    "van-der-corput": Family(lambda b, m: van_der_corput_matrices(b, m), ("b", "m"), _net_ratio, _zero_t),
    "faure": Family(lambda b, m, s: faure_matrices(b, m, s), ("b", "m", "s"), _net_ratio, _zero_t, "hamming"),
    "chen-skriganov": Family(lambda b, alpha, m, s: cs_matrices(b, alpha, m, s), ("b", "alpha", "m", "s"),
                             _net_ratio, _zero_t, "hamming"),
    "niederreiter": Family(lambda s, m: niederreiter_net_matrices(s, m), ("s", "m"), _net_ratio,
                           lambda s, m: min(niederreiter_t_bound(s), m)),
    # the quality of the underlying sequence, folded through interlacing
    "dp-net": Family(lambda alpha, m, s: dp_net_matrices(alpha, m, s), ("alpha", "m", "s"), _net_ratio,
                     lambda alpha, m, s: min(t_alpha(alpha, niederreiter_t_bound(alpha * s), s), m),
                     "order"),
    "dp-finite": Family(lambda N, s: dp_finite_pointset(N, s), ("N", "s"),
                        lambda n, s, value, N: n * value / math.log(n) ** ((s - 1) / 2.0)),
    "dp-sequence": Family(lambda s, N: dp_sequence(s, N), ("s", "N"),
                          lambda n, s, value, N: roth_sequence_ratio(n, s, value), sequence=True),
    "davenport": Family(lambda M: davenport_symmetrized(M), ("N",),
                        lambda n, s, value, M: n * value / math.sqrt(math.log(n))),
}
MATRIX_FAMILIES = tuple(name for name, row in FAMILIES.items() if row.t is not None)
SIZE_FLAGS = ("b", "m", "s", "alpha", "N")  # the flags a family's row may list
CHECKS = ("t-value", "geometric", "mu1", "hamming", "order", "char", "all")


def _checks(check: str | None, row: Family) -> list[str]:
    """The checks `verify CHECK` runs on the family: `all` adds only its guaranteed dual-weight check."""
    if check == "all":
        return [c for c in CHECKS[:-1] if c not in ("hamming", "order") or c == row.dual_check]
    return [check]


def _parse_grid(text: str | None, flag: str) -> list[int]:
    """Grid syntax: '7', '4:12' (inclusive), or '2,4,8'; never empty."""
    if text is None:
        raise ParameterError(f"--{flag} is required here")
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            grid = list(range(int(lo), int(hi) + 1))
        else:
            grid = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"--{flag}: bad grid value {text!r}") from exc
    if not grid:
        raise ParameterError(f"--{flag}: empty grid {text!r}")
    return grid


def _single(text: str | None, flag: str) -> int:
    grid = _parse_grid(text, flag)
    if len(grid) != 1:
        raise ParameterError(f"--{flag} must be a single value here, got {text!r}")
    return grid[0]


def _row(cfg: argparse.Namespace) -> Family:
    """The family's row; refuses a size flag outside it, but --alpha where verify's hamming check reads it."""
    if cfg.family is None:
        raise ParameterError(f"{cfg.command} needs --family")
    row = FAMILIES[cfg.family]
    floor = "hamming" in _checks(getattr(cfg, "check", None), row)
    for flag in SIZE_FLAGS:
        if flag not in row.flags and getattr(cfg, flag, None) is not None and not (floor and flag == "alpha"):
            raise ParameterError(f"family {cfg.family!r} does not take --{flag}")
    return row


def _family(cfg: argparse.Namespace, size: int | None = None) -> tuple[Family, dict]:
    """The family's row and its constructor's arguments by flag; `size`, when given, replaces the
    size flag's value."""
    row = _row(cfg)
    for flag in row.flags:
        if flag != row.size and getattr(cfg, flag) is None:
            raise ParameterError(f"family {cfg.family!r} needs --{flag}")
    if size is None:
        size = _single(getattr(cfg, row.size), row.size)
    return row, {flag: size if flag == row.size else getattr(cfg, flag) for flag in row.flags}


def _build(cfg: argparse.Namespace, row: Family, args: dict, points: bool = True):
    """(matrices, points) of one instance; a point family has no matrices (None).  A net's b^m points
    are checked from `args` (b = 2, s = alpha = 1 where it has none) before its matrices are built,
    and generated only when `points` (else None); where m x m int64 matrices exceed the limit, the
    constructor refuses at once."""
    if row.t is None:
        return None, row.build(*args.values())
    m = args["m"]
    if points and m >= 1 and 8 * m * m <= nets.MAX_DIGIT_BYTES:  # so b^m is never computed for a huge m
        nets.check_capacity(args.get("b", 2) ** m, args.get("s", 1), args.get("alpha", 1) * m)
    gm = row.build(*args.values())
    return gm, generate_net_points(gm, provenance={"family": cfg.family, **args}) if points else None


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_construct(cfg: argparse.Namespace) -> int:
    gm, ps = _build(cfg, *_family(cfg))
    if gm is not None:
        for j, mat in enumerate(gm.array.tolist(), start=1):
            print(f"C{j} = {mat}", file=sys.stderr)
    sys.stdout.flush()  # text written so far goes before the point file's bytes
    write_point_file(ps, cfg.out or sys.stdout.buffer)
    if cfg.out:
        print(f"wrote {len(ps)} points to {cfg.out}", file=sys.stderr)
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    if cfg.path is not None:
        if cfg.check not in ("geometric", "all"):
            raise ParameterError("point-file input supports the geometric check only")
        given = [flag for flag in ("family", *SIZE_FLAGS) if getattr(cfg, flag, None) is not None]
        if given:
            raise ParameterError(f"point-file input does not take --{given[0]}")
        ps = read_point_file(cfg.path)
        t_geo = geometric_t_value(ps)
        bound = (ps.provenance or {}).get("t_bound")
        if bound is not None and (type(bound) is not int or bound < 0):
            raise ParameterError(f"provenance t_bound {bound!r} is not a non-negative int")
        ok = True if bound is None else t_geo <= bound
        expected = "net-property" if bound is None else f"<={bound}"
        _emit("check,family,params,value,expected,pass\n"
              f"geometric,file,{cfg.path},{t_geo},{expected},{str(ok).lower()}\n", cfg.out)
        return 0 if ok else 3

    if cfg.family is not None and cfg.family not in MATRIX_FAMILIES:  # before its flags are read
        raise ParameterError(f"family {cfg.family!r} has no single generating-matrix set; "
                             f"matrix families are {MATRIX_FAMILIES}")
    row, args = _family(cfg)
    selected = _checks(cfg.check, row)
    gm, ps = _build(cfg, row, args, points=bool({"geometric", "char"} & set(selected)))
    rows = ["check,family,params,value,expected,pass"]
    params = f"b={gm.base};m={gm.cols};s={gm.s};alpha={cfg.alpha or ''}"
    alpha = cfg.alpha or 1
    failed = False

    def add(name: str, value, expected, ok: bool, found: tuple | None = None):
        """One CSV row; a failed check prints its witness dual element, if any, and its support."""
        nonlocal failed
        failed |= not ok
        if not ok and found is not None:
            weight, witness = found  # witness: the (s, p) digit array of (k_1, ..., k_s)
            ks = tuple(sum(d * gm.base**i for i, d in enumerate(k)) for k in witness.tolist())
            support = "; ".join(f"C{j} rows {np.flatnonzero(k).tolist()}"
                                for j, k in enumerate(witness, start=1) if k.any())
            print(f"{name} witness: dual element {ks} of weight {weight}, support {support}", file=sys.stderr)
        rows.append(f"{name},{cfg.family},{params},{value},{expected},{str(ok).lower()}")

    if {"t-value", "geometric", "mu1"} & set(selected):
        # one nrt search gives both the t-value and the mu1 row; --cap bounds it only for mu1
        nrt = min_dependent_support(gm, "nrt", cap=cfg.cap if "mu1" in selected else None)
        t_val = 0 if nrt is None else gm.cols + 1 - nrt[0]
    for sel in selected:
        if sel == "t-value":
            bound = row.t(*args.values())
            add("t-value", t_val, f"<={bound}", t_val <= bound)
        elif sel == "geometric":
            add("geometric", t_val, "net-property", geometric_net_check(ps, t_val))
        elif sel == "mu1":
            want = gm.cols - t_val + 1
            value = "inf" if nrt is None else nrt[0]
            add("mu1", value, want, nrt is None or nrt[0] == want, nrt)
        elif sel == "hamming":
            found = min_dependent_support(gm, "hamming", cap=cfg.cap)
            value = "inf" if found is None else found[0]
            add("hamming", value, f">={alpha + 1}", found is None or found[0] > alpha, found)
        elif sel == "order":
            if row.dual_check != "order":
                order_families = [name for name, r in FAMILIES.items() if r.dual_check == "order"]
                raise ParameterError(f"the order check applies to --family {' or '.join(order_families)}")
            found = order_alpha_profile(gm, alpha, niederreiter_t_bound(alpha * gm.s), cfg.cap)
            add("order", str(found is None).lower(), "true", found is None, found)
        else:  # char
            worst = char_property_deviation(ps, dual_space(gm, None), 64, 20, cfg.seed)  # reads 64: no cap
            add("char", f"{worst:.3e}", "<=1e-9", worst <= 1e-9)
    _emit("\n".join(rows) + "\n", cfg.out)
    return 3 if failed else 0


def cmd_discrepancy(cfg: argparse.Namespace) -> int:
    ps = read_point_file(cfg.path)
    prov = ps.provenance or {}
    family = str(prov.get("family", ""))
    params = ";".join(f"{k}={v}" for k, v in sorted(prov.items()) if k != "family")
    rows = [CSV_HEADER, l2_exact(ps).csv_row(family, params)]
    if cfg.q != 2.0:
        rows.append(lq_estimate(ps, cfg.q, cfg.samples, cfg.seed).csv_row(family, params))
    _emit("\n".join(rows) + "\n", cfg.out)
    return 0


def cmd_scaling(cfg: argparse.Namespace) -> int:
    family = cfg.family
    row = _row(cfg)  # before the grid: a stray flag exits 1, not as each row's error
    rows = ["family,params,N,s,value,n_times_value,ratio"]
    axis = row.size
    grid = _parse_grid(getattr(cfg, axis), axis)
    sequence, failed = None, {}
    if row.sequence:  # one build, at the largest size that builds; the rows are its prefixes
        for v in sorted(set(grid), reverse=True):
            try:
                sequence = _build(cfg, *_family(cfg, v))[1]
                break
            except LowdiscError as exc:
                failed[v] = exc  # reported on that size's own row
    for v in grid:
        try:
            if v in failed:
                raise failed[v]
            ps = sequence.prefix(v) if row.sequence else _build(cfg, *_family(cfg, v))[1]
            rep = l2_exact(ps)
            n, s = len(ps), ps.s
            ratio = row.ratio(n, s, rep.value, v)
            rows.append(f"{family},{axis}={v},{n},{s},{rep.value!r},{n * rep.value!r},{ratio!r}")
        except LowdiscError as exc:
            rows.append(f"{family},{axis}={v},,,error: {exc},,")
    _emit("\n".join(rows) + "\n", cfg.out)
    return 0


def cmd_selftest(cfg: argparse.Namespace) -> int:
    from . import selftest  # selftest reads FAMILIES, so it imports this module
    return 0 if all(ok for _, ok, _ in selftest.run_all()) else 3


# ----------------------------------------------------------------------
# Argument parsing and dispatch
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map usage errors onto exit code 1
        raise ParameterError(message)


def _at_least(minimum: int):
    """A flag type: an int of at least `minimum`."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports a ValueError as "invalid int value: 'x'"
    return parse


def _none_or(parse):
    """The flag type `parse`, reading 'none' (a config file's null) as None."""
    return functools.wraps(parse)(lambda text: None if text == "none" else parse(text))


# Every flag a subcommand may take, after --config; a command's row lists those it reads,
# and a config file may set exactly those.
FLAGS = {
    "family": dict(choices=tuple(FAMILIES)),
    "b": dict(type=int, help="prime base"),
    "m": dict(help="digit count; grids allow a:b or comma lists"),
    "s": dict(type=int, help="dimension"),
    "alpha": dict(type=_at_least(1), help="interlacing factor"),
    "N": dict(help="point count (davenport: the parameter M); grids allowed"),
    "q": dict(type=float, default=2.0, help="discrepancy norm exponent (default 2)"),
    "samples": dict(type=int, default=4096, help="Monte Carlo samples (default 4096)"),
    "seed": dict(type=_none_or(_at_least(0)), default=0, help="random seed (default 0)"),
    "cap": dict(type=_none_or(_at_least(0)), default=nets.WORK_CAP, help="work cap (default 2^21): "
                "candidate supports rank-checked by the mu1, hamming and order checks, up to the "
                "weight searched"),
    "out": dict(help="output path (default stdout)"),
}
NONE_FLAGS = ("seed", "cap")  # the flags whose value 'none' stands for a config file's null


@dataclass(frozen=True)
class Command:
    """One subcommand: every decision the parser and the dispatch make by command."""

    run: Callable[[argparse.Namespace], int]  # the handler, called with the parsed flags
    help: str
    flags: tuple[str, ...] = ()  # the FLAGS it reads, in FLAGS order; with none, no --config either
    positionals: tuple[tuple[str, dict], ...] = ()  # (name, add_argument keywords)


_BUILD_FLAGS = ("family", *SIZE_FLAGS)
# The handlers are called through this module's names, as the FAMILIES constructors are.
COMMANDS: dict[str, Command] = {
    "construct": Command(lambda args: cmd_construct(args), "build a point set and write the point file",
                         (*_BUILD_FLAGS, "out")),
    "verify": Command(lambda args: cmd_verify(args), "run structural checks on a construction",
                      # matrix families only, whose size is m: no --N
                      (*(flag for flag in _BUILD_FLAGS if flag != "N"), "seed", "cap", "out"),
                      (("check", dict(choices=CHECKS)),
                       ("path", dict(nargs="?", help="point file (geometric check only)")))),
    "discrepancy": Command(lambda args: cmd_discrepancy(args), "discrepancy report for a point file",
                           ("q", "samples", "seed", "out"), (("path", dict(help="point file to read")),)),
    "scaling": Command(lambda args: cmd_scaling(args), "discrepancy across a grid of sizes",
                       (*_BUILD_FLAGS, "out")),
    "selftest": Command(lambda args: cmd_selftest(args), "run the full acceptance suite"),
}


def _config_flags(path: str, flags: tuple[str, ...]) -> list[str]:
    """The config file's values as --key=value flags, keys among `flags`; a null is 'none' for
    the NONE_FLAGS and leaves any other flag at its default."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ParameterError(f"config file {path} is not UTF-8 text") from exc
    except RecursionError as exc:
        raise ParameterError(f"config file {path} nests its JSON too deeply") from exc
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # int() refuses integers above its digit limit
        raise ParameterError(f"config file {path} holds an integer too long to read") from exc
    if not isinstance(data, dict):
        raise ParameterError("config file must hold a JSON object")
    unknown = set(data) - set(flags)
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    return [f"--{key}={'none' if value is None else value}" for key, value in data.items()
            if value is not None or key in NONE_FLAGS]


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="lowdisc", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, allow_abbrev=False)  # exact flag names only
        for positional, kwargs in command.positionals:
            p.add_argument(positional, **kwargs)
        if command.flags:
            p.add_argument("--config", help="JSON file with flag values (flags win)")
        for flag in command.flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv; a --config file's flags go right after the command, before argv's own."""
    parser = make_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        args = parser.parse_args(argv[:1] + _config_flags(args.config, COMMANDS[args.command].flags) + argv[1:])
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        return COMMANDS[args.command].run(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 3
    except (LowdiscError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
