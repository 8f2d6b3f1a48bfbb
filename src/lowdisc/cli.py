"""Command-line front end.

Subcommands: construct, verify, discrepancy, scaling, selftest.  Flag
values can also come from a JSON config file (--config); explicit flags
win over the file.  Exit codes: 0 success, 1 parameter/precondition
error, 2 capacity refusal, 3 verification or consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import selftest as selftest_mod
from .constructions import (
    cs_matrices,
    davenport_symmetrized,
    dp_finite_pointset,
    dp_net_matrices,
    dp_sequence,
    faure_matrices,
    niederreiter_net_matrices,
    niederreiter_t_bound,
)
from .discrepancy import CSV_HEADER, l2_exact, lq_estimate, scaling_ratio
from .errors import CapacityError, ConsistencyError, LowdiscError, ParameterError
from .nets import (
    GeneratingMatrixSet,
    char_property_sums,
    dual_space,
    generate_net_points,
    geometric_net_check,
    geometric_t_value,
    index_digits,
)
from .pointfile import dumps_point_file, read_point_file, write_point_file
from .weights import WeightProfile, min_weight_by_rank, order_alpha_profile, t_alpha

MATRIX_FAMILIES = ("van-der-corput", "faure", "chen-skriganov", "niederreiter", "dp-net")
POINT_FAMILIES = MATRIX_FAMILIES + ("dp-finite", "dp-sequence", "davenport")
CHECKS = ("t-value", "geometric", "mu1", "hamming", "order", "char", "all")


@dataclass
class RunConfig:
    """Flag values for one command; round-trips through JSON."""

    family: str | None = None
    b: int | None = None
    m: str | None = None
    s: int | None = None
    alpha: int | None = None
    N: str | None = None
    q: float = 2.0
    samples: int = 4096
    seed: int = 0
    cap: int = 1 << 21
    out: str | None = None

    @classmethod
    def field_names(cls) -> set[str]:
        return {f.name for f in fields(cls)}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - cls.field_names()
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge_flags(self, args: argparse.Namespace) -> "RunConfig":
        """Explicit command-line flags override config-file values."""
        for name in self.field_names():
            value = getattr(args, name, None)
            if value is not None:
                setattr(self, name, value)
        return self


def _load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ParameterError("config file must hold a JSON object")
        cfg = RunConfig.from_dict(data)
    return cfg.merge_flags(args)


def _parse_grid(text: str | None, flag: str) -> list[int]:
    """Grid syntax: '7', '4:12' (inclusive), or '2,4,8'."""
    if text is None:
        raise ParameterError(f"--{flag} is required here")
    text = str(text)  # config files may carry plain integers
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return list(range(int(lo), int(hi) + 1))
        if "," in text:
            return [int(v) for v in str(text).split(",")]
        return [int(text)]
    except ValueError as exc:
        raise ParameterError(f"--{flag}: bad grid value {text!r}") from exc


def _single(text: str | None, flag: str) -> int:
    grid = _parse_grid(text, flag)
    if len(grid) != 1:
        raise ParameterError(f"--{flag} must be a single value here, got {text!r}")
    return grid[0]


def _need(cfg: RunConfig, *names: str):
    values = []
    for name in names:
        value = getattr(cfg, name)
        if value is None:
            raise ParameterError(f"family {cfg.family!r} needs --{name}")
        values.append(value)
    return values


def build_matrices(cfg: RunConfig) -> GeneratingMatrixSet:
    family = cfg.family
    if family == "van-der-corput":
        b, = _need(cfg, "b")
        m = _single(cfg.m, "m")
        return GeneratingMatrixSet(b, np.eye(m, dtype=np.int64)[None])
    if family == "faure":
        b, s = _need(cfg, "b", "s")
        return faure_matrices(b, _single(cfg.m, "m"), s)
    if family == "chen-skriganov":
        b, alpha, s = _need(cfg, "b", "alpha", "s")
        return cs_matrices(b, alpha, _single(cfg.m, "m"), s)
    if family == "niederreiter":
        s, = _need(cfg, "s")
        return niederreiter_net_matrices(s, _single(cfg.m, "m"))
    if family == "dp-net":
        alpha, s = _need(cfg, "alpha", "s")
        return dp_net_matrices(alpha, _single(cfg.m, "m"), s)
    raise ParameterError(
        f"family {family!r} has no single generating-matrix set; "
        f"matrix families are {MATRIX_FAMILIES}"
    )


def _provenance(cfg: RunConfig, **extra) -> dict:
    prov = {"family": cfg.family}
    for key in ("b", "alpha", "s"):
        if getattr(cfg, key) is not None:
            prov[key] = getattr(cfg, key)
    prov.update(extra)
    return prov


def build_points(cfg: RunConfig, gm: GeneratingMatrixSet | None = None):
    """The family's point set; matrix families reuse `gm` when given."""
    family = cfg.family
    if family in MATRIX_FAMILIES:
        if gm is None:
            gm = build_matrices(cfg)
        return generate_net_points(gm, provenance=_provenance(cfg, m=_single(cfg.m, "m")))
    if family == "dp-finite":
        s, = _need(cfg, "s")
        return dp_finite_pointset(_single(cfg.N, "N"), s)
    if family == "dp-sequence":
        s, = _need(cfg, "s")
        return dp_sequence(s, _single(cfg.N, "N"))
    if family == "davenport":
        return davenport_symmetrized(_single(cfg.N, "N"))
    raise ParameterError(f"unknown family {family!r}; choose one of {POINT_FAMILIES}")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_construct(cfg: RunConfig) -> int:
    gm = build_matrices(cfg) if cfg.family in MATRIX_FAMILIES else None
    ps = build_points(cfg, gm)
    if gm is not None:
        for j, mat in enumerate(gm.array.tolist(), start=1):
            print(f"C{j} = {mat}", file=sys.stderr)
    if cfg.out:
        write_point_file(ps, cfg.out)
        print(f"wrote {len(ps)} points to {cfg.out}", file=sys.stderr)
    else:
        sys.stdout.write(dumps_point_file(ps))
    return 0


def _family_t_bound(cfg: RunConfig, gm: GeneratingMatrixSet) -> int:
    if cfg.family in ("faure", "chen-skriganov", "van-der-corput"):
        return 0
    if cfg.family == "niederreiter":
        return min(niederreiter_t_bound(gm.s), gm.cols)
    if cfg.family == "dp-net":
        # quality of the underlying sequence, folded through interlacing
        alpha = cfg.alpha or 1
        return min(t_alpha(alpha, _dp_base_t(alpha, gm), gm.s), gm.cols)
    return gm.cols


def _dp_base_t(alpha: int, gm: GeneratingMatrixSet) -> int:
    """t of the alpha s-dimensional Niederreiter net that a dp-net interlaces: at most its m."""
    return min(niederreiter_t_bound(alpha * gm.s), gm.cols)


def _report_witness(name: str, prof: WeightProfile, gm: GeneratingMatrixSet) -> None:
    """Print a failed check's witness dual element and its support to stderr."""
    if prof.witness is None:
        return
    support = []
    for j, digits in enumerate(index_digits(prof.witness, gm.base, gm.rows), start=1):
        rows = np.flatnonzero(digits).tolist()
        if rows:
            support.append(f"C{j} rows {rows}")
    print(
        f"{name} witness: dual element {prof.witness} of weight {prof.minimum}, "
        f"support {'; '.join(support)}",
        file=sys.stderr,
    )


def cmd_verify(check: str, cfg: RunConfig, path: str | None = None) -> int:
    if path is not None:
        if check not in ("geometric", "all"):
            raise ParameterError("point-file input supports the geometric check only")
        ps = read_point_file(path)
        t_geo = geometric_t_value(ps)
        bound = (ps.provenance or {}).get("t_bound")
        ok = True if bound is None else t_geo <= int(bound)
        expected = "net-property" if bound is None else f"<={bound}"
        _emit(
            "check,family,params,value,expected,pass\n"
            f"geometric,file,{path},{t_geo},{expected},{str(ok).lower()}\n",
            cfg.out,
        )
        return 0 if ok else 3

    gm = build_matrices(cfg)
    rows = ["check,family,params,value,expected,pass"]
    params = f"b={gm.base};m={gm.cols};s={gm.s};alpha={cfg.alpha or ''}"
    failed = False

    def add(name: str, value, expected, ok: bool, prof: WeightProfile | None = None):
        nonlocal failed
        failed |= not ok
        if not ok and prof is not None:
            _report_witness(name, prof, gm)
        rows.append(f"{name},{cfg.family},{params},{value},{expected},{str(ok).lower()}")

    selected = CHECKS[:-1] if check == "all" else (check,)
    if {"t-value", "geometric", "mu1"} & set(selected):
        # one nrt search gives both the t-value and the mu1 row; --cap bounds it only for mu1
        nrt = min_weight_by_rank(gm, "nrt", cap=cfg.cap if "mu1" in selected else None)
        t_val = 0 if nrt.minimum is None else gm.cols + 1 - nrt.minimum
    ps = generate_net_points(gm) if {"geometric", "char"} & set(selected) else None
    for sel in selected:
        if sel == "t-value":
            bound = _family_t_bound(cfg, gm)
            add("t-value", t_val, f"<={bound}", t_val <= bound)
        elif sel == "geometric":
            add("geometric", t_val, "net-property", geometric_net_check(ps, t_val))
        elif sel == "mu1":
            want = gm.cols - t_val + 1
            value = "inf" if nrt.minimum is None else nrt.minimum
            add("mu1", value, want, nrt.minimum is None or nrt.minimum == want, nrt)
        elif sel == "hamming":
            if check == "all" and cfg.family not in ("chen-skriganov", "faure"):
                continue  # the dual Hamming floor is this family's guarantee
            alpha = cfg.alpha or 1
            prof = min_weight_by_rank(gm, "hamming", cap=cfg.cap)
            value = "inf" if prof.minimum is None else prof.minimum
            add("hamming", value, f">={alpha + 1}", prof.minimum is None or prof.minimum > alpha, prof)
        elif sel == "order":
            if cfg.family != "dp-net":
                if check != "all":
                    raise ParameterError("the order check applies to --family dp-net")
                continue
            alpha = cfg.alpha or 1
            prof = order_alpha_profile(gm, alpha, _dp_base_t(alpha, gm), cfg.cap)
            ok = prof.minimum is None
            add("order", str(ok).lower(), "true", ok, prof)
        elif sel == "char":
            limit = gm.base**gm.rows
            if limit > 2**63:
                raise CapacityError(f"the char check draws Walsh indices below {gm.base}^{gm.rows}, "
                                    "beyond the int64 range")
            dual = dual_space(gm, None)  # reads at most 64 elements and tests 20
            indices = dual.elements(limit=64)
            in_dual = len(indices)
            rng = np.random.default_rng(cfg.seed)
            while len(indices) < in_dual + 20:
                k = tuple(int(v) for v in rng.integers(0, limit, size=gm.s))
                if not dual.contains(k):
                    indices.append(k)
            sums = [complex(v) for v in char_property_sums(ps, indices)]
            worst = max([0.0] + [abs(v - 1.0) for v in sums[:in_dual]] + [abs(v) for v in sums[in_dual:]])
            add("char", f"{worst:.3e}", "<=1e-9", worst <= 1e-9)
        else:
            raise ParameterError(f"unknown check {sel!r}; choose one of {CHECKS}")
    _emit("\n".join(rows) + "\n", cfg.out)
    return 3 if failed else 0


def cmd_discrepancy(path: str, cfg: RunConfig) -> int:
    ps = read_point_file(path)
    prov = ps.provenance or {}
    family = str(prov.get("family", ""))
    params = ";".join(f"{k}={v}" for k, v in sorted(prov.items()) if k != "family")
    rows = [CSV_HEADER]
    rows.append(l2_exact(ps).csv_row(family, params))
    if cfg.q != 2.0:
        rows.append(lq_estimate(ps, cfg.q, cfg.samples, cfg.seed).csv_row(family, params))
    _emit("\n".join(rows) + "\n", cfg.out)
    return 0


def cmd_scaling(cfg: RunConfig) -> int:
    family = cfg.family
    if family is None:
        raise ParameterError("scaling needs --family")
    rows = ["family,params,N,s,value,n_times_value,ratio"]
    if family in MATRIX_FAMILIES:
        grid = [("m", v) for v in _parse_grid(cfg.m, "m")]
    else:
        grid = [("N", v) for v in _parse_grid(cfg.N, "N")]
    full_sequence = None
    for axis, v in grid:
        sub = RunConfig.from_dict(cfg.to_dict())
        setattr(sub, axis, str(v))
        try:
            if family == "dp-sequence":
                # one sequence, growing prefixes
                s, = _need(cfg, "s")
                n_max = max(val for _, val in grid)
                if full_sequence is None:
                    full_sequence = dp_sequence(s, n_max)
                ps = full_sequence.prefix(v)
            else:
                ps = build_points(sub)
            rep = l2_exact(ps)
            n, s = len(ps), ps.s
            m = v if axis == "m" else None
            ratio = scaling_ratio(family, n, s, rep.value, m)
            rows.append(
                f"{family},{axis}={v},{n},{s},{rep.value!r},{n * rep.value!r},{ratio!r}"
            )
        except LowdiscError as exc:
            rows.append(f"{family},{axis}={v},,,error: {exc},,")
    _emit("\n".join(rows) + "\n", cfg.out)
    return 0


def cmd_selftest(cfg: RunConfig) -> int:
    results = selftest_mod.run_all()
    return 0 if all(ok for _, ok, _ in results) else 3


# ----------------------------------------------------------------------
# Argument parsing and dispatch
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map usage errors onto exit code 1
        raise ParameterError(message)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with flag values (flags win)")
    p.add_argument("--family", choices=POINT_FAMILIES)
    p.add_argument("--b", type=int, help="prime base")
    p.add_argument("--m", help="digit count; grids allow a:b or comma lists")
    p.add_argument("--s", type=int, help="dimension")
    p.add_argument("--alpha", type=int, help="interlacing factor")
    p.add_argument("--N", help="point count (davenport: the parameter M); grids allowed")
    p.add_argument("--q", type=float, help="discrepancy norm exponent (default 2)")
    p.add_argument("--samples", type=int, help="Monte Carlo samples (default 4096)")
    p.add_argument("--seed", type=int, help="random seed (default 0)")
    p.add_argument(
        "--cap",
        type=int,
        help="work cap (default 2^21): candidate supports rank-checked by the mu1, hamming "
        "and order checks, up to the weight searched",
    )
    p.add_argument("--out", help="output path (default stdout)")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="lowdisc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a point set and write the point file")
    _add_common_flags(p)

    p = sub.add_parser("verify", help="run structural checks on a construction")
    p.add_argument("check", choices=CHECKS)
    p.add_argument("path", nargs="?", help="point file (geometric check only)")
    _add_common_flags(p)

    p = sub.add_parser("discrepancy", help="discrepancy report for a point file")
    p.add_argument("path", help="point file to read")
    _add_common_flags(p)

    p = sub.add_parser("scaling", help="discrepancy across a grid of sizes")
    _add_common_flags(p)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    _add_common_flags(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        if args.command == "construct":
            return cmd_construct(cfg)
        if args.command == "verify":
            return cmd_verify(args.check, cfg, args.path)
        if args.command == "discrepancy":
            return cmd_discrepancy(args.path, cfg)
        if args.command == "scaling":
            return cmd_scaling(cfg)
        if args.command == "selftest":
            return cmd_selftest(cfg)
        raise ParameterError(f"unknown command {args.command!r}")
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
