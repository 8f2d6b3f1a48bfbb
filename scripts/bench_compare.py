"""Compare two checkouts of lowdisc and write a BENCH_*.json record.

    python3 scripts/bench_compare.py --parent DIR --change DIR --out BENCH.json

DIR is the root of a checkout (for example `git archive <commit> | tar -x
-C DIR`).  The ladder is a list of rungs, each run as pairs of fresh
subprocesses, one per checkout, one process at a time; the side that runs
first alternates from pair to pair, starting with the parent.  Each rung
gets `PAIRS` pairs, or the count its `RUNGS` row names.  Two kinds of rung:

- the workloads that the change's BENCHMARK.json lists: one seed-1
  `perfbench/run.py` run of its `run_seconds` per side, from that side's own
  `perfbench/`, whose result line is kept as it is;
- the rows of `RUNGS`: in the child, `measure` (this file's, on both sides,
  as is the `scripts/cli_digest.py` beside it) runs `PREAMBLE` and the row's
  `setup` (untimed), then times its `call` `repeat` times and records the
  best time, `ru_maxrss` before and after the timed calls, and the result:
  the exact squared value of an L2 report, the sha256 of a point set's
  digits, or the value itself (a t, a weight, a verdict, the sha256 of the
  `scripts/cli_digest.py` corpus output).  `records` adds values, each
  from one more call: "peak", its tracemalloc peak, and "reduce_row", its
  `field.reduce_row` calls, a count that does not drift with the load of
  the machine as times do; "file" makes the result the sha256 of the file
  at `path` (see `FILE`) that the call wrote, read in chunks after the
  timed calls.  A `CapacityError` is recorded as the result.

Every run has the PYTHONPATH of its own checkout's `src`.  Before the first
run, every `__pycache__` under both checkouts is removed and both are
compiled anew with `compileall`, so that neither side pays for compiling
its imports while the other reads a cache.  Each rung's summary gives, for
each metric, both sides' medians, the parent's interquartile range and the
pairs the change won (a lower value; ties count for neither), with whether
both sides gave the same results and how many perfbench jobs failed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
PAIRS = 10
SEED = 1
SIDES = ("parent", "change")
UNITS = {"s": "s", "ru_maxrss_kb_before": "kB", "ru_maxrss_kb": "kB", "peak_bytes": "B",
         "reduce_row_calls": "calls"}

PREAMBLE = """
import numpy as np
from lowdisc.constructions import (
    dp_finite_pointset, dp_net, dp_net_matrices, dp_sequence, faure_matrices, niederreiter_net_matrices,
)
from lowdisc.discrepancy import l2_exact, lq_estimate
from lowdisc.nets import (
    PointSet, compute_t_value, generate_net_points, geometric_net_check, geometric_t_value,
    min_dependent_support,
)
from lowdisc.pointfile import dumps_point_file, loads_point_file, read_point_file

def random_points(n, s, p):
    return PointSet.from_digits(np.random.default_rng(0).integers(0, 2, (n, s, p), dtype=np.uint8), 2)
"""
# the set-up of the point-file rungs: `path` is a file in a temporary directory that the child removes
# when it exits, and `to_stdout(argv)` runs the CLI with stdout redirected into that file
FILE = """
import contextlib
import subprocess
import sys
import tempfile
from lowdisc.cli import main

tmp = tempfile.TemporaryDirectory()
path = tmp.name + "/points.txt"
M20 = ["construct", "--family", "dp-net", "--alpha", "3", "--s", "2", "--m", "20"]

def to_stdout(argv):
    with open(path, "w") as out, contextlib.redirect_stdout(out):
        return main(argv)
"""


class Rung(NamedTuple):
    setup: str
    call: str
    repeat: int = 3
    records: tuple[str, ...] = ()
    pairs: int = PAIRS


NET16 = "ps = generate_net_points(dp_net_matrices(3, 16, 2))"
RUNGS = {
    "generate_net_points_dp_net_m16": Rung("gm = dp_net_matrices(3, 16, 2)", "generate_net_points(gm)", 5,
                                           ("peak",)),
    "point_file_round_trip_dp_net_m16": Rung(NET16, "loads_point_file(dumps_point_file(ps))", 5),
    "dp_sequence_s2_65536": Rung("", "dp_sequence(2, 2**16)", 5),
    "dp_finite_pointset_65535_s3": Rung("", "dp_finite_pointset(2**16 - 1, 3)", 5),
    "l2_exact_dp_net_m16": Rung(NET16, "l2_exact(ps)", 3, ("peak",)),
    "l2_exact_dp_finite_8000_s3": Rung("ps = dp_finite_pointset(8000, 3)", "l2_exact(ps)"),
    "l2_exact_dp_finite_2004_s3": Rung("ps = dp_finite_pointset(2004, 3)", "l2_exact(ps)"),
    "l2_exact_dp_sequence_s2_2047": Rung("ps = dp_sequence(2, 2047)", "l2_exact(ps)"),
    **{f"l2_exact_random_b2_1024_s{s}": Rung(f"ps = random_points(1024, {s}, 32)", "l2_exact(ps)")
       for s in (3, 4, 5)},
    **{f"l2_exact_random_b2_4096_s3_p{p}": Rung(f"ps = random_points(4096, 3, {p})", "l2_exact(ps)")
       for p in (32, 60)},
    **{f"l2_exact_random_b2_4096_s{s}": Rung(f"ps = random_points(4096, {s}, 32)", "l2_exact(ps)", 3, ("peak",))
       for s in (4, 5)},
    # the s >= 4 hot spot: 3 to 12 s a call, so fewer pairs
    **{f"l2_exact_random_b2_16384_s{s}": Rung(f"ps = random_points(16384, {s}, 32)", "l2_exact(ps)", 1, pairs=3)
       for s in (4, 5)},
    **{f"compute_t_value_{name}": Rung(f"gm = {net}", "compute_t_value(gm)", 3, ("reduce_row",))
       for name, net in {"faure_b13_m5_s13": "faure_matrices(13, 5, 13)",
                         "faure_b13_m7_s13": "faure_matrices(13, 7, 13)",
                         "faure_b17_m6_s17": "faure_matrices(17, 6, 17)",
                         "niederreiter_s6_m14": "niederreiter_net_matrices(6, 14)"}.items()},
    "min_dependent_support_mu3_dp_net_a3_m16_s2": Rung("gm = dp_net_matrices(3, 16, 2)",
                                                       "min_dependent_support(gm, 'mu', 3)[0]", 3,
                                                       ("reduce_row",)),
    # 11 440 box shapes: the part of `verify all` on this net that the box walk serves
    "geometric_net_check_niederreiter_s8_m16_t7": Rung(
        "ps = generate_net_points(niederreiter_net_matrices(8, 16))", "geometric_net_check(ps, 7)"),
    "geometric_t_value_dp_net_m18": Rung("ps = generate_net_points(dp_net_matrices(3, 18, 2))",
                                         "geometric_t_value(ps)", 3, ("peak",)),
    "l2_exact_dp_net_m18": Rung("ps = dp_net(3, 18, 2)", "l2_exact(ps)", 1),
    "l2_exact_dp_net_m20": Rung("ps = dp_net(3, 20, 2)", "l2_exact(ps)", 1),
    # about 50 s a call, so fewer pairs
    "l2_exact_dp_net_m20_s3": Rung("ps = dp_net(3, 20, 3)", "l2_exact(ps)", 1, pairs=3),
    "geometric_t_value_dp_net_m20": Rung("ps = dp_net(3, 20, 2)", "geometric_t_value(ps)", 1),
    # the point file of a 126 MB digit array, its bytes as the result
    "construct_dp_net_m20_out": Rung(FILE, "main(M20 + ['--out', path])", 1, ("file",)),
    "construct_dp_net_m20_stdout": Rung(FILE, "to_stdout(M20)", 1, ("file",)),
    # the file is written by another process, so that `ru_maxrss` is the read's own
    "read_point_file_dp_net_m20": Rung(FILE + "subprocess.run([sys.executable, '-m', 'lowdisc', *M20, '--out', path],"
                                              " check=True, capture_output=True)", "read_point_file(path)", 1),
    # 16 384 anchors at s = 2: the per-draw cost of the generator; the Lq value is the result
    "lq_estimate_q4_16384_dp_net_m14": Rung("ps = dp_net(3, 14, 2)", "lq_estimate(ps, 4.0, 16384, seed=1).value", 5),
    # a whole CLI process, imports included; the sha256 of its stdout is the result
    "verify_all_faure_b7_m3_s3_process": Rung(
        "import hashlib\nimport subprocess\nimport sys\n"
        "VERIFY = [sys.executable, '-m', 'lowdisc', 'verify', 'all', '--family', 'faure', '--b', '7', '--m', '3',"
        " '--s', '3']",
        "hashlib.sha256(subprocess.run(VERIFY, check=True, capture_output=True).stdout).hexdigest()", 5),
    # byte-identical CLI behaviour on both sides shows as the same result
    "cli_digest": Rung("import hashlib\nfrom cli_digest import digest",
                       "hashlib.sha256(digest().encode()).hexdigest()", 1),
}


def measure(name: str) -> None:
    """Run rung `name` of `RUNGS` in this process and print its result line."""
    from lowdisc import field, nets
    from lowdisc.errors import CapacityError

    rung = RUNGS[name]
    scope: dict = {}
    exec(PREAMBLE + rung.setup, scope)
    call = eval(f"lambda: {rung.call}", scope)
    values = {"ru_maxrss_kb_before": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    times = []
    for _ in range(rung.repeat):
        start = time.perf_counter()
        try:
            result = call()
        except CapacityError as exc:
            result = f"refused: {exc}"
        times.append(time.perf_counter() - start)
    values.update(s=min(times), ru_maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if "peak" in rung.records:
        tracemalloc.start()
        call()
        values["peak_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    if "reduce_row" in rung.records:
        reduce_row, calls = field.reduce_row, [0]

        def counted(*args):
            calls[0] += 1
            return reduce_row(*args)

        field.reduce_row = nets.reduce_row = counted
        call()
        values["reduce_row_calls"] = calls[0]
    if "file" in rung.records:  # the bytes the call wrote to `path`, hashed in chunks
        digest = hashlib.sha256()
        with open(scope["path"], "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                digest.update(chunk)
        result = digest.hexdigest()
    if isinstance(result, nets.PointSet):
        result = hashlib.sha256(result.digit_array().tobytes()).hexdigest()
    elif hasattr(result, "exact"):
        result = str(result.exact)
    metrics = {key: {"value": value, "unit": UNITS[key]} for key, value in values.items()}
    print(json.dumps({"result": result, "metrics": metrics}, default=int))


def command(name: str, seconds: int) -> list[str]:
    """The interpreter arguments of one run of rung `name`, from the root of a checkout."""
    if name in RUNGS:
        return ["-c", f"import sys; sys.path.insert(0, {str(HERE)!r}); import bench_compare; "
                      f"bench_compare.measure({name!r})"]
    return ["perfbench/run.py", "--workload", name, "--seed", str(SEED), "--seconds", str(seconds),
            "--trace", "0"]


def run(root: Path, argv: list[str]) -> dict:
    """The last stdout line, as JSON, of one fresh subprocess of argv in the checkout at root."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, *argv], cwd=root, env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pairs(count: int, run_side) -> list[dict]:
    """`count` pairs of `run_side(side)`, one per side, the parent first in even pairs."""
    pairs = []
    for i in range(count):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pairs.append({"first": order[0], **{side: run_side(side) for side in order}})
    return pairs


def summarise(pairs: list[dict]) -> dict:
    """Per metric, the medians, parent IQR and change wins of the pairs; whether every pair's two
    results are equal; and each side's failed perfbench jobs."""
    metrics = {}
    for name in pairs[0]["parent"]["metrics"]:
        parent, change = ([p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES)
        q = statistics.quantiles(parent, n=4)
        metrics[name] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": q[2] - q[0],
            "change_wins": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return {
        "metrics": metrics,
        "same_result": all(p["parent"].get("result") == p["change"].get("result") for p in pairs),
        "failed": {side: sum(p[side].get("failed", 0) for p in pairs) for side in SIDES},
    }


def fresh_bytecode(root: Path) -> None:
    """Remove every `__pycache__` under root, then compile root with this interpreter."""
    for cache in list(root.rglob("__pycache__")):
        shutil.rmtree(cache)
    if not compileall.compile_dir(root, quiet=1):
        raise RuntimeError(f"compileall failed under {root}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    for root in roots.values():
        fresh_bytecode(root)
    record = {
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "bytecode": "every __pycache__ under both checkouts removed, then both compiled "
                    "with compileall, before the first run",
        "preamble": PREAMBLE,
        "rungs": {},
    }
    start = time.monotonic()
    for name in [w["name"] for w in benchmark["workloads"]] + list(RUNGS):
        argv = command(name, benchmark["run_seconds"])
        rung = RUNGS[name]._asdict() if name in RUNGS else {"argv": argv, "pairs": PAIRS}
        pairs = run_pairs(rung["pairs"], lambda side: run(roots[side], argv))
        record["rungs"][name] = {"rung": rung, "summary": summarise(pairs), "pairs": pairs}
        print(name, json.dumps(record["rungs"][name]["summary"]), file=sys.stderr)
    record["wall_s"] = time.monotonic() - start
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
