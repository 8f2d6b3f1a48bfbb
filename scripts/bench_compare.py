"""Compare two checkouts of lowdisc and write a BENCH_*.json record.

    python3 scripts/bench_compare.py --parent DIR --change DIR --out BENCH.json

DIR is the root of a checkout (for example `git archive <commit> | tar -x
-C DIR`).  Two kinds of numbers are recorded, each run in a fresh
subprocess, one at a time:

- end to end: for each workload that the change's BENCHMARK.json lists,
  ten pairs of seed-1 `perfbench/run.py` runs of its `run_seconds`, one
  per checkout, the side that runs first alternating from pair to pair;
  the raw result line of every run is kept;
- layers: best of 5 in-process timings of `generate_net_points` and of a
  `dumps_point_file` + `loads_point_file` round trip, for dp-net alpha 3,
  s 2, m 16 (N = 2^16), and the tracemalloc peak of the generation; best
  of 5 timings of `dp_sequence(2, 2^16)` and `dp_finite_pointset(2^16 - 1,
  3)`, each with the sha256 of its digit array, so that the two sides can
  be checked equal; best
  of 3 timings of `l2_exact` on that net (with its tracemalloc peak), on
  dp-finite N = 8000 and N = 2004, s = 3, on `dp_sequence(2, 2047)` (two
  limbs), on random base-2 sets of N = 1024 points with 32 digits for
  s = 3, 4 and 5 and of N = 4096 points in s = 3 with 32 and with 60
  digits (seed 0); and the exact squared values, so that the two sides
  can be checked equal; best of 3 timings
  of `compute_t_value` on Faure b 13, m 5, s 13, on Faure b 13, m 7,
  s 13, on Faure b 17, m 6, s 17 and on the base-2 Niederreiter net s 6,
  m 14, each with the t it found, and of the mu_3 search
  `min_dependent_support(dp_net_matrices(3, 16, 2), "mu", 3)` with the
  weight it found; for each of these rank rungs, the `field.reduce_row`
  calls of one more run, a count that does not drift with the load of
  the machine as times do; best of 3 timings of `geometric_net_check`
  on the base-2 Niederreiter net s 8, m 16 at t = 7 (11 440 box shapes)
  and of `geometric_t_value` on dp-net alpha 3, s 2, m 18, with the
  verdict, the t found and the tracemalloc peak of the latter;
- fresh rungs: `l2_exact` on dp-net alpha 3, s 2, m 18 and m 20 (N = 2^18
  and 2^20), and on dp-net alpha 3, s 3, m 20 (2^20 points of 60
  digits), and `geometric_t_value` on dp-net alpha 3, s 2, m 20, each
  once in a fresh subprocess per checkout, recording the wall time of the
  call, the process's `ru_maxrss` before the call (the point set built)
  and after it, and the exact squared value or the t found, or the
  message of a `CapacityError` refusal;
- `rerun`: the layer and fresh rungs once more with the change's side
  first, since each side runs them after the other, not in pairs.

Each checkout is run with its own `src` on PYTHONPATH and its own
`perfbench/`.  Before the first run, every `__pycache__` under both
checkouts is removed and both are compiled anew with `compileall`, so
that neither side pays for compiling its imports while the other reads a
cache.  The summary gives the medians and the pairs the change won.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SEED = 1
METRICS = ("run_s", "setup_s", "peak_rss_mb")

LAYERS = """
import hashlib, json, time, tracemalloc
import numpy as np
from lowdisc.constructions import (
    dp_finite_pointset, dp_net_matrices, dp_sequence, faure_matrices, niederreiter_net_matrices,
)
from lowdisc import field, nets as nets_module
from lowdisc.discrepancy import l2_exact
from lowdisc.nets import (
    PointSet, compute_t_value, generate_net_points, geometric_net_check, geometric_t_value,
    min_dependent_support,
)
from lowdisc.pointfile import dumps_point_file, loads_point_file

def best(fn, repeat=5):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)

gm = dp_net_matrices(3, 16, 2)
tracemalloc.start()
ps = generate_net_points(gm)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
assert loads_point_file(dumps_point_file(ps)) == ps
out = {
    "generate_net_points_s": best(lambda: generate_net_points(gm)),
    "generate_net_points_peak_bytes": peak,
    "point_file_round_trip_s": best(lambda: loads_point_file(dumps_point_file(ps))),
    "point_file_bytes": len(dumps_point_file(ps)),
}
sequences = {"dp_sequence_s2_65536": lambda: dp_sequence(2, 2**16),
             "dp_finite_pointset_65535_s3": lambda: dp_finite_pointset(2**16 - 1, 3)}
for name, build in sequences.items():
    out[f"{name}_s"] = best(build)
    out[f"{name}_sha256"] = hashlib.sha256(build().digit_array().tobytes()).hexdigest()
tracemalloc.start()
l2_exact(ps)
out["l2_exact_dp_net_m16_peak_bytes"] = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
rng = np.random.default_rng(0)
sets = {"dp_net_m16": ps, "dp_finite_8000_s3": dp_finite_pointset(8000, 3),
        "dp_finite_2004_s3": dp_finite_pointset(2004, 3), "dp_sequence_s2_2047": dp_sequence(2, 2047)}
for s in (3, 4, 5):
    sets[f"random_b2_1024_s{s}"] = PointSet.from_digits(rng.integers(0, 2, (1024, s, 32), dtype=np.uint8), 2)
for p in (32, 60):
    sets[f"random_b2_4096_s3_p{p}"] = PointSet.from_digits(rng.integers(0, 2, (4096, 3, p), dtype=np.uint8), 2)
for name, points in sets.items():
    out[f"l2_exact_{name}_s"] = best(lambda: l2_exact(points), repeat=3)
    out[f"l2_exact_{name}_exact"] = str(l2_exact(points).exact)
nets = {"faure_b13_m5_s13": faure_matrices(13, 5, 13), "faure_b13_m7_s13": faure_matrices(13, 7, 13),
        "faure_b17_m6_s17": faure_matrices(17, 6, 17), "niederreiter_s6_m14": niederreiter_net_matrices(6, 14)}
rank = {f"compute_t_value_{name}": (lambda net=net: compute_t_value(net), "t") for name, net in nets.items()}
mu3_net = dp_net_matrices(3, 16, 2)
rank["min_dependent_support_mu3_dp_net_a3_m16_s2"] = (lambda: min_dependent_support(mu3_net, "mu", 3)[0],
                                                     "weight")
for name, (run, found) in rank.items():
    out[f"{name}_s"] = best(run, repeat=3)
    out[f"{name}_{found}"] = run()
calls = [0]
reduce_row = field.reduce_row

def counted(*args):
    calls[0] += 1
    return reduce_row(*args)

field.reduce_row = nets_module.reduce_row = counted
for name, (run, _) in rank.items():
    calls[0] = 0
    run()
    out[f"{name}_reduce_row_calls"] = calls[0]
boxes = generate_net_points(niederreiter_net_matrices(8, 16))
out["geometric_net_check_niederreiter_s8_m16_t7_s"] = best(lambda: geometric_net_check(boxes, 7), repeat=3)
out["geometric_net_check_niederreiter_s8_m16_t7"] = geometric_net_check(boxes, 7)
boxes = generate_net_points(dp_net_matrices(3, 18, 2))
tracemalloc.start()
out["geometric_t_value_dp_net_m18_t"] = geometric_t_value(boxes)
out["geometric_t_value_dp_net_m18_peak_bytes"] = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
out["geometric_t_value_dp_net_m18_s"] = best(lambda: geometric_t_value(boxes), repeat=3)
print(json.dumps(out))
"""


FRESH = """
import json, resource, sys, time
from lowdisc.constructions import dp_net
from lowdisc.discrepancy import l2_exact
from lowdisc.errors import CapacityError
from lowdisc.nets import geometric_t_value
ps = dp_net(3, int(sys.argv[2]), int(sys.argv[3]))
key, call = {"l2_exact": ("exact", lambda: str(l2_exact(ps).exact)),
             "geometric_t_value": ("t", lambda: geometric_t_value(ps))}[sys.argv[1]]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
try:
    result = {key: call()}
except CapacityError as exc:
    result = {"refused": str(exc)}
seconds = time.perf_counter() - start
print(json.dumps({"s": seconds, "ru_maxrss_kb_before": before,
                  "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, **result}))
"""
FRESH_RUNGS = {"l2_exact_dp_net_m18": ("l2_exact", 18, 2), "l2_exact_dp_net_m20": ("l2_exact", 20, 2),
               "l2_exact_dp_net_m20_s3": ("l2_exact", 20, 3),
               "geometric_t_value_dp_net_m20": ("geometric_t_value", 20, 2)}


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def fresh_bytecode(root: Path) -> None:
    """Remove every `__pycache__` under root, then compile root with this interpreter."""
    for cache in list(root.rglob("__pycache__")):
        shutil.rmtree(cache)
    if not compileall.compile_dir(root, quiet=1):
        raise RuntimeError(f"compileall failed under {root}")


def perfbench(root: Path, workload: str, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=_env(root), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layers(root: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", LAYERS], cwd=root, env=_env(root),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def fresh(root: Path, call: str, m: int, s: int) -> dict:
    proc = subprocess.run([sys.executable, "-c", FRESH, call, str(m), str(s)], cwd=root, env=_env(root),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def metric(line: dict, name: str) -> float:
    return line["metrics"][name]["value"]


def summarise(pairs: list[dict]) -> dict:
    out = {}
    for name in METRICS:
        parent = [metric(p["parent"], name) for p in pairs]
        change = [metric(p["change"], name) for p in pairs]
        q = statistics.quantiles(parent, n=4)
        out[name] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": q[2] - q[0],
            "change_wins": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(pairs),
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((sides["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    for root in sides.values():
        fresh_bytecode(root)
    record = {
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "bytecode": "every __pycache__ under both checkouts removed, then both compiled "
                    "with compileall, before the first run",
        "perfbench": {"seconds": seconds, "seed": SEED, "workloads": {}},
        "layers": {"repeat": 5, "l2_exact_repeat": 3, "rank_repeat": 3,
                   "net": "dp-net alpha=3 s=2 m=16 (N=65536)"},
    }
    for workload in (w["name"] for w in benchmark["workloads"]):
        pairs = []
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = perfbench(sides[side], workload, seconds)
            pairs.append(pair)
            print(workload, i, {s: metric(pair[s], "run_s") for s in order}, file=sys.stderr)
        failed = {side: sum(p[side]["failed"] for p in pairs) for side in sides}
        record["perfbench"]["workloads"][workload] = {
            "summary": summarise(pairs), "failed_jobs": failed, "pairs": pairs,
        }
    for side, root in sides.items():
        record["layers"][side] = layers(root)
    record["fresh"] = {"what": "the named call on dp-net alpha=3, m and s as named (s=2 unless named), "
                               "one fresh subprocess per rung and side"}
    for name, rung in FRESH_RUNGS.items():
        record["fresh"][name] = {side: fresh(root, *rung) for side, root in sides.items()}
    reverse = {side: sides[side] for side in ("change", "parent")}
    rerun = {"order": "change first, then parent (the reverse of the first run)", "layers": {}, "fresh": {}}
    for side, root in reverse.items():
        rerun["layers"][side] = layers(root)
    for name, rung in FRESH_RUNGS.items():
        rerun["fresh"][name] = {side: fresh(root, *rung) for side, root in reverse.items()}
    record["rerun"] = rerun
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
