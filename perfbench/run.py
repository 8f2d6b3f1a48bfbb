"""Run one lowdisc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  It starts fresh ``worker.py`` children
one at a time, never in parallel, for about ``--seconds`` seconds (at least
one child; two with ``--trace 1``), each running the workload's whole job
list, and prints one JSON line:

- ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``, each the
  median over the children;
- ``--trace 1``: untraced and traced children alternate; the per-layer
  metrics are medians over the traced ones, and ``tracing_overhead_s`` is
  the traced minus the untraced median ``run_s``.

``attempted`` and ``failed`` count jobs over all children, so the fail
ratio is ``failed / attempted``.  ``--small`` runs the reduced sizes the
benchmark's own tests use.  Exit code 0 means a result was printed;
a broken checkout or child prints no result and exits 1 or 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 120  # a run must end within 180 s even if a child hangs


class BenchError(Exception):
    pass


def run_child(args, workdir: Path, number: int, traced: bool) -> dict:
    result = workdir / f"child-{number}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--child", str(number), "--spawned-at", repr(spawned_at),
           "--workdir", str(workdir / f"child-{number}"), "--result", str(result)]
    cmd += ["--trace"] * traced + ["--small"] * args.small
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {number} ran longer than {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"child {number} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    data = json.loads(result.read_text(encoding="utf-8"))
    data["wall_s"] = time.monotonic() - spawned_at
    data["traced"] = traced
    return data


def run_children(args, workdir: Path) -> list[dict]:
    """Children one after another until the next would overrun --seconds."""
    children: list[dict] = []
    start = time.monotonic()
    minimum = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(children) % 2 == 1
        children.append(run_child(args, workdir, len(children), traced))
        longest = max(c["wall_s"] for c in children)
        if len(children) >= minimum and time.monotonic() - start + longest > args.seconds:
            return children


def summarise(args, spec: dict, children: list[dict]) -> dict:
    jobs = [job for child in children for job in child["jobs"]]
    failed = [job for job in jobs if job["error"] is not None]
    for job in failed:
        print(f"FAILED {job['key']}: {job['error']}", file=sys.stderr)
    plain = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]

    def median(rows, key):
        return statistics.median(row[key] for row in rows)

    if args.trace:
        values = {name: median([c["layers"] for c in traced], name)
                  for name in traced[0]["layers"]}
        values["tracing_overhead_s"] = median(traced, "run_s") - median(plain, "run_s")
        values["fail_ratio"] = len(failed) / len(jobs)
        values["jobs"] = len(jobs)
        wanted = spec["per_layer"]
    else:
        values = {key: median(plain, key) for key in ("setup_s", "run_s", "peak_rss_mb")}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes (benchmark tests)")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "lowdisc" / "__init__.py").is_file():
        print(f"error: no lowdisc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        report = summarise(args, spec, run_children(args, workdir))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
