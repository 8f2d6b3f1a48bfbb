"""One benchmark child: set up a workload, run its jobs, check their output.

``run.py`` starts one child at a time.  The child imports lowdisc, builds
the workload's input point files (set-up), then runs every job in-process
and checks its output outside the timed region.  It writes one JSON
result file:

- ``setup_s``: from the parent's spawn timestamp (``--spawned-at``, a
  ``time.monotonic`` reading, which is system-wide on Linux) until the
  first job can run;
- ``run_s``: the summed wall time of the jobs;
- ``peak_rss_mb``: this process's ``ru_maxrss``;
- ``jobs``: one record per job, with the reason it failed, if it did;
- ``layers``: per-layer metrics, when run with ``--trace``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import lowdisc
import lowdisc.cli

import checks
import workloads


def _substitute(argv, inputs: dict[str, str], out: Path) -> list[str]:
    return [str(out) if a == "@out" else inputs[a[4:]] if a.startswith("@in:") else a for a in argv]


def _set_up_call(argv: list[str]) -> None:
    rc = lowdisc.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"set-up: {' '.join(argv)} exited {rc}")


def build_inputs(workload, workdir: Path) -> dict[str, str]:
    paths = {name: str(workdir / f"input-{name}.txt") for name in workload.inputs}
    for name, flags in workload.inputs.items():
        _set_up_call(["construct", *flags, "--out", paths[name]])
    return paths


# A traced child first runs these tiny CLI calls, which reach every traced
# function.  A layer the workload bypasses then reads as this fixed probe's
# small cost, the same on every workload, instead of an exact constant 0.
PROBE = (
    ("construct", "--family", "dp-net", "--alpha", "3", "--s", "2", "--m", "3", "--out", "@in"),
    ("construct", "--family", "dp-finite", "--s", "2", "--N", "5", "--out", "@out"),
    ("construct", "--family", "dp-sequence", "--s", "2", "--N", "8", "--out", "@out"),
    ("construct", "--family", "davenport", "--N", "4", "--out", "@out"),
    ("discrepancy", "@in", "--q", "4", "--samples", "64", "--out", "@out"),
    ("verify", "all", "--family", "dp-net", "--alpha", "2", "--s", "2", "--m", "2", "--out", "@out"),
    ("verify", "geometric", "@in", "--out", "@out"),
)


def run_probe(workdir: Path) -> None:
    paths = {"@in": str(workdir / "probe-net.txt"), "@out": str(workdir / "probe.out")}
    for argv in PROBE:
        _set_up_call([paths.get(a, a) for a in argv])


def run_jobs(workload, inputs: dict[str, str], workdir: Path, refs: dict, tracer=None) -> list[dict]:
    """Run every job; a job that raises or fails its check counts as failed."""
    records = []
    for number, unit in enumerate(workload.units):
        out = workdir / f"unit-{number}.out"
        for job in unit:
            argv = _substitute(job.argv, inputs, out)
            result, error = None, None
            start = time.perf_counter()
            try:
                if job.check == "read":
                    result, rc = lowdisc.read_point_file(argv[1]), 0
                else:
                    rc = lowdisc.cli.main(argv)
            except Exception as exc:  # the job failed; the workload goes on
                rc, error = None, f"raised {exc!r}"
            elapsed = time.perf_counter() - start
            if error is None:
                try:
                    with tracer.paused() if tracer else nullcontext():
                        error = checks.check(job, rc, out, result, refs.get(job.key), inputs)
                except Exception as exc:  # unreadable output fails the job, not the run
                    error = f"check raised {exc!r}"
            records.append({"key": job.key, "check": job.check, "seconds": elapsed, "error": error})
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--child", type=int, default=0, help="the child's number in its run")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)

    src = (Path(__file__).resolve().parent.parent / "src").resolve()
    if src not in Path(lowdisc.__file__).resolve().parents:
        raise RuntimeError(f"imported lowdisc from {lowdisc.__file__}, not from {src}")
    tracer = None
    if args.trace:
        from tracer import Tracer  # untraced children do not load the tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.build(args.workload, args.seed, small=args.small, child=args.child)
    refs = checks.load_references()
    args.workdir.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        run_probe(args.workdir)
    inputs = build_inputs(workload, args.workdir)
    setup_s = time.monotonic() - args.spawned_at

    records = run_jobs(workload, inputs, args.workdir, refs, tracer)
    result = {
        "setup_s": setup_s,
        "run_s": sum(r["seconds"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": records,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
