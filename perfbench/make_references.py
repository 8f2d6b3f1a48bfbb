"""Record the reference outputs the benchmark's checks compare against.

    PYTHONPATH=src python3 perfbench/make_references.py

Runs every distinct job of every workload, at the full and the reduced
sizes and at every band position a seed can pick, once, and writes
``references.json``.  Rerun it only when the program's intended output
changes; a performance change must pass against the committed file.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import lowdisc

import checks
import workloads
from worker import build_inputs, run_jobs

WORK = checks.REFERENCES.parent.parent / ".perfbench_work" / "references"


def _lq_reference(csv: str, job, inputs: dict[str, str]) -> str:
    """Swap the estimated row for an estimate from 16x the samples."""
    argv = list(job.argv)
    q = float(argv[argv.index("--q") + 1])
    samples = int(argv[argv.index("--samples") + 1])
    ps = lowdisc.read_point_file(inputs[argv[1][4:]])
    rows = csv.splitlines()
    for i, row in enumerate(rows):
        cells = row.split(",")
        if len(cells) > 5 and cells[5] == "estimated":
            rows[i] = lowdisc.lq_estimate(ps, q, 16 * samples, 0).csv_row(cells[0], cells[1])
    return "\n".join(rows) + "\n"


def reference(job, out: Path, inputs: dict[str, str]):
    text = out.read_text(encoding="ascii")
    if job.check == "pointfile":
        return checks.pointfile_digest(text)
    if job.check == "verify":
        return checks.normalise_verify(text, inputs)
    if job.check == "discrepancy" and "--q" in job.argv:
        return _lq_reference(text, job, inputs)
    return text


def main() -> int:
    refs: dict[str, str] = {}
    for name in workloads.WORKLOADS:
        for small in (False, True):
            for choice in range(workloads.BAND):
                workload = workloads.build(name, 0, small=small, choice=choice)
                fresh = [job for unit in workload.units for job in unit
                         if job.check != "read" and job.key not in refs]
                if not fresh:
                    continue
                shutil.rmtree(WORK, ignore_errors=True)
                WORK.mkdir(parents=True)
                inputs = build_inputs(workload, WORK)
                for job in fresh:
                    record = run_jobs(workloads.Workload({}, [[job]]), inputs, WORK, {})[0]
                    if not record["error"].startswith("no reference"):
                        raise SystemExit(f"{job.key}: {record['error']}")
                    refs[job.key] = reference(job, WORK / "unit-0.out", inputs)
                    print(f"{name}{' (small)' if small else ''}: {job.key}", flush=True)
    shutil.rmtree(WORK, ignore_errors=True)
    checks.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(refs)} references to {checks.REFERENCES}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
