"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(name, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0 and report["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in report["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if trace:
        metrics = report["metrics"]
        assert metrics["fail_ratio"]["value"] == 0
        # the probe reaches every traced function, so no layer time is 0
        zero = [k for k, v in metrics.items() if v["unit"] == "s" and v["value"] <= 0
                and k != "tracing_overhead_s"]
        assert zero == []


def _corrupt(ref: str) -> str:
    if "," not in ref:  # a point-file sha256
        return ref[::-1]
    if ref.startswith("check,"):  # a verify CSV
        return ref.replace("true", "false", 1)
    header, row, *rest = ref.splitlines()  # a discrepancy or scaling table
    cells = row.split(",")
    column = header.split(",").index("value")
    cells[column] = repr(float(cells[column]) * 1.001)
    return "\n".join([header, ",".join(cells), *rest]) + "\n"


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_corrupted_reference_fails_its_job(name, tmp_path):
    workload = workloads.build(name, 5, small=True)
    refs = checks.load_references()
    target = next(job for unit in workload.units for job in unit if job.check != "read")
    refs[target.key] = _corrupt(refs[target.key])
    inputs = worker.build_inputs(workload, tmp_path)
    records = worker.run_jobs(workload, inputs, tmp_path, refs)
    failed = {r["key"] for r in records if r["error"]}
    assert failed == {target.key}


def test_verify_char_residue_above_limit_fails():
    csv = "check,family,params,value,expected,pass\nchar,faure,b=7,2.000e-09,<=1e-9,true\n"
    with pytest.raises(ValueError):
        checks.normalise_verify(csv, {})


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    spans = [
        ("cli.main", 0.0, 10.0, -1, None),
        ("nets.dual_space", 1.0, 4.0, 0, (("elements", 8),)),
        ("field.kernel_basis", 2.0, 3.0, 1, None),
        ("nets.dual_space", 5.0, 9.0, 0, (("elements", 4),)),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    metrics = tracer.span_metrics(spans, ["cli.main", "nets.dual_space", "field.kernel_basis"])
    assert metrics["nets.dual_space.s"] == 7.0
    assert metrics["nets.dual_space.self_s"] == 6.0
    assert metrics["nets.dual_space.calls"] == 2
    assert metrics["nets.dual_space.elements"] == 12
    assert metrics["nets.self_s"] == 6.0
    assert metrics["cli.self_s"] == 3.0


def test_covered_length_merges_overlaps_and_clips():
    assert tracer.covered_length(0.0, 10.0, [(2.0, 5.0), (4.0, 6.0), (9.0, 12.0)]) == 5.0


def test_matrix_group_counts_outermost_calls_only():
    spans = [
        ("constructions.dp_net_matrices", 0.0, 3.0, -1, None),
        ("constructions.niederreiter_net_matrices", 0.5, 1.0, 0, None),
        ("constructions.interlace_matrices", 1.0, 2.0, 0, None),
        ("constructions.faure_matrices", 4.0, 5.0, -1, None),
    ]
    metrics = tracer.span_metrics(spans, [s[0] for s in spans])
    assert metrics["constructions.matrices.calls"] == 2
    assert metrics["constructions.matrices.s"] == 4.0


def test_seed_fixes_jobs_and_every_seed_has_references():
    refs = checks.load_references()
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 3) == workloads.build(name, 3)
        for small in (False, True):
            for seed in range(40):
                for unit in workloads.build(name, seed, small=small).units:
                    for job in unit:
                        assert job.key in refs, job.key


def test_tracer_wraps_every_binding_and_restores_it():
    import lowdisc
    import lowdisc.cli
    import lowdisc.discrepancy
    import lowdisc.nets

    originals = (lowdisc.cli.l2_exact, lowdisc.read_point_file, lowdisc.nets.PointSet.digit_array)
    t = tracer.Tracer()
    t.install()
    try:
        assert lowdisc.cli.l2_exact is lowdisc.discrepancy.l2_exact is not originals[0]
        assert lowdisc.read_point_file is not originals[1]
        ps = lowdisc.dp_net(3, 4, 2)
        lowdisc.cli.l2_exact(ps)
    finally:
        t.uninstall()
    assert (lowdisc.cli.l2_exact, lowdisc.read_point_file, lowdisc.nets.PointSet.digit_array) == originals
    metrics = t.metrics()
    assert metrics["discrepancy.l2_exact.calls"] == 1
    assert metrics["discrepancy.l2_exact.pairs"] == 16**2
    assert metrics["constructions.dp_net.calls"] == 1
    assert metrics["nets.generate_net_points.points"] == 16
