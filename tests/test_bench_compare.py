"""The pair runner and the summary of scripts/bench_compare.py, on fixed inputs."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_compare", Path(__file__).resolve().parents[1] / "scripts" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


def test_pairs_alternate_the_side_that_runs_first():
    calls = []

    def run_side(side):
        calls.append(side)
        return len(calls)

    pairs = bench_compare.run_pairs(4, run_side)
    assert calls == ["parent", "change", "change", "parent"] * 2
    assert [p["first"] for p in pairs] == ["parent", "change"] * 2
    assert pairs[1] == {"first": "change", "change": 3, "parent": 4}


def _line(s, result="x", failed=None):
    line = {"result": result, "metrics": {"s": {"value": s, "unit": "s"}}}
    return line if failed is None else {**line, "failed": failed}


def test_summarise_gives_medians_parent_iqr_and_change_wins():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    change = [0.5, 2.0, 3.5, 3.0, 4.0, 5.0, 6.0, 9.0, 1.0, 2.0]
    pairs = [{"first": "parent", "parent": _line(p), "change": _line(c)} for p, c in zip(parent, change)]
    summary = bench_compare.summarise(pairs)
    # exclusive quartiles of 1..10: 2.75 and 8.25; the tie at 2.0 counts for neither side
    assert summary["metrics"] == {"s": {"parent_median": 5.5, "change_median": 3.25, "parent_iqr": 5.5,
                                        "change_wins": 7, "pairs": 10}}
    assert summary["same_result"] and summary["failed"] == {"parent": 0, "change": 0}


def test_summarise_reports_a_different_result_and_failed_jobs():
    pairs = [{"first": "parent", "parent": _line(1.0, failed=0), "change": _line(1.0, failed=2)},
             {"first": "change", "parent": _line(2.0, failed=1), "change": _line(1.0, "y", failed=0)},
             {"first": "parent", "parent": _line(3.0, failed=0), "change": _line(4.0, failed=0)}]
    summary = bench_compare.summarise(pairs)
    assert not summary["same_result"]
    assert summary["failed"] == {"parent": 1, "change": 2}
    assert summary["metrics"]["s"]["change_wins"] == 1
