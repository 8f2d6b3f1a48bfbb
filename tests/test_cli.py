import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lowdisc
from lowdisc import cli, discrepancy, pointfile
from lowdisc.cli import COMMANDS, FAMILIES, FLAGS, SIZE_FLAGS, _parse_args, main, make_parser
from lowdisc.constructions import cs_matrices, dp_sequence
from lowdisc.discrepancy import l2_exact_rational
from lowdisc.nets import GeneratingMatrixSet, generate_net_points
from lowdisc.pointfile import dumps_point_file, read_point_file, write_point_file

from count_reference import count_below_reference


def run(*argv):
    return main(list(argv))


# ---------------------------------------------------------
# construct
# ---------------------------------------------------------

def test_construct_writes_expected_count(tmp_path):
    out = tmp_path / "faure.txt"
    assert run("construct", "--family", "faure", "--b", "5", "--m", "2", "--s", "2",
               "--out", str(out)) == 0
    ps = read_point_file(out)
    assert len(ps) == 25


def test_construct_file_reproduces_points_exactly(tmp_path):
    out = tmp_path / "cs.txt"
    assert run("construct", "--family", "chen-skriganov", "--b", "5", "--alpha", "2",
               "--m", "2", "--s", "2", "--out", str(out)) == 0
    loaded = read_point_file(out)
    in_memory = generate_net_points(
        cs_matrices(5, 2, 2, 2),
        provenance={"family": "chen-skriganov", "b": 5, "alpha": 2, "s": 2, "m": 2},
    )
    assert loaded == in_memory
    assert len(loaded) == 625


def test_construct_logs_worked_example_matrices(tmp_path, capsys):
    out = tmp_path / "cs.txt"
    run("construct", "--family", "chen-skriganov", "--b", "5", "--alpha", "2",
        "--m", "2", "--s", "2", "--out", str(out))
    err = capsys.readouterr().err
    assert "C1 = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1, 1], [0, 1, 2, 3]]" in err
    assert "C2 = [[1, 2, 4, 3], [0, 1, 4, 2], [1, 3, 4, 2], [0, 1, 1, 2]]" in err


@pytest.mark.parametrize("argv, first_lines, digest", [
    (("--family", "davenport", "--N", "37"),
     ["2 7 2 48 74",
      '# provenance: {"M": 37, "alpha_cf": "golden", "family": "davenport", "precision": 48}'],
     "ee9dbbceea4b9b9a1113ed4edf48978a3c1a8bb1d623fd23c50dd019ce984c41"),
    (("--family", "dp-finite", "--N", "13", "--s", "2"),
     ["2 4 2 48 13", '# provenance: {"N": 13, "family": "dp-finite", "s": 2}'],
     "bfde3e80e72ea3543fec40a3ea867124107f4db605e447931c76ad9954d54198"),
    (("--family", "van-der-corput", "--b", "3", "--m", "3"),
     ["3 3 1 3 27", '# provenance: {"b": 3, "family": "van-der-corput", "m": 3}'],
     "d699ff3ac894c227599a0155b42e03ca59ad5ef8086390689e83184b3e66a0a5"),
    (("--family", "faure", "--b", "3", "--m", "2", "--s", "2"),
     ["3 2 2 2 9", '# provenance: {"b": 3, "family": "faure", "m": 2, "s": 2}'],
     "fdc04f7d73f99cde818768296f0608c31317a72cfa00521f5faa3e7940c919e8"),
    (("--family", "chen-skriganov", "--b", "5", "--alpha", "2", "--m", "1", "--s", "2"),
     ["5 2 2 2 25", '# provenance: {"alpha": 2, "b": 5, "family": "chen-skriganov", "m": 1, "s": 2}'],
     "89e112245774cf00a693fdb3241db2f9be0d0e4ad1cd5c9cf89cf5a498ff9a6a"),
    (("--family", "niederreiter", "--s", "3", "--m", "4"),
     ["2 4 3 4 16", '# provenance: {"family": "niederreiter", "m": 4, "s": 3}'],
     "3cae34c09f6af30bed279f73196b56714f4ac513d8c55f914d4976693496791b"),
    (("--family", "dp-net", "--alpha", "2", "--s", "2", "--m", "3"),
     ["2 3 2 6 8", '# provenance: {"alpha": 2, "family": "dp-net", "m": 3, "s": 2}'],
     "fa7377511e24843232dc4c7299a3b2f5abdefc16df0158f39443267ba65f98cc"),
    (("--family", "dp-sequence", "--s", "2", "--N", "20"),
     ["2 5 2 25 20", '# provenance: {"family": "dp-sequence", "n_max": 20, "s": 2}'],
     "77896fadf6f27aa4c076678e5518a48d99e017a6185fb400ea0ad380d48081f8"),
], ids=["davenport-37", "dp-finite-13-2", "van-der-corput-3-3", "faure-3-2-2", "chen-skriganov-5-2-1-2",
        "niederreiter-3-4", "dp-net-2-2-3", "dp-sequence-2-20"])
def test_construct_stdout_is_pinned(capsys, argv, first_lines, digest):
    """The whole point file on stdout, provenance line included, pinned by its sha256."""
    assert run("construct", *argv) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:2] == first_lines
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("--family", "dp-net", "--alpha", "2", "--s", "2", "--m", "6"),
    ("--family", "faure", "--b", "11", "--m", "2", "--s", "3"),
], ids=["b2", "b11"])
def test_construct_prints_the_bytes_it_writes_to_out(argv, tmp_path, monkeypatch, capsysbinary):
    """stdout gets exactly the bytes of --out, through the same writer, over many blocks."""
    monkeypatch.setattr(pointfile, "_BLOCK_BYTES", 64)
    path = tmp_path / "points.txt"
    assert run("construct", *argv, "--out", str(path)) == 0
    assert capsysbinary.readouterr().out == b""
    assert run("construct", *argv) == 0
    assert capsysbinary.readouterr().out == path.read_bytes()
    assert path.stat().st_size > 10 * pointfile._BLOCK_BYTES


def test_construct_provenance_records_only_the_familys_flags(capsys):
    """A flag the family does not take is refused, not dropped: a van der Corput set has no s,
    a Faure net no alpha, and a set's provenance records only its family's flags."""
    assert run("construct", "--family", "van-der-corput", "--b", "3", "--m", "2", "--s", "4") == 1
    assert capsys.readouterr() == ("", "error: family 'van-der-corput' does not take --s\n")
    assert run("construct", "--family", "faure", "--b", "3", "--m", "2", "--s", "2", "--alpha", "2") == 1
    assert capsys.readouterr() == ("", "error: family 'faure' does not take --alpha\n")
    assert run("construct", "--family", "van-der-corput", "--b", "3", "--m", "2") == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        '# provenance: {"b": 3, "family": "van-der-corput", "m": 2}'
    )
    assert run("construct", "--family", "faure", "--b", "3", "--m", "2", "--s", "2") == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        '# provenance: {"b": 3, "family": "faure", "m": 2, "s": 2}'
    )


FIRST_MISSING_FLAG = {
    "van-der-corput": "family 'van-der-corput' needs --b",
    "faure": "family 'faure' needs --b",
    "chen-skriganov": "family 'chen-skriganov' needs --b",
    "niederreiter": "family 'niederreiter' needs --s",
    "dp-net": "family 'dp-net' needs --alpha",
    "dp-finite": "family 'dp-finite' needs --s",
    "dp-sequence": "family 'dp-sequence' needs --s",
    "davenport": "--N is required here",
}


@pytest.mark.parametrize("family", FIRST_MISSING_FLAG)
def test_construct_names_the_first_missing_flag(family, capsys):
    assert run("construct", "--family", family) == 1
    assert capsys.readouterr().err == f"error: {FIRST_MISSING_FLAG[family]}\n"


def test_construct_without_a_family(capsys):
    for argv in (("construct",), ("verify", "all"), ("scaling", "--m", "2")):
        assert run(*argv) == 1
        assert capsys.readouterr() == ("", f"error: {argv[0]} needs --family\n")


def test_construct_dp_finite_count(tmp_path):
    out = tmp_path / "dpf.txt"
    assert run("construct", "--family", "dp-finite", "--N", "13", "--s", "2",
               "--out", str(out)) == 0
    assert len(read_point_file(out)) == 13


def test_construct_rejects_bad_parameters(capsys):
    # b < alpha * s violates the construction precondition
    assert run("construct", "--family", "chen-skriganov", "--b", "3", "--alpha", "2",
               "--m", "1", "--s", "2") == 1
    assert "b >= alpha*s" in capsys.readouterr().err


# ---------------------------------------------------------
# verify
# ---------------------------------------------------------

def test_verify_t_value_faure(capsys):
    assert run("verify", "t-value", "--family", "faure", "--b", "5", "--m", "2",
               "--s", "2") == 0
    out = capsys.readouterr().out
    assert "t-value,faure" in out and ",true" in out


def test_verify_t_value_of_a_net_deeper_than_the_recursion_limit(capsys):
    """The rank search walks 1200 rows of one coordinate on an explicit stack."""
    assert run("verify", "t-value", "--family", "van-der-corput", "--b", "2", "--m", "1200") == 0
    assert capsys.readouterr().out.splitlines()[-1] == "t-value,van-der-corput,b=2;m=1200;s=1;alpha=,0,<=0,true"


def test_verify_hamming_cs(capsys):
    assert run("verify", "hamming", "--family", "chen-skriganov", "--b", "5",
               "--alpha", "2", "--m", "2", "--s", "2") == 0
    assert ">=3,true" in capsys.readouterr().out


def test_verify_char_passes(capsys):
    assert run("verify", "char", "--family", "faure", "--b", "3", "--m", "2",
               "--s", "2") == 0
    assert "char,faure" in capsys.readouterr().out


def test_verify_failure_exits_three(capsys):
    # the binomial family at b=2 has dual Hamming weight 2, below the
    # alpha+1 = 3 demanded here, so the check honestly fails
    assert run("verify", "hamming", "--family", "faure", "--b", "2", "--m", "2",
               "--s", "2", "--alpha", "2") == 3
    assert ",false" in capsys.readouterr().out


def test_verify_capacity_exit_two(capsys):
    assert run("verify", "mu1", "--family", "chen-skriganov", "--b", "5",
               "--alpha", "2", "--m", "2", "--s", "2", "--cap", "10") == 2
    assert "capacity" in capsys.readouterr().err


def test_verify_failure_prints_witness(capsys):
    assert run("verify", "hamming", "--family", "faure", "--b", "2", "--m", "2",
               "--s", "2", "--alpha", "2") == 3
    captured = capsys.readouterr()
    assert "hamming witness: dual element (2, 2) of weight 2" in captured.err
    assert "support C1 rows [1]; C2 rows [1]" in captured.err
    assert "witness" not in captured.out


@pytest.mark.parametrize("argv, row", [
    (("mu1", "--family", "faure", "--b", "11", "--m", "3", "--s", "5"),
     "mu1,faure,b=11;m=3;s=5;alpha=,4,4,true"),
    (("order", "--family", "dp-net", "--alpha", "3", "--s", "2", "--m", "8"),
     "order,dp-net,b=2;m=8;s=2;alpha=3,true,true,true"),
    (("order", "--family", "dp-net", "--alpha", "2", "--s", "3", "--m", "10"),
     "order,dp-net,b=2;m=10;s=3;alpha=2,true,true,true"),
    (("hamming", "--family", "faure", "--b", "2", "--m", "11", "--s", "2"),
     "hamming,faure,b=2;m=11;s=2;alpha=,2,>=2,true"),
    (("all", "--family", "faure", "--b", "2", "--m", "11", "--s", "2"),
     "hamming,faure,b=2;m=11;s=2;alpha=,2,>=2,true"),
])
def test_verify_within_default_cap(argv, row, capsys):
    """Duals of 11^12, 2^40 and 2^50 elements, far above the default cap;
    and a 2^11 dual whose Hamming supports of weight <= m number 2.4M,
    where the cap counts only the weights searched (the minimum is 2)."""
    assert run("verify", *argv) == 0
    assert row in capsys.readouterr().out.splitlines()


def test_verify_all_char_reads_a_dual_above_the_cap(capsys):
    """The char check reads 64 dual elements of 13^24, so --cap does not refuse it."""
    assert run("verify", "all", "--family", "faure", "--b", "13", "--m", "2", "--s", "13") == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["t-value", "geometric", "mu1", "hamming", "char"]
    assert all(row.endswith(",true") for row in rows)


def test_verify_char_draws_walsh_indices_beyond_int64(capsys):
    """65 rows in base 2: the drawn Walsh indices lie below 2^65, beyond int64,
    and are drawn digit by digit."""
    assert run("verify", "char", "--family", "dp-net", "--alpha", "5", "--s", "1", "--m", "13") == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["char"] and rows[0].endswith(",true")


def test_verify_all_on_the_papers_alpha_5_net(capsys):
    assert run("verify", "all", "--family", "dp-net", "--alpha", "5", "--s", "2", "--m", "13") == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["t-value", "geometric", "mu1", "order", "char"]
    assert all(row.endswith(",true") for row in rows)


def test_construct_builds_matrices_once(tmp_path, monkeypatch):
    """Once per net: once for construct and for verify all, once per grid value for scaling."""
    from lowdisc import cli

    calls = []
    original = cli.faure_matrices
    monkeypatch.setattr(cli, "faure_matrices", lambda *args: calls.append(args) or original(*args))
    faure = ("--family", "faure", "--b", "3", "--s", "2")
    assert run("construct", *faure, "--m", "2", "--out", str(tmp_path / "f.txt")) == 0
    assert calls == [(3, 2, 2)]
    assert run("verify", "all", *faure, "--m", "2") == 0
    assert calls == [(3, 2, 2)] * 2
    assert run("scaling", *faure, "--m", "2:4") == 0
    assert calls == [(3, 2, 2)] * 2 + [(3, 2, 2), (3, 3, 2), (3, 4, 2)]


def test_construct_oversized_exits_two_before_allocating(monkeypatch, capsys):
    from lowdisc import nets

    def allocation(*args):
        raise AssertionError("the preflight must refuse before any allocation")

    monkeypatch.setattr(nets, "_net_digits", allocation)
    assert run("construct", "--family", "van-der-corput", "--b", "2", "--m", "40") == 2
    err = capsys.readouterr().err
    assert err.startswith("capacity error: 1099511627776 points x 1 coordinates x 40 digits exceed")
    assert "Traceback" not in err


# `construct` checks a net's points before its matrices, so the matrix families' cases
# go through `verify t-value`, which builds no points
@pytest.mark.parametrize("argv, shape", [
    (("construct", "--family", "van-der-corput", "--b", "2", "--m", "20"), "1 x 20 x 20"),
    (("verify", "t-value", "--family", "van-der-corput", "--b", "2", "--m", "20"), "1 x 20 x 20"),
    (("verify", "t-value", "--family", "faure", "--b", "3", "--m", "20", "--s", "2"), "2 x 20 x 20"),
    (("verify", "t-value", "--family", "chen-skriganov", "--b", "5", "--alpha", "2", "--s", "2",
      "--m", "10"), "2 x 20 x 20"),
    (("verify", "t-value", "--family", "niederreiter", "--s", "2", "--m", "20"), "2 x 20 x 20"),
    (("verify", "t-value", "--family", "dp-net", "--alpha", "3", "--s", "2", "--m", "20"), "6 x 20 x 20"),
    (("construct", "--family", "dp-finite", "--s", "2", "--N", str(1 << 20)), "5 x 20 x 20"),
    (("construct", "--family", "dp-sequence", "--s", "2", "--N", str(1 << 20)), "10 x 20 x 20"),
])
def test_oversized_matrices_exit_two_before_building(argv, shape, monkeypatch, capsys):
    from lowdisc import constructions, nets

    def building(*args):
        raise AssertionError("the preflight must refuse before the matrices are built")

    monkeypatch.setattr(nets, "MAX_DIGIT_BYTES", 1024)
    for name in ("GeneratingMatrixSet", "binomial_mod_p", "irreducible_polys_f2"):
        monkeypatch.setattr(constructions, name, building)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err == f"capacity error: generating matrices of {shape} int64 entries exceed the 1024-byte limit\n"


def test_scaling_row_of_oversized_matrices_is_an_error_row(monkeypatch, capsys):
    from lowdisc import nets

    monkeypatch.setattr(nets, "MAX_DIGIT_BYTES", 1024)
    assert run("scaling", "--family", "dp-net", "--alpha", "3", "--s", "2", "--m", "1,20") == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].startswith("dp-net,m=1,2,2,")
    assert rows[2] == ("dp-net,m=20,,,error: generating matrices of 6 x 20 x 20 int64 entries "
                       "exceed the 1024-byte limit,,")


FAURE_B3_M1000 = ("--family", "faure", "--b", "3", "--m", "1000", "--s", "2")
FAURE_B3_M1000_REFUSAL = ("about 1.32e+477 points x 2 coordinates x 1000 digits exceed the "
                          "268435456-byte digit limit")


@pytest.mark.parametrize("argv, refusal", [
    (("construct", *FAURE_B3_M1000), FAURE_B3_M1000_REFUSAL),
    (("verify", "geometric", *FAURE_B3_M1000), FAURE_B3_M1000_REFUSAL),
    (("verify", "char", *FAURE_B3_M1000), FAURE_B3_M1000_REFUSAL),
    (("verify", "all", *FAURE_B3_M1000), FAURE_B3_M1000_REFUSAL),
    (("construct", "--family", "van-der-corput", "--b", "2", "--m", "40"),
     "1099511627776 points x 1 coordinates x 40 digits"),
    (("construct", "--family", "van-der-corput", "--b", "11", "--m", "5000"),  # beyond int-to-str's 4300 digits
     "about 9.19e+5206 points x 1 coordinates x 5000 digits"),
    (("construct", "--family", "chen-skriganov", "--b", "5", "--alpha", "2", "--s", "2", "--m", "30"),
     "about 9.31e+20 points x 2 coordinates x 60 digits"),
    (("construct", "--family", "niederreiter", "--s", "2", "--m", "40"),
     "1099511627776 points x 2 coordinates x 40 digits"),
    (("verify", "geometric", "--family", "dp-net", "--alpha", "3", "--s", "2", "--m", "40"),
     "1099511627776 points x 2 coordinates x 120 digits"),
])
def test_oversized_net_points_exit_two_before_building(argv, refusal, monkeypatch, capsys):
    from lowdisc import cli

    def building(*args):
        raise AssertionError("the point preflight must refuse before the matrices are built")

    for name in ("van_der_corput_matrices", "faure_matrices", "cs_matrices", "niederreiter_net_matrices",
                 "dp_net_matrices"):
        monkeypatch.setattr(cli, name, building)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"capacity error: {refusal}")
    assert len(err.rstrip("\n")) <= 160 and err.count("\n") == 1


def test_scaling_row_of_oversized_net_points_is_an_error_row(monkeypatch, capsys):
    from lowdisc import cli

    def building(*args):
        raise AssertionError("the point preflight must refuse before the matrices are built")

    monkeypatch.setattr(cli, "faure_matrices", building)
    assert run("scaling", *FAURE_B3_M1000) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"faure,m=1000,,,error: {FAURE_B3_M1000_REFUSAL},,"


def test_discrepancy_of_an_oversized_point_file_exits_two(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text(f"2 40 1 40 {1 << 40}\n", encoding="ascii")
    assert run("discrepancy", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("capacity error: 1099511627776 points x 1 coordinates x 40 digits exceed")
    assert "Traceback" not in err


def test_read_point_file_keeps_one_copy_of_the_text(tmp_path):
    """The file's bytes and the digit array, within 10 %: no decoded str beside the bytes
    and no file-sized temporary for the range check."""
    import tracemalloc
    from lowdisc.constructions import dp_net

    ps = dp_net(3, 14, 2)
    path = tmp_path / "net.txt"
    write_point_file(ps, path)
    read_point_file(path)
    tracemalloc.start()
    try:
        back = read_point_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == ps
    assert peak <= 1.1 * (path.stat().st_size + ps.digit_array().nbytes)


def test_discrepancy_above_the_l2_working_limit_exits_two(tmp_path, monkeypatch, capsys):
    path = tmp_path / "net.txt"
    assert run("construct", "--family", "dp-net", "--alpha", "3", "--s", "2", "--m", "6", "--out", str(path)) == 0
    capsys.readouterr()
    monkeypatch.setattr(discrepancy, "MAX_L2_BYTES", 1000)
    assert run("discrepancy", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("capacity error: exact L2 of 64 points in dimension 2 needs about")
    assert "Traceback" not in err


def test_verify_all_builds_the_net_once(monkeypatch, capsys):
    from lowdisc import cli

    calls = []
    original = cli.generate_net_points
    monkeypatch.setattr(cli, "generate_net_points",
                        lambda gm, provenance=None: calls.append(gm) or original(gm, provenance))
    assert run("verify", "all", "--family", "faure", "--b", "3", "--m", "2", "--s", "2") == 0
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert "geometric,faure" in out and "char,faure" in out


def test_verify_all_runs_one_nrt_search(monkeypatch, capsys):
    from lowdisc import cli, nets

    kinds = []
    original = nets.min_dependent_support

    def counted(gm, kind="nrt", *args, **kwargs):
        kinds.append(kind)
        return original(gm, kind, *args, **kwargs)

    monkeypatch.setattr(cli, "min_dependent_support", counted)
    monkeypatch.setattr(nets, "min_dependent_support", counted)
    assert run("verify", "all", "--family", "dp-net", "--alpha", "2", "--s", "2", "--m", "4") == 0
    assert kinds.count("nrt") == 1
    out = capsys.readouterr().out
    assert "t-value,dp-net" in out and "mu1,dp-net" in out
    for check in ("char", "hamming"):  # neither reads the t-value
        kinds.clear()
        assert run("verify", check, "--family", "faure", "--b", "3", "--m", "2", "--s", "3") == 0
        assert kinds.count("nrt") == 0
    out = capsys.readouterr().out
    assert "char,faure" in out and "hamming,faure" in out


# `verify char` and `verify all` stdout as the per-support rank search and the
# per-index Walsh sums printed it, at seeds 0-3
VERIFY_PINS = json.loads((Path(__file__).parent / "verify_pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", sorted(VERIFY_PINS))
def test_verify_output_is_pinned(argv, capsys):
    assert run(*argv.split()) == 0
    assert capsys.readouterr().out == VERIFY_PINS[argv]


def test_verify_geometric_from_point_file(tmp_path, capsys):
    out = tmp_path / "v.txt"
    run("construct", "--family", "van-der-corput", "--b", "2", "--m", "3",
        "--out", str(out))
    capsys.readouterr()
    assert run("verify", "geometric", str(out)) == 0
    assert "geometric,file" in capsys.readouterr().out
    assert run("verify", "mu1", str(out)) == 1  # needs matrices


def _diagonal_file(tmp_path, t_bound, name="diagonal.txt", **provenance):
    """The point file of the (1, 2, 2)-net on the diagonal, with t_bound in its provenance."""
    path = tmp_path / name
    write_point_file(generate_net_points(GeneratingMatrixSet(2, [np.eye(2)] * 2),
                                         {"t_bound": t_bound, **provenance}), path)
    return str(path)


def test_verify_geometric_checks_the_files_t_bound(tmp_path, capsys):
    path = _diagonal_file(tmp_path, 1)
    assert run("verify", "geometric", path) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"geometric,file,{path},1,<=1,true"
    path = _diagonal_file(tmp_path, 0)
    assert run("verify", "geometric", path) == 3
    assert capsys.readouterr().out.splitlines()[1] == f"geometric,file,{path},1,<=0,false"


@pytest.mark.parametrize("argv", [
    ("verify", "geometric", "é.txt"),  # the path is part of the row
    ("discrepancy", "cafe.txt"),  # "café" in the provenance: a JSON escape, so the file is ASCII
])
def test_out_file_is_utf8_text_equal_to_stdout(argv, tmp_path, capsys):
    path = _diagonal_file(tmp_path, 1, argv[-1], family="café")
    assert Path(path).read_bytes().isascii()
    assert run(*argv[:-1], path) == 0
    printed = capsys.readouterr().out
    assert "é" in printed
    out = tmp_path / "o.csv"
    assert run(*argv[:-1], path, "--out", str(out)) == 0
    assert out.read_text(encoding="utf-8") == printed


@pytest.mark.parametrize("t_bound", ["x", "1", -1, 1.5, True])
def test_verify_geometric_refuses_a_malformed_t_bound(t_bound, tmp_path, capsys):
    assert run("verify", "geometric", _diagonal_file(tmp_path, t_bound)) == 1
    assert capsys.readouterr().err == f"error: provenance t_bound {t_bound!r} is not a non-negative int\n"


# ---------------------------------------------------------
# discrepancy
# ---------------------------------------------------------

def test_discrepancy_matches_rational_oracle(tmp_path, capsys):
    out = tmp_path / "vdc.txt"
    run("construct", "--family", "van-der-corput", "--b", "2", "--m", "2",
        "--out", str(out))
    capsys.readouterr()
    assert run("discrepancy", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("family,params,N,s,q,method,value")
    value = float(lines[1].split(",")[6])
    exact = math.sqrt(l2_exact_rational(read_point_file(out)))
    assert abs(value - exact) <= 1e-12


def test_discrepancy_missing_file_exits_one(capsys):
    assert run("discrepancy", "/nonexistent/points.txt") == 1
    assert "error" in capsys.readouterr().err


def test_discrepancy_malformed_file_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1 1 2 1\n2x\n")
    assert run("discrepancy", str(bad)) == 1
    assert "line 2" in capsys.readouterr().err


def test_discrepancy_non_ascii_file_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"2 1 1 2 1\n0\xc3\xa9\n")
    assert run("discrepancy", str(bad)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ")
    assert "Traceback" not in err


def test_discrepancy_q_adds_estimate_row(tmp_path, capsys):
    out = tmp_path / "vdc.txt"
    run("construct", "--family", "van-der-corput", "--b", "2", "--m", "3",
        "--out", str(out))
    capsys.readouterr()
    assert run("discrepancy", str(out), "--q", "3", "--samples", "512", "--seed", "1") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert "exact-pairwise" in lines[1] and "estimated" in lines[2]


def test_discrepancy_lq_csv_equals_reference_count_csv(tmp_path, monkeypatch, capsys):
    out = tmp_path / "dp.txt"
    run("construct", "--family", "dp-net", "--alpha", "3", "--s", "2", "--m", "10", "--out", str(out))
    capsys.readouterr()
    args = ("discrepancy", str(out), "--q", "4", "--samples", "16384", "--seed", "1")
    assert run(*args) == 0
    fast = capsys.readouterr().out
    monkeypatch.setattr(discrepancy, "_count_below", count_below_reference)
    assert run(*args) == 0
    assert capsys.readouterr().out == fast


def test_discrepancy_oversized_lq_exits_two_before_drawing(tmp_path, monkeypatch, capsys):
    out = tmp_path / "vdc.txt"
    run("construct", "--family", "van-der-corput", "--b", "2", "--m", "3", "--out", str(out))
    capsys.readouterr()

    def draws(*args, **kwargs):
        raise AssertionError("the preflight must refuse before any draw")

    # lq_estimate's only draws come from the random.Random it makes right before them
    monkeypatch.setattr(random, "Random", draws)
    assert run("discrepancy", str(out), "--q", "3", "--samples", str(10**12)) == 2
    err = capsys.readouterr().err
    assert err.startswith("capacity error: 1000000000000 samples x 1 coordinates")
    assert "Traceback" not in err


def test_discrepancy_lq_csv_is_the_same_for_the_same_seed(tmp_path, capsys):
    points = tmp_path / "dp.txt"
    run("construct", "--family", "dp-net", "--alpha", "3", "--s", "2", "--m", "6", "--out", str(points))
    csvs = []
    for seed, name in (("3", "a.csv"), ("3", "b.csv"), ("4", "c.csv")):
        out = tmp_path / name
        assert run("discrepancy", str(points), "--q", "4", "--samples", "4096", "--seed", seed,
                   "--out", str(out)) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1] != csvs[2]


def test_verify_all_and_lq_leave_numpy_random_unimported(tmp_path):
    """The seeded draws come from the stdlib generator, so a CLI process never loads numpy.random."""
    points = tmp_path / "dp.txt"
    run("construct", "--family", "dp-net", "--alpha", "3", "--s", "2", "--m", "6", "--out", str(points))
    script = (
        "import sys\n"
        "from lowdisc.cli import main\n"
        "assert main(['verify', 'all', '--family', 'faure', '--b', '7', '--m', '3', '--s', '3']) == 0\n"
        f"assert main(['discrepancy', {str(points)!r}, '--q', '4', '--samples', '256']) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(lowdisc.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert "estimated" in proc.stdout and "char,faure" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "False"


def test_config_threads_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"threads": 2}')
    assert run("scaling", "--config", str(cfg), "--family", "van-der-corput", "--b", "2",
               "--m", "3") == 1
    assert "unknown config keys: ['threads']" in capsys.readouterr().err


# ---------------------------------------------------------
# scaling
# ---------------------------------------------------------

def test_scaling_single_row(capsys):
    assert run("scaling", "--family", "van-der-corput", "--b", "2", "--m", "4") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2  # header + one grid point


def test_scaling_refuses_an_empty_grid(capsys):
    assert run("scaling", "--family", "davenport", "--N", "5:2") == 1
    assert capsys.readouterr() == ("", "error: --N: empty grid '5:2'\n")


def test_scaling_grid_and_ratio_column(capsys):
    assert run("scaling", "--family", "dp-net", "--alpha", "2", "--s", "1",
               "--m", "4:6") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    for line in lines[1:]:
        assert float(line.rsplit(",", 1)[1]) > 0


def test_scaling_davenport_doubling(capsys):
    assert run("scaling", "--family", "davenport", "--N", "4,8,16") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("davenport") for line in lines[1:])


def test_scaling_dp_sequence_refuses_one_point_in_two_dimensions(capsys):
    assert run("scaling", "--family", "dp-sequence", "--s", "2", "--N", "1,2") == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[1] == "dp-sequence,N=1,,,error: the sequence ratio needs N >= 2 in dimension s = 2,,"
    assert lines[2].startswith("dp-sequence,N=2,2,2,")
    assert captured.err == ""
    # in one dimension the normaliser is 1 at N = 1, so that row keeps its value
    assert run("scaling", "--family", "dp-sequence", "--s", "1", "--N", "1") == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "dp-sequence,N=1,1,1,0.5773502691896257,0.5773502691896257,0.5773502691896257"
    )


def test_scaling_rows_refuse_bad_sizes(capsys):
    assert run("scaling", "--family", "niederreiter", "--s", "1", "--m", "0:1") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "niederreiter,m=0,,,error: need m >= 1,,"
    assert lines[2].startswith("niederreiter,m=1,2,1,")
    assert run("scaling", "--family", "dp-sequence", "--s", "2", "--N=-1,4") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "dp-sequence,N=-1,,,error: prefix of -1 points requested, need 0..4,,"
    assert lines[2].startswith("dp-sequence,N=4,4,2,")


def test_scaling_sequence_keeps_the_rows_below_a_size_it_cannot_build(monkeypatch, capsys):
    assert run("scaling", "--family", "dp-sequence", "--s", "2", "--N", "4,8") == 0
    good = capsys.readouterr().out.splitlines()
    builds = []
    monkeypatch.setattr(cli, "dp_sequence", lambda s, n: builds.append(n) or dp_sequence(s, n))
    assert run("scaling", "--family", "dp-sequence", "--s", "2", "--N", "4,8,100000000000") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == good
    assert lines[3] == ("dp-sequence,N=100000000000,,,error: 100000000000 points x 2 coordinates x 185 digits "
                        "exceed the 268435456-byte digit limit,,")
    assert builds == [100000000000, 8]  # the largest size that builds, once for every row


# each family's grid, whose first size gives an error row: flags, that row, sha256 of stdout
SCALING_PINS = {
    "van-der-corput": (
        ("--b", "2", "--m", "0:3"),
        "van-der-corput,m=0,,,error: need m >= 1,,",
        "e9c4e39dddc4a32454860e9a21b1ac7eda5bc19c5af20f1460c4860055ee0ddc",
    ),
    "faure": (
        ("--b", "3", "--s", "2", "--m", "0:2"),
        "faure,m=0,,,error: alpha, m, s must be positive,,",
        "00fe126c2314c330fd17d20e08bdbe37b19e93e110d044c0f9a63a80c11dcd2c",
    ),
    "chen-skriganov": (
        ("--b", "5", "--alpha", "2", "--s", "2", "--m", "0:1"),
        "chen-skriganov,m=0,,,error: alpha, m, s must be positive,,",
        "eb1deee544e2313f24f7712a38da35cc2325a34fdb2be27d454f8ea7ed01c014",
    ),
    "niederreiter": (
        ("--s", "2", "--m", "0:3"),
        "niederreiter,m=0,,,error: need m >= 1,,",
        "2426d2262200209a37cf3b22545e30feaa35a85124d393798b704f83feac48f4",
    ),
    "dp-net": (
        ("--alpha", "2", "--s", "2", "--m", "0:3"),
        "dp-net,m=0,,,error: alpha, m, s must be positive,,",
        "1e2aef1c22025fbae76a2aa64acefee2a1581b863b4c23149fdd44c377a92462",
    ),
    "dp-finite": (
        ("--s", "2", "--N", "1:4"),
        "dp-finite,N=1,,,error: need N >= 2,,",
        "2dbd26c3200f0e8ba20bead6b9c0724482f2bf560c5f0fe21c983fff7c180e0a",
    ),
    "dp-sequence": (
        ("--s", "2", "--N", "1,2,5"),
        "dp-sequence,N=1,,,error: the sequence ratio needs N >= 2 in dimension s = 2,,",
        "9fce2d9c2689653c1a46df538c62cb99eac178f85da0ffdf84d40fa2920023a0",
    ),
    "davenport": (
        ("--N", "0,2,4"),
        "davenport,N=0,,,error: need M >= 1,,",
        "ac0912ac8b63d205385317d0d3207b09803d48410ed6b2849ace97dff52a33f7",
    ),
}


@pytest.mark.parametrize("family", SCALING_PINS)
def test_scaling_stdout_is_pinned(family, capsys):
    flags, error_row, digest = SCALING_PINS[family]
    assert run("scaling", "--family", family, *flags) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == error_row
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_scaling_byte_identical_across_runs(capsys):
    args = ("scaling", "--family", "dp-sequence", "--s", "1", "--N", "16,31,32")
    assert run(*args) == 0
    first = capsys.readouterr().out
    assert run(*args) == 0
    assert capsys.readouterr().out == first


# ---------------------------------------------------------
# config files
# ---------------------------------------------------------

def test_config_file_supplies_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "van-der-corput", "b": 2, "m": "3"}))
    out = tmp_path / "p.txt"
    assert run("construct", "--config", str(cfg), "--out", str(out)) == 0
    assert len(read_point_file(out)) == 8


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "van-der-corput", "b": 2, "m": "3"}))
    out = tmp_path / "p.txt"
    assert run("construct", "--config", str(cfg), "--m", "4", "--out", str(out)) == 0
    assert len(read_point_file(out)) == 16


def test_config_unknown_keys_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "van-der-corput", "b": 2, "m": "3", "bogus": 1}))
    assert run("construct", "--config", str(cfg)) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_config_values_are_parsed_like_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    t_value = ("verify", "t-value", "--config", str(cfg))
    faure = {"family": "faure", "m": 2, "s": 2}
    assert run("verify", "t-value", "--family", "faure", "--b", "5", "--m", "2", "--s", "2") == 0
    by_flag = capsys.readouterr()
    cfg.write_text(json.dumps({**faure, "b": "5"}))
    assert run(*t_value) == 0
    assert capsys.readouterr() == by_flag
    for key, value in (("s", 2.0), ("seed", "x"), ("b", True)):
        cfg.write_text(json.dumps({**faure, "b": 5, key: value}))
        assert run(*t_value) == 1
        err = capsys.readouterr().err
        assert err == f"error: argument --{key}: invalid int value: {str(value)!r}\n"
    cfg.write_text(json.dumps({**faure, "b": 5}))
    assert run(*t_value, "--s", "3") == 0  # the flag wins over the file
    assert "t-value,faure,b=5;m=2;s=3;" in capsys.readouterr().out


@pytest.mark.parametrize("flag, check", [("seed", "char"), ("cap", "mu1")])
def test_negative_seed_or_cap_exits_one(flag, check, tmp_path, capsys):
    faure = ("--family", "faure", "--b", "3", "--m", "2", "--s", "2")
    assert run("verify", check, *faure, f"--{flag}=-1") == 1
    assert capsys.readouterr().err == f"error: argument --{flag}: must be >= 0, got -1\n"
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({flag: -5}))
    assert run("verify", check, *faure, "--config", str(cfg)) == 1
    assert capsys.readouterr().err == f"error: argument --{flag}: must be >= 0, got -5\n"
    # the file's value is parsed like a flag, so it is refused even where a flag overrides it
    assert run("verify", check, *faure, "--config", str(cfg), f"--{flag}", "0") == 1


@pytest.mark.parametrize("command", [
    ("verify", "hamming", "--family", "faure", "--b", "3", "--m", "2", "--s", "2"),
    ("construct", "--family", "dp-net", "--s", "2", "--m", "2"),
    ("scaling", "--family", "dp-net", "--s", "2", "--m", "2"),
], ids=lambda command: command[0])
def test_alpha_below_one_exits_one(command, tmp_path, capsys):
    """A Hamming floor of alpha + 1 <= 1 cannot fail, and no interlacing factor is below 1."""
    for alpha in ("0", "-3"):
        assert run(*command, "--alpha", alpha) == 1
        assert capsys.readouterr() == ("", f"error: argument --alpha: must be >= 1, got {alpha}\n")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 0}))
    assert run(*command, "--config", str(cfg)) == 1
    assert capsys.readouterr() == ("", "error: argument --alpha: must be >= 1, got 0\n")


def test_config_file_not_utf8_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(json.dumps({"family": "van-der-corput"}).encode("utf-16"))  # starts ff fe
    assert run("construct", "--config", str(cfg)) == 1
    assert capsys.readouterr().err == f"error: config file {cfg} is not UTF-8 text\n"


NESTED_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("comment", ["# provenance: ", "#provenance:"], ids=["canonical", "line-parser"])
def test_deeply_nested_provenance_exits_one(comment, tmp_path, monkeypatch, capsys):
    """The canonical reader and the line parser refuse the same line 2 with the same error."""
    if comment == "# provenance: ":  # the canonical layout is refused without the line parser
        monkeypatch.setattr(pointfile, "_parse_lines", None)
    lines = dumps_point_file(generate_net_points(cs_matrices(5, 2, 1, 2))).splitlines(True)
    path = tmp_path / "nested.txt"
    path.write_text(lines[0] + comment + NESTED_JSON + "\n" + "".join(lines[1:]))
    assert run("discrepancy", str(path)) == 1
    assert capsys.readouterr() == ("", "error: line 2: bad provenance json\n")


def test_config_file_nested_too_deeply_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(NESTED_JSON)
    assert run("construct", "--config", str(cfg)) == 1
    assert capsys.readouterr() == ("", f"error: config file {cfg} nests its JSON too deeply\n")


def test_config_file_with_an_overlong_integer_exits_one(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"b": ' + "7" * 5000 + "}")
    assert run("construct", "--config", str(cfg)) == 1
    assert capsys.readouterr() == ("", f"error: config file {cfg} holds an integer too long to read\n")


def test_config_null_seed_and_cap_read_as_none(tmp_path, capsys):
    """A null seed draws fresh entropy and a null cap lifts the bound, as `--seed none`
    and `--cap none` do; a flag still overrides the file."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "chen-skriganov", "b": 11, "alpha": 2, "s": 5, "m": 5,
                               "seed": None, "cap": None}))
    hamming = ("verify", "hamming", "--config", str(cfg))
    by_flag = _parse_args(["verify", "hamming", "--seed", "none", "--cap", "none"])
    assert (by_flag.seed, by_flag.cap) == (None, None)
    by_file = _parse_args(list(hamming))
    assert (by_file.seed, by_file.cap) == (None, None)
    overridden = _parse_args([*hamming, "--seed", "3", "--cap", "7"])
    assert (overridden.seed, overridden.cap) == (3, 7)
    # the weight-5 search needs 2 369 935 candidate supports, above the default cap 2^21
    assert run(*hamming, "--cap", str(1 << 21)) == 2
    assert "above cap 2097152" in capsys.readouterr().err
    assert run(*hamming) == 0
    assert "hamming,chen-skriganov,b=11;m=10;s=5;alpha=2,5,>=3,true" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ("--family", "van-der-corput", "--b", "2", "--m=-1"),
    ("--family", "van-der-corput", "--b", "2", "--m", "0"),
    ("--family", "niederreiter", "--s", "2", "--m=-1"),
    ("--family", "niederreiter", "--s", "2", "--m", "0"),
])
def test_construct_refuses_fewer_than_one_digit(argv, capsys):
    assert run("construct", *argv) == 1
    assert capsys.readouterr().err == "error: need m >= 1\n"


def test_usage_errors_exit_one(capsys):
    assert run("construct", "--family", "mystery") == 1
    assert run("verify", "t-value", "--family", "davenport", "--N", "4") == 1


def test_parser_is_built_once_and_reused_after_usage_errors(capsys):
    commands = [
        ("construct", "--family", "mystery"),
        ("scaling", "--family", "van-der-corput", "--b", "2", "--m", "3"),
        ("verify",),
        ("discrepancy", "--q", "x"),
        ("scaling", "--family", "dp-net", "--alpha", "2", "--s", "1", "--m", "2:3"),
        ("bogus-command",),
        ("verify", "t-value", "--family", "faure", "--b", "3", "--m", "2", "--s", "2"),
    ]
    alone = []
    for argv in commands:
        make_parser.cache_clear()
        code = run(*argv)
        alone.append((code, capsys.readouterr()))
    make_parser.cache_clear()
    together = []
    for argv in commands:
        code = run(*argv)
        together.append((code, capsys.readouterr()))
    assert together == alone
    assert [code for code, _ in alone] == [1, 0, 1, 1, 0, 1, 0]
    assert make_parser() is make_parser()


# ---------------------------------------------------------
# flags a command or family does not read
# ---------------------------------------------------------

# a value each flag accepts, and each family's flags for a small instance
FLAG_VALUES = {"family": "faure", "b": "3", "m": "2", "s": "2", "alpha": "2", "N": "4", "q": "4",
               "samples": "7", "seed": "1", "cap": "5", "out": "unused.txt"}
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
FAURE = ("--family", "faure", *FAMILY_ARGS["faure"])
VERIFY_FAURE_ALPHA = {  # --alpha off-family, read as the hamming floor: stdout as before
    "hamming": "check,family,params,value,expected,pass\n"
               "hamming,faure,b=3;m=2;s=2;alpha=2,2,>=3,false\n",
    "all": "check,family,params,value,expected,pass\n"
           "t-value,faure,b=3;m=2;s=2;alpha=2,0,<=0,true\n"
           "geometric,faure,b=3;m=2;s=2;alpha=2,0,net-property,true\n"
           "mu1,faure,b=3;m=2;s=2;alpha=2,3,3,true\n"
           "hamming,faure,b=3;m=2;s=2;alpha=2,2,>=3,false\n"
           "char,faure,b=3;m=2;s=2;alpha=2,1.234e-16,<=1e-9,true\n",
}


@pytest.fixture
def faure_file(tmp_path, capsys):
    path = tmp_path / "faure.txt"
    assert run("construct", *FAURE, "--out", str(path)) == 0
    capsys.readouterr()
    return str(path)


def _refused(argv, message, capsys):
    """argv exits 1 with `message` as its one line of stderr and nothing on stdout."""
    assert run(*argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", COMMANDS)
def test_a_flag_outside_the_commands_row_exits_one(command, faure_file, tmp_path, capsys):
    argv = {"construct": ("construct", *FAURE), "verify": ("verify", "t-value", *FAURE),
            "discrepancy": ("discrepancy", faure_file), "scaling": ("scaling", *FAURE),
            "selftest": ("selftest",)}[command]
    if command != "selftest":  # the command runs without the stray flag
        assert run(*argv) == 0
        capsys.readouterr()
    cfg = tmp_path / "run.json"
    stray = [flag for flag in FLAGS if flag not in COMMANDS[command].flags]
    assert len(stray) == {"construct": 4, "verify": 3, "discrepancy": 7, "scaling": 4, "selftest": 11}[command]
    for flag in stray:
        assert run(*argv, f"--{flag}", FLAG_VALUES[flag]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and f"--{flag}" in err
        cfg.write_text(json.dumps({flag: FLAG_VALUES[flag]}))
        if command == "selftest":  # it reads no flag, so it takes no config file either
            _refused((*argv, "--config", str(cfg)), f"unrecognized arguments: --config {cfg}", capsys)
        else:
            _refused((*argv, "--config", str(cfg)), f"unknown config keys: ['{flag}']", capsys)


def test_flags_take_their_exact_names_only(faure_file, capsys):
    _refused(("construct", "--fam", "faure", *FAMILY_ARGS["faure"]), "unrecognized arguments: --fam faure",
             capsys)
    _refused(("discrepancy", faure_file, "--s", "3"), "unrecognized arguments: --s 3", capsys)
    _refused(("verify", "mu1", *FAURE, "--c", "5"), "unrecognized arguments: --c 5", capsys)


@pytest.mark.parametrize("command", ["construct", "scaling"])
@pytest.mark.parametrize("family", FAMILIES)
def test_a_size_flag_outside_the_familys_row_exits_one(command, family, tmp_path, capsys):
    argv = (command, "--family", family, *FAMILY_ARGS[family])
    assert run(*argv) == 0
    capsys.readouterr()
    cfg = tmp_path / "run.json"
    for flag in SIZE_FLAGS:
        if flag not in FAMILIES[family].flags:
            message = f"family {family!r} does not take --{flag}"
            _refused((*argv, f"--{flag}", FLAG_VALUES[flag]), message, capsys)
            cfg.write_text(json.dumps({flag: FLAG_VALUES[flag]}))
            _refused((*argv, "--config", str(cfg)), message, capsys)


def test_verify_reads_off_family_alpha_only_as_the_hamming_floor(faure_file, tmp_path, capsys):
    _refused(("verify", "t-value", "--family", "niederreiter", "--s", "3", "--m", "4", "--alpha", "4"),
             "family 'niederreiter' does not take --alpha", capsys)
    _refused(("verify", "all", "--family", "niederreiter", "--s", "3", "--m", "4", "--alpha", "4"),
             "family 'niederreiter' does not take --alpha", capsys)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 2}))
    for check, csv in VERIFY_FAURE_ALPHA.items():
        for stray in (("--alpha", "2"), ("--config", str(cfg))):
            assert run("verify", check, *FAURE, *stray) == 3
            assert capsys.readouterr().out == csv
    for check in ("t-value", "mu1", "char", "geometric"):
        _refused(("verify", check, *FAURE, "--alpha", "2"), "family 'faure' does not take --alpha", capsys)
    # a point file's check reads neither the family nor a size
    assert run("verify", "geometric", faure_file) == 0
    capsys.readouterr()
    for flag in ("family", "b", "m", "s", "alpha"):
        _refused(("verify", "geometric", faure_file, f"--{flag}", FLAG_VALUES[flag]),
                 f"point-file input does not take --{flag}", capsys)
    # verify builds matrix families only, so it has no --N at all
    _refused(("verify", "geometric", faure_file, "--N", "4"), "unrecognized arguments: --N 4", capsys)
