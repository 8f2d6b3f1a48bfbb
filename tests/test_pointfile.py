import numpy as np
import pytest

from lowdisc.constructions import davenport_symmetrized, dp_finite_pointset, van_der_corput
from lowdisc.errors import ParameterError
from lowdisc.nets import PointSet
from lowdisc.pointfile import (
    dumps_point_file,
    loads_point_file,
    read_point_file,
    write_point_file,
)


def test_round_trip_base2(tmp_path):
    ps = van_der_corput(2, 3)
    path = tmp_path / "vdc.txt"
    write_point_file(ps, path)
    assert read_point_file(path) == ps


def test_round_trip_large_base_uses_commas(tmp_path):
    digits = np.array([[[10, 0], [3, 7]], [[0, 1], [0, 0]]], dtype=np.uint8)
    ps = PointSet.from_digits(digits, 11, provenance={"family": "manual"})
    text = dumps_point_file(ps)
    assert "10,0 3,7" in text
    assert loads_point_file(text) == ps


def test_round_trip_preserves_provenance(tmp_path):
    ps = dp_finite_pointset(5, 2)
    path = tmp_path / "dpf.txt"
    write_point_file(ps, path)
    back = read_point_file(path)
    assert back.provenance == {"family": "dp-finite", "N": 5, "s": 2}
    assert back == ps


def test_round_trip_quantized_set(tmp_path):
    ps = davenport_symmetrized(6)
    path = tmp_path / "dav.txt"
    write_point_file(ps, path)
    assert read_point_file(path) == ps


def test_header_reports_m():
    text = dumps_point_file(van_der_corput(2, 3))
    assert text.splitlines()[0] == "2 3 1 3 8"


def test_parse_errors_carry_line_numbers():
    good = dumps_point_file(van_der_corput(2, 2))
    lines = good.splitlines()
    # corrupt one coordinate on the last line
    lines[-1] = lines[-1] + " 11"
    with pytest.raises(ParameterError, match=r"line 6"):
        loads_point_file("\n".join(lines))
    with pytest.raises(ParameterError, match=r"line 1"):
        loads_point_file("")
    with pytest.raises(ParameterError, match=r"line 1"):
        loads_point_file("2 1 1\n")
    # header count disagrees with body
    bad_count = good.replace(" 4", " 5", 1)
    with pytest.raises(ParameterError, match=r"points"):
        loads_point_file(bad_count)


def test_digit_out_of_range_rejected():
    text = "2 1 1 2 1\n21\n"
    with pytest.raises(ParameterError, match=r"line 2"):
        loads_point_file(text)
