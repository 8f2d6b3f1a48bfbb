import io
import tracemalloc

import numpy as np
import pytest

from lowdisc.constructions import (
    davenport_symmetrized,
    dp_finite_pointset,
    dp_net_matrices,
    faure_matrices,
    van_der_corput,
)
from lowdisc import pointfile
from lowdisc.errors import CapacityError, ParameterError
from lowdisc.nets import PointSet, generate_net_points
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


@pytest.mark.parametrize("base", [2, 5, 11, 251])
@pytest.mark.parametrize("provenance", [None, {"family": "manual", "note": "caf\u00e9"}])
def test_write_point_file_writes_the_dumps_bytes(tmp_path, monkeypatch, base, provenance):
    """A path, a binary stream and dumps_point_file get the same bytes: one point, exactly one
    block, one point past a block and many blocks, each block within the text budget."""
    monkeypatch.setattr(pointfile, "_BLOCK_BYTES", 200)
    rng = np.random.default_rng(base)

    def points(n):
        return PointSet.from_digits(rng.integers(0, base, (n, 3, 4), dtype=np.uint8), base, provenance)

    head = 1 if provenance is None else 2
    per_block = bytes(list(pointfile._blocks(points(100)))[head]).count(b"\n")
    assert 1 < per_block < 100
    for n in (1, per_block, per_block + 1, 7 * per_block + 3):
        ps = points(n)
        blocks = [bytes(block) for block in pointfile._blocks(ps)][head:]
        assert len(blocks) == -(-n // per_block)
        assert max(map(len, blocks)) <= pointfile._BLOCK_BYTES
        path, stream = tmp_path / f"points{n}.txt", io.BytesIO()
        write_point_file(ps, path)
        write_point_file(ps, stream)
        assert path.read_bytes() == stream.getvalue() == dumps_point_file(ps).encode()
        assert not stream.closed
        assert read_point_file(path) == ps


def test_writing_holds_a_few_blocks_beside_the_digit_array(tmp_path):
    ps = generate_net_points(dp_net_matrices(3, 16, 2))
    path = tmp_path / "m16.txt"
    tracemalloc.start()
    try:
        write_point_file(ps, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 6 * pointfile._BLOCK_BYTES
    assert peak <= 3 * pointfile._BLOCK_BYTES


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


def test_provenance_must_be_a_json_object():
    with pytest.raises(ParameterError, match=r"line 2: provenance is not a json object"):
        loads_point_file("2 1 1 2 1\n# provenance: 5\n01\n")


@pytest.mark.parametrize("comment", ["# provenance: ", "#provenance:"])
def test_provenance_beyond_the_int_digit_limit_is_bad_json(comment):
    """json.loads raises a plain ValueError for an integer of more than 4300 digits."""
    with pytest.raises(ParameterError, match=r"line 2: bad provenance json"):
        loads_point_file(f"2 1 1 2 1\n{comment}{{\"a\": {'1' * 5000}}}\n01\n")


def test_str_and_bytes_refuse_non_ascii_text_alike(tmp_path):
    """A Unicode decimal digit is refused in a str as in bytes and in a file, not read as its value."""
    lines = dumps_point_file(generate_net_points(faure_matrices(11, 1, 2))).split("\n")
    assert lines[2] == "1 1"
    lines[2] = "\u0661 1"  # ARABIC-INDIC DIGIT ONE
    text = "\n".join(lines)
    path = tmp_path / "p.txt"
    path.write_bytes(text.encode())
    for load, source in ((loads_point_file, text), (loads_point_file, text.encode()), (read_point_file, path)):
        with pytest.raises(ParameterError, match=r"^line 3: byte 0xd9 is not ASCII$"):
            load(source)


def test_header_above_the_digit_limit_is_refused_before_the_body(monkeypatch):
    def body_work(*args):
        raise AssertionError("the preflight must refuse before reading the body")

    monkeypatch.setattr(pointfile, "_canonical_body", body_work)
    monkeypatch.setattr(pointfile, "_parse_lines", body_work)
    with pytest.raises(CapacityError, match="digit limit"):
        loads_point_file(f"2 40 1 40 {1 << 40}\n")


def test_read_refuses_an_oversized_header_before_reading_the_body(tmp_path, monkeypatch):
    path = tmp_path / "huge.txt"
    path.write_text(f"2 40 1 40 {1 << 40}\n0000\n", encoding="ascii")

    def read_body(*args, **kwargs):
        raise AssertionError("the header must be refused before the body is read")

    monkeypatch.setattr(pointfile.Path, "read_bytes", read_body)
    with pytest.raises(CapacityError, match="digit limit"):
        read_point_file(path)


@pytest.mark.parametrize("text", [
    "",
    "\n",
    "2 1 1 2 1\n01\n",
    "2 1 1 2 1\r\n01\r\n",
    "2 1 1 2 1\x1c01\n",
    f"2 40 1 40 {1 << 40}\x1c0\n",
    "2 1 1 2" + " " * 5000 + " 1\n01\n",
    "2 1 1 2 x\n01\n",
    "2 1\n",
])
def test_read_agrees_with_loads_on_the_first_line(tmp_path, text):
    path = tmp_path / "p.txt"
    path.write_bytes(text.encode("ascii"))
    try:
        expected = loads_point_file(path.read_text(encoding="ascii"))
    except (ParameterError, CapacityError) as exc:
        with pytest.raises(type(exc)) as got:
            read_point_file(path)
        assert str(got.value) == str(exc)
    else:
        assert read_point_file(path) == expected
