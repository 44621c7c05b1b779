"""Tests for binary PGM/PPM reading and writing."""

import numpy as np
import pytest

from leakscan.errors import DataError
from leakscan.pnm import read_pnm, write_pnm


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(1, 1), (3, 5), (64, 64)]:
        arr = rng.integers(0, 256, size=shape, dtype=np.uint8)
        path = tmp_path / "img.pgm"
        write_pnm(str(path), arr)
        np.testing.assert_array_equal(read_pnm(str(path)), arr)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.integers(0, 256, size=(7, 4, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    write_pnm(str(path), arr)
    np.testing.assert_array_equal(read_pnm(str(path)), arr)


def test_header_comments_and_whitespace(tmp_path):
    payload = bytes(range(6))
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n 3\n#more\n2 255\n" + payload)
    arr = read_pnm(str(path))
    assert arr.shape == (2, 3)
    assert arr.tobytes() == payload


def test_bad_magic(tmp_path):
    path = tmp_path / "b.pnm"
    path.write_bytes(b"P3\n2 2\n255\n0 0 0 0")
    with pytest.raises(DataError, match="magic"):
        read_pnm(str(path))


def test_bad_maxval(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(DataError, match="maxval"):
        read_pnm(str(path))


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(DataError, match="truncated"):
        read_pnm(str(path))


def test_truncated_header(tmp_path):
    path = tmp_path / "h.pgm"
    path.write_bytes(b"P5\n4")
    with pytest.raises(DataError, match="header"):
        read_pnm(str(path))


def test_non_decimal_header_fields(tmp_path):
    path = tmp_path / "n.pgm"
    for header in (b"P5\n+4 1\n255\n", b"P5\n4 1_0\n255\n", b"P5\n-3 4\n255\n"):
        path.write_bytes(header + bytes(40))
        with pytest.raises(DataError, match="bad PNM header field"):
            read_pnm(str(path))


def test_bad_dimensions(tmp_path):
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P5\n0 4\n255\n")
    with pytest.raises(DataError, match="dimensions"):
        read_pnm(str(path))


def test_writer_rejects_bad_arrays(tmp_path):
    path = tmp_path / "w.pgm"
    with pytest.raises(DataError, match="uint8"):
        write_pnm(str(path), np.zeros((2, 2), dtype=np.float64))
    with pytest.raises(DataError, match="shape"):
        write_pnm(str(path), np.zeros((2, 2, 4), dtype=np.uint8))


def test_writer_rejects_zero_size_arrays(tmp_path):
    path = tmp_path / "z.pgm"
    for shape in [(0, 5), (5, 0), (0, 0), (0, 4, 3), (4, 0, 3)]:
        with pytest.raises(DataError, match="non-empty"):
            write_pnm(str(path), np.zeros(shape, dtype=np.uint8))
        assert not path.exists()


def _mutate_pnm(rng, data: bytes, header_len: int) -> bytes:
    kind = int(rng.integers(0, 5))
    if kind == 0:  # truncate anywhere, header included
        return data[: int(rng.integers(0, len(data)))]
    if kind == 1:  # flip one header byte
        i = int(rng.integers(0, header_len))
        return data[:i] + bytes([int(rng.integers(0, 256))]) + data[i + 1 :]
    if kind == 2:  # insert a digit, whitespace or '#' into the header
        i = int(rng.integers(0, header_len + 1))
        c = rng.choice([b"0", b"7", b"9", b" ", b"\n", b"\t", b"#", b"-"])
        return data[:i] + c + data[i:]
    # replace width or height with a huge, zero or negative value
    value = rng.choice([b"0", b"-3", b"-0", b"99999999999999999999", b"4294967297", b"1" * 40])
    fields = data[:header_len].split(b"\n")  # magic, "w h", maxval, ""
    w, h = fields[1].split(b" ")
    fields[1] = b" ".join([value, h] if kind == 3 else [w, value])
    return b"\n".join(fields) + data[header_len:]


def test_read_pnm_fuzz_raises_only_data_error(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "f.pnm"
    outcomes = {"read": 0, "DataError": 0}
    for _ in range(600):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        if rng.integers(0, 2):
            shape += (3,)
        write_pnm(str(path), rng.integers(0, 256, size=shape, dtype=np.uint8))
        data = path.read_bytes()
        header_len = len(data) - int(np.prod(shape))
        path.write_bytes(_mutate_pnm(rng, data, header_len))
        try:
            arr = read_pnm(str(path))
        except DataError:
            outcomes["DataError"] += 1
            continue
        assert arr.dtype == np.uint8 and arr.ndim in (2, 3) and arr.size > 0
        outcomes["read"] += 1
    assert min(outcomes.values()) > 20, outcomes  # both outcomes are exercised
