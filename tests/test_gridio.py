import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthuq.gridio import (
    GridFormatError,
    read_grid,
    read_keyvalue,
    valid_mask,
    write_csv,
    write_grid,
    write_keyvalue,
    write_ppm,
)


def test_round_trip_2x3(tmp_path):
    path = tmp_path / "g.duv"
    values = np.arange(6, dtype=np.float64).reshape(2, 3)
    write_grid(path, values)
    back = read_grid(path)
    assert back.shape == (2, 3)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, values)


def test_round_trip_singleton(tmp_path):
    path = tmp_path / "one.duv"
    write_grid(path, np.full((1, 1, 1), 3.5))
    back = read_grid(path)
    assert back.shape == (1, 1, 1)
    assert back.reshape(-1)[0] == 3.5


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.duv"
    path.write_bytes(b"XXXX" + b"\x00" * 12)
    with pytest.raises(GridFormatError):
        read_grid(path)


def test_error_carries_byte_offset(tmp_path):
    path = tmp_path / "bad.duv"
    path.write_bytes(b"XXXX" + b"\x00" * 12)
    try:
        read_grid(path)
    except GridFormatError as exc:
        assert exc.offset == 0


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.duv"
    write_grid(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    blob = path.read_bytes()
    path.write_bytes(blob[:-2])
    with pytest.raises(GridFormatError):
        read_grid(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.duv"
    write_grid(path, np.array([1.0, 2.0]))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(GridFormatError):
        read_grid(path)


def test_rank_limits(tmp_path):
    with pytest.raises(ValueError):
        write_grid(tmp_path / "x.duv", np.zeros((2, 2, 2, 2, 2)))


def test_extent_and_size_limits(tmp_path):
    with pytest.raises(ValueError, match="extents must be >= 1"):
        write_grid(tmp_path / "x.duv", np.zeros((2, 0)))
    # a broadcast view describes 2^32 elements without allocating them
    with pytest.raises(ValueError, match="too large"):
        write_grid(tmp_path / "x.duv", np.broadcast_to(np.float64(0.0), (1 << 16, 1 << 16)))
    assert not (tmp_path / "x.duv").exists()


def test_finite_entries_beyond_float32_fail_before_the_file_opens(tmp_path):
    # the float32 cast stored them as +-inf, with only a RuntimeWarning
    big = float(np.finfo(np.float32).max)
    path = tmp_path / "x.duv"
    for values, count in (([1.0, 1e39], 1), ([-1e308, 2.0, 1e300], 2), ([2.0 * big], 1)):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {count} finite entries"):
            write_grid(path, values)
        assert not path.exists()
    # NaN, +-inf and values that round to the float32 extremes stay legal
    write_grid(path, [np.nan, np.inf, -np.inf, -big, big * (1.0 + 2.0**-26)])
    back = read_grid(path)
    assert np.isnan(back[0]) and back[1:3].tolist() == [np.inf, -np.inf]
    assert back[3:].tolist() == [-big, big]


def test_nan_payload_survives(tmp_path):
    path = tmp_path / "nan.duv"
    values = np.array([1.0, np.nan, -3.0])
    write_grid(path, values)
    back = read_grid(path)
    assert np.isnan(back[1]) and back[0] == 1.0 and back[2] == -3.0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=1,
        max_size=30,
    )
)
def test_round_trip_bit_exact(tmp_path_factory, values):
    # disk payload is f32, so cast first; after that the trip is exact
    path = tmp_path_factory.mktemp("rt") / "g.duv"
    arr = np.array(values, dtype=np.float32).astype(np.float64)
    write_grid(path, arr)
    np.testing.assert_array_equal(read_grid(path), arr)


def test_valid_mask_convention():
    gt = np.array([[1.0, 0.0], [-2.0, np.nan], [np.inf, 0.5]])
    np.testing.assert_array_equal(
        valid_mask(gt), [[True, False], [False, False], [False, True]]
    )


def test_csv_two_columns(tmp_path):
    path = tmp_path / "c.csv"
    write_csv(path, ["f", "e"], [(0.0, 1.0), (0.5, 0.8)])
    lines = path.read_text().splitlines()
    assert lines[0] == "f,e"
    assert len(lines) == 3


def test_csv_empty_columns(tmp_path):
    path = tmp_path / "c.csv"
    write_csv(path, ["f", "e"], [])
    assert path.read_text() == "f,e\n"


def test_csv_reparse_exact(tmp_path):
    path = tmp_path / "c.csv"
    cols = {"a": [1 / 3, 2e-17, -5.25], "b": [0.1, 0.2, 0.30000000000000004]}
    write_csv(path, cols, zip(cols["a"], cols["b"]))
    lines = path.read_text().splitlines()[1:]
    parsed = np.array([[float(c) for c in ln.split(",")] for ln in lines])
    # repr round-trips float64 exactly, not merely to 1e-9
    np.testing.assert_array_equal(parsed[:, 0], cols["a"])
    np.testing.assert_array_equal(parsed[:, 1], cols["b"])


def test_csv_ragged_rejected(tmp_path):
    with pytest.raises(ValueError, match="ragged"):
        write_csv(tmp_path / "c.csv", ["a", "b"], [(1.0, 1.0), (2.0,)])
    with pytest.raises(KeyError):
        write_csv(tmp_path / "c.csv", ["a", "b"], [{"a": 1.0}])


def test_csv_bad_name_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "c.csv", ["a,b"], [(1.0,)])


def test_csv_cell_rules(tmp_path):
    path = tmp_path / "c.csv"
    row = {"s": "full", "none": None, "flag": np.bool_(True), "n": np.int64(7),
           "x": np.float64(0.1), "extra": 1.0}
    write_csv(path, ["s", "none", "flag", "n", "x"], [row, ("b", 2.5, False, 3, 1e-300)])
    assert path.read_bytes() == b"s,none,flag,n,x\nfull,,1,7,0.1\nb,2.5,0,3,1e-300\n"


def test_keyvalue_round_trip(tmp_path):
    path = tmp_path / "m.txt"
    write_keyvalue(path, {"head": "regression", "scale": 1 / 3, "m": 16,
                          "lo": np.array([-0.5, 2.0]), "res": (4, 5, 6)})
    assert path.read_text() == "head=regression\nscale=0.3333333333333333\nm=16\nlo=-0.5,2.0\nres=4,5,6\n"
    assert read_keyvalue(path, required=("m", "lo")) == {
        "head": "regression", "scale": "0.3333333333333333", "m": "16", "lo": "-0.5,2.0", "res": "4,5,6",
    }


def test_keyvalue_comments_blanks_and_last_wins(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# header\n\n a = 1 # note\nb=2\na=3\n")
    pairs = read_keyvalue(path)
    assert pairs == {"b": "2", "a": "3"}
    assert list(pairs) == ["b", "a"]  # ordered by each key's last occurrence


@pytest.mark.parametrize(
    "text, message",
    [("a=1\nno equals\n", "m.txt:2: expected key=value"),
     ("=1\n", "m.txt:1: empty key or value"),
     ("a=  # nothing\n", "m.txt:1: empty key or value"),
     ("a=1\n", "missing key\\(s\\) b, c")],
)
def test_keyvalue_malformed_rejected(tmp_path, text, message):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_keyvalue(path, required=("a", "b", "c"))


@pytest.mark.parametrize("pairs", [{"a=b": 1}, {"": 1}, {"a": ""}, {"a": None}, {"a": "x#y"}, {"a": "1\n2"}])
def test_keyvalue_write_rejects_unreadable_pairs(tmp_path, pairs):
    with pytest.raises(ValueError):
        write_keyvalue(tmp_path / "m.txt", pairs)


FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def test_only_gridio_touches_files():
    # every on-disk format lives in gridio; other modules go through it
    src = Path(__file__).resolve().parents[1] / "src" / "depthuq"
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "gridio.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name in FILE_CALLS:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


def test_ppm_single_pixel(tmp_path):
    path = tmp_path / "p.ppm"
    write_ppm(path, 1, 1, [1.0, 0.0, 0.0])
    blob = path.read_bytes()
    assert blob.startswith(b"P6\n1 1\n255\n")
    assert blob[-3:] == bytes([255, 0, 0])


def test_ppm_rounds_half_up(tmp_path):
    path = tmp_path / "p.ppm"
    write_ppm(path, 1, 1, [0.5, 0.5, 0.5])
    assert path.read_bytes()[-3:] == bytes([128, 128, 128])


def test_ppm_clamps(tmp_path):
    path = tmp_path / "p.ppm"
    write_ppm(path, 1, 1, [2.0, -1.0, 0.0])
    assert path.read_bytes()[-3:] == bytes([255, 0, 0])


def test_ppm_length_mismatch(tmp_path):
    with pytest.raises(ValueError):
        write_ppm(tmp_path / "p.ppm", 2, 2, [0.0, 0.0, 0.0])
