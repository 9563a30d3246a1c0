"""Every on-disk format of the package; the only module that opens files.

* ``.duv`` grid: 4-byte magic ``DUV1``, uint32 ndim (1..4), one uint32
  extent per axis, then float32 little-endian values in row-major order
  (last axis fastest).  A write/read round trip is bit exact for finite
  payloads; NaN is legal and marks invalid pixels in ground-truth depth.
  A finite value beyond float32 range is refused, not stored as ±inf.
* CSV: ASCII, comma separated, LF line endings, a header row.  Floats
  are written in their shortest exact decimal form, so a reparse
  recovers the value bit for bit; integers and booleans as integers;
  ``None`` (an undefined metric) as an empty cell.
* key=value sidecar (model manifest, voxel-grid metadata, ``--config``
  file): one pair per line, a value being a CSV cell or comma-joined
  cells.  On read ``#`` starts a comment, blank lines are skipped and a
  repeated key keeps its last value; a malformed line or a missing
  required key is a ``ValueError`` naming the file.  ``keyvalue_numbers``
  parses a numeric value, and a bad one is a ``ValueError`` naming the
  file and the key.
* PPM: binary P6, 8 bits per channel, values clamped to [0, 1] and
  rounded half-up.

Readers return float64 arrays.  ``write_grid`` takes a real array of
any float dtype and rounds each value to float32 once, at the file
boundary, so a float32 array (the toy model's weights and features are
float32 in memory) is stored bit for bit.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"DUV1"
MAX_NDIM = 4
# caps the element count so dims cannot describe a payload we would
# never accept anyway (2^31 floats ~ 8 GiB)
MAX_ELEMENTS = 1 << 31


class GridFormatError(ValueError):
    """A .duv file violates the format contract.

    The message always carries the byte offset at which the problem was
    detected.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def grid_payload(path, values) -> np.ndarray:
    """The float32 array ``write_grid`` would store at ``path``, or ValueError.

    The array's shape gives the extents (rank 1..4, every extent >= 1);
    entries may be NaN or infinite, but a finite entry outside float32
    range is a ValueError naming ``path``: the cast would store it as
    ±inf.  Nothing is opened, so a writer of several grids can check
    them all before it writes the first.
    """
    arr = np.asarray(values, dtype=np.float64)
    dims = arr.shape
    if len(dims) < 1 or len(dims) > MAX_NDIM:
        raise ValueError(f"grid rank must be 1..{MAX_NDIM}, got {len(dims)}")
    if any(d < 1 for d in dims):
        raise ValueError(f"grid extents must be >= 1, got {dims}")
    if arr.size > MAX_ELEMENTS:
        raise ValueError(f"grid too large: {arr.size} elements")
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(arr, dtype="<f4")
    # the cast keeps NaN and ±inf, so any extra inf is an overflow
    overflow = np.count_nonzero(np.isinf(payload)) - np.count_nonzero(np.isinf(arr))
    if overflow:
        raise ValueError(f"{path}: {overflow} finite entries exceed the float32 range")
    return payload


def write_grid(path, values) -> None:
    """Serialize the array ``values`` to ``path`` in the DUV1 layout.

    ``grid_payload`` checks ``values`` before the file is opened.
    """
    payload = grid_payload(path, values)
    header = MAGIC + struct.pack("<I", payload.ndim)
    header += struct.pack(f"<{payload.ndim}I", *payload.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def read_grid(path) -> np.ndarray:
    """Parse a DUV1 file into a float64 array shaped by its extents.

    Raises GridFormatError with a byte offset.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise GridFormatError(f"bad magic {blob[:4]!r}, want {MAGIC!r}", 0)
    if len(blob) < 8:
        raise GridFormatError("truncated header: missing ndim", 4)
    (ndim,) = struct.unpack_from("<I", blob, 4)
    if ndim < 1 or ndim > MAX_NDIM:
        raise GridFormatError(f"ndim {ndim} outside 1..{MAX_NDIM}", 4)
    if len(blob) < 8 + 4 * ndim:
        raise GridFormatError("truncated header: missing dims", len(blob))
    dims = struct.unpack_from(f"<{ndim}I", blob, 8)
    count = 1
    for i, d in enumerate(dims):
        if d < 1:
            raise GridFormatError(f"dim[{i}] = {d} invalid", 8 + 4 * i)
        count *= d
        if count > MAX_ELEMENTS:
            raise GridFormatError(f"dims overflow: product exceeds {MAX_ELEMENTS}", 8 + 4 * i)
    payload_at = 8 + 4 * ndim
    expected = payload_at + 4 * count
    if len(blob) < expected:
        raise GridFormatError(
            f"truncated payload: want {expected} bytes, have {len(blob)}", len(blob)
        )
    if len(blob) > expected:
        raise GridFormatError("trailing bytes after payload", expected)
    flat = np.frombuffer(blob, dtype="<f4", count=count, offset=payload_at)
    return flat.astype(np.float64).reshape(dims)


def valid_mask(gt) -> np.ndarray:
    """Pixel validity for a ground-truth depth map: finite and > 0."""
    arr = np.asarray(gt, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        return np.isfinite(arr) & (arr > 0.0)


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return str(int(v))
    # repr gives the shortest decimal that parses back to the same
    # float64, so no precision is lost in the file
    return repr(float(v))


def _check_text(text: str, forbidden: str, what: str) -> None:
    if not text or any(c in text for c in forbidden):
        raise ValueError(f"illegal {what} {text!r}")


def write_csv(path, names, rows) -> None:
    """Write a header of ``names``, then one line per row.

    A row is a sequence of cells or a mapping read by name (other keys
    are left out).  Zero rows give a header-only file.
    """
    names = list(names)
    if not names:
        raise ValueError("no columns to write")
    for name in names:
        _check_text(name, ",\n\r", "column name")
    lines = [",".join(names)]
    for i, row in enumerate(rows):
        cells = [row[n] for n in names] if hasattr(row, "keys") else list(row)
        if len(cells) != len(names):
            raise ValueError(f"ragged row {i}: {len(cells)} cells for {len(names)} columns")
        lines.append(",".join(map(_format_cell, cells)))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_keyvalue(path, pairs) -> None:
    """Write a mapping as ``key=value`` lines; a sequence value as comma-joined cells."""
    lines = []
    for key, value in pairs.items():
        text = ",".join(map(_format_cell, np.atleast_1d(value)))
        _check_text(key, "=#\n\r", "key")
        _check_text(text, "#\n\r", f"value for key {key!r}:")
        lines.append(f"{key}={text}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_keyvalue(path, required=()) -> dict[str, str]:
    """Parse a ``key=value`` file into stripped strings.

    Keys are ordered by their last occurrence, whose value they keep.
    Raises ValueError with ``path:line`` for a line without ``=`` or with
    an empty key or value, and naming each ``required`` key that is
    missing.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    pairs = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValueError(f"{path}:{lineno}: empty key or value")
        # re-insert so a repeated key also moves last: --config maps "_"
        # to "-" afterwards, and the line read last must still win
        pairs.pop(key, None)
        pairs[key] = value
    missing = [key for key in required if key not in pairs]
    if missing:
        raise ValueError(f"{path}: missing key(s) {', '.join(missing)}")
    return pairs


def keyvalue_numbers(path, pairs, key: str, kind=float, count: int = 1):
    """Parse ``pairs[key]``, read from ``path``, as ``count`` numbers of ``kind``.

    One number comes back as a scalar, several as a tuple.  A wrong
    count or a cell ``kind`` cannot parse is a ValueError naming the
    file and the key.
    """
    text = pairs[key]
    cells = text.split(",")
    want = f"{count} comma-separated {kind.__name__} value(s)"
    if len(cells) != count:
        raise ValueError(f"{path}: key {key!r} wants {want}, got {text!r}")
    try:
        numbers = tuple(kind(cell) for cell in cells)
    except ValueError:
        raise ValueError(f"{path}: key {key!r} wants {want}, got {text!r}") from None
    return numbers[0] if count == 1 else numbers


def write_ppm(path, width: int, height: int, rgb) -> None:
    """Write a binary P6 image from float RGB in [0, 1].

    ``rgb`` must hold height*width*3 values in row-major pixel order.
    Values are clamped then rounded half-up to 8 bits (0.5 -> 128).
    """
    width = int(width)
    height = int(height)
    if width < 1 or height < 1:
        raise ValueError(f"image dims must be >= 1, got {width}x{height}")
    arr = np.asarray(rgb, dtype=np.float64).ravel()
    if arr.size != width * height * 3:
        raise ValueError(f"need {width * height * 3} values, got {arr.size}")
    clamped = np.clip(arr, 0.0, 1.0)
    # floor(x + 0.5) is round-half-up; np.round would round half to even
    bytes8 = np.floor(clamped * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        fh.write(bytes8.tobytes())
