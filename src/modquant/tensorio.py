"""Dense matrices, deterministic RNG, and the binary tensor container.

The container layout is:

    bytes 0..3    magic "CMDQ"
    bytes 4..7    format version, u32 little-endian
    bytes 8..15   manifest length in bytes, u64 little-endian
    manifest      UTF-8 JSON: {"tensors": {name: {dtype, shape, offset,
                  length}}, "attrs": {...}}
    payload       concatenated little-endian raw tensor bytes

Offsets in the manifest are relative to the start of the payload and must
tile it without gaps or overlaps. Supported dtypes are f32, f16, u32, i32;
tensors are 1-D or 2-D only.

Loading reads the file once into one buffer whose payload starts on a
PAYLOAD_ALIGN-byte boundary; every tensor is a writable, aligned view of
its own bytes in that buffer, so tensors never share memory.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from typing import Mapping

import numpy as np

from .errors import FormatError, InvariantError

MAGIC = b"CMDQ"
VERSION = 1
# Loaded payloads start on this byte boundary (a cache line).
PAYLOAD_ALIGN = 64

_HEADER = struct.Struct("<4sIQ")

DTYPES = {
    "f32": np.dtype("<f4"),
    "f16": np.dtype("<f2"),
    "u32": np.dtype("<u4"),
    "i32": np.dtype("<i4"),
}
_DTYPE_NAMES = {v: k for k, v in DTYPES.items()}


def check_matrix(m) -> np.ndarray:
    """Validate an array-like as a row-major f32 matrix.

    Raises InvariantError unless `m` is a 2-D array of real numbers (bool,
    integer or float) with both dimensions >= 1 and every value finite and
    within float32's range: a ragged, non-numeric or complex input fails,
    and so does one that only overflows in the cast to float32.
    """
    try:
        a = np.asarray(m)
    except (ValueError, TypeError) as exc:
        raise InvariantError(f"expected a numeric matrix: {exc}") from exc
    if a.dtype.kind not in "biuf":
        raise InvariantError(f"expected a matrix of real numbers, got dtype {a.dtype}")
    if a.ndim != 2:
        raise InvariantError(f"expected a 2-D matrix, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise InvariantError(f"matrix dimensions must be >= 1, got {a.shape}")
    try:
        with np.errstate(over="raise"):
            a = np.ascontiguousarray(a, dtype=np.float32)
    except FloatingPointError as exc:
        raise InvariantError("matrix holds a value beyond float32's range") from exc
    if not np.all(np.isfinite(a)):
        raise InvariantError("matrix contains NaN or Inf")
    return a


def _seeded_rng(seed: int) -> np.random.Generator:
    """numpy's default generator for `seed`, an int or numpy integer >= 0, and
    the package's only maker of generators; any other seed, None (OS
    entropy) and a bool included, is an InvariantError."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvariantError(f"seed must be an integer >= 0, got {seed!r}")
    return np.random.default_rng(seed)


def check_allocatable(rows: int, cols: int, dtype) -> None:
    """An InvariantError for a rows x cols `dtype` array too large for numpy
    to index, which numpy would refuse with a ValueError."""
    if int(rows) * int(cols) * np.dtype(dtype).itemsize > np.iinfo(np.intp).max:
        raise InvariantError(f"a {rows} x {cols} {np.dtype(dtype)} array is too large "
                             "to allocate")


def seeded_random_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Standard-normal f32 matrix; a pure function of (rows, cols, seed), drawn
    row by row from `_seeded_rng(seed)`, so its first r rows are
    `seeded_random_matrix(r, cols, seed)`."""
    if rows < 1 or cols < 1:
        raise InvariantError(f"dimensions must be >= 1, got ({rows}, {cols})")
    check_allocatable(rows, cols, np.float32)
    return _seeded_rng(seed).standard_normal((rows, cols), dtype=np.float32)


def check_tensor(name: str, t: np.ndarray) -> np.ndarray:
    """`t` as the contiguous little-endian array that the container stores
    under `name`; a dtype outside DTYPES, or a rank other than 1 or 2, is an
    InvariantError."""
    t = np.ascontiguousarray(t)
    dt = t.dtype.newbyteorder("<")
    if dt not in _DTYPE_NAMES:
        raise InvariantError(
            f"tensor {name!r}: dtype {t.dtype} not in {sorted(DTYPES)}"
        )
    if t.ndim not in (1, 2):
        raise InvariantError(f"tensor {name!r}: only 1-D/2-D supported, got {t.ndim}-D")
    return t.astype(dt, copy=False)


def write_container(
    path, tensors: Mapping[str, np.ndarray], attrs: dict | None = None
) -> None:
    """Write a tensor map (plus optional JSON-able attributes) to `path`.
    Each tensor goes to the file from the buffer of the array `check_tensor`
    returns, the tensor itself when it is contiguous little-endian."""
    checked = {name: check_tensor(name, t) for name, t in tensors.items()}
    entries = {}
    offset = 0
    for name, t in checked.items():
        entries[name] = {"dtype": _DTYPE_NAMES[t.dtype], "shape": list(t.shape),
                         "offset": offset, "length": t.nbytes}
        offset += t.nbytes
    manifest = json.dumps(
        {"tensors": entries, "attrs": attrs or {}}, sort_keys=True
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, len(manifest)))
        fh.write(manifest)
        for t in checked.values():
            fh.write(t)


def parse_json(path, raw, what: str):
    """The JSON value of `raw`, the UTF-8 bytes of `what` in the file at
    `path`; bytes that do not decode, text that does not parse, or nesting
    too deep for the parser is a FormatError naming the file."""
    try:
        return json.loads(bytes(raw).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: malformed {what}: {exc}") from exc


def _read_body(path):
    """The manifest length and the bytes after the header, read once into a
    fresh buffer placed so that the payload starts on a PAYLOAD_ALIGN
    boundary."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise FormatError(f"{path}: file shorter than the container header")
        magic, version, manifest_len = _HEADER.unpack(header)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise FormatError(f"{path}: unsupported container version {version}")
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size < manifest_len:
            raise FormatError(f"{path}: truncated manifest")
        raw = np.empty(size + PAYLOAD_ALIGN, dtype=np.uint8)
        pad = -(raw.ctypes.data + manifest_len) % PAYLOAD_ALIGN
        body = raw[pad : pad + size]
        if fh.readinto(body) != size:
            raise FormatError(f"{path}: file changed size while being read")
    return manifest_len, body


def load_container(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read back the tensor map and attributes written by `write_container`,
    bit-exactly. Each manifest entry's `dtype` is a str, `shape` a list of
    ints, and `offset` and `length` ints, by `typed_attr`; anything else is
    a FormatError naming the file and the tensor."""
    manifest_len, body = _read_body(path)
    manifest = parse_json(path, body[:manifest_len], "manifest")
    if not isinstance(manifest, dict) or not isinstance(manifest.get("tensors"), dict):
        raise FormatError(f"{path}: manifest missing 'tensors' map")
    attrs = manifest.get("attrs", {})
    if not isinstance(attrs, dict):
        raise FormatError(f"{path}: manifest 'attrs' is not a map")
    payload = body[manifest_len:]

    tensors = {}
    spans = []
    for name, entry in manifest["tensors"].items():
        with file_invariants(f"{path}: tensor {name!r}"):
            dtype = DTYPES.get(typed_attr(entry, "dtype", str))
            if dtype is None:
                raise InvariantError(f"dtype {entry['dtype']!r} not in {sorted(DTYPES)}")
            shape = tuple(list_attr(entry, "shape", int))
            off, length = typed_attr(entry, "offset", int), typed_attr(entry, "length", int)
        if len(shape) not in (1, 2) or min(shape) < 0 or off < 0 or length < 0:
            raise FormatError(
                f"{path}: tensor {name!r} has bad shape {list(shape)}, "
                f"offset {off} or length {length}"
            )
        if off + length > len(payload):
            raise FormatError(
                f"{path}: tensor {name!r} extends past the payload "
                f"({off}+{length} > {len(payload)})"
            )
        expected = math.prod(shape) * dtype.itemsize
        if expected != length:
            raise FormatError(
                f"{path}: tensor {name!r} length {length} != shape bytes {expected}"
            )
        spans.append((off, off + length, name))
        t = payload[off : off + length].view(dtype).reshape(shape)
        # Only a tensor placed off its dtype's alignment (e.g. after an
        # odd-length f16 tensor) is copied.
        tensors[name] = t if t.flags.aligned else t.copy()
    spans.sort()
    end = 0
    for start, stop, name in spans:
        if start != end:
            raise FormatError(
                f"{path}: tensor {name!r} starts at {start}, not at {end}: "
                "tensors must tile the payload without gaps or overlaps"
            )
        end = stop
    if end != len(payload):
        raise FormatError(
            f"{path}: {len(payload) - end} payload bytes after the last tensor"
        )
    return tensors, attrs


@contextmanager
def file_invariants(path):
    """Re-raise an InvariantError met in a reader of the file at `path` as a
    FormatError naming the path; every reader checks its file inside this."""
    try:
        yield
    except InvariantError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def typed_attr(meta, key: str, kind: type | tuple[type, ...]):
    """`meta[key]` when `meta` is a map and the value's type is exactly
    `kind`, or one that a tuple `kind` lists (so a bool is not an int, nor
    is an np.int64); otherwise an InvariantError.

    The package's one rule for field types: loaders apply it to the JSON
    they walk, and each record to its own fields (`vars(self)`) when built."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    value = meta.get(key) if isinstance(meta, dict) else None
    if type(value) not in kinds:
        raise InvariantError(f"attribute {key!r} must be a "
                             f"{' or '.join(k.__name__ for k in kinds)}, got {value!r}")
    return value


def list_attr(meta, key: str, item_kind: type, kind: type | tuple[type, ...] = list):
    """`typed_attr(meta, key, kind)` whose items are all of type exactly
    `item_kind`; otherwise an InvariantError."""
    items = typed_attr(meta, key, kind)
    if any(type(v) is not item_kind for v in items):
        raise InvariantError(f"attribute {key!r} must list {item_kind.__name__} values, "
                             f"got {items!r}")
    return items
