import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modquant import (
    CalibrationSet,
    FormatError,
    InvariantError,
    QuantConfig,
    TileConfig,
    generate_model,
    hessian_from_samples,
    load_container,
    load_model,
    pack_linear,
    quant_matmul,
    rtn_quantize,
    save_model,
    seeded_random_matrix,
    synthetic_activations,
    write_container,
)
from modquant.tensorio import PAYLOAD_ALIGN, check_matrix


def test_roundtrip_identity(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {"w": np.zeros((2, 2), dtype=np.float32)})
    back = load_container(path)[0]
    assert list(back) == ["w"]
    assert np.array_equal(back["w"], np.zeros((2, 2), dtype=np.float32))


def test_empty_map_is_valid(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {})
    assert load_container(path)[0] == {}


def test_many_random_tensors_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        f"t{i}": rng.standard_normal(
            (int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        ).astype(np.float32)
        for i in range(1000)
    }
    path = tmp_path / "c.bin"
    write_container(path, tensors)
    back = load_container(path)[0]
    for name, t in tensors.items():
        assert back[name].tobytes() == t.tobytes()


def test_independent_manifest_reparse(tmp_path):
    # Oracle: re-read the payload by hand from the manifest offsets and
    # compare against what load_container materializes.
    tensors = {
        "a": seeded_random_matrix(3, 5, 1),
        "b": np.arange(7, dtype=np.int32),
        "c": seeded_random_matrix(2, 2, 2).astype(np.float16),
    }
    path = tmp_path / "c.bin"
    write_container(path, tensors)

    blob = path.read_bytes()
    magic, version, mlen = struct.unpack_from("<4sIQ", blob)
    assert magic == b"CMDQ" and version == 1
    manifest = json.loads(blob[16 : 16 + mlen])
    payload = blob[16 + mlen :]
    back = load_container(path)[0]
    covered = []
    for name, entry in manifest["tensors"].items():
        raw = payload[entry["offset"] : entry["offset"] + entry["length"]]
        assert raw == back[name].tobytes() == tensors[name].tobytes()
        covered.append((entry["offset"], entry["offset"] + entry["length"]))
    covered.sort()
    # byte ranges partition the payload: no gaps, no overlap
    assert covered[0][0] == 0 and covered[-1][1] == len(payload)
    for (_, end), (start, _) in zip(covered, covered[1:]):
        assert start == end


def test_loaded_tensors_are_writable_aligned_and_independent(tmp_path):
    # "c" is an odd-length f16 tensor, so "d" after it starts 2 bytes off
    # its f32 alignment in the payload and must still load aligned.
    tensors = {
        "a": seeded_random_matrix(3, 5, 1),
        "b": np.arange(7, dtype=np.int32),
        "c": np.arange(3, dtype=np.float16),
        "d": seeded_random_matrix(2, 3, 2),
        "e": np.arange(6, dtype=np.uint32).reshape(2, 3),
    }
    path = tmp_path / "c.bin"
    write_container(path, tensors)
    blob = path.read_bytes()
    back, _ = load_container(path)
    assert back["a"].ctypes.data % PAYLOAD_ALIGN == 0  # the payload's start
    for name, t in back.items():
        assert t.flags.writeable and t.flags.aligned, name
    names = list(tensors)
    for k, name in enumerate(names):
        back[name].view(np.uint8).fill(0xA5)
        assert (back[name].view(np.uint8) == 0xA5).all()
        for other in names[k + 1 :]:
            assert back[other].tobytes() == tensors[other].tobytes(), (name, other)
    assert path.read_bytes() == blob


def test_load_peak_memory_is_about_the_file_size(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {f"w{i}": seeded_random_matrix(512, 512, i) for i in range(4)})
    size = path.stat().st_size
    tracemalloc.start()
    try:
        back, _ = load_container(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(back) == 4
    assert peak <= 1.1 * size, (peak, size)


def test_save_copies_no_payload(tmp_path):
    """Each tensor's own buffer is written: no copy of the 16.8 MB payload."""
    model = generate_model(0, 2, 512, seed=1)
    tracemalloc.start()
    try:
        save_model(model, tmp_path / "m.bin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert load_model(tmp_path / "m.bin").weights.keys() == model.weights.keys()


def test_attrs_roundtrip(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {"x": np.zeros(3, dtype=np.uint32)}, {"bits": 4})
    _, attrs = load_container(path)
    assert attrs == {"bits": 4}


def test_bad_magic(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {"x": np.zeros(3, dtype=np.uint32)})
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="magic"):
        load_container(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "c.bin"
    write_container(path, {})
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="version"):
        load_container(path)


@pytest.mark.parametrize("cut", [1, 5, 17])
def test_truncated_payload(tmp_path, cut):
    path = tmp_path / "c.bin"
    write_container(path, {"x": seeded_random_matrix(8, 8, 0)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-cut])
    with pytest.raises(FormatError):
        load_container(path)


def test_corrupt_manifest_fuzz(tmp_path):
    # Flipping bytes inside the JSON manifest must never yield a partial
    # tensor map: either the original data or a FormatError.
    path = tmp_path / "c.bin"
    write_container(path, {"x": seeded_random_matrix(4, 4, 3)})
    blob = path.read_bytes()
    rng = np.random.default_rng(4)
    for _ in range(50):
        pos = int(rng.integers(16, 16 + 40))
        corrupted = bytearray(blob)
        corrupted[pos] ^= 0xFF
        path.write_bytes(corrupted)
        try:
            back = load_container(path)[0]
        except FormatError:
            continue
        for t in back.values():
            assert t.size in (0, 16)


# Where this stands in a manifest, _write_raw writes a list nested deeper
# than the JSON parser can go (json.dumps cannot write one).
DEEP = "<deep list>"


def _write_raw(path, manifest, payload):
    deep = "[" * 100_000 + "]" * 100_000
    raw = json.dumps(manifest).replace(json.dumps(DEEP), deep).encode("utf-8")
    path.write_bytes(struct.pack("<4sIQ", b"CMDQ", 1, len(raw)) + raw + payload)


def _entry(shape, offset=0, length=None, dtype="f32"):
    if length is None:
        length = 4 * int(np.prod(shape))
    return {"dtype": dtype, "shape": shape, "offset": offset, "length": length}


@pytest.mark.parametrize(
    "tensors,attrs,payload",
    [
        ({"x": _entry([-1, 4], length=-16)}, {}, bytes(32)),
        ({"x": _entry([-2, -4], length=32)}, {}, bytes(32)),
        ({"x": _entry([2, 4], offset=-32)}, {}, bytes(32)),
        ([1, 2], {}, b""),
        ({"x": 5}, {}, bytes(4)),
        ({"x": _entry([1, 2, 2])}, {}, bytes(16)),
        ({"x": _entry([])}, {}, bytes(4)),
        ({"x": _entry([2, 2], offset=4)}, {}, bytes(20)),
        ({"x": _entry([2, 2])}, {}, bytes(20)),
        ({"x": _entry([2, 2]), "y": _entry([2], offset=8)}, {}, bytes(16)),
        ({"x": _entry([1])}, [1], bytes(4)),
        ({"x": _entry([2**70], length=4)}, {}, bytes(4)),
        ({"x": _entry([float("inf")], length=4)}, {}, bytes(4)),
        ({"x": _entry([1])}, {"names": DEEP}, bytes(4)),
        ({"x": _entry("24", length=32)}, {}, bytes(32)),
        ({"x": _entry([2.9, 4.2], length=32)}, {}, bytes(32)),
        ({"x": _entry([True, 8], length=32)}, {}, bytes(32)),
        ({"x": _entry([2, 4], offset="0")}, {}, bytes(32)),
        ({"x": _entry([2, 4], length=32.5)}, {}, bytes(32)),
        ({"x": _entry([2, 4], dtype="f64")}, {}, bytes(32)),
        ({"x": _entry([2, 4], dtype=4)}, {}, bytes(32)),
    ],
    ids=["negative-dim-and-length", "negative-dims", "negative-offset",
         "tensors-not-a-map", "entry-not-a-map", "3-d", "0-d", "gap",
         "trailing-bytes", "overlap", "attrs-not-a-map", "dim-over-int64",
         "infinite-dim", "nested-too-deep", "shape-a-string", "float-dims",
         "bool-dim", "offset-a-string", "float-length", "unknown-dtype",
         "dtype-not-a-str"],
)
def test_bad_manifest_is_format_error(tmp_path, tensors, attrs, payload):
    path = tmp_path / "c.bin"
    _write_raw(path, {"tensors": tensors, "attrs": attrs}, payload)
    with pytest.raises(FormatError, match=re.escape(str(path))):
        load_container(path)


@pytest.fixture(scope="module")
def small_container(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "c.bin"
    write_container(
        path,
        {"w": seeded_random_matrix(3, 5, 7), "idx": np.arange(4, dtype=np.int32)},
        {"bits": 4, "names": ["w", "idx"]},
    )
    return path, path.read_bytes()


# (kind, position, bytes): positions are taken modulo the current length + 1.
_EDITS = st.tuples(
    st.sampled_from(["overwrite", "truncate", "insert"]),
    st.integers(0, 1 << 16),
    st.binary(min_size=1, max_size=8),
)


@settings(max_examples=400)
@given(edits=st.lists(_EDITS, min_size=1, max_size=4))
def test_mutated_container_loads_or_is_format_error(small_container, edits):
    path, blob = small_container
    data = bytearray(blob)
    for kind, pos, chunk in edits:
        pos %= len(data) + 1
        if kind == "overwrite":
            data[pos : pos + len(chunk)] = chunk
        elif kind == "truncate":
            del data[pos:]
        else:
            data[pos:pos] = chunk
    path.write_bytes(bytes(data))
    try:
        load_container(path)
    except FormatError:
        pass


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(InvariantError, match="dtype"):
        write_container(tmp_path / "c.bin", {"x": np.zeros(2, dtype=np.float64)})


class TestDenseMatrix:
    def test_rejects_nan(self):
        with pytest.raises(InvariantError, match="NaN"):
            check_matrix([[np.nan, 1.0]])

    def test_rejects_wrong_rank(self):
        with pytest.raises(InvariantError):
            check_matrix(np.zeros(3))


# Inputs that no numpy cast warning or error may reach a caller for: each is
# an InvariantError from check_matrix, whatever entry point it comes in by.
BAD_MATRICES = {
    "beyond float32": ([[1e300, 1.0]], "beyond float32's range"),
    "beyond float32 array": (np.array([[1.0, -1e39]]), "beyond float32's range"),
    "complex": ([[1 + 2j, 3]], "real numbers, got dtype complex128"),
    "complex array": (np.array([[1 + 0j, 3]]), "real numbers, got dtype complex128"),
    "ragged": ([[1.0, 2.0], [3.0]], "expected a numeric matrix"),
    "strings": ([["a", "b"]], "real numbers"),
    "numeric strings": ([["1.5"]], "real numbers"),
    "None": ([[None, 1.0]], "real numbers, got dtype object"),
    "objects": ([[object()]], "real numbers, got dtype object"),
    "scalar": (3.0, r"2-D matrix, got shape \(\)$"),
}
_LAYER = pack_linear(rtn_quantize(seeded_random_matrix(8, 4, 0), QuantConfig(bits=8)))
MATRIX_ENTRY_POINTS = {
    "check_matrix": check_matrix,
    "rtn_quantize": lambda m: rtn_quantize(m, QuantConfig()),
    "hessian_from_samples": lambda m: hessian_from_samples([m], 0.01),
    "CalibrationSet": lambda m: CalibrationSet("vision", [seeded_random_matrix(1, 2, 0), m]),
    "quant_matmul": lambda m: quant_matmul(m, _LAYER, TileConfig(16, 16, 16)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", MATRIX_ENTRY_POINTS)
@pytest.mark.parametrize("bad", BAD_MATRICES)
def test_malformed_matrices_are_invariant_errors(bad, entry):
    m, message = BAD_MATRICES[bad]
    with pytest.raises(InvariantError, match=message):
        MATRIX_ENTRY_POINTS[entry](m)


class TestSeededRandomMatrix:
    def test_deterministic(self):
        a = seeded_random_matrix(2, 2, 7)
        b = seeded_random_matrix(2, 2, 7)
        assert np.array_equal(a, b)
        assert a.dtype == np.float32

    def test_seed_collisions(self):
        seen = {seeded_random_matrix(1, 1, s).tobytes() for s in range(1000)}
        # the 1000 seeds should essentially never collide
        assert len(seen) >= 999

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvariantError):
            seeded_random_matrix(0, 4, 1)

    @pytest.mark.parametrize("make", [
        lambda seed: seeded_random_matrix(2, 2, seed),
        lambda seed: synthetic_activations(2, 2, seed),
        lambda seed: generate_model(1, 1, 8, seed),
    ], ids=["seeded_random_matrix", "synthetic_activations", "generate_model"])
    def test_negative_seed_rejected(self, make):
        with pytest.raises(InvariantError, match="seed must be an integer >= 0, got -1"):
            make(-1)

    @pytest.mark.parametrize("seed", [None, True, 1.0, "1", [1]],
                             ids=["None", "True", "float", "str", "list"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(InvariantError, match="seed must be an integer >= 0"):
            seeded_random_matrix(2, 2, seed)

    def test_numpy_integer_seed_is_its_int(self):
        assert np.array_equal(seeded_random_matrix(2, 2, np.int64(7)),
                              seeded_random_matrix(2, 2, 7))

    def test_rows_extend_the_same_stream(self):
        assert np.array_equal(seeded_random_matrix(6, 3, 5)[:2], seeded_random_matrix(2, 3, 5))

    def test_statistics(self):
        m = seeded_random_matrix(1000, 1000, 42)
        assert abs(float(m.mean())) < 1.0
        assert abs(float(m.std()) - 1.0) < 0.05
