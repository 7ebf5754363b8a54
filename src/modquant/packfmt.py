"""Bit-packed storage for N-bit weights and zero points.

Each 32-bit word holds f_int = 32/N lanes, low lanes first: lane j of word
r stores row r*f_int + j (weights pack along the input axis; zero points
pack along the output axis). Unpacking is shift-and-mask:
value = (word >> (lane * N)) & (2^N - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvariantError
from .quantcore import (
    SUPPORTED_BITS,
    QuantizedMatrix,
    dequantize_codes,
    group_index,
    rows_per_group,
)


def lanes_per_word(bits: int) -> int:
    if bits not in SUPPORTED_BITS:
        raise InvariantError(f"bits must be one of {SUPPORTED_BITS}, got {bits}")
    return 32 // bits


def _check_codes(grid: np.ndarray, bits: int) -> np.ndarray:
    g = np.asarray(grid)
    if g.min(initial=0) < 0 or g.max(initial=0) >= (1 << bits):
        raise InvariantError(f"values out of [0, 2^{bits}) range")
    return g.astype(np.uint32)


def _pack_axis0(grid: np.ndarray, bits: int) -> np.ndarray:
    f_int = lanes_per_word(bits)
    rows, cols = grid.shape
    shifts = (bits * np.arange(f_int, dtype=np.uint32)).reshape(1, f_int, 1)
    lanes = grid.reshape(rows // f_int, f_int, cols) << shifts
    return np.bitwise_or.reduce(lanes, axis=1).astype(np.uint32)


def pack_weights(qint: np.ndarray, bits: int) -> np.ndarray:
    """Pack an I x O integer grid into (I/f_int) x O little-lane words."""
    f_int = lanes_per_word(bits)
    q = _check_codes(qint, bits)
    if q.ndim != 2 or q.shape[0] % f_int != 0:
        raise InvariantError(
            f"row count {q.shape[0]} must be a multiple of f_int = {f_int}"
        )
    return _pack_axis0(q, bits)


def unpack_weights(qweight: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of pack_weights: (I/f_int) x O words back to I x O codes."""
    f_int = lanes_per_word(bits)
    w = np.asarray(qweight, dtype=np.uint32)
    rows, cols = w.shape
    shifts = (bits * np.arange(f_int, dtype=np.uint32)).reshape(1, f_int, 1)
    lanes = np.empty((rows, f_int, cols), dtype=np.uint32)
    np.right_shift(w[:, None, :], shifts, out=lanes)
    lanes &= np.uint32((1 << bits) - 1)
    # Codes are below 2^bits <= 2^8, so the int32 view holds the same values.
    return lanes.reshape(rows * f_int, cols).view(np.int32)


def pack_zeros(zeros: np.ndarray, bits: int) -> np.ndarray:
    """Pack a G x O zero grid along the O axis into G x ceil(O*N/32) words.

    Non-divisible O is padded with zero lanes at the top of the last word.
    """
    f_int = lanes_per_word(bits)
    z = _check_codes(zeros, bits)
    if z.ndim != 2:
        raise InvariantError("zeros must be a 2-D grid")
    g, o = z.shape
    words = -(-o // f_int)
    padded = np.zeros((g, words * f_int), dtype=np.uint32)
    padded[:, :o] = z
    return _pack_axis0(padded.T, bits).T


def unpack_zeros(qzeros: np.ndarray, bits: int, out_cols: int) -> np.ndarray:
    """Inverse of pack_zeros, truncated back to `out_cols` columns."""
    w = np.asarray(qzeros, dtype=np.uint32)
    if out_cols > w.shape[1] * lanes_per_word(bits):
        raise InvariantError("out_cols exceeds packed capacity")
    return np.ascontiguousarray(unpack_weights(w.T, bits)[:out_cols].T)


def unpack_value(word: int, lane: int, bits: int) -> int:
    """Single-lane unpack: (word >> (lane * N)) & (2^N - 1), lane < f_int."""
    f_int = lanes_per_word(bits)
    if not 0 <= lane < f_int:
        raise InvariantError(f"lane {lane} out of range for f_int = {f_int}")
    return (int(word) >> (lane * bits)) & ((1 << bits) - 1)


@dataclass
class PackedLinear:
    """A quantized linear layer in its storage form.

    Scales are kept as f16 (their serialized dtype); compute always widens
    to f32.
    """

    qweight: np.ndarray  # (I/f_int, O) u32
    scales: np.ndarray   # (G, O) f16
    qzeros: np.ndarray   # (G, ceil(O*N/32)) u32
    g_idx: np.ndarray    # (I,) i32
    bias: np.ndarray | None
    bits: int
    in_features: int
    out_features: int

    def unpack_qint(self) -> np.ndarray:
        return unpack_weights(self.qweight, self.bits)

    def unpack_zero_codes(self) -> np.ndarray:
        return unpack_zeros(self.qzeros, self.bits, self.out_features)


def pack_linear(q: QuantizedMatrix, bias: np.ndarray | None = None) -> PackedLinear:
    n_rows, n_cols = q.shape
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float32).reshape(-1)
        if bias.shape[0] != n_cols:
            raise InvariantError(
                f"bias length {bias.shape[0]} != out_features {n_cols}"
            )
    return PackedLinear(
        qweight=pack_weights(q.qint, q.bits),
        scales=q.params.scales.astype(np.float16),
        qzeros=pack_zeros(q.params.zeros, q.bits),
        g_idx=q.params.g_idx.astype(np.int32),
        bias=bias,
        bits=q.bits,
        in_features=n_rows,
        out_features=n_cols,
    )


def dequantize_packed(layer: PackedLinear) -> np.ndarray:
    """Full dense f32 weight matrix from the packed form (bias excluded)."""
    return dequantize_codes(layer.unpack_qint(), layer.g_idx, layer.unpack_zero_codes(),
                            layer.scales.astype(np.float32))


def _packed_layout(
    in_features: int, out_features: int, bits: int, groupsize: int
) -> dict[str, tuple[type, tuple[int, ...]]]:
    """Dtype and shape of each packed tensor of an in x out layer; an
    InvariantError unless both are >= 1 and in_features is a multiple of f_int."""
    f_int = lanes_per_word(bits)
    if in_features < 1 or out_features < 1 or in_features % f_int != 0:
        raise InvariantError(
            f"layer shape ({in_features}, {out_features}) must be positive, with "
            f"in_features a multiple of f_int = {f_int}"
        )
    groups = -(-in_features // rows_per_group(in_features, groupsize))
    return {
        "qweight": (np.uint32, (in_features // f_int, out_features)),
        "scales": (np.float16, (groups, out_features)),
        "qzeros": (np.uint32, (groups, -(-out_features // f_int))),
        "g_idx": (np.int32, (in_features,)),
    }


def estimate_packed_size(
    in_features: int, out_features: int, bits: int, groupsize: int
) -> dict:
    """Analytic byte counts for one packed layer and its ratio vs f16."""
    layout = _packed_layout(in_features, out_features, bits, groupsize)
    sizes = {
        name: math.prod(shape) * np.dtype(dtype).itemsize
        for name, (dtype, shape) in layout.items()
    }
    sizes["total"] = sum(sizes.values())
    sizes["ratio_vs_f16"] = sizes["total"] / (in_features * out_features * 2)
    return sizes


def packed_tensors(layer: PackedLinear, prefix: str) -> dict[str, np.ndarray]:
    """Container tensor map for one layer under `prefix`."""
    tensors = {
        f"{prefix}/qweight": layer.qweight,
        f"{prefix}/scales": layer.scales,
        f"{prefix}/qzeros": layer.qzeros,
        f"{prefix}/g_idx": layer.g_idx,
    }
    if layer.bias is not None:
        tensors[f"{prefix}/bias"] = layer.bias
    return tensors


def packed_from_tensors(
    tensors: dict[str, np.ndarray], prefix: str, bits: int, groupsize: int,
    in_features: int, out_features: int,
) -> PackedLinear:
    """Rebuild the layer under `prefix` from a container tensor map.

    Raises FormatError unless every tensor is present with the dtype and
    shape that (in_features, out_features, bits, groupsize) imply and g_idx
    equals `group_index(in_features, groupsize)`; an impossible layer shape
    is the InvariantError of `_packed_layout`.
    """
    expected = {
        **_packed_layout(in_features, out_features, bits, groupsize),
        "bias": (np.float32, (out_features,)),
    }
    found = {}
    for name, (dtype, shape) in expected.items():
        t = found[name] = tensors.get(f"{prefix}/{name}")
        if t is None and name != "bias":
            raise FormatError(f"layer {prefix!r}: missing tensor {name!r}")
        if t is not None and (t.dtype != dtype or t.shape != shape):
            raise FormatError(
                f"layer {prefix!r}: {name} is {t.dtype} {list(t.shape)}, "
                f"expected {np.dtype(dtype)} {list(shape)}"
            )
    if not np.array_equal(found["g_idx"], group_index(in_features, groupsize)):
        raise FormatError(
            f"layer {prefix!r}: g_idx is not the row groups of groupsize {groupsize}"
        )
    return PackedLinear(**found, bits=bits, in_features=in_features,
                        out_features=out_features)
