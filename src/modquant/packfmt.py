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

from .errors import InvariantError
from .quantcore import (
    SUPPORTED_BITS,
    QuantizedMatrix,
    dequantize_codes,
    group_index,
    lanes_per_word,
    rows_per_group,
)


def _check_codes(grid: np.ndarray, bits: int) -> np.ndarray:
    g = np.asarray(grid)
    if g.min(initial=0) < 0 or g.max(initial=0) >= (1 << bits):
        raise InvariantError(f"values out of [0, 2^{bits}) range")
    return g


def _pack_axis0(grid: np.ndarray, bits: int) -> np.ndarray:
    """OR each lane of a (rows, cols) code grid into (rows/f_int, cols) words.

    Starts from lane 0 as uint32 and ORs in one shifted lane at a time. The
    shift is done in uint32: a top-lane code of 2^(bits-1) or more sets bit
    31, which would overflow int32.
    """
    f_int = lanes_per_word(bits)
    rows, cols = grid.shape
    lanes = grid.reshape(rows // f_int, f_int, cols)
    out = lanes[:, 0, :].astype(np.uint32)
    shifted = np.empty_like(out)
    for j in range(1, f_int):
        np.left_shift(lanes[:, j, :], j * bits, out=shifted, dtype=np.uint32,
                      casting="unsafe")
        out |= shifted
    return out


def pack_weights(qint: np.ndarray, bits: int) -> np.ndarray:
    """Pack an I x O integer grid into (I/f_int) x O little-lane words."""
    f_int = lanes_per_word(bits)
    q = _check_codes(qint, bits)
    if q.ndim != 2 or q.shape[0] % f_int != 0:
        raise InvariantError(
            f"row count {q.shape[0]} must be a multiple of f_int = {f_int}"
        )
    return _pack_axis0(q, bits)


# Each lane's right shift, shaped to broadcast over (word rows, lanes, columns).
_LANE_SHIFTS = {
    bits: (bits * np.arange(32 // bits, dtype=np.uint32)).reshape(1, -1, 1)
    for bits in SUPPORTED_BITS
}


def unpack_weights(qweight: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of pack_weights: (I/f_int) x O words back to I x O codes.

    Row r * f_int + j of the result is lane j of word row r, so a single
    row of words comes back as f_int lane planes, one after another.
    """
    f_int = lanes_per_word(bits)
    w = np.asarray(qweight, dtype=np.uint32)
    rows, cols = w.shape
    lanes = np.empty((rows, f_int, cols), dtype=np.uint32)
    np.right_shift(w[:, None, :], _LANE_SHIFTS[bits], out=lanes)
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


# Container tensor names of a packed layer, in write order; bias is optional.
PACKED_TENSORS = ("qweight", "scales", "qzeros", "g_idx", "bias")


@dataclass(frozen=True)
class PackedLinear:
    """A quantized linear layer in its storage form.

    Every construction checks the layout: each tensor has the dtype and
    shape that `_packed_layout(in_features, out_features, bits, groupsize)`
    gives, a bias is (out_features,) f32, g_idx is
    `group_index(in_features, groupsize)`, and the f16 scales (their
    serialized dtype) are finite; anything else is an InvariantError.
    Compute always widens the scales to f32.
    """

    qweight: np.ndarray  # (I/f_int, O) u32
    scales: np.ndarray   # (G, O) f16
    qzeros: np.ndarray   # (G, ceil(O*N/32)) u32
    g_idx: np.ndarray    # (I,) i32
    bias: np.ndarray | None
    bits: int
    groupsize: int
    in_features: int
    out_features: int

    def __post_init__(self):
        expected = _packed_layout(self.in_features, self.out_features, self.bits,
                                  self.groupsize)
        if self.bias is not None:
            expected["bias"] = (np.float32, (self.out_features,))
        for name, (dtype, shape) in expected.items():
            t = getattr(self, name)
            if not isinstance(t, np.ndarray) or t.dtype != dtype or t.shape != shape:
                got = f"{t.dtype} {list(t.shape)}" if isinstance(t, np.ndarray) else type(t)
                raise InvariantError(
                    f"{name} is {got}, expected {np.dtype(dtype)} {list(shape)}"
                )
        if not np.array_equal(self.g_idx, group_index(self.in_features, self.groupsize)):
            raise InvariantError(
                f"g_idx is not the row groups of groupsize {self.groupsize}"
            )
        if not np.isfinite(self.scales).all():
            raise InvariantError("scales must be finite (float16 overflows above 65504)")

    def unpack_qint(self) -> np.ndarray:
        return unpack_weights(self.qweight, self.bits)

    def unpack_zero_codes(self) -> np.ndarray:
        return unpack_zeros(self.qzeros, self.bits, self.out_features)


def pack_linear(q: QuantizedMatrix, bias: np.ndarray | None = None) -> PackedLinear:
    """Pack `q` with a copy of its float16 scales, so that
    `dequantize_packed(pack_linear(q))` equals `dequantize_matrix(q)`."""
    return PackedLinear(
        qweight=pack_weights(q.qint, q.bits),
        scales=q.params.scales.copy(),
        qzeros=pack_zeros(q.params.zeros, q.bits),
        g_idx=q.params.g_idx.astype(np.int32),
        bias=None if bias is None else np.asarray(bias, dtype=np.float32),
        bits=q.bits,
        groupsize=q.groupsize,
        in_features=q.shape[0],
        out_features=q.shape[1],
    )


def dequantize_packed(layer: PackedLinear) -> np.ndarray:
    """Full dense f32 weight matrix from the packed form (bias excluded)."""
    g = layer.g_idx
    return dequantize_codes(layer.unpack_qint(), layer.unpack_zero_codes()[g],
                            layer.scales.astype(np.float32)[g])


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
    return {
        f"{prefix}/{name}": getattr(layer, name)
        for name in PACKED_TENSORS
        if getattr(layer, name) is not None
    }


def packed_from_tensors(
    tensors: dict[str, np.ndarray], prefix: str, bits: int, groupsize: int,
    in_features: int, out_features: int,
) -> PackedLinear:
    """Build the layer under `prefix` from a container tensor map.

    A missing tensor other than the bias, and anything `PackedLinear`
    rejects, is an InvariantError, which the loader reports against its file.
    """
    found = {name: tensors.get(f"{prefix}/{name}") for name in PACKED_TENSORS}
    for name in PACKED_TENSORS[:-1]:
        if found[name] is None:
            raise InvariantError(f"missing tensor {name!r}")
    return PackedLinear(**found, bits=bits, groupsize=groupsize,
                        in_features=in_features, out_features=out_features)
