"""Slow reference implementations that the tests compare the package against."""

import numpy as np

from modquant import InvariantError, QuantizedMatrix, group_index, lanes_per_word
from modquant.tensorio import check_matrix


def reference_matmul(
    A: np.ndarray, W: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """Deterministic k-outer f32 product: out += A[:, k] (x) W[k, :]."""
    A = check_matrix(A)
    W = check_matrix(W)
    if A.shape[1] != W.shape[0]:
        raise InvariantError(f"shape mismatch: {A.shape} x {W.shape}")
    out = np.zeros((A.shape[0], W.shape[1]), dtype=np.float32)
    for k in range(A.shape[1]):
        out += A[:, k : k + 1] * W[k : k + 1, :]
    if bias is not None:
        out += np.asarray(bias, dtype=np.float32)
    return out


def round_to_grid(
    W: np.ndarray, scales: np.ndarray, zeros: np.ndarray, bits: int, groupsize: int
) -> QuantizedMatrix:
    """Round-to-nearest onto a given group grid:
    clip(round(W / s) + z, 0, 2^bits - 1) with (s, z) of each row's group."""
    W = check_matrix(W)
    g_idx = group_index(W.shape[0], groupsize)
    qint = np.clip(np.round(W / scales[g_idx]) + zeros[g_idx], 0, (1 << bits) - 1)
    return QuantizedMatrix(qint.astype(np.int32), scales, zeros, bits, groupsize)


def shift_or_pack(grid: np.ndarray, bits: int) -> np.ndarray:
    """Pack a (rows, cols) code grid along axis 0 into (rows/f, cols) uint32
    words, f = 32/bits: every lane shifted into place in one uint32 array,
    then OR-reduced over the lane axis."""
    f_int = 32 // bits
    g = np.asarray(grid).astype(np.uint32)
    rows, cols = g.shape
    shifts = (bits * np.arange(f_int, dtype=np.uint32)).reshape(1, f_int, 1)
    lanes = g.reshape(rows // f_int, f_int, cols) << shifts
    return np.bitwise_or.reduce(lanes, axis=1).astype(np.uint32)


def unpack_value(word: int, lane: int, bits: int) -> int:
    """Single-lane unpack: (word >> (lane * N)) & (2^N - 1), lane < f_int."""
    f_int = lanes_per_word(bits)
    if not 0 <= lane < f_int:
        raise InvariantError(f"lane {lane} out of range for f_int = {f_int}")
    return (int(word) >> (lane * bits)) & ((1 << bits) - 1)
