"""Group-wise quantization: round-to-nearest baseline and the
Hessian-weighted sequential quantizer with error compensation.

Weight matrices are I x O (input rows by output columns). Scales and zero
points form a G x O grid, one pair per (row group, output column); row i
belongs to group floor(i / groupsize). The Hessian-weighted quantizer
snaps input rows to the group grid one at a time and folds each row's
quantization residual into the rows not yet processed via the
inverse-Hessian update, minimizing the proxy loss trace(D^T H D) / O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, NumericError
from .tensorio import check_matrix

SCALE_FLOOR = 1e-8
SUPPORTED_BITS = (2, 4, 8)
# Rows per lazy-update block of the GPTQ sweep, and per sub-block inside it.
GPTQ_BLOCK = 128
GPTQ_SUB_BLOCK = 16
# Triangular blocks up to this size are inverted directly.
TRI_INV_LEAF = 64


@dataclass(frozen=True)
class QuantConfig:
    bits: int = 4
    groupsize: int = -1
    symmetric: bool = False
    damp_ratio: float = 0.01

    def __post_init__(self):
        if self.bits not in SUPPORTED_BITS:
            raise InvariantError(
                f"bits must be one of {SUPPORTED_BITS}, got {self.bits}"
            )
        if self.groupsize != -1 and self.groupsize < 1:
            raise InvariantError(f"groupsize must be positive or -1, got {self.groupsize}")
        if not math.isfinite(self.damp_ratio) or self.damp_ratio <= 0:
            raise InvariantError(
                f"damp_ratio must be finite and > 0, got {self.damp_ratio}"
            )

    @property
    def maxq(self) -> int:
        return (1 << self.bits) - 1


@dataclass
class GroupQuantParams:
    scales: np.ndarray  # (G, O) f32, strictly positive
    zeros: np.ndarray   # (G, O) int32 in [0, 2^N - 1]
    g_idx: np.ndarray   # (I,) int32, nondecreasing


@dataclass
class QuantizedMatrix:
    qint: np.ndarray  # (I, O) int32 in [0, 2^N - 1]
    params: GroupQuantParams
    bits: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.qint.shape


def rows_per_group(n_rows: int, groupsize: int) -> int:
    """Rows per group of an n_rows matrix (-1: one group), at least 1."""
    gs = n_rows if groupsize == -1 else groupsize
    if gs < 1:
        raise InvariantError(f"groupsize {groupsize} gives {gs} rows per group")
    return gs


def group_index(n_rows: int, groupsize: int) -> np.ndarray:
    """g_idx[i] = floor(i / rows_per_group(n_rows, groupsize))."""
    gs = rows_per_group(n_rows, groupsize)
    return (np.arange(n_rows, dtype=np.int32) // gs).astype(np.int32)


def compute_group_params(W: np.ndarray, cfg: QuantConfig) -> GroupQuantParams:
    """Fit per-(group, column) scales and integer zero points.

    Asymmetric: scale = (max - min) / maxq, zero = clamp(round(-min /
    scale), 0, maxq), with the range widened to include 0 so a constant
    column lands exactly on a grid point. Symmetric: scale = max|w| /
    (2^(N-1) - 1), zero = 2^(N-1). Both floor the scale at SCALE_FLOOR.
    """
    W = check_matrix(W)
    n_rows, n_cols = W.shape
    gs = rows_per_group(n_rows, cfg.groupsize)
    g_idx = group_index(n_rows, cfg.groupsize)
    n_groups = int(g_idx[-1]) + 1

    scales = np.empty((n_groups, n_cols), dtype=np.float32)
    zeros = np.empty((n_groups, n_cols), dtype=np.int32)
    for g in range(n_groups):
        block = W[g * gs : min((g + 1) * gs, n_rows)]
        if cfg.symmetric:
            amax = np.abs(block).max(axis=0)
            s = np.maximum(amax / float((1 << (cfg.bits - 1)) - 1), SCALE_FLOOR)
            z = np.full(n_cols, 1 << (cfg.bits - 1), dtype=np.int32)
        else:
            lo = np.minimum(block.min(axis=0), 0.0)
            hi = np.maximum(block.max(axis=0), 0.0)
            s = np.maximum((hi - lo) / float(cfg.maxq), SCALE_FLOOR)
            z = np.clip(np.round(-lo / s), 0, cfg.maxq).astype(np.int32)
        scales[g] = s
        zeros[g] = z
    return GroupQuantParams(scales, zeros, g_idx)


def rtn_quantize(W: np.ndarray, cfg: QuantConfig) -> QuantizedMatrix:
    """Round each weight independently to the nearest grid point."""
    W = check_matrix(W)
    params = compute_group_params(W, cfg)
    s = params.scales[params.g_idx]
    z = params.zeros[params.g_idx]
    qint = np.clip(np.round(W / s) + z, 0, cfg.maxq).astype(np.int32)
    return QuantizedMatrix(qint, params, cfg.bits)


def dequantize_codes(
    codes: np.ndarray, g_idx: np.ndarray, zeros: np.ndarray, scales: np.ndarray
) -> np.ndarray:
    """out[i][o] = (codes[i][o] - zeros[g][o]) * scales[g][o], g = g_idx[i],
    in f32 from int32 codes, which it overwrites.

    codes - zeros is formed in int32 and converted to f32 (exact, |q - z| <
    2^8); its f32 product with an f32 scale is the correctly rounded exact
    product, so this equals the same formula evaluated in f64 and rounded
    to f32.
    """
    codes -= zeros[g_idx]
    out = codes.astype(np.float32)
    out *= scales[g_idx]
    return out


def dequantize_matrix(q: QuantizedMatrix) -> np.ndarray:
    """out[i][o] = (qint[i][o] - zeros[g][o]) * scales[g][o], g = g_idx[i]."""
    p = q.params
    return dequantize_codes(q.qint.copy(), p.g_idx, p.zeros, p.scales)


def gptq_quantize(
    W: np.ndarray, H: np.ndarray, cfg: QuantConfig, *, factor: np.ndarray | None = None
) -> QuantizedMatrix:
    """Sequential Hessian-weighted quantization with error compensation.

    Input rows are processed in natural order against group parameters
    fitted on the original weights; after snapping row i, the residual is
    propagated into rows > i through the upper Cholesky factor of H^-1,
    the step that lets later rows absorb earlier rounding error.

    The propagation is lazy (GPTQ's batch update) on two levels: rows are
    swept in blocks of GPTQ_BLOCK split into sub-blocks of GPTQ_SUB_BLOCK,
    each row pulls the residuals of the earlier rows of its sub-block in
    one GEMV just before it is snapped, a finished sub-block's residuals
    reach the rest of its block in one GEMM, and a finished block's
    residuals reach the rows below in one GEMM.

    The snap clips round(w / s) to [-z, maxq - z] and adds z back, which
    equals clip(round(w / s) + z, 0, maxq) exactly: every term is an
    integer held in f64.

    `factor` is `inverse_hessian_factor(H)` when the caller already has it,
    e.g. for several matrices that share one Hessian.
    """
    W = check_matrix(W)
    n_rows, n_cols = W.shape
    if np.shape(H) != (n_rows, n_rows):
        raise InvariantError(
            f"Hessian shape {np.shape(H)} does not match weight rows {n_rows}"
        )
    if factor is None:
        u = inverse_hessian_factor(H)
    elif np.shape(factor) != (n_rows, n_rows):
        raise InvariantError(
            f"factor shape {np.shape(factor)} does not match weight rows {n_rows}"
        )
    else:
        u = np.asarray(factor, dtype=np.float64)
    params = compute_group_params(W, cfg)

    work = W.astype(np.float64)
    qint = np.empty((n_rows, n_cols), dtype=np.int32)
    scales = params.scales.astype(np.float64)
    zeros = params.zeros.astype(np.float64)
    lo, hi = -zeros, cfg.maxq - zeros
    g_idx = params.g_idx.tolist()
    diag = np.diag(u).tolist()
    qz = np.empty(n_cols)  # q - z of the row being snapped
    for b0 in range(0, n_rows, GPTQ_BLOCK):
        b1 = min(b0 + GPTQ_BLOCK, n_rows)
        errs = np.empty((b1 - b0, n_cols))
        for s0 in range(b0, b1, GPTQ_SUB_BLOCK):
            s1 = min(s0 + GPTQ_SUB_BLOCK, b1)
            for i in range(s0, s1):
                row, err = work[i], errs[i - b0]
                if i > s0:
                    row -= u[s0:i, i] @ errs[s0 - b0 : i - b0]
                g = g_idx[i]
                s = scales[g]
                np.divide(row, s, out=qz)
                np.round(qz, out=qz)
                np.clip(qz, lo[g], hi[g], out=qz)
                np.add(qz, zeros[g], out=qint[i], casting="unsafe")
                np.multiply(qz, s, out=err)
                np.subtract(row, err, out=err)
                err /= diag[i]
            if s1 < b1:
                work[s1:b1] -= u[s0:s1, s1:b1].T @ errs[s0 - b0 : s1 - b0]
        if b1 < n_rows:
            work[b1:] -= u[b0:b1, b1:].T @ errs
    return QuantizedMatrix(qint, params, cfg.bits)


def inverse_hessian_factor(H: np.ndarray) -> np.ndarray:
    """Upper-triangular U with U^T U = H^-1.

    With J the row/column flip, J H J = L L^T gives H = R R^T for the upper
    triangular R = J L J, so U = R^-1: one Cholesky (in f64, so the row
    feedback stays accurate for ill-conditioned H) and one triangular
    inverse. A non-positive-definite H raises NumericError.
    """
    H = np.asarray(H, dtype=np.float64)
    try:
        low = np.linalg.cholesky(H[::-1, ::-1])
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"Cholesky failed; increase damping: {exc}"
        ) from exc
    return _upper_triangular_inverse(low[::-1, ::-1])


def _upper_triangular_inverse(r: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular upper-triangular matrix, exactly zero below
    the diagonal.

    [[A, B], [0, C]]^-1 = [[A^-1, -(A^-1 B) C^-1], [0, C^-1]]: the two
    diagonal halves recursively, the corner in two GEMMs.
    """
    n = r.shape[0]
    if n <= TRI_INV_LEAF:
        return np.triu(np.linalg.inv(r))
    h = n // 2
    a_inv = _upper_triangular_inverse(r[:h, :h])
    c_inv = _upper_triangular_inverse(r[h:, h:])
    return np.block([
        [a_inv, -(a_inv @ r[:h, h:]) @ c_inv],
        [np.zeros((n - h, h)), c_inv],
    ])


def proxy_loss(W: np.ndarray, q: QuantizedMatrix, H: np.ndarray) -> float:
    """Hessian-weighted reconstruction error trace(D^T H D) / O."""
    d = (check_matrix(W) - dequantize_matrix(q)).astype(np.float64)
    h = np.asarray(H, dtype=np.float64)
    return float(np.sum(d * (h @ d)) / d.shape[1])
