"""Group-wise quantization: round-to-nearest baseline and the
Hessian-weighted sequential quantizer with error compensation.

Weight matrices are I x O (input rows by output columns). Scales and zero
points form a G x O grid, one pair per (row group, output column); row i
belongs to group floor(i / groupsize). The Hessian-weighted quantizer
snaps input rows to the group grid one at a time and folds each row's
quantization residual into the rows not yet processed via the
inverse-Hessian update, minimizing the proxy loss trace(D^T H D) / O.
The Hessian, its factor and the proxy loss are f64; the sweep itself runs
in f32 on the factor's unit-diagonal form.
"""

from __future__ import annotations

import reprlib
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, NumericError
from .tensorio import check_matrix, typed_attr

# The range of a group scale: float16's smallest subnormal and its largest value.
SCALE_FLOOR = 2.0**-24
SCALE_MAX = float(np.finfo(np.float16).max)  # 65504
SUPPORTED_BITS = (2, 4, 8)
# Rows per lazy-update block of the GPTQ sweep, and per sub-block inside it.
GPTQ_BLOCK = 128
GPTQ_SUB_BLOCK = 16
# Triangular blocks up to this size are inverted directly.
TRI_INV_LEAF = 64


def lanes_per_word(bits: int) -> int:
    """Codes per 32-bit packed word, f_int = 32 / bits; the bit-width rule."""
    if bits not in SUPPORTED_BITS:
        raise InvariantError(f"bits must be one of {SUPPORTED_BITS}, got {bits}")
    return 32 // bits


@dataclass(frozen=True)
class QuantConfig:
    """Building one checks every field by `typed_attr`: `bits` an int in
    SUPPORTED_BITS, `groupsize` an int, -1 or >= 1, and `damp_ratio` a float
    or int (not a bool), > 0 and finite as an f64. Every grid is the
    asymmetric one that `compute_group_params` fits."""

    bits: int = 4
    groupsize: int = -1
    damp_ratio: float = 0.01

    def __post_init__(self):
        fields = vars(self)
        lanes_per_word(typed_attr(fields, "bits", int))
        rows_per_group(1, typed_attr(fields, "groupsize", int))
        damp = typed_attr(fields, "damp_ratio", (float, int))
        if not 0 < damp <= sys.float_info.max:
            raise InvariantError(
                f"damp_ratio must be finite and > 0, got {reprlib.repr(damp)}")

    @property
    def maxq(self) -> int:
        return (1 << self.bits) - 1


@dataclass
class QuantizedMatrix:
    """N-bit codes on one G x O group grid. Row i belongs to group
    `group_index(I, groupsize)[i]`. The scales are float16, the one set that
    quantization, dequantization, the proxy loss, the checkpoint and the
    kernel all read: fitted in `compute_group_params`, widened exactly to
    f32 or f64 wherever they are computed with."""

    qint: np.ndarray    # (I, O) int32 in [0, 2^N - 1]
    scales: np.ndarray  # (G, O) f16, in [SCALE_FLOOR, SCALE_MAX]
    zeros: np.ndarray   # (G, O) int32 in [0, 2^N - 1]
    bits: int
    groupsize: int  # as in QuantConfig

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


def compute_group_params(W: np.ndarray, cfg: QuantConfig) -> tuple[np.ndarray, np.ndarray]:
    """Fit per-(group, column) float16 scales and int32 zero points, returned
    as (scales, zeros).

    The loop over row groups only reduces: each group's column min and max,
    stacked into (G, O) f64 arrays. The formulas then run once over the
    whole grid: scale = (max - min) / maxq and zero = clamp(round(-min /
    scale), 0, maxq), with the range widened to include 0 so a constant
    column lands exactly on a grid point. The checkpoint stores every zero
    point, so fixing it (at 2^(N-1)) would save no bytes and fit worse.
    The scale is computed in f64, floored at SCALE_FLOOR and rounded up to
    the next float16, so maxq * scale still spans the group (rounding to
    nearest could shrink it below the range); the zero point is fitted to
    that stored scale. A scale above SCALE_MAX (65504, float16's largest)
    is an InvariantError naming the matrix's largest scale, raised by one
    check before any cast. W is a matrix that `check_matrix` has already
    accepted.

    SCALE_FLOOR is float16's smallest subnormal, 2^-24, below which a scale
    would flush to 0. Float16's smallest normal (~6.1e-5) would be too
    coarse a floor: every scale of ~1e-6 weights would sit on it, and a
    4-bit group would round to a single code, for a relative error of 1.
    """
    gs = rows_per_group(W.shape[0], cfg.groupsize)
    blocks = (W[r0 : r0 + gs] for r0 in range(0, W.shape[0], gs))
    # A group's two reductions run back to back, while its rows are in cache.
    lo, hi = np.stack([(b.min(axis=0), b.max(axis=0)) for b in blocks],
                      axis=1).astype(np.float64)
    lo = np.minimum(lo, 0.0)
    scales = _float16_scales((np.maximum(hi, 0.0) - lo) / cfg.maxq)
    return scales, np.clip(np.round(-lo / scales), 0, cfg.maxq).astype(np.int32)


def _float16_scales(s: np.ndarray) -> np.ndarray:
    """The smallest float16 >= max(s, SCALE_FLOOR), elementwise; an
    InvariantError if any s exceeds SCALE_MAX."""
    s = np.maximum(s, SCALE_FLOOR)
    if s.max() > SCALE_MAX:
        raise InvariantError(
            f"group scale {s.max():.6g} exceeds {SCALE_MAX:g}, float16's largest "
            "value, so the checkpoint cannot store it"
        )
    s16 = s.astype(np.float16)
    below = s16 < s
    s16[below] = np.nextafter(s16[below], np.float16(np.inf))
    return s16


def rtn_quantize(W: np.ndarray, cfg: QuantConfig) -> QuantizedMatrix:
    """Round each weight independently to the nearest grid point:
    qint = clip(round(w / s) + z, 0, maxq) with (s, z) of the row's group.

    Runs one row group at a time in f32, with the float16 scale widened
    exactly to f32. w / s and its rounding are f32 either way; the f32 sum
    round(w / s) + z is exact, because both terms are integers and
    |round(w / s)| <= maxq <= 255 (the scale is rounded up so that it spans
    the group's range, and flooring it at SCALE_FLOOR only shrinks the
    quotient). So the result equals the same formula evaluated in f64.
    """
    W = check_matrix(W)
    scales, zeros = compute_group_params(W, cfg)
    gs = rows_per_group(W.shape[0], cfg.groupsize)
    z32 = zeros.astype(np.float32)
    qint = np.empty(W.shape, dtype=np.int32)
    for g, r0 in enumerate(range(0, W.shape[0], gs)):
        q = W[r0 : r0 + gs] / scales[g]
        np.round(q, out=q)
        q += z32[g]
        np.clip(q, 0, cfg.maxq, out=q)
        qint[r0 : r0 + gs] = q
    return QuantizedMatrix(qint, scales, zeros, cfg.bits, cfg.groupsize)


def dequantize_codes(codes: np.ndarray, zeros: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """out = (codes - zeros) * scales in f32 from int32 codes, which it
    overwrites; `zeros` and `scales` broadcast against `codes`, so callers
    gather each row's group (zeros[g_idx], scales[g_idx]).

    codes - zeros is formed in int32 and converted to f32 (exact, |q - z| <
    2^8); its f32 product with a scale (float16 widened exactly, or f32) is
    the correctly rounded exact product, so this equals the same formula
    evaluated in f64 and rounded to f32.
    """
    codes -= zeros
    out = codes.astype(np.float32)
    out *= scales
    return out


def dequantize_matrix(q: QuantizedMatrix) -> np.ndarray:
    """out[i][o] = (qint[i][o] - zeros[g][o]) * scales[g][o] with
    g = group_index(I, groupsize)[i]."""
    g = group_index(q.shape[0], q.groupsize)
    return dequantize_codes(q.qint.copy(), q.zeros[g], q.scales.astype(np.float32)[g])


def gptq_quantize(W: np.ndarray, cfg: QuantConfig, *, factor: np.ndarray) -> QuantizedMatrix:
    """Sequential Hessian-weighted quantization with error compensation.

    `factor` is `inverse_hessian_factor(H)`, the upper Cholesky factor U of
    H^-1 and the only form of the Hessian the sweep reads; matrices that
    share one Hessian share one factor. A factor that is not finite, upper
    triangular and positive on its diagonal is an InvariantError.

    Input rows are processed in natural order against group parameters
    fitted on the original weights; after snapping row i, its residual
    w - q (in weight units) is propagated into rows > i through row i of
    V = U / diag(U), the step that lets later rows absorb earlier rounding
    error. V is formed in f64 and then cast to f32; it is unit-diagonal and
    does not change when H is scaled by a power of two, whereas U itself
    can leave float32's range. The sweep holds the working rows, V, the
    scales, the zero points and the residuals in f32, as GPTQ's reference
    code does. A V or a working row beyond float32's range is a
    NumericError.

    The propagation is lazy (GPTQ's batch update) on two levels: rows are
    swept in blocks of GPTQ_BLOCK split into sub-blocks of GPTQ_SUB_BLOCK,
    each row pulls the residuals of the earlier rows of its sub-block in
    one GEMV just before it is snapped, a finished sub-block's residuals
    reach the rest of its block in one GEMM, and a finished block's
    residuals reach the rows below in one GEMM.

    The snap clips round(w / s) to [-z, maxq - z] and adds z back, which
    equals clip(round(w / s) + z, 0, maxq) exactly: every term is an
    integer of magnitude at most 255, held exactly in f32 (below 2^24).
    """
    W = check_matrix(W)
    n_rows, n_cols = W.shape
    if np.shape(factor) != (n_rows, n_rows):
        raise InvariantError(
            f"factor shape {np.shape(factor)} does not match weight rows {n_rows}"
        )
    u = np.asarray(factor, dtype=np.float64)
    if not (np.isfinite(u).all() and (np.diag(u) > 0).all() and not np.tril(u, -1).any()):
        raise InvariantError(
            "factor must be finite and upper triangular with a positive diagonal"
        )
    scales, zeros = compute_group_params(W, cfg)
    try:
        # An overflow inside a BLAS worker thread sets no flag numpy sees;
        # the NaN it can leave is caught at the snap's int32 cast.
        with np.errstate(over="raise", invalid="raise"):
            v = (u / np.diag(u)[:, None]).astype(np.float32)
            qint = _gptq_sweep(W.copy(), v, scales, zeros, cfg)
    except FloatingPointError as exc:
        raise NumericError(
            f"GPTQ sweep left float32's range ({exc}); increase damping"
        ) from exc
    return QuantizedMatrix(qint, scales, zeros, cfg.bits, cfg.groupsize)


def _gptq_sweep(work: np.ndarray, v: np.ndarray, scales: np.ndarray, zeros: np.ndarray,
                cfg: QuantConfig) -> np.ndarray:
    """The codes of `gptq_quantize`'s sweep over the f32 rows `work`, which
    it overwrites, through the unit-diagonal f32 factor `v`."""
    n_rows, n_cols = work.shape
    qint = np.empty((n_rows, n_cols), dtype=np.int32)
    s32 = scales.astype(np.float32)
    z32 = zeros.astype(np.float32)
    lo, hi = -z32, cfg.maxq - z32
    g_idx = group_index(n_rows, cfg.groupsize).tolist()
    qz = np.empty(n_cols, dtype=np.float32)  # q - z of the row being snapped
    for b0 in range(0, n_rows, GPTQ_BLOCK):
        b1 = min(b0 + GPTQ_BLOCK, n_rows)
        errs = np.empty((b1 - b0, n_cols), dtype=np.float32)
        for s0 in range(b0, b1, GPTQ_SUB_BLOCK):
            s1 = min(s0 + GPTQ_SUB_BLOCK, b1)
            for i in range(s0, s1):
                row, err = work[i], errs[i - b0]
                if i > s0:
                    row -= v[s0:i, i] @ errs[s0 - b0 : i - b0]
                g = g_idx[i]
                s = s32[g]
                np.divide(row, s, out=qz)
                np.rint(qz, out=qz)
                np.maximum(qz, lo[g], out=qz)
                np.minimum(qz, hi[g], out=qz)
                np.add(qz, z32[g], out=qint[i], casting="unsafe")
                np.multiply(qz, s, out=err)
                np.subtract(row, err, out=err)
            if s1 < b1:
                work[s1:b1] -= v[s0:s1, s1:b1].T @ errs[s0 - b0 : s1 - b0]
        if b1 < n_rows:
            work[b1:] -= v[b0:b1, b1:].T @ errs
    return qint


def inverse_hessian_factor(H: np.ndarray) -> np.ndarray:
    """Upper-triangular U with U^T U = H^-1.

    With J the row/column flip, J H J = L L^T gives H = R R^T for the upper
    triangular R = J L J, so U = R^-1: one Cholesky (in f64, so the row
    feedback stays accurate for ill-conditioned H) and one triangular
    inverse. An H that is not a finite square matrix is an InvariantError;
    a non-positive-definite one raises NumericError.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InvariantError(f"H must be a square matrix, got shape {H.shape}")
    if not np.isfinite(H).all():
        raise InvariantError("H must be finite")
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
    """Hessian-weighted reconstruction error trace(D^T H D) / O, where D is
    W minus q dequantized. InvariantError unless q has W's (n, O) shape and
    H is a finite (n, n) matrix."""
    W = check_matrix(W)
    h = np.asarray(H, dtype=np.float64)
    if q.shape != W.shape or h.shape != (W.shape[0],) * 2:
        raise InvariantError(f"proxy_loss needs q of W's shape {W.shape} and H of "
                             f"({W.shape[0]}, {W.shape[0]}), got {q.shape} and {h.shape}")
    if not np.isfinite(h).all():
        raise InvariantError("proxy_loss needs a finite H")
    d = (W - dequantize_matrix(q)).astype(np.float64)
    return float(np.sum(d * (h @ d)) / d.shape[1])
