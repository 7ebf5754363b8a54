"""Slow reference implementations that the tests compare the package against."""

import numpy as np

from modquant import InvariantError
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
