"""Calibration capture and Hessian accumulation.

Calibration samples are the activations arriving at a module boundary of
the synthetic model. Every sequence position contributes one row to the
Hessian statistic H = 2 * X^T X accumulated over all samples; auxiliary
tensors (attention mask, position/token-type embeddings) are carried as
opaque payloads and never enter the Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InvariantError, NumericError
from .model import SyntheticModel
from .tensorio import check_matrix, load_container, typed_attr, write_container


@dataclass
class CalibrationSet:
    module_id: str
    samples: list[np.ndarray]
    aux: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not self.samples:
            raise InvariantError("calibration set needs at least one sample")
        self.samples = [check_matrix(s) for s in self.samples]
        dims = {s.shape[1] for s in self.samples}
        if len(dims) > 1:
            raise InvariantError(f"samples disagree on feature dimension: {dims}")

    @property
    def feature_dim(self) -> int:
        return self.samples[0].shape[1]


class HessianAccumulator:
    """Running 2 * X^T X over calibration rows of a fixed dimension."""

    def __init__(self, dim: int):
        if dim < 1:
            raise InvariantError(f"hessian dimension must be >= 1, got {dim}")
        self.dim = dim
        self.matrix = np.zeros((dim, dim), dtype=np.float32)
        self.sample_rows = 0


def accumulate_hessian(acc: HessianAccumulator, sample: np.ndarray) -> HessianAccumulator:
    """Add 2 * X^T X of one sample (rows are activation vectors)."""
    x = check_matrix(sample)
    if x.shape[1] != acc.dim:
        raise InvariantError(
            f"sample has {x.shape[1]} columns, accumulator expects {acc.dim}"
        )
    acc.matrix += 2.0 * (x.T @ x)
    acc.sample_rows += x.shape[0]
    return acc


def finalize_hessian(acc: HessianAccumulator, damp_ratio: float) -> np.ndarray:
    """Return H + lambda*I with lambda = damp_ratio * mean(diag(H)).

    The result must be symmetric positive definite; a failed Cholesky
    (e.g. damp_ratio 0 on a singular accumulation) raises NumericError.
    """
    if damp_ratio < 0:
        raise InvariantError("damp_ratio must be >= 0")
    h = (acc.matrix + acc.matrix.T) / 2.0
    lam = damp_ratio * float(np.mean(np.diag(h)))
    if lam <= 0 and damp_ratio > 0:
        raise NumericError("all-zero Hessian: damping produced lambda = 0")
    out = h + np.float32(lam) * np.eye(acc.dim, dtype=np.float32)
    try:
        np.linalg.cholesky(out.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"damped Hessian is not positive definite: {exc}") from exc
    return out


def hessian_from_samples(samples, dim: int, damp_ratio: float) -> np.ndarray:
    """Convenience: accumulate every sample then finalize."""
    acc = HessianAccumulator(dim)
    for s in samples:
        accumulate_hessian(acc, s)
    return finalize_hessian(acc, damp_ratio)


def synthetic_activations(rows: int, dim: int, seed: int, decay: float = 0.05) -> np.ndarray:
    """Correlated activation rows for synthetic calibration.

    Latent standard normals pass through a fixed random mixing map whose
    column gains decay geometrically to `decay`, giving the anisotropic
    covariance that layer inputs show in practice (and that makes
    Hessian-weighted quantization worthwhile).
    """
    if rows < 1 or dim < 1:
        raise InvariantError(f"dimensions must be >= 1, got ({rows}, {dim})")
    rng = np.random.default_rng(seed)
    gains = np.geomspace(1.0, decay, dim) if dim > 1 else np.ones(1)
    mix = rng.standard_normal((dim, dim)) * gains[None, :]
    z = rng.standard_normal((rows, dim))
    return (z @ mix).astype(np.float32)


def capture_calibration(
    model: SyntheticModel,
    inputs: list[np.ndarray],
    module_selector: str,
    aux: dict[str, np.ndarray] | None = None,
) -> CalibrationSet:
    """Catch the activations entering the selected module's first layer.

    'vision' catches at the first vision layer (the raw inputs);
    'crossmodal' catches after the full vision stack. Forward execution
    stops at the catch point.
    """
    if not inputs:
        raise InvariantError("no calibration inputs given")
    inputs = [check_matrix(x) for x in inputs]
    d_v, d_m = model.embed_dims
    if module_selector == "vision":
        if not model.vision_layers:
            raise InvariantError("model has no vision module")
        for x in inputs:
            if x.shape[1] != d_v:
                raise InvariantError(
                    f"input dim {x.shape[1]} != vision embed dim {d_v}"
                )
        samples = [x.copy() for x in inputs]
    elif module_selector == "crossmodal":
        if not model.crossmodal_layers:
            raise InvariantError("model has no cross-modal module")
        for x in inputs:
            if x.shape[1] != d_v:
                raise InvariantError(
                    f"input dim {x.shape[1]} != model input dim {d_v}"
                )
        samples = [model.forward_vision(x) for x in inputs]
        if samples[0].shape[1] != d_m:
            raise InvariantError("vision stack output does not match D_M")
    else:
        raise InvariantError(f"unknown module selector {module_selector!r}")
    return CalibrationSet(module_selector, samples, dict(aux or {}))


def save_calibration(calib: CalibrationSet, path) -> None:
    tensors = {f"calib/samples/{k}": s for k, s in enumerate(calib.samples)}
    for name, t in calib.aux.items():
        tensors[f"calib/aux/{name}"] = t
    write_container(
        path,
        tensors,
        {"schema": "calibration/1", "module_id": calib.module_id,
         "num_samples": len(calib.samples)},
    )


def load_calibration(path) -> CalibrationSet:
    """Read a set written by `save_calibration`.

    A missing or mistyped `num_samples` (an integer >= 1) or `module_id`
    (a string), and a missing or non-2-D `calib/samples/<k>` tensor for any
    k < num_samples, is a FormatError.
    """
    tensors, attrs = load_container(path)
    if attrs.get("schema") != "calibration/1":
        raise InvariantError(f"{path}: not a calibration container")
    n = typed_attr(attrs, "num_samples", int, path)
    if n < 1:
        raise FormatError(f"{path}: 'num_samples' must be >= 1, got {n}")
    module_id = typed_attr(attrs, "module_id", str, path)
    samples = []
    for k in range(n):
        sample = tensors.get(f"calib/samples/{k}")
        if sample is None or sample.ndim != 2:
            raise FormatError(
                f"{path}: tensor 'calib/samples/{k}' is missing or not 2-D"
            )
        samples.append(sample)
    aux = {
        name.removeprefix("calib/aux/"): t
        for name, t in tensors.items()
        if name.startswith("calib/aux/")
    }
    return CalibrationSet(module_id, samples, aux)
