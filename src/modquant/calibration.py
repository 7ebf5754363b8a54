"""Calibration capture and Hessian accumulation.

Calibration samples are the activations arriving at a module boundary of
the synthetic model. Every sequence position contributes one row to the
Hessian statistic H = 2 * X^T X accumulated over all samples; auxiliary
tensors (attention mask, position/token-type embeddings) are carried as
opaque payloads and never enter the Hessian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, NumericError
from .model import SyntheticModel
from .tensorio import check_matrix, file_invariants, load_container, typed_attr, write_container


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


def hessian_from_samples(samples, dim: int, damp_ratio: float) -> np.ndarray:
    """Damped Hessian H + lambda*I, with H = 2 * X^T X summed over `samples`
    and lambda = damp_ratio * mean(diag(H)).

    The sum runs in f32 in sample order and is symmetrized before damping.
    A lambda of 0, or a Hessian or damped diagonal that f32 cannot hold,
    is a NumericError, checked in f64 before the damping is cast to f32.
    Definiteness is not checked here: GPTQ's factorization
    (`inverse_hessian_factor`) raises NumericError on a damped Hessian it
    cannot factorize.
    """
    if dim < 1:
        raise InvariantError(f"hessian dimension must be >= 1, got {dim}")
    if not math.isfinite(damp_ratio) or damp_ratio <= 0:
        raise InvariantError(f"damp_ratio must be finite and > 0, got {damp_ratio}")
    h = np.zeros((dim, dim), dtype=np.float32)
    # An f32 overflow leaves inf or NaN in h, which the check below reports.
    with np.errstate(over="ignore", invalid="ignore"):
        for s in samples:
            x = check_matrix(s)
            if x.shape[1] != dim:
                raise InvariantError(f"sample has {x.shape[1]} columns, "
                                     f"Hessian expects {dim}")
            h += 2.0 * (x.T @ x)
        h = (h + h.T) / 2.0
    diag = np.diag(h).astype(np.float64)
    lam = damp_ratio * float(np.mean(diag))
    if lam <= 0:
        raise NumericError("all-zero Hessian: damping produced lambda = 0")
    if not (np.isfinite(h).all() and diag.max() + lam <= np.finfo(np.float32).max):
        raise NumericError(
            f"damped Hessian is not finite in f32 (lambda = {lam:.6g}); "
            "lower damp_ratio or rescale the calibration"
        )
    return h + np.float32(lam) * np.eye(dim, dtype=np.float32)


def synthetic_activations(rows: int, dim: int, seed: int) -> np.ndarray:
    """Correlated activation rows for synthetic calibration.

    Latent standard normals pass through a fixed random mixing map whose
    column gains decay geometrically from 1 to 0.05, giving the anisotropic
    covariance that layer inputs show in practice (and that makes
    Hessian-weighted quantization worthwhile).
    """
    if rows < 1 or dim < 1:
        raise InvariantError(f"dimensions must be >= 1, got ({rows}, {dim})")
    rng = np.random.default_rng(seed)
    gains = np.geomspace(1.0, 0.05, dim) if dim > 1 else np.ones(1)
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
    d_v = model.embed_dims[0]
    for x in inputs:
        if x.shape[1] != d_v:
            raise InvariantError(f"input dim {x.shape[1]} != model input dim {d_v}")
    if module_selector == "vision":
        if not model.vision_layers:
            raise InvariantError("model has no vision module")
        samples = [x.copy() for x in inputs]
    elif module_selector == "crossmodal":
        if not model.crossmodal_layers:
            raise InvariantError("model has no cross-modal module")
        samples = [model.forward_vision(x) for x in inputs]
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

    A container of another schema, a missing or mistyped `num_samples` (an
    integer) or `module_id` (a string), a missing `calib/samples/<k>` tensor
    for any k < num_samples, any other tensor outside `calib/aux/*`, and
    samples that break an invariant of `CalibrationSet`, is a FormatError.
    """
    tensors, attrs = load_container(path)
    with file_invariants(path):
        if attrs.get("schema") != "calibration/1":
            raise InvariantError("not a calibration container")
        n = typed_attr(attrs, "num_samples", int)
        module_id = typed_attr(attrs, "module_id", str)
        samples = []
        for k in range(n):
            sample = tensors.pop(f"calib/samples/{k}", None)
            if sample is None:
                raise InvariantError(f"tensor 'calib/samples/{k}' is missing")
            samples.append(sample)
        stray = sorted(name for name in tensors if not name.startswith("calib/aux/"))
        if stray:
            raise InvariantError(
                f"tensors {stray} are neither samples below num_samples nor calib/aux/*"
            )
        aux = {name.removeprefix("calib/aux/"): t for name, t in tensors.items()}
        return CalibrationSet(module_id, samples, aux)
