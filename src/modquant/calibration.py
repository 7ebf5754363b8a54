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

from .errors import InvariantError, NumericError
from .model import SyntheticModel
from .quantcore import QuantConfig
from .tensorio import (
    _seeded_rng,
    check_matrix,
    check_tensor,
    file_invariants,
    load_container,
    typed_attr,
    write_container,
)

CALIBRATION_SCHEMA = "calibration/1"


def _one_width(samples) -> list[np.ndarray]:
    """`samples` as matrices that `check_matrix` accepts, all of one width;
    no samples, or samples of two widths, is an InvariantError."""
    samples = [check_matrix(s) for s in samples]
    widths = sorted({s.shape[1] for s in samples})
    if len(widths) != 1:
        raise InvariantError(f"need samples of one width, got widths {widths}")
    return samples


@dataclass
class CalibrationSet:
    """A str `module_id`, `samples` that `check_matrix` accepts, all of one
    width, and `aux`, a map from str names to tensors the container can
    store (`check_tensor`); building one checks all three."""

    module_id: str
    samples: list[np.ndarray]
    aux: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        fields = vars(self)
        typed_attr(fields, "module_id", str)
        self.samples = _one_width(self.samples)
        aux = typed_attr(fields, "aux", dict)
        if any(type(name) is not str for name in aux):
            raise InvariantError(f"aux names must be str, got {list(aux)!r}")
        self.aux = {name: check_tensor(f"calib/aux/{name}", t) for name, t in aux.items()}


def hessian_from_samples(samples, damp_ratio: float) -> np.ndarray:
    """Damped Hessian H + lambda*I, with H = 2 * X^T X summed over `samples`
    and lambda = damp_ratio * mean(diag(H)). H is d x d for the width d that
    every sample shares; no samples, or two widths, and a damp_ratio that
    `QuantConfig` rejects, is an InvariantError.

    The sum runs in f32 in sample order and is symmetrized before damping.
    A lambda of 0, or a Hessian or damped diagonal that f32 cannot hold,
    is a NumericError, checked in f64 before the damping is cast to f32.
    Definiteness is not checked here: GPTQ's factorization
    (`inverse_hessian_factor`) raises NumericError on a damped Hessian it
    cannot factorize.
    """
    QuantConfig(damp_ratio=damp_ratio)
    samples = _one_width(samples)
    dim = samples[0].shape[1]
    h = np.zeros((dim, dim), dtype=np.float32)
    # An f32 overflow leaves inf or NaN in h, which the check below reports.
    with np.errstate(over="ignore", invalid="ignore"):
        for x in samples:
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
    rng = _seeded_rng(seed)
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
    inputs = _one_width(inputs)
    d_v = model.embed_dims[0]
    if inputs[0].shape[1] != d_v:
        raise InvariantError(f"input dim {inputs[0].shape[1]} != model input dim {d_v}")
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
        {"schema": CALIBRATION_SCHEMA, "module_id": calib.module_id,
         "num_samples": len(calib.samples)},
    )


def load_calibration(path) -> CalibrationSet:
    """Read a set written by `save_calibration`.

    A container of another schema, a missing or mistyped `num_samples` (an
    integer), a missing `calib/samples/<k>` tensor for any k < num_samples,
    any other tensor outside `calib/aux/*`, and a `module_id` or samples that
    `CalibrationSet` rejects, is a FormatError.
    """
    tensors, attrs = load_container(path)
    with file_invariants(path):
        if attrs.get("schema") != CALIBRATION_SCHEMA:
            raise InvariantError("not a calibration container")
        n = typed_attr(attrs, "num_samples", int)
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
        return CalibrationSet(attrs.get("module_id"), samples, aux)
