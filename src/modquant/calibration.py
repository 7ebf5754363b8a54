"""Calibration capture and Hessian accumulation.

Calibration samples are the activations arriving at a module boundary of
the synthetic model. Every sequence position contributes one row to the
Hessian statistic H = 2 * X^T X accumulated over all samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, NumericError
from .model import SyntheticModel, check_propagated
from .quantcore import QuantConfig
from .tensorio import (
    _seeded_rng,
    check_matrix,
    file_invariants,
    load_container,
    typed_attr,
    write_container,
)

CALIBRATION_SCHEMA = "calibration/1"
# The modules a calibration set can come from: the vision stack's input, and
# the cross-modal layers' input (the vision stack's output).
MODULES = ("vision", "crossmodal")


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
    """A `module_id`, a str that `MODULES` lists, and `samples` that
    `check_matrix` accepts, all of one width; building one checks both."""

    module_id: str
    samples: list[np.ndarray]

    def __post_init__(self):
        if typed_attr(vars(self), "module_id", str) not in MODULES:
            raise InvariantError(f"module_id must be one of {MODULES}, got {self.module_id!r}")
        self.samples = _one_width(self.samples)


def hessian_from_samples(samples, damp_ratio: float) -> np.ndarray:
    """Damped Hessian H + lambda*I in f64, with H = 2 * X^T X for X the
    `samples` stacked in order and lambda = damp_ratio * mean(diag(H)). H is
    d x d for the width d that every sample shares; no samples, or two
    widths, and a damp_ratio that `QuantConfig` rejects, is an InvariantError.

    X is widened to f64 and H is one product, which numpy forms as a
    symmetric one; products of finite f32 values neither overflow nor
    underflow in f64. A lambda outside (0, inf), from all-zero samples or a
    damp_ratio too large for f64, is a NumericError. Definiteness is not
    checked here: GPTQ's factorization (`inverse_hessian_factor`) raises
    NumericError on a damped Hessian it cannot factorize.
    """
    QuantConfig(damp_ratio=damp_ratio)
    x = np.concatenate(_one_width(samples), dtype=np.float64)
    h = 2.0 * (x.T @ x)
    lam = damp_ratio * float(np.mean(np.diag(h)))
    if not 0 < lam < np.inf:
        raise NumericError(
            f"damping lambda = {lam:.6g} is not in (0, inf): an all-zero Hessian, "
            "or a damp_ratio that f64 cannot hold"
        )
    h[np.diag_indices_from(h)] += lam
    return h


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
) -> CalibrationSet:
    """Catch the activations entering the selected module's first layer.

    'vision' catches at the first vision layer (the raw inputs);
    'crossmodal' catches after the full vision stack. Forward execution
    stops at the catch point. A selector that `MODULES` does not list is an
    InvariantError; activations that leave float32's range are a NumericError.
    """
    if module_selector not in MODULES:
        raise InvariantError(f"unknown module selector {module_selector!r}, "
                             f"not one of {MODULES}")
    inputs = _one_width(inputs)
    d_v = model.embed_dims[0]
    if inputs[0].shape[1] != d_v:
        raise InvariantError(f"input dim {inputs[0].shape[1]} != model input dim {d_v}")
    if module_selector == "vision":
        if not model.vision_layers:
            raise InvariantError("model has no vision module")
        samples = [x.copy() for x in inputs]
    else:
        if not model.crossmodal_layers:
            raise InvariantError("model has no cross-modal module")
        with np.errstate(over="ignore", invalid="ignore"):
            samples = [model.forward_vision(x) for x in inputs]
        check_propagated(samples, "cross-modal", 0)
    return CalibrationSet(module_selector, samples)


def save_calibration(calib: CalibrationSet, path) -> None:
    write_container(
        path,
        {f"calib/samples/{k}": s for k, s in enumerate(calib.samples)},
        {"schema": CALIBRATION_SCHEMA, "module_id": calib.module_id,
         "num_samples": len(calib.samples)},
    )


def load_calibration(path) -> CalibrationSet:
    """Read a set written by `save_calibration`.

    A container of another schema, a missing or mistyped `num_samples` (an
    integer), a missing `calib/samples/<k>` tensor for any k < num_samples,
    any other tensor, and a `module_id` or samples that `CalibrationSet`
    rejects, is a FormatError.
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
        if tensors:
            raise InvariantError(
                f"tensors {sorted(tensors)} are not samples below num_samples"
            )
        return CalibrationSet(attrs.get("module_id"), samples)
