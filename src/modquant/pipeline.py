"""Modality-partitioned quantization pipeline and evaluation metrics.

Vision encoder layers are quantized first, from vision calibration only;
cross-modal layers follow, group by group in the fixed order attn_qkv ->
attn_out -> mlp_gate_up -> mlp_down. All four groups of a layer consume
the identical calibration input tensor (captured from the original,
unquantized forward pass), and vision quantization never reads any
cross-modal calibration state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationSet, hessian_from_samples
from .errors import FormatError, InvariantError
from .model import SyntheticModel
from .packfmt import (
    PackedLinear,
    estimate_packed_size,
    pack_linear,
    packed_from_tensors,
    packed_tensors,
)
from .quantcore import (
    QuantConfig,
    gptq_quantize,
    inverse_hessian_factor,
    proxy_loss,
    rtn_quantize,
)
from .tensorio import file_invariants, load_container, typed_attr, write_container

REPORT_SCHEMA_VERSION = 1


@dataclass
class QuantizedCheckpoint:
    layers: dict[str, PackedLinear]
    report: dict


def _hash_samples(samples: list[np.ndarray]) -> str:
    h = hashlib.sha256()
    for s in samples:
        h.update(np.ascontiguousarray(s, dtype=np.float32))
    return h.hexdigest()


def quantize_model(
    model: SyntheticModel,
    calib_v: CalibrationSet,
    calib_m: CalibrationSet,
    cfg: QuantConfig,
    method: str = "gptq",
) -> QuantizedCheckpoint:
    if method not in ("gptq", "rtn"):
        raise InvariantError(f"unknown method {method!r}")
    if (calib_v.module_id, calib_m.module_id) != ("vision", "crossmodal"):
        raise InvariantError(
            "calibration sets must come from the vision and crossmodal modules, "
            f"got {calib_v.module_id!r} and {calib_m.module_id!r}"
        )
    d_v, d_m = model.embed_dims
    if model.vision_layers and calib_v.feature_dim != d_v:
        raise InvariantError(
            f"vision calibration dim {calib_v.feature_dim} != D_V {d_v}"
        )
    if model.crossmodal_layers and calib_m.feature_dim != d_m:
        raise InvariantError(
            f"cross-modal calibration dim {calib_m.feature_dim} != D_M {d_m}"
        )

    layers: dict[str, PackedLinear] = {}
    entries = []

    def quantize_one(name, weight, hessian, module, layer_idx, group, calib_hash,
                     factor=None):
        if method == "gptq":
            q = gptq_quantize(weight, hessian, cfg, factor=factor)
        else:
            q = rtn_quantize(weight, cfg)
        layers[name] = pack_linear(q)
        entries.append({
            "name": name,
            "module": module,
            "layer_index": layer_idx,
            "group": group,
            "order_index": len(entries),
            "in_features": int(weight.shape[0]),
            "out_features": int(weight.shape[1]),
            "proxy_loss": proxy_loss(weight, q, hessian),
            "calib_sha256": calib_hash,
            "bytes": estimate_packed_size(
                weight.shape[0], weight.shape[1], cfg.bits, cfg.groupsize
            ),
        })

    # Vision phase: each layer's Hessian comes from the vision calibration
    # propagated through the preceding original-weight layers. Samples are
    # only read, so they are used in place.
    samples = calib_v.samples
    last = len(model.vision_layers) - 1
    for i, name in enumerate(model.vision_layers):
        w = model.weights[name]
        hessian = hessian_from_samples(samples, w.shape[0], cfg.damp_ratio)
        quantize_one(name, w, hessian, "vision", i, None, _hash_samples(samples))
        if i < last:
            samples = [(s @ w).astype(np.float32) for s in samples]

    # Cross-modal phase: one shared calibration input (and Hessian, since
    # every member shares the layer's input-feature space) per layer, so
    # GPTQ factorizes that Hessian once for all members.
    samples = calib_m.samples
    for layer in model.crossmodal_layers:
        calib_hash = _hash_samples(samples)
        hessian = hessian_from_samples(samples, d_m, cfg.damp_ratio)
        factor = inverse_hessian_factor(hessian) if method == "gptq" else None
        for group in layer.groups:
            for name in group.members:
                quantize_one(
                    name, model.weights[name], hessian,
                    "crossmodal", layer.index, group.group_kind, calib_hash, factor,
                )
        samples = [model.forward_crossmodal_layer(layer, s) for s in samples]

    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "method": method,
        "bits": cfg.bits,
        "groupsize": cfg.groupsize,
        "damp_ratio": cfg.damp_ratio,
        "hessian_sharing": "one Hessian per cross-modal layer, shared by all "
                           "four groups (single input-feature space)",
        "processing_order": [e["name"] for e in entries],
        "layers": entries,
        "misc_params": model.misc_params,
    }
    return QuantizedCheckpoint(layers, report)


def circular_eval_accuracy(records: list[dict]) -> float:
    """Fraction of questions answered correctly in every circular pass."""
    if not records:
        raise InvariantError("no evaluation records")
    hits = 0
    for rec in records:
        passes = rec["passes"]
        if not passes:
            raise InvariantError(
                f"question {rec.get('question_id')!r} has no passes"
            )
        hits += all(p == a for p, a in passes)
    return hits / len(records)


def size_report(
    shapes: list[tuple[str, int, int]], bits: int, groupsize: int,
    misc_params: int = 0,
) -> dict:
    """Analytic storage of (name, in_features, out_features) matrices packed
    at (bits, groupsize), plus `misc_params` unquantized f16 parameters, with
    the ratio against an all-f16 model."""
    if not shapes:
        raise InvariantError("model has no weight matrices")
    per_layer = {
        name: estimate_packed_size(n_in, n_out, bits, groupsize)
        for name, n_in, n_out in shapes
    }
    quant_total = sum(b["total"] for b in per_layer.values())
    weight_f16 = sum(n_in * n_out * 2 for _, n_in, n_out in shapes)
    misc_bytes = misc_params * 2
    total = quant_total + misc_bytes
    baseline = weight_f16 + misc_bytes
    return {
        "per_layer": per_layer,
        "quantized_bytes": quant_total,
        "misc_bytes": misc_bytes,
        "total": total,
        "baseline_f16": baseline,
        "ratio": total / baseline,
        "quantized_ratio": quant_total / weight_f16,
    }


def save_checkpoint(ckpt: QuantizedCheckpoint, path) -> None:
    tensors = {}
    for name, layer in ckpt.layers.items():
        tensors.update(packed_tensors(layer, name))
    attrs = {
        "schema": "quantized-checkpoint/1",
        "bits": ckpt.report["bits"],
        "groupsize": ckpt.report["groupsize"],
        "layers": {
            e["name"]: {
                "in_features": e["in_features"],
                "out_features": e["out_features"],
            }
            for e in ckpt.report["layers"]
        },
        "report": ckpt.report,
    }
    write_container(path, tensors, attrs)


def load_checkpoint(path) -> QuantizedCheckpoint:
    """Read a checkpoint written by `save_checkpoint`.

    A container of another schema, a missing or mistyped attribute, bits
    and groupsize that `QuantConfig` rejects, and any layer tensor that is
    missing or does not match the layer's shape (see `packed_from_tensors`),
    is a FormatError.
    """
    tensors, attrs = load_container(path)
    if attrs.get("schema") != "quantized-checkpoint/1":
        raise FormatError(f"{path}: not a quantized-checkpoint container")
    bits = typed_attr(attrs, "bits", int, path)
    groupsize = typed_attr(attrs, "groupsize", int, path)
    if not isinstance(attrs.get("layers"), dict) or "report" not in attrs:
        raise FormatError(
            f"{path}: attributes 'layers' (a map) and 'report' are required"
        )
    layers = {}
    with file_invariants(path):
        cfg = QuantConfig(bits, groupsize)
        for name, meta in attrs["layers"].items():
            where = f"{path}: layer {name!r}"
            layers[name] = packed_from_tensors(
                tensors, name, cfg.bits, cfg.groupsize,
                typed_attr(meta, "in_features", int, where),
                typed_attr(meta, "out_features", int, where),
            )
    return QuantizedCheckpoint(layers, attrs["report"])
