"""Modality-partitioned quantization pipeline and evaluation metrics.

The model lists its Hessian blocks in processing order, each with the
calibration input its members read (`SyntheticModel.hessian_blocks`):
vision layers first, from vision calibration only, then cross-modal
layers with their groups in the fixed order attn_qkv -> attn_out ->
mlp_gate_up -> mlp_down. The pipeline quantizes each block against one
Hessian of that input, so vision quantization never reads any
cross-modal calibration state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from .calibration import CalibrationSet, hessian_from_samples
from .errors import InvariantError
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
from .tensorio import file_invariants, list_attr, load_container, typed_attr, write_container

REPORT_SCHEMA_VERSION = 1
CHECKPOINT_SCHEMA = "quantized-checkpoint/2"


@dataclass
class QuantizedCheckpoint:
    """Packed layers and their report, a saved checkpoint's only manifest: a
    map whose int `bits` and `groupsize` are every layer's and whose `layers`
    list names each layer once with its `in_features` and `out_features`;
    anything else is an InvariantError."""

    layers: dict[str, PackedLinear]
    report: dict

    def __post_init__(self):
        report = typed_attr(vars(self), "report", dict)
        bits, groupsize = typed_attr(report, "bits", int), typed_attr(report, "groupsize", int)
        for name, layer in self.layers.items():
            if (layer.bits, layer.groupsize) != (bits, groupsize):
                raise InvariantError(
                    f"layer {name!r} is packed at bits {layer.bits}, groupsize "
                    f"{layer.groupsize}, but the report says {bits}, {groupsize}"
                )
        listed = sorted((typed_attr(e, "name", str), typed_attr(e, "in_features", int),
                         typed_attr(e, "out_features", int))
                        for e in list_attr(report, "layers", dict))
        held = sorted((n, layer.in_features, layer.out_features) for n, layer in self.layers.items())
        if listed != held:
            raise InvariantError(f"report 'layers' lists {listed}, but the layers are {held}")


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
    layers: dict[str, PackedLinear] = {}
    entries = []
    for module, layer_idx, members, samples in model.hessian_blocks(calib_v.samples,
                                                                    calib_m.samples):
        calib_hash = _hash_samples(samples)
        n_in = model.weights[members[0][0]].shape[0]
        hessian = hessian_from_samples(samples, n_in, cfg.damp_ratio)
        quantize = (partial(gptq_quantize, factor=inverse_hessian_factor(hessian))
                    if method == "gptq" else rtn_quantize)
        for name, group in members:
            weight = model.weights[name]
            q = quantize(weight, cfg)
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

    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "method": method,
        "bits": cfg.bits,
        "groupsize": cfg.groupsize,
        "symmetric": cfg.symmetric,
        "damp_ratio": cfg.damp_ratio,
        "hessian_sharing": "one Hessian per cross-modal layer, shared by all "
                           "four groups (single input-feature space)",
        "processing_order": [e["name"] for e in entries],
        "layers": entries,
        "misc_params": model.misc_params,
    }
    return QuantizedCheckpoint(layers, report)


def circular_eval_accuracy(records: list[dict]) -> float:
    """Fraction of questions answered correctly in every circular pass, over
    a non-empty list of objects, each with a non-empty 'passes' list of
    (prediction, answer) pairs; anything else is an InvariantError."""
    if not isinstance(records, list) or not records or not all(
        isinstance(rec, dict) and isinstance(rec.get("passes"), list) and rec["passes"]
        and all(isinstance(p, (list, tuple)) and len(p) == 2 for p in rec["passes"])
        for rec in records
    ):
        raise InvariantError(
            "records must be a non-empty list of objects, each with a non-empty "
            "'passes' list of [prediction, answer] pairs"
        )
    return sum(all(p == a for p, a in rec["passes"]) for rec in records) / len(records)


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
    """Write `ckpt`'s packed tensors with its report as the only manifest,
    after checking it again: its report or layers may have changed since."""
    QuantizedCheckpoint(ckpt.layers, ckpt.report)
    tensors = {}
    for name, layer in ckpt.layers.items():
        tensors.update(packed_tensors(layer, name))
    write_container(path, tensors, {"schema": CHECKPOINT_SCHEMA, "report": ckpt.report})


def load_checkpoint(path) -> QuantizedCheckpoint:
    """Read a checkpoint written by `save_checkpoint`: each layer its report
    lists, in that order, built at the report's `bits` and `groupsize`.

    A container of another schema (a quantized-checkpoint/1 file too), a
    missing or mistyped report field, bits and groupsize that `QuantConfig`
    rejects, a listed layer with a missing tensor or one that `PackedLinear`
    rejects (named in the message), a tensor of no listed layer, and a
    report that `QuantizedCheckpoint` rejects, is a FormatError.
    """
    tensors, attrs = load_container(path)
    with file_invariants(path):
        if attrs.get("schema") != CHECKPOINT_SCHEMA:
            raise InvariantError(f"not a {CHECKPOINT_SCHEMA} container")
        report = typed_attr(attrs, "report", dict)
        bits, groupsize = typed_attr(report, "bits", int), typed_attr(report, "groupsize", int)
        QuantConfig(bits, groupsize)
        layers, claimed = {}, set()
        for entry in list_attr(report, "layers", dict):
            name = typed_attr(entry, "name", str)
            shape = typed_attr(entry, "in_features", int), typed_attr(entry, "out_features", int)
            with file_invariants(f"{path}: layer {name!r}"):
                layers[name] = packed_from_tensors(tensors, name, bits, groupsize, *shape)
            claimed |= packed_tensors(layers[name], name).keys()
        stray = tensors.keys() - claimed
        if stray:
            raise InvariantError(f"tensors {sorted(stray)} belong to no layer")
        return QuantizedCheckpoint(layers, report)
