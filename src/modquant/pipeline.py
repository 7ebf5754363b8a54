"""Modality-partitioned quantization pipeline and evaluation metrics.

`quantize_model` quantizes the blocks of `SyntheticModel.hessian_blocks`
in the walk's order, each against one Hessian of the calibration input
the walk gives it: the model, not the pipeline, sets order and sharing.
Each report entry names its block by its index in the walk
(`hessian_block`), so members with one index share one Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .calibration import CalibrationSet, hessian_from_samples
from .errors import InvariantError
from .model import SyntheticModel, check_misc_params
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


def _report_layout(holder) -> tuple[int, int, list[tuple[str, int, int]]]:
    """The `bits`, `groupsize` and (name, in_features, out_features) list, in
    order, of the map `holder["report"]`; a missing or mistyped field, and
    bits and groupsize that `QuantConfig` rejects, is an InvariantError."""
    report = typed_attr(holder, "report", dict)
    cfg = QuantConfig(report.get("bits"), report.get("groupsize"))
    return cfg.bits, cfg.groupsize, [
        (typed_attr(e, "name", str), typed_attr(e, "in_features", int),
         typed_attr(e, "out_features", int)) for e in list_attr(report, "layers", dict)]


@dataclass
class QuantizedCheckpoint:
    """Packed layers and their report, a saved checkpoint's only manifest: a
    map whose int `bits` and `groupsize`, which `QuantConfig` accepts, are
    every layer's and whose `layers` list names each layer once with its
    `in_features` and `out_features`; anything else is an InvariantError."""

    layers: dict[str, PackedLinear]
    report: dict

    def __post_init__(self):
        bits, groupsize, listed = _report_layout(vars(self))
        for name, layer in self.layers.items():
            if (layer.bits, layer.groupsize) != (bits, groupsize):
                raise InvariantError(
                    f"layer {name!r} is packed at bits {layer.bits}, groupsize "
                    f"{layer.groupsize}, but the report says {bits}, {groupsize}"
                )
        held = sorted((n, layer.in_features, layer.out_features) for n, layer in self.layers.items())
        if sorted(listed) != held:
            raise InvariantError(f"report 'layers' lists {listed}, but the layers are {held}")


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
    sizes = size_report([(n, *model.weights[n].shape) for n in model.matrix_names()],
                        cfg.bits, cfg.groupsize)["per_layer"]
    layers: dict[str, PackedLinear] = {}
    entries = []
    blocks = model.hessian_blocks(calib_v.samples, calib_m.samples)
    for block, (module, layer_idx, members, samples) in enumerate(blocks):
        hessian = hessian_from_samples(samples, cfg.damp_ratio)
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
                "in_features": int(weight.shape[0]),
                "out_features": int(weight.shape[1]),
                "proxy_loss": proxy_loss(weight, q, hessian),
                "hessian_block": block,
                "bytes": sizes[name],
            })

    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "method": method,
        "bits": cfg.bits,
        "groupsize": cfg.groupsize,
        "damp_ratio": cfg.damp_ratio,
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
    the ratio against an all-f16 model. Bits and groupsize that `QuantConfig`
    rejects, no matrices, a name listed twice, a shape that cannot be packed
    (named in the message) and a `misc_params` that `SyntheticModel` rejects
    are InvariantErrors."""
    QuantConfig(bits, groupsize)
    if not shapes:
        raise InvariantError("model has no weight matrices")
    per_layer = {}
    for name, n_in, n_out in shapes:
        if name in per_layer:
            raise InvariantError(f"matrix {name!r} is listed twice")
        try:
            per_layer[name] = estimate_packed_size(n_in, n_out, bits, groupsize)
        except InvariantError as exc:
            raise InvariantError(f"matrix {name!r}: {exc}") from exc
    quant_total = sum(b["total"] for b in per_layer.values())
    weight_f16 = sum(n_in * n_out * 2 for _, n_in, n_out in shapes)
    misc_bytes = check_misc_params({"misc_params": misc_params}) * 2
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
    report that `QuantizedCheckpoint` rejects, a listed layer with a missing
    tensor or one that `PackedLinear` rejects (named in the message), and a
    tensor of no listed layer, is a FormatError.
    """
    tensors, attrs = load_container(path)
    with file_invariants(path):
        if attrs.get("schema") != CHECKPOINT_SCHEMA:
            raise InvariantError(f"not a {CHECKPOINT_SCHEMA} container")
        bits, groupsize, listed = _report_layout(attrs)
        layers, claimed = {}, set()
        for name, *shape in listed:
            with file_invariants(f"{path}: layer {name!r}"):
                layers[name] = packed_from_tensors(tensors, name, bits, groupsize, *shape)
            claimed |= packed_tensors(layers[name], name).keys()
        stray = tensors.keys() - claimed
        if stray:
            raise InvariantError(f"tensors {sorted(stray)} belong to no layer")
        return QuantizedCheckpoint(layers, attrs["report"])
