"""Synthetic layer stacks standing in for a real vision-language model.

A model is a sequential stack: vision layers (one weight each, not
necessarily square: the first reads D_V, each later one reads its
predecessor's out_features, and the last writes D_M when cross-modal
layers follow) followed by cross-modal layers, each of which owns the
four component groups quantized as units (attention QKV including
modality experts, attention output, MLP gate/up, MLP down).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .tensorio import (
    _seeded_rng,
    check_allocatable,
    check_matrix,
    file_invariants,
    list_attr,
    load_container,
    typed_attr,
    write_container,
)

MODEL_SCHEMA = "synthetic-model/1"
GROUP_ORDER = ("attn_qkv", "attn_out", "mlp_gate_up", "mlp_down")

# Member suffixes per group; attn_qkv carries a modality-expert projection.
_GROUP_MEMBERS = {
    "attn_qkv": ("q_proj", "k_proj", "v_proj", "expert_qkv"),
    "attn_out": ("o_proj",),
    "mlp_gate_up": ("gate_proj", "up_proj"),
    "mlp_down": ("down_proj",),
}


@dataclass
class ComponentGroup:
    """A `group_kind` of GROUP_ORDER and its `members`, a non-empty list of
    str weight names; building one checks both."""

    group_kind: str
    members: list[str]

    def __post_init__(self):
        if self.group_kind not in GROUP_ORDER:
            raise InvariantError(f"unknown group kind {self.group_kind!r}")
        if not list_attr(vars(self), "members", str):
            raise InvariantError(f"group {self.group_kind!r} has no members")


@dataclass
class CrossModalLayer:
    groups: list[ComponentGroup]

    def __post_init__(self):
        kinds = tuple(g.group_kind for g in self.groups)
        if kinds != GROUP_ORDER:
            raise InvariantError(
                f"a cross-modal layer must hold the four groups {GROUP_ORDER} "
                f"in order, got {kinds}"
            )


@dataclass
class SyntheticModel:
    vision_layers: list[str]
    crossmodal_layers: list[CrossModalLayer]
    weights: dict[str, np.ndarray]
    embed_dims: tuple[int, int]
    misc_params: int = 0

    def __post_init__(self):
        """InvariantError unless `vision_layers` is a list of str, `embed_dims`
        a list or tuple of two ints (kept as a tuple), `misc_params` an int >= 0
        (types by `typed_attr`), names are unique, every name has a weight and
        every weight a name, weights are finite 2-D f32 matrices, and the
        shapes chain as the forward passes and `hessian_blocks` use them: the
        vision stack from D_V, each layer reading the previous one's output;
        D_M fed to the cross-modal layers, by the last vision layer or as D_V;
        every cross-modal member reading D_M, each group's first writing D_M."""
        fields = vars(self)
        list_attr(fields, "vision_layers", str)
        if len(list_attr(fields, "embed_dims", int, (list, tuple))) != 2:
            raise InvariantError(f"embed_dims must hold two dims, got {self.embed_dims}")
        check_misc_params(fields)
        d_v, d_m = self.embed_dims = tuple(self.embed_dims)
        names = self.matrix_names()
        if len(set(names)) != len(names):
            raise InvariantError("weight matrix names must be unique")
        missing = [n for n in names if n not in self.weights]
        if missing:
            raise InvariantError(f"weights missing for {missing}")
        stray = sorted(self.weights.keys() - set(names))
        if stray:
            raise InvariantError(f"weights {stray} belong to no layer")
        for name, w in self.weights.items():
            try:
                self.weights[name] = check_matrix(w)
            except InvariantError as exc:
                raise InvariantError(f"weight {name!r}: {exc}") from None

        def expect(name, axis, want, what):
            got = self.weights[name].shape[axis]
            if got != want:
                side = "in" if axis == 0 else "out"
                raise InvariantError(
                    f"weight {name!r} has {side}_features {got}, but {what} is {want}"
                )

        prev, what = d_v, "D_V"
        for name in self.vision_layers:
            expect(name, 0, prev, what)
            prev, what = self.weights[name].shape[1], f"the out_features of {name!r}"
        if self.crossmodal_layers and prev != d_m:
            raise InvariantError(f"cross-modal layers read D_M {d_m}, but {what} is {prev}")
        for layer in self.crossmodal_layers:
            for group in layer.groups:
                expect(group.members[0], 1, d_m, "D_M")
                for name in group.members:
                    expect(name, 0, d_m, "D_M")

    def hessian_blocks(self, vision_samples, crossmodal_samples):
        """Yield (module, layer_index, [(name, group_kind)], samples) for each
        Hessian block in processing order: one per vision layer, then one per
        cross-modal layer holding all eight members. Each block's samples are
        its module's calibration propagated through the original weights of
        the earlier layers. Sample dims that do not match D_V or D_M, for a
        module with layers, are an InvariantError before the first block;
        empty sample lists read no weight."""
        for what, dim_name, k, samples, layers in (
                ("vision", "D_V", 0, vision_samples, self.vision_layers),
                ("cross-modal", "D_M", 1, crossmodal_samples, self.crossmodal_layers)):
            for s in samples if layers else ():
                if s.shape[1] != self.embed_dims[k]:
                    raise InvariantError(f"{what} calibration dim {s.shape[1]} != "
                                         f"{dim_name} {self.embed_dims[k]}")
        samples = vision_samples
        for i, name in enumerate(self.vision_layers):
            if i:
                samples = [s @ self.weights[self.vision_layers[i - 1]] for s in samples]
            yield "vision", i, [(name, None)], samples
        samples = crossmodal_samples
        for i, layer in enumerate(self.crossmodal_layers):
            yield ("crossmodal", i,
                   [(name, g.group_kind) for g in layer.groups for name in g.members], samples)
            # Dead work after the last layer, kept: the benchmark self-test needs this hook.
            samples = [self.forward_crossmodal_layer(layer, s) for s in samples]

    def matrix_names(self) -> list[str]:
        """Every quantized weight matrix, in the order of `hessian_blocks`."""
        return [name for *_, members, _ in self.hessian_blocks([], []) for name, _ in members]

    def forward_vision(self, x: np.ndarray) -> np.ndarray:
        """Propagate activations through the full vision stack."""
        for name in self.vision_layers:
            x = x @ self.weights[name]
        return x

    def forward_crossmodal_layer(self, layer: CrossModalLayer, x: np.ndarray) -> np.ndarray:
        """One cross-modal layer: apply each group's first member in order."""
        for group in layer.groups:
            x = x @ self.weights[group.members[0]]
        return x


def check_misc_params(fields) -> int:
    """`fields["misc_params"]`, a count of unquantized parameters, when it is
    an int >= 0; otherwise an InvariantError."""
    n = typed_attr(fields, "misc_params", int)
    if n < 0:
        raise InvariantError(f"misc_params must be >= 0, got {n}")
    return n


def vision_seq_len(image_size: int, patch_size: int) -> int:
    """Sequence length of vision samples: (image_size/patch_size)^2 + 1."""
    if image_size < 1 or patch_size < 1 or image_size % patch_size != 0:
        raise InvariantError(f"image size {image_size} and patch size {patch_size} "
                             "must be >= 1, and the patch size must divide the image size")
    return (image_size // patch_size) ** 2 + 1


def generate_model(
    vision_layers: int,
    crossmodal_layers: int,
    dim: int,
    seed: int,
    misc_params: int = 0,
) -> SyntheticModel:
    """Random synthetic model with square dim x dim weights and at least
    one layer.

    Weights are scaled by 1/sqrt(dim) so activations stay O(1) through
    arbitrarily deep stacks.
    """
    if (dim < 1 or vision_layers < 0 or crossmodal_layers < 0
            or vision_layers + crossmodal_layers == 0):
        raise InvariantError("bad model geometry")
    check_allocatable(dim, dim, np.float64)  # each weight is drawn in f64
    rng = _seeded_rng(seed)
    scale = 1.0 / np.sqrt(dim)
    weights: dict[str, np.ndarray] = {}

    def fresh(name):
        weights[name] = (rng.standard_normal((dim, dim)) * scale).astype(np.float32)

    vnames = []
    for i in range(vision_layers):
        name = f"vision.{i}.proj"
        fresh(name)
        vnames.append(name)

    layers = []
    for j in range(crossmodal_layers):
        groups = []
        for kind in GROUP_ORDER:
            members = [f"crossmodal.{j}.{kind}.{suffix}" for suffix in _GROUP_MEMBERS[kind]]
            for m in members:
                fresh(m)
            groups.append(ComponentGroup(kind, members))
        layers.append(CrossModalLayer(groups))

    return SyntheticModel(vnames, layers, weights, (dim, dim), misc_params)


def save_model(model: SyntheticModel, path) -> None:
    attrs = {
        "schema": MODEL_SCHEMA,
        "vision_layers": list(model.vision_layers),
        "crossmodal_layers": [
            {
                "index": i,
                "groups": [
                    {"kind": g.group_kind, "members": list(g.members)}
                    for g in layer.groups
                ],
            }
            for i, layer in enumerate(model.crossmodal_layers)
        ],
        "embed_dims": list(model.embed_dims),
        "misc_params": model.misc_params,
    }
    write_container(path, model.weights, attrs)


def load_model(path) -> SyntheticModel:
    """Read a model written by `save_model`.

    A container of another schema, a `crossmodal_layers` that is not a list
    of maps each with an int `index` (its position) and a `groups` list of
    maps, and fields (`vision_layers`, each group's `kind` and `members`,
    `embed_dims`, `misc_params` when present) or weights that
    `SyntheticModel` or its layers reject, is a FormatError.
    """
    tensors, attrs = load_container(path)
    with file_invariants(path):
        if attrs.get("schema") != MODEL_SCHEMA:
            raise InvariantError("not a synthetic-model container")
        layers = []
        for position, entry in enumerate(list_attr(attrs, "crossmodal_layers", dict)):
            with file_invariants(f"{path}: cross-modal layer {entry.get('index')!r}"):
                layer = CrossModalLayer([ComponentGroup(g.get("kind"), g.get("members"))
                                         for g in list_attr(entry, "groups", dict)])
                index = typed_attr(entry, "index", int)
            if index != position:
                raise InvariantError(f"cross-modal layer {position} has index {index}")
            layers.append(layer)
        return SyntheticModel(attrs.get("vision_layers"), layers, tensors,
                              attrs.get("embed_dims"), attrs.get("misc_params", 0))
