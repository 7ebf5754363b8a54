import json
import re

import numpy as np
import pytest

from modquant import (
    CalibrationSet,
    FormatError,
    InvariantError,
    QuantConfig,
    circular_eval_accuracy,
    dequantize_packed,
    estimate_packed_size,
    generate_model,
    load_calibration,
    load_checkpoint,
    load_container,
    load_model,
    pack_linear,
    quantize_model,
    rtn_quantize,
    save_calibration,
    save_checkpoint,
    save_model,
    seeded_random_matrix,
    size_report,
    write_container,
)
from modquant.pipeline import QuantizedCheckpoint
from modquant.model import GROUP_ORDER


DIM = 32
CFG = QuantConfig(bits=4, groupsize=16)


def calib(module, seed, n=3):
    return CalibrationSet(
        module, [seeded_random_matrix(10, DIM, seed + i) for i in range(n)]
    )


@pytest.fixture(scope="module")
def model():
    return generate_model(2, 2, DIM, seed=0, misc_params=500)


@pytest.fixture(scope="module")
def checkpoint(model):
    return quantize_model(model, calib("vision", 10), calib("crossmodal", 20), CFG)


class TestQuantizeModel:
    def test_every_weight_once(self, model, checkpoint):
        assert set(checkpoint.layers) == set(model.weights)
        names = checkpoint.report["processing_order"]
        assert len(names) == len(set(names)) == len(model.weights)

    def test_vision_first_then_group_order(self, checkpoint):
        entries = checkpoint.report["layers"]
        modules = [e["module"] for e in entries]
        assert modules == ["vision"] * 2 + ["crossmodal"] * 16
        # within each cross-modal layer the groups appear in the fixed order
        for j in (0, 1):
            groups = [e["group"] for e in entries if e["module"] == "crossmodal"
                      and e["layer_index"] == j]
            seen = []
            for g in groups:
                if not seen or seen[-1] != g:
                    seen.append(g)
            assert tuple(seen) == GROUP_ORDER
        # order_index mirrors list position
        assert [e["order_index"] for e in entries] == list(range(len(entries)))

    def test_groups_share_calibration_hash(self, checkpoint):
        for j in (0, 1):
            hashes = {
                e["calib_sha256"]
                for e in checkpoint.report["layers"]
                if e["module"] == "crossmodal" and e["layer_index"] == j
            }
            assert len(hashes) == 1

    def test_vision_independent_of_crossmodal_calib(self, model, checkpoint):
        other = quantize_model(model, calib("vision", 10), calib("crossmodal", 99), CFG)
        for e in checkpoint.report["layers"]:
            name = e["name"]
            a, b = checkpoint.layers[name], other.layers[name]
            same = (
                a.qweight.tobytes() == b.qweight.tobytes()
                and a.scales.tobytes() == b.scales.tobytes()
                and a.qzeros.tobytes() == b.qzeros.tobytes()
            )
            if e["module"] == "vision":
                assert same, f"vision layer {name} changed"
            # report diff confined to cross-modal layers
        diffs = [
            e["name"]
            for e, o in zip(checkpoint.report["layers"], other.report["layers"])
            if e["proxy_loss"] != o["proxy_loss"]
        ]
        assert diffs and all(d.startswith("crossmodal.") for d in diffs)

    def test_no_crossmodal_layers(self):
        m = generate_model(2, 0, DIM, seed=1)
        ck = quantize_model(m, calib("vision", 1), calib("crossmodal", 2), CFG)
        assert set(ck.layers) == set(m.vision_layers)

    @pytest.mark.parametrize("modules", [("crossmodal", "vision"), ("vision", "vision")])
    def test_calibration_sets_from_the_wrong_modules(self, model, modules):
        with pytest.raises(InvariantError, match="vision and crossmodal"):
            quantize_model(model, calib(modules[0], 10), calib(modules[1], 20), CFG)

    def test_dim_mismatch(self, model):
        bad = CalibrationSet("vision", [seeded_random_matrix(4, DIM + 1, 0)])
        with pytest.raises(InvariantError):
            quantize_model(model, bad, calib("crossmodal", 3), CFG)

    def test_rtn_method_recorded(self, model):
        ck = quantize_model(model, calib("vision", 10), calib("crossmodal", 20),
                            CFG, method="rtn")
        assert ck.report["method"] == "rtn"

    def test_deterministic(self, model, checkpoint, tmp_path):
        again = quantize_model(model, calib("vision", 10), calib("crossmodal", 20), CFG)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(checkpoint, p1)
        save_checkpoint(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_checkpoint_roundtrip(self, checkpoint, tmp_path):
        path = tmp_path / "ck.bin"
        save_checkpoint(checkpoint, path)
        back = load_checkpoint(path)
        assert back.report == json.loads(json.dumps(checkpoint.report))
        for name, layer in checkpoint.layers.items():
            got = back.layers[name]
            assert np.array_equal(got.qweight, layer.qweight)
            assert np.array_equal(
                dequantize_packed(got), dequantize_packed(layer)
            )


class TestCircularEval:
    def test_all_correct(self):
        recs = [{"question_id": 1, "passes": [("A", "A"), ("B", "B")]}]
        assert circular_eval_accuracy(recs) == 1.0

    def test_one_failed_pass(self):
        recs = [{"question_id": 1, "passes": [("A", "A"), ("C", "B")]}]
        assert circular_eval_accuracy(recs) == 0.0

    def test_mixed_four_questions(self):
        # direct enumeration: products are 1, 1, 0, 0 -> sum 2, N = 4
        recs = [
            {"question_id": 1, "passes": [("A", "A")]},
            {"question_id": 2, "passes": [("B", "B"), ("C", "C")]},
            {"question_id": 3, "passes": [("A", "B")]},
            {"question_id": 4, "passes": [("A", "A"), ("D", "C")]},
        ]
        expected = (1 * 1 + 1 * 1 + 0 + 1 * 0) / 4
        assert circular_eval_accuracy(recs) == expected == 0.5

    def test_single_pass_equals_plain_accuracy(self):
        rng = np.random.default_rng(0)
        recs = [
            {"question_id": i, "passes": [(int(rng.integers(2)), 1)]}
            for i in range(50)
        ]
        plain = sum(r["passes"][0][0] == 1 for r in recs) / 50
        assert circular_eval_accuracy(recs) == plain

    def test_range(self):
        recs = [{"question_id": 0, "passes": [("A", "A"), ("B", "A")]}]
        assert 0.0 <= circular_eval_accuracy(recs) <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(InvariantError):
            circular_eval_accuracy([])
        with pytest.raises(InvariantError):
            circular_eval_accuracy([{"question_id": 1, "passes": []}])


def model_shapes(m):
    return [(n, *m.weights[n].shape) for n in m.matrix_names()]


class TestSizeReport:
    def test_single_layer_fixture(self):
        m = generate_model(1, 0, 4096, seed=2)
        report = size_report(model_shapes(m), 4, 128)
        assert report["per_layer"]["vision.0.proj"]["total"] == 8_732_672
        assert report["quantized_bytes"] == 8_732_672

    def test_checkpoint_matches_estimates(self, checkpoint):
        entries = checkpoint.report["layers"]
        shapes = [(e["name"], e["in_features"], e["out_features"]) for e in entries]
        report = size_report(shapes, 4, 16, checkpoint.report["misc_params"])
        expected = estimate_packed_size(DIM, DIM, 4, 16)["total"] * 18
        assert report["quantized_bytes"] == expected
        assert report["misc_bytes"] == 1000
        assert report["per_layer"] == {e["name"]: e["bytes"] for e in entries}

    def test_no_matrices_rejected(self):
        with pytest.raises(InvariantError, match="no weight matrices"):
            size_report([], 4, 128)

    def test_n8_ratio(self):
        m = generate_model(1, 0, 4096, seed=3)
        report = size_report(model_shapes(m), 8, 128)
        assert 0.50 <= report["quantized_ratio"] <= 0.55

    def test_n4_ratio_law(self):
        m = generate_model(1, 0, 4096, seed=4)
        report = size_report(model_shapes(m), 4, 128)
        assert 0.25 <= report["quantized_ratio"] <= 0.275
        assert 0.25 <= report["ratio"] <= 0.275  # misc = 0


def _drop(key):
    return lambda t, a: t.pop(key)


def _tensor(key, fn):
    return lambda t, a: t.__setitem__(key, fn(t[key]))


def _poke(key, index, value):
    return lambda t, a: t[key].__setitem__(index, value)


def _attr(key, value=None):
    if value is None:
        return lambda t, a: a.pop(key)
    return lambda t, a: a.__setitem__(key, value)


def _meta(key, value=None):
    return lambda t, a: _attr(key, value)(t, a["layers"]["v"])


# A 64 x 24 4-bit layer "v" at groupsize 16 (G = 4) with a bias.
CKPT_MUTATIONS = {
    "missing qweight": _drop("v/qweight"),
    "missing scales": _drop("v/scales"),
    "missing qzeros": _drop("v/qzeros"),
    "missing g_idx": _drop("v/g_idx"),
    "truncated qweight": _tensor("v/qweight", lambda x: x[:-1]),
    "qweight i32": _tensor("v/qweight", lambda x: x.view(np.int32)),
    "scales f32": _tensor("v/scales", lambda x: x.astype(np.float32)),
    "scales missing a group": _tensor("v/scales", lambda x: x[:-1]),
    "qzeros extra word": _tensor("v/qzeros", lambda x: np.zeros((4, 4), x.dtype)),
    "g_idx short": _tensor("v/g_idx", lambda x: x[:-8]),
    "g_idx u32": _tensor("v/g_idx", lambda x: x.view(np.uint32)),
    "g_idx equals G": _poke("v/g_idx", -1, 4),
    "g_idx negative": _poke("v/g_idx", 0, -1),
    "g_idx reversed": _tensor("v/g_idx", lambda x: x[::-1].copy()),
    "g_idx all zero": _tensor("v/g_idx", np.zeros_like),
    "bias short": _tensor("v/bias", lambda x: x[:-1]),
    "bias f16": _tensor("v/bias", lambda x: x.astype(np.float16)),
    "missing bits": _attr("bits"),
    "bits as string": _attr("bits", "4"),
    "bits 3": _attr("bits", 3),
    "missing groupsize": _attr("groupsize"),
    "groupsize -2": _attr("groupsize", -2),
    "groupsize 0": _attr("groupsize", 0),
    "groupsize 32": _attr("groupsize", 32),
    "missing layers": _attr("layers"),
    "missing report": _attr("report"),
    "missing in_features": _meta("in_features"),
    "in_features off by a word": _meta("in_features", 72),
    "out_features as float": _meta("out_features", 24.0),
}


@pytest.mark.parametrize("mutation", sorted(CKPT_MUTATIONS))
def test_load_checkpoint_rejects_malformed_layer(tmp_path, mutation):
    cfg = QuantConfig(bits=4, groupsize=16)
    layer = pack_linear(rtn_quantize(seeded_random_matrix(64, 24, 1), cfg),
                        bias=np.ones(24, dtype=np.float32))
    report = {"bits": 4, "groupsize": 16,
              "layers": [{"name": "v", "in_features": 64, "out_features": 24}]}
    path = tmp_path / "ck.bin"
    save_checkpoint(QuantizedCheckpoint({"v": layer}, report), path)
    assert load_checkpoint(path).layers["v"].qweight.shape == (8, 24)
    tensors, attrs = load_container(path)
    CKPT_MUTATIONS[mutation](tensors, attrs)
    write_container(path, tensors, attrs)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def _layer(key, value=None):
    return lambda t, a: _attr(key, value)(t, a["crossmodal_layers"][0])


def _group(key, value=None):
    return lambda t, a: _attr(key, value)(t, a["crossmodal_layers"][0]["groups"][0])


# Mutations of a generate_model(1, 1, 8) container ("model") and of a
# two-sample calibration container ("calib").
LOADER_MUTATIONS = {
    "model: missing vision_layers": ("model", _attr("vision_layers")),
    "model: vision_layers not a list": ("model", _attr("vision_layers", "vision.0.proj")),
    "model: missing crossmodal_layers": ("model", _attr("crossmodal_layers")),
    "model: layer entry not a map": ("model", _attr("crossmodal_layers", [0])),
    "model: missing layer index": ("model", _layer("index")),
    "model: layer index as string": ("model", _layer("index", "0")),
    "model: missing groups": ("model", _layer("groups")),
    "model: missing group kind": ("model", _group("kind")),
    "model: unknown group kind": ("model", _group("kind", "attn_qkvo")),
    "model: groups out of order": (
        "model", lambda t, a: a["crossmodal_layers"][0]["groups"].reverse()),
    "model: group with no members": ("model", _group("members", [])),
    "model: missing weight tensor": ("model", _drop("crossmodal.0.attn_out.o_proj")),
    "model: duplicate layer name": (
        "model", _attr("vision_layers", ["vision.0.proj", "vision.0.proj"])),
    "model: Inf weight": ("model", _poke("vision.0.proj", (0, 0), np.inf)),
    "model: negative misc_params": ("model", _attr("misc_params", -1)),
    "model: missing members": ("model", _group("members")),
    "model: member not a string": ("model", _group("members", [1])),
    "model: missing embed_dims": ("model", _attr("embed_dims")),
    "model: one embed dim": ("model", _attr("embed_dims", [8])),
    "model: float embed dims": ("model", _attr("embed_dims", [8.0, 8.0])),
    "model: misc_params as string": ("model", _attr("misc_params", "0")),
    "calib: missing num_samples": ("calib", _attr("num_samples")),
    "calib: num_samples 0": ("calib", _attr("num_samples", 0)),
    "calib: num_samples as string": ("calib", _attr("num_samples", "2")),
    "calib: num_samples above the samples": ("calib", _attr("num_samples", 3)),
    "calib: missing module_id": ("calib", _attr("module_id")),
    "calib: module_id not a string": ("calib", _attr("module_id", 1)),
    "calib: missing sample": ("calib", _drop("calib/samples/1")),
    "calib: 1-D sample": ("calib", _tensor("calib/samples/0", np.ravel)),
    "calib: samples of mixed widths": ("calib", _tensor("calib/samples/1", lambda x: x[:, :4])),
    "calib: NaN sample": ("calib", _poke("calib/samples/0", (0, 0), np.nan)),
}


@pytest.mark.parametrize("mutation", sorted(LOADER_MUTATIONS))
def test_model_and_calibration_loaders_reject_malformed(tmp_path, mutation):
    kind, mutate = LOADER_MUTATIONS[mutation]
    path = tmp_path / "c.bin"
    if kind == "model":
        save_model(generate_model(1, 1, 8, seed=3), path)
        load = load_model
    else:
        samples = [seeded_random_matrix(4, 8, k) for k in range(2)]
        save_calibration(CalibrationSet("vision", samples), path)
        load = load_calibration
    load(path)
    tensors, attrs = load_container(path)
    mutate(tensors, attrs)
    write_container(path, tensors, attrs)
    with pytest.raises(FormatError, match=re.escape(str(path))):
        load(path)


@pytest.mark.parametrize("load", [load_model, load_calibration, load_checkpoint],
                         ids=["model", "calibration", "checkpoint"])
def test_loaders_reject_another_kind_of_container(tmp_path, load):
    model_path, calib_path = tmp_path / "m.bin", tmp_path / "c.bin"
    save_model(generate_model(1, 1, 8, seed=3), model_path)
    save_calibration(CalibrationSet("vision", [seeded_random_matrix(4, 8, 0)]), calib_path)
    other = calib_path if load is load_model else model_path
    with pytest.raises(FormatError, match="not a"):
        load(other)


# Weight shapes of a generate_model(2, 1, 8) container that break the chain
# the forward passes and quantize_model rely on; each breaks one rule.
SHAPE_MUTATIONS = {
    "three embed dims": _attr("embed_dims", [8, 8, 8]),
    "0 x 8 weight": _tensor("vision.1.proj", lambda x: x[:0]),
    "1-D weight": _tensor("vision.1.proj", np.ravel),
    "first vision layer in != D_V": _tensor("vision.0.proj", lambda x: x[:4]),
    "vision in != previous out": _tensor("vision.0.proj", lambda x: x[:, :4]),
    "member in != D_M": _tensor("crossmodal.0.attn_qkv.k_proj", lambda x: x[:4]),
    "first member out != D_M": _tensor("crossmodal.0.attn_out.o_proj", lambda x: x[:, :4]),
    "embed_dims disagree with weights": _attr("embed_dims", [8, 16]),
}


@pytest.mark.parametrize("mutation", sorted(SHAPE_MUTATIONS))
def test_load_model_rejects_weight_shapes(tmp_path, mutation):
    path = tmp_path / "m.bin"
    save_model(generate_model(2, 1, 8, seed=3), path)
    load_model(path)
    tensors, attrs = load_container(path)
    SHAPE_MUTATIONS[mutation](tensors, attrs)
    write_container(path, tensors, attrs)
    with pytest.raises(FormatError):
        load_model(path)
