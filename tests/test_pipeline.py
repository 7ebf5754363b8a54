import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modquant import (
    CalibrationSet,
    FormatError,
    InvariantError,
    NumericError,
    QuantConfig,
    SyntheticModel,
    TileConfig,
    circular_eval_accuracy,
    dequantize_packed,
    estimate_packed_size,
    generate_model,
    load_calibration,
    load_checkpoint,
    load_container,
    load_model,
    pack_linear,
    quant_matmul,
    quantize_model,
    rtn_quantize,
    save_calibration,
    save_checkpoint,
    save_model,
    seeded_random_matrix,
    size_report,
    synthetic_activations,
    write_container,
)
from modquant import pipeline
from modquant.packfmt import packed_tensors
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

    def test_one_hessian_block_per_crossmodal_layer(self, model, checkpoint):
        # Each vision layer has its own block and each cross-modal layer one
        # for all eight members, numbered 0..n-1 in the order of the walk.
        entries = checkpoint.report["layers"]
        by_layer = {}
        for e in entries:
            by_layer.setdefault((e["module"], e["layer_index"]), set()).add(e["hessian_block"])
        assert list(by_layer.values()) == [{0}, {1}, {2}, {3}]
        walk = model.hessian_blocks(calib("vision", 10).samples, calib("crossmodal", 20).samples)
        assert [(e["name"], e["hessian_block"]) for e in entries] == [
            (name, k) for k, (*_, members, _) in enumerate(walk) for name, _ in members]

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

    def test_unknown_method_rejected(self, model):
        with pytest.raises(InvariantError, match="unknown method 'awq'"):
            quantize_model(model, calib("vision", 10), calib("crossmodal", 20), CFG,
                           method="awq")

    def test_rtn_method_recorded(self, model):
        ck = quantize_model(model, calib("vision", 10), calib("crossmodal", 20),
                            CFG, method="rtn")
        assert ck.report["method"] == "rtn"

    def test_unpackable_matrix_named_before_any_hessian(self, monkeypatch):
        # D_V = 16 packs at 4 bits (f_int = 8); D_M = 12 does not.
        small = generate_model(1, 1, 12, seed=4)
        weights = {**small.weights, "vision.0.proj": seeded_random_matrix(16, 12, 5)}
        m = SyntheticModel(small.vision_layers, small.crossmodal_layers, weights, (16, 12))
        calls = []

        def spy(name):
            real = getattr(pipeline, name)
            return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

        for name in ("hessian_from_samples", "gptq_quantize"):
            monkeypatch.setattr(pipeline, name, spy(name))
        with pytest.raises(InvariantError, match=re.escape(
                "matrix 'crossmodal.0.attn_qkv.q_proj': layer shape (12, 12) must be "
                "positive, with in_features a multiple of f_int = 8")):
            quantize_model(m, CalibrationSet("vision", [seeded_random_matrix(10, 16, 1)]),
                           CalibrationSet("crossmodal", [seeded_random_matrix(10, 12, 2)]), CFG)
        assert calls == []

    @pytest.mark.parametrize("method", ["gptq", "rtn"])
    def test_one_factor_per_hessian_block(self, model, monkeypatch, method):
        # 2 vision layers + 2 cross-modal layers = 4 blocks, one Hessian
        # each; every GPTQ call gets its block's factor, RTN factorizes none
        factors, gptq_factors = [], []
        factorize, gptq = pipeline.inverse_hessian_factor, pipeline.gptq_quantize

        def counting_factorize(h):
            factors.append(factorize(h))
            return factors[-1]

        def recording_gptq(w, cfg, *, factor):
            gptq_factors.append(factor)
            return gptq(w, cfg, factor=factor)

        monkeypatch.setattr(pipeline, "inverse_hessian_factor", counting_factorize)
        monkeypatch.setattr(pipeline, "gptq_quantize", recording_gptq)
        quantize_model(model, calib("vision", 10), calib("crossmodal", 20), CFG,
                       method=method)
        if method == "rtn":
            assert factors == [] and gptq_factors == []
            return
        assert len(factors) == 4
        assert len(gptq_factors) == len(model.weights)
        per_member = [factors[0], factors[1]] + [factors[2]] * 8 + [factors[3]] * 8
        assert all(got is want for got, want in zip(gptq_factors, per_member))

    def test_hessian_blocks_walk_the_model(self, model):
        v, m = calib("vision", 10).samples, calib("crossmodal", 20).samples
        w = model.weights

        def chain(xs, names):
            for name in names:
                xs = [x @ w[name] for x in xs]
            return xs

        def members(j):
            return [(f"crossmodal.{j}.{kind}.{suffix}", kind) for kind, suffixes in (
                ("attn_qkv", ("q_proj", "k_proj", "v_proj", "expert_qkv")),
                ("attn_out", ("o_proj",)),
                ("mlp_gate_up", ("gate_proj", "up_proj")),
                ("mlp_down", ("down_proj",))) for suffix in suffixes]

        firsts = [f"crossmodal.0.{g}" for g in
                  ("attn_qkv.q_proj", "attn_out.o_proj", "mlp_gate_up.gate_proj",
                   "mlp_down.down_proj")]
        expected = [("vision", 0, [("vision.0.proj", None)], v),
                    ("vision", 1, [("vision.1.proj", None)], chain(v, ["vision.0.proj"])),
                    ("crossmodal", 0, members(0), m),
                    ("crossmodal", 1, members(1), chain(m, firsts))]
        blocks = list(model.hessian_blocks(v, m))
        assert [b[:3] for b in blocks] == [e[:3] for e in expected]
        for (*_, got), (*_, want) in zip(blocks, expected):
            assert len(got) == len(want)
            assert all(np.array_equal(g, x) for g, x in zip(got, want))
        assert [n for b in blocks for n, _ in b[2]] == model.matrix_names()

    @pytest.mark.parametrize("module", ["vision", "cross-modal"])
    def test_hessian_blocks_reject_calibration_dims_before_the_first_block(
            self, model, module):
        good, bad = calib("vision", 10).samples, [seeded_random_matrix(4, DIM + 1, 0)]
        v, m = (bad, good) if module == "vision" else (good, bad)
        with pytest.raises(InvariantError, match=f"{module} calibration dim {DIM + 1}"):
            next(model.hessian_blocks(v, m))

    @pytest.mark.filterwarnings("error")
    def test_vision_step_that_leaves_f32_range_is_numeric_error(self):
        # Each layer scales by 1e20: layer 1 reads ~1e20, layer 2 would read
        # ~1e40, beyond float32; the walk stops before layer 2's block.
        m = generate_model(3, 0, 8, seed=0)
        for name in m.vision_layers:
            m.weights[name] = np.eye(8, dtype=np.float32) * np.float32(1e20)
        walk = m.hessian_blocks([seeded_random_matrix(4, 8, 0)], [])
        assert [next(walk)[1], next(walk)[1]] == [0, 1]
        with pytest.raises(NumericError, match="to vision layer 2 leaves float32's range"):
            next(walk)

    def test_pipeline_follows_the_models_blocks(self, checkpoint, monkeypatch, tmp_path):
        # Split each cross-modal layer into its four groups, all reading the
        # layer input: 2 + 2 x 4 = 10 blocks, one factor each.
        split = generate_model(2, 2, DIM, seed=0, misc_params=500)
        walk = split.hessian_blocks

        def per_group(vision_samples, crossmodal_samples):
            for module, index, members, samples in walk(vision_samples, crossmodal_samples):
                for kind in dict.fromkeys(g for _, g in members):
                    yield module, index, [(n, g) for n, g in members if g == kind], samples

        factors, gptq_factors = [], []
        factorize, gptq = pipeline.inverse_hessian_factor, pipeline.gptq_quantize

        def counting_factorize(h):
            factors.append(factorize(h))
            return factors[-1]

        def recording_gptq(w, cfg, *, factor):
            gptq_factors.append(factor)
            return gptq(w, cfg, factor=factor)

        monkeypatch.setattr(split, "hessian_blocks", per_group)
        monkeypatch.setattr(pipeline, "inverse_hessian_factor", counting_factorize)
        monkeypatch.setattr(pipeline, "gptq_quantize", recording_gptq)
        ck = quantize_model(split, calib("vision", 10), calib("crossmodal", 20), CFG)
        entries = ck.report["layers"]
        keys = [(e["module"], e["layer_index"], e["group"]) for e in entries]
        blocks = list(dict.fromkeys(keys))
        assert len(factors) == len(blocks) == 10
        assert [e["hessian_block"] for e in entries] == [blocks.index(k) for k in keys]
        assert len(gptq_factors) == len(entries)
        assert all(got is factors[e["hessian_block"]] for got, e in zip(gptq_factors, entries))
        # Every block reads the same input, so the files differ only by the
        # block indices: without them, packed tensors and reports are equal.
        for ckpt, path in ((ck, tmp_path / "split.bin"), (checkpoint, tmp_path / "layer.bin")):
            report = {**ckpt.report, "layers": [
                {k: v for k, v in e.items() if k != "hessian_block"} for e in ckpt.report["layers"]]}
            save_checkpoint(QuantizedCheckpoint(ckpt.layers, report), path)
        assert (tmp_path / "split.bin").read_bytes() == (tmp_path / "layer.bin").read_bytes()

    def test_processing_order_is_the_models_matrix_order(self, model, checkpoint):
        assert checkpoint.report["processing_order"] == model.matrix_names()

    def test_deterministic(self, model, checkpoint, tmp_path):
        again = quantize_model(model, calib("vision", 10), calib("crossmodal", 20), CFG)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(checkpoint, p1)
        save_checkpoint(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_checkpoint_roundtrip(self, checkpoint, tmp_path):
        """The report is the file's only manifest, and a round trip keeps it
        and every packed tensor's bytes."""
        path = tmp_path / "ck.bin"
        save_checkpoint(checkpoint, path)
        assert load_container(path)[1].keys() == {"schema", "report"}
        back = load_checkpoint(path)
        assert back.report == json.loads(json.dumps(checkpoint.report))
        assert list(back.layers) == checkpoint.report["processing_order"]
        for name, layer in checkpoint.layers.items():
            want, have = packed_tensors(layer, name), packed_tensors(back.layers[name], name)
            assert want.keys() == have.keys()
            assert all(want[k].dtype == have[k].dtype and want[k].tobytes() == have[k].tobytes()
                       for k in want)
            assert np.array_equal(
                dequantize_packed(back.layers[name]), dequantize_packed(layer)
            )

    def test_report_with_retired_keys_loads(self, checkpoint, tmp_path):
        """Older reports also hold a top-level "symmetric", "hessian_sharing"
        and "misc_params", and each entry's "order_index", "calib_sha256" and
        "bytes"; the loader reads none of them, so those files still load."""
        path = tmp_path / "old.bin"
        save_checkpoint(checkpoint, path)
        tensors, attrs = load_container(path)
        attrs["report"]["symmetric"] = False
        attrs["report"]["misc_params"] = 500
        attrs["report"]["hessian_sharing"] = (
            "one Hessian per cross-modal layer, shared by all four groups "
            "(single input-feature space)")
        for i, entry in enumerate(attrs["report"]["layers"]):
            entry["order_index"] = i
            entry["calib_sha256"] = f"{entry['hessian_block']:064x}"
            entry["bytes"] = estimate_packed_size(entry["in_features"], entry["out_features"],
                                                  CFG.bits, CFG.groupsize)
        write_container(path, tensors, attrs)
        back = load_checkpoint(path)
        assert back.report == attrs["report"]
        for name, layer in checkpoint.layers.items():
            want, have = (dequantize_packed(x) for x in (layer, back.layers[name]))
            assert have.tobytes() == want.tobytes()


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

    @pytest.mark.parametrize(
        "records",
        [{"a": 1}, [1], [{"question_id": 1}], [{"passes": [("A", "B", "C")]}],
         [{"passes": "AA"}]],
        ids=["not a list", "not an object", "no passes", "not a pair", "passes a string"],
    )
    def test_malformed_records_rejected(self, records):
        with pytest.raises(InvariantError, match="passes"):
            circular_eval_accuracy(records)


class TestSizeReport:
    def test_single_layer_fixture(self):
        m = generate_model(1, 0, 4096, seed=2)
        report = size_report(m, 4, 128)
        assert report["per_layer"]["vision.0.proj"]["total"] == 8_732_672
        assert report["quantized_bytes"] == 8_732_672

    def test_checkpoint_matches_estimates(self, model, checkpoint):
        entries = checkpoint.report["layers"]
        report = size_report(model, 4, 16)
        expected = estimate_packed_size(DIM, DIM, 4, 16)["total"] * 18
        assert report["quantized_bytes"] == expected
        assert report["misc_bytes"] == 1000
        assert report["per_layer"] == {
            e["name"]: estimate_packed_size(e["in_features"], e["out_features"], 4, 16)
            for e in entries}

    def test_no_matrices_rejected(self):
        with pytest.raises(InvariantError, match="model has no weight matrices"):
            SyntheticModel([], [], {}, (8, 8))

    def test_unpackable_shape_is_named_but_bad_bits_are_not(self):
        m = generate_model(1, 1, 12, seed=0)
        with pytest.raises(InvariantError,
                           match=r"^matrix 'vision.0.proj': layer shape \(12, 12\)"):
            size_report(m, 4, -1)
        with pytest.raises(InvariantError, match="^bits must be one of"):
            size_report(m, 3, -1)

    def test_n8_ratio(self):
        m = generate_model(1, 0, 4096, seed=3)
        report = size_report(m, 8, 128)
        assert 0.50 <= report["quantized_ratio"] <= 0.55

    def test_n4_ratio_law(self):
        m = generate_model(1, 0, 4096, seed=4)
        report = size_report(m, 4, 128)
        assert 0.25 <= report["quantized_ratio"] <= 0.275
        assert 0.25 <= report["ratio"] <= 0.275  # misc = 0


def _drop(key):
    return lambda t, a: t.pop(key)


def _tensor(key, fn):
    return lambda t, a: t.__setitem__(key, fn(t[key]))


def _copy(src, dst):
    return lambda t, a: t.__setitem__(dst, t[src])


def _poke(key, index, value):
    return lambda t, a: t[key].__setitem__(index, value)


def _attr(key, value=None):
    if value is None:
        return lambda t, a: a.pop(key)
    return lambda t, a: a.__setitem__(key, value)


def _report(key, value=None):
    return lambda t, a: _attr(key, value)(t, a["report"])


def _entry(key, value=None):
    return lambda t, a: _attr(key, value)(t, a["report"]["layers"][0])


# A 64 x 24 4-bit layer "v" at groupsize 16 (G = 4) with a bias.
CKPT_MUTATIONS = {
    "missing qweight": _drop("v/qweight"),
    "missing scales": _drop("v/scales"),
    "missing qzeros": _drop("v/qzeros"),
    "missing g_idx": _drop("v/g_idx"),
    "truncated qweight": _tensor("v/qweight", lambda x: x[:-1]),
    "qweight i32": _tensor("v/qweight", lambda x: x.view(np.int32)),
    "scales f32": _tensor("v/scales", lambda x: x.astype(np.float32)),
    "inf scale": _poke("v/scales", (0, 0), np.inf),
    "NaN scale": _poke("v/scales", (3, 23), np.nan),
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
    "stray tensor under no layer": _copy("v/qweight", "stray/qweight"),
    "stray tensor under a layer": _copy("v/bias", "v/extra"),
    "missing bits": _report("bits"),
    "bits as string": _report("bits", "4"),
    "bits 3": _report("bits", 3),
    "missing groupsize": _report("groupsize"),
    "groupsize -2": _report("groupsize", -2),
    "groupsize 0": _report("groupsize", 0),
    "groupsize 32": _report("groupsize", 32),
    "missing layers": _report("layers"),
    "missing report": _attr("report"),
    "report is a string": _attr("report", "x"),
    "missing in_features": _entry("in_features"),
    "in_features off by a word": _entry("in_features", 56),
    "out_features as float": _entry("out_features", 24.0),
    "report bits 8": _report("bits", 8),
    "report layers empty": _report("layers", []),
    "report layer in_features 72": _entry("in_features", 72),
    "schema quantized-checkpoint/1": lambda t, a: a.update(
        schema="quantized-checkpoint/1", bits=4, groupsize=16,
        layers={"v": {"in_features": 64, "out_features": 24}}),
    "report lists v twice": lambda t, a: a["report"]["layers"].append(a["report"]["layers"][0]),
    "layer name not a string": _entry("name", 0),
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
    with pytest.raises(FormatError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_save_checkpoint_cannot_write_what_load_checkpoint_rejects(tmp_path):
    layer = pack_linear(rtn_quantize(seeded_random_matrix(64, 24, 1), CFG))
    report = {"bits": 4, "groupsize": 16,
              "layers": [{"name": "v", "in_features": 64, "out_features": 24}]}
    path = tmp_path / "ck.bin"
    with pytest.raises(InvariantError, match="scales"):
        f32_scales = dataclasses.replace(layer, scales=layer.scales.astype(np.float32))
        save_checkpoint(QuantizedCheckpoint({"v": f32_scales}, report), path)
    assert not path.exists()
    with pytest.raises(InvariantError, match="report says 8, 16"):
        save_checkpoint(QuantizedCheckpoint({"v": layer}, {**report, "bits": 8}), path)
    assert not path.exists()
    with pytest.raises(InvariantError, match="'bits'"):
        no_bits = {k: v for k, v in report.items() if k != "bits"}
        save_checkpoint(QuantizedCheckpoint({"v": layer}, no_bits), path)
    assert not path.exists()
    with pytest.raises(InvariantError, match="report says 8, 16"):
        changed = QuantizedCheckpoint({"v": layer}, dict(report))
        changed.report["bits"] = 8
        save_checkpoint(changed, path)
    assert not path.exists()


@pytest.mark.parametrize("bits,groupsize,match", [
    (3, 16, "bits must be one of"), (4, 0, "groupsize 0"), (4, -7, "groupsize -7"),
])
def test_checkpoint_report_needs_a_quant_config(tmp_path, bits, groupsize, match):
    """A report with no layers still names bits and a groupsize that
    `QuantConfig` must accept, at construction and again at save, so no file
    that load_checkpoint rejects is written."""
    with pytest.raises(InvariantError, match=match):
        QuantizedCheckpoint({}, {"bits": bits, "groupsize": groupsize, "layers": []})
    ckpt = QuantizedCheckpoint({}, {"bits": 4, "groupsize": 16, "layers": []})
    ckpt.report.update(bits=bits, groupsize=groupsize)
    path = tmp_path / "ck.bin"
    with pytest.raises(InvariantError, match=match):
        save_checkpoint(ckpt, path)
    assert not path.exists()


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
    "model: vision out != D_M": ("model", _tensor("vision.0.proj", lambda x: x[:, :4])),
    "model: no vision layers and D_V != D_M": (
        "model", lambda t, a: (t.pop("vision.0.proj"),
                               a.update(vision_layers=[], embed_dims=[4, 8]))),
    "model: negative misc_params": ("model", _attr("misc_params", -1)),
    "model: missing members": ("model", _group("members")),
    "model: member not a string": ("model", _group("members", [1])),
    "model: missing embed_dims": ("model", _attr("embed_dims")),
    "model: one embed dim": ("model", _attr("embed_dims", [8])),
    "model: float embed dims": ("model", _attr("embed_dims", [8.0, 8.0])),
    "model: misc_params as string": ("model", _attr("misc_params", "0")),
    "model: stray weight": ("model", _copy("vision.0.proj", "stray.proj")),
    "model: cross-modal index not its position": ("model", _layer("index", 1)),
    "calib: missing num_samples": ("calib", _attr("num_samples")),
    "calib: num_samples 0": ("calib", _attr("num_samples", 0)),
    "calib: num_samples as string": ("calib", _attr("num_samples", "2")),
    "calib: num_samples above the samples": ("calib", _attr("num_samples", 3)),
    "calib: missing module_id": ("calib", _attr("module_id")),
    "calib: module_id not a string": ("calib", _attr("module_id", 1)),
    "calib: unknown module_id": ("calib", _attr("module_id", "audio")),
    "calib: missing sample": ("calib", _drop("calib/samples/1")),
    "calib: 1-D sample": ("calib", _tensor("calib/samples/0", np.ravel)),
    "calib: samples of mixed widths": ("calib", _tensor("calib/samples/1", lambda x: x[:, :4])),
    "calib: NaN sample": ("calib", _poke("calib/samples/0", (0, 0), np.nan)),
    "calib: sample beyond num_samples": ("calib", _copy("calib/samples/0", "calib/samples/5")),
    "calib: unprefixed tensor": ("calib", _copy("calib/samples/0", "junk")),
    "calib: aux tensor": ("calib", _copy("calib/samples/0", "calib/aux/mask")),
    "calib: sample beyond a shrunk num_samples": ("calib", _attr("num_samples", 1)),
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
    "last vision out != D_M": _tensor("vision.1.proj", lambda x: x[:, :4]),
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


@settings(max_examples=40)
@given(
    layers=st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any),
    dim=st.sampled_from(range(8, 65, 8)),
    bits=st.sampled_from([2, 4, 8]),
    groupsize=st.sampled_from([-1, 8, 12, 40]),
    method=st.sampled_from(["gptq", "rtn"]),
    weight_scale=st.sampled_from([1.0, 1e-6]),
)
@example(layers=(1, 0), dim=8, bits=2, groupsize=-1, method="rtn", weight_scale=1.0)
@example(layers=(2, 2), dim=64, bits=4, groupsize=12, method="gptq", weight_scale=1.0)
@example(layers=(0, 1), dim=48, bits=2, groupsize=40, method="gptq", weight_scale=1.0)
@example(layers=(1, 1), dim=64, bits=4, groupsize=32, method="rtn", weight_scale=1e-6)
@example(layers=(0, 2), dim=8, bits=4, groupsize=-1, method="gptq", weight_scale=1e-6)
@example(layers=(1, 2), dim=16, bits=2, groupsize=8, method="rtn", weight_scale=1e-6)
def test_quantize_save_load_and_matmul_agree(tmp_path_factory, layers, dim, bits,
                                             groupsize, method, weight_scale):
    """quantize -> save -> load gives the same layer bytes and report, and
    the kernel matches A @ dequantize_packed (criterion 3's bound) at 1 and 2
    workers. Groupsizes 12 and 40 leave a short last group at some dims; a
    dim that is not a multiple of f_int is the documented InvariantError.
    Weights scaled by 1e-6 have scales far below float16's normal range.
    With those, a second cross-modal layer reads calibration chained through
    four 1e-6 matrices (~1e-24), whose f64 Hessian is still nonzero."""
    model = generate_model(*layers, dim, seed=dim + bits)
    for w in model.weights.values():
        w *= np.float32(weight_scale)
    calib_v, calib_m = (
        CalibrationSet(module, [synthetic_activations(2 * dim, dim, seed)])
        for module, seed in (("vision", 1), ("crossmodal", 2))
    )
    cfg = QuantConfig(bits=bits, groupsize=groupsize)
    if dim % (32 // bits):
        with pytest.raises(InvariantError, match="f_int"):
            quantize_model(model, calib_v, calib_m, cfg, method)
        return
    ckpt = quantize_model(model, calib_v, calib_m, cfg, method)
    path = tmp_path_factory.mktemp("ckpt") / "ck.bin"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.report == ckpt.report
    assert back.layers.keys() == ckpt.layers.keys() == set(model.weights)
    a = seeded_random_matrix(3, dim, dim)
    for name, layer in ckpt.layers.items():
        got = back.layers[name]
        assert (got.bits, got.groupsize, got.in_features, got.out_features) == (
            layer.bits, layer.groupsize, layer.in_features, layer.out_features)
        want, have = packed_tensors(layer, name), packed_tensors(got, name)
        assert want.keys() == have.keys()
        assert all(want[k].dtype == have[k].dtype and want[k].tobytes() == have[k].tobytes()
                   for k in want)
        ref = a @ dequantize_packed(got)
        one, two = (quant_matmul(a, got, TileConfig(8, 8, 16, workers=w)) for w in (1, 2))
        assert one.tobytes() == two.tobytes()
        assert np.linalg.norm(one - ref) <= 1e-5 * max(np.linalg.norm(ref), 1e-30)


def _scalars(*values):
    """One of `values`, or one of them as an np.int64 or a float, or a bool, a
    str or None: the kinds a record's field may be handed."""
    chosen = st.sampled_from(values)
    return st.one_of(chosen, chosen.map(np.int64), chosen.map(float),
                     st.sampled_from([True, False, "4", None]))


# Each field that a record checks when built: its record, and the values drawn.
RECORD_FIELDS = {
    "embed_dims": ("model", st.tuples(_scalars(16, 8), _scalars(16))),
    "misc_params": ("model", _scalars(0, 333, -1)),
    "module_id": ("calib", st.one_of(st.just("vision"), _scalars(0))),
    "bits": ("config", _scalars(4, 2, 8, 3)),
    "groupsize": ("config", _scalars(-1, 8, 0)),
    "damp_ratio": ("config", _scalars(0.01, 1, 0)),
}


def _typed(value):
    """`value` with the exact type of it and of each item it holds."""
    if isinstance(value, tuple):
        return tuple(map(_typed, value))
    return type(value), value


@pytest.fixture(scope="module")
def small_model():
    """A 1+1, dim-16 model and its vision and cross-modal calibration sets."""
    return (generate_model(1, 1, 16, seed=5),
            CalibrationSet("vision", [synthetic_activations(32, 16, 1)]),
            CalibrationSet("crossmodal", [synthetic_activations(32, 16, 2)]))


@settings(max_examples=150)
@given(case=st.sampled_from(sorted(RECORD_FIELDS)).flatmap(
    lambda field: st.tuples(st.just(field), RECORD_FIELDS[field][1])))
@example(case=("embed_dims", (16, 16)))
@example(case=("misc_params", 333))
@example(case=("module_id", "crossmodal"))
@example(case=("bits", 8))
@example(case=("groupsize", 8))
@example(case=("damp_ratio", 1))
def test_records_reject_what_their_loaders_reject(small_model, tmp_path_factory, case):
    """A record built with one field set to a drawn value and the others
    valid: either building it is an InvariantError, or saving it and loading
    the file back gives the value with its exact type."""
    field, value = case
    record = RECORD_FIELDS[field][0]
    model, calib_v, calib_m = small_model
    path = tmp_path_factory.mktemp("record") / "r.bin"
    try:
        if record == "model":
            fields = {"embed_dims": (16, 16), "misc_params": 0, field: value}
            built = SyntheticModel(model.vision_layers, model.crossmodal_layers,
                                   dict(model.weights), **fields)
        elif record == "calib":
            built = CalibrationSet(value, calib_v.samples)
        else:
            built = QuantConfig(**{field: value})
    except InvariantError:
        return
    if record == "model":
        save_model(built, path)
        back = getattr(load_model(path), field)
    elif record == "calib":
        save_calibration(built, path)
        back = load_calibration(path).module_id
    else:
        save_checkpoint(quantize_model(model, calib_v, calib_m, built), path)
        back = load_checkpoint(path).report[field]
    assert _typed(back) == _typed(value)
