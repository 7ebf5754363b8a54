import json
import os
import tracemalloc

import numpy as np
import pytest

from modquant import (
    CalibrationSet,
    TileConfig,
    capture_calibration,
    estimate_packed_size,
    generate_model,
    load_calibration,
    load_checkpoint,
    load_container,
    save_calibration,
    save_model,
    seeded_random_matrix,
    synthetic_activations,
    write_container,
)
from modquant import cli, kernel
from modquant.cli import main
from modquant.kernel import tile_plan
from modquant.model import MODEL_SCHEMA
from modquant.quantcore import SUPPORTED_BITS

FOUR_QUESTION_FIXTURE = [
    {"question_id": 1, "passes": [["A", "A"]]},
    {"question_id": 2, "passes": [["B", "B"], ["C", "C"]]},
    {"question_id": 3, "passes": [["A", "B"]]},
    {"question_id": 4, "passes": [["A", "A"], ["D", "C"]]},
]


@pytest.fixture
def workspace(tmp_path):
    model = tmp_path / "model.bin"
    cv = tmp_path / "cv.bin"
    cm = tmp_path / "cm.bin"
    assert main(["gen-model", "--vision-layers", "1", "--crossmodal-layers", "1",
                 "--dim", "32", "--seed", "1", "--out", str(model)]) == 0
    assert main(["gen-calib", "--module", "vision", "--dim", "32",
                 "--samples", "2", "--seqlen", "8", "--seed", "2",
                 "--out", str(cv)]) == 0
    assert main(["gen-calib", "--module", "crossmodal", "--dim", "32",
                 "--samples", "2", "--seqlen", "8", "--seed", "3",
                 "--out", str(cm)]) == 0
    return tmp_path


def test_eval_circular_fixture(tmp_path, capsys):
    rec = tmp_path / "rec.json"
    rec.write_text(json.dumps(FOUR_QUESTION_FIXTURE))
    assert main(["eval-circular", "--records", str(rec)]) == 0
    assert capsys.readouterr().out.strip() == "0.5"


def test_eval_circular_malformed_json(tmp_path):
    rec = tmp_path / "rec.json"
    rec.write_text("{not json")
    assert main(["eval-circular", "--records", str(rec)]) == 3


@pytest.mark.parametrize(
    "records",
    [[1], [{"question_id": 1}], [{"passes": [[1, 2, 3]]}], {"a": 1}, [],
     [{"question_id": 1, "passes": []}]],
    ids=["not an object", "no passes", "not a pair", "not a list", "empty",
         "empty passes"],
)
def test_eval_circular_malformed_records(tmp_path, capsys, records):
    rec = tmp_path / "rec.json"
    rec.write_text(json.dumps(records))
    assert main(["eval-circular", "--records", str(rec)]) == 3
    assert "passes" in capsys.readouterr().err


def test_eval_circular_deeply_nested_records_is_format_error(tmp_path, capsys):
    rec = tmp_path / "rec.json"
    rec.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["eval-circular", "--records", str(rec)]) == 3
    assert str(rec) in capsys.readouterr().err


def test_eval_circular_binary_records_is_format_error(tmp_path):
    rec = tmp_path / "rec.json"
    rec.write_bytes(bytes(range(128, 256)))
    assert main(["eval-circular", "--records", str(rec)]) == 3


def test_unknown_flag_is_usage_error(capsys):
    assert main(["eval-circular", "--no-such-flag", "x"]) == 2


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_quantize_and_size(workspace, capsys):
    out = workspace / "ckpt.bin"
    rc = main(["quantize", "--model", str(workspace / "model.bin"),
               "--calib-v", str(workspace / "cv.bin"),
               "--calib-m", str(workspace / "cm.bin"),
               "--bits", "4", "--groupsize", "16", "--out", str(out)])
    assert rc == 0
    ckpt = load_checkpoint(out)
    assert len(ckpt.layers) == 9  # 1 vision + 8 cross-modal members
    report = json.loads((workspace / "ckpt.bin.report.json").read_text())
    assert report["schema_version"] == 1
    assert report.keys() == {"schema_version", "method", "bits", "groupsize", "damp_ratio",
                             "processing_order", "layers"}
    assert all(e.keys() == {"name", "module", "layer_index", "group", "in_features",
                            "out_features", "proxy_loss", "hessian_block"}
               for e in report["layers"])

    capsys.readouterr()
    assert main(["size", "--model", str(workspace / "model.bin"),
                 "--bits", "4", "--groupsize", "16"]) == 0
    sizes = json.loads(capsys.readouterr().out)
    assert sizes["quantized_bytes"] == sum(
        estimate_packed_size(e["in_features"], e["out_features"], 4, 16)["total"]
        for e in report["layers"]
    )


def test_size_model_without_embed_dims_is_format_error(workspace, capsys):
    path = workspace / "model.bin"
    tensors, attrs = load_container(path)
    del attrs["embed_dims"]
    write_container(path, tensors, attrs)
    assert main(["size", "--model", str(path), "--bits", "4"]) == 3
    assert "embed_dims" in capsys.readouterr().err


@pytest.mark.parametrize("reshape", [np.ravel, lambda w: w[:4]], ids=["1-D", "in cut"])
def test_size_model_with_bad_weight_shape_is_format_error(workspace, capsys, reshape):
    path = workspace / "model.bin"
    tensors, attrs = load_container(path)
    name = "crossmodal.0.mlp_down.down_proj"
    tensors[name] = reshape(tensors[name])
    write_container(path, tensors, attrs)
    assert main(["size", "--model", str(path), "--bits", "4"]) == 3
    assert name in capsys.readouterr().err


def test_size_model_with_negative_misc_params_is_format_error(workspace, capsys):
    path = workspace / "model.bin"
    tensors, attrs = load_container(path)
    attrs["misc_params"] = -1
    write_container(path, tensors, attrs)
    assert main(["size", "--model", str(path), "--bits", "4"]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "misc_params" in err


@pytest.mark.parametrize("command", ["size", "quantize"])
def test_model_with_stray_weight_is_format_error(workspace, capsys, command):
    path = workspace / "model.bin"
    tensors, attrs = load_container(path)
    tensors["stray.proj"] = seeded_random_matrix(32, 32, 0)
    write_container(path, tensors, attrs)
    out = workspace / "x.bin"
    args = {
        "size": ["size", "--model", str(path), "--bits", "4"],
        "quantize": ["quantize", "--model", str(path),
                     "--calib-v", str(workspace / "cv.bin"),
                     "--calib-m", str(workspace / "cm.bin"),
                     "--bits", "4", "--out", str(out)],
    }[command]
    assert main(args) == 3
    assert "stray.proj" in capsys.readouterr().err
    assert not out.exists()


def test_model_with_repeated_crossmodal_index_is_format_error(workspace, capsys):
    path = workspace / "model2.bin"
    save_model(generate_model(1, 2, 32, seed=1), path)
    tensors, attrs = load_container(path)
    attrs["crossmodal_layers"][1]["index"] = 0
    write_container(path, tensors, attrs)
    out = workspace / "x.bin"
    assert main(["quantize", "--model", str(path), "--calib-v", str(workspace / "cv.bin"),
                 "--calib-m", str(workspace / "cm.bin"), "--bits", "4",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "cross-modal layer 1 has index 0" in err
    assert not out.exists()


def test_quantize_swapped_calibration_sets_is_invariant_error(workspace, capsys):
    rc = main(["quantize", "--model", str(workspace / "model.bin"),
               "--calib-v", str(workspace / "cm.bin"),
               "--calib-m", str(workspace / "cv.bin"),
               "--bits", "4", "--out", str(workspace / "x.bin")])
    assert rc == 4
    assert "vision and crossmodal" in capsys.readouterr().err
    assert not (workspace / "x.bin").exists()


# A path that cannot be opened, passed where a container (--model) or a JSON
# file (--records, --configs) is read, is exit 4 with no traceback.
UNREADABLE_INPUTS = {
    "size --model": ["size", "--bits", "4", "--model"],
    "eval-circular --records": ["eval-circular", "--records"],
    "bench --configs": ["bench", "--m", "8", "--k", "16", "--d", "8", "--configs"],
}


@pytest.mark.parametrize("target", ["directory", "missing file"])
@pytest.mark.parametrize("command", sorted(UNREADABLE_INPUTS))
def test_unreadable_input_path_is_exit_4(workspace, capsys, command, target):
    path = workspace if target == "directory" else workspace / "nope.json"
    assert main(UNREADABLE_INPUTS[command] + [str(path)]) == 4
    assert str(path) in capsys.readouterr().err


def test_quantize_rejects_bits_3(workspace):
    rc = main(["quantize", "--model", str(workspace / "model.bin"),
               "--calib-v", str(workspace / "cv.bin"),
               "--calib-m", str(workspace / "cm.bin"),
               "--bits", "3", "--out", str(workspace / "x.bin")])
    assert rc == 4


@pytest.mark.parametrize("synthetic,dim,message", [
    (generate_model(1, 1, 12, seed=0), "12",
     "matrix 'vision.0.proj': layer shape (12, 12) must be positive, "
     "with in_features a multiple of f_int = 8"),
], ids=["dim 12"])
def test_quantize_model_that_cannot_be_packed_is_exit_4(tmp_path, capsys, synthetic, dim,
                                                         message):
    # Checked before any Hessian is built, as `size` checks it; no file is written.
    model, cv, cm, out = (str(tmp_path / f) for f in ("m.bin", "cv.bin", "cm.bin", "x.bin"))
    save_model(synthetic, model)
    for module, path, seed in (("vision", cv, "2"), ("crossmodal", cm, "3")):
        assert main(["gen-calib", "--module", module, "--dim", dim, "--seed", seed,
                     "--out", path]) == 0
    capsys.readouterr()
    assert main(["quantize", "--model", model, "--calib-v", cv, "--calib-m", cm,
                 "--bits", "4", "--out", out]) == 4
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)
    assert main(["size", "--model", model, "--bits", "4"]) == 4
    assert message in capsys.readouterr().err


def test_model_file_with_no_matrices_is_format_error(workspace, capsys):
    # the file that `gen-model` wrote for no layers before it refused them
    path, out = workspace / "empty.bin", workspace / "x.bin"
    write_container(path, {}, {"schema": MODEL_SCHEMA, "vision_layers": [],
                               "crossmodal_layers": [], "embed_dims": [8, 8], "misc_params": 0})
    for args in (["size", "--model", str(path), "--bits", "4"],
                 ["quantize", "--model", str(path), "--calib-v", str(workspace / "cv.bin"),
                  "--calib-m", str(workspace / "cm.bin"), "--bits", "4", "--out", str(out)]):
        assert main(args) == 3
        err = capsys.readouterr().err
        assert str(path) in err and "model has no weight matrices" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("crossmodal_layers,rc", [(4, 5), (3, 0)], ids=["1+4", "1+3"])
def test_quantize_calibration_that_leaves_f32_range(tmp_path, capsys, crossmodal_layers, rc):
    """Each layer scales activations by ~3e3 per product, so calibration
    reaching cross-modal layer 3 has left float32's range: exit 5, naming that
    layer. With three cross-modal layers only the forward after the last one
    overflows, and nothing reads it. Neither case warns."""
    m = generate_model(1, crossmodal_layers, 64, seed=1)
    for name in m.weights:
        m.weights[name] *= np.float32(3e3)
    model, cv, cm, out = (str(tmp_path / f) for f in ("m.bin", "cv.bin", "cm.bin", "x.bin"))
    save_model(m, model)
    for module, path in (("vision", cv), ("crossmodal", cm)):
        save_calibration(capture_calibration(m, [synthetic_activations(16, 64, 5)], module), path)
    assert main(["quantize", "--model", model, "--calib-v", cv, "--calib-m", cm,
                 "--bits", "8", "--out", out]) == rc
    assert capsys.readouterr().err == ("numeric error: calibration propagated to cross-modal "
                                       "layer 3 leaves float32's range\n" if rc else "")
    assert os.path.exists(out) == (rc == 0)


def test_quantize_report_path_is_not_an_option(workspace):
    # The report always goes to <out>.report.json.
    rc = main(["quantize", "--model", str(workspace / "model.bin"),
               "--calib-v", str(workspace / "cv.bin"),
               "--calib-m", str(workspace / "cm.bin"),
               "--bits", "4", "--out", str(workspace / "x.bin"),
               "--report", str(workspace / "r.json")])
    assert rc == 2
    assert not (workspace / "x.bin").exists()


@pytest.mark.parametrize("damp", ["nan", "inf"])
def test_quantize_rejects_non_finite_damp_ratio(workspace, capsys, damp):
    rc = main(["quantize", "--model", str(workspace / "model.bin"),
               "--calib-v", str(workspace / "cv.bin"),
               "--calib-m", str(workspace / "cm.bin"),
               "--bits", "4", "--damp-ratio", damp,
               "--out", str(workspace / "x.bin")])
    assert rc == 4
    assert "damp_ratio" in capsys.readouterr().err
    assert not (workspace / "x.bin").exists()


def test_quantize_missing_model(workspace):
    rc = main(["quantize", "--model", str(workspace / "nope.bin"),
               "--calib-v", str(workspace / "cv.bin"),
               "--calib-m", str(workspace / "cm.bin"),
               "--bits", "4", "--out", str(workspace / "x.bin")])
    assert rc == 4


def test_quantize_bad_container(workspace):
    bad = workspace / "bad.bin"
    bad.write_bytes(b"XXXX" + bytes(32))
    rc = main(["quantize", "--model", str(bad),
               "--calib-v", str(workspace / "cv.bin"),
               "--calib-m", str(workspace / "cm.bin"),
               "--bits", "4", "--out", str(workspace / "x.bin")])
    assert rc == 3


def test_quantize_model_as_calibration_is_format_error(workspace, capsys):
    rc = main(["quantize", "--model", str(workspace / "model.bin"),
               "--calib-v", str(workspace / "model.bin"),
               "--calib-m", str(workspace / "cm.bin"),
               "--bits", "4", "--out", str(workspace / "x.bin")])
    assert rc == 3
    assert "not a calibration container" in capsys.readouterr().err


def test_size_calibration_as_model_is_format_error(workspace, capsys):
    assert main(["size", "--model", str(workspace / "cv.bin"), "--bits", "4"]) == 3
    assert "not a synthetic-model container" in capsys.readouterr().err


def test_quantize_all_zero_calibration_is_numeric_error(workspace, capsys):
    zeros = workspace / "zeros.bin"
    save_calibration(CalibrationSet("crossmodal", [np.zeros((8, 32), np.float32)]), zeros)
    rc = main(["quantize", "--model", str(workspace / "model.bin"),
               "--calib-v", str(workspace / "cv.bin"),
               "--calib-m", str(zeros),
               "--bits", "4", "--out", str(workspace / "x.bin")])
    assert rc == 5
    assert "all-zero Hessian" in capsys.readouterr().err
    assert not (workspace / "x.bin").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", [[], ["--rtn"]], ids=["gptq", "rtn"])
def test_quantize_float16_scale_overflow_is_invariant_error(workspace, capsys, method):
    # finite weights up to ~4.7e6 give 4-bit g32 scales above float16's 65504,
    # rejected when the scales are fitted, before any cast can warn
    model = generate_model(1, 0, 64, 1)
    model.weights["vision.0.proj"] *= np.float32(1e7)
    save_model(model, workspace / "big.bin")
    save_calibration(CalibrationSet("vision", [seeded_random_matrix(8, 64, 2)]),
                     workspace / "cv64.bin")
    rc = main(["quantize", "--model", str(workspace / "big.bin"),
               "--calib-v", str(workspace / "cv64.bin"),
               "--calib-m", str(workspace / "cm.bin"),
               "--bits", "4", "--groupsize", "32", *method,
               "--out", str(workspace / "x.bin")])
    assert rc == 4
    assert "exceeds 65504, float16's largest value" in capsys.readouterr().err
    assert not (workspace / "x.bin").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method", [[], ["--rtn"]], ids=["gptq", "rtn"])
def test_quantize_damping_beyond_float32_is_numeric_error(tmp_path, capsys, method):
    # lambda = 1e308 * mean(diag(H)) has no f64 value: the damped Hessian is
    # rejected for RTN too, which never factorizes
    paths = {name: str(tmp_path / f"{name}.bin") for name in ("model", "cv", "cm")}
    assert main(["gen-model", "--vision-layers", "1", "--crossmodal-layers", "1",
                 "--dim", "64", "--seed", "1", "--out", paths["model"]]) == 0
    for module, seed in (("vision", "2"), ("crossmodal", "3")):
        assert main(["gen-calib", "--module", module, "--dim", "64", "--samples", "1",
                     "--seqlen", "16", "--seed", seed,
                     "--out", paths["cv" if module == "vision" else "cm"]]) == 0
    capsys.readouterr()
    rc = main(["quantize", "--model", paths["model"], "--calib-v", paths["cv"],
               "--calib-m", paths["cm"], "--bits", "4", "--damp-ratio", "1e308", *method,
               "--out", str(tmp_path / "x.bin")])
    assert rc == 5
    assert "a damp_ratio that f64 cannot hold" in capsys.readouterr().err
    assert not (tmp_path / "x.bin").exists()
    assert not (tmp_path / "x.bin.report.json").exists()


@pytest.mark.parametrize("bits", SUPPORTED_BITS)
def test_bench_with_trace(workspace, capsys, bits):
    # block_k 16 and 32 hold whole 32-bit words at every supported width
    cfgs = workspace / "cfgs.json"
    cfgs.write_text(json.dumps([
        {"block_m": 8, "block_d": 8, "block_k": 16},
        {"block_m": 16, "block_d": 16, "block_k": 32},
    ]))
    trace = workspace / "trace.json"
    rc = main(["bench", "--m", "16", "--k", "32", "--d", "16", "--bits", str(bits),
               "--configs", str(cfgs), "--runs", "3", "--trace", str(trace)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "median_ns" in out
    [best] = [line for line in out.splitlines() if line.endswith(" *")]
    tiles, slabs = tile_plan(16, 32, 16, TileConfig(**json.loads(best.rsplit(" ", 2)[0])))
    spans = json.loads(trace.read_text())
    labels = [s["label"] for s in spans]
    assert labels.count("forward") == 1
    # the two configs run 4 tiles of 2 slabs and 1 tile of 1 slab
    assert labels.count("tile") == len(tiles)
    assert labels.count("dequant") == len(tiles) * len(slabs)


def test_bench_malformed_configs(workspace, capsys):
    valid = '{"block_m": 8, "block_d": 8, "block_k": 8}'
    bad_block = '{"block_m": 3, "block_d": 8, "block_k": 8}'
    for text, bits in [("{}", 4), (valid, 4),
                       ('[{"block_m": 8, "block_d": 8, "block_k": 8, "tile": 8}]', 4),
                       ("[]", 4), (f"[{bad_block}]", 4), (f"[{valid}, {bad_block}]", 4),
                       (f"[{valid}]", 2), ("[" * 100_000 + "]" * 100_000, 4)]:
        cfgs = workspace / "cfgs.json"
        cfgs.write_text(text)
        assert main(["bench", "--m", "8", "--k", "16", "--d", "8", "--bits", str(bits),
                     "--configs", str(cfgs)]) == 3, text[:80]
        assert str(cfgs) in capsys.readouterr().err


def test_bench_bits_3_is_invariant_error_before_configs_are_read(workspace, capsys):
    cfgs = workspace / "cfgs.json"
    cfgs.write_text('[{"block_m": 8, "block_d": 8, "block_k": 8}]')
    assert main(["bench", "--m", "8", "--k", "16", "--d", "8", "--bits", "3",
                 "--configs", str(cfgs)]) == 4
    assert "bits must be one of" in capsys.readouterr().err


@pytest.mark.parametrize("value", ['"32"', "true", "32.0", "null"])
def test_bench_non_integer_config_field(workspace, capsys, value):
    cfgs = workspace / "cfgs.json"
    cfgs.write_text('[{"block_m": %s, "block_d": 8, "block_k": 8}]' % value)
    assert main(["bench", "--m", "8", "--k", "16", "--d", "8",
                 "--configs", str(cfgs)]) == 3
    assert "block_m" in capsys.readouterr().err


NEGATIVE_SEED_COMMANDS = {
    "gen-model": ["--vision-layers", "1", "--crossmodal-layers", "1", "--dim", "16",
                  "--out", "{d}/m.bin"],
    "gen-calib": ["--module", "vision", "--dim", "16", "--out", "{d}/c.bin"],
    "bench": ["--m", "8", "--k", "16", "--d", "8", "--configs", "{d}/cfgs.json"],
}


@pytest.mark.parametrize("command", sorted(NEGATIVE_SEED_COMMANDS))
def test_negative_seed_is_invariant_error(tmp_path, capsys, command):
    (tmp_path / "cfgs.json").write_text('[{"block_m": 8, "block_d": 8, "block_k": 8}]')
    args = [a.format(d=tmp_path) for a in NEGATIVE_SEED_COMMANDS[command]]
    assert main([command, *args, "--seed", "-1"]) == 4
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfgs.json"]


OVERSIZED = {
    "gen-model": (["gen-model", "--vision-layers", "1", "--crossmodal-layers", "0",
                   "--dim", "2000000000", "--out", "{d}/m.bin"],
                  "a 2000000000 x 2000000000 float64 array is too large to allocate"),
    "gen-calib": (["gen-calib", "--module", "vision", "--dim", "1000", "--samples",
                   "100000000", "--seqlen", "100000000", "--out", "{d}/c.bin"],
                  "a 10000000000000000 x 1000 float32 array is too large to allocate"),
    "bench": (["bench", "--m", "4", "--k", "1000000000000000000", "--d", "8",
               "--configs", "{d}/cfgs.json"],
              "a 12 x 1000000000000000000 float32 array is too large to allocate"),
    # numpy's refusal of a size it can index but not allocate, raised by a
    # stand-in so that no test asks the allocator for it
    "out of memory": (["gen-model", "--vision-layers", "1", "--crossmodal-layers", "0",
                       "--dim", "10000000", "--out", "{d}/m.bin"],
                      "Unable to allocate 728. TiB for an array with shape "
                      "(10000000, 10000000) and data type float64"),
}


@pytest.mark.parametrize("case", OVERSIZED)
def test_size_too_large_to_allocate_is_invariant_error(tmp_path, capsys, monkeypatch, case):
    argv, message = OVERSIZED[case]
    if case == "out of memory":
        def generate_model(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "generate_model", generate_model)
    (tmp_path / "cfgs.json").write_text('[{"block_m": 8, "block_d": 8, "block_k": 8}]')
    tracemalloc.start()
    try:
        rc = main([a.format(d=tmp_path) for a in argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 4
    assert capsys.readouterr().err == f"invariant error: {message}\n"
    assert peak < 1 << 20
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfgs.json"]


def test_gen_calib_seeds_share_no_sample(tmp_path):
    def samples(seed, name):
        path = tmp_path / name
        assert main(["gen-calib", "--module", "vision", "--dim", "8", "--samples", "3",
                     "--seqlen", "4", "--seed", str(seed), "--out", str(path)]) == 0
        return path.read_bytes(), {s.tobytes() for s in load_calibration(path).samples}

    first, drawn = samples(8, "a.bin")
    again, _ = samples(8, "b.bin")
    _, next_seed = samples(9, "c.bin")
    assert first == again
    assert len(drawn) == 3 and not drawn & next_seed


def test_bench_seeds_share_no_value(tmp_path, monkeypatch):
    # Every value bench draws (the timed A and the quantized W) for seed 0
    # and for seed 1; a seed it rejects stops it before it quantizes.
    drawn = []
    quantize, matmul = cli.rtn_quantize, kernel.quant_matmul
    monkeypatch.setattr(cli, "rtn_quantize", lambda w, cfg: drawn.append(w) or quantize(w, cfg))
    monkeypatch.setattr(kernel, "quant_matmul",
                        lambda a, *args: drawn.append(a) or matmul(a, *args))
    cfgs = tmp_path / "cfgs.json"
    cfgs.write_text('[{"block_m": 8, "block_d": 8, "block_k": 8}]')

    def values(seed):
        drawn.clear()
        assert main(["bench", "--m", "8", "--k", "16", "--d", "8", "--configs", str(cfgs),
                     "--seed", str(seed)]) == 0
        return set(np.concatenate([x.ravel() for x in drawn]).tolist())

    assert not values(0) & values(1)
    drawn.clear()
    assert main(["bench", "--m", "8", "--k", "16", "--d", "8", "--configs", str(cfgs),
                 "--seed", "-1"]) == 4
    assert not drawn


def test_gen_calib_negative_sizes_are_invariant_errors(tmp_path, capsys):
    assert main(["gen-calib", "--module", "vision", "--dim", "8", "--samples", "-2",
                 "--seqlen", "-4", "--out", str(tmp_path / "c.bin")]) == 4
    assert "samples and seqlen must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "c.bin").exists()


@pytest.mark.parametrize("layers,dim,message", [
    (("-1", "1"), "8", "bad model geometry"), (("1", "-1"), "8", "bad model geometry"),
    (("1", "1"), "0", "bad model geometry"), (("0", "0"), "8", "model has no weight matrices"),
], ids=["vision", "crossmodal", "dim", "no layers"])
def test_gen_model_bad_geometry_is_invariant_error(tmp_path, capsys, layers, dim, message):
    assert main(["gen-model", "--vision-layers", layers[0], "--crossmodal-layers", layers[1],
                 "--dim", dim, "--out", str(tmp_path / "m.bin")]) == 4
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


def test_gen_model_deterministic(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    args = ["gen-model", "--vision-layers", "1", "--crossmodal-layers", "1",
            "--dim", "16", "--seed", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_model_container_rereads_bit_exactly(workspace):
    path = workspace / "model.bin"
    first = load_container(path)[0]
    second = load_container(path)[0]
    for name in first:
        assert first[name].tobytes() == second[name].tobytes()
    _, attrs = load_container(path)
    assert attrs["schema"] == "synthetic-model/1"
