"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from modquant import (
    CalibrationSet,
    QuantConfig,
    TileConfig,
    autotune,
    circular_eval_accuracy,
    dequantize_packed,
    generate_model,
    gptq_quantize,
    hessian_from_samples,
    inverse_hessian_factor,
    lanes_per_word,
    load_container,
    pack_linear,
    pack_weights,
    proxy_loss,
    quant_matmul,
    quantize_model,
    rtn_quantize,
    seeded_random_matrix,
    size_report,
    synthetic_activations,
    unpack_weights,
)
from oracles import reference_matmul, unpack_value


class Criterion:
    def __init__(self, number, label, budget_s):
        self.number, self.label, self.budget_s = number, label, budget_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} [{status}] {self.label} "
              f"({elapsed:.2f}s / budget {self.budget_s}s)")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget"
            )
        return False


def test_criterion_1_pack_roundtrip():
    with Criterion(1, "pack round-trip, 500 grids per bit width", 5):
        col = np.arange(1, 9, dtype=np.int32).reshape(8, 1)
        assert pack_weights(col, 4)[0, 0] == 0x87654321
        for bits in (2, 4, 8):
            f_int = lanes_per_word(bits)
            rng = np.random.default_rng(bits)
            for _ in range(500):
                rows = f_int * int(rng.integers(1, 9))
                cols = int(rng.integers(1, 17))
                q = rng.integers(0, 1 << bits, size=(rows, cols)).astype(np.int32)
                assert np.array_equal(
                    unpack_weights(pack_weights(q, bits), bits), q
                )


def test_criterion_2_dequant_arithmetic():
    with Criterion(2, "shift/mask unpack and dequant arithmetic", 1):
        value = unpack_value(0x87654321, 2, 4)
        assert value == 3
        assert (value - 1) * 0.5 == 1.0
        for bits in (2, 4, 8):
            for code in range(1 << bits):
                for lane in range(lanes_per_word(bits)):
                    assert unpack_value(code << (bits * lane), lane, bits) == code


def test_criterion_3_kernel_oracle_equivalence():
    with Criterion(3, "fused kernel vs dequantize-then-matmul oracle", 60):
        rng = np.random.default_rng(33)
        blocks = [8, 16, 32, 64]
        for t in range(200):
            m = int(rng.integers(1, 48))
            k = 8 * int(rng.integers(1, 33))
            d = int(rng.integers(1, 48))
            a = seeded_random_matrix(m, k, t)
            w = seeded_random_matrix(k, d, 10_000 + t)
            layer = pack_linear(rtn_quantize(w, QuantConfig(bits=4, groupsize=16)))
            cfg = TileConfig(int(rng.choice(blocks)), int(rng.choice(blocks)),
                             int(rng.choice(blocks)))
            out = quant_matmul(a, layer, cfg)
            ref = reference_matmul(a, dequantize_packed(layer))
            err = np.linalg.norm(out - ref) / max(np.linalg.norm(ref), 1e-30)
            assert err <= 1e-5, f"instance {t}: rel err {err}"
        # exact fixtures
        q = rtn_quantize(np.eye(16, dtype=np.float32), QuantConfig(bits=4))
        q.scales[:] = 1.0
        q.zeros[:] = 0
        q.qint = np.eye(16, dtype=np.int32)
        ident = pack_linear(q)
        a = seeded_random_matrix(4, 16, 1)
        assert np.array_equal(quant_matmul(a, ident, TileConfig(8, 8, 8)), a)
        zeros = np.zeros((4, 16), dtype=np.float32)
        assert not quant_matmul(zeros, ident, TileConfig(8, 8, 8)).any()


def test_criterion_4_gptq_dominance():
    with Criterion(4, "Hessian-weighted quantizer dominates RTN", 120):
        rng = np.random.default_rng(44)
        groups = [8, 16, -1]
        wins = 0
        total = 200
        for t in range(total):
            dim = int(rng.integers(2, 33))
            cols = int(rng.integers(2, 33))
            cfg = QuantConfig(bits=4, groupsize=groups[t % 3])
            w = seeded_random_matrix(dim, cols, 2_000 + t)
            h = hessian_from_samples([synthetic_activations(64, dim, 3_000 + t)], 0.01)
            lg = proxy_loss(w, gptq_quantize(w, cfg, factor=inverse_hessian_factor(h)), h)
            lr = proxy_loss(w, rtn_quantize(w, cfg), h)
            wins += lg <= lr + 1e-6 * abs(lr)
        assert wins >= 0.99 * total, f"dominance in only {wins}/{total}"
        # single-row instances equal RTN exactly
        for seed in range(5):
            w = seeded_random_matrix(1, 12, seed)
            h = np.array([[2.0]], dtype=np.float32)
            cfg = QuantConfig(bits=4)
            assert np.array_equal(
                gptq_quantize(w, cfg, factor=inverse_hessian_factor(h)).qint,
                rtn_quantize(w, cfg).qint,
            )


def test_criterion_5_compression_law():
    with Criterion(5, "N/16 compression law with bounded overhead", 1):
        from modquant import estimate_packed_size

        sizes = estimate_packed_size(4096, 4096, 4, 128)
        assert sizes["total"] == 8_732_672
        assert 0.25 <= sizes["ratio_vs_f16"] <= 0.275
        m = generate_model(1, 0, 4096, seed=5)
        shapes = [(n, *m.weights[n].shape) for n in m.matrix_names()]
        report = size_report(shapes, 4, 128, m.misc_params)
        assert 0.25 <= report["ratio"] <= 0.275
        # analytic weight-payload bound for a 19B-parameter manifest at N=4
        layers = round(19e9 / (4096 * 4096))
        total = sizes["total"] * layers
        f16 = 4096 * 4096 * 2 * layers
        assert total / f16 <= 0.275
        assert abs(total - 9.5e9) / 9.5e9 < 0.05


def test_criterion_6_modality_independence():
    with Criterion(6, "vision outputs independent of cross-modal calibration", 30):
        dim = 32
        model = generate_model(2, 2, dim, seed=6)
        cfg = QuantConfig(bits=4, groupsize=16)
        cv = CalibrationSet(
            "vision", [seeded_random_matrix(10, dim, 60 + i) for i in range(3)]
        )
        cm1 = CalibrationSet(
            "crossmodal", [seeded_random_matrix(10, dim, 70 + i) for i in range(3)]
        )
        cm2 = CalibrationSet(
            "crossmodal", [seeded_random_matrix(10, dim, 700 + i) for i in range(3)]
        )
        a = quantize_model(model, cv, cm1, cfg)
        b = quantize_model(model, cv, cm2, cfg)
        changed = []
        for name in a.layers:
            la, lb = a.layers[name], b.layers[name]
            same = (
                la.qweight.tobytes() == lb.qweight.tobytes()
                and la.scales.tobytes() == lb.scales.tobytes()
                and la.qzeros.tobytes() == lb.qzeros.tobytes()
                and la.g_idx.tobytes() == lb.g_idx.tobytes()
            )
            if not same:
                changed.append(name)
            if name.startswith("vision."):
                assert same, f"vision layer {name} depends on cross-modal calib"
        assert changed and all(n.startswith("crossmodal.") for n in changed)


def test_criterion_7_autotuner_contract():
    with Criterion(7, "autotuner argmin with fake and real clocks", 30):
        layer = pack_linear(
            rtn_quantize(seeded_random_matrix(64, 32, 7), QuantConfig(bits=4))
        )
        c1, c2, c3 = TileConfig(8, 8, 8), TileConfig(16, 16, 16), TileConfig(32, 32, 32)
        elapsed = {c1: 10, c2: 5, c3: 7}
        for _ in range(3):  # deterministic across repeats
            schedule = [t for c in (c1, c2, c3) for _ in range(3)
                        for t in (0, elapsed[c])]
            ticks = iter(schedule)
            best, table = autotune(16, layer, [c1, c2, c3], runs=3,
                                   clock=lambda: next(ticks))
            assert best == c2
            assert table == {c1: 10.0, c2: 5.0, c3: 7.0}
        best, table = autotune(32, layer, [c1, c2, c3], runs=3)
        assert table[best] == min(table.values())


def test_criterion_8_circular_eval():
    with Criterion(8, "CircularEval metric fixtures", 1):
        assert circular_eval_accuracy(
            [{"question_id": 1, "passes": [("A", "A"), ("B", "B")]}]
        ) == 1.0
        assert circular_eval_accuracy(
            [{"question_id": 1, "passes": [("A", "A"), ("C", "B")]}]
        ) == 0.0
        mixed = [
            {"question_id": 1, "passes": [("A", "A")]},
            {"question_id": 2, "passes": [("B", "B"), ("C", "C")]},
            {"question_id": 3, "passes": [("A", "B")]},
            {"question_id": 4, "passes": [("A", "A"), ("D", "C")]},
        ]
        # hand enumeration: 1 + 1 + 0 + 0 over N = 4
        assert circular_eval_accuracy(mixed) == 0.5


def test_criterion_9_tile_config_independence():
    with Criterion(9, "tile-config independence and worker determinism", 60):
        a = seeded_random_matrix(64, 128, 9)
        layer = pack_linear(
            rtn_quantize(seeded_random_matrix(128, 64, 90),
                         QuantConfig(bits=4, groupsize=32))
        )
        candidates = [
            TileConfig(bm, bd, bk)
            for bm in (8, 32, 64) for bd in (8, 64) for bk in (8, 32, 128)
        ]
        base = quant_matmul(a, layer, candidates[0])
        norm = np.linalg.norm(base)
        for cfg in candidates[1:]:
            out = quant_matmul(a, layer, cfg)
            assert np.linalg.norm(out - base) / norm <= 1e-5
        one = quant_matmul(a, layer, TileConfig(8, 8, 8, workers=1))
        many = quant_matmul(a, layer, TileConfig(8, 8, 8, workers=16))
        assert one.tobytes() == many.tobytes()


def test_criterion_10_end_to_end_smoke(tmp_path):
    with Criterion(10, "gen-model -> quantize -> size -> bench pipeline", 60):
        def cli(*args):
            proc = subprocess.run(
                [sys.executable, "-m", "modquant.cli", *map(str, args)],
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        model = tmp_path / "model.bin"
        cv = tmp_path / "cv.bin"
        cm = tmp_path / "cm.bin"
        ckpt = tmp_path / "ckpt.bin"
        cfgs = tmp_path / "cfgs.json"
        cfgs.write_text(json.dumps([
            {"block_m": 16, "block_d": 16, "block_k": 16},
            {"block_m": 64, "block_d": 64, "block_k": 64},
        ]))
        cli("gen-model", "--vision-layers", 2, "--crossmodal-layers", 2,
            "--dim", 256, "--seed", 1, "--out", model)
        cli("gen-calib", "--module", "vision", "--dim", 256, "--samples", 2,
            "--seqlen", 16, "--seed", 2, "--out", cv)
        cli("gen-calib", "--module", "crossmodal", "--dim", 256, "--samples", 2,
            "--seqlen", 16, "--seed", 3, "--out", cm)
        cli("quantize", "--model", model, "--calib-v", cv, "--calib-m", cm,
            "--bits", 4, "--groupsize", 128, "--out", ckpt)
        size_out = cli("size", "--model", model, "--bits", 4,
                       "--groupsize", 128)
        assert 0.25 <= json.loads(size_out)["quantized_ratio"] <= 0.275
        bench_out = cli("bench", "--m", 64, "--k", 256, "--d", 64,
                        "--bits", 4, "--configs", cfgs, "--runs", 3)
        assert "median_ns" in bench_out
        # output container re-reads bit-exactly
        first = load_container(ckpt)[0]
        second = load_container(ckpt)[0]
        assert set(first) == set(second)
        for name in first:
            assert first[name].tobytes() == second[name].tobytes()
