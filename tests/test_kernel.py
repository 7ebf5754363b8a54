import json
import sys

import numpy as np
import pytest

from modquant import kernel
from modquant import (
    InvariantError,
    QuantConfig,
    TileConfig,
    Tracer,
    autotune,
    dequantize_packed,
    pack_linear,
    quant_matmul,
    rtn_quantize,
    seeded_random_matrix,
)
from modquant.packfmt import unpack_weights
from oracles import reference_matmul


def packed_layer(k, d, seed, bits=4, groupsize=-1, bias=None):
    w = seeded_random_matrix(k, d, seed)
    q = rtn_quantize(w, QuantConfig(bits=bits, groupsize=groupsize))
    return pack_linear(q, bias=bias)


def identity_layer(n):
    w = np.eye(n, dtype=np.float32) * 15
    q = rtn_quantize(w, QuantConfig(bits=4, groupsize=-1))
    # force an exactly-representable grid: scale 1, zero 0
    q.params.scales[:] = 1.0
    q.params.zeros[:] = 0
    q.qint = np.eye(n, dtype=np.int32)
    return pack_linear(q)


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)


class TestTileConfig:
    def test_valid(self):
        TileConfig(16, 32, 64).validate(4)

    @pytest.mark.parametrize("bad", [(7, 8, 8), (8, 300, 8), (8, 8, 4)])
    def test_invalid_sizes(self, bad):
        with pytest.raises(InvariantError):
            TileConfig(*bad).validate(4)

    def test_block_k_word_alignment(self):
        TileConfig(8, 8, 16).validate(2)  # f_int = 16
        with pytest.raises(InvariantError):
            TileConfig(8, 8, 8).validate(2)


class TestReferenceMatmul:
    def test_identity(self):
        x = seeded_random_matrix(4, 6, 0)
        out = reference_matmul(x, np.eye(6, dtype=np.float32))
        assert np.allclose(out, x, rtol=1e-6)

    def test_scalar_case(self):
        out = reference_matmul(
            np.array([[3.0]], dtype=np.float32),
            np.array([[2.0]], dtype=np.float32),
            bias=np.array([1.0], dtype=np.float32),
        )
        assert out[0, 0] == 7.0

    def test_dual_loop_ordering(self):
        a = seeded_random_matrix(9, 17, 1)
        w = seeded_random_matrix(17, 5, 2)
        k_outer = reference_matmul(a, w)
        # independent k-inner ordering
        k_inner = np.empty((9, 5), dtype=np.float32)
        for i in range(9):
            for j in range(5):
                acc = np.float32(0.0)
                for k in range(17):
                    acc += a[i, k] * w[k, j]
                k_inner[i, j] = acc
        assert rel_err(k_outer, k_inner) <= 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(InvariantError):
            reference_matmul(seeded_random_matrix(2, 3, 0), seeded_random_matrix(4, 2, 0))


class TestQuantMatmul:
    def test_identity_weight(self):
        layer = identity_layer(16)
        a = seeded_random_matrix(5, 16, 3)
        out = quant_matmul(a, layer, TileConfig(8, 8, 8))
        assert np.array_equal(out, a)

    def test_identity_with_bias(self):
        w = np.eye(16, dtype=np.float32) * 15
        q = rtn_quantize(w, QuantConfig(bits=4, groupsize=-1))
        q.params.scales[:] = 1.0
        q.params.zeros[:] = 0
        q.qint = np.eye(16, dtype=np.int32)
        bias = np.arange(16, dtype=np.float32)
        layer = pack_linear(q, bias=bias)
        a = seeded_random_matrix(3, 16, 4)
        out = quant_matmul(a, layer, TileConfig(8, 8, 8))
        assert np.allclose(out, a + bias, rtol=1e-6)

    def test_zero_input(self):
        bias = np.linspace(-1, 1, 12).astype(np.float32)
        layer = packed_layer(16, 12, 5, bias=bias)
        out = quant_matmul(np.zeros((4, 16), dtype=np.float32), layer,
                           TileConfig(8, 8, 8))
        assert np.array_equal(out, np.tile(bias, (4, 1)))

    def test_oracle_equivalence_sweep(self):
        a = seeded_random_matrix(64, 128, 6)
        layer = packed_layer(128, 96, 7, groupsize=32)
        ref = reference_matmul(a, dequantize_packed(layer))
        for bm in (8, 32, 64):
            for bd in (16, 128):
                for bk in (8, 64, 128):
                    out = quant_matmul(a, layer, TileConfig(bm, bd, bk))
                    assert rel_err(out, ref) <= 1e-5

    def test_random_shapes_property(self):
        rng = np.random.default_rng(8)
        for t in range(25):
            m = int(rng.integers(1, 40))
            k = 8 * int(rng.integers(1, 65))  # f_int .. 512
            d = int(rng.integers(1, 40))
            a = seeded_random_matrix(m, k, 100 + t)
            layer = packed_layer(k, d, 200 + t, groupsize=16)
            cfg = TileConfig(
                int(rng.choice([8, 16, 32])),
                int(rng.choice([8, 16, 32])),
                int(rng.choice([8, 16, 64])),
            )
            ref = reference_matmul(a, dequantize_packed(layer))
            assert rel_err(quant_matmul(a, layer, cfg), ref) <= 1e-5

    def test_config_independence(self):
        a = seeded_random_matrix(48, 64, 9)
        layer = packed_layer(64, 40, 10, groupsize=16)
        outs = [
            quant_matmul(a, layer, TileConfig(bm, bd, bk))
            for bm in (8, 16) for bd in (8, 32) for bk in (8, 32)
        ]
        for o in outs[1:]:
            assert rel_err(o, outs[0]) <= 1e-5

    def test_worker_determinism(self):
        a = seeded_random_matrix(64, 64, 11)
        layer = packed_layer(64, 64, 12, groupsize=16)
        serial = quant_matmul(a, layer, TileConfig(8, 8, 16, workers=1))
        threaded = quant_matmul(a, layer, TileConfig(8, 8, 16, workers=8))
        assert serial.tobytes() == threaded.tobytes()

    def test_tracing_does_not_change_results(self):
        a = seeded_random_matrix(32, 32, 13)
        layer = packed_layer(32, 32, 14)
        plain = quant_matmul(a, layer, TileConfig(8, 8, 8))
        traced = quant_matmul(a, layer, TileConfig(8, 8, 8), tracer=Tracer())
        assert plain.tobytes() == traced.tobytes()

    def test_shape_mismatch(self):
        layer = packed_layer(16, 8, 0)
        with pytest.raises(InvariantError):
            quant_matmul(seeded_random_matrix(4, 24, 0), layer, TileConfig(8, 8, 8))


def shift_mask_unpack(words, bits):
    """Oracle unpack: shift, mask, then an int32 copy."""
    f_int = 32 // bits
    w = np.asarray(words, dtype=np.uint32)
    shifts = (bits * np.arange(f_int, dtype=np.uint32)).reshape(1, f_int, 1)
    lanes = (w[:, None, :] >> shifts) & np.uint32((1 << bits) - 1)
    return lanes.reshape(w.shape[0] * f_int, w.shape[1]).astype(np.int32)


def f64_dequant_slab(layer, k0, k1, d0, d1, zeros, scales):
    """Oracle slab: int32 times f32 promotes to an exact f64, rounded once."""
    f_int = 32 // layer.bits
    qint = shift_mask_unpack(layer.qweight[k0 // f_int : k1 // f_int, d0:d1],
                             layer.bits)
    g = layer.g_idx[k0:k1]
    return ((qint - zeros[g, d0:d1]) * scales[g, d0:d1]).astype(np.float32)


# K = 200 ends in a short group of 8 at groupsize 16; 2-bit words hold 16
# rows, so there K = 240 (a short group of 112 at groupsize 128). The
# smaller block_k cuts every group of 128 and -1, and groups of 16 for
# bits 4 and 8; block_k = 64 leaves a short last slab.
BYTE_GRID = [(bits, gs) for bits in (2, 4, 8) for gs in (16, 128, -1)]


def grid_layer(bits, groupsize):
    k = 240 if bits == 2 else 200
    bias = np.linspace(-1, 1, 72).astype(np.float32)
    return packed_layer(k, 72, 30 + bits, bits=bits, groupsize=groupsize,
                        bias=bias)


class TestByteIdentity:
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_unpack_matches_shift_mask_astype(self, bits):
        rng = np.random.default_rng(bits)
        words = rng.integers(0, 1 << 32, size=(6, 5), dtype=np.uint32)
        words[0, :] = 0xFFFFFFFF
        words[1, :] = np.uint32(((1 << bits) - 1) << (32 - bits))  # top lane
        got = unpack_weights(words, bits)
        assert got.dtype == np.int32
        assert np.array_equal(got, shift_mask_unpack(words, bits))
        assert got[32 // bits - 1, 0] == (1 << bits) - 1
        assert got[2 * (32 // bits) - 1, 0] == (1 << bits) - 1

    @pytest.mark.parametrize("bits,groupsize", BYTE_GRID)
    def test_slab_matches_f64_oracle(self, bits, groupsize):
        layer = grid_layer(bits, groupsize)
        zeros = layer.unpack_zero_codes()
        scales = layer.scales.astype(np.float32)
        assert np.any(zeros)  # the zero-point subtraction is exercised
        k = layer.in_features
        for block_k in (max(8, 32 // bits), 64):
            for k0 in range(0, k, block_k):
                k1 = min(k0 + block_k, k)
                for d0, d1 in ((0, 32), (32, 72)):
                    got = kernel._dequant_slab(layer, k0, k1, d0, d1, zeros, scales)
                    want = f64_dequant_slab(layer, k0, k1, d0, d1, zeros, scales)
                    assert got.dtype == np.float32
                    assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bits,groupsize", BYTE_GRID)
    def test_quant_matmul_matches_f64_oracle(self, bits, groupsize, workers,
                                             monkeypatch):
        layer = grid_layer(bits, groupsize)
        a = seeded_random_matrix(20, layer.in_features, 40 + bits)
        cfgs = [TileConfig(8, 32, block_k, workers)
                for block_k in (max(8, 32 // bits), 64)]
        got = [quant_matmul(a, layer, c) for c in cfgs]
        monkeypatch.setattr(kernel, "_dequant_slab", f64_dequant_slab)
        for c, out in zip(cfgs, got):
            assert out.tobytes() == quant_matmul(a, layer, c).tobytes()


class TestSpans:
    def test_empty_label_rejected(self):
        tracer = Tracer()
        with pytest.raises(InvariantError):
            with tracer.span(""):
                pass
        assert tracer.spans == []

    def test_nesting_containment(self):
        tracer = Tracer()
        with tracer.span("forward") as outer:
            with tracer.span("dequant", outer.span_id) as inner:
                pass
        assert inner.parent == outer.span_id
        assert outer.start_ns <= inner.start_ns
        assert inner.end_ns <= outer.end_ns

    def test_quant_matmul_span_tree(self, tmp_path):
        tracer = Tracer()
        a = seeded_random_matrix(16, 16, 15)
        bias = np.zeros(16, dtype=np.float32)
        layer = packed_layer(16, 16, 16, bias=bias)
        quant_matmul(a, layer, TileConfig(8, 8, 8), tracer=tracer)
        roots = [s for s in tracer.spans if s.label == "forward"]
        tiles = [s for s in tracer.spans if s.label == "tile"]
        dequants = [s for s in tracer.spans if s.label == "dequant"]
        bias_adds = [s for s in tracer.spans if s.label == "bias_add"]
        assert len(roots) == 1
        assert len(tiles) == 4  # 2x2 output tiles
        assert len(bias_adds) == 1
        assert dequants
        root = roots[0]
        for t in tiles:
            assert t.parent == root.span_id
            assert root.start_ns <= t.start_ns and t.end_ns <= root.end_ns
        tile_ids = {t.span_id for t in tiles}
        for dq in dequants:
            assert dq.parent in tile_ids
        # export shape
        tracer.dump(tmp_path / "spans.json")
        exported = json.loads((tmp_path / "spans.json").read_text())
        assert [e["label"] for e in exported] == [s.label for s in tracer.spans]
        for entry in exported:
            assert set(entry) == {"label", "start_ns", "end_ns", "parent"}

    def test_threaded_span_ids_and_parents(self):
        # 8 workers share one tracer over many 8-row slabs, switching threads
        # as often as the interpreter allows: ids stay equal to list
        # positions (a lost update breaks that), and every parent is opened
        # before, labelled for, and encloses its child.
        a = seeded_random_matrix(64, 256, 18)
        layer = packed_layer(256, 64, 19, bias=np.ones(64, dtype=np.float32))
        parent_label = {"tile": "forward", "dequant": "tile", "bias_add": "forward"}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                tracer = Tracer()
                quant_matmul(a, layer, TileConfig(8, 8, 8, workers=8), tracer=tracer)
                spans = tracer.spans
                assert [s.span_id for s in spans] == list(range(len(spans)))
                assert [s.label for s in spans].count("tile") == 64
                assert [s.label for s in spans].count("dequant") == 64 * 32
                assert [s.label for s in spans if s.parent is None] == ["forward"]
                for s in spans:
                    if s.parent is not None:
                        parent = spans[s.parent]
                        assert s.parent < s.span_id
                        assert parent.label == parent_label[s.label]
                        assert parent.start_ns <= s.start_ns <= s.end_ns <= parent.end_ns
        finally:
            sys.setswitchinterval(interval)


class TestAutotune:
    def test_singleton(self):
        layer = packed_layer(32, 16, 17)
        only = TileConfig(8, 8, 8)
        best, table = autotune(16, layer, [only], runs=3)
        assert best == only and set(table) == {only}

    def test_fake_clock_argmin(self):
        layer = packed_layer(32, 16, 18)
        c1, c2, c3 = (TileConfig(8, 8, 8), TileConfig(16, 16, 16),
                      TileConfig(32, 16, 32))
        # deterministic clock: per-config elapsed times 10, 5, 7
        elapsed = {c1: 10, c2: 5, c3: 7}
        schedule = []
        for c in (c1, c2, c3):
            for _ in range(3):
                schedule += [0, elapsed[c]]
        ticks = iter(schedule)

        best, table = autotune(8, layer, [c1, c2, c3], runs=3,
                               clock=lambda: next(ticks))
        assert best == c2
        assert table == {c1: 10, c2: 5, c3: 7}

    def test_real_clock_best_is_table_min(self):
        layer = packed_layer(256, 256, 19)
        cands = [TileConfig(8, 8, 8), TileConfig(64, 64, 64),
                 TileConfig(128, 128, 128)]
        best, table = autotune(256, layer, cands, runs=3)
        assert table[best] == min(table.values())

    def test_empty_candidates(self):
        layer = packed_layer(16, 8, 20)
        with pytest.raises(InvariantError):
            autotune(8, layer, [], runs=3)

    def test_all_invalid_candidates(self):
        layer = packed_layer(16, 8, 21)
        with pytest.raises(InvariantError):
            autotune(8, layer, [TileConfig(7, 8, 8)], runs=3)
