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
    q.scales[:] = 1.0
    q.zeros[:] = 0
    q.qint = np.eye(n, dtype=np.int32)
    return pack_linear(q)


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)


class TestTileConfig:
    def test_valid(self):
        TileConfig(16, 32, 64).validate(4)
        TileConfig(16, 32, 64, workers=256).validate(4)  # built only, never run

    @pytest.mark.parametrize("bad", [(7, 8, 8), (8, 300, 8), (8, 8, 4)])
    def test_invalid_sizes(self, bad):
        with pytest.raises(InvariantError):
            TileConfig(*bad).validate(4)

    @pytest.mark.parametrize("bad", [
        (7, 8, 8), (8, 300, 8), (8, 8, 4), (True, 8, 8), (32.0, 8, 8),
        ("32", 8, 8), (None, 8, 8), (8, 8, 8, 0), (8, 8, 8, -1), (8, 8, 8, True),
        (8, 8, 8, 257),
    ])
    def test_construction_checks_every_field(self, bad):
        with pytest.raises(InvariantError):
            TileConfig(*bad)

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
        q.scales[:] = 1.0
        q.zeros[:] = 0
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

    # "-False" is the grid flag these ids carried when the grid was a
    # parameter; it keeps every case under one name across versions.
    @pytest.mark.parametrize("bits", [2, 4, 8], ids=lambda b: f"{b}-False")
    def test_positive_mean_inputs_over_long_k(self, bits):
        # Inputs with a positive mean (|N(0,1)| rows and N(0,1) + 3 rows)
        # over one group of K = 4096: a kernel that folds the zero points
        # out of the product, A_g @ q - rowsum(A_g) z_g, cancels two large
        # f32 sums and reads up to ~3e-5 here.
        k = 4096
        x = np.random.default_rng(60 + bits).standard_normal((8, k))
        a = np.concatenate([np.abs(x[:4]), x[4:] + 3]).astype(np.float32)
        w = seeded_random_matrix(k, 64, 70 + bits)
        layer = pack_linear(rtn_quantize(w, QuantConfig(bits=bits, groupsize=-1)))
        ref = a.astype(np.float64) @ dequantize_packed(layer).astype(np.float64)
        assert rel_err(quant_matmul(a, layer, TileConfig(8, 64, 256)), ref) <= 1e-5


def shift_mask_unpack(words, bits):
    """Oracle unpack: shift, mask, then an int32 copy."""
    f_int = 32 // bits
    w = np.asarray(words, dtype=np.uint32)
    shifts = (bits * np.arange(f_int, dtype=np.uint32)).reshape(1, f_int, 1)
    lanes = (w[:, None, :] >> shifts) & np.uint32((1 << bits) - 1)
    return lanes.reshape(w.shape[0] * f_int, w.shape[1]).astype(np.int32)


def f64_dequant_slab(layer, k0, k1, d0, d1, zeros, scales):
    """Oracle slab in natural row order: int32 times f32 promotes to an
    exact f64, rounded once."""
    f_int = 32 // layer.bits
    qint = shift_mask_unpack(layer.qweight[k0 // f_int : k1 // f_int, d0:d1],
                             layer.bits)
    g = layer.g_idx[k0:k1]
    return ((qint - zeros[g, d0:d1]) * scales[g, d0:d1]).astype(np.float32)


def lane_major(slab, f_int):
    """A natural-order slab's rows in lane-major order: row r * f_int + j
    (lane j of word row r) moves to j * rows + r."""
    cols = slab.shape[1]
    return slab.reshape(-1, f_int, cols).transpose(1, 0, 2).reshape(-1, cols)


def f64_lane_slab(words, bits, zeros, scales):
    """Oracle for `kernel._dequant_slab`: the natural-order f64 slab of
    `words` and its lane tables, its rows put in lane-major order."""
    f_int = 32 // bits
    rows, cols = words.shape

    def natural(table):
        full = np.broadcast_to(table, (f_int, rows, cols))
        return full.transpose(1, 0, 2).reshape(-1, cols)

    qint = shift_mask_unpack(words, bits)
    slab = ((qint - natural(zeros)) * natural(scales)).astype(np.float32)
    return lane_major(slab, f_int)


# K = 200 ends in a short group of 8 at groupsize 16; 2-bit words hold 16
# rows, so there K = 240 (a short group of 112 at groupsize 128). The
# smaller block_k cuts every group of 128 and -1, and groups of 16 for
# bits 4 and 8; block_k = 64 leaves a short last slab. Groups of 12 rows
# (4-bit words hold 8) and of 40 (2-bit words hold 16) split packed
# words, so the lanes of one word fall in different groups.
BYTE_GRID = [(bits, gs) for bits in (2, 4, 8) for gs in (16, 128, -1)] + [(4, 12), (2, 40)]


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
        # The slab and its lane tables, against the natural-order oracle
        # that gathers by g_idx, its rows put in lane-major order.
        layer = grid_layer(bits, groupsize)
        zeros = layer.unpack_zero_codes()
        scales = layer.scales.astype(np.float32)
        assert np.any(zeros)  # the zero-point subtraction is exercised
        f_int = 32 // bits
        groups = kernel._lane_groups(layer.g_idx, f_int)
        shares = groupsize == -1 or groupsize % f_int == 0
        assert groups.shape[0] == (1 if shares else f_int)
        k = layer.in_features
        for block_k in (max(8, 32 // bits), 64):
            for k0 in range(0, k, block_k):
                k1 = min(k0 + block_k, k)
                w0, w1 = k0 // f_int, k1 // f_int
                for d0, d1 in ((0, 32), (32, 72)):
                    got = kernel._dequant_slab(
                        layer.qweight[w0:w1, d0:d1], bits,
                        zeros[groups[:, w0:w1], d0:d1], scales[groups[:, w0:w1], d0:d1])
                    want = f64_dequant_slab(layer, k0, k1, d0, d1, zeros, scales)
                    assert got.dtype == np.float32
                    assert got.tobytes() == lane_major(want, f_int).tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bits,groupsize", BYTE_GRID)
    def test_quant_matmul_matches_f64_oracle(self, bits, groupsize, workers,
                                             monkeypatch):
        layer = grid_layer(bits, groupsize)
        a = seeded_random_matrix(20, layer.in_features, 40 + bits)
        cfgs = [TileConfig(8, 32, block_k, workers)
                for block_k in (max(8, 32 // bits), 64)]
        got = [quant_matmul(a, layer, c) for c in cfgs]
        monkeypatch.setattr(kernel, "_dequant_slab", f64_lane_slab)
        ref = reference_matmul(a, dequantize_packed(layer), layer.bias)
        for c, out in zip(cfgs, got):
            assert out.tobytes() == quant_matmul(a, layer, c).tobytes()
            # the lane tables the kernel gathers are the rows' own groups
            assert rel_err(out, ref) <= 1e-6


class TestTilePlan:
    @pytest.mark.parametrize("m,n_tiles,tile_slabs,redundancy", [(1, 2, 4, 1), (256, 8, 16, 4)])
    def test_benchmark_small_geometries(self, m, n_tiles, tile_slabs, redundancy):
        # Per call at the benchmark self-test's decode (M=1) and prefill
        # (M=256) sizes, dim 512 under TileConfig(64, 256, 256): each
        # M-tile dequantizes every (k-slab, d-tile) pair once more.
        tiles, slabs = kernel.tile_plan(m, 512, 512, TileConfig(64, 256, 256))
        assert len(tiles) == n_tiles
        assert len(tiles) * len(slabs) == tile_slabs
        d_tiles = {(d0, d1) for *_, d0, d1 in tiles}
        assert tile_slabs == redundancy * len(slabs) * len(d_tiles)

    @pytest.mark.parametrize("m,k,d", [(70, 120, 33), (1, 512, 512), (256, 64, 300), (9, 8, 8)])
    @pytest.mark.parametrize("cfg", [TileConfig(8, 8, 8), TileConfig(64, 16, 32, 2),
                                     TileConfig(256, 256, 256, 3)])
    def test_tiles_and_slabs_partition_the_product(self, m, k, d, cfg):
        tiles, slabs = kernel.tile_plan(m, k, d, cfg)
        assert tiles == sorted(tiles)  # row-major submission order
        cover = np.zeros((m, d), dtype=int)
        for m0, m1, d0, d1 in tiles:
            assert 0 < m1 - m0 <= cfg.block_m and 0 < d1 - d0 <= cfg.block_d
            cover[m0:m1, d0:d1] += 1
        assert (cover == 1).all()
        # contiguous from 0 to k, every slab but the last a full block_k
        assert [k0 for k0, _ in slabs] == [0] + [k1 for _, k1 in slabs[:-1]]
        assert slabs[-1][1] == k
        assert all(k1 - k0 == cfg.block_k for k0, k1 in slabs[:-1])
        assert 0 < slabs[-1][1] - slabs[-1][0] <= cfg.block_k

    @pytest.mark.parametrize("bits,m,k,d", [(4, 70, 120, 33), (2, 17, 96, 40), (8, 5, 36, 9)])
    @pytest.mark.parametrize("cfg", [TileConfig(8, 8, 16), TileConfig(16, 32, 32, 2),
                                     TileConfig(64, 16, 64, 3)])
    def test_traced_quant_matmul_runs_the_plan(self, bits, m, k, d, cfg):
        tracer = Tracer()
        layer = packed_layer(k, d, 21, bits=bits)
        quant_matmul(seeded_random_matrix(m, k, 22), layer, cfg, tracer=tracer)
        tiles, slabs = kernel.tile_plan(m, k, d, cfg)
        tile_ids = [s.span_id for s in tracer.spans if s.label == "tile"]
        parents = [s.parent for s in tracer.spans if s.label == "dequant"]
        assert len(tile_ids) == len(tiles)
        assert len(parents) == len(tiles) * len(slabs)
        assert all(parents.count(t) == len(slabs) for t in tile_ids)

    def test_quant_matmul_follows_a_substituted_plan(self, monkeypatch):
        # A plan that no config gives, with uneven word-aligned slabs: the
        # kernel still computes the product, and its spans count that plan.
        layer = packed_layer(64, 24, 23, bias=np.ones(24, dtype=np.float32))
        a = seeded_random_matrix(10, 64, 24)
        plan = ([(0, 10, 16, 24), (0, 3, 0, 16), (3, 10, 0, 16)], [(0, 8), (8, 40), (40, 64)])
        monkeypatch.setattr(kernel, "tile_plan", lambda m, k, d, cfg: plan)
        tracer = Tracer()
        out = quant_matmul(a, layer, TileConfig(8, 8, 8), tracer=tracer)
        labels = [s.label for s in tracer.spans]
        assert labels.count("tile") == 3 and labels.count("dequant") == 9
        ref = reference_matmul(a, dequantize_packed(layer), layer.bias)
        assert rel_err(out, ref) <= 1e-6


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

    def test_invalid_candidate_raises_before_any_is_timed(self):
        layer = packed_layer(32, 16, 22, bits=2)

        def clock():
            raise AssertionError("a candidate was timed")

        with pytest.raises(InvariantError, match="block_k = 8"):
            autotune(8, layer, [TileConfig(8, 8, 16), TileConfig(8, 8, 8)], runs=3,
                     clock=clock)

    def test_fewer_than_three_runs_rejected(self):
        layer = packed_layer(16, 8, 23)
        with pytest.raises(InvariantError, match="runs must be >= 3, got 2"):
            autotune(8, layer, [TileConfig(8, 8, 8)], runs=2)

    def test_all_invalid_candidates(self):
        layer = packed_layer(16, 8, 21)
        with pytest.raises(InvariantError):
            autotune(8, layer, [TileConfig(7, 8, 8)], runs=3)
