import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modquant import (
    InvariantError,
    QuantConfig,
    dequantize_matrix,
    dequantize_packed,
    estimate_packed_size,
    lanes_per_word,
    pack_linear,
    pack_weights,
    pack_zeros,
    rtn_quantize,
    seeded_random_matrix,
    unpack_value,
    unpack_weights,
    unpack_zeros,
)
from modquant.packfmt import packed_from_tensors, packed_tensors


def random_codes(rng, rows, cols, bits):
    return rng.integers(0, 1 << bits, size=(rows, cols)).astype(np.int32)


class TestPackWeights:
    def test_hand_derived_word(self):
        col = np.arange(1, 9, dtype=np.int32).reshape(8, 1)
        packed = pack_weights(col, 4)
        assert packed.shape == (1, 1)
        assert packed[0, 0] == 0x87654321
        # independent bit-arithmetic oracle
        expect = sum(v << (4 * j) for j, v in enumerate(range(1, 9)))
        assert packed[0, 0] == expect

    def test_zero_column(self):
        assert not pack_weights(np.zeros((8, 3), dtype=np.int32), 4).any()

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_roundtrip(self, bits):
        rng = np.random.default_rng(bits)
        q = random_codes(rng, 64, 8, bits)
        assert np.array_equal(unpack_weights(pack_weights(q, bits), bits), q)

    def test_divisibility_enforced(self):
        with pytest.raises(InvariantError, match="f_int"):
            pack_weights(np.zeros((7, 2), dtype=np.int32), 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvariantError, match="range"):
            pack_weights(np.full((8, 1), 16, dtype=np.int32), 4)

    def test_lane_disjointness(self):
        rng = np.random.default_rng(7)
        q = random_codes(rng, 32, 4, 4)
        base = pack_weights(q, 4)
        q2 = q.copy()
        q2[13, 2] ^= 0b0101
        flipped = pack_weights(q2, 4)
        diff = base ^ flipped
        assert np.count_nonzero(diff) == 1
        word = int(diff[13 // 8, 2])
        # exactly one 4-bit lane changed
        assert word == (q[13, 2] ^ q2[13, 2]) << (4 * (13 % 8))

    @settings(max_examples=60, deadline=None)
    @given(
        bits=st.sampled_from([2, 4, 8]),
        words=st.integers(1, 8),
        cols=st.integers(1, 8),
        seed=st.integers(0, 10_000),
    )
    def test_roundtrip_property(self, bits, words, cols, seed):
        rng = np.random.default_rng(seed)
        q = random_codes(rng, words * lanes_per_word(bits), cols, bits)
        assert np.array_equal(unpack_weights(pack_weights(q, bits), bits), q)


class TestPackZeros:
    def test_hand_derived_word(self):
        zeros = np.arange(1, 9, dtype=np.int32).reshape(1, 8)
        packed = pack_zeros(zeros, 4)
        assert packed.shape == (1, 1)
        assert packed[0, 0] == 0x87654321

    def test_all_ones_saturation(self):
        zeros = np.full((2, 8), 15, dtype=np.int32)
        assert (pack_zeros(zeros, 4) == 0xFFFFFFFF).all()

    def test_padding_lanes_zero(self):
        zeros = np.arange(1, 6, dtype=np.int32).reshape(1, 5)
        packed = pack_zeros(zeros, 8)
        assert packed.shape == (1, 2)  # ceil(5*8/32) = 2
        # last word: only the lowest lane used, upper lanes zero
        assert packed[0, 1] == 5
        assert np.array_equal(unpack_zeros(packed, 8, 5), zeros)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    @pytest.mark.parametrize("cols", [1, 5, 16, 33])
    def test_roundtrip(self, bits, cols):
        rng = np.random.default_rng(bits * 100 + cols)
        z = random_codes(rng, 3, cols, bits)
        assert np.array_equal(unpack_zeros(pack_zeros(z, bits), bits, cols), z)


class TestUnpackValue:
    def test_hand_check(self):
        assert unpack_value(0x87654321, 2, 4) == 3

    def test_zero_word(self):
        for lane in range(8):
            assert unpack_value(0, lane, 4) == 0

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_exhaustive_single_lane(self, bits):
        f_int = lanes_per_word(bits)
        for code in range(1 << bits):
            for lane in range(f_int):
                word = code << (bits * lane)
                assert unpack_value(word, lane, bits) == code

    def test_lane_out_of_range(self):
        with pytest.raises(InvariantError):
            unpack_value(0, 8, 4)


class TestPackLinear:
    def test_identity_grid_preserved(self):
        # quantized identity: scale 1, zero 0, qint = I
        cfg = QuantConfig(bits=4, groupsize=-1)
        w = np.eye(8, dtype=np.float32) * 7  # on-grid values 0 and 7
        q = rtn_quantize(w, cfg)
        layer = pack_linear(q)
        assert np.allclose(dequantize_packed(layer), w, atol=1e-2)
        assert np.array_equal(layer.unpack_qint(), q.qint)

    def test_roundtrip_matches_unpacked(self):
        cfg = QuantConfig(bits=4, groupsize=16)
        w = seeded_random_matrix(64, 24, 0)
        q = rtn_quantize(w, cfg)
        layer = pack_linear(q, bias=np.arange(24, dtype=np.float32))
        assert np.array_equal(layer.unpack_qint(), q.qint)
        assert np.array_equal(layer.unpack_zero_codes(), q.params.zeros)
        # dequantization agrees up to the f16 round-trip of the scales
        ref = dequantize_matrix(q)
        got = dequantize_packed(layer)
        assert np.allclose(got, ref, rtol=1e-3, atol=1e-5)

    def test_exact_when_scales_f16_representable(self):
        params_grid = np.arange(16, dtype=np.float32).reshape(16, 1)
        q = rtn_quantize(params_grid, QuantConfig(bits=4, groupsize=-1))
        assert q.params.scales[0, 0] == 1.0  # exactly representable in f16
        layer = pack_linear(q)
        assert np.array_equal(dequantize_packed(layer), dequantize_matrix(q))

    def test_bad_bias_length(self):
        q = rtn_quantize(seeded_random_matrix(8, 4, 1), QuantConfig(bits=4))
        with pytest.raises(InvariantError, match="bias"):
            pack_linear(q, bias=np.zeros(5, dtype=np.float32))

    def test_divisibility_violation(self):
        q = rtn_quantize(seeded_random_matrix(10, 4, 1), QuantConfig(bits=4))
        with pytest.raises(InvariantError, match="f_int"):
            pack_linear(q)


class TestLayoutAgreement:
    @settings(max_examples=60, deadline=None)
    @given(
        bits=st.sampled_from([2, 4, 8]),
        words=st.integers(1, 6),
        n_out=st.integers(1, 40),
        groupsize=st.sampled_from([-1, 1, 3, 5, 16, "over"]),
        seed=st.integers(0, 10_000),
    )
    @example(bits=4, words=2, n_out=13, groupsize="over", seed=0)
    @example(bits=2, words=1, n_out=3, groupsize=5, seed=1)
    def test_writer_loader_and_estimate_agree(self, bits, words, n_out, groupsize, seed):
        f_int = lanes_per_word(bits)
        n_in = words * f_int
        gs = n_in + 1 + seed % 7 if groupsize == "over" else groupsize
        w = seeded_random_matrix(n_in, n_out, seed)
        layer = pack_linear(rtn_quantize(w, QuantConfig(bits=bits, groupsize=gs)))
        tensors = packed_tensors(layer, "l")
        # FormatError unless every dtype and shape is the one the loader expects
        back = packed_from_tensors(tensors, "l", bits, gs, n_in, n_out)
        assert np.array_equal(dequantize_packed(back), dequantize_packed(layer))
        estimate = estimate_packed_size(n_in, n_out, bits, gs)
        assert sum(t.nbytes for t in tensors.values()) == estimate["total"]

        capacity = layer.qzeros.shape[1] * f_int
        padded = unpack_zeros(layer.qzeros, bits, capacity)
        assert np.array_equal(padded[:, :n_out], layer.unpack_zero_codes())
        assert not padded[:, n_out:].any()
        with pytest.raises(InvariantError, match="capacity"):
            unpack_zeros(layer.qzeros, bits, capacity + 1)


class TestEstimatePackedSize:
    def test_reference_shape(self):
        sizes = estimate_packed_size(4096, 4096, 4, 128)
        assert sizes["qweight"] == 8_388_608
        assert sizes["scales"] == 262_144
        assert sizes["qzeros"] == 65_536
        assert sizes["g_idx"] == 16_384
        assert sizes["total"] == 8_732_672
        assert sizes["ratio_vs_f16"] == pytest.approx(0.2603, abs=1e-4)

    def test_n16_rejected(self):
        with pytest.raises(InvariantError):
            estimate_packed_size(4096, 4096, 16, 128)

    @pytest.mark.parametrize("n_in, n_out", [(0, 8), (8, 0), (-8, 8), (12, 8)])
    def test_impossible_layer_shape_rejected(self, n_in, n_out):
        with pytest.raises(InvariantError, match="layer shape"):
            estimate_packed_size(n_in, n_out, 4, 16)

    def test_overhead_bounded(self):
        for gs in (64, 128, 256):
            sizes = estimate_packed_size(4096, 4096, 4, gs)
            assert sizes["ratio_vs_f16"] - 4 / 16 < 0.10 * (4 / 16)

    def test_overhead_is_metadata_term(self):
        i, o, bits, gs = 2048, 1024, 4, 64
        sizes = estimate_packed_size(i, o, bits, gs)
        groups = i // gs
        metadata = (
            groups * o * 2 + groups * (o * bits // 32) * 4 + i * 4
        )
        assert sizes["total"] - sizes["qweight"] == metadata
        assert sizes["ratio_vs_f16"] == pytest.approx(
            bits / 16 + metadata / (i * o * 2)
        )

    def test_19b_manifest_weight_payload(self):
        # a synthetic manifest scaled to ~19e9 quantized parameters at N=4:
        # weight payload about 19e9 * 0.5 bytes, ratio within the N/16 law
        # plus bounded metadata overhead
        layer = estimate_packed_size(4096, 4096, 4, 128)
        per_layer_params = 4096 * 4096
        layers = round(19e9 / per_layer_params)
        total = layer["total"] * layers
        f16 = per_layer_params * 2 * layers
        assert total / f16 <= 4 / 16 * 1.10
        assert abs(total - 9.5e9) / 9.5e9 < 0.05
