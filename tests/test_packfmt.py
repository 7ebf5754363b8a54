import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modquant import (
    InvariantError,
    PackedLinear,
    QuantConfig,
    dequantize_matrix,
    dequantize_packed,
    estimate_packed_size,
    generate_model,
    gptq_quantize,
    hessian_from_samples,
    inverse_hessian_factor,
    lanes_per_word,
    pack_linear,
    pack_weights,
    pack_zeros,
    rtn_quantize,
    seeded_random_matrix,
    synthetic_activations,
    unpack_weights,
    unpack_zeros,
)
from modquant.packfmt import packed_from_tensors, packed_tensors
from oracles import shift_or_pack, unpack_value


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


@settings(max_examples=60, deadline=None)
@given(
    bits=st.sampled_from([2, 4, 8]),
    words=st.integers(1, 6),
    cols=st.integers(1, 40),
    saturate=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_packers_match_shift_or_oracle(bits, words, cols, saturate, seed):
    """pack_weights and pack_zeros equal the shift-then-OR-reduce packer;
    a saturated grid puts 2^bits - 1 in every lane, so bit 31 is set."""
    f_int = lanes_per_word(bits)
    rng = np.random.default_rng(seed)
    q = random_codes(rng, words * f_int, cols, bits)
    if saturate:
        q[:] = (1 << bits) - 1
    words_out = pack_weights(q, bits)
    assert words_out.dtype == np.uint32
    assert words_out.tobytes() == shift_or_pack(q, bits).tobytes()
    padded = np.zeros((words * f_int, -(-cols // f_int) * f_int), dtype=np.int32)
    padded[:, :cols] = q
    expect = np.ascontiguousarray(shift_or_pack(padded.T, bits).T)
    got = pack_zeros(q, bits)
    assert got.dtype == np.uint32 and np.ascontiguousarray(got).tobytes() == expect.tobytes()
    if saturate:
        assert (words_out == np.uint32(0xFFFFFFFF)).all()


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
        # the layer stores the very float16 scales q was quantized with
        assert layer.scales.tobytes() == q.params.scales.tobytes()
        assert dequantize_packed(layer).tobytes() == dequantize_matrix(q).tobytes()

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
        # Four values in a (2, 2) bias are still not the (4,) bias of 4 outputs.
        with pytest.raises(InvariantError, match=re.escape("bias is float32 [2, 2]")):
            pack_linear(q, bias=np.zeros((2, 2), dtype=np.float32))

    def test_divisibility_violation(self):
        q = rtn_quantize(seeded_random_matrix(10, 4, 1), QuantConfig(bits=4))
        with pytest.raises(InvariantError, match="f_int"):
            pack_linear(q)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_float16_scale_overflow_rejected(self, symmetric):
        # scales of ~6e5 (a 4-bit group range of ~9.4e6) have no float16
        # value: rejected when they are fitted, before any cast can warn
        w = generate_model(1, 0, 64, 1).weights["vision.0.proj"] * np.float32(1e7)
        cfg = QuantConfig(bits=4, groupsize=32, symmetric=symmetric)
        with pytest.raises(InvariantError, match="exceeds 65504, float16's largest"):
            rtn_quantize(w, cfg)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_scale_rejected(self, bad):
        layer = pack_linear(rtn_quantize(seeded_random_matrix(16, 4, 1),
                                         QuantConfig(bits=4, groupsize=8)))
        layer.scales[1, 2] = bad
        with pytest.raises(InvariantError, match="scales must be finite"):
            PackedLinear(**vars(layer))


@pytest.mark.parametrize("weight_scale", [1.0, 1e-6])
@pytest.mark.parametrize("method", ["rtn", "gptq"])
@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("groupsize", [-1, 16, 32])
@pytest.mark.parametrize("bits", [2, 4, 8])
def test_packed_layer_dequantizes_to_the_quantized_bytes(bits, groupsize, symmetric,
                                                         method, weight_scale):
    # One set of scales: the checkpoint stores exactly the float16 scales
    # that quantization fitted and rounded against, so the stored layer is
    # the quantized matrix byte for byte, tiny weights included.
    w = seeded_random_matrix(64, 24, bits * 100 + groupsize) * np.float32(weight_scale)
    cfg = QuantConfig(bits=bits, groupsize=groupsize, symmetric=symmetric)
    if method == "rtn":
        q = rtn_quantize(w, cfg)
    else:
        h = hessian_from_samples([synthetic_activations(128, 64, bits)], 64, 0.01)
        q = gptq_quantize(w, cfg, factor=inverse_hessian_factor(h))
    layer = pack_linear(q)
    assert (layer.scales > 0).all()
    assert dequantize_packed(layer).tobytes() == dequantize_matrix(q).tobytes()


def test_tiny_weights_keep_their_scales():
    # Weights of ~1e-6 give scales far below float16's smallest normal
    # (~6.1e-5); the 2^-24 floor and rounding up keep every one nonzero.
    w = generate_model(1, 0, 64, 1).weights["vision.0.proj"] * np.float32(1e-6)
    layer = pack_linear(rtn_quantize(w, QuantConfig(bits=4, groupsize=32)))
    assert np.count_nonzero(layer.scales == 0) == 0
    assert np.linalg.norm(dequantize_packed(layer) - w) <= 0.2 * np.linalg.norm(w)


# Each breaks one rule of the layout of a 64 x 24 4-bit g16 layer with a bias
# (G = 4); the fields are those of that layer.
LAYOUT_MUTATIONS = {
    "truncated qweight": lambda l: {"qweight": l.qweight[:-1]},
    "qweight i32": lambda l: {"qweight": l.qweight.view(np.int32)},
    "scales f32": lambda l: {"scales": l.scales.astype(np.float32)},
    "scales missing a group": lambda l: {"scales": l.scales[:-1]},
    "qzeros extra word": lambda l: {"qzeros": np.zeros((4, 4), np.uint32)},
    "g_idx short": lambda l: {"g_idx": l.g_idx[:-8]},
    "g_idx reversed": lambda l: {"g_idx": l.g_idx[::-1].copy()},
    "bias short": lambda l: {"bias": l.bias[:-1]},
    "bias f16": lambda l: {"bias": l.bias.astype(np.float16)},
    "in_features 60 at 4 bits": lambda l: {"in_features": 60},
    "groupsize 32 on a g16 layer": lambda l: {"groupsize": 32},
}


def _g16_layer():
    return pack_linear(rtn_quantize(seeded_random_matrix(64, 24, 1),
                                    QuantConfig(bits=4, groupsize=16)),
                       bias=np.ones(24, dtype=np.float32))


@pytest.mark.parametrize("mutation", sorted(LAYOUT_MUTATIONS))
def test_packed_linear_checks_its_layout(mutation):
    layer = _g16_layer()
    with pytest.raises(InvariantError):
        dataclasses.replace(layer, **LAYOUT_MUTATIONS[mutation](layer))


def test_packed_linear_fields_cannot_be_rebound():
    with pytest.raises(dataclasses.FrozenInstanceError):
        _g16_layer().in_features = 60


# sha256 over qweight, scales, qzeros and g_idx (in that order) of
# pack_linear(rtn_quantize(seeded_random_matrix(160, 24, 2024), cfg)), keyed by
# (bits, groupsize, symmetric). Groupsize 48 leaves a short last group and 24
# columns leave padding lanes in the 2-bit qzeros. Round-to-nearest and packing
# are elementwise, with no BLAS, so these bytes are the same on every platform;
# a changed digest means a fixed seed no longer gives the same checkpoint.
RTN_GOLDEN_DIGESTS = {
    (2, -1, False): "554629f5bfa9ce9c3611ae66d6eb6c592b10defe28c65d1f28dd6b0f02ffef0e",
    (2, -1, True): "c4938a3eca34e1968a7507ebda51aa7f3a2582c2d26c8e04e42281b2aea3c9c0",
    (2, 1, False): "22fc714f4634d1fb472e9403bd3e0b7d6f13d4751a6f8ec976e0e1e9609fa164",
    (2, 1, True): "fcb30d341a03eaaa0e9a11b19330682e1757b5e0e72f286b9539e6fc0f8a32c4",
    (2, 48, False): "9f8688a48db26e33158933d2befc98e924e10a0a8e24eb4d58d5529d92fa75e6",
    (2, 48, True): "d61a1583e32802186870e302603c22ff5fef7f77b669b312e49518551ccfd942",
    (4, -1, False): "48b4593255d7c3cf3d78b7ad7b03d991ea3423c60749c22c390b4cc9dc6117c7",
    (4, -1, True): "541b2be553d85e21abe4338bfc76b65a38543c20ee5743f24f61c628d449012a",
    (4, 1, False): "42ba6ad508fe2e64bd6dc79426c5d53477419ed1b69ea163a3c35407c599e026",
    (4, 1, True): "1834047cafaad18303aaca2d6267fc4d27ced5e2d82c87c8de5b50281185fd38",
    (4, 48, False): "d4070aaf13fcdd22a96dd90777c04dfe5467c871a1748a2f56af3dcd8777eea3",
    (4, 48, True): "209a44d3d566debb72cf94f11ca96ec4e194e726eeba7f3983bbb1b6dad7361d",
    (8, -1, False): "15ac9168ede3438b7c649b743c99441a1b3238f2ef5bcc836923310c90a13a86",
    (8, -1, True): "9759e2bb218b3b7f5b3732f4b86216f1fac1723eee678b45273d30d59b5b73a0",
    (8, 1, False): "cdf1e51fb89d04e49cd14c1f31d32427c43f0bec7b1794e967b3f6124d5333cc",
    (8, 1, True): "93183f910afc5404b3df2e6101d985fc56a0d8b15a0de16555f52d9d8421e063",
    (8, 48, False): "f6331e20ae3dfa6c63d04f4a6deda2831fa1dc984c806176ad4ea2d857177cc9",
    (8, 48, True): "59bdafe08a2a8c0e8c9545fa561e600c87278e162391da8c7ada4e8290cf36de",
}


@pytest.mark.parametrize("bits,groupsize,symmetric", sorted(RTN_GOLDEN_DIGESTS))
def test_rtn_packed_bytes_golden(bits, groupsize, symmetric):
    cfg = QuantConfig(bits=bits, groupsize=groupsize, symmetric=symmetric)
    layer = pack_linear(rtn_quantize(seeded_random_matrix(160, 24, 2024), cfg))
    h = hashlib.sha256()
    for t in (layer.qweight, layer.scales, layer.qzeros, layer.g_idx):
        h.update(np.ascontiguousarray(t).tobytes())
    assert h.hexdigest() == RTN_GOLDEN_DIGESTS[bits, groupsize, symmetric]


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
