import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modquant import (
    CalibrationSet,
    InvariantError,
    NumericError,
    QuantConfig,
    dequantize_matrix,
    generate_model,
    gptq_quantize,
    group_index,
    hessian_from_samples,
    pack_linear,
    proxy_loss,
    quantize_model,
    rtn_quantize,
    seeded_random_matrix,
    synthetic_activations,
)
from modquant import quantcore
from modquant.packfmt import packed_tensors
from modquant.quantcore import (
    SCALE_FLOOR,
    QuantizedMatrix,
    compute_group_params,
    inverse_hessian_factor,
    rows_per_group,
)
from oracles import round_to_grid


def spd_hessian(dim, seed, rows=64):
    return hessian_from_samples([synthetic_activations(rows, dim, seed)], 0.01)


def row_loop_gptq(W, H, cfg):
    """Reference GPTQ sweep: after each row, a full rank-1 update of every
    remaining row through the upper Cholesky factor of H^-1, computed as
    cholesky -> inv(c^T) @ inv(c) -> cholesky."""
    W = np.asarray(W, dtype=np.float32)
    H = np.asarray(H, dtype=np.float64)
    n_rows, n_cols = W.shape
    scales, zeros = compute_group_params(W, cfg)
    g_idx = group_index(n_rows, cfg.groupsize)
    c = np.linalg.cholesky(H)
    u = np.linalg.cholesky(np.linalg.inv(c.T) @ np.linalg.inv(c)).T
    work = W.astype(np.float64)
    qint = np.empty((n_rows, n_cols), dtype=np.int32)
    for i in range(n_rows):
        g = g_idx[i]
        s, z = scales[g].astype(np.float64), zeros[g].astype(np.float64)
        q = np.clip(np.round(work[i] / s) + z, 0, cfg.maxq)
        qint[i] = q.astype(np.int32)
        err = (work[i] - (q - z) * s) / u[i, i]
        if i + 1 < n_rows:
            work[i + 1 :] -= np.outer(u[i, i + 1 :], err)
    return QuantizedMatrix(qint, scales, zeros, cfg.bits, cfg.groupsize)


def lu_inverse_hessian_factor(H):
    """Reference U: a general (LU) inverse of the flipped Cholesky factor."""
    low = np.linalg.cholesky(np.asarray(H, dtype=np.float64)[::-1, ::-1])
    return np.linalg.inv(low[::-1, ::-1])


def einsum_proxy_loss(W, q, H):
    """Reference trace(D^T H D) / O as one three-operand contraction."""
    d = (W - dequantize_matrix(q)).astype(np.float64)
    return float(np.einsum("io,ij,jo->", d, np.asarray(H, np.float64), d) / d.shape[1])


class TestQuantConfig:
    @pytest.mark.parametrize("bits", [1, 3, 5, 16])
    def test_rejects_bad_bits(self, bits):
        with pytest.raises(InvariantError):
            QuantConfig(bits=bits)

    def test_rejects_bad_groupsize(self):
        with pytest.raises(InvariantError):
            QuantConfig(groupsize=0)

    @pytest.mark.parametrize("damp", [0.0, -0.1, float("nan"), float("inf")])
    def test_rejects_bad_damp_ratio(self, damp):
        with pytest.raises(InvariantError, match="damp_ratio"):
            QuantConfig(damp_ratio=damp)


class TestGroupParams:
    def test_exact_grid_fit(self):
        w = np.arange(16, dtype=np.float32).reshape(16, 1)
        scales, zeros = compute_group_params(w, QuantConfig(bits=4, groupsize=-1))
        assert scales[0, 0] == pytest.approx(1.0)
        assert zeros[0, 0] == 0

    def test_constant_column_on_grid(self):
        # zero-inclusive range: a constant column becomes exactly
        # representable (zero point 0, value at code maxq)
        w = np.full((8, 1), 3.7, dtype=np.float32)
        cfg = QuantConfig(bits=4, groupsize=-1)
        scales, zeros = compute_group_params(w, cfg)
        # the scale is the smallest float16 at or above the range / maxq
        s = scales[0, 0]
        assert s.dtype == np.float16
        assert np.nextafter(s, np.float16(0)) < np.float32(3.7) / 15 <= s
        assert zeros[0, 0] == 0
        q = round_to_grid(w, scales, zeros, cfg.bits, cfg.groupsize)
        assert np.array_equal(q.qint, rtn_quantize(w, cfg).qint)
        dq = dequantize_matrix(q)
        assert np.abs(3.7 - dq).max() <= s * (1 << 4)

    def test_zero_column_scale_floor(self):
        w = np.zeros((8, 1), dtype=np.float32)
        cfg = QuantConfig(bits=4, groupsize=-1)
        scales, zeros = compute_group_params(w, cfg)
        assert scales[0, 0] == SCALE_FLOOR
        assert not dequantize_matrix(round_to_grid(w, scales, zeros, cfg.bits, cfg.groupsize)).any()

    @pytest.mark.filterwarnings("error")
    def test_scale_max_is_float16s_largest(self):
        # 2-bit symmetric: scale = max |w| / 1, so the column is the scale
        cfg = QuantConfig(bits=2, groupsize=-1, symmetric=True)
        assert compute_group_params(np.full((4, 1), 65504.0, np.float32), cfg)[0][0, 0] == 65504
        with pytest.raises(InvariantError, match="exceeds 65504"):
            compute_group_params(np.full((4, 1), 65505.0, np.float32), cfg)
        # One check per matrix: it names the largest scale, not the first
        # overflowing group's.
        w = np.ones((8, 2), np.float32)
        w[1, 0], w[5, 1] = 7e4, 9e4
        with pytest.raises(InvariantError, match="group scale 90000 exceeds"):
            compute_group_params(w, QuantConfig(bits=2, groupsize=4, symmetric=True))

    def test_group_count_and_g_idx(self):
        w = seeded_random_matrix(256, 4, 0)
        scales, zeros = compute_group_params(w, QuantConfig(bits=4, groupsize=128))
        assert scales.shape == zeros.shape == (2, 4)
        assert np.array_equal(group_index(256, 128), np.repeat([0, 1], 128))

    def test_short_last_group(self):
        w = seeded_random_matrix(10, 4, 1)
        scales, zeros = compute_group_params(w, QuantConfig(bits=4, groupsize=4))
        assert scales.shape == zeros.shape == (3, 4)  # ceil(10/4) groups
        assert np.array_equal(group_index(10, 4), [0, 0, 0, 0, 1, 1, 1, 1, 2, 2])

    def test_scales_positive_zeros_in_range(self):
        w = seeded_random_matrix(64, 32, 2)
        for sym in (False, True):
            cfg = QuantConfig(bits=4, groupsize=16, symmetric=sym)
            scales, zeros = compute_group_params(w, cfg)
            assert (scales > 0).all()
            assert (zeros >= 0).all() and (zeros <= 15).all()

    def test_group_locality(self):
        cfg = QuantConfig(bits=4, groupsize=8)
        w = seeded_random_matrix(32, 8, 3)
        s_before, z_before = compute_group_params(w, cfg)
        w2 = w.copy()
        w2[0:8] *= 3.0  # perturb group 0 only
        s_after, z_after = compute_group_params(w2, cfg)
        assert np.array_equal(s_before[1:], s_after[1:])
        assert np.array_equal(z_before[1:], z_after[1:])
        assert not np.array_equal(s_before[0], s_after[0])


class TestRtn:
    def test_grid_fixed_point(self):
        cfg = QuantConfig(bits=4, groupsize=-1)
        q = rtn_quantize(seeded_random_matrix(16, 8, 4), cfg)
        w = dequantize_matrix(q)
        q2 = round_to_grid(w, q.scales, q.zeros, cfg.bits, cfg.groupsize)
        assert np.array_equal(q.qint, q2.qint)

    def test_scalar_rounding(self):
        q = round_to_grid(np.array([[0.6]], dtype=np.float32), np.ones((1, 1), dtype=np.float16),
                          np.zeros((1, 1), dtype=np.int32), 4, -1)
        assert q.qint[0, 0] == 1
        assert dequantize_matrix(q)[0, 0] == 1.0

    def test_elementwise_error_bound(self):
        cfg = QuantConfig(bits=4, groupsize=16)
        w = seeded_random_matrix(32, 32, 5)
        q = rtn_quantize(w, cfg)
        err = np.abs(w - dequantize_matrix(q))
        bound = q.scales[group_index(32, 16)] / 2.0 + 1e-6
        assert (err <= bound).all()

    @settings(max_examples=40, deadline=None)
    @given(
        bits=st.sampled_from([2, 4, 8]),
        rows=st.integers(2, 24),
        cols=st.integers(1, 12),
        gs=st.sampled_from([-1, 4, 8]),
        seed=st.integers(0, 10_000),
    )
    def test_grid_fixed_point_property(self, bits, rows, cols, gs, seed):
        cfg = QuantConfig(bits=bits, groupsize=gs)
        w = seeded_random_matrix(rows, cols, seed)
        q = rtn_quantize(w, cfg)
        assert np.array_equal(q.qint, round_to_grid(w, q.scales, q.zeros, bits, gs).qint)
        redo = round_to_grid(dequantize_matrix(q), q.scales, q.zeros, bits, gs)
        assert np.array_equal(q.qint, redo.qint)


@pytest.mark.parametrize("symmetric", [False, True])
def test_rtn_rounds_half_to_even(symmetric):
    # Scale 1 on both grids (range 0..15, or max |w| = 7), so every
    # half-integer is a tie: round-half-even, as the oracle does.
    lo, hi = (-7, 7) if symmetric else (0, 15)
    w = np.concatenate([[lo, hi], np.arange(lo, hi) + 0.5]).astype(np.float32)[:, None]
    q = rtn_quantize(w, QuantConfig(bits=4, symmetric=symmetric))
    assert q.scales[0, 0] == 1.0
    assert np.array_equal(q.qint, round_to_grid(w, q.scales, q.zeros, 4, -1).qint)
    assert np.array_equal(q.qint[2:, 0] - q.zeros[0, 0],
                          np.round(w[2:, 0]).astype(np.int32))


# Column generators for the round-to-nearest oracle test. "below floor" spans
# less than SCALE_FLOOR * maxq for every bit width, so its scale is floored.
# "huge" stays within |w| <= 6e4, so even a 2-bit symmetric scale (max |w|)
# is at most float16's largest value, 65504.
RTN_COLUMNS = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "zero": lambda rng, n: np.zeros(n),
    "constant": lambda rng, n: np.full(n, rng.standard_normal()),
    "below floor": lambda rng, n: rng.uniform(-1, 1, n) * SCALE_FLOOR,
    "huge": lambda rng, n: rng.uniform(-1, 1, n) * 6e4,
}


@st.composite
def rtn_cases(draw):
    """(W, cfg) over every bit width and both grids, with groupsize -1, 1, a
    divisor of the row count, or one that leaves a short last group."""
    cfg = dict(bits=draw(st.sampled_from([2, 4, 8])), symmetric=draw(st.booleans()))
    kind = draw(st.sampled_from(["one group", "1", "divisor", "short last group"]))
    if kind in ("one group", "1"):
        rows = draw(st.integers(1, 40))
        gs = -1 if kind == "one group" else 1
    else:
        gs = draw(st.integers(2, 12))
        tail = draw(st.integers(1, gs - 1)) if kind == "short last group" else 0
        rows = gs * draw(st.integers(1, 4)) + tail
    kinds = draw(st.lists(st.sampled_from(sorted(RTN_COLUMNS)), min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = np.stack([RTN_COLUMNS[k](rng, rows) for k in kinds], axis=1).astype(np.float32)
    return W, QuantConfig(groupsize=gs, **cfg)


@settings(max_examples=300, deadline=None)
@given(case=rtn_cases())
def test_rtn_matches_oracle_bytes(case):
    W, cfg = case
    q = rtn_quantize(W, cfg)
    expect = round_to_grid(W, q.scales, q.zeros, cfg.bits, cfg.groupsize).qint
    assert q.qint.dtype == expect.dtype and q.qint.tobytes() == expect.tobytes()


class TestDequantize:
    def test_zero_point_identity(self):
        q = QuantizedMatrix(np.tile([1, 2, 3], (4, 1)).astype(np.int32),
                            np.full((1, 3), 0.5, dtype=np.float16),
                            np.array([[1, 2, 3]], dtype=np.int32), 4, -1)
        assert not dequantize_matrix(q).any()

    def test_scalar_arithmetic(self):
        q = QuantizedMatrix(np.array([[3]], dtype=np.int32), np.array([[0.5]], dtype=np.float16),
                            np.array([[1]], dtype=np.int32), 4, -1)
        assert dequantize_matrix(q)[0, 0] == 1.0

    def test_scalar_loop_oracle(self):
        cfg = QuantConfig(bits=4, groupsize=8)
        w = seeded_random_matrix(16, 6, 6)
        q = rtn_quantize(w, cfg)
        fast = dequantize_matrix(q)
        for i in range(16):
            g = i // 8
            for o in range(6):
                ref = np.float32(
                    (np.int32(q.qint[i, o]) - q.zeros[g, o]) * q.scales[g, o]
                )
                assert fast[i, o] == ref


class TestGptq:
    def test_single_row_equals_rtn(self):
        cfg = QuantConfig(bits=4)
        w = seeded_random_matrix(1, 8, 7)
        h = np.array([[2.0]], dtype=np.float32)
        qg = gptq_quantize(w, cfg, factor=inverse_hessian_factor(h))
        qr = rtn_quantize(w, cfg)
        assert np.array_equal(qg.qint, qr.qint)

    def test_identity_hessian_matches_rtn_loss(self):
        # with H = I the inverse-Cholesky rows have zero off-diagonals, so
        # error feedback never fires and GPTQ degenerates to row-wise RTN
        cfg = QuantConfig(bits=4, groupsize=-1)
        w = seeded_random_matrix(8, 8, 8)
        h = np.eye(8, dtype=np.float32)
        qg = gptq_quantize(w, cfg, factor=inverse_hessian_factor(h))
        qr = rtn_quantize(w, cfg)
        assert np.array_equal(qg.qint, qr.qint)
        assert proxy_loss(w, qg, h) == pytest.approx(proxy_loss(w, qr, h))

    def test_dimension_mismatch(self):
        with pytest.raises(InvariantError):
            gptq_quantize(seeded_random_matrix(8, 4, 0), QuantConfig(),
                          factor=inverse_hessian_factor(np.eye(6)))

    @pytest.mark.parametrize("gs", [-1, 8, 16])
    def test_dominance_sample(self, gs):
        cfg = QuantConfig(bits=4, groupsize=gs)
        wins = 0
        for seed in range(30):
            w = seeded_random_matrix(16, 16, seed)
            h = spd_hessian(16, 1000 + seed)
            lg = proxy_loss(w, gptq_quantize(w, cfg, factor=inverse_hessian_factor(h)), h)
            lr = proxy_loss(w, rtn_quantize(w, cfg), h)
            wins += lg <= lr + 1e-6 * abs(lr)
        assert wins >= 29

    def test_dominance_property_200(self):
        # brute-force loss comparison over randomly shaped SPD instances
        rng = np.random.default_rng(99)
        cfg_pool = [QuantConfig(bits=4, groupsize=g) for g in (-1, 8, 16)]
        ok = 0
        total = 200
        for t in range(total):
            dim = int(rng.integers(4, 33))
            cols = int(rng.integers(2, 33))
            w = seeded_random_matrix(dim, cols, 5000 + t)
            h = spd_hessian(dim, 9000 + t, rows=64)
            cfg = cfg_pool[t % len(cfg_pool)]
            lg = proxy_loss(w, gptq_quantize(w, cfg, factor=inverse_hessian_factor(h)), h)
            lr = proxy_loss(w, rtn_quantize(w, cfg), h)
            ok += lg <= lr + 1e-6 * abs(lr)
        assert ok >= 0.99 * total

    @pytest.mark.parametrize("rows", [17, 129, 145, 200, 250, 300, 384])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    @pytest.mark.parametrize("gs", [16, 128, -1])
    def test_blocked_sweep_matches_row_loop(self, rows, bits, gs):
        # Row counts, not all multiples of the 128-row block or the 16-row
        # sub-block, so residuals cross both boundaries through the GEMM
        # updates and the last block and sub-block are often short. Both
        # zero-point schemes pin the snap's clip to [-z, maxq - z].
        seed = rows * 10 + bits
        w = seeded_random_matrix(rows, 24, seed)
        h = spd_hessian(rows, 50_000 + seed, rows=2 * rows)
        for symmetric in (False, True):
            cfg = QuantConfig(bits=bits, groupsize=gs, symmetric=symmetric)
            q = gptq_quantize(w, cfg, factor=inverse_hessian_factor(h))
            ref = row_loop_gptq(w, h, cfg)
            assert q.qint.tobytes() == ref.qint.tobytes(), f"symmetric={symmetric}"

    @pytest.mark.parametrize("dim", [1, 7, 63, 64, 65, 128, 129, 200, 768])
    def test_inverse_hessian_factor(self, dim):
        # dims around the directly inverted leaf size and with odd splits
        h = spd_hessian(dim, 70 + dim).astype(np.float64)
        u = inverse_hessian_factor(h)
        assert not np.tril(u, -1).any()
        assert (np.diag(u) > 0).all()
        np.testing.assert_allclose(u.T @ u @ h, np.eye(dim), atol=1e-8)
        ref = lu_inverse_hessian_factor(h)
        assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("shape", [(149, 149), (150, 151), (150,)])
    def test_factor_shape_mismatch(self, shape):
        with pytest.raises(InvariantError):
            gptq_quantize(seeded_random_matrix(150, 20, 21), QuantConfig(),
                          factor=np.ones(shape))

    @pytest.mark.parametrize("factor", [
        np.tril(np.ones((16, 16))),
        np.zeros((16, 16)),
        np.full((16, 16), np.nan),
        np.eye(16) + np.triu(np.full((16, 16), np.inf), 5),
        np.triu(np.ones((16, 16))) - 2 * np.eye(16),
    ], ids=["lower-triangular", "all-zero", "all-nan", "inf-above-diagonal",
            "negative-diagonal"])
    def test_factor_must_be_finite_upper_triangular(self, factor):
        with pytest.raises(InvariantError, match="factor must be"):
            gptq_quantize(seeded_random_matrix(16, 8, 23), QuantConfig(bits=4, groupsize=8),
                          factor=factor)

    def test_not_positive_definite_is_numeric_error(self):
        h = np.eye(8)
        h[3, 3] = -1.0
        with pytest.raises(NumericError):
            inverse_hessian_factor(h)

    def test_output_invariants(self):
        cfg = QuantConfig(bits=4, groupsize=8)
        w = seeded_random_matrix(24, 8, 11)
        q = gptq_quantize(w, cfg, factor=inverse_hessian_factor(spd_hessian(24, 12)))
        assert (q.qint >= 0).all() and (q.qint <= 15).all()
        assert (q.scales > 0).all()
        assert q.scales.shape == q.zeros.shape == (3, 8)
        assert (q.bits, q.groupsize) == (4, 8)


def assert_pipeline_matches_row_loop(vision, crossmodal, dim, seed, rows, samples):
    """Every packed tensor of quantize_model equals packing the row-loop
    oracle over Hessians propagated here, layer by layer, through the
    original weights."""
    cfg = QuantConfig(bits=4, groupsize=16)
    model = generate_model(vision, crossmodal, dim, seed=seed)
    calib_v = CalibrationSet("vision", [synthetic_activations(rows, dim, seed + 1 + k)
                                        for k in range(samples)])
    calib_m = CalibrationSet("crossmodal", [
        synthetic_activations(rows, dim, seed + 1 + samples + k) for k in range(samples)])
    ckpt = quantize_model(model, calib_v, calib_m, cfg)

    hessians = {}
    xs = calib_v.samples
    for i, name in enumerate(model.vision_layers):
        hessians[("vision", i)] = hessian_from_samples(xs, cfg.damp_ratio)
        xs = [x @ model.weights[name] for x in xs]
    xs = calib_m.samples
    for i, layer in enumerate(model.crossmodal_layers):
        hessians[("crossmodal", i)] = hessian_from_samples(xs, cfg.damp_ratio)
        xs = [model.forward_crossmodal_layer(layer, x) for x in xs]

    assert len(ckpt.report["layers"]) == vision + 8 * crossmodal
    for entry in ckpt.report["layers"]:
        name = entry["name"]
        h = hessians[(entry["module"], entry["layer_index"])]
        ref = pack_linear(row_loop_gptq(model.weights[name], h, cfg))
        got = packed_tensors(ckpt.layers[name], name)
        want = packed_tensors(ref, name)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("quantize", [
    lambda w, h, cfg: rtn_quantize(w, cfg),
    lambda w, h, cfg: gptq_quantize(w, cfg, factor=inverse_hessian_factor(h)),
], ids=["rtn", "gptq"])
def test_quantizers_check_weights_once(monkeypatch, quantize):
    calls = []
    check = quantcore.check_matrix
    monkeypatch.setattr(quantcore, "check_matrix",
                        lambda m: calls.append(1) or check(m))
    w, h = seeded_random_matrix(32, 8, 0), spd_hessian(32, 1)
    quantize(w, h, QuantConfig(bits=4, groupsize=8))
    assert len(calls) == 1


def test_quantize_model_matches_row_loop():
    # The cross-modal members share one precomputed factor.
    assert_pipeline_matches_row_loop(1, 1, dim=160, seed=31, rows=200, samples=1)


def test_multi_layer_quantize_model_matches_row_loop():
    # Each later layer's Hessian comes from activations propagated through
    # the earlier layer, which pins that propagation and that the forward
    # is skipped only after the last vision layer.
    assert_pipeline_matches_row_loop(2, 2, dim=64, seed=41, rows=96, samples=2)


class TestProxyLoss:
    @pytest.mark.parametrize("dim,cols", [(1, 3), (16, 16), (129, 40), (300, 7)])
    def test_matches_einsum(self, dim, cols):
        cfg = QuantConfig(bits=4, groupsize=16)
        for seed in range(3):
            w = seeded_random_matrix(dim, cols, 80 + seed)
            h = spd_hessian(dim, 90 + seed)
            qg = gptq_quantize(w, cfg, factor=inverse_hessian_factor(h))
            for q in (rtn_quantize(w, cfg), qg):
                ref = einsum_proxy_loss(w, q, h)
                assert proxy_loss(w, q, h) == pytest.approx(ref, rel=1e-12)

    def test_rejects_mismatched_shapes(self):
        # The arithmetic alone catches neither: a q of another shape
        # broadcasts against W, and an H that is not (n, n) fails in numpy.
        cfg = QuantConfig(bits=4, groupsize=8)
        w = seeded_random_matrix(8, 4, 1)
        h = spd_hessian(8, 2)
        for q, hh in [(rtn_quantize(seeded_random_matrix(8, 1, 3), cfg), h),
                      (rtn_quantize(seeded_random_matrix(16, 4, 3), cfg), h),
                      (rtn_quantize(w, cfg), h[:, :4]),
                      (rtn_quantize(w, cfg), spd_hessian(16, 2)),
                      (rtn_quantize(w, cfg), np.diag(h))]:
            with pytest.raises(InvariantError, match="proxy_loss needs"):
                proxy_loss(w, q, hh)


def test_group_index_minus_one():
    assert np.array_equal(group_index(5, -1), np.zeros(5, dtype=np.int32))


def test_rows_per_group():
    assert rows_per_group(10, -1) == 10
    assert rows_per_group(10, 4) == 4
    for n_rows, groupsize in ((10, 0), (10, -2), (0, -1)):
        with pytest.raises(InvariantError):
            rows_per_group(n_rows, groupsize)
    with pytest.raises(InvariantError):
        group_index(5, 0)


# sha256 of round-to-nearest's packed bytes on seeded 240x72 weights: the four
# tensors of pack_linear(rtn_quantize(W, cfg)), then the (scales, zeros) of
# compute_group_params(W, cfg), each hashed with its dtype and shape. This path
# makes no BLAS call, so the digests hold on any host. A change that moves
# them is a reproducibility break, recorded in CHANGES.md with the new digests.
RTN_DIGESTS = {
    (4, 128, False, 1.0):
        "e2cd829a3cafc2ca5bc4fc79155cc308cf4ff30833b9607a46b4fc39635fb8e8",
    (4, 128, True, 1.0):
        "189eca16056fe71f4107fc76a1ee9b708b696bbf8d2d4e396e28e28703ed290d",
    (2, 48, False, 1.0):
        "b1c6f93fbd27b84067ab7a3cdb0aac6cf52521318687bd2376b74429f335aab8",
    (8, -1, False, 1.0):
        "e42941b819f2ea54d9f6c64757420761cc8008098f34591a9a340c4ab3e4eb0f",
    (4, 12, False, 1.0):
        "9d21baabc86d534081fe7c6d2a991b40e405b9d481dafc8b140c81dba96294e0",
    (2, 40, True, 1.0):
        "57245e2008aa66eb5f3b6c7f7f6de8fe06579bd56ebf1bfe0e4db3efdff5553c",
    (4, 128, False, 1e-6):
        "6397552bfe459e8e80242d426d5936a1b699285cdfc16dcfae88d008e8e156f5",
}


def rtn_digest(bits, groupsize, symmetric, factor):
    W = seeded_random_matrix(240, 72, 2029) * np.float32(factor)
    cfg = QuantConfig(bits=bits, groupsize=groupsize, symmetric=symmetric)
    layer = pack_linear(rtn_quantize(W, cfg))
    digest = hashlib.sha256()
    for t in (layer.qweight, layer.scales, layer.qzeros, layer.g_idx,
              *compute_group_params(W, cfg)):
        digest.update(f"{t.dtype.str}{t.shape}".encode())
        digest.update(t.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", RTN_DIGESTS, ids=lambda c: "{}bit-g{}-{}-x{:g}".format(
    c[0], c[1], "sym" if c[2] else "asym", c[3]))
def test_rtn_packed_bytes_are_pinned(case):
    assert rtn_digest(*case) == RTN_DIGESTS[case]
