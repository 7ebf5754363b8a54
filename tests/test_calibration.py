import numpy as np
import pytest

from modquant import (
    CalibrationSet,
    InvariantError,
    NumericError,
    SyntheticModel,
    capture_calibration,
    generate_model,
    hessian_from_samples,
    load_calibration,
    save_calibration,
    seeded_random_matrix,
    synthetic_activations,
    vision_seq_len,
)
from modquant.quantcore import inverse_hessian_factor


def damped(raw, damp_ratio=0.01):
    """f64 oracle: raw + damp_ratio * mean(diag(raw)) * I."""
    raw = np.asarray(raw, dtype=np.float64)
    return raw + damp_ratio * np.mean(np.diag(raw)) * np.eye(raw.shape[0])


class TestAccumulate:
    def test_single_row_fixture(self):
        h = hessian_from_samples([np.array([[1.0, 0.0]], dtype=np.float32)], 0.01)
        assert h.dtype == np.float64
        assert np.allclose(h, [[2.01, 0.0], [0.0, 0.01]])

    def test_additivity(self):
        a = seeded_random_matrix(5, 4, 0)
        b = seeded_random_matrix(7, 4, 1)
        split = hessian_from_samples([a, b], 0.01)
        joined = hessian_from_samples([np.vstack([a, b])], 0.01)
        assert np.allclose(split, joined, rtol=1e-5)

    def test_dense_product_oracle(self):
        x = seeded_random_matrix(64, 8, 2)
        h = hessian_from_samples([x], 0.01)
        x64 = x.astype(np.float64)
        assert np.allclose(h, damped(2.0 * x64.T @ x64), rtol=1e-5)

    def test_order_independence(self):
        samples = [seeded_random_matrix(6, 5, s) for s in range(8)]
        fwd = hessian_from_samples(samples, 0.01)
        rev = hessian_from_samples(samples[::-1], 0.01)
        assert np.allclose(fwd, rev, rtol=1e-5)

    def test_dimension_mismatch(self):
        # the width comes from the samples, so two widths in one call conflict
        with pytest.raises(InvariantError, match=r"widths \[3, 4\]"):
            hessian_from_samples(
                [seeded_random_matrix(2, 4, 0), seeded_random_matrix(2, 3, 1)], 0.01)

    def test_symmetry_and_psd_probes(self):
        x = seeded_random_matrix(30, 6, 3)
        h = hessian_from_samples([x], 0.01)
        assert np.abs(h - h.T).max() <= 1e-6
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal(6)
            assert float(v @ h @ v) >= -1e-4

    @pytest.mark.parametrize("shapes", [
        [(1, 1)], [(3, 2)], [(30, 6)], [(5, 4), (7, 4)], [(577, 96)], [(40, 130), (9, 130)],
    ], ids=str)
    def test_exactly_symmetric(self, shapes):
        samples = [seeded_random_matrix(r, c, k) for k, (r, c) in enumerate(shapes)]
        h = hessian_from_samples(samples, 0.01)
        assert np.array_equal(h, h.T)


class TestFinalize:
    def test_diagonal_fixture(self):
        # 2 * I^T I = 2I, damped by 0.01 * mean(diag) = 0.02
        out = hessian_from_samples([np.eye(3, dtype=np.float32)], 0.01)
        assert np.allclose(out, 2.02 * np.eye(3), rtol=1e-6)

    def test_rank1_becomes_factorizable(self):
        out = hessian_from_samples([seeded_random_matrix(1, 4, 5)], 0.01)
        inverse_hessian_factor(out)  # must not raise

    @pytest.mark.parametrize("damp_ratio", [0.0, -0.1, float("nan"), float("inf")])
    def test_bad_damp_ratio_rejected(self, damp_ratio):
        with pytest.raises(InvariantError, match="damp_ratio"):
            hessian_from_samples([seeded_random_matrix(1, 4, 5)], damp_ratio)

    def test_zero_hessian_rejected(self):
        with pytest.raises(NumericError, match="all-zero Hessian"):
            hessian_from_samples([np.zeros((2, 3), dtype=np.float32)], 0.01)
        # no samples leave no width to size the Hessian by
        with pytest.raises(InvariantError, match="one width"):
            hessian_from_samples([], 0.01)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x,damp_ratio", [
        (seeded_random_matrix(8, 4, 5), 1e38),  # lambda beyond f32, finite in f64
        (np.full((8, 4), 1e20, np.float32), 0.01),  # X^T X beyond f32, finite in f64
        # products of ~1e-24 values (~1e-48) underflow f32 to 0, not f64
        (seeded_random_matrix(16, 8, 4) * np.float32(1e-24), 0.01),
    ], ids=["damping", "samples", "underflow"])
    def test_hessian_beyond_float32_matches_f64_oracle(self, x, damp_ratio):
        h = hessian_from_samples([x], damp_ratio)
        x64 = x.astype(np.float64)
        assert np.allclose(h, damped(2.0 * x64.T @ x64, damp_ratio), rtol=1e-12, atol=0)

    @pytest.mark.filterwarnings("error")
    def test_damping_beyond_float64_rejected(self):
        # mean(diag(H)) > 1, so 1e308 * mean(diag(H)) has no f64 value
        with pytest.raises(NumericError, match=r"lambda = inf .*f64 cannot hold"):
            hessian_from_samples([np.full((8, 4), 1.0, np.float32)], 1e308)

    def test_subtracting_damping_recovers_raw(self):
        x = seeded_random_matrix(20, 5, 6).astype(np.float64)
        raw = 2.0 * (x.T @ x)  # the f64 product of one sample
        lam = 0.01 * float(np.mean(np.diag(raw)))
        out = hessian_from_samples([x], 0.01)
        delta = out - raw
        # damping touches the diagonal only; off-diagonals stay bit-exact,
        # while (d + lam) - d on the diagonal carries f64 rounding at the
        # magnitude of d, not lam
        assert not (delta - np.diag(np.diag(delta))).any()
        atol = 4 * np.finfo(np.float64).eps * float(np.diag(raw).max())
        assert np.allclose(np.diag(delta), lam, rtol=0, atol=atol)


class TestCapture:
    def test_identity_model_passthrough(self):
        model = generate_model(1, 1, 8, seed=0)
        model.weights[model.vision_layers[0]] = np.eye(8, dtype=np.float32)
        x = seeded_random_matrix(4, 8, 1)
        calib = capture_calibration(model, [x], "vision")
        assert np.array_equal(calib.samples[0], x)

    def test_second_module_standalone_oracle(self):
        # one vision layer, one cross-modal layer: the crossmodal capture
        # must equal running the vision layer standalone
        model = generate_model(1, 1, 8, seed=2)
        x = seeded_random_matrix(4, 8, 3)
        calib = capture_calibration(model, [x], "crossmodal")
        standalone = x @ model.weights[model.vision_layers[0]]
        assert np.allclose(calib.samples[0], standalone, rtol=1e-6)

    def test_crossmodal_capture_without_vision_layers(self):
        # with no vision stack the cross-modal layers read the raw inputs
        model = generate_model(0, 1, 8, seed=0)
        x = seeded_random_matrix(4, 8, 1)
        calib = capture_calibration(model, [x], "crossmodal")
        assert np.array_equal(calib.samples[0], x)

    def test_model_without_vision_layers_needs_d_v_equal_d_m(self):
        cm = generate_model(0, 1, 8, seed=3)
        with pytest.raises(InvariantError, match="read D_M 8, but D_V is 4"):
            SyntheticModel([], cm.crossmodal_layers, cm.weights, (4, 8))

    def test_missing_module_rejected(self):
        model = generate_model(0, 1, 8, seed=0)
        with pytest.raises(InvariantError, match="no vision module"):
            capture_calibration(model, [seeded_random_matrix(2, 8, 0)], "vision")

    @pytest.mark.parametrize("layers,selector,match", [
        ((1, 0), "crossmodal", "no cross-modal module"),
        ((1, 1), "audio", "unknown module selector 'audio'"),
    ], ids=["no cross-modal layers", "unknown selector"])
    def test_selector_the_model_cannot_serve_rejected(self, layers, selector, match):
        model = generate_model(*layers, 8, seed=0)
        with pytest.raises(InvariantError, match=match):
            capture_calibration(model, [seeded_random_matrix(2, 8, 0)], selector)

    def test_dim_mismatch_rejected(self):
        model = generate_model(1, 0, 8, seed=0)
        with pytest.raises(InvariantError):
            capture_calibration(model, [seeded_random_matrix(2, 9, 0)], "vision")

    def test_empty_inputs_rejected(self):
        model = generate_model(1, 0, 8, seed=0)
        with pytest.raises(InvariantError):
            capture_calibration(model, [], "vision")

    def test_vision_capture_pure(self):
        model = generate_model(2, 2, 8, seed=4)
        x = seeded_random_matrix(3, 8, 5)
        a = capture_calibration(model, [x], "vision")
        b = capture_calibration(model, [x], "vision")
        assert np.array_equal(a.samples[0], b.samples[0])


def test_calibration_set_invariants():
    with pytest.raises(InvariantError, match="one width"):
        CalibrationSet("vision", [])
    with pytest.raises(InvariantError, match="widths"):
        CalibrationSet(
            "vision", [seeded_random_matrix(2, 3, 0), seeded_random_matrix(2, 4, 0)]
        )
    with pytest.raises(InvariantError, match="module_id must be one of"):
        CalibrationSet("audio", [seeded_random_matrix(2, 3, 0)])


@pytest.mark.parametrize("rows,dim", [(0, 4), (4, 0)])
def test_synthetic_activations_zero_dimension_rejected(rows, dim):
    with pytest.raises(InvariantError, match="dimensions must be >= 1"):
        synthetic_activations(rows, dim, 0)


def test_calibration_container_roundtrip(tmp_path):
    calib = CalibrationSet(
        "crossmodal",
        [seeded_random_matrix(4, 6, s) for s in range(3)],
    )
    path = tmp_path / "calib.bin"
    save_calibration(calib, path)
    back = load_calibration(path)
    assert back.module_id == "crossmodal"
    assert len(back.samples) == 3
    for a, b in zip(calib.samples, back.samples):
        assert np.array_equal(a, b)


def test_vision_seq_len():
    assert vision_seq_len(224, 14) == 16 * 16 + 1
    assert vision_seq_len(14, 14) == 2
    # sizes <= 0 pass the divisibility check alone: 0 % 14 == -28 % 14 == 0
    for image_size, patch_size in [(224, 15), (0, 14), (-28, 14), (14, 0), (-14, -14)]:
        with pytest.raises(InvariantError):
            vision_seq_len(image_size, patch_size)
