import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codistill.errors import ConfigError
from codistill.losses import pixel_ce
from codistill.students import (
    ArchConfig,
    attention_mix,
    attn_block,
    cnn_forward,
    detach_params,
    init_cnn_params,
    init_vit_params,
    mlp_block,
    vit_forward,
    vit_second_stage,
)
from codistill.tensor import ShapeError, Tensor, bilinear_upsample, log_softmax

from gradcheck import check_grads

DEFAULT = ArchConfig()
MICRO = ArchConfig(input_hw=(8, 8), num_classes=3, cnn_channels=(3, 4, 5), vit_dims=(4, 6, 8), patch_size=2, num_heads=2)


@pytest.fixture
def default_pair():
    rng = np.random.default_rng(0)
    return init_cnn_params(DEFAULT, rng), init_vit_params(DEFAULT, rng)


class TestArchConfig:
    def test_default_valid(self):
        ArchConfig()  # __post_init__ raises ConfigError on an invalid default

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(input_hw=(30, 32)),
            dict(patch_size=3),
            dict(patch_size=4),  # adapters pool, never upsample: stride plans must match at f1
            dict(input_hw=(12, 12)),  # token grid 6x6, not divisible by 4
            dict(vit_dims=(15, 32, 48)),  # 15 not divisible by 2 heads
            dict(num_classes=1),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ArchConfig(**{**dict(), **kwargs})

    @pytest.mark.parametrize("hw", [(0, 0), (0, 32), (-8, 32)])
    def test_empty_input_rejected(self, hw):
        with pytest.raises(ConfigError, match="non-empty"):
            ArchConfig(input_hw=hw)


class TestCnnForward:
    def test_declared_shapes(self, default_pair):
        params_c, _ = default_pair
        out = cnn_forward(Tensor(np.random.default_rng(1).standard_normal((3, 32, 32))), params_c, DEFAULT)
        assert out.f1.shape == (8, 16, 16)
        assert out.f2.shape == (16, 8, 8)
        assert out.fl.shape == (24, 8, 8)
        assert out.prediction.shape == (4, 32, 32)

    def test_zero_input_uniform_prediction(self, default_pair):
        params_c, _ = default_pair
        out = cnn_forward(Tensor(np.zeros((3, 32, 32))), params_c, DEFAULT)
        probs = np.exp(log_softmax(out.prediction, axis=0).data)
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_input_shape_checked(self, default_pair):
        params_c, _ = default_pair
        with pytest.raises(ShapeError):
            cnn_forward(Tensor(np.zeros((3, 16, 16))), params_c, DEFAULT)

    def test_ce_gradients_over_all_parameters(self):
        rng = np.random.default_rng(2)
        params = init_cnn_params(MICRO, rng)
        x = Tensor(rng.standard_normal((3, 8, 8)))
        labels = rng.integers(0, 3, (8, 8))

        def build():
            return pixel_ce(log_softmax(cnn_forward(x, params, MICRO).prediction, axis=-3), labels)[0]

        check_grads(build, params.values(), rtol=1e-4, max_elems=4, rng=rng, label="cnn_ce")


class TestVitForward:
    def test_declared_shapes(self, default_pair):
        _, params_v = default_pair
        out = vit_forward(Tensor(np.random.default_rng(3).standard_normal((3, 32, 32))), params_v, DEFAULT)
        assert out.f1.shape == (16, 16, 16)
        assert out.f2.shape == (32, 8, 8)
        assert out.fl.shape == (48, 4, 4)
        assert out.prediction.shape == (4, 32, 32)

    def test_zero_input_uniform_prediction(self, default_pair):
        _, params_v = default_pair
        out = vit_forward(Tensor(np.zeros((3, 32, 32))), params_v, DEFAULT)
        probs = np.exp(log_softmax(out.prediction, axis=0).data)
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_ce_gradients_over_all_parameters(self):
        rng = np.random.default_rng(4)
        params = init_vit_params(MICRO, rng)
        x = Tensor(rng.standard_normal((3, 8, 8)))
        labels = rng.integers(0, 3, (8, 8))

        def build():
            return pixel_ce(log_softmax(vit_forward(x, params, MICRO).prediction, axis=-3), labels)[0]

        check_grads(build, params.values(), rtol=1e-4, max_elems=3, rng=rng, label="vit_ce")

    def test_head_before_upsample_matches_head_after(self, default_pair):
        # the 1×1 head is linear and each interpolation row sums to 1, so
        # running it on the 4×4 grid is exact in reals; logits near zero come
        # out of cancelling sums, so they are bounded relative to the largest logit
        _, params_v = default_pair
        out = vit_forward(Tensor(np.random.default_rng(5).standard_normal((8, 3, 32, 32))), params_v, DEFAULT)
        upsampled = bilinear_upsample(Tensor(out.fl.data), DEFAULT.input_hw).data
        head_w, head_b = params_v["head_w"].data[:, :, 0, 0], params_v["head_b"].data
        want = np.einsum("kc,nchw->nkhw", head_w, upsampled) + head_b[:, None, None]
        np.testing.assert_allclose(out.prediction.data, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


class TestAttention:
    def test_single_token_mixing_is_value_projection(self):
        rng = np.random.default_rng(5)
        t = Tensor(rng.standard_normal((1, 6)))
        wq, wk, wv = (Tensor(rng.standard_normal((6, 6))) for _ in range(3))
        out = attention_mix(t, wq, wk, wv, num_heads=2)
        np.testing.assert_allclose(out.data, t.data @ wv.data, rtol=1e-12)

    def test_identical_tokens_mix_uniformly(self):
        rng = np.random.default_rng(6)
        row = rng.standard_normal(6)
        t = Tensor(np.tile(row, (5, 1)))
        wq, wk, wv = (Tensor(rng.standard_normal((6, 6))) for _ in range(3))
        out = attention_mix(t, wq, wk, wv, num_heads=2)
        # uniform weights over identical values reproduce each value row
        np.testing.assert_allclose(out.data, t.data @ wv.data, rtol=1e-9)
        # and the weights themselves are 1/N, checked against the formula
        q = t.data @ wq.data
        k = t.data @ wk.data
        scores = q[:, :3] @ k[:, :3].T / np.sqrt(3)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        np.testing.assert_allclose(e / e.sum(axis=1, keepdims=True), 0.2, rtol=1e-12)

    def test_block_gradients(self):
        rng = np.random.default_rng(7)
        cfg = MICRO
        params = init_vit_params(cfg, rng)
        t = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        w = rng.standard_normal((4, 6))

        def build():
            return (attn_block(t, params, 2, cfg) * w).sum()

        leaves = [t] + [params[f"s2_{n}"] for n in ("wq", "wk", "wv", "ln1_g", "ffn_w1", "ffn_b2")]
        check_grads(build, leaves, rtol=1e-4, label="attn_block")

    def test_indivisible_heads_rejected(self):
        t = Tensor(np.zeros((3, 5)))
        w = Tensor(np.zeros((5, 5)))
        with pytest.raises(ShapeError, match="H = 2 heads"):
            attention_mix(t, w, w, w, num_heads=2)


class TestSharedBlocks:
    """The cross-student alignment borrows each student's second block; the
    borrowed call on the student's own f1 must reproduce f2 exactly."""

    def test_vit_second_stage_reproduces_f2(self, default_pair):
        _, params_v = default_pair
        x = Tensor(np.random.default_rng(8).standard_normal((3, 32, 32)))
        out = vit_forward(x, params_v, DEFAULT)
        again = vit_second_stage(out.f1.detach(), params_v, DEFAULT)
        np.testing.assert_array_equal(again.data, out.f2.data)

    def test_mlp_block_reproduces_f2(self, default_pair):
        params_c, _ = default_pair
        x = Tensor(np.random.default_rng(9).standard_normal((3, 32, 32)))
        out = cnn_forward(x, params_c, DEFAULT)
        again = mlp_block(out.f1.detach(), params_c)
        np.testing.assert_array_equal(again.data, out.f2.data)

    def test_mlp_block_zero_input(self, default_pair):
        params_c, _ = default_pair
        out = mlp_block(Tensor(np.zeros((8, 16, 16))), params_c)
        np.testing.assert_array_equal(out.data, np.zeros((16, 8, 8)))

    def test_mlp_block_channel_mismatch(self, default_pair):
        params_c, _ = default_pair
        with pytest.raises(ShapeError, match="channel mismatch"):
            mlp_block(Tensor(np.zeros((5, 16, 16))), params_c)

    def test_mlp_block_gradients(self, default_pair):
        params_c, _ = default_pair
        rng = np.random.default_rng(10)
        f = Tensor(rng.standard_normal((8, 8, 8)), requires_grad=True)
        w = rng.standard_normal((16, 4, 4))

        def build():
            return (mlp_block(f, params_c) * w).sum()

        check_grads(build, [f, params_c["conv2_w"], params_c["conv2_b"]], rtol=1e-4, max_elems=24, rng=rng, label="mlp_block")


class TestBatchAxis:
    @pytest.mark.parametrize("forward", [cnn_forward, vit_forward], ids=["cnn", "vit"])
    def test_batched_forward_matches_per_image(self, default_pair, forward):
        params = default_pair[0] if forward is cnn_forward else default_pair[1]
        x = np.random.default_rng(3).uniform(0.0, 1.0, (3, 3, 32, 32))
        batched = forward(Tensor(x), params, DEFAULT)
        for i in range(3):
            single = forward(Tensor(x[i]), params, DEFAULT)
            for name in ("prediction", "f1", "f2", "fl"):
                got, want = getattr(batched, name).data[i], getattr(single, name).data
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14, err_msg=name)

    def test_batched_input_shape_checked(self, default_pair):
        with pytest.raises(ShapeError, match="3×32×32"):
            vit_forward(Tensor(np.zeros((2, 3, 16, 16))), default_pair[1], DEFAULT)


class TestBudgetAndDeterminism:
    def test_parameter_budget(self, default_pair):
        params_c, params_v = default_pair
        assert sum(p.data.size for params in (params_c, params_v) for p in params.values()) < 50_000

    def test_detach_params_blocks_gradients(self, default_pair):
        params_c, _ = default_pair
        x = Tensor(np.random.default_rng(11).standard_normal((3, 32, 32)))
        out = cnn_forward(x, detach_params(params_c), DEFAULT)
        out.prediction.sum().backward()
        assert all(p.grad is None for p in params_c.values())

    def test_forward_is_pure(self, default_pair):
        params_c, _ = default_pair
        x = Tensor(np.random.default_rng(12).standard_normal((3, 32, 32)))
        a = cnn_forward(x, params_c, DEFAULT).prediction.data.tobytes()
        b = cnn_forward(x, params_c, DEFAULT).prediction.data.tobytes()
        assert a == b


@st.composite
def valid_configs(draw):
    patch = 2
    grid = draw(st.sampled_from([4, 8]))
    hw = patch * grid
    heads = draw(st.sampled_from([1, 2]))
    cnn = tuple(draw(st.integers(2, 6)) for _ in range(3))
    vit = tuple(heads * draw(st.integers(1, 4)) for _ in range(3))
    k = draw(st.integers(2, 5))
    return ArchConfig(input_hw=(hw, hw), num_classes=k, cnn_channels=cnn, vit_dims=vit, patch_size=patch, num_heads=heads)


@given(valid_configs(), st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_stage_shapes_hold_for_every_valid_config(cfg, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((3, *cfg.input_hw)))
    out_c = cnn_forward(x, init_cnn_params(cfg, rng), cfg)
    out_v = vit_forward(x, init_vit_params(cfg, rng), cfg)
    assert out_c.f1.shape == (cfg.cnn_channels[0], *cfg.cnn_feature_hw("f1"))
    assert out_c.f2.shape == (cfg.cnn_channels[1], *cfg.cnn_feature_hw("f2"))
    assert out_c.fl.shape == (cfg.cnn_channels[2], *cfg.cnn_feature_hw("fl"))
    assert out_v.f1.shape == (cfg.vit_dims[0], *cfg.vit_feature_hw("f1"))
    assert out_v.f2.shape == (cfg.vit_dims[1], *cfg.vit_feature_hw("f2"))
    assert out_v.fl.shape == (cfg.vit_dims[2], *cfg.vit_feature_hw("fl"))
    for out in (out_c, out_v):
        assert out.prediction.shape == (cfg.num_classes, *cfg.input_hw)
        # feature resolution must not increase with depth
        assert out.f1.shape[1] >= out.f2.shape[1] >= out.fl.shape[1]
