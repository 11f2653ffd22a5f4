import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codistill.errors import ConfigError
from codistill.hfd import (
    FeatureAdapter,
    apply_adapter,
    hfd_loss_cnn,
    hfd_loss_vit,
    init_adapter,
    init_adapters,
)
from codistill.losses import cosine_distance
from codistill.students import (
    ArchConfig,
    cnn_forward,
    detach_params,
    init_cnn_params,
    init_vit_params,
    mlp_block,
    vit_forward,
    vit_second_stage,
)
from codistill.tensor import Tensor, zero_grads

from gradcheck import check_grads

CFG = ArchConfig(input_hw=(16, 16), num_classes=3, cnn_channels=(4, 6, 8), vit_dims=(6, 8, 10), patch_size=2, num_heads=2)


@pytest.fixture
def setup():
    rng = np.random.default_rng(0)
    params_c = init_cnn_params(CFG, rng)
    params_v = init_vit_params(CFG, rng)
    adapters = init_adapters(CFG, rng)
    x = Tensor(rng.standard_normal((3, 16, 16)))
    return params_c, params_v, adapters, x


def identity_adapter(channels):
    w = np.zeros((channels, channels, 1, 1))
    for c in range(channels):
        w[c, c, 0, 0] = 1.0
    return FeatureAdapter(weight=Tensor(w), bias=Tensor(np.zeros(channels)), pool=1)


class TestApplyAdapter:
    def test_identity_weights_pool_one(self):
        rng = np.random.default_rng(1)
        f = Tensor(rng.standard_normal((5, 6, 6)))
        out = apply_adapter(f, identity_adapter(5))
        np.testing.assert_array_equal(out.data, f.data)

    def test_channel_sum_and_pooling(self):
        c_in, c = 3, 0.4
        f = Tensor(np.full((c_in, 8, 8), c))
        adapter = FeatureAdapter(weight=Tensor(np.ones((1, c_in, 1, 1))), bias=Tensor(np.zeros(1)), pool=2)
        out = apply_adapter(f, adapter)
        assert out.shape == (1, 4, 4)
        np.testing.assert_allclose(out.data, c_in * c, rtol=1e-12)

    def test_bad_geometry_rejected(self):
        f = Tensor(np.zeros((3, 6, 6)))
        with pytest.raises(ConfigError, match="channels"):
            apply_adapter(f, init_adapter(4, 2, 1, np.random.default_rng(2)))
        with pytest.raises(ConfigError, match="pool"):
            apply_adapter(f, init_adapter(3, 2, 4, np.random.default_rng(2)))

    def test_gradients(self):
        rng = np.random.default_rng(3)
        f = Tensor(rng.standard_normal((3, 4, 4)), requires_grad=True)
        adapter = init_adapter(3, 2, 2, rng)
        w = rng.standard_normal((2, 2, 2))
        check_grads(lambda: (apply_adapter(f, adapter) * w).sum(), [f, adapter.weight, adapter.bias], label="adapter")


class TestAdapterPlan:
    def test_default_plan_reports_derived_shapes(self):
        cfg = ArchConfig()
        adapters = init_adapters(cfg, np.random.default_rng(0))
        geometry = {name: (a.in_channels, a.out_channels, a.pool) for name, a in vars(adapters).items()}
        assert geometry == {"c1": (8, 16, 1), "v1": (16, 8, 1), "cl": (24, 24, 2), "vl": (48, 24, 1)}
        assert (cfg.cnn_channels[-1], *cfg.vit_feature_hw("fl")) == (24, 4, 4)

    def test_adapters_make_alignments_well_formed(self, setup):
        params_c, params_v, adapters, x = setup
        out_c = cnn_forward(x, params_c, CFG)
        out_v = vit_forward(x, params_v, CFG)
        assert apply_adapter(out_c.f1, adapters.c1).shape == out_v.f1.shape
        assert apply_adapter(out_v.f1, adapters.v1).shape == out_c.f1.shape
        target = (CFG.cnn_channels[-1], *CFG.vit_feature_hw("fl"))
        assert apply_adapter(out_c.fl, adapters.cl).shape == target
        assert apply_adapter(out_v.fl, adapters.vl).shape == target


@st.composite
def valid_configs(draw):
    patch = 2
    grid = draw(st.sampled_from([4, 8]))
    hw = patch * grid
    heads = draw(st.sampled_from([1, 2]))
    cnn = tuple(draw(st.integers(2, 6)) for _ in range(3))
    vit = tuple(heads * draw(st.integers(1, 4)) for _ in range(3))
    return ArchConfig(input_hw=(hw, hw), num_classes=draw(st.integers(2, 5)), cnn_channels=cnn, vit_dims=vit, patch_size=patch, num_heads=heads)


@given(valid_configs(), st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_adapters_exist_for_every_valid_config(cfg, seed):
    """The adapters derived from any valid config make both alignments well-formed."""
    rng = np.random.default_rng(seed)
    params_c = init_cnn_params(cfg, rng)
    params_v = init_vit_params(cfg, rng)
    adapters = init_adapters(cfg, rng)
    x = Tensor(rng.standard_normal((3, *cfg.input_hw)))
    out_c = cnn_forward(x, params_c, cfg)
    out_v = vit_forward(x, params_v, cfg)
    lc = hfd_loss_cnn(out_c.f1, adapters.c1, params_v, cfg, out_v.f2)
    lv = hfd_loss_vit(out_v.f1, adapters.v1, params_c, cfg, out_c.f2)
    assert 0.0 <= lc.item() <= 2.0 and 0.0 <= lv.item() <= 2.0
    target = (cfg.cnn_channels[-1], *cfg.vit_feature_hw("fl"))
    assert apply_adapter(out_c.fl, adapters.cl).shape == target
    assert apply_adapter(out_v.fl, adapters.vl).shape == target


class TestHfdLossCnn:
    def test_zero_when_vit_f1_routed_through_own_stage(self, setup):
        _, params_v, _, x = setup
        out_v = vit_forward(x, params_v, CFG)
        loss = hfd_loss_cnn(out_v.f1, identity_adapter(CFG.vit_dims[0]), params_v, CFG, out_v.f2)
        assert loss.item() < 1e-6

    def test_no_gradient_reaches_vit(self, setup):
        params_c, params_v, adapters, x = setup
        out_c = cnn_forward(x, params_c, CFG)
        out_v = vit_forward(x, params_v, CFG)
        zero_grads([*params_c.values(), *params_v.values()])
        hfd_loss_cnn(out_c.f1, adapters.c1, params_v, CFG, out_v.f2).backward()
        assert all(p.grad is None for p in params_v.values())
        assert params_c["conv1_w"].grad is not None
        assert adapters.c1.weight.grad is not None

    def test_compositional_oracle(self, setup):
        params_c, params_v, adapters, x = setup
        out_c = cnn_forward(x, params_c, CFG)
        out_v = vit_forward(x, params_v, CFG)
        loss = hfd_loss_cnn(out_c.f1, adapters.c1, params_v, CFG, out_v.f2)
        crossed = vit_second_stage(apply_adapter(out_c.f1, adapters.c1), detach_params(params_v), CFG)
        expect = cosine_distance(crossed, out_v.f2.detach()).mean()
        assert loss.item() == expect.item()

    def test_gradients_on_the_live_path(self, setup):
        params_c, params_v, adapters, _ = setup
        rng = np.random.default_rng(4)
        f1 = Tensor(rng.standard_normal((4, 8, 8)), requires_grad=True)
        out_v = vit_forward(Tensor(rng.standard_normal((3, 16, 16))), params_v, CFG)

        def build():
            return hfd_loss_cnn(f1, adapters.c1, params_v, CFG, out_v.f2)

        check_grads(build, [f1, adapters.c1.weight, adapters.c1.bias], rtol=1e-4, max_elems=20, rng=rng, label="hfd_c")


class TestHfdLossVit:
    def test_zero_when_cnn_f1_routed_through_own_layer(self, setup):
        params_c, _, _, x = setup
        out_c = cnn_forward(x, params_c, CFG)
        loss = hfd_loss_vit(out_c.f1, identity_adapter(CFG.cnn_channels[0]), params_c, CFG, out_c.f2)
        assert loss.item() < 1e-6

    def test_no_gradient_reaches_cnn(self, setup):
        params_c, params_v, adapters, x = setup
        out_c = cnn_forward(x, params_c, CFG)
        out_v = vit_forward(x, params_v, CFG)
        zero_grads([*params_c.values(), *params_v.values()])
        hfd_loss_vit(out_v.f1, adapters.v1, params_c, CFG, out_c.f2).backward()
        assert all(p.grad is None for p in params_c.values())
        assert params_v["patch_w"].grad is not None
        assert adapters.v1.weight.grad is not None

    def test_compositional_oracle(self, setup):
        params_c, params_v, adapters, x = setup
        out_c = cnn_forward(x, params_c, CFG)
        out_v = vit_forward(x, params_v, CFG)
        loss = hfd_loss_vit(out_v.f1, adapters.v1, params_c, CFG, out_c.f2)
        crossed = mlp_block(apply_adapter(out_v.f1, adapters.v1), detach_params(params_c))
        expect = cosine_distance(crossed, out_c.f2.detach()).mean()
        assert loss.item() == expect.item()


class TestDirectionality:
    def test_losses_stay_in_range(self, setup):
        params_c, params_v, adapters, x = setup
        out_c = cnn_forward(x, params_c, CFG)
        out_v = vit_forward(x, params_v, CFG)
        lc = hfd_loss_cnn(out_c.f1, adapters.c1, params_v, CFG, out_v.f2).item()
        lv = hfd_loss_vit(out_v.f1, adapters.v1, params_c, CFG, out_c.f2).item()
        assert 0.0 <= lc <= 2.0 and 0.0 <= lv <= 2.0

    def test_swapping_source_swaps_which_student_learns(self, setup):
        """Exhaustively: each loss sends gradient to exactly one student's side."""
        params_c, params_v, adapters, x = setup
        everything = [*params_c.values(), *params_v.values()]
        out_c = cnn_forward(x, params_c, CFG)
        out_v = vit_forward(x, params_v, CFG)

        zero_grads(everything)
        hfd_loss_cnn(out_c.f1, adapters.c1, params_v, CFG, out_v.f2).backward()
        c_touched = {k for k, p in params_c.items() if p.grad is not None}
        assert all(p.grad is None for p in params_v.values())
        assert "conv1_w" in c_touched and "conv3_w" not in c_touched  # only the f1-producing layers

        zero_grads(everything)
        hfd_loss_vit(out_v.f1, adapters.v1, params_c, CFG, out_c.f2).backward()
        v_touched = {k for k, p in params_v.items() if p.grad is not None}
        assert all(p.grad is None for p in params_c.values())
        assert "patch_w" in v_touched and "down3_w" not in v_touched
