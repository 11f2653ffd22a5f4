"""Cross-architecture feature alignment (the hfd loss terms).

Each student's first-layer feature is reshaped by a small adapter (1×1
conv + average pooling) to the other student's first-feature geometry,
run through the *other* student's second block, and pulled toward that
student's native second feature with a cosine-distance penalty.

Gradient direction: only the learning student moves. The borrowed block's
weights and the target feature are detached, so the loss trains the
source student's early layers and its adapter, never the counterpart.

Features may carry a leading batch axis; the loss is the mean distance
over every location of every image, which equals the mean of per-image
means because every image has the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .losses import cosine_distance
from .students import ArchConfig, StudentParams, detach_params, mlp_block, vit_second_stage
from .tensor import Tensor, avg_pool2d, conv2d


@dataclass
class FeatureAdapter:
    """1×1 convolution followed by average pooling by an integer factor."""

    weight: Tensor  # (C_out, C_in, 1, 1)
    bias: Tensor  # (C_out,)
    pool: int

    @property
    def in_channels(self):
        return self.weight.shape[1]

    @property
    def out_channels(self):
        return self.weight.shape[0]

    def named_tensors(self, prefix):
        return [(f"{prefix}/weight", self.weight), (f"{prefix}/bias", self.bias)]


def init_adapter(c_in: int, c_out: int, pool: int, rng) -> FeatureAdapter:
    if pool < 1:
        raise ConfigError(f"adapter pool factor must be >= 1, got {pool}")
    s = 1.0 / np.sqrt(c_in)
    return FeatureAdapter(
        weight=Tensor(rng.uniform(-s, s, (c_out, c_in, 1, 1)), requires_grad=True),
        bias=Tensor(np.zeros(c_out), requires_grad=True),
        pool=pool,
    )


def apply_adapter(f: Tensor, adapter: FeatureAdapter) -> Tensor:
    if f.ndim not in (3, 4) or f.shape[-3] != adapter.in_channels:
        raise ConfigError(f"adapter expects {adapter.in_channels} input channels, got {tuple(f.shape)}")
    if f.shape[-2] % adapter.pool or f.shape[-1] % adapter.pool:
        raise ConfigError(f"feature {tuple(f.shape)} not divisible by pool factor {adapter.pool}")
    out = conv2d(f, adapter.weight) + adapter.bias.reshape((adapter.out_channels, 1, 1))
    if adapter.pool > 1:
        out = avg_pool2d(out, adapter.pool)
    return out


def _pool_factor(src_hw, dst_hw, what):
    if src_hw[0] < dst_hw[0] or src_hw[1] < dst_hw[1]:
        raise ConfigError(f"{what}: cannot pool {src_hw} down to larger grid {dst_hw}")
    if src_hw[0] % dst_hw[0] or src_hw[1] % dst_hw[1]:
        raise ConfigError(f"{what}: grid {src_hw} not divisible onto {dst_hw}")
    ph, pw = src_hw[0] // dst_hw[0], src_hw[1] // dst_hw[1]
    if ph != pw:
        raise ConfigError(f"{what}: anisotropic pooling {ph}x{pw} not supported")
    return ph


@dataclass
class AdapterSet:
    c1: FeatureAdapter  # cnn f1 -> vit f1 geometry, owned by the CNN objective
    v1: FeatureAdapter  # vit f1 -> cnn f1 geometry, owned by the ViT objective
    cl: FeatureAdapter  # cnn fl -> region grid, owned by the CNN objective
    vl: FeatureAdapter  # vit fl -> region grid, owned by the ViT objective

    def cnn_side(self):
        return self.c1.named_tensors("adapter_c1") + self.cl.named_tensors("adapter_cl")

    def vit_side(self):
        return self.v1.named_tensors("adapter_v1") + self.vl.named_tensors("adapter_vl")


def init_adapters(cfg: ArchConfig, rng) -> AdapterSet:
    """The four adapters for a config, with geometry derived from it.

    c1/v1 reshape first features across students; cl/vl reshape last
    features onto the shared region grid (common channels = the CNN's
    last channel count, common spatial = the ViT's last-stage grid).
    """
    c1, _, c3 = cfg.cnn_channels
    d1, _, d3 = cfg.vit_dims
    f1c, f1v = cfg.cnn_feature_hw("f1"), cfg.vit_feature_hw("f1")
    flc, flv = cfg.cnn_feature_hw("fl"), cfg.vit_feature_hw("fl")
    return AdapterSet(
        c1=init_adapter(c1, d1, _pool_factor(f1c, f1v, "first-feature adapter (cnn->vit)"), rng),
        v1=init_adapter(d1, c1, _pool_factor(f1v, f1c, "first-feature adapter (vit->cnn)"), rng),
        cl=init_adapter(c3, c3, _pool_factor(flc, flv, "last-feature adapter (cnn)"), rng),
        vl=init_adapter(d3, c3, _pool_factor(flv, flv, "last-feature adapter (vit)"), rng),
    )


def hfd_loss_cnn(f1_c: Tensor, adapter_c1: FeatureAdapter, vit_params: StudentParams, cfg: ArchConfig, f2_v: Tensor) -> Tensor:
    """Alignment loss that trains the CNN: its adapted f1 through the ViT's
    second stage versus the ViT's own f2. ViT weights and f2 are frozen."""
    crossed = vit_second_stage(apply_adapter(f1_c, adapter_c1), detach_params(vit_params), cfg)
    return cosine_distance(crossed, f2_v.detach()).mean()


def hfd_loss_vit(f1_v: Tensor, adapter_v1: FeatureAdapter, cnn_params: StudentParams, cfg: ArchConfig, f2_c: Tensor) -> Tensor:
    """Mirror of hfd_loss_cnn: trains the ViT through the CNN's second layer."""
    crossed = mlp_block(apply_adapter(f1_v, adapter_v1), detach_params(cnn_params))
    return cosine_distance(crossed, f2_c.detach()).mean()
