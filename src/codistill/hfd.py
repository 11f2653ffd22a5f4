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

from .losses import cosine_distance
from .students import ArchConfig, StudentParams, detach_params, init_params, mlp_block, vit_second_stage
from .tensor import Tensor, avg_pool2d, conv2d


@dataclass
class FeatureAdapter:
    """1×1 convolution followed by average pooling by an integer factor."""

    weight: Tensor  # (C_out, C_in, 1, 1)
    bias: Tensor  # (C_out,)
    pool: int

    def named_tensors(self, prefix):
        return [(f"{prefix}/weight", self.weight), (f"{prefix}/bias", self.bias)]


def apply_adapter(f: Tensor, adapter: FeatureAdapter) -> Tensor:
    out = conv2d(f, adapter.weight) + adapter.bias.reshape((-1, 1, 1))
    if adapter.pool > 1:
        out = avg_pool2d(out, adapter.pool)
    return out


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


def adapter_geometry(cfg: ArchConfig) -> dict:
    """Adapter name -> (c_in, c_out, pool) for a config, in initialisation order.

    c1/v1 reshape first features across students; cl/vl reshape last
    features onto the shared region grid (common channels = the CNN's
    last channel count, common spatial = the ViT's last-stage grid).
    A valid ArchConfig (patch size 2, input divisible by 8) makes every
    pool factor the whole, isotropic ratio of the two grids.
    """
    c1, _, c3 = cfg.cnn_channels
    d1, _, d3 = cfg.vit_dims
    f1c, f1v = cfg.cnn_feature_hw("f1"), cfg.vit_feature_hw("f1")
    flc, flv = cfg.cnn_feature_hw("fl"), cfg.vit_feature_hw("fl")
    return {
        "c1": (c1, d1, f1c[0] // f1v[0]),
        "v1": (d1, c1, f1v[0] // f1c[0]),
        "cl": (c3, c3, flc[0] // flv[0]),
        "vl": (d3, c3, 1),
    }


def adapter_param_specs(cfg: ArchConfig) -> dict:
    """Parameter table of the four adapters under their checkpoint record names."""
    specs = {}
    for name, (c_in, c_out, _) in adapter_geometry(cfg).items():
        specs[f"adapter_{name}/weight"] = ((c_out, c_in, 1, 1), c_in)
        specs[f"adapter_{name}/bias"] = ((c_out,), "zeros")
    return specs


def init_adapters(cfg: ArchConfig, rng) -> AdapterSet:
    """The four adapters for a config, with geometry derived from it."""
    params = init_params(adapter_param_specs(cfg), rng)
    return AdapterSet(
        **{
            name: FeatureAdapter(params[f"adapter_{name}/weight"], params[f"adapter_{name}/bias"], pool)
            for name, (_, _, pool) in adapter_geometry(cfg).items()
        }
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
