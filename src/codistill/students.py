"""Two toy dense-prediction students: one convolutional, one attention-based.

Both expose the intermediate features the distillation losses need (first,
second and last layer/stage) alongside full-resolution class logits. Both
take one 3×H×W image or an N×3×H×W batch; every output keeps the batch
axis, and each image's outputs match those of a forward on it alone. The
stride plan mirrors the usual encoder pattern at desk scale:

    CNN:  f1 at stride 2, f2 at stride 4, fl at stride 4 (same grid as f2)
    ViT:  f1 at stride p (patch), f2 at stride 2p, fl at stride 4p

so the two students' first features share a spatial grid (for p=2) while
the CNN's last feature is spatially larger than the ViT's, which is what
makes the shape-matching adapters non-trivial.

The second block of each student is callable on external features:
``mlp_block`` is literally the CNN's second layer, ``vit_second_stage``
is the ViT's downsample + second attention stage. Running the ViT's own
f1 through ``vit_second_stage`` reproduces its f2 bit for bit (same for
the CNN side); the cross-student alignment loss depends on that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tensor import (
    ShapeError,
    Tensor,
    attention,
    bilinear_upsample,
    conv2d,
    gelu,
    layer_norm,
    matmul,
    relu,
)

StudentParams = dict  # name -> Tensor


@dataclass(frozen=True)
class ArchConfig:
    """Geometry of the student pair; every stage shape derives from this."""

    input_hw: tuple = (32, 32)
    num_classes: int = 4
    cnn_channels: tuple = (8, 16, 24)
    vit_dims: tuple = (16, 32, 48)
    patch_size: int = 2
    num_heads: int = 2
    ffn_ratio: int = 2

    def __post_init__(self):
        h, w = self.input_hw
        p = self.patch_size
        if self.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}")
        if len(self.cnn_channels) != 3 or len(self.vit_dims) != 3:
            raise ConfigError("cnn_channels and vit_dims must each have 3 entries")
        if min(self.cnn_channels) < 1 or min(self.vit_dims) < 1:
            raise ConfigError("channel counts must be positive")
        if self.num_heads < 1:
            raise ConfigError(f"num_heads must be >= 1, got {self.num_heads}")
        if h < 1 or w < 1:
            raise ConfigError(f"input {h}x{w} must be non-empty")
        if h % 4 or w % 4:
            raise ConfigError(f"input {h}x{w} must be divisible by 4 (CNN stride plan)")
        if p != 2:
            # both first features must share a spatial grid (stride 2); the
            # shape adapters pool and never upsample
            raise ConfigError(f"patch size must be 2, got {p}")
        if (h // p) % 4 or (w // p) % 4:
            raise ConfigError(f"token grid {h // p}x{w // p} must be divisible by 4 (ViT stride plan)")
        for d in self.vit_dims:
            if d % self.num_heads:
                raise ConfigError(f"dim {d} not divisible by {self.num_heads} heads")
        if self.ffn_ratio < 1:
            raise ConfigError("ffn_ratio must be >= 1")

    # derived stage geometry ------------------------------------------
    def cnn_feature_hw(self, which: str) -> tuple:
        h, w = self.input_hw
        s = {"f1": 2, "f2": 4, "fl": 4}[which]
        return (h // s, w // s)

    def vit_feature_hw(self, which: str) -> tuple:
        h, w = self.input_hw
        s = {"f1": 1, "f2": 2, "fl": 4}[which]
        return (h // (self.patch_size * s), w // (self.patch_size * s))


@dataclass
class StudentOutputs:
    prediction: Tensor  # (N×)K×H×W logits at input resolution
    f1: Tensor
    f2: Tensor
    fl: Tensor


# A parameter table maps each name to (shape, init), where init is "zeros",
# "ones" or a fan-in for uniform(±1/sqrt(fan_in)). Shapes come from the
# config alone, so a checkpoint can be checked against them before any
# array is allocated.

def init_params(specs: dict, rng) -> StudentParams:
    """Tracked tensors for a parameter table; uniform entries draw from rng in table order."""
    params = {}
    for name, (shape, init) in specs.items():
        if init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        else:
            s = 1.0 / np.sqrt(init)
            data = rng.uniform(-s, s, shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


def cnn_param_specs(cfg: ArchConfig) -> dict:
    c1, c2, c3 = cfg.cnn_channels
    k = cfg.num_classes
    return {
        "conv1_w": ((c1, 3, 4, 4), 3 * 16),
        "conv1_b": ((c1,), "zeros"),
        "conv2_w": ((c2, c1, 4, 4), c1 * 16),
        "conv2_b": ((c2,), "zeros"),
        "conv3_w": ((c3, c2, 3, 3), c2 * 9),
        "conv3_b": ((c3,), "zeros"),
        "head_w": ((k, c3, 1, 1), c3),
        "head_b": ((k,), "zeros"),
    }


def vit_param_specs(cfg: ArchConfig) -> dict:
    d1, d2, d3 = cfg.vit_dims
    p = cfg.patch_size
    specs = {"patch_w": ((d1, 3, p, p), 3 * p * p), "patch_b": ((d1,), "zeros")}
    for stage, d in ((1, d1), (2, d2), (3, d3)):
        hidden = cfg.ffn_ratio * d
        stage_specs = {
            "ln1_g": ((d,), "ones"),
            "ln1_b": ((d,), "zeros"),
            "wq": ((d, d), d),
            "wk": ((d, d), d),
            "wv": ((d, d), d),
            "ln2_g": ((d,), "ones"),
            "ln2_b": ((d,), "zeros"),
            "ffn_w1": ((d, hidden), d),
            "ffn_b1": ((hidden,), "zeros"),
            "ffn_w2": ((hidden, d), hidden),
            "ffn_b2": ((d,), "zeros"),
        }
        specs.update((f"s{stage}_{name}", spec) for name, spec in stage_specs.items())
    specs["down2_w"] = ((d2, d1, 2, 2), d1 * 4)
    specs["down2_b"] = ((d2,), "zeros")
    specs["down3_w"] = ((d3, d2, 2, 2), d2 * 4)
    specs["down3_b"] = ((d3,), "zeros")
    specs["head_w"] = ((cfg.num_classes, d3, 1, 1), d3)
    specs["head_b"] = ((cfg.num_classes,), "zeros")
    return specs


def init_cnn_params(cfg: ArchConfig, rng) -> StudentParams:
    return init_params(cnn_param_specs(cfg), rng)


def init_vit_params(cfg: ArchConfig, rng) -> StudentParams:
    return init_params(vit_param_specs(cfg), rng)


def detach_params(params: StudentParams) -> StudentParams:
    """Same values, no gradient flow: for borrowing a block as a frozen teacher."""
    return {k: v.detach() for k, v in params.items()}


def _chan_bias(b: Tensor) -> Tensor:
    return b.reshape((b.shape[0], 1, 1))


# token <-> feature-map conversion: row-major spatial flatten, channels
# last; leading batch axes are kept
def feature_to_tokens(f: Tensor) -> Tensor:
    *lead, c, h, w = f.shape
    nl = len(lead)
    return f.transpose(*range(nl), nl + 1, nl + 2, nl).reshape(*lead, h * w, c)


def tokens_to_feature(t: Tensor, hw) -> Tensor:
    h, w = hw
    *lead, _, c = t.shape
    nl = len(lead)
    return t.reshape(*lead, h, w, c).transpose(*range(nl), nl + 2, nl, nl + 1)


def attention_mix(tokens: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, num_heads: int) -> Tensor:
    """softmax(Q Kᵀ / sqrt(d)) V per head, heads concatenated.

    d is the per-head key dimension. No output projection: the mixing step
    is exactly the scaled-dot-product form, three projections and one
    ``attention`` node, which splits the heads and scales Q itself.
    """
    return attention(matmul(tokens, wq), matmul(tokens, wk), matmul(tokens, wv), num_heads)


def attn_block(tokens: Tensor, params: StudentParams, stage: int, cfg: ArchConfig) -> Tensor:
    """Pre-norm attention block: mix + residual, then gelu FFN + residual."""
    p = f"s{stage}_"
    normed = layer_norm(tokens, params[p + "ln1_g"], params[p + "ln1_b"])
    tokens = tokens + attention_mix(normed, params[p + "wq"], params[p + "wk"], params[p + "wv"], cfg.num_heads)
    normed = layer_norm(tokens, params[p + "ln2_g"], params[p + "ln2_b"])
    hidden = gelu(matmul(normed, params[p + "ffn_w1"]) + params[p + "ffn_b1"])
    return tokens + (matmul(hidden, params[p + "ffn_w2"]) + params[p + "ffn_b2"])


def _attn_stage(fmap: Tensor, params: StudentParams, stage: int, cfg: ArchConfig) -> Tensor:
    return tokens_to_feature(attn_block(feature_to_tokens(fmap), params, stage, cfg), fmap.shape[-2:])


def mlp_block(f: Tensor, params: StudentParams) -> Tensor:
    """The CNN's second layer, callable on any conforming feature map."""
    return relu(conv2d(f, params["conv2_w"], stride=2, padding=1) + _chan_bias(params["conv2_b"]))


def vit_second_stage(f: Tensor, params: StudentParams, cfg: ArchConfig) -> Tensor:
    """The ViT's second stage (downsample + attention), callable on any f1-shaped map."""
    merged = conv2d(f, params["down2_w"], stride=2) + _chan_bias(params["down2_b"])
    return _attn_stage(merged, params, 2, cfg)


def _check_input(x: Tensor, cfg: ArchConfig):
    if x.ndim not in (3, 4) or x.shape[-3:] != (3, *cfg.input_hw):
        raise ShapeError(f"expected input (N×)3×{cfg.input_hw[0]}×{cfg.input_hw[1]}, got {tuple(x.shape)}")


def cnn_forward(x: Tensor, params: StudentParams, cfg: ArchConfig) -> StudentOutputs:
    _check_input(x, cfg)
    f1 = relu(conv2d(x, params["conv1_w"], stride=2, padding=1) + _chan_bias(params["conv1_b"]))
    f2 = mlp_block(f1, params)
    fl = relu(conv2d(f2, params["conv3_w"], stride=1, padding=1) + _chan_bias(params["conv3_b"]))
    logits = conv2d(fl, params["head_w"]) + _chan_bias(params["head_b"])
    return StudentOutputs(prediction=bilinear_upsample(logits, cfg.input_hw), f1=f1, f2=f2, fl=fl)


def vit_forward(x: Tensor, params: StudentParams, cfg: ArchConfig) -> StudentOutputs:
    _check_input(x, cfg)
    embedded = conv2d(x, params["patch_w"], stride=cfg.patch_size) + _chan_bias(params["patch_b"])
    f1 = _attn_stage(embedded, params, 1, cfg)
    f2 = vit_second_stage(f1, params, cfg)
    merged = conv2d(f2, params["down3_w"], stride=2) + _chan_bias(params["down3_b"])
    fl = _attn_stage(merged, params, 3, cfg)
    # the 1×1 head runs on the last-stage grid before the upsample, as in the CNN
    logits = conv2d(fl, params["head_w"]) + _chan_bias(params["head_b"])
    return StudentOutputs(prediction=bilinear_upsample(logits, cfg.input_hw), f1=f1, f2=f2, fl=fl)
