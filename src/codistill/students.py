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
    bilinear_upsample,
    conv2d,
    gelu,
    layer_norm,
    matmul,
    relu,
    softmax,
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
        if h % 4 or w % 4:
            raise ConfigError(f"input {h}x{w} must be divisible by 4 (CNN stride plan)")
        if p != 2:
            # both first features must share a spatial grid (stride 2); the
            # shape adapters pool and never upsample
            raise ConfigError(f"patch size must be 2, got {p}")
        if h % p or w % p:
            raise ConfigError(f"input {h}x{w} not divisible by patch size {p}")
        if (h // p) % 4 or (w // p) % 4:
            raise ConfigError(f"token grid {h // p}x{w // p} must be divisible by 4 (ViT stride plan)")
        for d in self.vit_dims:
            if d % self.num_heads:
                raise ConfigError(f"dim {d} not divisible by {self.num_heads} heads")
        if min(self.vit_dims) // self.num_heads < 1:
            raise ConfigError("per-head key dimension must be >= 1")
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


def _uniform(rng, shape, fan_in):
    s = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-s, s, shape), requires_grad=True)


def _zeros(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(shape):
    return Tensor(np.ones(shape), requires_grad=True)


def init_cnn_params(cfg: ArchConfig, rng) -> StudentParams:
    c1, c2, c3 = cfg.cnn_channels
    k = cfg.num_classes
    return {
        "conv1_w": _uniform(rng, (c1, 3, 4, 4), 3 * 16),
        "conv1_b": _zeros(c1),
        "conv2_w": _uniform(rng, (c2, c1, 4, 4), c1 * 16),
        "conv2_b": _zeros(c2),
        "conv3_w": _uniform(rng, (c3, c2, 3, 3), c2 * 9),
        "conv3_b": _zeros(c3),
        "head_w": _uniform(rng, (k, c3, 1, 1), c3),
        "head_b": _zeros(k),
    }


def _attn_stage_params(rng, d, ffn_ratio):
    hidden = ffn_ratio * d
    return {
        "ln1_g": _ones(d),
        "ln1_b": _zeros(d),
        "wq": _uniform(rng, (d, d), d),
        "wk": _uniform(rng, (d, d), d),
        "wv": _uniform(rng, (d, d), d),
        "ln2_g": _ones(d),
        "ln2_b": _zeros(d),
        "ffn_w1": _uniform(rng, (d, hidden), d),
        "ffn_b1": _zeros(hidden),
        "ffn_w2": _uniform(rng, (hidden, d), hidden),
        "ffn_b2": _zeros(d),
    }


def init_vit_params(cfg: ArchConfig, rng) -> StudentParams:
    d1, d2, d3 = cfg.vit_dims
    p = cfg.patch_size
    params = {
        "patch_w": _uniform(rng, (d1, 3, p, p), 3 * p * p),
        "patch_b": _zeros(d1),
    }
    for stage, d in ((1, d1), (2, d2), (3, d3)):
        for name, t in _attn_stage_params(rng, d, cfg.ffn_ratio).items():
            params[f"s{stage}_{name}"] = t
    params["down2_w"] = _uniform(rng, (d2, d1, 2, 2), d1 * 4)
    params["down2_b"] = _zeros(d2)
    params["down3_w"] = _uniform(rng, (d3, d2, 2, 2), d2 * 4)
    params["down3_b"] = _zeros(d3)
    params["head_w"] = _uniform(rng, (cfg.num_classes, d3, 1, 1), d3)
    params["head_b"] = _zeros(cfg.num_classes)
    return params


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
    is exactly the scaled-dot-product form. All heads (and any leading
    batch axes) run as one batched matmul; Q is scaled before the product.
    """
    *lead, n, dim = tokens.shape
    if dim % num_heads:
        raise ConfigError(f"token dim {dim} not divisible by {num_heads} heads")
    dh = dim // num_heads
    nl = len(lead)
    split = (*range(nl), nl + 1, nl, nl + 2)  # (..., T, heads, dh) <-> (..., heads, T, dh)

    def heads(t):
        return t.reshape(*lead, n, num_heads, dh).transpose(split)

    q = heads(matmul(tokens, wq) * (1.0 / np.sqrt(dh)))
    k = heads(matmul(tokens, wk)).transpose(*range(nl + 1), nl + 2, nl + 1)
    v = heads(matmul(tokens, wv))
    mixed = matmul(softmax(matmul(q, k), axis=-1), v)
    return mixed.transpose(split).reshape(*lead, n, dim)


def attn_block(tokens: Tensor, params: StudentParams, stage: int, cfg: ArchConfig) -> Tensor:
    """Pre-norm attention block: mix + residual, then gelu FFN + residual."""
    p = f"s{stage}_"
    normed = layer_norm(tokens, params[p + "ln1_g"], params[p + "ln1_b"], axis=-1)
    tokens = tokens + attention_mix(normed, params[p + "wq"], params[p + "wk"], params[p + "wv"], cfg.num_heads)
    normed = layer_norm(tokens, params[p + "ln2_g"], params[p + "ln2_b"], axis=-1)
    hidden = gelu(matmul(normed, params[p + "ffn_w1"]) + params[p + "ffn_b1"])
    return tokens + (matmul(hidden, params[p + "ffn_w2"]) + params[p + "ffn_b2"])


def _attn_stage(fmap: Tensor, params: StudentParams, stage: int, cfg: ArchConfig) -> Tensor:
    return tokens_to_feature(attn_block(feature_to_tokens(fmap), params, stage, cfg), fmap.shape[-2:])


def mlp_block(f: Tensor, params: StudentParams) -> Tensor:
    """The CNN's second layer, callable on any conforming feature map."""
    w = params["conv2_w"]
    if f.ndim not in (3, 4) or f.shape[-3] != w.shape[1]:
        raise ShapeError(f"second-layer input needs {w.shape[1]} channels, got {tuple(f.shape)}")
    return relu(conv2d(f, w, stride=2, padding=1) + _chan_bias(params["conv2_b"]))


def vit_second_stage(f: Tensor, params: StudentParams, cfg: ArchConfig) -> Tensor:
    """The ViT's second stage (downsample + attention), callable on any f1-shaped map."""
    w = params["down2_w"]
    if f.ndim not in (3, 4) or f.shape[-3] != w.shape[1]:
        raise ShapeError(f"second-stage input needs {w.shape[1]} channels, got {tuple(f.shape)}")
    merged = conv2d(f, w, stride=2) + _chan_bias(params["down2_b"])
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
    upsampled = bilinear_upsample(fl, cfg.input_hw)
    logits = conv2d(upsampled, params["head_w"]) + _chan_bias(params["head_b"])
    return StudentOutputs(prediction=logits, f1=f1, f2=f2, fl=fl)
