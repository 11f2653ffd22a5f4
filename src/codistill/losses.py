"""Loss primitives: pixel-wise cross-entropy, cosine distance, per-pixel KL.

All three return graph-connected tensors. pixel_ce additionally returns a
plain-array per-pixel CE map, which is what the selective-transfer masks
are built from; mask construction is deliberately gradient-free.

Class scores live on axis -3 of (N×)K×H×W maps. CE and KL take
log-probabilities (``log_softmax`` over that axis), so a caller that needs
both computes them once per prediction. Batch terms are normalised per
image, then averaged over the leading batch axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .tensor import Tensor, exp, l2_norm

IGNORE_LABEL = 255
COSINE_EPS = 1e-8


@dataclass(frozen=True)
class PixelCEMap:
    """Per-pixel cross-entropy values with their validity mask.

    Ignored pixels carry value 0 and valid=False; they are excluded from
    averages and from every reliability vote downstream.
    """

    values: np.ndarray  # (N×)H×W float64
    valid: np.ndarray  # (N×)H×W bool


def pixel_ce(log_probs: Tensor, labels: np.ndarray):
    """Mean cross-entropy of (N×)K×H×W log-probabilities against (N×)H×W labels.

    Returns (scalar tensor, PixelCEMap). The scalar averages each image
    over its non-ignore pixels (0 when every pixel is ignored), then over
    the batch; the map carries the raw per-pixel values for region votes
    and direction masks.
    """
    if log_probs.ndim not in (3, 4):
        raise DataError(f"pixel_ce expects (N×)K×H×W log-probabilities, got {tuple(log_probs.shape)}")
    k = log_probs.shape[-3]
    labels = np.asarray(labels)
    if labels.shape != log_probs.shape[:-3] + log_probs.shape[-2:]:
        raise DataError(f"labels {labels.shape} do not match log-probabilities {tuple(log_probs.shape)}")
    valid = labels != IGNORE_LABEL
    bad = valid & ((labels < 0) | (labels >= k))
    if bad.any():
        offender = int(labels[bad].flat[0])
        raise DataError(f"label {offender} out of range for {k} classes")
    classes = np.arange(k).reshape(k, 1, 1)
    onehot = ((labels[..., None, :, :] == classes) & valid[..., None, :, :]).astype(np.float64)
    ce_map = -(log_probs * onehot).sum(axis=-3)
    n = valid.sum(axis=(-2, -1))
    scalar = (ce_map.sum(axis=(-2, -1)) / np.maximum(n, 1)).mean()
    return scalar, PixelCEMap(values=ce_map.data.copy(), valid=valid)


def cosine_distance(a: Tensor, b: Tensor) -> Tensor:
    """Per-location 1 - cos(a, b) over the channel axis -3; range [0, 2].

    The epsilon in the denominator guards zero vectors: a zero-vector pair
    yields distance 1 (dot and similarity both vanish).
    """
    if a.shape != b.shape:
        raise DataError(f"cosine_distance shapes differ: {tuple(a.shape)} vs {tuple(b.shape)}")
    dot = (a * b).sum(axis=-3)
    denom = l2_norm(a, axis=-3) * l2_norm(b, axis=-3) + COSINE_EPS
    return 1.0 - dot / denom


def kl_map(lp: Tensor, lq: Tensor) -> Tensor:
    """Per-pixel KL(p||q) over the class axis -3, from log-probabilities lp and lq."""
    return (exp(lp) * (lp - lq)).sum(axis=-3)
