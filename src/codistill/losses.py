"""Loss primitives: pixel-wise cross-entropy, cosine distance, per-pixel KL.

All three return graph-connected tensors. pixel_ce additionally returns the
per-pixel CE values as a plain array, 0 on ignored pixels, which is what the
selective-transfer masks are built from; mask construction is deliberately
gradient-free.

Class scores live on axis -3 of (N×)K×H×W maps. CE and KL take
log-probabilities (``log_softmax`` over that axis), so a caller that needs
both computes them once per prediction. Batch terms are normalised per
image, then averaged over the leading batch axis.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .tensor import ShapeError, Tensor, exp, l2_norm

IGNORE_LABEL = 255
COSINE_EPS = 1e-8


def check_labels(labels: np.ndarray, num_classes: int) -> None:
    """Every label is a class in [0, num_classes) or the ignore label; the
    first that is neither raises DataError."""
    bad = labels[(labels != IGNORE_LABEL) & ((labels < 0) | (labels >= num_classes))]
    if bad.size:
        raise DataError(f"label {bad[0]} outside [0, {num_classes}) and not the ignore label {IGNORE_LABEL}")


def pixel_ce(log_probs: Tensor, labels: np.ndarray):
    """Mean cross-entropy of (N×)K×H×W log-probabilities against (N×)H×W labels.

    Returns (scalar tensor, (N×)H×W array). The scalar averages each image
    over its non-ignore pixels (0 when every pixel is ignored), then over
    the batch; the array holds the per-pixel values, 0 on ignored pixels,
    for region votes and direction masks.
    """
    if log_probs.ndim not in (3, 4):
        raise ShapeError(f"pixel_ce expects (N×)K×H×W log-probabilities, got {tuple(log_probs.shape)}")
    k = log_probs.shape[-3]
    labels = np.asarray(labels)
    if labels.shape != log_probs.shape[:-3] + log_probs.shape[-2:]:
        raise ShapeError(f"labels {labels.shape} do not match log-probabilities {tuple(log_probs.shape)}")
    check_labels(labels, k)
    valid = labels != IGNORE_LABEL
    classes = np.arange(k).reshape(k, 1, 1)
    onehot = ((labels[..., None, :, :] == classes) & valid[..., None, :, :]).astype(np.float64)
    ce_map = -(log_probs * onehot).sum(axis=-3)
    n = valid.sum(axis=(-2, -1))
    scalar = (ce_map.sum(axis=(-2, -1)) / np.maximum(n, 1)).mean()
    return scalar, ce_map.data


def cosine_distance(a: Tensor, b: Tensor) -> Tensor:
    """Per-location 1 - cos(a, b) over the channel axis -3; range [0, 2].

    The epsilon in the denominator guards zero vectors: a zero-vector pair
    yields distance 1 (dot and similarity both vanish).
    """
    if a.shape != b.shape:
        raise ShapeError(f"cosine_distance shapes differ: {tuple(a.shape)} vs {tuple(b.shape)}")
    dot = (a * b).sum(axis=-3)
    denom = l2_norm(a, axis=-3) * l2_norm(b, axis=-3) + COSINE_EPS
    return 1.0 - dot / denom


def kl_map(lp: Tensor, lq: Tensor) -> Tensor:
    """Per-pixel KL(p||q) over the class axis -3, from log-probabilities lp and lq."""
    return (exp(lp) * (lp - lq)).sum(axis=-3)
