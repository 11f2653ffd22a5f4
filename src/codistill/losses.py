"""Loss primitives: pixel-wise cross-entropy, cosine distance, per-pixel KL.

All three return graph-connected tensors. pixel_ce additionally returns a
plain-array per-pixel CE map, which is what the selective-transfer masks
are built from; mask construction is deliberately gradient-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .tensor import Tensor, log_softmax, l2_norm, softmax

IGNORE_LABEL = 255
COSINE_EPS = 1e-8


@dataclass(frozen=True)
class PixelCEMap:
    """Per-pixel cross-entropy values with their validity mask.

    Ignored pixels carry value 0 and valid=False; they are excluded from
    averages and from every reliability vote downstream.
    """

    values: np.ndarray  # H×W float64
    valid: np.ndarray  # H×W bool


def pixel_ce(logits: Tensor, labels: np.ndarray):
    """Mean cross-entropy of K×H×W logits against H×W integer labels.

    Returns (scalar tensor, PixelCEMap). The scalar averages over
    non-ignore pixels (0 when every pixel is ignored); the map carries the
    raw per-pixel values for region votes and direction masks.
    """
    if logits.ndim != 3:
        raise DataError(f"pixel_ce expects K×H×W logits, got {tuple(logits.shape)}")
    k = logits.shape[0]
    labels = np.asarray(labels)
    if labels.shape != logits.shape[1:]:
        raise DataError(f"labels {labels.shape} do not match logits {tuple(logits.shape)}")
    valid = labels != IGNORE_LABEL
    bad = valid & ((labels < 0) | (labels >= k))
    if bad.any():
        offender = int(labels[bad].flat[0])
        raise DataError(f"label {offender} out of range for {k} classes")
    safe = np.where(valid, labels, 0).astype(int)
    h, w = labels.shape
    onehot = np.zeros((k, h, w))
    rows, cols = np.nonzero(valid)
    onehot[safe[rows, cols], rows, cols] = 1.0
    ce_map = -(log_softmax(logits, axis=0) * onehot).sum(axis=0)
    n = int(valid.sum())
    scalar = ce_map.sum() / max(n, 1)
    return scalar, PixelCEMap(values=ce_map.data.copy(), valid=valid)


def cosine_distance(a: Tensor, b: Tensor, axis: int = 0) -> Tensor:
    """Per-location 1 - cos(a, b) over vectors along `axis`; range [0, 2].

    The epsilon in the denominator guards zero vectors: a zero-vector pair
    yields distance 1 (dot and similarity both vanish).
    """
    if a.shape != b.shape:
        raise DataError(f"cosine_distance shapes differ: {tuple(a.shape)} vs {tuple(b.shape)}")
    dot = (a * b).sum(axis=axis)
    denom = l2_norm(a, axis=axis) * l2_norm(b, axis=axis) + COSINE_EPS
    return 1.0 - dot / denom


def mean_cosine_distance(a: Tensor, b: Tensor, axis: int = 0) -> Tensor:
    return cosine_distance(a, b, axis=axis).mean()


def kl_map(p_logits: Tensor, q_logits: Tensor) -> Tensor:
    """Per-pixel KL(softmax(p)||softmax(q)) over the class axis of K×H×W logits."""
    lp = log_softmax(p_logits, axis=0)
    lq = log_softmax(q_logits, axis=0)
    return (softmax(p_logits, axis=0) * (lp - lq)).sum(axis=0)
