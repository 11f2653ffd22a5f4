"""Bidirectional selective distillation (the bsd loss terms).

Knowledge moves per region and per pixel from whichever student currently
predicts that unit better, judged by cross-entropy against ground truth:

  * region grain: prediction-map blocks correspond one-to-one to locations
    of the adapted last-stage features; block CE sums vote the direction,
    and a cosine penalty pulls the losing student's feature vector toward
    the winner's (which is detached).
  * pixel grain: per-pixel CE votes the direction and a per-pixel KL term
    pulls the losing student's class distribution toward the winner's.

A direction mask is the pair (cnn_teaches, vit_teaches) of float {0, 1}
weight arrays. They are disjoint and together cover the units that vote:
the CNN teaches where its CE is strictly lower (ties go to the ViT side,
keeping the rule total), and ignored pixels vote for neither. Masks are
rebuilt from the current predictions at every step and carry no gradient.
Units whose direction set is empty contribute a loss of exactly 0 rather
than a 0/0.

Every map may carry a leading batch axis. Counts are then per image, and
each masked mean is taken per image and averaged over the batch; an image
whose direction set is empty contributes exactly 0 to that average.
"""

from __future__ import annotations

import numpy as np

from .losses import IGNORE_LABEL, cosine_distance, kl_map
from .tensor import ShapeError, Tensor


def _mask_from_votes(ce_cnn, ce_vit, valid=True):
    """(cnn_teaches, vit_teaches) from two CE vote maps; a unit votes where
    valid holds (every unit by default)."""
    if ce_cnn.shape != ce_vit.shape or np.shape(valid) not in ((), ce_cnn.shape):
        raise ShapeError(f"CE votes differ in shape: {ce_cnn.shape} vs {ce_vit.shape} (valid {np.shape(valid)})")
    cnn_better = ce_cnn < ce_vit
    return np.where(valid & cnn_better, 1.0, 0.0), np.where(valid & ~cnn_better, 1.0, 0.0)


def region_ce(ce_map: np.ndarray, region_hw) -> np.ndarray:
    """Sums of per-pixel CE over a rows×cols grid of equal blocks (ignored
    pixels contribute 0)."""
    *lead, h, w = ce_map.shape
    rows, cols = region_hw
    if rows < 1 or cols < 1 or h % rows or w % cols:
        raise ShapeError(f"region grid {rows}x{cols} does not divide map {h}x{w}")
    return ce_map.reshape(*lead, rows, h // rows, cols, w // cols).sum(axis=(-3, -1))


def build_region_mask(ce_cnn: np.ndarray, ce_vit: np.ndarray):
    return _mask_from_votes(ce_cnn, ce_vit)


def build_pixel_mask(ce_cnn: np.ndarray, ce_vit: np.ndarray, labels: np.ndarray):
    return _mask_from_votes(ce_cnn, ce_vit, np.asarray(labels) != IGNORE_LABEL)


def _masked_mean(term: Tensor, weights: np.ndarray) -> Tensor:
    """Per-image mean of term over the units of weight 1, averaged over the batch."""
    count = weights.sum(axis=(-2, -1))
    if not np.any(count):
        return Tensor(0.0)
    return ((term * weights).sum(axis=(-2, -1)) / np.maximum(count, 1)).mean()


def _selective_pair(distance, cnn: Tensor, vit: Tensor, mask):
    """(loss for the CNN, loss for the ViT): each student is pulled toward the
    other, detached, on the units where the other one teaches."""
    cnn_teaches, vit_teaches = mask
    if cnn.shape != vit.shape or cnn_teaches.shape != cnn.shape[:-3] + cnn.shape[-2:]:
        raise ShapeError(f"maps {tuple(cnn.shape)} and {tuple(vit.shape)} do not match mask {cnn_teaches.shape}")
    loss_c = _masked_mean(distance(cnn, vit.detach()), vit_teaches)
    loss_v = _masked_mean(distance(vit, cnn.detach()), cnn_teaches)
    return loss_c, loss_v


def region_loss(fl_cnn: Tensor, fl_vit: Tensor, mask):
    """(loss for the CNN, loss for the ViT) from one-sided cosine distances
    of the adapted last-stage features."""
    return _selective_pair(cosine_distance, fl_cnn, fl_vit, mask)


def pixel_loss(logp_cnn: Tensor, logp_vit: Tensor, mask):
    """(loss for the CNN, loss for the ViT) from one-sided per-pixel KL terms
    on the two students' class log-probabilities."""
    return _selective_pair(kl_map, logp_cnn, logp_vit, mask)
