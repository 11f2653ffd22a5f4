"""Bidirectional selective distillation (the bsd loss terms).

Knowledge moves per region and per pixel from whichever student currently
predicts that unit better, judged by cross-entropy against ground truth:

  * region grain: prediction-map blocks correspond one-to-one to locations
    of the adapted last-stage features; block CE sums vote the direction,
    and a cosine penalty pulls the losing student's feature vector toward
    the winner's (which is detached).
  * pixel grain: per-pixel CE votes the direction and a per-pixel KL term
    pulls the losing student's class distribution toward the winner's.

Masks are rebuilt from the current predictions at every step and carry no
gradient. Direction value 1 means the CNN is strictly more reliable there
(ties go to the ViT side, keeping the rule total). Units whose direction
set is empty contribute a loss of exactly 0 rather than a 0/0.

Every map may carry a leading batch axis. Counts are then per image, and
each masked mean is taken per image and averaged over the batch; an image
whose direction set is empty contributes exactly 0 to that average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .losses import PixelCEMap, cosine_distance, kl_map
from .recordio import write_archive
from .tensor import ShapeError, Tensor


@dataclass(frozen=True)
class DirectionMask:
    """Binary direction matrix: 1 where the CNN is the teacher for that unit.

    `valid` marks units that vote at all (ignored pixels are invalid and
    excluded from both directions and both counts).
    """

    values: np.ndarray  # (N×)rows×cols of {0.0, 1.0}
    valid: np.ndarray  # bool, same shape

    @property
    def count(self) -> np.ndarray:
        """Units where the CNN teaches, per image: (N,) or a scalar."""
        return (self.values == 1.0).sum(axis=(-2, -1))

    @property
    def toward_vit(self) -> np.ndarray:
        """Weight 1 on the valid units where the ViT teaches, else 0."""
        return np.where(self.valid, 1.0 - self.values, 0.0)


def _mask_from_votes(ce_cnn, ce_vit, valid_cnn=True, valid_vit=True) -> DirectionMask:
    """Direction mask from two CE vote maps; a unit votes where both validity
    masks hold (every unit by default)."""
    if ce_cnn.shape != ce_vit.shape:
        raise ShapeError(f"CE votes differ in shape: {ce_cnn.shape} vs {ce_vit.shape}")
    valid = np.ones(ce_cnn.shape, dtype=bool) & valid_cnn & valid_vit
    return DirectionMask(values=np.where(valid & (ce_cnn < ce_vit), 1.0, 0.0), valid=valid)


def region_ce(ce_map: PixelCEMap, region_hw) -> np.ndarray:
    """Sums of per-pixel CE over a rows×cols grid of equal blocks (ignored
    pixels contribute 0)."""
    *lead, h, w = ce_map.values.shape
    rows, cols = region_hw
    if rows < 1 or cols < 1 or h % rows or w % cols:
        raise ConfigError(f"region grid {rows}x{cols} does not divide map {h}x{w}")
    return ce_map.values.reshape(*lead, rows, h // rows, cols, w // cols).sum(axis=(-3, -1))


def build_region_mask(ce_cnn: np.ndarray, ce_vit: np.ndarray) -> DirectionMask:
    return _mask_from_votes(ce_cnn, ce_vit)


def build_pixel_mask(map_cnn: PixelCEMap, map_vit: PixelCEMap) -> DirectionMask:
    return _mask_from_votes(map_cnn.values, map_vit.values, map_cnn.valid, map_vit.valid)


def _masked_mean(term: Tensor, weights: np.ndarray) -> Tensor:
    """Per-image mean of term over the units of weight 1, averaged over the batch."""
    count = weights.sum(axis=(-2, -1))
    if not np.any(count):
        return Tensor(0.0)
    return ((term * weights).sum(axis=(-2, -1)) / np.maximum(count, 1)).mean()


def _selective_pair(distance, cnn: Tensor, vit: Tensor, mask: DirectionMask):
    """(loss for the CNN, loss for the ViT): each student is pulled toward the
    other, detached, on the units where the other one teaches."""
    if cnn.shape != vit.shape or mask.values.shape != cnn.shape[:-3] + cnn.shape[-2:]:
        raise ShapeError(f"maps {tuple(cnn.shape)} and {tuple(vit.shape)} do not match mask {mask.values.shape}")
    loss_c = _masked_mean(distance(cnn, vit.detach()), mask.toward_vit)
    loss_v = _masked_mean(distance(vit, cnn.detach()), mask.values)
    return loss_c, loss_v


def region_loss(fl_cnn: Tensor, fl_vit: Tensor, mask: DirectionMask):
    """(loss for the CNN, loss for the ViT) from one-sided cosine distances
    of the adapted last-stage features."""
    return _selective_pair(cosine_distance, fl_cnn, fl_vit, mask)


def pixel_loss(logp_cnn: Tensor, logp_vit: Tensor, mask: DirectionMask):
    """(loss for the CNN, loss for the ViT) from one-sided per-pixel KL terms
    on the two students' class log-probabilities."""
    return _selective_pair(kl_map, logp_cnn, logp_vit, mask)


def bsd_loss(region_pair, pixel_pair, alpha: float):
    """Combine the region and pixel terms per student with weight alpha."""
    lr_c, lr_v = region_pair
    lp_c, lp_v = pixel_pair
    return lr_c + alpha * lp_c, lr_v + alpha * lp_v


def dump_selection_state(path, similarity, region_mask: DirectionMask, map_cnn: PixelCEMap, map_vit: PixelCEMap, pixel_mask: DirectionMask) -> None:
    """Serialize one batch's selection state for offline inspection."""
    sim = similarity.data if isinstance(similarity, Tensor) else np.asarray(similarity)
    write_archive(
        path,
        [
            ("similarity", sim),
            ("region_mask/values", region_mask.values),
            ("region_mask/count", np.array(region_mask.count, dtype=float, ndmin=1)),
            ("pixel_ce/cnn", map_cnn.values),
            ("pixel_ce/vit", map_vit.values),
            ("pixel_ce/valid", map_cnn.valid.astype(np.float64)),
            ("pixel_mask/values", pixel_mask.values),
            ("pixel_mask/valid", pixel_mask.valid.astype(np.float64)),
            ("pixel_mask/count", np.array(pixel_mask.count, dtype=float, ndmin=1)),
        ],
    )
