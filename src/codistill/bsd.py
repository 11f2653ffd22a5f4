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
class RegionGrid:
    """Partition of an H×W map into rows×cols equal blocks."""

    rows: int
    cols: int
    block_h: int
    block_w: int

    @classmethod
    def for_shapes(cls, map_hw, region_hw) -> "RegionGrid":
        h, w = map_hw
        rows, cols = region_hw
        if rows < 1 or cols < 1 or h % rows or w % cols:
            raise ConfigError(f"region grid {rows}x{cols} does not divide map {h}x{w}")
        return cls(rows=rows, cols=cols, block_h=h // rows, block_w=w // cols)


@dataclass(frozen=True)
class DirectionMask:
    """Binary direction matrix: 1 where the CNN is the teacher for that unit.

    `valid` marks units that vote at all (ignored pixels are invalid and
    excluded from both directions and both counts).
    """

    values: np.ndarray  # (N×)rows×cols of {0.0, 1.0}
    valid: np.ndarray  # bool, same shape
    count: np.ndarray  # ones among valid units, per image: (N,) or a scalar

    @property
    def complement_count(self) -> np.ndarray:
        return (self.valid & (self.values == 0.0)).sum(axis=(-2, -1))


def _mask_from_votes(ce_cnn, ce_vit, valid) -> DirectionMask:
    values = np.where(valid & (ce_cnn < ce_vit), 1.0, 0.0)
    return DirectionMask(values=values, valid=valid, count=(values == 1.0).sum(axis=(-2, -1)))


def region_ce(ce_map: PixelCEMap, grid: RegionGrid) -> np.ndarray:
    """Block sums of per-pixel CE (ignored pixels contribute 0)."""
    *lead, h, w = ce_map.values.shape
    if h != grid.rows * grid.block_h or w != grid.cols * grid.block_w:
        raise ConfigError(f"grid {grid} does not match CE map {h}x{w}")
    return ce_map.values.reshape(*lead, grid.rows, grid.block_h, grid.cols, grid.block_w).sum(axis=(-3, -1))


def build_region_mask(ce_cnn: np.ndarray, ce_vit: np.ndarray) -> DirectionMask:
    if ce_cnn.shape != ce_vit.shape:
        raise ShapeError(f"region CE shapes differ: {ce_cnn.shape} vs {ce_vit.shape}")
    return _mask_from_votes(ce_cnn, ce_vit, np.ones(ce_cnn.shape, dtype=bool))


def build_pixel_mask(map_cnn: PixelCEMap, map_vit: PixelCEMap) -> DirectionMask:
    if map_cnn.values.shape != map_vit.values.shape:
        raise ShapeError(f"pixel CE shapes differ: {map_cnn.values.shape} vs {map_vit.values.shape}")
    return _mask_from_votes(map_cnn.values, map_vit.values, map_cnn.valid & map_vit.valid)


def region_similarity(fl_cnn: Tensor, fl_vit: Tensor) -> Tensor:
    """Per-region cosine distance of the two adapted last-stage features."""
    if fl_cnn.shape != fl_vit.shape:
        raise ShapeError(f"adapted features differ: {tuple(fl_cnn.shape)} vs {tuple(fl_vit.shape)}")
    return cosine_distance(fl_cnn, fl_vit, axis=-3)


def _masked_mean(term: Tensor, weights: np.ndarray, count) -> Tensor:
    """Per-image weighted sum over count, averaged over the batch."""
    if not np.any(count):
        return Tensor(0.0)
    return ((term * weights).sum(axis=(-2, -1)) / np.maximum(count, 1)).mean()


def region_loss(fl_cnn: Tensor, fl_vit: Tensor, mask: DirectionMask):
    """(loss for the CNN, loss for the ViT) from two one-sided similarity graphs.

    The CNN learns on units where the ViT won (mask 0) with the ViT feature
    detached; the ViT learns on units where the CNN won (mask 1) with the
    CNN feature detached.
    """
    if mask.values.shape != fl_cnn.shape[:-3] + fl_cnn.shape[-2:]:
        raise ShapeError(f"mask {mask.values.shape} does not match features {tuple(fl_cnn.shape)}")
    sim_for_cnn = region_similarity(fl_cnn, fl_vit.detach())
    sim_for_vit = region_similarity(fl_cnn.detach(), fl_vit)
    toward_vit = np.where(mask.valid, 1.0 - mask.values, 0.0)
    loss_c = _masked_mean(sim_for_cnn, toward_vit, mask.complement_count)
    loss_v = _masked_mean(sim_for_vit, mask.values, mask.count)
    return loss_c, loss_v


def pixel_loss(logp_cnn: Tensor, logp_vit: Tensor, mask: DirectionMask):
    """(loss for the CNN, loss for the ViT) from one-sided per-pixel KL terms
    on the two students' class log-probabilities."""
    if logp_cnn.shape != logp_vit.shape:
        raise ShapeError(f"prediction shapes differ: {tuple(logp_cnn.shape)} vs {tuple(logp_vit.shape)}")
    if mask.values.shape != logp_cnn.shape[:-3] + logp_cnn.shape[-2:]:
        raise ShapeError(f"mask {mask.values.shape} does not match predictions {tuple(logp_cnn.shape)}")
    toward_vit = np.where(mask.valid, 1.0 - mask.values, 0.0)
    loss_c = _masked_mean(kl_map(logp_cnn, logp_vit.detach()), toward_vit, mask.complement_count)
    loss_v = _masked_mean(kl_map(logp_vit, logp_cnn.detach()), mask.values, mask.count)
    return loss_c, loss_v


def bsd_loss(region_pair, pixel_pair, alpha: float):
    """Combine the region and pixel terms per student with weight alpha."""
    if alpha < 0:
        raise ConfigError(f"alpha must be non-negative, got {alpha}")
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
