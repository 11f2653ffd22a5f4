"""Synthetic segmentation data, its on-disk form, and mIoU.

Images compose axis-aligned rectangles and disks of class-correlated
colors over a background, plus additive Gaussian noise; labels are the
exact shape masks. A dataset on disk is one recordio archive of two
records, `images` (N×3×H×W) and `labels` (N×H×W, integers 0-255), both
float64 like every archive record.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .losses import IGNORE_LABEL, check_labels
from .recordio import read_archive, write_archive
from .seeding import substream


@dataclass(frozen=True)
class SynthSpec:
    size: int = 32  # images are size×size
    classes: int = 4
    min_shapes: int = 1
    max_shapes: int = 2
    noise: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.size < 8:
            raise ConfigError(f"size must be at least 8, got {self.size}")
        if not 2 <= self.classes <= IGNORE_LABEL:  # labels are uint8 and 255 means ignore
            raise ConfigError(f"classes must be in [2, {IGNORE_LABEL}], got {self.classes}")
        if self.min_shapes < 1 or self.max_shapes < self.min_shapes:
            raise ConfigError(f"bad shape count range [{self.min_shapes}, {self.max_shapes}]")
        if not 0 <= self.noise < np.inf:
            raise ConfigError(f"noise must be finite and non-negative, got {self.noise}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def class_color(c: int, num_classes: int) -> np.ndarray:
    """Distinct, deterministic RGB anchor per class (a hue wheel)."""
    theta = 2.0 * np.pi * c / num_classes
    return 0.5 + 0.45 * np.array([np.cos(theta), np.cos(theta - 2 * np.pi / 3), np.cos(theta + 2 * np.pi / 3)])


def generate_dataset(spec: SynthSpec, n: int):
    """n samples of (3×H×W float64 image, H×W uint8 labels), seed-deterministic."""
    if n < 1:
        raise ConfigError(f"need n >= 1 samples, got {n}")
    rng = substream(spec.seed, "data")
    h = w = spec.size
    yy, xx = np.mgrid[0:h, 0:w]
    samples = []
    for _ in range(n):
        image = np.empty((3, h, w))
        image[:] = class_color(0, spec.classes)[:, None, None]
        labels = np.zeros((h, w), dtype=np.uint8)
        for _ in range(int(rng.integers(spec.min_shapes, spec.max_shapes + 1))):
            cls = int(rng.integers(1, spec.classes))
            color = class_color(cls, spec.classes) + rng.uniform(-0.05, 0.05, 3)
            # shapes span a decent fraction of the image so that even a
            # coarse-grid predictor can localize them
            if rng.random() < 0.5:
                eh = int(rng.integers(max(3, h // 4), max(4, h // 2) + 1))
                ew = int(rng.integers(max(3, w // 4), max(4, w // 2) + 1))
                y0 = int(rng.integers(0, h - eh + 1))
                x0 = int(rng.integers(0, w - ew + 1))
                inside = (yy >= y0) & (yy < y0 + eh) & (xx >= x0) & (xx < x0 + ew)
            else:
                r = int(rng.integers(max(2, min(h, w) // 6), max(3, min(h, w) // 3) + 1))
                cy = int(rng.integers(r, h - r + 1))
                cx = int(rng.integers(r, w - r + 1))
                inside = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
            labels[inside] = cls
            image[:, inside] = color[:, None]
        if spec.noise > 0:
            image += spec.noise * rng.standard_normal(image.shape)
        np.clip(image, 0.0, 1.0, out=image)
        samples.append((image, labels))
    return samples


# on-disk datasets -----------------------------------------------------

def save_dataset(path, samples) -> None:
    """Write samples as one archive of `images` (N×3×H×W) and `labels` (N×H×W).

    Parent directories are created; the write is atomic, so a failure
    leaves any earlier file at `path` untouched.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_archive(path, [("images", np.stack([x for x, _ in samples])), ("labels", np.stack([y for _, y in samples]))])
    except OSError as exc:
        raise DataError(f"cannot write dataset {path}: {exc.strerror or exc}") from exc


def load_dataset(path):
    """The (3×H×W float64 image, H×W uint8 labels) samples of a dataset archive."""
    records = read_archive(path)
    if records.keys() != {"images", "labels"}:
        raise DataError(f"{path}: expected records ['images', 'labels'], got {list(records)}")
    images, labels = records["images"], records["labels"]
    if images.ndim != 4 or len(images) < 1 or images.shape[1] != 3 or labels.shape != (images.shape[0], *images.shape[2:]):
        raise DataError(f"{path}: images {images.shape} and labels {labels.shape} are not N×3×H×W and N×H×W with N >= 1")
    if not np.all((labels >= 0) & (labels <= 255) & (labels == np.floor(labels))):
        raise DataError(f"{path}: labels must be integers in [0, 255]")
    if not np.isfinite(images).all():
        raise DataError(f"{path}: images hold a non-finite value")
    return list(zip(images, labels.astype(np.uint8)))


# evaluation -----------------------------------------------------------

def update_confusion(cm: np.ndarray, pred_labels: np.ndarray, gt_labels: np.ndarray) -> np.ndarray:
    """Add the pixel counts into cm, a K×K int64 array (rows = ground truth,
    cols = prediction), and return it. Predictions are an argmax over the K
    classes, so only the ground truth is checked."""
    k = cm.shape[0]
    check_labels(gt_labels, k)
    valid = gt_labels != IGNORE_LABEL
    gt = gt_labels[valid].astype(int)
    pred = pred_labels[valid].astype(int)
    cm += np.bincount(gt * k + pred, minlength=k * k).reshape(k, k)
    return cm


def miou_from_confusion(cm: np.ndarray) -> float:
    """Mean IoU over classes present in prediction or ground truth."""
    if cm.sum() == 0:
        raise DataError("mIoU undefined: no evaluated pixels (all ignored?)")
    tp = np.diag(cm).astype(float)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    union = tp + fp + fn
    present = union > 0
    return float((tp[present] / union[present]).mean())


def predict_labels(prediction) -> np.ndarray:
    """Argmax class map from a tensor of (N×)K×H×W logits."""
    return prediction.data.argmax(axis=-3)
