import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codistill.data import (
    SynthSpec,
    generate_dataset,
    load_dataset,
    miou_from_confusion,
    predict_labels,
    save_dataset,
    update_confusion,
)
from codistill.errors import ConfigError, DataError
from codistill.losses import IGNORE_LABEL
from codistill.recordio import write_archive
from codistill.tensor import Tensor


def bf_miou(pred, gt, k):
    """Set-intersection reference for mIoU."""
    ious = []
    for c in range(k):
        p = set(zip(*np.nonzero((pred == c) & (gt != IGNORE_LABEL))))
        g = set(zip(*np.nonzero(gt == c)))
        if not p and not g:
            continue
        ious.append(len(p & g) / len(p | g))
    return float(np.mean(ious))


class TestGeneration:
    def test_single_rectangle_two_values(self):
        spec = SynthSpec(size=16, classes=2, min_shapes=1, max_shapes=1, noise=0.0, seed=3)
        for image, labels in generate_dataset(spec, 8):
            assert set(np.unique(labels)) <= {0, 1}
            assert 1 in np.unique(labels)  # the shape is painted
            assert image.shape == (3, 16, 16)

    def test_seed_determinism_bytes(self):
        spec = SynthSpec(seed=7)
        a = generate_dataset(spec, 5)
        b = generate_dataset(spec, 5)
        for (ia, la), (ib, lb) in zip(a, b):
            assert ia.tobytes() == ib.tobytes()
            assert la.tobytes() == lb.tobytes()

    def test_every_class_appears_over_100_images(self):
        spec = SynthSpec(classes=4, min_shapes=2, max_shapes=4, seed=0)
        counts = np.zeros(4, dtype=int)
        for _, labels in generate_dataset(spec, 100):
            for c in range(4):
                counts[c] += int((labels == c).sum())
        assert np.all(counts[1:] > 0)

    def test_bad_spec_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(classes=1)
        with pytest.raises(ConfigError):
            SynthSpec(min_shapes=3, max_shapes=1)
        with pytest.raises(ConfigError):
            generate_dataset(SynthSpec(), 0)
        for noise in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="noise must be finite"):
                SynthSpec(noise=noise)

    def test_class_count_bounded_by_ignore_label(self):
        """Labels are uint8 and 255 is the ignore label, so 255 classes is the most a set can hold."""
        with pytest.raises(ConfigError, match="classes"):
            SynthSpec(classes=IGNORE_LABEL + 1)
        spec = SynthSpec(size=8, classes=IGNORE_LABEL, min_shapes=4, max_shapes=4, seed=2)
        for _, labels in generate_dataset(spec, 20):
            assert labels.dtype == np.uint8 and labels.max() < IGNORE_LABEL


class TestRecords:
    def test_roundtrip_byte_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        image = rng.random((3, 8, 8))
        labels = rng.integers(0, 4, (8, 8)).astype(np.uint8)
        labels[0, 0] = IGNORE_LABEL
        path = tmp_path / "set.bin"
        save_dataset(path, [(image, labels)])
        ((image2, labels2),) = load_dataset(path)
        assert (image2.dtype, labels2.dtype) == (np.float64, np.uint8)
        assert image.tobytes() == image2.tobytes()
        assert labels.tobytes() == labels2.tobytes()

    def test_dataset_directory_roundtrip(self, tmp_path):
        samples = generate_dataset(SynthSpec(size=8, seed=2), 4)
        path = tmp_path / "d" / "set.bin"  # the missing parent directory is created
        save_dataset(path, samples)
        back = load_dataset(path)
        assert len(back) == 4
        for (ia, la), (ib, lb) in zip(samples, back):
            assert ia.tobytes() == ib.tobytes()
            assert la.tobytes() == lb.tobytes()

    def test_empty_directory_rejected(self, tmp_path):
        for path in (tmp_path / "missing", tmp_path):
            with pytest.raises(DataError, match="cannot read"):
                load_dataset(path)

    def test_save_peak_bytes(self, tmp_path):
        # traced numpy bytes of the reference set (64 × 32×32): the stacked
        # records take 2.07 MiB; copying each with tobytes() before writing
        # peaked at 3.57 MiB
        samples = generate_dataset(SynthSpec(), 64)
        tracemalloc.start()
        try:
            save_dataset(tmp_path / "set.bin", samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "set.bin"
        save_dataset(path, generate_dataset(SynthSpec(size=8), 2))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(DataError, match="truncated"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "records, match",
        [
            ([("images", np.zeros((2, 3, 8, 8)))], "expected records"),
            ([("images", np.zeros((2, 3, 8, 8))), ("labels", np.zeros((2, 8, 8))), ("extra", np.zeros(1))], "expected records"),
            ([("images", np.zeros((0, 3, 8, 8))), ("labels", np.zeros((0, 8, 8)))], "N >= 1"),
            ([("images", np.zeros((2, 1, 8, 8))), ("labels", np.zeros((2, 8, 8)))], "N×3×H×W"),
            ([("images", np.zeros((2, 3, 8, 8))), ("labels", np.zeros((2, 8, 7)))], "N×3×H×W"),
            ([("images", np.zeros((2, 3, 8, 8))), ("labels", np.full((2, 8, 8), 2.5))], "integers"),
            ([("images", np.zeros((2, 3, 8, 8))), ("labels", np.full((2, 8, 8), 256.0))], "integers"),
            ([("images", np.zeros((2, 3, 8, 8))), ("labels", np.full((2, 8, 8), -1.0))], "integers"),
            ([("images", np.zeros((2, 3, 8, 8))), ("labels", np.full((2, 8, 8), np.nan))], "integers"),
            ([("images", np.where(np.arange(384).reshape(2, 3, 8, 8) == 100, np.nan, 0.5)), ("labels", np.zeros((2, 8, 8)))], "non-finite"),
            ([("images", np.where(np.arange(384).reshape(2, 3, 8, 8) == 100, np.inf, 0.5)), ("labels", np.zeros((2, 8, 8)))], "non-finite"),
        ],
        ids=["images_only", "extra_record", "no_samples", "one_channel", "label_shape", "label_2.5", "label_256", "label_neg", "label_nan", "image_nan", "image_inf"],
    )
    def test_malformed_dataset_rejected(self, tmp_path, records, match):
        path = tmp_path / "set.bin"
        write_archive(path, records)
        with pytest.raises(DataError, match=match):
            load_dataset(path)


class TestMiou:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(3)
        gt = rng.integers(0, 3, (8, 8))
        cm = update_confusion(np.zeros((3, 3), np.int64), gt, gt)
        assert miou_from_confusion(cm) == 1.0

    def test_complement_on_binary_map(self):
        gt = np.zeros((4, 4), dtype=int)
        gt[:2] = 1
        cm = update_confusion(np.zeros((2, 2), np.int64), 1 - gt, gt)
        assert miou_from_confusion(cm) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_set_intersection_oracle(self, seed):
        rng = np.random.default_rng(seed)
        gt = rng.integers(0, 3, (8, 8))
        pred = rng.integers(0, 3, (8, 8))
        gt[rng.random((8, 8)) < 0.1] = IGNORE_LABEL
        cm = update_confusion(np.zeros((3, 3), np.int64), pred, gt)
        np.testing.assert_allclose(miou_from_confusion(cm), bf_miou(pred, gt, 3), rtol=1e-12)

    def test_all_ignore_is_undefined(self):
        cm = update_confusion(np.zeros((3, 3), np.int64), np.zeros((4, 4), dtype=int), np.full((4, 4), IGNORE_LABEL))
        with pytest.raises(DataError, match="undefined"):
            miou_from_confusion(cm)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        gt = rng.integers(0, 4, (6, 6))
        pred = rng.integers(0, 4, (6, 6))
        perm = rng.permutation(4)
        base = miou_from_confusion(update_confusion(np.zeros((4, 4), np.int64), pred, gt))
        relabeled = miou_from_confusion(update_confusion(np.zeros((4, 4), np.int64), perm[pred], perm[gt]))
        np.testing.assert_allclose(base, relabeled, rtol=1e-12)

    def test_accumulation_is_order_independent(self):
        rng = np.random.default_rng(4)
        batches = [(rng.integers(0, 3, (4, 4)), rng.integers(0, 3, (4, 4))) for _ in range(5)]
        fwd = np.zeros((3, 3), np.int64)
        rev = np.zeros((3, 3), np.int64)
        for pred, gt in batches:
            update_confusion(fwd, pred, gt)
        for pred, gt in reversed(batches):
            update_confusion(rev, pred, gt)
        np.testing.assert_array_equal(fwd, rev)

    @pytest.mark.parametrize("seed", range(3))
    def test_counts_match_per_pixel_loop(self, seed):
        rng = np.random.default_rng(seed)
        gt = rng.integers(0, 4, (3, 9, 7))
        pred = rng.integers(0, 4, (3, 9, 7))
        gt[rng.random(gt.shape) < 0.2] = IGNORE_LABEL
        want = np.full((4, 4), 5, np.int64)  # counts add onto what cm holds
        for g, p in zip(gt.ravel().tolist(), pred.ravel().tolist()):
            if g != IGNORE_LABEL:
                want[g, p] += 1
        got = update_confusion(np.full((4, 4), 5, np.int64), pred, gt)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    def test_out_of_range_label_rejected(self):
        gt = np.full((2, 2), 3)
        with pytest.raises(DataError, match=r"label 3 outside \[0, 3\)"):
            update_confusion(np.zeros((3, 3), np.int64), np.zeros((2, 2), dtype=int), gt)

    def test_predict_labels_argmax(self):
        logits = np.zeros((3, 2, 2))
        logits[1, 0, 0] = 5.0
        logits[2, 1, 1] = 5.0
        np.testing.assert_array_equal(predict_labels(Tensor(logits)), [[1, 0], [0, 2]])
