import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codistill.bsd import (
    build_pixel_mask,
    build_region_mask,
    pixel_loss,
    region_ce,
    region_loss,
)
from codistill.losses import IGNORE_LABEL, cosine_distance, pixel_ce
from codistill.tensor import ShapeError, Tensor, log_softmax, zero_grads

from oracles import bf_cosine_map, bf_direction_mask, bf_masked_means, bf_pixel_losses, bf_region_ce


def ce_map_of(logits, labels):
    return pixel_ce(log_softmax(Tensor(logits), axis=-3), labels)[1]


def random_mask(rng, h, w, valid=True):
    """(cnn_teaches, vit_teaches) with a random direction on each valid unit."""
    cnn_better = rng.integers(0, 2, (h, w)).astype(bool)
    return np.where(valid & cnn_better, 1.0, 0.0), np.where(valid & ~cnn_better, 1.0, 0.0)


def full_mask(shape, teacher):
    """Every unit votes and `teacher` ("cnn" or "vit") teaches on all of them."""
    ones, zeros = np.ones(shape), np.zeros(shape)
    return (ones, zeros) if teacher == "cnn" else (zeros, ones)


class TestRegionGrid:
    def test_divisible(self):
        m = ce_map_of(np.zeros((4, 32, 32)), np.zeros((32, 32), dtype=int))
        assert region_ce(m, (4, 4)).shape == (4, 4)

    def test_indivisible_rejected(self):
        m = ce_map_of(np.zeros((4, 30, 32)), np.zeros((30, 32), dtype=int))
        with pytest.raises(ShapeError, match="does not divide"):
            region_ce(m, (4, 4))


class TestRegionCE:
    def test_uniform_logits(self):
        labels = np.zeros((32, 32), dtype=int)
        m = ce_map_of(np.zeros((4, 32, 32)), labels)
        sums = region_ce(m, (4, 4))
        np.testing.assert_allclose(sums, 64 * math.log(4), rtol=1e-12)

    def test_all_ignore_gives_zeros(self):
        m = ce_map_of(np.zeros((4, 8, 8)), np.full((8, 8), IGNORE_LABEL))
        sums = region_ce(m, (2, 2))
        np.testing.assert_array_equal(sums, np.zeros((2, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, (8, 8))
        labels[rng.random((8, 8)) < 0.1] = IGNORE_LABEL
        m = ce_map_of(rng.standard_normal((3, 8, 8)), labels)
        sums = region_ce(m, (4, 2))
        np.testing.assert_allclose(sums, bf_region_ce(m, 4, 2), rtol=1e-12)


class TestRegionMask:
    def test_ties_go_to_vit(self):
        ce = np.ones((3, 3))
        cnn_teaches, vit_teaches = build_region_mask(ce, ce.copy())
        assert cnn_teaches.sum() == 0
        np.testing.assert_array_equal(cnn_teaches, np.zeros((3, 3)))
        np.testing.assert_array_equal(vit_teaches, np.ones((3, 3)))

    def test_cnn_strictly_better_everywhere(self):
        cnn_teaches, vit_teaches = build_region_mask(np.zeros((3, 4)), np.ones((3, 4)))
        assert cnn_teaches.sum() == 12
        np.testing.assert_array_equal(cnn_teaches, np.ones((3, 4)))
        np.testing.assert_array_equal(vit_teaches, np.zeros((3, 4)))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.random((5, 5)), rng.random((5, 5))
        cnn_teaches, vit_teaches = build_region_mask(a, b)
        exp_cnn, exp_vit = bf_direction_mask(a, b)
        np.testing.assert_array_equal(cnn_teaches, exp_cnn)
        np.testing.assert_array_equal(vit_teaches, exp_vit)
        np.testing.assert_array_equal(cnn_teaches + vit_teaches, np.ones((5, 5)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_swap_complements_on_tie_free_inputs(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.random((4, 4)), rng.random((4, 4))
        fwd = build_region_mask(a, b)
        rev = build_region_mask(b, a)
        np.testing.assert_array_equal(fwd[0] + rev[0], np.ones((4, 4)))
        np.testing.assert_array_equal(fwd[0], rev[1])
        assert fwd[0].sum() + rev[0].sum() == 16


class TestRegionSimilarity:
    def test_identical_features_near_zero(self):
        f = Tensor(np.random.default_rng(0).standard_normal((6, 3, 3)))
        assert np.abs(cosine_distance(f, f).data).max() < 1e-6

    def test_negated_features_near_two(self):
        f = Tensor(np.random.default_rng(1).standard_normal((6, 3, 3)) + 1.0)
        assert np.abs(cosine_distance(f, Tensor(-f.data)).data - 2.0).max() < 1e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((5, 3, 3)), rng.standard_normal((5, 3, 3))
        got = cosine_distance(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, bf_cosine_map(a, b), rtol=1e-9)


class TestRegionLoss:
    def setup_features(self, seed, h=3, w=3, c=6):
        rng = np.random.default_rng(seed)
        fc = Tensor(rng.standard_normal((c, h, w)), requires_grad=True)
        fv = Tensor(rng.standard_normal((c, h, w)), requires_grad=True)
        return rng, fc, fv

    def test_empty_cnn_side(self):
        rng, fc, fv = self.setup_features(2)
        lc, lv = region_loss(fc, fv, full_mask((3, 3), "vit"))
        assert lv.item() == 0.0
        np.testing.assert_allclose(lc.item(), cosine_distance(fc, fv).data.mean(), rtol=1e-12)

    def test_full_cnn_side(self):
        rng, fc, fv = self.setup_features(3)
        lc, lv = region_loss(fc, fv, full_mask((3, 3), "cnn"))
        assert lc.item() == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng, fc, fv = self.setup_features(seed)
        mask = random_mask(rng, 3, 3)
        lc, lv = region_loss(fc, fv, mask)
        s = bf_cosine_map(fc.data, fv.data)
        exp_c, exp_v = bf_masked_means(s, mask[0])
        np.testing.assert_allclose(lc.item(), exp_c, rtol=1e-9)
        np.testing.assert_allclose(lv.item(), exp_v, rtol=1e-9)

    def test_one_sided_gradients(self):
        rng, fc, fv = self.setup_features(4)
        mask = random_mask(rng, 3, 3)
        lc, lv = region_loss(fc, fv, mask)
        zero_grads([fc, fv])
        lc.backward()
        assert fc.grad is not None and fv.grad is None
        zero_grads([fc, fv])
        lv.backward()
        assert fv.grad is not None and fc.grad is None


class TestPixelMask:
    def test_equal_maps_all_zero(self):
        labels = np.zeros((4, 4), dtype=int)
        m = ce_map_of(np.random.default_rng(5).standard_normal((3, 4, 4)), labels)
        cnn_teaches, vit_teaches = build_pixel_mask(m, m.copy(), labels)
        assert cnn_teaches.sum() == 0
        np.testing.assert_array_equal(vit_teaches, np.ones((4, 4)))

    def test_all_ignored_votes_for_neither(self):
        labels = np.full((4, 4), IGNORE_LABEL)
        rng = np.random.default_rng(13)
        mc, mv = ce_map_of(rng.standard_normal((3, 4, 4)), labels), ce_map_of(rng.standard_normal((3, 4, 4)), labels)
        for cnn_teaches, vit_teaches in (build_pixel_mask(mc, mv, labels), build_pixel_mask(mc - 1.0, mv, labels)):
            np.testing.assert_array_equal(cnn_teaches, np.zeros((4, 4)))
            np.testing.assert_array_equal(vit_teaches, np.zeros((4, 4)))

    def test_perfect_cnn_vs_uniform_vit(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 3, (4, 4))
        labels[0, :2] = IGNORE_LABEL
        perfect = np.zeros((3, 4, 4))
        for i in range(4):
            for j in range(4):
                if labels[i, j] != IGNORE_LABEL:
                    perfect[labels[i, j], i, j] = 50.0
        cnn_teaches, vit_teaches = build_pixel_mask(ce_map_of(perfect, labels), ce_map_of(np.zeros((3, 4, 4)), labels), labels)
        assert cnn_teaches.sum() == 14  # every valid pixel
        assert vit_teaches.sum() == 0
        np.testing.assert_array_equal(cnn_teaches[0, :2], [0.0, 0.0])  # ignored pixels forced to 0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, (6, 6))
        labels[rng.random((6, 6)) < 0.15] = IGNORE_LABEL
        mc = ce_map_of(rng.standard_normal((3, 6, 6)), labels)
        mv = ce_map_of(rng.standard_normal((3, 6, 6)), labels)
        valid = labels != IGNORE_LABEL
        cnn_teaches, vit_teaches = build_pixel_mask(mc, mv, labels)
        exp_cnn, exp_vit = bf_direction_mask(mc, mv, valid)
        np.testing.assert_array_equal(cnn_teaches, exp_cnn)
        np.testing.assert_array_equal(vit_teaches, exp_vit)
        assert cnn_teaches.sum() + vit_teaches.sum() == int(valid.sum())


class TestPixelLoss:
    def test_equal_predictions_exactly_zero(self):
        rng = np.random.default_rng(7)
        p = Tensor(rng.standard_normal((3, 4, 4)), requires_grad=True)
        q = Tensor(p.data.copy(), requires_grad=True)
        mask = random_mask(rng, 4, 4)
        lc, lv = pixel_loss(log_softmax(p, axis=-3), log_softmax(q, axis=-3), mask)
        assert lc.item() == 0.0 and lv.item() == 0.0

    def test_empty_cnn_side_exact_zero(self):
        rng = np.random.default_rng(8)
        p = Tensor(rng.standard_normal((3, 4, 4)))
        q = Tensor(rng.standard_normal((3, 4, 4)))
        _, lv = pixel_loss(log_softmax(p, axis=-3), log_softmax(q, axis=-3), full_mask((4, 4), "vit"))
        assert lv.item() == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        p = Tensor(rng.standard_normal((4, 5, 5)) * 2)
        q = Tensor(rng.standard_normal((4, 5, 5)) * 2)
        valid = rng.random((5, 5)) > 0.1
        mask = random_mask(rng, 5, 5, valid)
        lc, lv = pixel_loss(log_softmax(p, axis=-3), log_softmax(q, axis=-3), mask)
        exp_c, exp_v = bf_pixel_losses(p.data, q.data, mask[0], valid)
        np.testing.assert_allclose(lc.item(), exp_c, rtol=1e-9)
        np.testing.assert_allclose(lv.item(), exp_v, rtol=1e-9)

    def test_one_sided_gradients(self):
        rng = np.random.default_rng(9)
        p = Tensor(rng.standard_normal((3, 4, 4)), requires_grad=True)
        q = Tensor(rng.standard_normal((3, 4, 4)), requires_grad=True)
        mask = random_mask(rng, 4, 4)
        lc, lv = pixel_loss(log_softmax(p, axis=-3), log_softmax(q, axis=-3), mask)
        zero_grads([p, q])
        lc.backward()
        assert p.grad is not None and q.grad is None
        zero_grads([p, q])
        lv.backward()
        assert q.grad is not None and p.grad is None


class TestShapeChecks:
    @pytest.mark.parametrize("loss, channels", [(region_loss, 5), (pixel_loss, 3)])
    def test_losses_reject_mismatched_maps_or_mask(self, loss, channels):
        rng = np.random.default_rng(14)
        a = Tensor(rng.standard_normal((channels, 4, 4)))
        mask = random_mask(rng, 4, 4)
        for other in ((channels, 4, 2), (channels + 1, 4, 4), (1, channels, 4, 4)):
            with pytest.raises(ShapeError):
                loss(a, Tensor(rng.standard_normal(other)), mask)
        with pytest.raises(ShapeError):
            loss(a, Tensor(a.data.copy()), random_mask(rng, 2, 4))

    def test_masks_reject_votes_of_different_shapes(self):
        with pytest.raises(ShapeError):
            build_region_mask(np.zeros((3, 3)), np.zeros((3, 4)))
        labels = np.zeros((4, 4), dtype=int)
        with pytest.raises(ShapeError):
            build_pixel_mask(ce_map_of(np.zeros((3, 4, 4)), labels), ce_map_of(np.zeros((3, 4, 2)), labels[:, :2]), labels)
        with pytest.raises(ShapeError):
            build_pixel_mask(np.zeros((4, 4)), np.zeros((4, 4)), labels[:, :2])


class TestSelectiveProperties:
    def test_direction_exclusivity(self):
        """Every valid unit lands in exactly one student's loss term."""
        rng = np.random.default_rng(10)
        labels = rng.integers(0, 3, (8, 8))
        labels[0, 0] = IGNORE_LABEL
        mc = ce_map_of(rng.standard_normal((3, 8, 8)), labels)
        mv = ce_map_of(rng.standard_normal((3, 8, 8)), labels)
        cnn_teaches, vit_teaches = build_pixel_mask(mc, mv, labels)
        for weights in (cnn_teaches, vit_teaches):
            assert weights.dtype == np.float64 and set(np.unique(weights)) <= {0.0, 1.0}
        to_vit, to_cnn = cnn_teaches == 1.0, vit_teaches == 1.0
        assert not np.any(to_vit & to_cnn)
        np.testing.assert_array_equal(to_vit | to_cnn, labels != IGNORE_LABEL)

    def test_student_swap_antisymmetry(self):
        rng = np.random.default_rng(11)
        fc = Tensor(rng.standard_normal((6, 4, 4)))
        fv = Tensor(rng.standard_normal((6, 4, 4)))
        a, b = rng.random((4, 4)), rng.random((4, 4))  # tie-free almost surely
        fwd = build_region_mask(a, b)
        rev = build_region_mask(b, a)
        lc1, lv1 = region_loss(fc, fv, fwd)
        lc2, lv2 = region_loss(fc, fv, rev)
        # swapped votes exchange which regions feed which loss
        s = cosine_distance(fc, fv).data
        exp_c2, exp_v2 = bf_masked_means(s, 1.0 - fwd[0])
        np.testing.assert_allclose(lc2.item(), exp_c2, rtol=1e-9)
        np.testing.assert_allclose(lv2.item(), exp_v2, rtol=1e-9)

    def test_masks_are_gradient_free(self):
        """A perturbation below every CE-ordering margin leaves masks bitwise unchanged."""
        rng = np.random.default_rng(12)
        labels = rng.integers(0, 3, (6, 6))
        logits_c = rng.standard_normal((3, 6, 6))
        logits_v = rng.standard_normal((3, 6, 6))
        mc, mv = ce_map_of(logits_c, labels), ce_map_of(logits_v, labels)
        margin = np.abs(mc - mv).min()
        assert margin > 1e-9
        before = build_pixel_mask(mc, mv, labels)
        nudged = ce_map_of(logits_c + 1e-12, labels)
        after = build_pixel_mask(nudged, mv, labels)
        for b, a in zip(before, after):
            np.testing.assert_array_equal(b, a)

    @pytest.mark.parametrize("seed", range(10))
    def test_degenerate_masks_stay_finite(self, seed):
        rng = np.random.default_rng(seed)
        fc = Tensor(rng.standard_normal((5, 3, 3)), requires_grad=True)
        fv = Tensor(rng.standard_normal((5, 3, 3)), requires_grad=True)
        pc = Tensor(rng.standard_normal((3, 6, 6)), requires_grad=True)
        pv = Tensor(rng.standard_normal((3, 6, 6)), requires_grad=True)
        for teacher in ("vit", "cnn"):
            lc, lv = region_loss(fc, fv, full_mask((3, 3), teacher))
            assert math.isfinite(lc.item()) and math.isfinite(lv.item())
        for teacher in ("vit", "cnn"):
            lc, lv = pixel_loss(log_softmax(pc, axis=-3), log_softmax(pv, axis=-3), full_mask((6, 6), teacher))
            assert math.isfinite(lc.item()) and math.isfinite(lv.item())
            total = lc + lv
            zero_grads([pc, pv])
            total.backward()
            for t in (pc, pv):
                if t.grad is not None:
                    assert np.all(np.isfinite(t.grad))

