import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codistill.bsd import (
    DirectionMask,
    bsd_loss,
    build_pixel_mask,
    build_region_mask,
    dump_selection_state,
    pixel_loss,
    region_ce,
    region_loss,
)
from codistill.errors import ConfigError
from codistill.losses import IGNORE_LABEL, PixelCEMap, cosine_distance, pixel_ce
from codistill.recordio import read_archive
from codistill.tensor import ShapeError, Tensor, log_softmax, zero_grads

from oracles import bf_cosine_map, bf_direction_mask, bf_masked_means, bf_pixel_losses, bf_region_ce


def ce_map_of(logits, labels):
    return pixel_ce(log_softmax(Tensor(logits), axis=-3), labels)[1]


def random_mask(rng, h, w, valid=None):
    if valid is None:
        valid = np.ones((h, w), dtype=bool)
    values = np.where(valid, rng.integers(0, 2, (h, w)).astype(float), 0.0)
    return DirectionMask(values=values, valid=valid)


class TestRegionGrid:
    def test_divisible(self):
        m = ce_map_of(np.zeros((4, 32, 32)), np.zeros((32, 32), dtype=int))
        assert region_ce(m, (4, 4)).shape == (4, 4)

    def test_indivisible_rejected(self):
        m = ce_map_of(np.zeros((4, 30, 32)), np.zeros((30, 32), dtype=int))
        with pytest.raises(ConfigError):
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
        np.testing.assert_allclose(sums, bf_region_ce(m.values, 4, 2), rtol=1e-12)


class TestRegionMask:
    def test_ties_go_to_vit(self):
        ce = np.ones((3, 3))
        mask = build_region_mask(ce, ce.copy())
        assert mask.count == 0
        np.testing.assert_array_equal(mask.values, np.zeros((3, 3)))

    def test_cnn_strictly_better_everywhere(self):
        mask = build_region_mask(np.zeros((3, 4)), np.ones((3, 4)))
        assert mask.count == 12
        np.testing.assert_array_equal(mask.values, np.ones((3, 4)))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.random((5, 5)), rng.random((5, 5))
        mask = build_region_mask(a, b)
        np.testing.assert_array_equal(mask.values, bf_direction_mask(a, b))
        assert mask.count == int(mask.values.sum())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_swap_complements_on_tie_free_inputs(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.random((4, 4)), rng.random((4, 4))
        fwd = build_region_mask(a, b)
        rev = build_region_mask(b, a)
        np.testing.assert_array_equal(fwd.values + rev.values, np.ones((4, 4)))
        assert fwd.count + rev.count == 16


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
        mask = DirectionMask(values=np.zeros((3, 3)), valid=np.ones((3, 3), bool))
        lc, lv = region_loss(fc, fv, mask)
        assert lv.item() == 0.0
        np.testing.assert_allclose(lc.item(), cosine_distance(fc, fv).data.mean(), rtol=1e-12)

    def test_full_cnn_side(self):
        rng, fc, fv = self.setup_features(3)
        mask = DirectionMask(values=np.ones((3, 3)), valid=np.ones((3, 3), bool))
        lc, lv = region_loss(fc, fv, mask)
        assert lc.item() == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng, fc, fv = self.setup_features(seed)
        mask = random_mask(rng, 3, 3)
        lc, lv = region_loss(fc, fv, mask)
        s = bf_cosine_map(fc.data, fv.data)
        exp_c, exp_v = bf_masked_means(s, mask.values)
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
        mask = build_pixel_mask(m, PixelCEMap(values=m.values.copy(), valid=m.valid.copy()))
        assert mask.count == 0

    def test_perfect_cnn_vs_uniform_vit(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 3, (4, 4))
        labels[0, :2] = IGNORE_LABEL
        perfect = np.zeros((3, 4, 4))
        for i in range(4):
            for j in range(4):
                if labels[i, j] != IGNORE_LABEL:
                    perfect[labels[i, j], i, j] = 50.0
        mask = build_pixel_mask(ce_map_of(perfect, labels), ce_map_of(np.zeros((3, 4, 4)), labels))
        assert mask.count == 14  # every valid pixel
        assert mask.toward_vit.sum() == 0
        np.testing.assert_array_equal(mask.values[0, :2], [0.0, 0.0])  # ignored pixels forced to 0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, (6, 6))
        labels[rng.random((6, 6)) < 0.15] = IGNORE_LABEL
        mc = ce_map_of(rng.standard_normal((3, 6, 6)), labels)
        mv = ce_map_of(rng.standard_normal((3, 6, 6)), labels)
        mask = build_pixel_mask(mc, mv)
        np.testing.assert_array_equal(mask.values, bf_direction_mask(mc.values, mv.values, mc.valid))
        assert mask.count + mask.toward_vit.sum() == int(mc.valid.sum())


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
        mask = DirectionMask(values=np.zeros((4, 4)), valid=np.ones((4, 4), bool))
        _, lv = pixel_loss(log_softmax(p, axis=-3), log_softmax(q, axis=-3), mask)
        assert lv.item() == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        p = Tensor(rng.standard_normal((4, 5, 5)) * 2)
        q = Tensor(rng.standard_normal((4, 5, 5)) * 2)
        valid = rng.random((5, 5)) > 0.1
        mask = random_mask(rng, 5, 5, valid)
        lc, lv = pixel_loss(log_softmax(p, axis=-3), log_softmax(q, axis=-3), mask)
        exp_c, exp_v = bf_pixel_losses(p.data, q.data, mask.values, valid)
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
            build_pixel_mask(ce_map_of(np.zeros((3, 4, 4)), labels), ce_map_of(np.zeros((3, 4, 2)), labels[:, :2]))


class TestBsdCombine:
    def test_alpha_zero_keeps_region_only(self):
        region = (Tensor(0.2), Tensor(0.3))
        pixel = (Tensor(0.1), Tensor(0.4))
        lc, lv = bsd_loss(region, pixel, alpha=0.0)
        assert (lc.item(), lv.item()) == (0.2, 0.3)

    def test_alpha_one_default(self):
        region = (Tensor(0.2), Tensor(0.3))
        pixel = (Tensor(0.1), Tensor(0.4))
        lc, lv = bsd_loss(region, pixel, alpha=1.0)
        np.testing.assert_allclose([lc.item(), lv.item()], [0.3, 0.7], rtol=1e-12)

    @given(st.floats(0, 5), st.floats(0, 2), st.floats(0, 2), st.floats(0, 2), st.floats(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_direct_arithmetic(self, alpha, a, b, c, d):
        lc, lv = bsd_loss((Tensor(a), Tensor(b)), (Tensor(c), Tensor(d)), alpha)
        np.testing.assert_allclose([lc.item(), lv.item()], [a + alpha * c, b + alpha * d], rtol=1e-12)


class TestSelectiveProperties:
    def test_direction_exclusivity(self):
        """Every valid unit lands in exactly one student's loss term."""
        rng = np.random.default_rng(10)
        labels = rng.integers(0, 3, (8, 8))
        labels[0, 0] = IGNORE_LABEL
        mc = ce_map_of(rng.standard_normal((3, 8, 8)), labels)
        mv = ce_map_of(rng.standard_normal((3, 8, 8)), labels)
        mask = build_pixel_mask(mc, mv)
        to_vit = mask.valid & (mask.values == 1.0)
        to_cnn = mask.valid & (mask.values == 0.0)
        assert not np.any(to_vit & to_cnn)
        np.testing.assert_array_equal(to_vit | to_cnn, mask.valid)
        assert mask.count == to_vit.sum() and mask.toward_vit.sum() == to_cnn.sum()

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
        exp_c2, exp_v2 = bf_masked_means(s, 1.0 - fwd.values)
        np.testing.assert_allclose(lc2.item(), exp_c2, rtol=1e-9)
        np.testing.assert_allclose(lv2.item(), exp_v2, rtol=1e-9)

    def test_masks_are_gradient_free(self):
        """A perturbation below every CE-ordering margin leaves masks bitwise unchanged."""
        rng = np.random.default_rng(12)
        labels = rng.integers(0, 3, (6, 6))
        logits_c = rng.standard_normal((3, 6, 6))
        logits_v = rng.standard_normal((3, 6, 6))
        mc, mv = ce_map_of(logits_c, labels), ce_map_of(logits_v, labels)
        margin = np.abs(mc.values - mv.values).min()
        assert margin > 1e-9
        before = build_pixel_mask(mc, mv)
        nudged = ce_map_of(logits_c + 1e-12, labels)
        after = build_pixel_mask(nudged, mv)
        np.testing.assert_array_equal(before.values, after.values)
        assert before.count == after.count

    @pytest.mark.parametrize("seed", range(10))
    def test_degenerate_masks_stay_finite(self, seed):
        rng = np.random.default_rng(seed)
        fc = Tensor(rng.standard_normal((5, 3, 3)), requires_grad=True)
        fv = Tensor(rng.standard_normal((5, 3, 3)), requires_grad=True)
        pc = Tensor(rng.standard_normal((3, 6, 6)), requires_grad=True)
        pv = Tensor(rng.standard_normal((3, 6, 6)), requires_grad=True)
        for ones in (0, 9):
            values = np.zeros((3, 3)) if ones == 0 else np.ones((3, 3))
            mask = DirectionMask(values=values, valid=np.ones((3, 3), bool))
            lc, lv = region_loss(fc, fv, mask)
            assert math.isfinite(lc.item()) and math.isfinite(lv.item())
        for ones in (0, 36):
            values = np.zeros((6, 6)) if ones == 0 else np.ones((6, 6))
            mask = DirectionMask(values=values, valid=np.ones((6, 6), bool))
            lc, lv = pixel_loss(log_softmax(pc, axis=-3), log_softmax(pv, axis=-3), mask)
            assert math.isfinite(lc.item()) and math.isfinite(lv.item())
            total = lc + lv
            zero_grads([pc, pv])
            total.backward()
            for t in (pc, pv):
                if t.grad is not None:
                    assert np.all(np.isfinite(t.grad))


class TestSelectionDump:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        labels = rng.integers(0, 3, (8, 8))
        mc = ce_map_of(rng.standard_normal((3, 8, 8)), labels)
        mv = ce_map_of(rng.standard_normal((3, 8, 8)), labels)
        grid = (2, 2)
        rmask = build_region_mask(region_ce(mc, grid), region_ce(mv, grid))
        pmask = build_pixel_mask(mc, mv)
        sim = cosine_distance(Tensor(rng.standard_normal((5, 2, 2))), Tensor(rng.standard_normal((5, 2, 2))))
        path = tmp_path / "selection.bin"
        dump_selection_state(path, sim, rmask, mc, mv, pmask)
        back = read_archive(path)
        np.testing.assert_array_equal(back["similarity"], sim.data)
        np.testing.assert_array_equal(back["region_mask/values"], rmask.values)
        np.testing.assert_array_equal(back["pixel_ce/cnn"], mc.values)
        np.testing.assert_array_equal(back["pixel_mask/values"], pmask.values)
        assert back["pixel_mask/count"][0] == pmask.count
