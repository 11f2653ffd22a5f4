import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codistill import cli
from codistill.data import update_confusion
from codistill.errors import DataError
from codistill.losses import IGNORE_LABEL, cosine_distance, kl_map, pixel_ce
from codistill.students import ArchConfig
from codistill.tensor import Tensor, log_softmax

from gradcheck import check_grads


def brute_force_ce(logits, labels):
    """Independent per-pixel -log softmax[label], plain loops."""
    k, h, w = logits.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            if labels[i, j] == IGNORE_LABEL:
                continue
            z = logits[:, i, j]
            e = np.exp(z - z.max())
            p = e / e.sum()
            out[i, j] = -math.log(p[labels[i, j]])
    return out


class TestPixelCE:
    def test_strong_one_hot_logits_near_zero(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, (4, 4))
        logits = np.zeros((3, 4, 4))
        for i in range(4):
            for j in range(4):
                logits[labels[i, j], i, j] = 50.0
        scalar, _ = pixel_ce(log_softmax(Tensor(logits), axis=-3), labels)
        assert scalar.item() < 1e-6

    def test_uniform_logits_give_log_k(self):
        labels = np.zeros((5, 5), dtype=int)
        scalar, ce_map = pixel_ce(log_softmax(Tensor(np.ones((4, 5, 5))), axis=-3), labels)
        np.testing.assert_allclose(scalar.item(), math.log(4), rtol=1e-12)
        np.testing.assert_allclose(ce_map, math.log(4), rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((3, 4, 4)) * 3
        labels = rng.integers(0, 3, (4, 4))
        labels[0, 0] = IGNORE_LABEL
        scalar, ce_map = pixel_ce(log_softmax(Tensor(logits), axis=-3), labels)
        expect = brute_force_ce(logits, labels)
        np.testing.assert_allclose(ce_map, expect, rtol=1e-10)
        np.testing.assert_allclose(scalar.item(), expect.sum() / (16 - 1), rtol=1e-10)
        assert ce_map[0, 0] == 0.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((4, 6, 6))
        labels = rng.integers(0, 4, (6, 6))
        base, _ = pixel_ce(log_softmax(Tensor(logits), axis=-3), labels)
        shifted, _ = pixel_ce(log_softmax(Tensor(logits + rng.standard_normal((1, 6, 6))), axis=-3), labels)
        assert abs(base.item() - shifted.item()) < 1e-9

    def test_out_of_range_label_rejected(self):
        with pytest.raises(DataError, match="label 7"):
            pixel_ce(log_softmax(Tensor(np.zeros((3, 2, 2))), axis=-3), np.full((2, 2), 7))

    def test_all_ignore_gives_zero(self):
        scalar, ce_map = pixel_ce(log_softmax(Tensor(np.zeros((3, 2, 2))), axis=-3), np.full((2, 2), IGNORE_LABEL))
        assert scalar.item() == 0.0
        np.testing.assert_array_equal(ce_map, np.zeros((2, 2)))

    def test_gradient(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.standard_normal((3, 4, 4)), requires_grad=True)
        labels = rng.integers(0, 3, (4, 4))
        check_grads(lambda: pixel_ce(log_softmax(logits, axis=-3), labels)[0], [logits], label="pixel_ce")


@pytest.mark.parametrize(
    "entry, prefix",
    [
        (lambda labels: pixel_ce(log_softmax(Tensor(np.zeros((3, 32, 32))), axis=-3), labels), ""),
        (lambda labels: update_confusion(np.zeros((3, 3), np.int64), np.zeros((32, 32), int), labels), ""),
        (lambda labels: cli._check_dataset([(np.zeros((3, 32, 32)), labels)], "set.bin", ArchConfig(num_classes=3)), "set.bin: "),
    ],
    ids=["pixel_ce", "update_confusion", "cli"],
)
def test_label_rule_has_one_message(entry, prefix):
    """Training, evaluation and the CLI's dataset check reject a label
    that is neither a class nor the ignore label in the same words."""
    labels = np.zeros((32, 32), np.uint8)
    labels[0, 0] = IGNORE_LABEL
    labels[4, 5] = 7
    with pytest.raises(DataError) as info:
        entry(labels)
    assert str(info.value) == f"{prefix}label 7 outside [0, 3) and not the ignore label {IGNORE_LABEL}"


class TestCosineDistance:
    def test_equal_vectors_zero(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.standard_normal((8, 3, 3)))
        d = cosine_distance(a, a)
        np.testing.assert_allclose(d.data, 0.0, atol=1e-7)

    def test_opposite_vectors_two(self):
        rng = np.random.default_rng(6)
        a = Tensor(rng.standard_normal((8, 3, 3)) + 2.0)
        d = cosine_distance(a, Tensor(-a.data))
        np.testing.assert_allclose(d.data, 2.0, atol=1e-7)

    def test_zero_vector_pair_gives_one(self):
        z = Tensor(np.zeros((4, 2, 2)))
        np.testing.assert_allclose(cosine_distance(z, z).data, 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((8, 2, 2))
        b = rng.standard_normal((8, 2, 2))
        got = cosine_distance(Tensor(a), Tensor(b)).data
        for i in range(2):
            for j in range(2):
                u, v = a[:, i, j], b[:, i, j]
                sim = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v) + 1e-8)
                np.testing.assert_allclose(got[i, j], 1 - sim, rtol=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_range_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.standard_normal((5, 3, 3)) * 4)
        b = Tensor(rng.standard_normal((5, 3, 3)) * 4)
        dab = cosine_distance(a, b).data
        dba = cosine_distance(b, a).data
        assert np.all(dab >= 0.0) and np.all(dab <= 2.0)
        np.testing.assert_allclose(dab, dba, rtol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.standard_normal((6, 2, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((6, 2, 2)), requires_grad=True)
        check_grads(lambda: cosine_distance(a, b).mean(), [a, b], label="cosine")


class TestKLDiv:
    """kl_map: per-pixel KL(p || q) over the class axis, fed log_softmax of K×H×W logits."""

    def test_identical_logits_zero(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 2, 4)))
        out = kl_map(log_softmax(x, axis=-3), log_softmax(x, axis=-3)).data
        assert out.shape == (2, 4)
        assert np.all(out == 0.0)

    def test_near_one_hot_vs_uniform_is_log2(self):
        p = Tensor(np.array([50.0, 0.0]).reshape(2, 1, 1))
        q = Tensor(np.zeros((2, 1, 1)))
        assert abs(kl_map(log_softmax(p, axis=-3), log_softmax(q, axis=-3)).item() - math.log(2)) < 1e-3

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.standard_normal((5, 3, 4)) * 2
        q = rng.standard_normal((5, 3, 4)) * 2
        expect = np.zeros((3, 4))
        for i in range(3):
            for j in range(4):
                sp = np.exp(p[:, i, j] - p[:, i, j].max())
                sp /= sp.sum()
                sq = np.exp(q[:, i, j] - q[:, i, j].max())
                sq /= sq.sum()
                expect[i, j] = (sp * (np.log(sp) - np.log(sq))).sum()
        np.testing.assert_allclose(kl_map(log_softmax(Tensor(p), axis=-3), log_softmax(Tensor(q), axis=-3)).data, expect, rtol=1e-10)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = Tensor(rng.standard_normal((4, 2, 3)) * 3)
            q = Tensor(rng.standard_normal((4, 2, 3)) * 3)
            assert np.all(kl_map(log_softmax(p, axis=-3), log_softmax(q, axis=-3)).data > 0.0)

    def test_gradient(self):
        rng = np.random.default_rng(9)
        p = Tensor(rng.standard_normal((5, 2, 3)), requires_grad=True)
        q = Tensor(rng.standard_normal((5, 2, 3)), requires_grad=True)
        # distinct per-pixel weights, so a gradient routed to the wrong pixel shows
        w = Tensor(rng.uniform(0.5, 2.0, (2, 3)))
        check_grads(lambda: (kl_map(log_softmax(p, axis=-3), log_softmax(q, axis=-3)) * w).sum(), [p, q], label="kl_map")
