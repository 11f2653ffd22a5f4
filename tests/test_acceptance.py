"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end criteria
(6, 7) train the reference task repeatedly and take several minutes.
"""

import math
import time
from functools import lru_cache

import numpy as np

from codistill.bsd import (
    DirectionMask,
    build_pixel_mask,
    build_region_mask,
    pixel_loss,
    region_ce,
    region_loss,
)
from codistill.cli import main
from codistill.data import SynthSpec, generate_dataset
from codistill.hfd import FeatureAdapter, hfd_loss_cnn, hfd_loss_vit
from codistill.losses import IGNORE_LABEL, cosine_distance, pixel_ce
from codistill.students import ArchConfig, cnn_forward, init_cnn_params, init_vit_params, vit_forward
from codistill.tensor import Tensor, log_softmax, zero_grads
from codistill.trainer import TrainConfig, make_train_state, run_training, total_objective

from gradcheck import check_grads
from gradsuite import OP_CHECKS
from gradsuite_composites import COMPOSITE_CHECKS
from oracles import bf_direction_mask, bf_masked_means, bf_pixel_losses, bf_region_ce


def report(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# the reference task: 4 classes, 32x32, 64 train / 32 eval, fixed data seeds
TASK_TRAIN = SynthSpec(seed=0)
TASK_EVAL = SynthSpec(seed=1)


@lru_cache(maxsize=None)
def task_data():
    return generate_dataset(TASK_TRAIN, 64), generate_dataset(TASK_EVAL, 32)


@lru_cache(maxsize=None)
def reference_run(seed, vanilla):
    train_set, eval_set = task_data()
    kw = dict(beta=0.0, gamma=0.0) if vanilla else {}
    tcfg = TrainConfig(seed=seed, eval_every=100, checkpoint_every=0, **kw)
    start = time.monotonic()
    result = run_training(train_set, eval_set, ArchConfig(), tcfg)
    return result, time.monotonic() - start


def test_criterion_1_gradient_suite():
    """Every op and composite loss vs central finite differences, 10 seeds."""
    start = time.monotonic()
    for name, factory in OP_CHECKS:
        for seed in range(10):
            build, leaves = factory(np.random.default_rng(seed))
            check_grads(build, leaves, rtol=1e-5, label=name)
    for name, factory in COMPOSITE_CHECKS:
        for seed in range(10):
            build, leaves = factory(seed)
            subset = leaves[seed % len(leaves):][:3] or leaves[:3]
            rng = np.random.default_rng(1000 + seed)
            # near-optimal float64 step: the composites' curvature makes
            # h=1e-4 truncation-limited, not gradient-limited
            check_grads(build, subset, rtol=1e-5, h=5e-6, max_elems=3, rng=rng, label=name)
    elapsed = time.monotonic() - start
    report(1, elapsed < 60.0, f"{len(OP_CHECKS)} ops + {len(COMPOSITE_CHECKS)} composite losses x 10 seeds, rel err < 1e-5, in {elapsed:.1f}s (< 60s)")


def test_criterion_2_mask_oracles():
    """500 random instances vs brute force: exact masks, rel err < 1e-9 losses."""
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(500):
        k = int(rng.integers(2, 6))
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        bh, bw = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        h, w = rows * bh, cols * bw
        if h > 16 or w > 16:
            continue
        logits_c = rng.standard_normal((k, h, w)) * 2
        logits_v = rng.standard_normal((k, h, w)) * 2
        labels = rng.integers(0, k, (h, w))
        labels[rng.random((h, w)) < 0.08] = IGNORE_LABEL
        _, map_c = pixel_ce(log_softmax(Tensor(logits_c), axis=-3), labels)
        _, map_v = pixel_ce(log_softmax(Tensor(logits_v), axis=-3), labels)

        grid = (rows, cols)
        ce_c, ce_v = region_ce(map_c, grid), region_ce(map_v, grid)
        np.testing.assert_allclose(ce_c, bf_region_ce(map_c.values, rows, cols), rtol=1e-12)

        rmask = build_region_mask(ce_c, ce_v)
        np.testing.assert_array_equal(rmask.values, bf_direction_mask(ce_c, ce_v))

        pmask = build_pixel_mask(map_c, map_v)
        np.testing.assert_array_equal(pmask.values, bf_direction_mask(map_c.values, map_v.values, map_c.valid))

        d = int(rng.integers(2, 6))
        fc = rng.standard_normal((d, rows, cols))
        fv = rng.standard_normal((d, rows, cols))
        lr_c, lr_v = region_loss(Tensor(fc), Tensor(fv), rmask)
        s = cosine_distance(Tensor(fc), Tensor(fv)).data
        exp_c, exp_v = bf_masked_means(s, rmask.values)
        for got, exp in ((lr_c.item(), exp_c), (lr_v.item(), exp_v)):
            assert abs(got - exp) <= 1e-9 * max(abs(exp), 1e-12)

        lp_c, lp_v = pixel_loss(log_softmax(Tensor(logits_c), axis=-3), log_softmax(Tensor(logits_v), axis=-3), pmask)
        exp_c, exp_v = bf_pixel_losses(logits_c, logits_v, pmask.values, pmask.valid)
        for got, exp in ((lp_c.item(), exp_c), (lp_v.item(), exp_v)):
            assert abs(got - exp) <= 1e-9 * max(abs(exp), 1e-12)
        checked += 1
    report(2, checked >= 400, f"{checked} random instances match brute force (masks exact, losses rel err < 1e-9)")


def test_criterion_3_degenerate_masks():
    """Empty/full direction sets give finite zero-rule losses; no NaN anywhere."""
    rng = np.random.default_rng(7)
    cases = 0
    for trial in range(25):
        k, h, w = 3, 8, 8
        rows = cols = 2
        logits = rng.standard_normal((k, h, w))
        labels = rng.integers(0, k, (h, w))
        # adversarial settings: identical predictions (all ties), perfect CNN,
        # all-ignore labels, plus forced full/empty masks
        variants = [
            (logits, logits.copy(), labels),
            (logits * 0 + 50 * np.eye(k)[labels].transpose(2, 0, 1), logits, labels),
            (logits, rng.standard_normal((k, h, w)), np.full((h, w), IGNORE_LABEL)),
        ]
        for lc, lv, lab in variants:
            pc, pv = Tensor(lc, requires_grad=True), Tensor(lv, requires_grad=True)
            _, map_c = pixel_ce(log_softmax(pc, axis=-3), lab)
            _, map_v = pixel_ce(log_softmax(pv, axis=-3), lab)
            pmask = build_pixel_mask(map_c, map_v)
            lp_c, lp_v = pixel_loss(log_softmax(pc, axis=-3), log_softmax(pv, axis=-3), pmask)
            grid = (rows, cols)
            rmask = build_region_mask(region_ce(map_c, grid), region_ce(map_v, grid))
            fc = Tensor(rng.standard_normal((4, rows, cols)), requires_grad=True)
            fv = Tensor(rng.standard_normal((4, rows, cols)), requires_grad=True)
            lr_c, lr_v = region_loss(fc, fv, rmask)
            total = lp_c + lp_v + lr_c + lr_v
            assert math.isfinite(total.item())
            zero_grads([pc, pv, fc, fv])
            total.backward()
            for t in (pc, pv, fc, fv):
                assert t.grad is None or np.all(np.isfinite(t.grad))
            cases += 1
        for count in (0, rows * cols):
            values = np.full((rows, cols), 1.0 if count else 0.0)
            mask = DirectionMask(values=values, valid=np.ones((rows, cols), bool))
            fc = Tensor(rng.standard_normal((4, rows, cols)))
            fv = Tensor(rng.standard_normal((4, rows, cols)))
            lr_c, lr_v = region_loss(fc, fv, mask)
            assert math.isfinite(lr_c.item()) and math.isfinite(lr_v.item())
            cases += 1
        for count in (0, h * w):
            values = np.full((h, w), 1.0 if count else 0.0)
            mask = DirectionMask(values=values, valid=np.ones((h, w), bool))
            lp_c, lp_v = pixel_loss(log_softmax(Tensor(logits), axis=-3), log_softmax(Tensor(rng.standard_normal((k, h, w))), axis=-3), mask)
            assert math.isfinite(lp_c.item()) and math.isfinite(lp_v.item())
            cases += 1
    report(3, cases >= 100, f"{cases} adversarial degenerate cases, all losses finite under the zero-term rule")


def test_criterion_4_gradient_isolation():
    """backward(L_cnn) leaves every ViT parameter untouched and vice versa."""
    acfg = ArchConfig(input_hw=(16, 16), num_classes=3, cnn_channels=(4, 6, 8), vit_dims=(6, 8, 10))
    tcfg = TrainConfig(seed=0, steps=1)
    state = make_train_state(acfg, tcfg)
    rng = np.random.default_rng(11)
    batches = 0
    for _ in range(5):
        image = rng.standard_normal((3, 16, 16)) * 0.5
        labels = rng.integers(0, 3, (16, 16))
        out_c = cnn_forward(Tensor(image), state.params_c, acfg)
        out_v = vit_forward(Tensor(image), state.params_v, acfg)
        loss_c, loss_v, _ = total_objective(out_c, out_v, labels, state.params_c, state.params_v, state.adapters, acfg, tcfg)
        everything = [*state.params_c.values(), *state.params_v.values()]
        zero_grads(everything)
        loss_c.backward()
        assert all(p.grad is None for p in state.params_v.values())
        assert all(p.grad is not None for p in state.params_c.values())
        zero_grads(everything)
        loss_v.backward()
        assert all(p.grad is None for p in state.params_c.values())
        assert all(p.grad is not None for p in state.params_v.values())
        batches += 1
    report(4, batches == 5, f"exhaustive parameter scan on {batches} random batches: objectives are gradient-isolated")


def test_criterion_5_definitional_zeros():
    acfg = ArchConfig(input_hw=(16, 16), num_classes=3, cnn_channels=(4, 6, 8), vit_dims=(6, 8, 10))
    # seed chosen so no second-feature location is an all-zero vector: the
    # zero-vector cosine convention scores dead relu locations at 1, which
    # is outside the definitional identity being checked here
    rng = np.random.default_rng(0)
    params_c = init_cnn_params(acfg, rng)
    params_v = init_vit_params(acfg, rng)
    x = Tensor(rng.standard_normal((3, 16, 16)))
    out_c = cnn_forward(x, params_c, acfg)
    out_v = vit_forward(x, params_v, acfg)
    for out in (out_c, out_v):
        assert np.sqrt((out.f2.data**2).sum(axis=0)).min() > 1e-3

    def identity_adapter(channels):
        w = np.zeros((channels, channels, 1, 1))
        for c in range(channels):
            w[c, c, 0, 0] = 1.0
        return FeatureAdapter(weight=Tensor(w), bias=Tensor(np.zeros(channels)), pool=1)

    hfd_own_vit = hfd_loss_cnn(out_v.f1, identity_adapter(acfg.vit_dims[0]), params_v, acfg, out_v.f2).item()
    hfd_own_cnn = hfd_loss_vit(out_c.f1, identity_adapter(acfg.cnn_channels[0]), params_c, acfg, out_c.f2).item()

    mask = DirectionMask(values=np.zeros((4, 4)), valid=np.ones((4, 4), bool))
    mask.values[0, 0] = 1.0
    same = Tensor(rng.standard_normal((3, 16, 16)))
    lp_c, lp_v = pixel_loss(log_softmax(same, axis=-3), log_softmax(Tensor(same.data.copy()), axis=-3), DirectionMask(values=np.ones((16, 16)), valid=np.ones((16, 16), bool)))
    feats = Tensor(rng.standard_normal((5, 4, 4)))
    lr_c, lr_v = region_loss(feats, Tensor(feats.data.copy()), mask)

    ok = hfd_own_vit < 1e-6 and hfd_own_cnn < 1e-6 and lp_c.item() == 0.0 and lp_v.item() == 0.0 and lr_c.item() < 1e-6 and lr_v.item() < 1e-6
    report(
        5,
        ok,
        f"own-feature alignment {hfd_own_vit:.2e}/{hfd_own_cnn:.2e} (<1e-6), equal-prediction pixel losses exactly 0, coincident-feature region losses < 1e-6",
    )


def test_criterion_6_end_to_end_training():
    """300 collaborative steps halve both students' CE in under 5 minutes."""
    result, elapsed = reference_run(seed=0, vanilla=False)
    first, last = result.records[0], result.records[-1]
    ratio_c = last["l_ce_c"] / first["l_ce_c"]
    ratio_v = last["l_ce_v"] / first["l_ce_v"]
    ok = ratio_c <= 0.5 and ratio_v <= 0.5 and elapsed < 300.0
    report(6, ok, f"CE ratios after 300 steps: cnn {ratio_c:.3f}, vit {ratio_v:.3f} (<= 0.5); runtime {elapsed:.0f}s (< 300s)")


def test_criterion_7_directional_improvement():
    """Summed eval mIoU of the full method >= vanilla in at least 4 of 5 seeds."""
    wins = 0
    details = []
    for seed in range(5):
        full, _ = reference_run(seed, vanilla=False)
        van, _ = reference_run(seed, vanilla=True)
        full_sum = full.miou_c + full.miou_v
        van_sum = van.miou_c + van.miou_v
        wins += full_sum >= van_sum
        details.append(f"seed{seed} {full_sum:.3f}{'>=' if full_sum >= van_sum else '<'}{van_sum:.3f}")
    report(7, wins >= 4, f"full vs vanilla summed mIoU: {wins}/5 seeds ({'; '.join(details)})")


def test_criterion_8_determinism(tmp_path):
    """Identical seed and config reproduce the metrics log byte for byte."""
    data_dir = tmp_path / "data"
    assert main(["gen", "--classes", "4", "--size", "16", "--n", "12", "--seed", "2", "--out", str(data_dir)]) == 0
    logs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        args = ["train", "--data", str(data_dir), "--out", str(out), "--steps", "20", "--seed", "9", "--batch-size", "4", "--eval-every", "10", "--checkpoint-every", "0"]
        assert main(args) == 0
        logs.append((out / "metrics.log").read_bytes())
    report(8, logs[0] == logs[1], f"two identical 20-step runs: metrics logs byte-identical ({len(logs[0])} bytes)")


def test_criterion_9_ablation_grid(tmp_path):
    """cmd_ablate emits the 8-row grid; all-off == vanilla, all-on == full, bitwise."""
    data_dir = tmp_path / "data"
    assert main(["gen", "--classes", "4", "--size", "16", "--n", "12", "--seed", "4", "--out", str(data_dir)]) == 0
    grid_dir = tmp_path / "grid"
    common = ["--data", str(data_dir), "--steps", "6", "--seed", "3", "--batch-size", "4", "--eval-every", "100", "--checkpoint-every", "0"]
    assert main(["ablate", *common, "--out", str(grid_dir)]) == 0
    rows = (grid_dir / "ablation.tsv").read_text().splitlines()
    eight = len(rows) == 9

    vanilla_dir = tmp_path / "vanilla"
    assert main(["train", *common, "--out", str(vanilla_dir), "--no-hfd", "--no-region-bsd", "--no-pixel-bsd"]) == 0
    full_dir = tmp_path / "full"
    assert main(["train", *common, "--out", str(full_dir)]) == 0
    off_match = (grid_dir / "cell_hfd0_r0_p0" / "metrics.log").read_bytes() == (vanilla_dir / "metrics.log").read_bytes()
    on_match = (grid_dir / "cell_hfd1_r1_p1" / "metrics.log").read_bytes() == (full_dir / "metrics.log").read_bytes()
    report(9, eight and off_match and on_match, f"8 rows emitted; all-off row == vanilla run bitwise: {off_match}; all-on row == full run bitwise: {on_match}")
