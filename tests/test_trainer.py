import copy
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import codistill

from codistill.data import SynthSpec, generate_dataset
from codistill.errors import ConfigError, DataError, TrainingError
from codistill.hfd import apply_adapter, hfd_loss_cnn, hfd_loss_vit
from codistill.bsd import build_pixel_mask, build_region_mask, pixel_loss, region_ce, region_loss
from codistill import trainer
from codistill.losses import IGNORE_LABEL, pixel_ce
from codistill.recordio import read_archive, write_archive
from codistill.students import ArchConfig, StudentOutputs, cnn_forward, vit_forward
from codistill.tensor import Tensor, div, log_softmax, zero_grads
from codistill.trainer import (
    AdamW,
    SgdMomentum,
    TrainConfig,
    adamw_update,
    evaluate,
    format_metrics_line,
    gradient_runs,
    load_checkpoint,
    make_train_state,
    parse_metrics_line,
    run_training,
    save_checkpoint,
    sgd_momentum_update,
    total_objective,
    train_step,
)

from golden import step_tape

MICRO = ArchConfig(input_hw=(16, 16), num_classes=3, cnn_channels=(4, 6, 8), vit_dims=(6, 8, 10), patch_size=2, num_heads=2)
SPEC = SynthSpec(size=16, classes=3, noise=0.05, seed=0)


def micro_tcfg(**kw):
    base = dict(steps=5, batch_size=2, seed=0, eval_every=100, checkpoint_every=0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(SPEC, 8)


class TestUpdateRules:
    def test_sgd_zero_grad_zero_wd_is_identity(self):
        p = np.array([1.0, -2.0])
        p2, v2 = sgd_momentum_update(p, np.zeros(2), np.zeros(2), lr=0.1, mu=0.9, wd=0.0)
        np.testing.assert_array_equal(p2, p)
        np.testing.assert_array_equal(v2, np.zeros(2))

    def test_sgd_paper_rule_by_hand(self):
        """v <- mu*v + (g + wd*p); p <- p - lr*v with mu=0.9, wd=5e-4."""
        rng = np.random.default_rng(0)
        p, g, v = rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal(4)
        lr, mu, wd = 0.05, 0.9, 5e-4
        v_ref = mu * v + (g + wd * p)
        p_ref = p - lr * v_ref
        p2, v2 = sgd_momentum_update(p, g, v, lr, mu, wd)
        np.testing.assert_array_equal(p2, p_ref)
        np.testing.assert_array_equal(v2, v_ref)

    def test_adamw_first_step_unit_gradient(self):
        p = np.zeros(3)
        g = np.ones(3)
        lr = 1e-3
        p2, _, _ = adamw_update(p, g, np.zeros(3), np.zeros(3), t=1, lr=lr, beta1=0.9, beta2=0.999, eps=1e-8, wd=0.0)
        np.testing.assert_allclose(p2, -lr, atol=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_five_step_sequences_vs_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        grads = rng.standard_normal(5)

        # independent scalar reference, plain floats
        p_s, v_s = 0.7, 0.0
        lr, mu, wd = 0.03, 0.9, 5e-4
        p_a = np.array([0.7])
        v_a = np.zeros(1)
        for g in grads:
            v_s = mu * v_s + (g + wd * p_s)
            p_s = p_s - lr * v_s
            p_a, v_a = sgd_momentum_update(p_a, np.array([g]), v_a, lr, mu, wd)
        np.testing.assert_allclose(p_a[0], p_s, rtol=1e-12)

        q_s, m1_s, m2_s = -0.3, 0.0, 0.0
        alr, b1, b2, eps, awd = 1e-2, 0.9, 0.999, 1e-8, 0.01
        q_a, m1_a, m2_a = np.array([-0.3]), np.zeros(1), np.zeros(1)
        for t, g in enumerate(grads, 1):
            m1_s = b1 * m1_s + (1 - b1) * g
            m2_s = b2 * m2_s + (1 - b2) * g * g
            mh = m1_s / (1 - b1**t)
            vh = m2_s / (1 - b2**t)
            q_s = q_s - alr * awd * q_s - alr * mh / (math.sqrt(vh) + eps)
            q_a, m1_a, m2_a = adamw_update(q_a, np.array([g]), m1_a, m2_a, t, alr, b1, b2, eps, awd)
        np.testing.assert_allclose(q_a[0], q_s, rtol=1e-12)


class PerTensorSgd:
    """The per-tensor SGD the flat optimizer replaces: the written rule, one dict entry per tensor."""

    def __init__(self, named_params, lr):
        self.params = list(named_params)
        self.lr = lr
        self.velocity = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self):
        for name, p in self.params:
            if p.grad is not None:
                p.data, self.velocity[name] = sgd_momentum_update(
                    p.data, p.grad, self.velocity[name], self.lr, trainer.SGD_MOMENTUM, trainer.SGD_WEIGHT_DECAY
                )


class PerTensorAdamW:
    """The per-tensor AdamW the flat optimizer replaces."""

    def __init__(self, named_params, lr):
        self.params = list(named_params)
        self.lr = lr
        self.m1 = {name: np.zeros_like(p.data) for name, p in self.params}
        self.m2 = {name: np.zeros_like(p.data) for name, p in self.params}
        self.t = 0

    def step(self):
        self.t += 1
        for name, p in self.params:
            if p.grad is not None:
                p.data, self.m1[name], self.m2[name] = adamw_update(
                    p.data, p.grad, self.m1[name], self.m2[name], self.t, self.lr,
                    trainer.ADAMW_BETA1, trainer.ADAMW_BETA2, trainer.ADAMW_EPS, trainer.ADAMW_WEIGHT_DECAY,
                )


def _param_bytes(state):
    return [p.data.tobytes() for _, p in trainer._param_records(state.params_c, state.params_v, state.adapters)]


class TestFlatOptimizers:
    """The flat-state optimizers equal the per-tensor rules bit for bit."""

    @pytest.mark.parametrize("flat_cls, ref_cls", [(SgdMomentum, PerTensorSgd), (AdamW, PerTensorAdamW)], ids=["sgd", "adamw"])
    def test_gradless_tensor_in_the_middle(self, flat_cls, ref_cls):
        rng = np.random.default_rng(0)
        shapes = [(3, 4), (5,), (2, 2, 2), (6,)]
        values = [rng.standard_normal(s) for s in shapes]
        sides = []
        for cls in (flat_cls, ref_cls):
            tensors = [Tensor(v.copy(), requires_grad=True) for v in values]
            sides.append((cls([(f"t{i}", t) for i, t in enumerate(tensors)], 0.05), tensors))
        for _ in range(3):
            grads = [None if i == 1 else rng.standard_normal(s) for i, s in enumerate(shapes)]
            for opt, tensors in sides:
                for t, g in zip(tensors, grads):
                    t.grad = g
                opt.step()
        (flat, got), (_, want) = sides
        assert [len(run[1]) for run in gradient_runs(flat.params)] == [1, 2]
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a.data, b.data)
            assert a.data.shape == b.data.shape
        np.testing.assert_array_equal(got[1].data, values[1])
        for name in ("velocity", "m1", "m2"):
            if hasattr(flat, name):
                np.testing.assert_array_equal(getattr(flat, name)[12:17], 0.0)  # t1's slice never moved

    @staticmethod
    def _reference(tcfg):
        state = make_train_state(MICRO, tcfg)
        state.opt_c = PerTensorSgd(state.opt_c.params, tcfg.sgd_lr)
        state.opt_v = PerTensorAdamW(state.opt_v.params, tcfg.adamw_lr)
        return state

    def test_beta_zero_splits_the_runs(self, dataset):
        # at beta = 0 adapter_c1 and adapter_v1 get no gradient, so each
        # optimizer updates two runs around them
        tcfg = micro_tcfg(beta=0.0)
        flat, ref = make_train_state(MICRO, tcfg), self._reference(tcfg)
        for i in range(3):
            for state in (flat, ref):
                train_step(dataset[2 * i : 2 * i + 2], state, tcfg)
            assert _param_bytes(flat) == _param_bytes(ref)
        for opt, gradless in ((flat.opt_c, "adapter_c1"), (flat.opt_v, "adapter_v1")):
            runs = gradient_runs(opt.params)
            updated = {id(t) for _, tensors, _ in runs for t in tensors}
            assert len(runs) == 2
            assert [name for name, p in opt.params if id(p) not in updated] == [f"{gradless}/weight", f"{gradless}/bias"]

    def test_deep_copy_steps_like_the_original(self, dataset):
        # after a step every parameter is a view of the optimizer's fresh
        # array; deepcopy makes each view its own array, so the copy must not
        # rely on the views sharing a buffer, and stepping it must leave the
        # original alone
        tcfg = micro_tcfg()
        flat, ref = make_train_state(MICRO, tcfg), self._reference(tcfg)
        for state in (flat, ref):
            train_step(dataset[:2], state, tcfg)
        twin = copy.deepcopy(flat)
        held = [p.data for _, p in trainer._param_records(flat.params_c, flat.params_v, flat.adapters)]
        kept = [a.copy() for a in held]
        for i in (1, 2):
            for state in (flat, twin, ref):
                train_step(dataset[2 * i : 2 * i + 2], state, tcfg)
            assert _param_bytes(twin) == _param_bytes(flat) == _param_bytes(ref)
        for a, b in zip(held, kept):  # no step wrote into an array a tensor held
            np.testing.assert_array_equal(a, b)


class TestTotalObjective:
    def _outputs(self, state, image):
        x = Tensor(image)
        return cnn_forward(x, state.params_c, MICRO), vit_forward(x, state.params_v, MICRO)

    def test_weights_zero_reduces_to_ce(self, dataset):
        tcfg = micro_tcfg(beta=0.0, gamma=0.0)
        state = make_train_state(MICRO, tcfg)
        image, labels = dataset[0]
        out_c, out_v = self._outputs(state, image)
        loss_c, loss_v, parts = total_objective(out_c, out_v, labels, state.params_c, state.params_v, state.adapters, MICRO, tcfg)
        ce_c, _ = pixel_ce(log_softmax(out_c.prediction, axis=-3), labels)
        ce_v, _ = pixel_ce(log_softmax(out_v.prediction, axis=-3), labels)
        assert loss_c.item() == ce_c.item()
        assert loss_v.item() == ce_v.item()
        assert parts["l_hfd_c"] == 0.0 and parts["l_r_c"] == 0.0 and parts["l_p_c"] == 0.0

    def test_paper_default_structural_identity(self, dataset):
        """alpha=1, beta=0.1, gamma=1: L = CE + 0.1*HFD + 1*(R + 1*P)."""
        tcfg = micro_tcfg(alpha=1.0, beta=0.1, gamma=1.0)
        state = make_train_state(MICRO, tcfg)
        image, labels = dataset[1]
        out_c, out_v = self._outputs(state, image)
        loss_c, loss_v, parts = total_objective(out_c, out_v, labels, state.params_c, state.params_v, state.adapters, MICRO, tcfg)
        for student in ("c", "v"):
            expect = parts[f"l_ce_{student}"] + 0.1 * parts[f"l_hfd_{student}"] + 1.0 * (parts[f"l_r_{student}"] + 1.0 * parts[f"l_p_{student}"])
            got = loss_c.item() if student == "c" else loss_v.item()
            np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_compositional_oracle_random_batch(self, dataset):
        """Assembled objective equals an independent recomposition from ops."""
        tcfg = micro_tcfg(alpha=0.7, beta=0.3, gamma=1.3)
        state = make_train_state(MICRO, tcfg)
        image, labels = dataset[2]
        out_c, out_v = self._outputs(state, image)
        loss_c, _, _ = total_objective(out_c, out_v, labels, state.params_c, state.params_v, state.adapters, MICRO, tcfg)

        ce_c, map_c = pixel_ce(log_softmax(out_c.prediction, axis=-3), labels)
        _, map_v = pixel_ce(log_softmax(out_v.prediction, axis=-3), labels)
        hfd_c = hfd_loss_cnn(out_c.f1, state.adapters.c1, state.params_v, MICRO, out_v.f2)
        fl_c = apply_adapter(out_c.fl, state.adapters.cl)
        fl_v = apply_adapter(out_v.fl, state.adapters.vl)
        grid = fl_c.shape[1:]
        rmask = build_region_mask(region_ce(map_c, grid), region_ce(map_v, grid))
        lr_c, _ = region_loss(fl_c, fl_v, rmask)
        pmask = build_pixel_mask(map_c, map_v, labels)
        lp_c, _ = pixel_loss(log_softmax(out_c.prediction, axis=-3), log_softmax(out_v.prediction, axis=-3), pmask)
        expect = ce_c.item() + 0.3 * hfd_c.item() + 1.3 * (lr_c.item() + 0.7 * lp_c.item())
        np.testing.assert_allclose(loss_c.item(), expect, rtol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    @pytest.mark.parametrize("region", [True, False])
    def test_bsd_cells_leave_out_the_absent_grain(self, dataset, region, alpha):
        """L = CE + beta * HFD + gamma * (L_r + alpha * L_p), bit for bit, with
        a grain that is off left out of the sum and logged as exactly 0."""
        tcfg = micro_tcfg(alpha=alpha, beta=0.3, gamma=1.3, region_bsd_on=region)
        state = make_train_state(MICRO, tcfg)
        x = Tensor(np.stack([image for image, _ in dataset[:2]]))
        labels = np.stack([lab for _, lab in dataset[:2]])
        out_c, out_v = cnn_forward(x, state.params_c, MICRO), vit_forward(x, state.params_v, MICRO)
        loss_c, loss_v, parts = total_objective(out_c, out_v, labels, state.params_c, state.params_v, state.adapters, MICRO, tcfg)

        logp_c, logp_v = log_softmax(out_c.prediction, axis=-3), log_softmax(out_v.prediction, axis=-3)
        (ce_c, map_c), (ce_v, map_v) = pixel_ce(logp_c, labels), pixel_ce(logp_v, labels)
        expect_c = ce_c + 0.3 * hfd_loss_cnn(out_c.f1, state.adapters.c1, state.params_v, MICRO, out_v.f2)
        expect_v = ce_v + 0.3 * hfd_loss_vit(out_v.f1, state.adapters.v1, state.params_c, MICRO, out_c.f2)
        fl_c, fl_v = apply_adapter(out_c.fl, state.adapters.cl), apply_adapter(out_v.fl, state.adapters.vl)
        grid = fl_c.shape[-2:]
        rmask = build_region_mask(region_ce(map_c, grid), region_ce(map_v, grid))
        pmask = build_pixel_mask(map_c, map_v, labels)
        (r_c, r_v), (p_c, p_v) = region_loss(fl_c, fl_v, rmask), pixel_loss(logp_c, logp_v, pmask)
        if region and alpha:
            expect_c, expect_v = expect_c + 1.3 * (r_c + 0.7 * p_c), expect_v + 1.3 * (r_v + 0.7 * p_v)
        elif region:
            expect_c, expect_v = expect_c + 1.3 * r_c, expect_v + 1.3 * r_v
        elif alpha:
            expect_c, expect_v = expect_c + 1.3 * (0.7 * p_c), expect_v + 1.3 * (0.7 * p_v)
        assert loss_c.item() == expect_c.item() and loss_v.item() == expect_v.item()

        region_parts = {"l_r_c": r_c.item(), "l_r_v": r_v.item(), "m_hat": rmask[0].sum() / 2}
        pixel_parts = {"l_p_c": p_c.item(), "l_p_v": p_v.item(), "m": pmask[0].sum() / 2}
        for on, grain in ((region, region_parts), (alpha != 0.0, pixel_parts)):
            for key, value in grain.items():
                if on:
                    assert parts[key] == value, key
                else:
                    assert repr(parts[key]) == "0.0", key  # a float +0.0, not -0.0 or a numpy scalar


class TestBatchedObjective:
    def test_batch_is_mean_of_per_image_objectives(self, dataset):
        """Every term is normalised per image, then averaged over the batch;
        the counts are per image, and an empty set contributes exactly 0."""
        tcfg = micro_tcfg(alpha=0.7, beta=0.3, gamma=1.3)
        state = make_train_state(MICRO, tcfg)
        x = Tensor(np.stack([image for image, _ in dataset[:3]]))
        labels = np.stack([lab for _, lab in dataset[:3]])
        labels[1] = IGNORE_LABEL  # no valid pixel: CE and both pixel directions empty
        out_c = cnn_forward(x, state.params_c, MICRO)
        out_v = vit_forward(x, state.params_v, MICRO)
        # image 2: the CNN predicts exactly what the ViT does, so it wins no
        # region and no pixel (ties go to the ViT)
        pred_c = out_c.prediction.data.copy()
        pred_c[2] = out_v.prediction.data[2]
        out_c = StudentOutputs(prediction=Tensor(pred_c), f1=out_c.f1, f2=out_c.f2, fl=out_c.fl)
        args = (state.params_c, state.params_v, state.adapters, MICRO, tcfg)
        loss_c, loss_v, parts = total_objective(out_c, out_v, labels, *args)

        def image(out, i):
            return StudentOutputs(*(Tensor(getattr(out, name).data[i]) for name in ("prediction", "f1", "f2", "fl")))

        singles = [total_objective(image(out_c, i), image(out_v, i), labels[i], *args) for i in range(3)]
        assert singles[1][2]["l_ce_c"] == 0.0 and singles[1][2]["m"] == 0.0
        assert singles[2][2]["m_hat"] == 0.0 and singles[2][2]["m"] == 0.0
        assert singles[2][2]["l_r_v"] == 0.0 and singles[2][2]["l_p_v"] == 0.0
        np.testing.assert_allclose(loss_c.item(), np.mean([s[0].item() for s in singles]), rtol=1e-12)
        np.testing.assert_allclose(loss_v.item(), np.mean([s[1].item() for s in singles]), rtol=1e-12)
        for key, value in parts.items():
            per_image = [s[2][key] for s in singles]
            if key in ("m_hat", "m"):
                assert value == sum(per_image) * (1.0 / 3)
            else:
                np.testing.assert_allclose(value, np.mean(per_image), rtol=1e-12, err_msg=key)


class TestTrainStep:
    def test_determinism_bitwise_after_10_steps(self, dataset, tmp_path):
        results = []
        for _ in range(2):
            res = run_training(dataset, dataset, MICRO, micro_tcfg(steps=10), tmp_path)
            results.append({k: p.data.tobytes() for k, p in res.state.params_c.items()})
            results[-1].update({f"v/{k}": p.data.tobytes() for k, p in res.state.params_v.items()})
        assert results[0] == results[1]

    def test_zero_lr_leaves_parameters_and_losses_constant(self):
        # config validation requires positive rates, so build the optimizers
        # with lr=0 directly; a single repeated sample keeps batches identical
        sample = generate_dataset(SPEC, 1)
        tcfg = micro_tcfg(steps=1, batch_size=1)
        state = make_train_state(MICRO, tcfg)
        state.opt_c = SgdMomentum(list(state.params_c.items()) + state.adapters.cnn_side(), 0.0)
        state.opt_v = AdamW(list(state.params_v.items()) + state.adapters.vit_side(), 0.0)
        before = {k: p.data.copy() for k, p in state.params_c.items()}
        losses = []
        for _ in range(3):
            rec = train_step([sample[0]], state, tcfg)
            losses.append((rec["l_ce_c"], rec["l_ce_v"]))
        for k, p in state.params_c.items():
            np.testing.assert_array_equal(p.data, before[k])
        assert losses[0] == losses[1] == losses[2]

    def test_single_step_matches_hand_sgd_oracle(self, dataset):
        """Gradients from backward, then the mu=0.9 wd=5e-4 rule by hand."""
        tcfg = micro_tcfg(steps=1, batch_size=2)
        state = make_train_state(MICRO, tcfg)
        batch = dataset[:2]
        before = {k: p.data.copy() for k, p in state.params_c.items()}

        # independent gradient computation on a throwaway replica
        replica = make_train_state(MICRO, tcfg)
        zero_grads(replica.params_c.values())
        total = None
        for image, labels in batch:
            out_c = cnn_forward(Tensor(image), replica.params_c, MICRO)
            out_v = vit_forward(Tensor(image), replica.params_v, MICRO)
            loss_c, _, _ = total_objective(out_c, out_v, labels, replica.params_c, replica.params_v, replica.adapters, MICRO, tcfg)
            total = loss_c if total is None else total + loss_c
        (total * 0.5).backward()
        grads = {k: p.grad.copy() for k, p in replica.params_c.items()}

        train_step(batch, state, tcfg)
        lr, mu, wd = tcfg.sgd_lr, trainer.SGD_MOMENTUM, trainer.SGD_WEIGHT_DECAY
        for k in before:
            v = grads[k] + wd * before[k]  # first step: velocity buffer starts at 0
            np.testing.assert_allclose(state.params_c[k].data, before[k] - lr * v, rtol=1e-12)

    def test_gradient_isolation_end_to_end(self, dataset):
        tcfg = micro_tcfg()
        state = make_train_state(MICRO, tcfg)
        for i in range(5):
            image, labels = dataset[i % len(dataset)]
            out_c = cnn_forward(Tensor(image), state.params_c, MICRO)
            out_v = vit_forward(Tensor(image), state.params_v, MICRO)
            loss_c, loss_v, _ = total_objective(out_c, out_v, labels, state.params_c, state.params_v, state.adapters, MICRO, tcfg)
            zero_grads([*state.params_c.values(), *state.params_v.values()])
            loss_c.backward()
            assert all(p.grad is None for p in state.params_v.values())
            assert all(p.grad is not None for p in state.params_c.values())
            zero_grads([*state.params_c.values(), *state.params_v.values()])
            loss_v.backward()
            assert all(p.grad is None for p in state.params_c.values())
            assert all(p.grad is not None for p in state.params_v.values())

    def test_toggle_off_equals_weight_zero_bitwise(self, dataset, tmp_path):
        pairs = [
            (dict(region_bsd_on=False, alpha=0.0), dict(gamma=0.0)),
        ]
        for off_kw, zero_kw in pairs:
            runs = []
            for kw in (off_kw, zero_kw):
                res = run_training(dataset, dataset, MICRO, micro_tcfg(steps=4, **kw), tmp_path)
                blob = b"".join(p.data.tobytes() for p in res.state.params_c.values())
                blob += b"".join(p.data.tobytes() for p in res.state.params_v.values())
                runs.append(blob)
            assert runs[0] == runs[1], f"{off_kw} vs {zero_kw}"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_raises_named_error(self, dataset):
        tcfg = micro_tcfg(steps=1)
        state = make_train_state(MICRO, tcfg)
        state.params_c["conv1_w"].data[0, 0, 0, 0] = np.inf
        with pytest.raises(TrainingError, match=r"non-finite l_\w+ .*at step 1"):
            train_step(dataset[:2], state, tcfg)

    @staticmethod
    def _overflow_gradient(dataset, monkeypatch, student, name):
        """A step whose one tensor gets a NaN gradient must raise naming it and move nothing."""
        tcfg = micro_tcfg(steps=1)
        state = make_train_state(MICRO, tcfg)

        def overflowing_objective(out_c, out_v, labels, params_c, params_v, *rest):
            # finite value (0 / 1e-320 is 0) whose gradient is inf * 0 = nan
            loss_c, loss_v, parts = total_objective(out_c, out_v, labels, params_c, params_v, *rest)
            if student == "cnn":
                return loss_c + div(params_c[name].sum() * 0.0, 1e-320), loss_v, parts
            return loss_c, loss_v + div(params_v[name].sum() * 0.0, 1e-320), parts

        monkeypatch.setattr(trainer, "total_objective", overflowing_objective)
        params = [*state.params_c.values(), *state.params_v.values()]
        params += [p for _, p in state.adapters.cnn_side() + state.adapters.vit_side()]
        before = [p.data.copy() for p in params]
        with pytest.raises(TrainingError, match=rf"non-finite gradient for {student}/{name} at step 1"):
            train_step(dataset[:2], state, tcfg)
        for p, data in zip(params, before):
            np.testing.assert_array_equal(p.data, data)
        assert state.step == 0 and state.opt_v.t == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_stops_before_any_update(self, dataset, monkeypatch):
        self._overflow_gradient(dataset, monkeypatch, "cnn", "head_b")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_vit_gradient_stops_before_any_update(self, dataset, monkeypatch):
        self._overflow_gradient(dataset, monkeypatch, "vit", "s2_ln1_g")


class TestTapeStructure:
    """Node counts and traced bytes of one default batch-8 step: counts, not timings."""

    @pytest.mark.parametrize("kw, nodes, attention", [({}, 195, 4), (dict(beta=0.0, gamma=0.0), 94, 3)], ids=["full", "ce_only"])
    def test_default_step_tape(self, kw, nodes, attention):
        # one attention node per ViT stage, plus HFD's borrowed ViT stage 2
        ops = [fn.__qualname__.split(".")[0] for fn in step_tape(**kw)[0]]
        assert len(ops) == nodes
        assert ops.count("attention") == attention

    def test_closures_hold_no_tensor(self):
        """Closures keep arrays, shapes and flags: no node keeps an operand tensor, and so its data, alive."""
        holders = [fn.__qualname__ for fn in step_tape()[0] if any(isinstance(c.cell_contents, Tensor) for c in fn.__closure__ or ())]
        assert holders == []

    @pytest.mark.parametrize("kw, limit_mib", [({}, 12), (dict(beta=0.0, gamma=0.0), 9.5)], ids=["full", "ce_only"])
    def test_default_step_peak_bytes(self, kw, limit_mib):
        # traced numpy bytes, not RSS: the same on every run; a step that kept
        # interior gradients measured 54.0 (full) and 42.0 (CE-only) MiB, one
        # that ran the ViT head after the upsample and divided the T×T
        # attention weights 42.70 and 34.50, one whose graph nodes were its
        # output tensors, kept alive until backward returned, 36.25 and 28.34,
        # one with data-free nodes consumed by backward 23.38 and 20.24, one
        # that releases the students' outputs before backward and records no
        # untracked operand 23.07 and 19.76 (folding the attention shift into
        # the score GEMM and taking the row sums from the P·V GEMM left both
        # unchanged), one whose attention backward rebuilds each image's
        # scores instead of keeping a whole-batch E, 14.09 and 11.27, and the
        # one whose conv2d backward rebuilds its column matrix from x and
        # whose gelu backward rebuilds its tanh from v, 10.67 and 8.19, and
        # the current step, whose mixing step is one attention node that
        # keeps [q, −m] in place of q and the shift, 10.56 and 8.07
        tcfg = TrainConfig(**kw)
        batch, state = generate_dataset(SynthSpec(), 8), make_train_state(ArchConfig(), tcfg)
        tracemalloc.start()
        try:
            train_step(batch, state, tcfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_evaluate_peak_bytes(self):
        # every attention call fills score blocks of at most 128 KiB (or one
        # matrix): 3.08 MiB traced, 2.97 when a block was one image's
        # heads, against 9.81 when every chunk filled a whole-batch score
        # buffer
        acfg, batch = ArchConfig(), generate_dataset(SynthSpec(), 8)
        state = make_train_state(acfg, TrainConfig())
        tracemalloc.start()
        try:
            evaluate(state.params_c, state.params_v, acfg, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestRunTraining:
    def test_record_count_and_mask_bounds(self, dataset, tmp_path):
        tcfg = micro_tcfg(steps=7)
        res = run_training(dataset, dataset, MICRO, tcfg, tmp_path)
        assert len(res.records) == 7
        grid_cells = (MICRO.input_hw[0] // 8) * (MICRO.input_hw[1] // 8)
        pixels = MICRO.input_hw[0] * MICRO.input_hw[1]
        for rec in res.records:
            assert 0 <= rec["m_hat"] <= grid_cells
            assert 0 <= rec["m"] <= pixels
        assert res.records[-1]["step"] == 7

    def test_metrics_log_round_trip(self, dataset, tmp_path):
        tcfg = micro_tcfg(steps=3, eval_every=2)
        run_training(dataset, dataset[:2], MICRO, tcfg, out_dir=tmp_path)
        lines = (tmp_path / "metrics.log").read_text().splitlines()
        assert lines[0].startswith("# step")
        body = [parse_metrics_line(line) for line in lines[1:]]
        assert [r["step"] for r in body] == [1, 2, 3]
        assert math.isnan(body[0]["miou_c"])  # step 1: off eval cadence
        assert not math.isnan(body[1]["miou_c"])  # step 2: eval_every hit
        assert not math.isnan(body[2]["miou_c"])  # final step always evaluated

    def test_nine_significant_digits(self):
        record = {name: 1.0 / 3.0 for name in ("l_ce_c", "l_ce_v", "l_hfd_c", "l_hfd_v", "l_r_c", "l_r_v", "l_p_c", "l_p_v", "m_hat", "m", "miou_c", "miou_v")}
        line = format_metrics_line(12, record)
        assert line.split()[1] == "0.333333333"

    def test_checkpoint_round_trip_byte_exact(self, dataset, tmp_path):
        tcfg = micro_tcfg(steps=2)
        res = run_training(dataset, dataset, MICRO, tcfg, out_dir=tmp_path)
        path = tmp_path / "ckpt_final.bin"
        assert path.exists()
        acfg, params_c, params_v, adapters = load_checkpoint(path)
        assert acfg == MICRO
        again = tmp_path / "again.bin"
        save_checkpoint(again, acfg, params_c, params_v, adapters)
        assert path.read_bytes() == again.read_bytes()
        for k, p in res.state.params_c.items():
            np.testing.assert_array_equal(p.data, params_c[k].data)

    def test_checkpoint_adapters_load_as_saved(self, tmp_path):
        state = make_train_state(MICRO, micro_tcfg(seed=4))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, MICRO, state.params_c, state.params_v, state.adapters)
        adapters = load_checkpoint(path)[3]
        for name in ("c1", "v1", "cl", "vl"):
            saved, loaded = getattr(state.adapters, name), getattr(adapters, name)
            assert loaded.pool == saved.pool
            np.testing.assert_array_equal(loaded.weight.data, saved.weight.data)
            np.testing.assert_array_equal(loaded.bias.data, saved.bias.data)
            assert loaded.weight.requires_grad and loaded.bias.requires_grad

    @pytest.mark.parametrize("missing", ["config/input_hw", "config/ffn_ratio", "adapter_c1/weight", "adapter_vl/bias"])
    def test_missing_checkpoint_record_raises_data_error(self, tmp_path, missing):
        state = make_train_state(MICRO, micro_tcfg())
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, MICRO, state.params_c, state.params_v, state.adapters)
        write_archive(path, [(name, arr) for name, arr in read_archive(path).items() if name != missing])
        with pytest.raises(DataError, match=missing):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("drop cnn/head_b", "lacks record cnn/head_b"),
            ("drop vit/s3_ffn_w2", "lacks record vit/s3_ffn_w2"),
            ("shrink vit/s1_wq", "record vit/s1_wq has shape (5, 6), expected (6, 6)"),
            ("shrink cnn/conv1_w", "record cnn/conv1_w has shape (3, 3, 4, 4), expected (4, 3, 4, 4)"),
            ("add cnn/extra_w", "unexpected checkpoint record cnn/extra_w"),
            ("shrink adapter_c1/weight", "record adapter_c1/weight has shape (5, 4, 1, 1), expected (6, 4, 1, 1)"),
            ("shrink adapter_vl/bias", "record adapter_vl/bias has shape (7,), expected (8,)"),
            ("add adapter_zz/weight", "unexpected checkpoint record adapter_zz/weight"),
            ("add junk/x", "unexpected checkpoint record junk/x"),
            ("add config/zz", "unexpected checkpoint record config/zz"),
        ],
        ids=["drop-cnn", "drop-vit", "shrink-vit", "shrink-cnn", "extra-cnn", "shrink-adapter-weight", "shrink-adapter-bias", "extra-adapter", "extra-other", "extra-config"],
    )
    def test_parameter_records_checked_against_architecture(self, tmp_path, damage, message):
        state = make_train_state(MICRO, micro_tcfg())
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, MICRO, state.params_c, state.params_v, state.adapters)
        kind, target = damage.split()
        records = [(n, arr) for n, arr in read_archive(path).items() if not (kind == "drop" and n == target)]
        if kind == "shrink":
            records = [(n, arr[:-1] if n == target else arr) for n, arr in records]
        if kind == "add":
            records.append((target, np.zeros(3)))
        write_archive(path, records)
        with pytest.raises(DataError) as err:
            load_checkpoint(path)
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "name, value",
        [("config/input_hw", [16.0, 16.0, 16.0]), ("config/num_classes", [3.0, 3.0]), ("config/num_heads", [float("nan")]), ("config/ffn_ratio", [float("inf")]), ("config/num_classes", [1.0]), ("config/num_heads", [2.5]), ("config/input_hw", [[16.0, 16.0], [16.0, 16.0]]), ("config/num_classes", [1e300]), ("config/ffn_ratio", [2.0**62])],
    )
    def test_bad_checkpoint_config_raises_data_error(self, tmp_path, name, value):
        state = make_train_state(MICRO, micro_tcfg())
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, MICRO, state.params_c, state.params_v, state.adapters)
        write_archive(path, [(n, np.array(value) if n == name else arr) for n, arr in read_archive(path).items()])
        with pytest.raises(DataError, match="bad architecture config"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, value", [("vit/s1_wq", np.nan), ("cnn/head_w", np.inf), ("adapter_cl/bias", -np.inf)])
    def test_non_finite_parameter_raises_data_error(self, tmp_path, name, value):
        state = make_train_state(MICRO, micro_tcfg())
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, MICRO, state.params_c, state.params_v, state.adapters)
        records = read_archive(path)
        records[name] = records[name].copy()
        records[name].flat[0] = value
        write_archive(path, list(records.items()))
        with pytest.raises(DataError, match=f"record {name} holds a non-finite value"):
            load_checkpoint(path)

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
    def test_oversized_config_rejected_before_allocation(self, tmp_path):
        """A 1e6-class config fails its shape check before building parameters
        (about 114 MiB for this architecture if it did not)."""
        state = make_train_state(MICRO, micro_tcfg())
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, MICRO, state.params_c, state.params_v, state.adapters)
        write_archive(path, [(n, np.array([1e6]) if n == "config/num_classes" else arr) for n, arr in read_archive(path).items()])
        # peak RSS never falls, so the load runs in a fresh process
        child = (
            "import resource, sys\n"
            "from codistill.errors import DataError\n"
            "from codistill.trainer import load_checkpoint\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "try:\n"
            "    load_checkpoint(sys.argv[1])\n"
            "except DataError as exc:\n"
            "    print(exc)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(codistill.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", child, str(path)], capture_output=True, text=True, env=env, timeout=120, check=True)
        message, grown_kib = done.stdout.splitlines()
        assert "record cnn/head_w has shape (3, 8, 1, 1), expected (1000000, 8, 1, 1)" in message
        assert int(grown_kib) < 50 * 1024

    def test_evaluate_independent_of_chunk_size(self, dataset, monkeypatch):
        state = make_train_state(MICRO, micro_tcfg())
        results = set()
        for chunk in (1, 3, 8):
            monkeypatch.setattr(trainer, "EVAL_CHUNK", chunk)
            results.add(evaluate(state.params_c, state.params_v, MICRO, dataset))
        assert len(results) == 1

    def test_evaluate_on_identical_params_is_deterministic(self, dataset):
        tcfg = micro_tcfg(steps=1)
        state = make_train_state(MICRO, tcfg)
        a = evaluate(state.params_c, state.params_v, MICRO, dataset)
        b = evaluate(state.params_c, state.params_v, MICRO, dataset)
        assert a == b


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(steps=0),
            dict(batch_size=0),
            dict(alpha=-0.1),
            dict(sgd_lr=0.0),
            dict(adamw_lr=-1.0),
            dict(checkpoint_every=-1),
            dict(eval_every=0),
        ],
    )
    def test_bad_configs_rejected(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw)

    @pytest.mark.parametrize(
        "kw, key",
        [
            (dict(alpha=float("nan")), "alpha"),
            (dict(gamma=float("inf")), "gamma"),
            (dict(beta=float("nan")), "beta"),
            (dict(sgd_lr=float("inf")), "sgd_lr"),
            (dict(adamw_lr=float("-inf")), "adamw_lr"),
        ],
    )
    def test_non_finite_floats_rejected_naming_key(self, kw, key):
        with pytest.raises(ConfigError, match=f"^{key} must be finite"):
            TrainConfig(**kw)
