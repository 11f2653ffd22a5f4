"""Finite-difference checks for the composite training losses.

A tiny student pair on a 16×16 scene keeps each re-evaluation cheap. For
every composite we only check leaves on its differentiable path (borrowed
blocks and counterpart features are constants of the objective by design,
so finite differences on them would measure a different function).
"""

import numpy as np

from gradcheck import check_grads

from codistill.bsd import build_pixel_mask, build_region_mask, pixel_loss, region_ce, region_loss
from codistill.hfd import apply_adapter, hfd_loss_cnn, hfd_loss_vit, init_adapters
from codistill.losses import pixel_ce
from codistill.students import ArchConfig, cnn_forward, init_cnn_params, init_vit_params, vit_forward
from codistill.tensor import Tensor, log_softmax

TINY = ArchConfig(input_hw=(16, 16), num_classes=3, cnn_channels=(3, 4, 5), vit_dims=(4, 6, 8), patch_size=2, num_heads=2)


class Scene:
    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.rng = rng
        self.x = Tensor(rng.standard_normal((3, 16, 16)) * 0.5)
        self.labels = rng.integers(0, 3, (16, 16))
        self.params_c = init_cnn_params(TINY, rng)
        self.params_v = init_vit_params(TINY, rng)
        self.adapters = init_adapters(TINY, rng)

    def forward(self):
        return cnn_forward(self.x, self.params_c, TINY), vit_forward(self.x, self.params_v, TINY)

    def region_pieces(self, out_c, out_v):
        _, map_c = pixel_ce(log_softmax(out_c.prediction, axis=-3), self.labels)
        _, map_v = pixel_ce(log_softmax(out_v.prediction, axis=-3), self.labels)
        fl_c = apply_adapter(out_c.fl, self.adapters.cl)
        fl_v = apply_adapter(out_v.fl, self.adapters.vl)
        grid = fl_c.shape[1:]
        mask = build_region_mask(region_ce(map_c, grid), region_ce(map_v, grid))
        return fl_c, fl_v, mask, map_c, map_v

    def objective(self, student):
        out_c, out_v = self.forward()
        ce, _ = pixel_ce(log_softmax((out_c if student == "c" else out_v).prediction, axis=-3), self.labels)
        if student == "c":
            hfd = hfd_loss_cnn(out_c.f1, self.adapters.c1, self.params_v, TINY, out_v.f2)
        else:
            hfd = hfd_loss_vit(out_v.f1, self.adapters.v1, self.params_c, TINY, out_c.f2)
        fl_c, fl_v, rmask, map_c, map_v = self.region_pieces(out_c, out_v)
        lr_c, lr_v = region_loss(fl_c, fl_v, rmask)
        pmask = build_pixel_mask(map_c, map_v, self.labels)
        lp_c, lp_v = pixel_loss(log_softmax(out_c.prediction, axis=-3), log_softmax(out_v.prediction, axis=-3), pmask)
        if student == "c":
            return ce + 0.1 * hfd + 1.0 * (lr_c + 1.0 * lp_c)
        return ce + 0.1 * hfd + 1.0 * (lr_v + 1.0 * lp_v)


def _cnn_trunk(scene):
    return [scene.params_c[k] for k in ("conv1_w", "conv1_b", "conv2_w", "conv3_w")]


def _vit_trunk(scene):
    return [scene.params_v[k] for k in ("patch_w", "s1_wq", "down2_w", "s2_ffn_w1")]


def composite_checks():
    """(name, factory) pairs; factory(seed) -> (build, leaves)."""

    def l_ce_cnn(seed):
        scene = Scene(seed)
        leaves = _cnn_trunk(scene) + [scene.params_c["head_w"], scene.params_c["head_b"]]
        return (lambda: pixel_ce(log_softmax(cnn_forward(scene.x, scene.params_c, TINY).prediction, axis=-3), scene.labels)[0]), leaves

    def l_ce_vit(seed):
        scene = Scene(seed)
        leaves = _vit_trunk(scene) + [scene.params_v["head_w"], scene.params_v["s3_wv"]]
        return (lambda: pixel_ce(log_softmax(vit_forward(scene.x, scene.params_v, TINY).prediction, axis=-3), scene.labels)[0]), leaves

    def l_hfd_cnn(seed):
        scene = Scene(seed)

        def build():
            out_c, out_v = scene.forward()
            return hfd_loss_cnn(out_c.f1, scene.adapters.c1, scene.params_v, TINY, out_v.f2)

        return build, [scene.params_c["conv1_w"], scene.params_c["conv1_b"], scene.adapters.c1.weight, scene.adapters.c1.bias]

    def l_hfd_vit(seed):
        scene = Scene(seed)

        def build():
            out_c, out_v = scene.forward()
            return hfd_loss_vit(out_v.f1, scene.adapters.v1, scene.params_c, TINY, out_c.f2)

        return build, [scene.params_v["patch_w"], scene.params_v["s1_wv"], scene.adapters.v1.weight, scene.adapters.v1.bias]

    def _region(seed, side):
        scene = Scene(seed)

        def build():
            out_c, out_v = scene.forward()
            fl_c, fl_v, mask, _, _ = scene.region_pieces(out_c, out_v)
            return region_loss(fl_c, fl_v, mask)[0 if side == "c" else 1]

        if side == "c":
            leaves = [scene.params_c["conv3_w"], scene.params_c["conv2_w"], scene.adapters.cl.weight, scene.adapters.cl.bias]
        else:
            leaves = [scene.params_v["down3_w"], scene.params_v["s3_wq"], scene.adapters.vl.weight, scene.adapters.vl.bias]
        return build, leaves

    def _pixel(seed, side):
        scene = Scene(seed)

        def build():
            out_c, out_v = scene.forward()
            _, map_c = pixel_ce(log_softmax(out_c.prediction, axis=-3), scene.labels)
            _, map_v = pixel_ce(log_softmax(out_v.prediction, axis=-3), scene.labels)
            mask = build_pixel_mask(map_c, map_v, scene.labels)
            return pixel_loss(log_softmax(out_c.prediction, axis=-3), log_softmax(out_v.prediction, axis=-3), mask)[0 if side == "c" else 1]

        leaves = (_cnn_trunk(scene) + [scene.params_c["head_w"]]) if side == "c" else (_vit_trunk(scene) + [scene.params_v["head_w"]])
        return build, leaves

    def total_cnn(seed):
        scene = Scene(seed)
        leaves = _cnn_trunk(scene) + [scene.params_c["head_w"], scene.adapters.c1.weight, scene.adapters.cl.weight]
        return (lambda: scene.objective("c")), leaves

    def total_vit(seed):
        scene = Scene(seed)
        leaves = _vit_trunk(scene) + [scene.params_v["head_w"], scene.adapters.v1.weight, scene.adapters.vl.weight]
        return (lambda: scene.objective("v")), leaves

    return [
        ("L_ce_cnn", l_ce_cnn),
        ("L_ce_vit", l_ce_vit),
        ("L_hfd_cnn", l_hfd_cnn),
        ("L_hfd_vit", l_hfd_vit),
        ("L_region_cnn", lambda seed: _region(seed, "c")),
        ("L_region_vit", lambda seed: _region(seed, "v")),
        ("L_pixel_cnn", lambda seed: _pixel(seed, "c")),
        ("L_pixel_vit", lambda seed: _pixel(seed, "v")),
        ("L_total_cnn", total_cnn),
        ("L_total_vit", total_vit),
    ]


COMPOSITE_CHECKS = composite_checks()


def check_composites():
    """Criterion 1's composite part: per composite and seed, three sampled
    elements of up to three leaves against the fourth-order stencil.

    At h=1e-4 its truncation error sits far below rtol, as does roundoff;
    the two-point stencil would need a step near the roundoff floor.
    """
    for name, factory in COMPOSITE_CHECKS:
        for seed in range(10):
            build, leaves = factory(seed)
            subset = leaves[seed % len(leaves):][:3] or leaves[:3]
            rng = np.random.default_rng(1000 + seed)
            check_grads(build, subset, rtol=1e-5, h=1e-4, points=4, max_elems=3, rng=rng, label=name)
