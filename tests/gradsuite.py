"""Catalogue of gradient checks: one entry per differentiable op.

Each entry is (name, factory) where factory(rng) returns (build, leaves);
build() assembles a fresh scalar loss from the leaf tensors. The same
catalogue backs the per-op unit tests and the timed acceptance sweep.
Composite end-to-end loss checks live in gradsuite_composites.
"""

import numpy as np

from codistill import tensor as T


def _leaf(rng, *shape):
    return T.Tensor(rng.standard_normal(shape), requires_grad=True)


def _frozen_weigh(rng, shape):
    """Fixed random weights so the reduction to a scalar has dense gradients."""
    w = rng.standard_normal(shape)
    return lambda t: (t * w).sum()


def op_checks():
    checks = []

    def register(name):
        def deco(fn):
            checks.append((name, fn))
            return fn

        return deco

    @register("add")
    def _(rng):
        a, b = _leaf(rng, 3, 4), _leaf(rng, 3, 4)
        w = _frozen_weigh(rng, (3, 4))
        return lambda: w(T.add(a, b)), [a, b]

    @register("add_broadcast")
    def _(rng):
        a, b = _leaf(rng, 3, 4), _leaf(rng, 4)
        w = _frozen_weigh(rng, (3, 4))
        return lambda: w(T.add(a, b)), [a, b]

    @register("sub")
    def _(rng):
        a, b = _leaf(rng, 3, 4), _leaf(rng, 3, 4)
        w = _frozen_weigh(rng, (3, 4))
        return lambda: w(T.sub(a, b)), [a, b]

    @register("mul")
    def _(rng):
        a, b = _leaf(rng, 3, 4), _leaf(rng, 3, 4)
        w = _frozen_weigh(rng, (3, 4))
        return lambda: w(T.mul(a, b)), [a, b]

    @register("scale")
    def _(rng):
        a = _leaf(rng, 3, 4)
        w = _frozen_weigh(rng, (3, 4))
        return lambda: w(a * 1.7), [a]

    @register("div")
    def _(rng):
        a = _leaf(rng, 3, 4)
        b = T.Tensor(rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True)
        w = _frozen_weigh(rng, (3, 4))
        return lambda: w(T.div(a, b)), [a, b]

    @register("matmul")
    def _(rng):
        a, b = _leaf(rng, 4, 5), _leaf(rng, 5, 3)
        w = _frozen_weigh(rng, (4, 3))
        return lambda: w(T.matmul(a, b)), [a, b]

    @register("conv2d")
    def _(rng):
        x, k = _leaf(rng, 2, 8, 8), _leaf(rng, 3, 2, 3, 3)
        w = _frozen_weigh(rng, (3, 8, 8))
        return lambda: w(T.conv2d(x, k, stride=1, padding=1)), [x, k]

    @register("conv2d_strided")
    def _(rng):
        x, k = _leaf(rng, 2, 8, 8), _leaf(rng, 3, 2, 4, 4)
        w = _frozen_weigh(rng, (3, 4, 4))
        return lambda: w(T.conv2d(x, k, stride=2, padding=1)), [x, k]

    @register("conv2d_tiles")
    def _(rng):
        # k == stride, no padding: the windows tile the input
        x, k = _leaf(rng, 2, 8, 8), _leaf(rng, 3, 2, 2, 2)
        w = _frozen_weigh(rng, (3, 4, 4))
        return lambda: w(T.conv2d(x, k, stride=2)), [x, k]

    @register("conv2d_1x1")
    def _(rng):
        x, k = _leaf(rng, 2, 5, 5), _leaf(rng, 3, 2, 1, 1)
        w = _frozen_weigh(rng, (3, 5, 5))
        return lambda: w(T.conv2d(x, k)), [x, k]

    @register("softmax")
    def _(rng):
        # softmax along the last axis as attention(x, I, I): q kᵀ = x and P v = P
        x = _leaf(rng, 3, 5)
        eye = T.Tensor(np.eye(5))
        w = _frozen_weigh(rng, (3, 5))
        return lambda: w(T.attention(x, eye, eye)), [x]

    @register("attention")
    def _(rng):
        q, k, v = _leaf(rng, 4, 3), _leaf(rng, 5, 3), _leaf(rng, 5, 2)
        w = _frozen_weigh(rng, (4, 2))
        return lambda: w(T.attention(q, k, v)), [q, k, v]

    @register("log_softmax")
    def _(rng):
        x = _leaf(rng, 3, 5)
        w = _frozen_weigh(rng, (3, 5))
        return lambda: w(T.log_softmax(x, axis=1)), [x]

    @register("avg_pool2d")
    def _(rng):
        x = _leaf(rng, 2, 6, 6)
        w = _frozen_weigh(rng, (2, 3, 3))
        return lambda: w(T.avg_pool2d(x, 2)), [x]

    @register("relu")
    def _(rng):
        x = _leaf(rng, 4, 4)
        w = _frozen_weigh(rng, (4, 4))
        return lambda: w(T.relu(x)), [x]

    @register("gelu")
    def _(rng):
        x = _leaf(rng, 4, 4)
        w = _frozen_weigh(rng, (4, 4))
        return lambda: w(T.gelu(x)), [x]

    @register("exp")
    def _(rng):
        x = _leaf(rng, 3, 3)
        w = _frozen_weigh(rng, (3, 3))
        return lambda: w(T.exp(x)), [x]

    @register("sum_axis")
    def _(rng):
        x = _leaf(rng, 3, 4, 2)
        w = _frozen_weigh(rng, (4,))
        return lambda: w(x.sum(axis=(0, 2))), [x]

    @register("mean_axis")
    def _(rng):
        x = _leaf(rng, 3, 4, 2)
        w = _frozen_weigh(rng, (3, 2))
        return lambda: w(x.mean(axis=1)), [x]

    @register("l2_norm")
    def _(rng):
        x = T.Tensor(rng.standard_normal((4, 5)) + 0.5, requires_grad=True)
        w = _frozen_weigh(rng, (5,))
        return lambda: w(T.l2_norm(x, axis=0)), [x]

    @register("reshape_transpose")
    def _(rng):
        x = _leaf(rng, 3, 4)
        w = _frozen_weigh(rng, (2, 3, 2))
        return lambda: w(x.transpose(1, 0).reshape(2, 3, 2)), [x]

    @register("layer_norm")
    def _(rng):
        x = _leaf(rng, 4, 6)
        g = T.Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True)
        b = _leaf(rng, 6)
        w = _frozen_weigh(rng, (4, 6))
        return lambda: w(T.layer_norm(x, g, b)), [x, g, b]

    @register("bilinear_upsample")
    def _(rng):
        x = _leaf(rng, 2, 4, 3)
        w = _frozen_weigh(rng, (2, 9, 7))
        return lambda: w(T.bilinear_upsample(x, (9, 7))), [x]

    # batched forms: N=2 leading axis

    @register("matmul_batched_shared_rhs")
    def _(rng):
        a, b = _leaf(rng, 2, 4, 5), _leaf(rng, 5, 3)
        w = _frozen_weigh(rng, (2, 4, 3))
        return lambda: w(T.matmul(a, b)), [a, b]

    @register("conv2d_batched")
    def _(rng):
        x, k = _leaf(rng, 2, 2, 8, 8), _leaf(rng, 3, 2, 4, 4)
        w = _frozen_weigh(rng, (2, 3, 4, 4))
        return lambda: w(T.conv2d(x, k, stride=2, padding=1)), [x, k]

    @register("conv2d_tiles_batched")
    def _(rng):
        x, k = _leaf(rng, 2, 2, 8, 8), _leaf(rng, 3, 2, 2, 2)
        w = _frozen_weigh(rng, (2, 3, 4, 4))
        return lambda: w(T.conv2d(x, k, stride=2)), [x, k]

    @register("avg_pool2d_batched")
    def _(rng):
        x = _leaf(rng, 2, 2, 6, 6)
        w = _frozen_weigh(rng, (2, 2, 3, 3))
        return lambda: w(T.avg_pool2d(x, 2)), [x]

    @register("bilinear_upsample_batched")
    def _(rng):
        x = _leaf(rng, 2, 2, 4, 3)
        w = _frozen_weigh(rng, (2, 2, 9, 7))
        return lambda: w(T.bilinear_upsample(x, (9, 7))), [x]

    @register("softmax_batched_class_axis")
    def _(rng):
        # class axis -3 moved last and flattened to rows, softmaxed through attention(x, I, I), moved back
        x = _leaf(rng, 2, 3, 2, 2)
        eye = T.Tensor(np.eye(3))
        w = _frozen_weigh(rng, (2, 3, 2, 2))

        def build():
            rows = T.reshape(T.transpose(x, (0, 2, 3, 1)), (8, 3))
            s = T.reshape(T.attention(rows, eye, eye), (2, 2, 2, 3))
            return w(T.transpose(s, (0, 3, 1, 2)))

        return build, [x]

    @register("attention_batched")
    def _(rng):
        q, k, v = _leaf(rng, 2, 2, 4, 3), _leaf(rng, 2, 2, 4, 3), _leaf(rng, 2, 2, 4, 3)
        w = _frozen_weigh(rng, (2, 2, 4, 3))
        return lambda: w(T.attention(q, k, v)), [q, k, v]

    @register("log_softmax_batched_class_axis")
    def _(rng):
        x = _leaf(rng, 2, 3, 2, 2)
        w = _frozen_weigh(rng, (2, 3, 2, 2))
        return lambda: w(T.log_softmax(x, axis=-3)), [x]

    @register("layer_norm_batched")
    def _(rng):
        x = _leaf(rng, 2, 4, 6)
        g = T.Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True)
        b = _leaf(rng, 6)
        w = _frozen_weigh(rng, (2, 4, 6))
        return lambda: w(T.layer_norm(x, g, b)), [x, g, b]

    @register("detach_mixed_path")
    def _(rng):
        a, b = _leaf(rng, 3, 3), _leaf(rng, 3, 3)
        w = _frozen_weigh(rng, (3, 3))
        # gradient flows through the live `a*b` branch only; the detached
        # branch contributes value but no sensitivity to `a`
        return lambda: w(T.mul(a, b) + T.mul(a.detach(), b)), [b]

    return checks


OP_CHECKS = op_checks()
