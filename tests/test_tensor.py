import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import codistill
from codistill import tensor as T
from codistill.tensor import GraphError, ShapeError, Tensor

from gradcheck import check_grads
from gradsuite import OP_CHECKS


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        b = Tensor(rng.standard_normal((3, 4)))
        out = T.matmul(Tensor(np.eye(3)), b)
        np.testing.assert_array_equal(out.data, b.data)

    def test_zeros(self):
        a = Tensor(np.random.default_rng(1).standard_normal((4, 5)))
        out = T.matmul(a, Tensor(np.zeros((5, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((4, 2)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(4, 5\).*\(4, 3\)"):
            T.matmul(Tensor(np.zeros((4, 5))), Tensor(np.zeros((4, 3))))


class TestConv2d:
    def test_one_by_one_identity(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((3, 5, 5)))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        out = T.conv2d(x, Tensor(w))
        np.testing.assert_array_equal(out.data, x.data)

    def test_all_ones_kernel_on_constant_image(self):
        c_in, c = 2, 0.7
        x = Tensor(np.full((c_in, 6, 6), c))
        w = Tensor(np.ones((1, c_in, 3, 3)))
        out = T.conv2d(x, w)
        np.testing.assert_allclose(out.data, 9 * c_in * c, rtol=1e-12)

    def test_non_integral_output_rejected(self):
        with pytest.raises(ShapeError, match="not integral"):
            T.conv2d(Tensor(np.zeros((1, 7, 7))), Tensor(np.zeros((1, 1, 2, 2))), stride=2)

    @pytest.mark.parametrize("k", [1, 2])
    def test_tile_gradient_keeps_input_layout(self, k):
        """k == stride, no padding: gx has the stride order of a channels-last view input."""
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 6, 6, 3)).transpose(0, 3, 1, 2)
        w = Tensor(rng.standard_normal((4, 3, k, k)))
        g = rng.standard_normal((2, 4, 6 // k, 6 // k))
        gx, _ = T.conv2d(Tensor(x, requires_grad=True), w, stride=k)._node._backward(g)
        assert np.argsort(gx.strides).tolist() == np.argsort(x.strides).tolist()
        ref, _ = T.conv2d(Tensor(np.ascontiguousarray(x), requires_grad=True), w, stride=k)._node._backward(g)
        np.testing.assert_array_equal(gx, ref)

    @pytest.mark.parametrize(
        "shape, c_out, k, stride, padding",
        [((8, 3, 32, 32), 16, 4, 2, 1), ((8, 16, 8, 8), 32, 2, 2, 0)],
        ids=["conv1", "tile"],
    )
    def test_backward_keeps_x_not_its_columns(self, shape, c_out, k, stride, padding):
        """With a tracked kernel the closure keeps x itself for gw, and no
        array as large as x besides it: the column matrix is rebuilt from x."""
        rng = np.random.default_rng(17)
        x = Tensor(rng.standard_normal(shape))
        w = Tensor(rng.standard_normal((c_out, shape[1], k, k)), requires_grad=True)
        out = T.conv2d(x, w, stride=stride, padding=padding)
        held = [c.cell_contents for c in out._node._backward.__closure__]
        big = [a for a in held if isinstance(a, np.ndarray) and a.size >= x.data.size]
        assert [a is x.data for a in big] == [True]

    @pytest.mark.parametrize("lead", [(), (1,), (3,)])
    @pytest.mark.parametrize("k, stride, padding", [(4, 2, 1), (2, 2, 0)])
    def test_kernel_gradient_is_the_column_gemm(self, lead, k, stride, padding):
        """gw is bit for bit np.tensordot over a loop-built column matrix,
        one image or several."""
        rng = np.random.default_rng(29)
        x = rng.standard_normal((*lead, 3, 8, 8))
        w = rng.standard_normal((5, 3, k, k))
        out = T.conv2d(Tensor(x), Tensor(w, requires_grad=True), stride=stride, padding=padding)
        g = rng.standard_normal(out.shape)
        _, gw = out._node._backward(g)
        xp = np.pad(x.reshape(-1, 3, 8, 8), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        side = out.shape[-1]
        cols = np.empty((xp.shape[0], 3, k, k, side, side))
        for i in range(k):
            for j in range(k):
                cols[:, :, i, j] = xp[:, :, i : i + stride * side : stride, j : j + stride * side : stride]
        cols = cols.reshape(xp.shape[0], 3 * k * k, side * side)
        want = np.tensordot(g.reshape(xp.shape[0], 5, -1), cols, axes=([0, 2], [0, 2])).reshape(w.shape)
        assert gw.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k, stride, padding", [(4, 2, 1), (3, 1, 1), (2, 2, 0), (1, 1, 0)])
    def test_gradients_on_a_transposed_input_match_contiguous(self, k, stride, padding):
        """gw and gx read x's values, not its layout: a channels-last view
        gives the bits a contiguous copy gives."""
        rng = np.random.default_rng(23)
        x = rng.standard_normal((4, 8, 8, 3)).transpose(0, 3, 1, 2)
        w = rng.standard_normal((5, 3, k, k))
        outs = [T.conv2d(Tensor(xi, requires_grad=True), Tensor(w, requires_grad=True), stride=stride, padding=padding) for xi in (x, np.ascontiguousarray(x))]
        g = rng.standard_normal(outs[0].shape)
        (gx, gw), (gx_ref, gw_ref) = (out._node._backward(g) for out in outs)
        assert gx.tobytes() == gx_ref.tobytes() and gw.tobytes() == gw_ref.tobytes()


class TestGelu:
    def test_backward_keeps_only_its_input(self):
        """The closure holds v and nothing else of its size: the tanh is rebuilt."""
        x = Tensor(np.random.default_rng(5).standard_normal((8, 64, 32)), requires_grad=True)
        out = T.gelu(x)
        held = [c.cell_contents for c in out._node._backward.__closure__]
        assert [a.shape for a in held if isinstance(a, np.ndarray) and a.size >= x.data.size] == [x.shape]


def _softmax_rows(x):
    """softmax along the last axis as attention(x, I, I): q kᵀ = x and P v = P."""
    eye = np.eye(np.shape(x)[-1])
    return T.attention(Tensor(x), Tensor(eye), Tensor(eye))


class TestSoftmax:
    def test_constant_vector_uniform(self):
        out = _softmax_rows(np.full((1, 4), 3.3))
        np.testing.assert_allclose(out.data, 0.25, rtol=1e-12)

    def test_large_magnitude_stable(self):
        out = _softmax_rows(np.array([[1e4, 0.0, 0.0]]))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [[1.0, 0.0, 0.0]], atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one(self, seed, n, m):
        s = _softmax_rows(np.random.default_rng(seed).standard_normal((n, m)) * 5)
        np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(s.data > 0)


def _rowdot(a, b):
    return np.einsum("...i,...i->...", a, b)


def _attention_oracle(q, k, v, g, exact_shift=False):
    """Plain-numpy softmax(q kᵀ) v in the op's arithmetic, whole-array: the
    shift m (the Cauchy–Schwarz bound ‖q_i‖·max_j‖k_j‖, or the exact row
    max) rides in [q, −m]·[k, 1]ᵀ, the row sums come out of E·[v, 1], and
    the row term of dS rides in [g′, −rowsum(g′ ⊙ O)]·[vᵀ; 1]."""
    ev = v.shape[-1]
    if exact_shift:
        m = (q @ np.swapaxes(k, -1, -2)).max(axis=-1, keepdims=True)
    else:
        m = np.sqrt(_rowdot(q, q))[..., None] * np.sqrt(_rowdot(k, k).max(axis=-1))[..., None, None]
    ka, va = (np.concatenate([a, np.ones((*a.shape[:-1], 1))], axis=-1) for a in (k, v))
    e = np.concatenate([q, -m], axis=-1) @ np.swapaxes(ka, -1, -2)
    np.exp(e, out=e)
    prod = e @ va
    s = prod[..., ev:].copy()
    out = prod[..., :ev] / s
    ga = np.empty((*g.shape[:-1], ev + 1))
    gp = ga[..., :ev]
    np.divide(g, s, out=gp)
    ga[..., ev] = -_rowdot(gp, out)
    ds = ga @ np.swapaxes(va, -1, -2)
    ds *= e
    return out, (ds @ k, np.swapaxes(ds, -1, -2) @ q, np.swapaxes(e, -1, -2) @ gp)


def _softmax_weights_reference(q, k, v, g):
    """The textbook form: weights P = E / rowsum(E), out = P v, dS = (g vᵀ − rowsum(dP ⊙ P)) ⊙ P."""
    sc = q @ np.swapaxes(k, -1, -2)
    e = np.exp(sc - sc.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    dp = g @ np.swapaxes(v, -1, -2)
    ds = (dp - (dp * p).sum(axis=-1, keepdims=True)) * p
    return p @ v, (ds @ k, np.swapaxes(ds, -1, -2) @ q, np.swapaxes(p, -1, -2) @ g)


class TestAttention:
    """One node for softmax(q kᵀ) v, checked against plain numpy."""

    @staticmethod
    def _case(lead):
        rng = np.random.default_rng(14)
        q, k = rng.standard_normal((*lead, 7, 3)) * 2, rng.standard_normal((*lead, 6, 3)) * 2
        v, g = rng.standard_normal((*lead, 6, 4)), rng.standard_normal((*lead, 7, 4))
        return q, k, v, g

    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)], ids=["single", "batch", "batch_heads"])
    def test_matches_numpy_oracle(self, lead):
        q, k, v, g = self._case(lead)
        want, want_grads = _attention_oracle(q, k, v, g)
        out = T.attention(*(Tensor(t, requires_grad=True) for t in (q, k, v)))
        np.testing.assert_array_equal(out.data, want)
        # slice by slice in the op, whole-array here: the same products per slice
        for got, ref in zip(out._node._backward(g), want_grads):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)], ids=["single", "batch", "batch_heads"])
    def test_matches_softmax_weights_form(self, lead):
        # normalising after P·V reorders the arithmetic; in reals it is the softmax
        q, k, v, g = self._case(lead)
        want, want_grads = _softmax_weights_reference(q, k, v, g)
        out = T.attention(*(Tensor(t, requires_grad=True) for t in (q, k, v)))
        np.testing.assert_allclose(out.data, want, rtol=1e-12)
        # gradient entries near zero come out of cancelling sums: bound them
        # relative to the largest entry of their array
        for got, ref in zip(out._node._backward(g), want_grads):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("factor", [0.99, 1.01], ids=["bound_shift", "exact_shift"])
    def test_shift_guard_branches(self, factor):
        """Each image is scaled so that 2·max_i m_i lands just below or just
        above the limit: below it the op shifts by the Cauchy–Schwarz bound,
        above it by the exact row max, and both are the softmax."""
        def two_max_m(q, k):  # per image
            return 2 * (np.sqrt(_rowdot(q, q)) * np.sqrt(_rowdot(k, k).max(axis=-1))[..., None]).max(axis=(-1, -2))

        q, k, v, g = self._case((2, 2))
        scale = np.sqrt(factor * T._SHIFT_LIMIT / two_max_m(q, k))[:, None, None, None]
        q, k = q * scale, k * scale
        assert np.all((two_max_m(q, k) > T._SHIFT_LIMIT) == (factor > 1))
        out = T.attention(*(Tensor(t, requires_grad=True) for t in (q, k, v)))
        grads = out._node._backward(g)
        want, want_grads = _attention_oracle(q, k, v, g, exact_shift=factor > 1)
        np.testing.assert_array_equal(out.data, want)
        for got, ref in zip(grads, want_grads):
            np.testing.assert_array_equal(got, ref)
        want, want_grads = _softmax_weights_reference(q, k, v, g)
        np.testing.assert_allclose(out.data, want, rtol=1e-12)
        for got, ref in zip(grads, want_grads):
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_untracked_forward_matches_tracked(self):
        """Tracked or not, the op fills one image-sized block for the scores;
        the untracked output is the recorded op's, bit for bit."""
        q, k, v, _ = self._case((3, 2))
        tracked = T.attention(*(Tensor(t, requires_grad=True) for t in (q, k, v)))
        np.testing.assert_array_equal(T.attention(q, k, v).data, tracked.data)

    def test_backward_keeps_no_score_array(self):
        """At stage-1 shapes the backward closure holds no T×S array: it
        rebuilds each image's scores rather than keeping a whole-batch E."""
        rng = np.random.default_rng(17)
        out = T.attention(*(Tensor(rng.standard_normal((8, 2, 256, 8)), requires_grad=True) for _ in range(3)))
        held = [c.cell_contents for c in out._node._backward.__closure__]
        big = [a.shape for a in held if isinstance(a, np.ndarray) and a.size >= 256 * 256]
        assert big == []

    def test_shape_mismatch_names_all_shapes(self):
        with pytest.raises(ShapeError, match=r"\(4, 3\).*\(5, 2\).*\(5, 2\)"):
            T.attention(Tensor(np.zeros((4, 3))), Tensor(np.zeros((5, 2))), Tensor(np.zeros((5, 2))))


class TestAvgPool:
    def test_constant_halves(self):
        x = Tensor(np.full((2, 4, 4), 1.5))
        out = T.avg_pool2d(x, 2)
        assert out.shape == (2, 2, 2)
        np.testing.assert_allclose(out.data, 1.5, rtol=1e-12)

    def test_global_average(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 4, 4)))
        out = T.avg_pool2d(x, 4)
        np.testing.assert_allclose(out.data[:, 0, 0], x.data.mean(axis=(1, 2)), rtol=1e-12)

    def test_indivisible_rejected(self):
        with pytest.raises(ShapeError, match="tile"):
            T.avg_pool2d(Tensor(np.zeros((1, 5, 5))), 2)


class TestDetach:
    def test_detached_factor_gets_zero_grad(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        loss = (a.detach() * b).sum()
        loss.backward()
        assert a.grad is None
        np.testing.assert_array_equal(b.grad, a.data)

    def test_idempotent_values(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(x.detach().detach().data, x.detach().data)


class TestDeadGradients:
    """Backward closures skip parents that take no gradient."""

    def test_conv2d_untracked_input_gets_none(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 8, 8))
        w = Tensor(rng.standard_normal((4, 3, 4, 4)), requires_grad=True)
        g = rng.standard_normal((2, 4, 4, 4))
        gx, gw = T.conv2d(Tensor(x), w, stride=2, padding=1)._node._backward(g)
        gx_live, gw_live = T.conv2d(Tensor(x, requires_grad=True), w, stride=2, padding=1)._node._backward(g)
        assert gx is None and gx_live.shape == x.shape
        np.testing.assert_array_equal(gw, gw_live)

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div, T.matmul])
    def test_binary_ops_skip_untracked_operand(self, op):
        rng = np.random.default_rng(12)
        a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 2.0, (3, 3)))
        g = rng.standard_normal((3, 3))
        ga, gb = op(a, b)._node._backward(g)
        assert gb is None
        np.testing.assert_array_equal(ga, op(a, Tensor(b.data, requires_grad=True))._node._backward(g)[0])
        assert op(b, a)._node._backward(g)[0] is None

    @pytest.mark.parametrize("tracked", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)])
    def test_attention_untracked_parents_get_none(self, tracked):
        rng = np.random.default_rng(15)
        arrays = [rng.standard_normal((2, 5, 3)) for _ in range(3)]
        g = rng.standard_normal((2, 5, 3))
        grads = T.attention(*(Tensor(a, requires_grad=bool(t)) for a, t in zip(arrays, tracked)))._node._backward(g)
        live = T.attention(*(Tensor(a, requires_grad=True) for a in arrays))._node._backward(g)
        for t, got, ref in zip(tracked, grads, live):
            if t:
                np.testing.assert_array_equal(got, ref)
            else:
                assert got is None

    def test_attention_without_tracked_parent_records_nothing(self):
        rng = np.random.default_rng(16)
        out = T.attention(*(Tensor(rng.standard_normal((2, 5, 3))) for _ in range(3)))
        assert not out.requires_grad and out._parents == () and out._node is None


class TestBatchAxis:
    """A leading batch axis gives each image what it gets on its own."""

    @pytest.mark.parametrize(
        "op",
        [
            lambda t, w: T.conv2d(t, w, stride=2, padding=1),
            lambda t, w: T.conv2d(t, Tensor(w.data[:, :, :2, :2]), stride=2),
            lambda t, w: T.avg_pool2d(t, 2),
            lambda t, w: T.bilinear_upsample(t, (11, 5)),
            lambda t, w: T.log_softmax(t, axis=-3),
        ],
        ids=["conv2d", "conv2d_tiles", "avg_pool2d", "bilinear_upsample", "log_softmax"],
    )
    def test_stencils_per_image(self, op):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 2, 6, 6))
        w = Tensor(rng.standard_normal((4, 2, 4, 4)))
        batched = op(Tensor(x), w).data
        for i in range(3):
            np.testing.assert_allclose(batched[i], op(Tensor(x[i]), w).data, rtol=1e-13, atol=1e-15)

    def test_matmul_leading_axes_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 4, 5\).*\(3, 5, 2\)"):
            T.matmul(Tensor(np.zeros((2, 4, 5))), Tensor(np.zeros((3, 5, 2))))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(5).standard_normal((2, 3)), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_gives_two_x(self):
        x = Tensor(np.random.default_rng(6).standard_normal(5), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-12)

    def test_only_leaves_keep_gradients(self):
        rng = np.random.default_rng(18)
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        prod = a * b
        total = prod + a
        loss = total.sum()
        loss.backward()
        assert prod.grad is None and total.grad is None and loss.grad is None
        np.testing.assert_array_equal(a.grad, b.data + 1.0)
        np.testing.assert_array_equal(b.grad, a.data)

    def test_repeated_calls_accumulate(self):
        x = Tensor(np.ones(3), requires_grad=True)
        x.sum().backward()
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, 2 * np.ones(3))
        T.zero_grads([x])
        assert x.grad is None

    def test_non_scalar_rejected(self):
        with pytest.raises(GraphError, match="scalar"):
            Tensor(np.zeros(3), requires_grad=True).backward()

    def test_backward_consumes_the_graph(self):
        x = Tensor(np.random.default_rng(19).standard_normal(4), requires_grad=True)
        loss = T.relu(x * 2.0).sum()
        assert loss._parents != ()
        loss.backward()
        assert loss._parents == ()
        with pytest.raises(GraphError, match="consumed"):
            loss.backward()

    def test_no_untracked_tensor_is_a_graph_parent(self):
        """Constant operands (a one-hot label array, scalars) are not recorded,
        so the graph keeps none of them alive until backward reaches them."""
        rng = np.random.default_rng(21)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        onehot = (rng.integers(0, 3, (2, 1, 4, 4)) == np.arange(3).reshape(3, 1, 1)).astype(float)
        loss = -(T.log_softmax(x * 2.0 + 1.0, axis=-3) * onehot).sum() / 32.0
        untracked, seen, stack = [], set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                if isinstance(node, Tensor) and not node.requires_grad:
                    untracked.append(node.shape)
                stack.extend(node._parents)
        assert untracked == []
        loss.backward()
        np.testing.assert_allclose(x.grad.sum(axis=1), 0.0, atol=1e-12)

    def test_unread_interior_array_dies_while_the_graph_lives(self):
        """relu(conv2d(x, w) + b): no closure reads the pre-bias conv output."""
        rng = np.random.default_rng(20)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 1, 1)), requires_grad=True)
        pre_bias = T.conv2d(x, w, padding=1)
        dead = weakref.ref(pre_bias.data)
        loss = T.relu(pre_bias + b).sum()
        del pre_bias
        assert dead() is None
        loss.backward()
        assert x.grad.shape == x.shape and w.grad.shape == w.shape and b.grad.shape == b.shape

    @pytest.mark.skipif(sys.platform != "linux", reason="the heap thresholds are set for glibc")
    def test_freed_heap_is_reused_without_page_faults(self):
        """A step's memory, freed by backward, stays mapped for the next step.
        With glibc's dynamic thresholds, freeing 8 MiB of 512 KiB arrays
        after a 1 MiB one hands the heap top back to the OS, and each round
        faults its 2016 pages in again (0 with the fixed thresholds)."""
        # a fresh process: the thresholds move with everything freed before
        child = (
            "import resource\n"
            "import numpy as np\n"
            "import codistill.tensor\n"
            "np.ones(2**17)\n"
            "faults = []\n"
            "for _ in range(3):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    arrays = [np.ones(2**16) for _ in range(16)]\n"
            "    del arrays\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "print(*faults)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(codistill.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60, check=True)
        assert max(map(int, done.stdout.split()[1:])) < 100, f"page faults per round: {done.stdout}"

    def test_full_composite_graph(self):
        """conv -> relu -> softmax -> cross-entropy against finite differences."""
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.4, requires_grad=True)
        onehot = np.zeros((3, 6, 6))
        onehot[rng.integers(0, 3, (6, 6)), np.arange(6)[:, None], np.arange(6)[None, :]] = 1.0

        def build():
            logits = T.relu(T.conv2d(x, w, stride=1, padding=1))
            logp = T.log_softmax(logits, axis=0)
            return -(logp * onehot).sum() / 36.0

        check_grads(build, [x, w], rtol=1e-3, label="composite")


class TestForwardHygiene:
    def test_forward_determinism_bitwise(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))

        def run():
            out = T.gelu(T.conv2d(Tensor(x), Tensor(w), stride=1, padding=1))
            return T.log_softmax(out, axis=0).data.tobytes() + T.attention(out, out, out).data.tobytes()

        assert run() == run()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_no_nan_on_finite_inputs(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((2, 4, 4)) * 100)
        ops = [
            T.attention(x, x, x),
            T.log_softmax(x, axis=0),
            T.relu(x),
            T.gelu(x),
            T.l2_norm(x, axis=0),
            T.bilinear_upsample(x, (7, 9)),
        ]
        for out in ops:
            assert np.all(np.isfinite(out.data))


@pytest.mark.parametrize("name,factory", OP_CHECKS, ids=[n for n, _ in OP_CHECKS])
@pytest.mark.parametrize("seed", range(10))
def test_op_gradients_match_finite_differences(name, factory, seed):
    rng = np.random.default_rng(seed)
    build, leaves = factory(rng)
    check_grads(build, leaves, label=name)
