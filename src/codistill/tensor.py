"""Dense float64 tensors with a dynamic reverse-mode autodiff tape.

Every op on a tracked input records a data-free node: its parents' nodes
(the tensors themselves for tracked leaves, one shared empty node for
untracked operands) and a closure mapping the output gradient to parent
gradients that keeps only what its formula reads (arrays, shapes, flags;
never a tensor), so an interior array no closure reads dies with its
tensor. ``backward()`` on a scalar replays the graph in reverse
topological order and consumes it: each node drops its parents and
closure as it runs, and a second backward through it raises
``GraphError``. Ops whose inputs are all untracked record nothing, so
constant subgraphs cost no backward work.

Conventions: row-major float64 everywhere, tensors are treated as
immutable once produced by an op. ``backward()`` sets ``.grad`` on tracked
leaves only (the parameters and any tensor built directly with
``requires_grad=True``); interior gradients are dropped as soon as their
closure has consumed them. Leaf gradients accumulate across backward
calls until ``zero_grads`` resets them. Backward closures never write into
their incoming gradient or into a parent's data, and return None for a
parent that does not require a gradient rather than computing one that
would be discarded. Ops take optional leading batch axes.
"""

from __future__ import annotations

import ctypes
import math
import sys

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_heap_mapped() -> None:
    """Fix glibc's heap thresholds so a step's memory stays mapped.

    ``backward()`` frees most of a step's arrays while it runs, so by the
    optimizer step the heap top is free unless one of the step's few
    long-lived arrays (parameters, optimizer state, leaf gradients) landed
    there, which varies from run to run. With glibc's dynamic trim
    threshold, a free top is handed back to the OS and the next step faults
    ~10 MiB of pages back in; this happened in some steps of some runs and
    not others (30k to 83k extra page faults over 300 default steps), so
    step times varied with it. A fixed trim threshold keeps the heap at its
    peak, which the peak RSS already counts, and a fixed mmap threshold of
    32 MiB (glibc's largest) keeps every array of a step on that heap.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_heap_mapped()


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class GraphError(ValueError):
    """Misuse of the autodiff graph, e.g. backward from a non-scalar."""


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _consumed(g):
    raise GraphError("backward() through a graph that an earlier backward() consumed")


class _Node:
    """One recorded op: parent nodes (or leaf tensors) and its backward closure."""

    __slots__ = ("_parents", "_backward")

    def __init__(self, parents, backward):
        self._parents = parents
        self._backward = backward


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_f64(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None

    @property
    def _parents(self):
        return () if self._node is None else self._node._parents

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError(f"item() needs a one-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", tracked" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}{flag})"

    def detach(self) -> "Tensor":
        """Same values, graph edge severed: upstream receives zero gradient."""
        return Tensor(self.data)

    def backward(self) -> None:
        """Accumulate d(self)/d(t) into t.grad for every tracked leaf t.

        Only leaves (tensors no op produced) get ``.grad``. An interior
        node's gradient lives in a local table until its closure has
        consumed it, then it is dropped, so a step never holds the
        gradients of the whole graph at once. Closures never write into
        the gradient they receive: ``add`` and ``reshape`` hand one array
        to several parents. Each node gives up its parents and closure as
        it runs, which frees what the closure kept.
        """
        if self.data.size != 1:
            raise GraphError(f"backward() needs a scalar loss, got shape {self.shape}")
        root = self._node or self
        topo = []
        seen = {id(root)}
        stack = [(root, iter(root._parents))]
        while stack:
            node, it = stack[-1]
            child = next(it, None)
            if child is None:
                topo.append(node)
                stack.pop()
            elif id(child) not in seen:
                seen.add(id(child))
                stack.append((child, iter(child._parents)))
        grads = {id(root): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            if isinstance(node, Tensor):
                if g is not None and node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            parents, backward = node._parents, node._backward
            node._parents, node._backward = (), _consumed
            if g is None:
                continue
            for parent, pg in zip(parents, backward(g)):
                if pg is None:
                    continue
                pid = id(parent)
                held = grads.get(pid)
                grads[pid] = pg if held is None else held + pg

    # operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def sum(self, axis=None):
        return tsum(self, axis=axis)

    def mean(self, axis=None):
        return tmean(self, axis=axis)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# the parent recorded for every untracked operand: closures send it no
# gradient, and recording the operand itself would keep its array alive
_UNTRACKED = _Node((), _consumed)


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple(p._node or (p if p.requires_grad else _UNTRACKED) for p in parents), backward)
    return out


def _shape_if_tracked(t: Tensor):
    """t's shape when t takes a gradient, else None: what most closures keep of an operand."""
    return t.shape if t.requires_grad else None


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


# Short-axis reductions as BLAS GEMVs: over the 16–48-element rows of the
# students' tokens, a numpy reduction costs about 9× a GEMV against a
# constant vector (27 vs 2.9 µs for the last-axis mean of an (8, 256, 16)
# array). The sum runs in BLAS's order, not numpy's, so the last bits can
# differ from ``np.sum``.

def _row_means(a: np.ndarray) -> np.ndarray:
    """Means over the last axis, kept as a length-1 axis: a GEMV against a 1/d vector."""
    d = a.shape[-1]
    return (a.reshape(-1, d) @ np.full(d, 1.0 / d)).reshape(*a.shape[:-1], 1)


def _leading_sum(a: np.ndarray, lead: int) -> np.ndarray:
    """Sum over the first `lead` axes: a GEMV of a ones vector against the rows."""
    rows, rest = math.prod(a.shape[:lead]), a.shape[lead:]
    return (np.ones(rows) @ a.reshape(rows, math.prod(rest))).reshape(rest)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = _leading_sum(g, extra)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _empty_in_layout(shape, strides) -> np.ndarray:
    """What np.empty_like gives for an array of this shape and strides,
    without holding that array: axes are laid out by decreasing |stride|,
    ties in axis order."""
    order = sorted(range(len(shape)), key=lambda a: -abs(strides[a]))
    return np.empty([shape[a] for a in order]).transpose(np.argsort(order))


# elementwise arithmetic (numpy broadcasting rules) -------------------

def add(a, b):
    a, b = _lift(a), _lift(b)
    sa, sb = _shape_if_tracked(a), _shape_if_tracked(b)

    def backward(g):
        return (
            None if sa is None else _unbroadcast(g, sa),
            None if sb is None else _unbroadcast(g, sb),
        )

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b):
    a, b = _lift(a), _lift(b)
    sa, sb = _shape_if_tracked(a), _shape_if_tracked(b)

    def backward(g):
        return (
            None if sa is None else _unbroadcast(g, sa),
            None if sb is None else _unbroadcast(-g, sb),
        )

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b):
    a, b = _lift(a), _lift(b)
    sa, sb = _shape_if_tracked(a), _shape_if_tracked(b)
    # each gradient reads the partner's data: keep it only for a tracked operand
    ad = None if sb is None else a.data
    bd = None if sa is None else b.data

    def backward(g):
        return (
            None if sa is None else _unbroadcast(g * bd, sa),
            None if sb is None else _unbroadcast(g * ad, sb),
        )

    return _make(a.data * b.data, (a, b), backward)


def div(a, b):
    a, b = _lift(a), _lift(b)
    sa, sb = _shape_if_tracked(a), _shape_if_tracked(b)
    ad = None if sb is None else a.data
    bd = b.data  # both gradients read it

    def backward(g):
        ga = None if sa is None else _unbroadcast(g / bd, sa)
        gb = None if sb is None else _unbroadcast(-g * ad / (bd * bd), sb)
        return ga, gb

    return _make(a.data / b.data, (a, b), backward)


def exp(x):
    x = _lift(x)
    out = np.exp(x.data)

    def backward(g):
        return (g * out,)

    return _make(out, (x,), backward)


def relu(x):
    x = _lift(x)
    out = np.maximum(x.data, 0.0)

    def backward(g):
        # out > 0 exactly where x > 0 (NaN propagates, and is > 0 in neither)
        return (g * (out > 0.0),)

    return _make(out, (x,), backward)


_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def _gelu_tanh(v):
    """tanh(c (v + a v² v)), computed in place on one new array."""
    t = v * v
    t *= _GELU_A
    t *= v
    t += v
    t *= _GELU_C
    return np.tanh(t, out=t)


def gelu(x):
    """Tanh-form gelu; smooth, so finite differences check cleanly.

    Computed in place on arrays this op allocates, in the operation order
    of 0.5 v (1 + tanh(c (v + a v² v))). Only v is kept: the backward
    rebuilds the tanh from it in the same order, so it is bit for bit the
    forward's.
    """
    x = _lift(x)
    v = x.data
    out = 0.5 * v
    out *= 1.0 + _gelu_tanh(v)

    def backward(g):
        # g * (0.5 (1 + t) + 0.5 v (1 - t²) c (1 + 3 a v²)), in an order that
        # holds three operand-sized arrays at once: du goes into t's buffer
        # once 1 + t is taken
        t = _gelu_tanh(v)
        sech2 = t * t
        np.subtract(1.0, sech2, out=sech2)
        slope = 0.5 * v
        slope *= sech2
        gx = np.add(1.0, t, out=sech2)
        du = np.multiply(v, v, out=t)
        du *= 3.0 * _GELU_A
        du += 1.0
        du *= _GELU_C
        slope *= du
        gx *= 0.5
        gx += slope
        gx *= g
        return (gx,)

    return _make(out, (x,), backward)


# reductions ----------------------------------------------------------

def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _kept(shape, axes):
    """shape with the reduced axes kept at length 1."""
    return [1 if a in axes else n for a, n in enumerate(shape)]


def tsum(x, axis=None):
    x = _lift(x)
    axes = _norm_axes(axis, x.ndim)
    shape = x.shape

    def backward(g):
        return (np.broadcast_to(g.reshape(_kept(shape, axes)), shape),)

    return _make(x.data.sum(axis=axes), (x,), backward)


def tmean(x, axis=None):
    x = _lift(x)
    axes = _norm_axes(axis, x.ndim)
    shape = x.shape
    count = math.prod(shape[a] for a in axes)

    def backward(g):
        return (np.broadcast_to(g.reshape(_kept(shape, axes)) / count, shape),)

    return _make(x.data.mean(axis=axes), (x,), backward)


def l2_norm(x, axis):
    """Euclidean norm along one axis; zero vectors get zero gradient."""
    x = _lift(x)
    ax = axis % x.ndim
    xd = x.data
    n = np.sqrt((xd * xd).sum(axis=ax))

    def backward(g):
        return (np.expand_dims(g, ax) * xd / np.maximum(np.expand_dims(n, ax), 1e-12),)

    return _make(n, (x,), backward)


# shape manipulation ---------------------------------------------------

def reshape(x, shape):
    x = _lift(x)
    in_shape = x.shape

    def backward(g):
        return (g.reshape(in_shape),)

    return _make(x.data.reshape(shape), (x,), backward)


def transpose(x, axes):
    x = _lift(x)
    inv = tuple(np.argsort(axes))

    def backward(g):
        return (g.transpose(inv),)

    return _make(x.data.transpose(axes), (x,), backward)


# linear algebra and stencils -----------------------------------------
#
# The stencil ops (conv2d, avg_pool2d, bilinear_upsample) act on the
# trailing C×H×W axes; any leading axes are batch axes, and each image is
# computed exactly as it would be on its own.

def matmul(a, b):
    """(..., m, k) @ (k, n): one matrix applied to every leading row."""
    a, b = _lift(a), _lift(b)
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul needs (...,m,k)@(k,n); got {tuple(a.shape)} and {tuple(b.shape)}")

    ad = a.data if b.requires_grad else None
    bd = b.data if a.requires_grad else None

    def backward(g):
        ga = None if bd is None else g @ bd.T
        # one GEMM over every leading row instead of a stack of them
        gb = None if ad is None else ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return ga, gb

    return _make(a.data @ b.data, (a, b), backward)


def _windows(xd, k, stride, padding):
    """The k×k windows of a (...×)C×H×W array as a ...×C×k×k×H_out×W_out
    view (of x itself where the windows tile it, else of the padded input
    with the leading axes flattened): conv2d's column matrix, unreshaped."""
    c, h, wid = xd.shape[-3:]
    if k == stride and padding == 0:
        nl = xd.ndim - 3
        split = xd.reshape(*xd.shape[:-2], h // k, k, wid // k, k)
        return split.transpose(*range(nl + 1), nl + 2, nl + 4, nl + 1, nl + 3)
    xb = xd.reshape(-1, c, h, wid)
    xp = np.pad(xb, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else xb
    return sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride].transpose(0, 1, 4, 5, 2, 3)


def conv2d(x, w, stride=1, padding=0):
    """Cross-correlation of a (...×)C×H×W input with an O×C×k×k kernel.

    The output extent (H + 2*padding - k)/stride + 1 must be a positive
    integer; fractional extents are rejected rather than floored.
    """
    x, w = _lift(x), _lift(w)
    if x.ndim < 3:
        raise ShapeError(f"conv2d input must be C×H×W with optional leading axes, got {tuple(x.shape)}")
    if w.ndim != 4 or w.shape[2] != w.shape[3]:
        raise ShapeError(f"conv2d kernel must be O×C×k×k with square k, got {tuple(w.shape)}")
    c_out, c_in, k, _ = w.shape
    if c_in != x.shape[-3]:
        raise ShapeError(f"conv2d channel mismatch: input {tuple(x.shape)} vs kernel {tuple(w.shape)}")
    if k < 1 or stride < 1 or padding < 0:
        raise ShapeError(f"conv2d needs k>=1, stride>=1, padding>=0; got k={k}, stride={stride}, padding={padding}")
    h, wid = x.shape[-2:]
    qh, rh = divmod(h + 2 * padding - k, stride)
    qw, rw = divmod(wid + 2 * padding - k, stride)
    h_out, w_out = qh + 1, qw + 1
    if rh or rw or h_out < 1 or w_out < 1:
        raise ShapeError(
            f"conv2d output size not integral/positive for input {tuple(x.shape)}, "
            f"kernel {tuple(w.shape)}, stride={stride}, padding={padding}"
        )
    lead, nl = x.shape[:-3], x.ndim - 3
    tile = k == stride and padding == 0
    win = _windows(x.data, k, stride, padding)
    n = math.prod(win.shape[:-5])
    wm = w.data.reshape(c_out, -1)
    data = (wm @ win.reshape(n, c_in * k * k, h_out * w_out)).reshape(*lead, c_out, h_out, w_out)
    # backward keeps x, not the column matrix, and rebuilds the columns from
    # it for gw; for gx it keeps the kernel and x's shape and layout
    xd = x.data if w.requires_grad else None
    x_shape, x_strides = (x.shape, x.data.strides) if x.requires_grad else (None, None)

    def backward(g):
        gm = g.reshape(n, c_out, h_out * w_out)
        gw = None
        if xd is not None:
            # np.tensordot(gm, columns)'s operand, an (n·h_out·w_out, c·k·k)
            # copy made straight from x. Two copies, each with long inner
            # runs, beat one straight to the rows, whose innermost axes are k
            # long: the columns, then their transpose (at batch 8, 59 against
            # 90 µs on conv1's shapes, 17 against 43 µs on the patch
            # embedding's); one expression, so neither the padded input nor
            # the columns is held through the GEMM, where conv1's gw sets the
            # CE-only step's peak
            rows = np.ascontiguousarray(_windows(xd, k, stride, padding)).reshape(n, c_in * k * k, -1).transpose(0, 2, 1).reshape(-1, c_in * k * k)
            gw = np.dot(gm.transpose(1, 0, 2).reshape(c_out, -1), rows).reshape(c_out, c_in, k, k)
        if x_shape is None:
            return None, gw
        gcols = (wm.T @ gm).reshape(n, c_in, k, k, h_out, w_out)
        if tile:
            # gx keeps x's memory layout: downstream reductions depend on strides
            gx = _empty_in_layout(x_shape, x_strides)
            dst = gx.reshape(*lead, c_in, h_out, k, w_out, k)  # only splits axes, so a view of gx
            np.copyto(dst, gcols.reshape(*lead, c_in, k, k, h_out, w_out).transpose(*range(nl), nl, nl + 3, nl + 1, nl + 4, nl + 2))
            return gx, gw
        gxp = np.zeros((n, c_in, h + 2 * padding, wid + 2 * padding))  # the padded input's shape
        for i in range(k):
            for j in range(k):
                gxp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += gcols[:, :, i, j]
        gx = gxp[:, :, padding : padding + h, padding : padding + wid] if padding else gxp
        return gx.reshape(x_shape), gw

    return _make(data, (x, w), backward)


def avg_pool2d(x, k):
    """Mean over the k×k tiles of the trailing H×W axes, which they must tile exactly."""
    x = _lift(x)
    if x.ndim < 3:
        raise ShapeError(f"avg_pool2d input must be C×H×W with optional leading axes, got {tuple(x.shape)}")
    if k < 1:
        raise ShapeError(f"avg_pool2d needs k>=1, got k={k}")
    h, wid = x.shape[-2:]
    if h < k or wid < k or h % k or wid % k:
        raise ShapeError(f"avg_pool2d windows (k={k}) do not tile input {tuple(x.shape)}")
    # k² strided tile adds: each tile row summed left to right, then the rows
    # top to bottom; at the program's k = 2 that is numpy's own order for a
    # mean over the window axes, so the bits match it
    xd = x.data
    data = None
    for i in range(k):
        row = xd[..., i::k, ::k].copy()
        for j in range(1, k):
            row += xd[..., i::k, j::k]
        data = row if data is None else np.add(data, row, out=data)
    data /= k * k
    shape = x.shape

    def backward(g):
        gx = np.zeros(shape)
        tiles = gx.reshape(*shape[:-2], h // k, k, wid // k, k)  # only splits axes, so a view of gx
        tiles += (g / (k * k))[..., :, None, :, None]
        return (gx,)

    return _make(data, (x,), backward)


# 2·max_i m_i above which attention shifts by the exact row max instead
_SHIFT_LIMIT = 300.0


def _rowdot(a, b):
    """Dot products of matching rows: sum over the last axis of a ⊙ b."""
    return np.einsum("...i,...i->...", a, b)


def _exp_scores(q, k, shift, qa, kat, e):
    """One image's E = exp([q, shift]·[kᵀ; 1]) into e, through the buffers qa and kat."""
    d = q.shape[-1]
    qa[..., :d] = q
    qa[..., d:] = shift
    kat[..., :d, :] = np.swapaxes(k, -1, -2)
    np.matmul(qa, kat, out=e)
    np.exp(e, out=e)


def attention(q, k, v):
    """softmax(q kᵀ) v over the last two axes of (..., T, d) operands, as one node.

    q, k and v share their leading axes; k and v share T, q and k share d.
    Forward and backward loop over images: every leading index but the
    last (the heads axis), so one image's T×T block for all heads is built
    and consumed while it sits in cache.

    Softmax ignores a per-row shift, so any upper bound on the row max
    keeps exp ≤ 1 as well as the max does (online softmax, arXiv:1805.02867;
    FlashAttention, arXiv:2205.14135). Row i is shifted by
    m_i = ‖q_i‖·max_j ‖k_j‖, which is at least max_j q_i·k_j by
    Cauchy–Schwarz, and the shift rides in the score GEMM: with
    q̃ = [q, −m] and k̃ = [k, 1], q̃ k̃ᵀ = S − m, and E = exp(S − m) is taken
    in place. With ṽ = [v, 1], E ṽ = [E v, s] gives the row sums s with the
    product, and O = (E v) / s. So the forward makes three passes over the
    scores (GEMM, exp, GEMM) and no T×T divide. m takes no gradient: O does
    not depend on it in reals.

    Guard: since |S_ij| ≤ m_i, every row keeps an entry of E at least
    e^(−2 m_i). Where 2·max_i m_i ≤ 300 for an image, s ≥ e^−300, a normal
    float, and g′ = dO / s stays below e^300·|dO|, so g′ vᵀ stays finite
    unless |dO|·|v| nears 1e178. Above that limit the image is shifted by
    its exact row max instead, taken from a plain q kᵀ; the GEMM, exp and
    product stay the same.

    The backward takes g′ = dO / s one image at a time; dv = Eᵀ g′ and
    dS = [g′, −rowsum(g′ ⊙ O)] · [vᵀ; 1] ⊙ E, one GEMM and one multiply,
    which equal Pᵀ dO and (dO vᵀ − rowsum(dO ⊙ O)) ⊙ P for the weights
    P = E / s. No E is kept: the forward stores the shift column −m and s,
    and the backward rebuilds each image's E = exp([q, −m]·[kᵀ; 1]) in one
    image-sized block by the forward's own calls on the same operands, so
    it is the forward's E bit for bit, the guard's exact shift included.
    Rebuilding is the cheaper way: a whole-batch E (8 MiB at stage 1)
    does not fit a 1 MiB per-core L2, so writing it in the forward and
    reading it back twice in the backward costs more than a second GEMM
    and exp into one cache-resident block.
    """
    q, k, v = _lift(q), _lift(k), _lift(v)
    if q.ndim < 2 or k.ndim != q.ndim or k.shape[:-1] != v.shape[:-1] or q.shape[:-2] != k.shape[:-2] or q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"attention needs q (...,T,d), k (...,S,d), v (...,S,e); got {tuple(q.shape)}, {tuple(k.shape)}, {tuple(v.shape)}")
    lead = q.shape[:-3]
    images = list(np.ndindex(lead))
    d, ev = q.shape[-1], v.shape[-1]
    block = (*q.shape[len(lead) : -1], k.shape[-2])  # one image's scores, all heads
    qd, kd, vd = q.data, k.data, v.data
    shift = np.sqrt(_rowdot(qd, qd))[..., None]
    shift *= -np.sqrt(_rowdot(kd, kd).max(axis=-1))[..., None, None]  # −m
    qa = np.empty((*block[:-1], d + 1))  # [q, −m]
    kat = np.ones((*block[:-2], d + 1, block[-1]))  # [kᵀ; 1]
    va = np.ones((*block[:-2], block[-1], ev + 1))  # [v, 1]
    e = np.empty(block)
    s = np.empty((*q.shape[:-1], 1))
    out = np.empty((*q.shape[:-1], ev))
    prod = np.empty((*block[:-1], ev + 1))
    for i in images:
        if -2.0 * shift[i].min() > _SHIFT_LIMIT:
            np.matmul(qd[i], np.swapaxes(kd[i], -1, -2), out=e)
            np.negative(e.max(axis=-1, keepdims=True), out=shift[i])
        _exp_scores(qd[i], kd[i], shift[i], qa, kat, e)
        va[..., :ev] = vd[i]
        np.matmul(e, va, out=prod)
        s[i] = prod[..., ev:]
        np.divide(prod[..., :ev], s[i], out=out[i])
    sq, sk, sv = _shape_if_tracked(q), _shape_if_tracked(k), _shape_if_tracked(v)
    vd = None if sq is None and sk is None else vd  # only dS reads v

    def backward(g):
        gq = None if sq is None else np.empty(sq)
        gk = None if sk is None else np.empty(sk)
        gv = None if sv is None else np.empty(sv)
        qa = np.empty((*block[:-1], d + 1))
        kat = np.ones((*block[:-2], d + 1, block[-1]))
        e = np.empty(block)
        ga = np.empty((*block[:-1], ev + 1))  # [g′, −rowsum(g′ ⊙ O)]
        gp = ga[..., :ev]
        if vd is not None:
            vat = np.ones((*block[:-2], ev + 1, block[-1]))  # [vᵀ; 1]
            ds = np.empty(block)
        for i in images:
            _exp_scores(qd[i], kd[i], shift[i], qa, kat, e)
            np.divide(g[i], s[i], out=gp)
            if gv is not None:
                np.matmul(np.swapaxes(e, -1, -2), gp, out=gv[i])
            if vd is None:
                continue
            np.negative(_rowdot(gp, out[i]), out=ga[..., ev])
            vat[..., :ev, :] = np.swapaxes(vd[i], -1, -2)
            np.matmul(ga, vat, out=ds)
            ds *= e
            if gq is not None:
                np.matmul(ds, kd[i], out=gq[i])
            if gk is not None:
                np.matmul(np.swapaxes(ds, -1, -2), qd[i], out=gk[i])
        return gq, gk, gv

    return _make(out, (q, k, v), backward)


def log_softmax(x, axis):
    x = _lift(x)
    ls = x.data - x.data.max(axis=axis, keepdims=True)
    ls -= np.log(np.exp(ls).sum(axis=axis, keepdims=True))

    def backward(g):
        return (g - np.exp(ls) * g.sum(axis=axis, keepdims=True),)

    return _make(ls, (x,), backward)


_LN_EPS = 1e-5


def layer_norm(x, gain, bias):
    """Normalize along the last axis (population variance), then scale and shift."""
    x, gain, bias = _lift(x), _lift(gain), _lift(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({d},), got {tuple(gain.shape)} and {tuple(bias.shape)}")
    # in place on arrays this op allocates, in the order of
    # xhat = (x - mu) / sqrt(var + eps) and xhat * gain + bias
    xhat = x.data - _row_means(x.data)
    data = xhat * xhat
    r = 1.0 / np.sqrt(_row_means(data) + _LN_EPS)
    xhat *= r
    np.multiply(xhat, gain.data, out=data)
    data += bias.data
    lead = x.ndim - 1
    gain_data = gain.data if x.requires_grad else None  # only gx reads the gain
    tracked_gain, tracked_bias = gain.requires_grad, bias.requires_grad

    def backward(g):
        # gx = r * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = g * gain
        gx = prod = None
        if gain_data is not None:
            gx = g * gain_data
            m1 = _row_means(gx)
            prod = gx * xhat
            m2 = _row_means(prod)
            gx -= m1
            np.multiply(xhat, m2, out=prod)
            gx -= prod
            gx *= r
        ggain = _leading_sum(np.multiply(g, xhat, out=prod), lead) if tracked_gain else None
        gbias = _leading_sum(g, lead) if tracked_bias else None
        return gx, ggain, gbias

    return _make(data, (x, gain, bias), backward)


_INTERP_CACHE: dict = {}


def _interp_matrix(n_in: int, n_out: int) -> np.ndarray:
    """1-D bilinear interpolation matrix, half-pixel centers, no corner alignment."""
    key = (n_in, n_out)
    m = _INTERP_CACHE.get(key)
    if m is None:
        m = np.zeros((n_out, n_in))
        pos = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
        lo = np.floor(pos).astype(int)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = pos - lo
        rows = np.arange(n_out)
        np.add.at(m, (rows, lo), 1.0 - frac)
        np.add.at(m, (rows, hi), frac)
        _INTERP_CACHE[key] = m
    return m


def bilinear_upsample(x, out_hw):
    """Resize the trailing h×w axes of a (...×)C×h×w map to H×W, separable bilinear."""
    x = _lift(x)
    if x.ndim < 3:
        raise ShapeError(f"bilinear_upsample input must be C×H×W with optional leading axes, got {tuple(x.shape)}")
    h_out, w_out = out_hw
    rmat = _interp_matrix(x.shape[-2], h_out)
    cmat = _interp_matrix(x.shape[-1], w_out)
    data = rmat @ (x.data @ cmat.T)

    def backward(g):
        return ((rmat.T @ g) @ cmat,)

    return _make(data, (x,), backward)
