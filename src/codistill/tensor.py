"""Dense float64 tensors with a dynamic reverse-mode autodiff tape.

Every op on a tracked input records a data-free node: its parents' nodes
(or the tensors themselves, for leaves and constants) and a closure
mapping the output gradient to parent gradients that keeps only what its
formula reads (arrays, shapes, flags; never a tensor), so an interior
array no closure reads dies with its tensor. ``backward()`` on a scalar
replays the graph in reverse topological order and consumes it: each node
drops its parents and closure as it runs, and a second backward through
it raises ``GraphError``. Ops whose inputs are all untracked record
nothing, so constant subgraphs cost no backward work.

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
    def _backward(self):
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, backward):
        self._node._backward = backward

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


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(tuple(p._node or p for p in parents), backward)
    return out


def _shape_if_tracked(t: Tensor):
    """t's shape when t takes a gradient, else None: what most closures keep of an operand."""
    return t.shape if t.requires_grad else None


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
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


def gelu(x):
    """Tanh-form gelu; smooth, so finite differences check cleanly.

    Computed in place on arrays this op allocates, in the operation order
    of 0.5 v (1 + tanh(c (v + a v² v))); only v and the tanh are kept.
    """
    x = _lift(x)
    v = x.data
    t = v * v
    t *= _GELU_A
    t *= v
    t += v
    t *= _GELU_C
    np.tanh(t, out=t)
    out = 0.5 * v
    out *= 1.0 + t

    def backward(g):
        # g * (0.5 (1 + t) + 0.5 v (1 - t²) c (1 + 3 a v²))
        du = v * v
        du *= 3.0 * _GELU_A
        du += 1.0
        du *= _GELU_C
        sech2 = t * t
        np.subtract(1.0, sech2, out=sech2)
        slope = 0.5 * v
        slope *= sech2
        slope *= du
        gx = np.add(1.0, t, out=sech2)
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
    if tile:
        # the windows tile the input: the column matrix is a reshape/transpose
        # of x, and each input pixel gets exactly one column entry back
        split = x.data.reshape(*lead, c_in, h_out, k, w_out, k)
        cols = split.transpose(*range(nl), nl, nl + 2, nl + 4, nl + 1, nl + 3).reshape(-1, c_in * k * k, h_out * w_out)
    else:
        xb = x.data.reshape(-1, c_in, h, wid)
        xp = np.pad(xb, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else xb
        win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
        cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(-1, c_in * k * k, h_out * w_out)
    n = cols.shape[0]
    wm = w.data.reshape(c_out, -1)
    data = (wm @ cols).reshape(*lead, c_out, h_out, w_out)
    # backward reads the columns for gw, and the kernel and x's shape and layout for gx
    cols = cols if w.requires_grad else None
    x_shape, x_strides = (x.shape, x.data.strides) if x.requires_grad else (None, None)

    def backward(g):
        gm = g.reshape(n, c_out, h_out * w_out)
        gw = None if cols is None else np.tensordot(gm, cols, axes=([0, 2], [0, 2])).reshape(c_out, c_in, k, k)
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
    win = sliding_window_view(x.data, (k, k), axis=(-2, -1))[..., ::k, ::k, :, :]
    data = win.mean(axis=(-2, -1))
    shape = x.shape

    def backward(g):
        gx = np.zeros(shape)
        tiles = gx.reshape(*shape[:-2], h // k, k, wid // k, k)  # only splits axes, so a view of gx
        tiles += (g / (k * k))[..., :, None, :, None]
        return (gx,)

    return _make(data, (x,), backward)


def attention(q, k, v):
    """softmax(q kᵀ) v over the last two axes of (..., T, d) operands, as one node.

    q, k and v share their leading axes; k and v share T, q and k share d.
    Forward and backward loop over images: every leading index but the
    last (the heads axis), so one image's T×T block for all heads is built
    and consumed while it sits in cache, from views of q, k and v. The
    block E = exp(S − rowmax S) is built in place in its slot of one saved
    buffer, and its row sums s are kept as a (..., T, 1) array. The output
    is normalised after the product, O = (E v) / s, so no T×T divide is
    made. The backward takes g′ = dO / s one image at a time; then
    dv = Eᵀ g′ and dS = (g′ vᵀ − rowsum(g′ ⊙ O)) ⊙ E, which equal
    Pᵀ dO and (dO vᵀ − rowsum(dO ⊙ O)) ⊙ P for the weights P = E / s.
    """
    q, k, v = _lift(q), _lift(k), _lift(v)
    if q.ndim < 2 or k.ndim != q.ndim or k.shape[:-1] != v.shape[:-1] or q.shape[:-2] != k.shape[:-2] or q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"attention needs q (...,T,d), k (...,S,d), v (...,S,e); got {tuple(q.shape)}, {tuple(k.shape)}, {tuple(v.shape)}")
    images = list(np.ndindex(q.shape[:-3]))
    kt = np.swapaxes(k.data, -1, -2)
    e = np.empty((*q.shape[:-1], k.shape[-2]))
    s = np.empty((*q.shape[:-1], 1))
    out = np.empty((*q.shape[:-1], v.shape[-1]))
    for i in images:
        ei = np.matmul(q.data[i], kt[i], out=e[i])
        ei -= ei.max(axis=-1, keepdims=True)
        np.exp(ei, out=ei)
        ei.sum(axis=-1, keepdims=True, out=s[i])
        np.matmul(ei, v.data[i], out=out[i])
        out[i] /= s[i]
    sq, sk, sv = _shape_if_tracked(q), _shape_if_tracked(k), _shape_if_tracked(v)
    # dS reads v, gq reads k and gk reads q
    vt = None if sq is None and sk is None else np.swapaxes(v.data, -1, -2)
    kd = None if sq is None else k.data
    qd = None if sk is None else q.data

    def backward(g):
        gq = None if sq is None else np.empty(sq)
        gk = None if sk is None else np.empty(sk)
        gv = None if sv is None else np.empty(sv)
        for i in images:
            gi = g[i] / s[i]
            if gv is not None:
                np.matmul(np.swapaxes(e[i], -1, -2), gi, out=gv[i])
            if gq is None and gk is None:
                continue
            ds = gi @ vt[i]
            ds -= (gi * out[i]).sum(axis=-1, keepdims=True)
            ds *= e[i]
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
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    data = xhat * xhat
    r = 1.0 / np.sqrt(data.mean(axis=-1, keepdims=True) + _LN_EPS)
    xhat *= r
    np.multiply(xhat, gain.data, out=data)
    data += bias.data
    red = tuple(range(x.ndim - 1))
    gain_data = gain.data if x.requires_grad else None  # only gx reads the gain
    tracked_gain, tracked_bias = gain.requires_grad, bias.requires_grad

    def backward(g):
        # gx = r * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = g * gain
        gx = prod = None
        if gain_data is not None:
            gx = g * gain_data
            m1 = gx.mean(axis=-1, keepdims=True)
            prod = gx * xhat
            m2 = prod.mean(axis=-1, keepdims=True)
            gx -= m1
            np.multiply(xhat, m2, out=prod)
            gx -= prod
            gx *= r
        ggain = np.multiply(g, xhat, out=prod).sum(axis=red) if tracked_gain else None
        gbias = g.sum(axis=red) if tracked_bias else None
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
