"""Dense float64 tensors with a dynamic reverse-mode autodiff tape.

Every op records its parent tensors and a closure mapping the output
gradient to parent gradients; ``backward()`` on a scalar replays the
recorded graph in reverse topological order. Ops whose inputs are all
untracked record nothing, so constant subgraphs cost no backward work.

Conventions: row-major float64 everywhere, tensors are treated as
immutable once produced by an op, gradients accumulate across backward
calls until ``zero_grads`` resets them. Backward closures return None for
a parent that does not require a gradient rather than computing one that
would be discarded. Ops take optional leading batch axes.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class GraphError(ValueError):
    """Misuse of the autodiff graph, e.g. backward from a non-scalar."""


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_f64(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

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
        """Accumulate d(self)/d(t) into t.grad for every tracked tensor t."""
        if self.data.size != 1:
            raise GraphError(f"backward() needs a scalar loss, got shape {self.shape}")
        topo = []
        seen = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, it = stack[-1]
            child = next(it, None)
            if child is None:
                topo.append(node)
                stack.pop()
            elif id(child) not in seen:
                seen.add(id(child))
                stack.append((child, iter(child._parents)))
        grads = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is not None:
                for parent, pg in zip(node._parents, node._backward(g)):
                    if pg is None or not parent.requires_grad:
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

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes or None)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


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


# elementwise arithmetic (numpy broadcasting rules) -------------------

def add(a, b):
    a, b = _lift(a), _lift(b)

    def backward(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b):
    a, b = _lift(a), _lift(b)

    def backward(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        )

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b):
    a, b = _lift(a), _lift(b)

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _make(a.data * b.data, (a, b), backward)


def div(a, b):
    a, b = _lift(a), _lift(b)

    def backward(g):
        ga = _unbroadcast(g / b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape) if b.requires_grad else None
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

    def backward(g):
        return (g * (x.data > 0.0),)

    return _make(np.maximum(x.data, 0.0), (x,), backward)


_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715


def gelu(x):
    """Tanh-form gelu; smooth, so finite differences check cleanly."""
    x = _lift(x)
    v = x.data
    v2 = v * v
    t = np.tanh(_GELU_C * (v + _GELU_A * v2 * v))
    out = 0.5 * v * (1.0 + t)

    def backward(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * v2)
        return (g * (0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du),)

    return _make(out, (x,), backward)


# reductions ----------------------------------------------------------

def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def tsum(x, axis=None, keepdims=False):
    x = _lift(x)
    axes = _norm_axes(axis, x.ndim)
    data = x.data.sum(axis=axes, keepdims=keepdims)

    def backward(g):
        if not keepdims:
            kd = list(x.shape)
            for a in axes:
                kd[a] = 1
            g = g.reshape(kd)
        return (np.broadcast_to(g, x.shape),)

    return _make(data, (x,), backward)


def tmean(x, axis=None, keepdims=False):
    x = _lift(x)
    axes = _norm_axes(axis, x.ndim)
    count = 1
    for a in axes:
        count *= x.shape[a]
    data = x.data.mean(axis=axes, keepdims=keepdims)

    def backward(g):
        if not keepdims:
            kd = list(x.shape)
            for a in axes:
                kd[a] = 1
            g = g.reshape(kd)
        return (np.broadcast_to(g / count, x.shape),)

    return _make(data, (x,), backward)


def l2_norm(x, axis, keepdims=False):
    """Euclidean norm along one axis; zero vectors get zero gradient."""
    x = _lift(x)
    ax = axis % x.ndim
    n = np.sqrt((x.data * x.data).sum(axis=ax, keepdims=keepdims))

    def backward(g):
        if keepdims:
            gg, nn = g, n
        else:
            gg, nn = np.expand_dims(g, ax), np.expand_dims(n, ax)
        return (gg * x.data / np.maximum(nn, 1e-12),)

    return _make(n, (x,), backward)


# shape manipulation ---------------------------------------------------

def reshape(x, shape):
    x = _lift(x)

    def backward(g):
        return (g.reshape(x.shape),)

    return _make(x.data.reshape(shape), (x,), backward)


def transpose(x, axes=None):
    x = _lift(x)
    if axes is None:
        axes = tuple(reversed(range(x.ndim)))
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
    """(..., m, k) @ (k, n) or (..., m, k) @ (..., k, n), leading axes broadcast."""
    a, b = _lift(a), _lift(b)
    bad = ShapeError(f"matmul needs (...,m,k)@(...,k,n); got {tuple(a.shape)} and {tuple(b.shape)}")
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise bad
    try:
        data = a.data @ b.data
    except ValueError:  # leading axes that do not broadcast
        raise bad from None

    def backward(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None
        gb = None
        if b.requires_grad and b.ndim == 2:
            # one GEMM over every leading row instead of a stack of them
            gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        elif b.requires_grad:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _make(data, (a, b), backward)


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
    xb = x.data.reshape(-1, c_in, h, wid)
    n = xb.shape[0]
    xp = np.pad(xb, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else xb
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c_in * k * k, h_out * w_out)
    wm = w.data.reshape(c_out, -1)
    data = (wm @ cols).reshape(*x.shape[:-3], c_out, h_out, w_out)

    def backward(g):
        gm = g.reshape(n, c_out, h_out * w_out)
        gw = np.tensordot(gm, cols, axes=([0, 2], [0, 2])).reshape(w.shape) if w.requires_grad else None
        if not x.requires_grad:
            return None, gw
        gcols = (wm.T @ gm).reshape(n, c_in, k, k, h_out, w_out)
        gxp = np.zeros_like(xp)
        for i in range(k):
            for j in range(k):
                gxp[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += gcols[:, :, i, j]
        gx = gxp[:, :, padding : padding + h, padding : padding + wid] if padding else gxp
        return gx.reshape(x.shape), gw

    return _make(data, (x, w), backward)


def avg_pool2d(x, k, stride=None):
    """Mean over k×k windows of the trailing H×W axes; the window grid must tile them exactly."""
    x = _lift(x)
    stride = k if stride is None else stride
    if x.ndim < 3:
        raise ShapeError(f"avg_pool2d input must be C×H×W with optional leading axes, got {tuple(x.shape)}")
    if k < 1 or stride < 1:
        raise ShapeError(f"avg_pool2d needs k>=1 and stride>=1, got k={k}, stride={stride}")
    h, wid = x.shape[-2:]
    qh, rh = divmod(h - k, stride)
    qw, rw = divmod(wid - k, stride)
    h_out, w_out = qh + 1, qw + 1
    if h < k or wid < k or rh or rw:
        raise ShapeError(f"avg_pool2d windows (k={k}, stride={stride}) do not tile input {tuple(x.shape)}")
    win = sliding_window_view(x.data, (k, k), axis=(-2, -1))[..., ::stride, ::stride, :, :]
    data = win.mean(axis=(-2, -1))

    def backward(g):
        gx = np.zeros_like(x.data)
        gk = g / (k * k)
        for i in range(k):
            for j in range(k):
                gx[..., i : i + stride * h_out : stride, j : j + stride * w_out : stride] += gk
        return (gx,)

    return _make(data, (x,), backward)


def softmax(x, axis):
    x = _lift(x)
    s = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)

    def backward(g):
        gx = g - (g * s).sum(axis=axis, keepdims=True)
        gx *= s
        return (gx,)

    return _make(s, (x,), backward)


def log_softmax(x, axis):
    x = _lift(x)
    ls = x.data - x.data.max(axis=axis, keepdims=True)
    ls -= np.log(np.exp(ls).sum(axis=axis, keepdims=True))

    def backward(g):
        return (g - np.exp(ls) * g.sum(axis=axis, keepdims=True),)

    return _make(ls, (x,), backward)


def layer_norm(x, gain, bias, axis=-1, eps=1e-5):
    """Normalize along `axis` (population variance), then scale and shift."""
    x, gain, bias = _lift(x), _lift(gain), _lift(bias)
    ax = axis % x.ndim
    d = x.shape[ax]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({d},), got {tuple(gain.shape)} and {tuple(bias.shape)}")
    bshape = [1] * x.ndim
    bshape[ax] = d
    gb = gain.data.reshape(bshape)
    mu = x.data.mean(axis=ax, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=ax, keepdims=True)
    r = 1.0 / np.sqrt(var + eps)
    xhat = xc * r
    data = xhat * gb + bias.data.reshape(bshape)
    red = tuple(i for i in range(x.ndim) if i != ax)

    def backward(g):
        gx = None
        if x.requires_grad:
            dxhat = g * gb
            m1 = dxhat.mean(axis=ax, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=ax, keepdims=True)
            gx = r * (dxhat - m1 - xhat * m2)
        ggain = (g * xhat).sum(axis=red) if gain.requires_grad else None
        gbias = g.sum(axis=red) if bias.requires_grad else None
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
