"""Central finite-difference gradient oracle.

Kept independent of the tape: numeric gradients come from re-running the
forward pass with perturbed leaf values, never from the autodiff graph
they are checking.
"""

import numpy as np

from codistill.tensor import zero_grads

STEP = 1e-4
RTOL = 1e-5
FLOOR = 1e-6  # below this magnitude the relative error is not meaningful


def numeric_grad_at(f, leaf, indices, h=STEP, points=2):
    """Central differences of f() w.r.t. flat `indices` of leaf.data.

    points=2 is the second-order stencil (f(+h) - f(-h)) / 2h; points=4 is
    the fourth-order (8(f(+h) - f(-h)) - (f(+2h) - f(-2h))) / 12h, whose
    truncation error is small enough at a step well above roundoff.
    """
    flat = leaf.data.reshape(-1)
    out = np.empty(len(indices))
    for n, i in enumerate(indices):
        old = flat[i]

        def at(offset):
            flat[i] = old + offset
            return f()

        d1 = at(h) - at(-h)
        if points == 2:
            out[n] = d1 / (2.0 * h)
        else:
            out[n] = (8.0 * d1 - (at(2.0 * h) - at(-2.0 * h))) / (12.0 * h)
        flat[i] = old
    return out


def check_grads(build, leaves, rtol=RTOL, floor=FLOOR, h=STEP, points=2, max_elems=None, rng=None, label=""):
    """Compare tape gradients of build() against central differences.

    build() must construct a fresh scalar graph from `leaves` each call.
    Checks every element of every leaf, or `max_elems` sampled elements
    per leaf when given (sampling needs `rng`). `points` picks the
    stencil of numeric_grad_at.
    """
    leaves = list(leaves)
    zero_grads(leaves)
    loss = build()
    loss.backward()

    def value():
        return build().item()

    for li, leaf in enumerate(leaves):
        ga = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        ga = ga.reshape(-1)
        n = leaf.data.size
        if max_elems is not None and n > max_elems:
            idx = np.sort(rng.choice(n, size=max_elems, replace=False))
        else:
            idx = np.arange(n)
        gn = numeric_grad_at(value, leaf, idx, h=h, points=points)
        gas = ga[idx]
        big = np.abs(gn) > floor
        rel = np.abs(gas[big] - gn[big]) / np.abs(gn[big])
        where = f"{label} leaf {li} shape {tuple(leaf.shape)}"
        if big.any():
            worst = rel.max()
            assert worst < rtol, f"{where}: rel err {worst:.3e} >= {rtol:g} (analytic {gas[big][rel.argmax()]:.9g} vs numeric {gn[big][rel.argmax()]:.9g})"
        small = ~big
        if small.any():
            stray = np.abs(gas[small]).max()
            assert stray <= 10 * floor, f"{where}: analytic grad {stray:.3e} where numeric ~ 0"
