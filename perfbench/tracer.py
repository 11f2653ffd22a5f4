"""Span tracer for the per-layer split, installed from outside the program.

The tracer replaces the names that codistill's modules look up at call
time (``trainer.cnn_forward``, ``Tensor.backward``, ...) with wrappers that
time each call. Nothing inside ``src/`` changes; ``installed()`` puts the
original functions back when it exits, so untraced runs execute the
program exactly as shipped.

Each span's self time is its duration minus the time its child spans
cover. Self times are summed per layer name while ``in_loop`` is true;
every call's inclusive duration is kept per name as well, for layers that
are measured per call (checkpoint and dataset I/O).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from codistill import data, trainer
from codistill.tensor import Tensor

# (owner, attribute, layer name). The owner is where the caller looks the
# name up: trainer.py imports its helpers by name, so the wrappers go into
# the trainer module's namespace, and methods go onto their classes.
_SPANS = [
    (trainer, "evaluate", "trainer.eval"),
    (trainer, "cnn_forward", "students.cnn_forward"),
    (trainer, "vit_forward", "students.vit_forward"),
    (trainer, "total_objective", "trainer.objective_self"),
    (trainer, "pixel_ce", "losses.pixel_ce"),
    (trainer, "hfd_loss_cnn", "hfd.loss_cnn"),
    (trainer, "hfd_loss_vit", "hfd.loss_vit"),
    (trainer, "region_ce", "bsd.mask"),
    (trainer, "build_region_mask", "bsd.mask"),
    (trainer, "build_pixel_mask", "bsd.mask"),
    (trainer, "region_loss", "bsd.region_loss"),
    (trainer, "pixel_loss", "bsd.pixel_loss"),
    (trainer.SgdMomentum, "step", "trainer.sgd"),
    (trainer.AdamW, "step", "trainer.adamw"),
    (trainer, "predict_labels", "data.confusion"),
    (trainer, "update_confusion", "data.confusion"),
    (trainer, "miou_from_confusion", "data.confusion"),
    (trainer, "save_checkpoint", "recordio.write"),
    (trainer, "load_checkpoint", "recordio.read"),
    (data, "load_dataset", "data.load"),
]

STEP = "trainer.step_self"
BACKWARD = ("tensor.backward_cnn", "tensor.backward_vit")
# every layer the tracer times, in first-seen order
LAYERS = tuple(dict.fromkeys([name for *_, name in _SPANS] + [STEP, *BACKWARD]))


def count_tape_nodes(loss) -> int:
    """Recorded op nodes reachable from a loss (leaves are not counted)."""
    seen = set()
    stack = [loss]
    nodes = 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._parents:
            nodes += 1
            stack.extend(t._parents)
    return nodes


class Tracer:
    def __init__(self):
        self.in_loop = False
        self.self_s = defaultdict(float)  # layer -> summed self time, loop only
        self.calls = defaultdict(list)  # layer -> inclusive seconds per call
        self.hidden_s = 0.0  # tracer's own work inside spans, loop only
        self.step_nodes = []  # tape nodes per train step, loop only
        self._stack = []
        self._backward_calls = 0
        self._nodes = 0

    def _enter(self):
        frame = [0.0]
        self._stack.append(frame)
        return frame, perf_counter()

    def _leave(self, name, frame, t0):
        dt = perf_counter() - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dt
        self.calls[name].append(dt)
        if self.in_loop:
            self.self_s[name] += dt - frame[0]

    def span(self, name, fn):
        def traced(*args, **kwargs):
            frame, t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(name, frame, t0)

        return traced

    def _step_span(self, fn):
        def traced(*args, **kwargs):
            self._backward_calls = 0
            self._nodes = 0
            frame, t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(STEP, frame, t0)
                if self.in_loop:
                    self.step_nodes.append(self._nodes)

        return traced

    def _backward_span(self, fn):
        def traced(loss):
            # train_step calls backward on the CNN objective, then the ViT one
            name = BACKWARD[min(self._backward_calls, 1)]
            self._backward_calls += 1
            t0 = perf_counter()
            self._nodes += count_tape_nodes(loss)
            counted = perf_counter() - t0
            if self._stack:
                self._stack[-1][0] += counted
            if self.in_loop:
                self.hidden_s += counted
            frame, t0 = self._enter()
            try:
                return fn(loss)
            finally:
                self._leave(name, frame, t0)

        return traced

    @contextmanager
    def installed(self):
        patches = [(owner, attr, self.span(name, getattr(owner, attr))) for owner, attr, name in _SPANS]
        patches.append((trainer, "train_step", self._step_span(trainer.train_step)))
        patches.append((Tensor, "backward", self._backward_span(Tensor.backward)))
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)
