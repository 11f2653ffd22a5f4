"""Collaborative training loop for the student pair.

Each step forwards both students once on the stacked batch, assembles one
objective per student (cross-entropy + weighted alignment + weighted
selective transfer, each normalised per image and averaged over the
batch), runs one backward pass per objective, and applies SGD with momentum to the
convolutional side and AdamW to the attention side. The adapters train with
the student whose objective they serve.

The two objectives are gradient-isolated by construction: every borrowed
block, counterpart feature and counterpart prediction enters a student's
objective detached, so backward(L_cnn) cannot move the ViT and vice versa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import chain, count, groupby, islice
from pathlib import Path

import numpy as np

from .bsd import build_pixel_mask, build_region_mask, pixel_loss, region_ce, region_loss
from .data import miou_from_confusion, predict_labels, update_confusion
from .errors import ConfigError, DataError, TrainingError
from .hfd import AdapterSet, adapter_param_specs, apply_adapter, hfd_loss_cnn, hfd_loss_vit, init_adapters
from .losses import pixel_ce
from .recordio import MAX_DIM, read_archive, write_archive
from .seeding import substream
from .students import (
    ArchConfig,
    StudentParams,
    cnn_forward,
    cnn_param_specs,
    detach_params,
    init_cnn_params,
    init_vit_params,
    vit_forward,
    vit_param_specs,
)
from .tensor import Tensor, log_softmax, zero_grads


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 1.0  # pixel- vs region-grain balance inside the selective term
    beta: float = 0.1  # weight of the feature-alignment term
    gamma: float = 1.0  # weight of the selective-transfer term
    steps: int = 300
    batch_size: int = 8
    seed: int = 0
    sgd_lr: float = 0.005
    adamw_lr: float = 4e-4
    region_bsd_on: bool = True
    eval_every: int = 50
    checkpoint_every: int = 100

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for name in ("alpha", "beta", "gamma"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.sgd_lr <= 0 or self.adamw_lr <= 0:
            raise ConfigError("learning rates must be positive")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")


# optimizer update rules ------------------------------------------------

# the paper's fixed recipe: SGD with momentum for the CNN, AdamW for the ViT
SGD_MOMENTUM = 0.9
SGD_WEIGHT_DECAY = 5e-4
ADAMW_BETA1 = 0.9
ADAMW_BETA2 = 0.999
ADAMW_EPS = 1e-8
ADAMW_WEIGHT_DECAY = 0.01


def sgd_momentum_update(p, g, v, lr, mu, wd):
    """Weight decay folds into the gradient before the momentum buffer."""
    g = g + wd * p
    v_new = mu * v + g
    return p - lr * v_new, v_new


def adamw_update(p, g, m1, m2, t, lr, beta1, beta2, eps, wd):
    """Decoupled weight decay with bias-corrected moment estimates; t >= 1."""
    m1_new = beta1 * m1 + (1.0 - beta1) * g
    m2_new = beta2 * m2 + (1.0 - beta2) * g * g
    m_hat = m1_new / (1.0 - beta1**t)
    v_hat = m2_new / (1.0 - beta2**t)
    p_new = p - lr * wd * p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p_new, m1_new, m2_new


def gradient_runs(named_params) -> list:
    """(slice, tensors, flat gradient) for each maximal run of consecutive
    tensors that have a gradient; the slice locates the run in the flat
    state of an optimizer over named_params. A tensor without a gradient
    (an HFD adapter at beta = 0) splits the runs around it."""
    runs, start = [], 0
    for has_grad, group in groupby((p for _, p in named_params), key=lambda p: p.grad is not None):
        tensors = list(group)
        stop = start + sum(p.data.size for p in tensors)
        if has_grad:
            runs.append((slice(start, stop), tensors, np.concatenate([p.grad.ravel() for p in tensors])))
        start = stop
    return runs


def _flat_data(tensors) -> np.ndarray:
    return np.concatenate([p.data.ravel() for p in tensors])


def _rebind(tensors, flat) -> None:
    """Point each tensor's data at its piece of a fresh flat array. No old
    array is written, so whatever still holds one (a detached copy, a deep
    copy of the state) keeps its values."""
    start = 0
    for p in tensors:
        stop = start + p.data.size
        p.data = flat[start:stop].reshape(p.data.shape)
        start = stop


class SgdMomentum:
    """SGD with momentum over one flat velocity array.

    ``velocity`` holds every tensor's buffer end to end, in the order of
    ``params``. ``step`` applies ``sgd_momentum_update`` once per run of
    ``gradient_runs``, to the run's values, gradient and velocity laid flat,
    so the update is the per-tensor rule bit for bit; a tensor with no
    gradient keeps its values and velocity.
    """

    def __init__(self, named_params, lr):
        self.params = list(named_params)
        self.lr = lr
        self.velocity = np.zeros(sum(p.data.size for _, p in self.params))

    def step(self):
        for where, tensors, g in gradient_runs(self.params):
            p, self.velocity[where] = sgd_momentum_update(
                _flat_data(tensors), g, self.velocity[where], self.lr, SGD_MOMENTUM, SGD_WEIGHT_DECAY
            )
            _rebind(tensors, p)


class AdamW:
    """AdamW over flat first- and second-moment arrays.

    ``m1`` and ``m2`` hold every tensor's moments end to end, in the order
    of ``params``. ``step`` advances ``t`` and applies ``adamw_update`` once
    per run of ``gradient_runs``, as ``SgdMomentum.step`` does.
    """

    def __init__(self, named_params, lr):
        self.params = list(named_params)
        self.lr = lr
        size = sum(p.data.size for _, p in self.params)
        self.m1 = np.zeros(size)
        self.m2 = np.zeros(size)
        self.t = 0

    def step(self):
        self.t += 1
        for where, tensors, g in gradient_runs(self.params):
            p, self.m1[where], self.m2[where] = adamw_update(
                _flat_data(tensors), g, self.m1[where], self.m2[where], self.t, self.lr, ADAMW_BETA1, ADAMW_BETA2, ADAMW_EPS, ADAMW_WEIGHT_DECAY
            )
            _rebind(tensors, p)


# objective assembly ----------------------------------------------------

def total_objective(out_c, out_v, labels, params_c, params_v, adapters: AdapterSet, acfg: ArchConfig, tcfg: TrainConfig):
    """Objectives for both students plus the logged term values.

    Each student's objective is L_ce + beta * L_hfd + gamma * (L_r + alpha * L_p).
    Outputs and labels are for one image or carry a leading batch axis;
    every term is normalised per image, then averaged over the batch, and
    the logged counts m_hat and m are batch means. A term with weight 0 is
    never built and logs 0; region BSD alone has a switch, region_bsd_on,
    because gamma scales L_r and L_p together and alpha scales only L_p.
    Returns (loss_cnn, loss_vit, parts dict).
    """
    per_batch = 1.0 / (labels.shape[0] if labels.ndim == 3 else 1)
    # one log-softmax per student feeds both the CE and the pixel KL
    logp_c = log_softmax(out_c.prediction, axis=-3)
    logp_v = log_softmax(out_v.prediction, axis=-3)
    l_ce_c, ce_map_c = pixel_ce(logp_c, labels)
    l_ce_v, ce_map_v = pixel_ce(logp_v, labels)
    terms = {"l_ce_c": l_ce_c, "l_ce_v": l_ce_v}
    loss_c, loss_v = l_ce_c, l_ce_v
    if tcfg.beta != 0.0:
        l_hfd_c = terms["l_hfd_c"] = hfd_loss_cnn(out_c.f1, adapters.c1, params_v, acfg, out_v.f2)
        l_hfd_v = terms["l_hfd_v"] = hfd_loss_vit(out_v.f1, adapters.v1, params_c, acfg, out_c.f2)
        loss_c = loss_c + tcfg.beta * l_hfd_c
        loss_v = loss_v + tcfg.beta * l_hfd_v
    # the selective sum L_r + alpha * L_p leaves out a grain that is off; a
    # direction mask is (cnn_teaches, vit_teaches), and m_hat and m count the
    # units where the CNN teaches
    l_bsd_c = l_bsd_v = None
    if tcfg.gamma != 0.0 and tcfg.region_bsd_on:
        fl_c = apply_adapter(out_c.fl, adapters.cl)
        fl_v = apply_adapter(out_v.fl, adapters.vl)
        region_hw = fl_c.shape[-2:]
        region_mask = build_region_mask(region_ce(ce_map_c, region_hw), region_ce(ce_map_v, region_hw))
        l_bsd_c, l_bsd_v = terms["l_r_c"], terms["l_r_v"] = region_loss(fl_c, fl_v, region_mask)
        terms["m_hat"] = region_mask[0].sum() * per_batch
    if tcfg.gamma != 0.0 and tcfg.alpha != 0.0:
        pixel_mask = build_pixel_mask(ce_map_c, ce_map_v, labels)
        l_p_c, l_p_v = terms["l_p_c"], terms["l_p_v"] = pixel_loss(logp_c, logp_v, pixel_mask)
        terms["m"] = pixel_mask[0].sum() * per_batch
        l_bsd_c = tcfg.alpha * l_p_c if l_bsd_c is None else l_bsd_c + tcfg.alpha * l_p_c
        l_bsd_v = tcfg.alpha * l_p_v if l_bsd_v is None else l_bsd_v + tcfg.alpha * l_p_v
    if l_bsd_c is not None:
        loss_c = loss_c + tcfg.gamma * l_bsd_c
        loss_v = loss_v + tcfg.gamma * l_bsd_v
    parts = {name: terms[name].item() if name in terms else 0.0 for name in STEP_FIELDS}
    return loss_c, loss_v, parts


# training state ---------------------------------------------------------

@dataclass
class TrainState:
    acfg: ArchConfig
    params_c: StudentParams
    params_v: StudentParams
    adapters: AdapterSet
    opt_c: SgdMomentum
    opt_v: AdamW
    step: int = 0


def make_train_state(acfg: ArchConfig, tcfg: TrainConfig) -> TrainState:
    params_c = init_cnn_params(acfg, substream(tcfg.seed, "init_cnn"))
    params_v = init_vit_params(acfg, substream(tcfg.seed, "init_vit"))
    adapters = init_adapters(acfg, substream(tcfg.seed, "init_adapters"))
    opt_c = SgdMomentum(list(params_c.items()) + adapters.cnn_side(), tcfg.sgd_lr)
    opt_v = AdamW(list(params_v.items()) + adapters.vit_side(), tcfg.adamw_lr)
    return TrainState(acfg=acfg, params_c=params_c, params_v=params_v, adapters=adapters, opt_c=opt_c, opt_v=opt_v)


def train_step(batch, state: TrainState, tcfg: TrainConfig) -> dict:
    """One collaborative update on a list of (image, labels) samples,
    forwarded as one stacked batch. A non-finite loss term or gradient
    raises TrainingError before either optimizer moves a weight."""
    step = state.step + 1
    records = _param_records(state.params_c, state.params_v, state.adapters)
    zero_grads(p for _, p in records)
    x = Tensor(np.stack([image for image, _ in batch]))
    labels = np.stack([lab for _, lab in batch])
    out_c = cnn_forward(x, state.params_c, state.acfg)
    out_v = vit_forward(x, state.params_v, state.acfg)
    loss_c, loss_v, parts = total_objective(out_c, out_v, labels, state.params_c, state.params_v, state.adapters, state.acfg, tcfg)
    del out_c, out_v  # no longer read: their arrays need not outlive the backward passes
    for name, value in parts.items():
        if not math.isfinite(value):
            raise TrainingError(f"non-finite {name} ({value}) at step {step}")
    loss_c.backward()
    loss_v.backward()
    # one isfinite over all gradients laid end to end costs a third of one
    # per tensor; the loop runs only to name the culprit
    if not np.isfinite(np.concatenate([p.grad.ravel() for _, p in records if p.grad is not None])).all():
        for name, p in records:
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise TrainingError(f"non-finite gradient for {name} at step {step}")
    state.opt_c.step()
    state.opt_v.step()
    state.step = step
    return parts


# images per forward in evaluate: larger chunks raise peak memory (the
# activations grow with the chunk) for little speed; every attention call
# reuses one image's score block whatever the chunk
EVAL_CHUNK = 8


def evaluate(params_c, params_v, acfg: ArchConfig, dataset):
    """(mIoU of the CNN student, mIoU of the ViT student) on a dataset,
    forwarded EVAL_CHUNK images at a time."""
    frozen_c, frozen_v = detach_params(params_c), detach_params(params_v)
    cm_c = np.zeros((acfg.num_classes, acfg.num_classes), np.int64)
    cm_v = np.zeros((acfg.num_classes, acfg.num_classes), np.int64)
    for i in range(0, len(dataset), EVAL_CHUNK):
        chunk = dataset[i : i + EVAL_CHUNK]
        x = Tensor(np.stack([image for image, _ in chunk]))
        labels = np.stack([lab for _, lab in chunk])
        update_confusion(cm_c, predict_labels(cnn_forward(x, frozen_c, acfg).prediction), labels)
        update_confusion(cm_v, predict_labels(vit_forward(x, frozen_v, acfg).prediction), labels)
    return miou_from_confusion(cm_c), miou_from_confusion(cm_v)


# metrics log -------------------------------------------------------------

# the terms train_step returns; the metrics log adds the two evaluation columns
STEP_FIELDS = ("l_ce_c", "l_ce_v", "l_hfd_c", "l_hfd_v", "l_r_c", "l_r_v", "l_p_c", "l_p_v", "m_hat", "m")
METRIC_FIELDS = STEP_FIELDS + ("miou_c", "miou_v")
METRICS_HEADER = "# step " + " ".join(METRIC_FIELDS)


def format_metrics_line(step: int, record: dict) -> str:
    return f"{step} " + " ".join(format(record[name], ".9g") for name in METRIC_FIELDS)


def parse_metrics_line(line: str) -> dict:
    fields = line.split()
    out = {"step": int(fields[0])}
    for name, raw in zip(METRIC_FIELDS, fields[1:]):
        out[name] = float(raw)
    return out


# checkpoints --------------------------------------------------------------

def _param_records(params_c, params_v, adapters: AdapterSet) -> list:
    """Every trainable tensor under its checkpoint record name, in file order."""
    return (
        [(f"cnn/{name}", p) for name, p in params_c.items()]
        + [(f"vit/{name}", p) for name, p in params_v.items()]
        + adapters.cnn_side()
        + adapters.vit_side()
    )


def save_checkpoint(path, acfg: ArchConfig, params_c, params_v, adapters: AdapterSet) -> None:
    records = [(f"config/{f.name}", np.array(getattr(acfg, f.name), dtype=float, ndmin=1)) for f in fields(ArchConfig)]
    records += [(name, p.data) for name, p in _param_records(params_c, params_v, adapters)]
    write_archive(path, records)


def _record_shapes(acfg: ArchConfig) -> dict:
    """Record name -> shape of every trainable tensor, from the config alone."""
    tables = (("cnn/", cnn_param_specs(acfg)), ("vit/", vit_param_specs(acfg)), ("", adapter_param_specs(acfg)))
    return {prefix + name: shape for prefix, specs in tables for name, (shape, _) in specs.items()}


def load_checkpoint(path):
    """(ArchConfig, CNN params, ViT params, AdapterSet) from a checkpoint.

    The checkpoint must hold exactly the records save_checkpoint writes for
    its stored architecture: a missing, unexpected or wrong-shaped record,
    a non-integer config value, an architecture that is invalid or too
    large for the archive, or a non-finite parameter raises DataError.
    Every record is checked against the shapes the config implies before
    any parameter is allocated.
    """
    blob = read_archive(path)
    config_names = [f"config/{f.name}" for f in fields(ArchConfig)]
    for name in config_names:
        if name not in blob:
            raise DataError(f"{path}: checkpoint lacks record {name}")
    try:
        kwargs = {}
        for f, name in zip(fields(ArchConfig), config_names):
            stored = blob[name]
            if stored.ndim != 1 or not np.all(np.isfinite(stored) & (stored == np.round(stored))):
                raise ValueError(f"{name} = {stored.tolist()} is not a row of integers")
            kwargs[f.name] = tuple(int(v) for v in stored) if isinstance(f.default, tuple) else int(stored.item())
        acfg = ArchConfig(**kwargs)
        shapes = _record_shapes(acfg)
        for name, shape in shapes.items():
            if max(shape) > MAX_DIM:
                raise ValueError(f"{name} would need a dimension above {MAX_DIM}")
    except ValueError as exc:
        raise DataError(f"{path}: bad architecture config: {exc}") from exc
    expected = set(config_names) | set(shapes)
    for name in blob:
        if name not in expected:
            raise DataError(f"{path}: unexpected checkpoint record {name}")
    for name, shape in shapes.items():
        if name not in blob:
            raise DataError(f"{path}: checkpoint lacks record {name}")
        if blob[name].shape != shape:
            raise DataError(f"{path}: record {name} has shape {blob[name].shape}, expected {shape}")
    for name in shapes:
        if not np.isfinite(blob[name]).all():
            raise DataError(f"{path}: record {name} holds a non-finite value")
    rng = np.random.default_rng(0)
    params_c, params_v, adapters = init_cnn_params(acfg, rng), init_vit_params(acfg, rng), init_adapters(acfg, rng)
    for name, p in _param_records(params_c, params_v, adapters):
        p.data = blob[name]
    return acfg, params_c, params_v, adapters


# full run ------------------------------------------------------------------

@dataclass
class RunResult:
    state: TrainState
    records: list
    miou_c: float
    miou_v: float


def run_training(train_set, eval_set, acfg: ArchConfig, tcfg: TrainConfig, out_dir) -> RunResult:
    """Run tcfg.steps collaborative steps, writing the run into out_dir.

    out_dir gets metrics.log (a header, then a line per completed step),
    ckpt_NNNNNN.bin every checkpoint_every steps (0: never) and
    ckpt_final.bin after the last step. Batch order comes from the `shuffle`
    sub-stream of the seed: epochs of random permutations, consumed
    batch_size indices at a time. Evaluation on eval_set runs every
    eval_every steps and always at the final step. A FloatingPointError
    (numpy raises one under np.errstate, as the CLI runs) in a step becomes
    a TrainingError naming the step; one in an evaluation propagates, for
    the caller that knows the evaluated set's file to name it.
    """
    state = make_train_state(acfg, tcfg)
    shuffle = substream(tcfg.seed, "shuffle")
    indices = chain.from_iterable(shuffle.permutation(len(train_set)) for _ in count())
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    with open(out_dir / "metrics.log", "w") as log:
        log.write(METRICS_HEADER + "\n")
        for step in range(1, tcfg.steps + 1):
            try:
                record = train_step([train_set[i] for i in islice(indices, tcfg.batch_size)], state, tcfg)
            except FloatingPointError as exc:
                raise TrainingError(f"{exc} at step {step}") from None
            evaluated = step % tcfg.eval_every == 0 or step == tcfg.steps
            record["miou_c"], record["miou_v"] = evaluate(state.params_c, state.params_v, acfg, eval_set) if evaluated else (math.nan, math.nan)
            records.append({"step": step, **record})
            log.write(format_metrics_line(step, record) + "\n")
            if tcfg.checkpoint_every and step % tcfg.checkpoint_every == 0:
                save_checkpoint(out_dir / f"ckpt_{step:06d}.bin", acfg, state.params_c, state.params_v, state.adapters)
    save_checkpoint(out_dir / "ckpt_final.bin", acfg, state.params_c, state.params_v, state.adapters)
    return RunResult(state=state, records=records, miou_c=record["miou_c"], miou_v=record["miou_v"])
