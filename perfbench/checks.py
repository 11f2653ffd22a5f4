"""Independent computations the benchmark checks the program against.

Nothing here calls into codistill: the checkpoint reader, the forward
passes, the cross-entropy, the direction counts and the confusion counts
are re-derived from the documented formats and formulas in plain numpy.
Every ``check_*`` function returns a list of problems; an empty list means
the check passed.
"""

from __future__ import annotations

import math
import struct

import numpy as np

IGNORE_LABEL = 255
LOSS_TERMS = ("l_ce_c", "l_ce_v", "l_hfd_c", "l_hfd_v", "l_r_c", "l_r_v", "l_p_c", "l_p_v", "m_hat", "m")
DISTILL_TERMS = ("l_hfd_c", "l_hfd_v", "l_r_c", "l_r_v", "l_p_c", "l_p_v", "m_hat", "m")


# checkpoint archive ------------------------------------------------------

def read_archive(blob: bytes) -> dict:
    """Parse a CODI archive: magic, u32 version, u32 count, then per record
    u32 name length, name, u32 ndim, u32 dims, float64 values (little-endian)."""
    if blob[:4] != b"CODI":
        raise ValueError("bad magic")
    _, count = struct.unpack("<II", blob[4:12])
    ofs = 12
    out = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<I", blob[ofs : ofs + 4])
        name = blob[ofs + 4 : ofs + 4 + nlen].decode("utf-8")
        ofs += 4 + nlen
        (ndim,) = struct.unpack("<I", blob[ofs : ofs + 4])
        shape = struct.unpack(f"<{ndim}I", blob[ofs + 4 : ofs + 4 + 4 * ndim])
        ofs += 4 + 4 * ndim
        size = math.prod(shape)
        out[name] = np.frombuffer(blob[ofs : ofs + 8 * size], dtype="<f8").reshape(shape)
        ofs += 8 * size
    if ofs != len(blob):
        raise ValueError("trailing bytes")
    return out


def check_roundtrip(saved: dict, loaded: dict) -> list:
    """The arrays a checkpoint returns equal the saved ones byte for byte."""
    problems = []
    if list(saved) != list(loaded):
        problems.append(f"checkpoint names differ: saved {sorted(saved)} vs loaded {sorted(loaded)}")
    for name in saved:
        if name not in loaded:
            continue
        a, b = np.asarray(saved[name]), np.asarray(loaded[name])
        if a.shape != b.shape or a.astype("<f8").tobytes() != b.astype("<f8").tobytes():
            problems.append(f"checkpoint array {name} differs after reload")
    return problems


# plain-numpy student forward passes ---------------------------------------

def _conv(x, w, b, stride=1, pad=0):
    """Cross-correlation accumulated one kernel tap at a time."""
    c_out, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    h = (xp.shape[1] - k) // stride + 1
    wd = (xp.shape[2] - k) // stride + 1
    out = np.zeros((c_out, h, wd)) + b.reshape(c_out, 1, 1)
    for i in range(k):
        for j in range(k):
            tap = xp[:, i : i + stride * h : stride, j : j + stride * wd : stride]
            out += np.tensordot(w[:, :, i, j], tap, axes=(1, 0))
    return out


def _resize_axis(x, axis, n_out):
    """Bilinear resampling along one axis: half-pixel centres, edges clamped."""
    n_in = x.shape[axis]
    pieces = []
    for o in range(n_out):
        pos = min(max((o + 0.5) * n_in / n_out - 0.5, 0.0), n_in - 1.0)
        lo = int(math.floor(pos))
        hi = min(lo + 1, n_in - 1)
        frac = pos - lo
        pieces.append((1.0 - frac) * np.take(x, lo, axis=axis) + frac * np.take(x, hi, axis=axis))
    return np.stack(pieces, axis=axis)


def _upsample(x, hw):
    return _resize_axis(_resize_axis(x, 1, hw[0]), 2, hw[1])


def _layer_norm(t, g, b, eps=1e-5):
    mu = t.mean(axis=1, keepdims=True)
    var = ((t - mu) ** 2).mean(axis=1, keepdims=True)
    return (t - mu) / np.sqrt(var + eps) * g + b


def _gelu(v):
    return 0.5 * v * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (v + 0.044715 * v**3)))


def _attention_stage(fmap, a, stage, heads):
    c, h, w = fmap.shape
    p = f"vit/s{stage}_"
    tokens = fmap.reshape(c, h * w).T
    normed = _layer_norm(tokens, a[p + "ln1_g"], a[p + "ln1_b"])
    q, k, v = normed @ a[p + "wq"], normed @ a[p + "wk"], normed @ a[p + "wv"]
    dh = c // heads
    mixed = np.empty_like(tokens)
    for hd in range(heads):
        cols = slice(hd * dh, (hd + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T / math.sqrt(dh)
        scores = np.exp(scores - scores.max(axis=1, keepdims=True))
        mixed[:, cols] = (scores / scores.sum(axis=1, keepdims=True)) @ v[:, cols]
    tokens = tokens + mixed
    normed = _layer_norm(tokens, a[p + "ln2_g"], a[p + "ln2_b"])
    tokens = tokens + _gelu(normed @ a[p + "ffn_w1"] + a[p + "ffn_b1"]) @ a[p + "ffn_w2"] + a[p + "ffn_b2"]
    return tokens.T.reshape(c, h, w)


def _relu(t):
    return np.maximum(t, 0.0)


def reference_cnn(a: dict, image):
    f1 = _relu(_conv(image, a["cnn/conv1_w"], a["cnn/conv1_b"], stride=2, pad=1))
    f2 = _relu(_conv(f1, a["cnn/conv2_w"], a["cnn/conv2_b"], stride=2, pad=1))
    fl = _relu(_conv(f2, a["cnn/conv3_w"], a["cnn/conv3_b"], stride=1, pad=1))
    return _upsample(_conv(fl, a["cnn/head_w"], a["cnn/head_b"]), image.shape[1:])


def reference_vit(a: dict, image):
    heads = int(a["config/num_heads"][0])
    patch = int(a["config/patch_size"][0])
    x = _conv(image, a["vit/patch_w"], a["vit/patch_b"], stride=patch)
    x = _attention_stage(x, a, 1, heads)
    x = _attention_stage(_conv(x, a["vit/down2_w"], a["vit/down2_b"], stride=2), a, 2, heads)
    x = _attention_stage(_conv(x, a["vit/down3_w"], a["vit/down3_b"], stride=2), a, 3, heads)
    return _conv(_upsample(x, image.shape[1:]), a["vit/head_w"], a["vit/head_b"])


def check_logits(name, reference, program, tol=1e-9) -> list:
    reference, program = np.asarray(reference), np.asarray(program)
    if reference.shape != program.shape:
        return [f"{name}: logits shape {program.shape}, reference {reference.shape}"]
    err = float(np.max(np.abs(reference - program)) / max(1.0, float(np.max(np.abs(reference)))))
    return [] if err <= tol else [f"{name}: logits differ from the numpy reference by {err:.3g} (> {tol:g})"]


# cross-entropy and direction counts --------------------------------------

def pixel_ce(logits, labels):
    """Per-pixel CE from K×H×W logits with a max-shifted log-softmax."""
    z = logits - logits.max(axis=0, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=0))
    valid = labels != IGNORE_LABEL
    safe = np.where(valid, labels, 0).astype(int)
    picked = np.take_along_axis(log_p, safe[None], axis=0)[0]
    return np.where(valid, -picked, 0.0), valid


def probe_expectation(logits_c, logits_v, labels, region_hw) -> dict:
    """Batch means of CE per student and of the region and pixel counts where
    the CNN's CE is strictly lower, counted unit by unit."""
    rows, cols = region_hw
    sums = dict.fromkeys(("l_ce_c", "l_ce_v", "m_hat", "m"), 0.0)
    for lc, lv, lab in zip(logits_c, logits_v, labels):
        ce_c, valid = pixel_ce(lc, lab)
        ce_v, _ = pixel_ce(lv, lab)
        n = int(valid.sum())
        sums["l_ce_c"] += ce_c.sum() / max(n, 1)
        sums["l_ce_v"] += ce_v.sum() / max(n, 1)
        h, w = lab.shape
        bh, bw = h // rows, w // cols
        for r in range(rows):
            for c in range(cols):
                block = (slice(r * bh, (r + 1) * bh), slice(c * bw, (c + 1) * bw))
                if ce_c[block].sum() < ce_v[block].sum():
                    sums["m_hat"] += 1
        for y in range(h):
            for x in range(w):
                if valid[y, x] and ce_c[y, x] < ce_v[y, x]:
                    sums["m"] += 1
    return {key: value / len(labels) for key, value in sums.items()}


def check_probe(parts: dict, expected: dict, selective: bool) -> list:
    """train_step's logged CE and direction counts against the recomputation.
    Without selective distillation the counts must be exactly 0."""
    problems = []
    for key in ("l_ce_c", "l_ce_v"):
        if not abs(parts[key] - expected[key]) <= 1e-9 * max(1.0, abs(expected[key])):
            problems.append(f"probe {key} = {parts[key]!r}, recomputed {expected[key]!r}")
    for key in ("m_hat", "m"):
        want = expected[key] if selective else 0.0
        if parts[key] != want:
            problems.append(f"probe {key} = {parts[key]!r}, expected {want!r}")
    return problems


# per-operation checks ------------------------------------------------------

def check_step(parts: dict, ce_only: bool) -> list:
    problems = [f"{k} is not finite ({parts[k]!r})" for k in LOSS_TERMS if not math.isfinite(parts[k])]
    if ce_only:
        problems += [f"{k} = {parts[k]!r} with beta = gamma = 0" for k in DISTILL_TERMS if parts[k] != 0.0]
    return problems


def check_miou_value(name, value) -> list:
    return [] if math.isfinite(value) and 0.0 < value <= 1.0 else [f"{name} = {value!r} is outside (0, 1]"]


# mIoU from argmax labels -------------------------------------------------

def confusion(logits_list, labels_list, k) -> np.ndarray:
    counts = np.zeros(k * k, dtype=np.int64)
    for logits, labels in zip(logits_list, labels_list):
        pred = np.asarray(logits).argmax(axis=0)
        valid = labels != IGNORE_LABEL
        counts += np.bincount(labels[valid].astype(np.int64) * k + pred[valid], minlength=k * k)
    return counts.reshape(k, k)


def miou(cm) -> float:
    """Mean IoU over classes present in ground truth or prediction."""
    tp = np.diag(cm).astype(float)
    union = cm.sum(axis=0) + cm.sum(axis=1) - tp
    present = union > 0
    return float((tp[present] / union[present]).mean())


def check_miou(name, reported, logits_list, labels_list, k) -> list:
    own = miou(confusion(logits_list, labels_list, k))
    ok = abs(reported - own) <= 1e-12
    return [] if ok else [f"{name} = {reported!r}, own confusion count gives {own!r}"]


def background_miou(labels_list, k) -> float:
    """mIoU of a predictor that labels every pixel as class 0."""
    cm = np.zeros((k, k), dtype=np.int64)
    for labels in labels_list:
        cm[:, 0] += np.bincount(labels[labels != IGNORE_LABEL].astype(np.int64), minlength=k)
    return miou(cm)


# method properties --------------------------------------------------------

def check_learning(first_ce: dict, late_ce: dict, miou_c, miou_v, bg_miou, ratio=0.75) -> list:
    """CE ends well below its first-step value for both students; the ViT
    beats the all-background predictor and the CNN does not fall below it."""
    problems = []
    for key in ("l_ce_c", "l_ce_v"):
        if not late_ce[key] < ratio * first_ce[key]:
            problems.append(f"{key} fell only from {first_ce[key]:.4g} to {late_ce[key]:.4g} (need < {ratio} x)")
    if not miou_v > bg_miou:
        problems.append(f"ViT mIoU {miou_v:.4g} does not beat all-background {bg_miou:.4g}")
    if not miou_c >= bg_miou - 1e-12:
        problems.append(f"CNN mIoU {miou_c:.4g} is below all-background {bg_miou:.4g}")
    return problems


# traced run ----------------------------------------------------------------

def check_identical(what, untraced, traced) -> list:
    """Bit-for-bit equality of two dicts of floats or arrays."""
    if list(untraced) != list(traced):
        return [f"{what}: keys differ"]
    bad = [k for k in untraced if np.asarray(untraced[k]).tobytes() != np.asarray(traced[k]).tobytes()]
    return [f"{what}: traced and untraced differ in {', '.join(bad)}"] if bad else []


def check_reconcile(attributed_s, wall_s, tolerance) -> list:
    """Span self times must account for the traced loop's wall time."""
    gap = (wall_s - attributed_s) / wall_s
    if 0.0 <= gap <= tolerance:
        return []
    return [f"span self times cover {attributed_s:.4f}s of {wall_s:.4f}s traced (gap {gap:.2%}, allowed 0..{tolerance:.0%})"]
