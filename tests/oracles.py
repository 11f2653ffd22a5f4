"""Plain-loop reference implementations used to cross-check the selective
distillation machinery. Deliberately slow and independent of the library's
vectorized code paths."""

import numpy as np


def softmax_1d(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def bf_region_ce(ce_values, rows, cols):
    h, w = ce_values.shape
    bh, bw = h // rows, w // cols
    out = np.zeros((rows, cols))
    for r in range(rows):
        for c in range(cols):
            for i in range(bh):
                for j in range(bw):
                    out[r, c] += ce_values[r * bh + i, c * bw + j]
    return out


def bf_direction_mask(ce_cnn, ce_vit, valid=None):
    """(cnn_teaches, vit_teaches): 1 where that student has the strictly lower
    CE (ties to the ViT) on a valid unit, else 0."""
    cnn_teaches = np.zeros(ce_cnn.shape)
    vit_teaches = np.zeros(ce_cnn.shape)
    for idx in np.ndindex(*ce_cnn.shape):
        if valid is not None and not valid[idx]:
            continue
        if ce_cnn[idx] < ce_vit[idx]:
            cnn_teaches[idx] = 1.0
        else:
            vit_teaches[idx] = 1.0
    return cnn_teaches, vit_teaches


def bf_masked_means(values, mask_values, valid=None):
    """(mean over valid zero-mask units, mean over one-mask units); empty -> 0."""
    sum0 = sum1 = 0.0
    n0 = n1 = 0
    for idx in np.ndindex(*values.shape):
        ok = True if valid is None else bool(valid[idx])
        if not ok:
            continue
        if mask_values[idx] == 1.0:
            sum1 += values[idx]
            n1 += 1
        else:
            sum0 += values[idx]
            n0 += 1
    return (sum0 / n0 if n0 else 0.0), (sum1 / n1 if n1 else 0.0)


def bf_cosine_map(a, b, eps=1e-8):
    _, h, w = a.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            u, v = a[:, i, j], b[:, i, j]
            out[i, j] = 1.0 - float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v) + eps)
    return out


def bf_kl_pixel(p_logits, q_logits, i, j):
    sp = softmax_1d(p_logits[:, i, j])
    sq = softmax_1d(q_logits[:, i, j])
    return float((sp * (np.log(sp) - np.log(sq))).sum())


def bf_pixel_losses(pred_cnn, pred_vit, mask_values, valid):
    """Reference for the two one-sided KL means."""
    kl_cv = np.zeros(mask_values.shape)
    kl_vc = np.zeros(mask_values.shape)
    for i in range(mask_values.shape[0]):
        for j in range(mask_values.shape[1]):
            kl_cv[i, j] = bf_kl_pixel(pred_cnn, pred_vit, i, j)
            kl_vc[i, j] = bf_kl_pixel(pred_vit, pred_cnn, i, j)
    loss_c, _ = bf_masked_means(kl_cv, mask_values, valid)
    _, loss_v = bf_masked_means(kl_vc, mask_values, valid)
    return loss_c, loss_v
