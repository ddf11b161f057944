"""Straight-line reference implementations and test-only helpers.

Everything here is deliberately written flat, without the package's own
layers (Param, SGD, mil_chain), so agreement is evidence rather than
tautology. The package ships one forward path per component; the
standalone pieces only tests call live here instead: the contrastive loss
of a projected batch, box-pair IoU, the broadcast IoU matrix, greedy NMS
one kept box at a time, pseudo-box mining and target assignment one
proposal at a time, the momentum-SGD update one parameter at a time, the
finite-difference gradient check, the detection writer that encodes
each line as a dict through ``json.dumps``, and greedy matching on one
image's IoU block for one threshold at a time.
"""

import json
import math

import numpy as np

from wsodkit import fusion
from wsodkit.data import Box
from wsodkit.errors import WsodkitError
from wsodkit.evaluate import Detection
from wsodkit.refine import PseudoBoxes

EPS = 1e-7


def bare_mil_run(config, records, labels, num_classes):
    """Plain MIL training loop: one RGB head, momentum SGD, nothing else.

    Replays the exact draw order of the full model factory (all parameter
    groups are created up front from one generator) but only ever trains
    the RGB head. Returns the four head arrays and the per-epoch mean MIL
    loss trace.
    """
    n = len(records)
    d = records[0].rgb_features.shape[1]
    c = num_classes
    rng = np.random.default_rng(config.seed)
    scale = config.init_scale
    w_det = rng.normal(0.0, scale, (d, c))
    b_det = np.zeros(c)
    w_cls = rng.normal(0.0, scale, (d, c))
    b_cls = np.zeros(c)
    rng.normal(0.0, scale, (d, c))  # depth head, never trained here
    rng.normal(0.0, scale, (d, c))
    rng.normal(0.0, scale, (d, config.proj_dim))  # projection
    for _ in range(config.refine_branches):
        rng.normal(0.0, scale, (d, c + 1))  # refinement branches

    v_wd = np.zeros_like(w_det)
    v_bd = np.zeros_like(b_det)
    v_wc = np.zeros_like(w_cls)
    v_bc = np.zeros_like(b_cls)
    lr, mom = config.learning_rate, config.momentum
    trace = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        mil_sum = 0.0
        for lo in range(0, n, config.nce_batch):
            batch = order[lo : lo + config.nce_batch]
            bsz = len(batch)
            g_wd = np.zeros_like(w_det)
            g_bd = np.zeros_like(b_det)
            g_wc = np.zeros_like(w_cls)
            g_bc = np.zeros_like(b_cls)
            for idx in batch:
                x = records[int(idx)].rgb_features
                y = np.zeros(c)
                for cid in labels[int(idx)]:
                    y[cid] = 1.0
                det = x @ w_det + b_det
                cls = x @ w_cls + b_cls
                ed = np.exp(det - det.max(axis=0, keepdims=True))
                dp = ed / ed.sum(axis=0, keepdims=True)
                ec = np.exp(cls - cls.max(axis=1, keepdims=True))
                cp = ec / ec.sum(axis=1, keepdims=True)
                comb = dp * cp
                total = comb.sum(axis=0)
                p = 1.0 / (1.0 + np.exp(-total))
                pc = np.clip(p, EPS, 1.0 - EPS)
                mil_sum += float(
                    -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).sum()
                )
                d_prob = -(y * (1.0 / p) - (1.0 - y) * (1.0 / (1.0 - p)))
                d_total = d_prob * p * (1.0 - p)
                d_comb = np.broadcast_to(d_total, comb.shape)
                d_dp = d_comb * cp
                d_cp = d_comb * dp
                d_det = dp * (d_dp - (d_dp * dp).sum(axis=0, keepdims=True))
                d_cls = cp * (d_cp - (d_cp * cp).sum(axis=1, keepdims=True))
                s = config.lambda_mil / bsz
                g_wd += s * (x.T @ d_det)
                g_bd += s * d_det.sum(axis=0)
                g_wc += s * (x.T @ d_cls)
                g_bc += s * d_cls.sum(axis=0)
            v_wd *= mom
            v_wd -= lr * g_wd
            w_det = w_det + v_wd
            v_bd *= mom
            v_bd -= lr * g_bd
            b_det = b_det + v_bd
            v_wc *= mom
            v_wc -= lr * g_wc
            w_cls = w_cls + v_wc
            v_bc *= mom
            v_bc -= lr * g_bc
            b_cls = b_cls + v_bc
        trace.append(mil_sum / n)
    return {
        "w_det": w_det,
        "b_det": b_det,
        "w_cls": w_cls,
        "b_cls": b_cls,
    }, trace


def greedy_match(dets, gts_by_image, thresh, ignore_by_image=None):
    """Literal greedy matcher: stable descending score, best unused truth.

    With ``ignore_by_image``, a detection that hits no truth but overlaps
    one of its image's ignored boxes at or above ``thresh`` is skipped: it
    counts as neither a true nor a false positive.
    """
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    used = {iid: [False] * len(g) for iid, g in gts_by_image.items()}
    tp, fp = [], []
    for i in order:
        d = dets[i]
        g = gts_by_image.get(d.image_id)
        best_j, best_iou = -1, -1.0
        if g is not None:
            for j in range(len(g)):
                if used[d.image_id][j]:
                    continue
                v = iou(d.box, Box(*g[j]))
                if v > best_iou:
                    best_iou, best_j = v, j
        if best_j >= 0 and best_iou >= thresh:
            used[d.image_id][best_j] = True
            tp.append(1.0)
            fp.append(0.0)
            continue
        ign = (ignore_by_image or {}).get(d.image_id, [])
        if any(iou(d.box, Box(*b)) >= thresh for b in ign):
            continue
        tp.append(0.0)
        fp.append(1.0)
    return tp, fp


def greedy_hits(ious, iou_thresh):
    """Greedy matching on one image's (D, G) IoU block, rows in score order.

    Each row takes the unused truth it overlaps most (first on ties) and
    hits when that overlap reaches the threshold. Rows between two claims
    see the same used set, so each round resolves every row up to the next
    claim at once: at most G + 1 rounds instead of one step per row.
    """
    hits = np.zeros(len(ious), dtype=bool)
    used = np.zeros(ious.shape[1], dtype=bool)
    start = 0
    while start < len(ious):
        block = np.where(used, -1.0, ious[start:])
        claim = np.flatnonzero(block.max(axis=1) >= iou_thresh)
        if not claim.size:
            break
        row = start + int(claim[0])
        hits[row] = True
        used[int(np.argmax(block[claim[0]]))] = True
        start = row + 1
    return hits


def all_point_ap(dets, gts_by_image, thresh, ignore_by_image=None):
    """Textbook all-point-interpolated AP on top of the literal matcher."""
    n_gt = sum(len(g) for g in gts_by_image.values())
    tp, fp = greedy_match(dets, gts_by_image, thresh, ignore_by_image)
    if not tp:
        return 0.0
    ctp = np.cumsum(tp)
    cfp = np.cumsum(fp)
    rec = ctp / n_gt
    prec = ctp / (ctp + cfp)
    ap, prev = 0.0, 0.0
    for r in sorted(set(rec.tolist())):
        p = max(prec[k] for k in range(len(rec)) if rec[k] >= r)
        ap += (r - prev) * p
        prev = r
    return ap


def top1_corloc(dets, gts_by_image, thresh):
    """Literal CorLoc: the single best-scoring detection per image."""
    images = [iid for iid, g in gts_by_image.items() if len(g)]
    hits = 0
    for iid in images:
        cands = [d for d in dets if d.image_id == iid]
        if not cands:
            continue
        top = max(enumerate(cands), key=lambda t: (t[1].score, -t[0]))[1]
        if any(iou(top.box, Box(*g)) >= thresh for g in gts_by_image[iid]):
            hits += 1
    return hits / len(images)


def save_detections_dumps(dets, path):
    """Literal detection writer: one ``json.dumps`` of a dict per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for d in dets:
            obj = {
                "image_id": d.image_id,
                "box": d.box.as_list(),
                "class_id": int(d.class_id),
                "score": float(d.score),
            }
            fh.write(json.dumps(obj) + "\n")


def infer_candidates(model, records, mode, min_score, nms_thresh):
    """Literal inference: greedy NMS over every proposal of each class.

    Each class's NMS runs over all R proposals with ``nms_sequential``,
    not the package's NMS; survivors scoring strictly above ``min_score``
    are emitted in record, class, NMS order, each with its own ``Box``.
    """
    out = []
    for rec in records:
        pack = fusion.forward(rec, model.rgb_head, model.depth_head, mode)
        for cid in range(model.dims.num_classes):
            scores = pack.combined[0, :, cid]
            for i in nms_sequential(rec.proposals, scores, nms_thresh).tolist():
                if scores[i] > min_score:
                    out.append(
                        Detection(
                            image_id=rec.image_id,
                            class_id=cid,
                            box=Box(*rec.proposals[i].tolist()),
                            score=float(scores[i]),
                        )
                    )
    return out


class GradCheckError(WsodkitError):
    """Gradient check could not be evaluated at the requested point."""


def grad_check(f, params, eps=1e-5):
    """Compare analytic gradients against central differences.

    ``f`` must run forward + backward and return the scalar loss; the grads
    of ``params`` are zeroed before every call. Returns the worst relative
    error ``|a - n| / max(1, |a|, |n|)`` over every coordinate. Leaves
    parameter values untouched; grads are left at whatever the last call
    produced.
    """
    if eps <= 0.0:
        raise GradCheckError(f"eps must be positive, got {eps}")

    def f_zeroed():
        for p in params:
            p.zero_grad()
        return f()

    loss = float(f_zeroed())
    if not np.isfinite(loss):
        raise GradCheckError("loss is non-finite at the evaluation point")
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, a in zip(params, analytic):
        flat_v = p.value.reshape(-1)
        flat_a = a.reshape(-1)
        for i in range(flat_v.size):
            orig = flat_v[i]
            flat_v[i] = orig + eps
            lp = float(f_zeroed())
            flat_v[i] = orig - eps
            lm = float(f_zeroed())
            flat_v[i] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise GradCheckError(
                    f"loss became non-finite while perturbing {p.name!r}"
                )
            num = (lp - lm) / (2.0 * eps)
            ana = flat_a[i]
            rel = abs(ana - num) / max(1.0, abs(ana), abs(num))
            if rel > worst:
                worst = rel
    return worst


def nce_loss(pooled_rgb, pooled_depth, proj):
    """Symmetric contrastive loss of a projected batch, one anchor at a time.

    Both modalities go through ``x @ w + b`` and row normalization, and
    ``s = rgb @ depth.T / rho``. Each anchor's loss is
    ``log(denominator) - s_ii``, where the denominator sums ``exp`` of the
    anchor's row of ``s``; both directions are averaged.
    """

    def embed(x):
        z = x @ proj.w.value + proj.b.value
        return z / np.linalg.norm(z, axis=1, keepdims=True)

    s = (embed(pooled_rgb) @ embed(pooled_depth).T) / float(proj.rho.value[0])
    directions = []
    for mat in (s, s.T):
        per_anchor = []
        for i in range(mat.shape[0]):
            m = mat[i].max()
            z = np.exp(mat[i] - m).sum()
            per_anchor.append(m + math.log(z) - mat[i, i])
        directions.append(sum(per_anchor) / len(per_anchor))
    return 0.5 * (directions[0] + directions[1])


def iou(a, b):
    """Intersection-over-union of two boxes; 0 when disjoint."""
    iw = max(min(a.x2, b.x2) - max(a.x1, b.x1), 0.0)
    ih = max(min(a.y2, b.y2) - max(a.y1, b.y1), 0.0)
    inter = iw * ih
    if inter <= 0.0:
        return 0.0
    return inter / (a.area() + b.area() - inter)


def iou_broadcast(a, b):
    """IoU matrix of (n, 4) and (m, 4) float64 boxes, one broadcast per term.

    The same float operations in the same order as ``kernels.iou_matrix``,
    with a fresh array for every intermediate, so the two agree bit for bit.
    """
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    ix1 = np.maximum(a[:, None, 0], b[None, :, 0])
    iy1 = np.maximum(a[:, None, 1], b[None, :, 1])
    ix2 = np.minimum(a[:, None, 2], b[None, :, 2])
    iy2 = np.minimum(a[:, None, 3], b[None, :, 3])
    iw = np.maximum(ix2 - ix1, 0.0)
    ih = np.maximum(iy2 - iy1, 0.0)
    inter = iw * ih
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    pos = inter > 0.0
    np.divide(inter, union, out=out, where=pos)
    return out


def nms_sequential(boxes, scores, thresh):
    """Greedy NMS one kept box at a time.

    Takes the best remaining box (stable descending score), then drops
    every remaining box whose IoU with it exceeds ``thresh``; repeats until
    none remain. Returns the kept indices as int64, in keep order.
    """
    b = np.asarray(boxes, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    x1, y1, x2, y2 = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
    areas = (x2 - x1) * (y2 - y1)
    order = np.argsort(-s, kind="stable")
    keep = []
    while order.size > 0:
        i = order[0]
        keep.append(int(i))
        rest = order[1:]
        ix1 = np.maximum(x1[i], x1[rest])
        iy1 = np.maximum(y1[i], y1[rest])
        ix2 = np.minimum(x2[i], x2[rest])
        iy2 = np.minimum(y2[i], y2[rest])
        iw = np.maximum(ix2 - ix1, 0.0)
        ih = np.maximum(iy2 - iy1, 0.0)
        inter = iw * ih
        iou = np.zeros_like(inter)
        pos = inter > 0.0
        np.divide(inter, areas[i] + areas[rest] - inter, out=iou, where=pos)
        order = rest[iou <= thresh]
    return np.asarray(keep, dtype=np.int64)


def mine_loop(record, scores, labels, mask, iou_thresh, score_ratio):
    """Pseudo boxes per label, walking the candidate pool one proposal at a
    time; returns ``PseudoBoxes.by_class`` of ``refine.mine``."""
    by_class = {}
    for c in sorted(labels):
        cand = list(range(record.num_proposals))
        if mask is not None and mask.column(c).any():
            cand = [i for i in cand if mask.column(c)[i]]
        col = [float(scores[i, c]) for i in cand]
        seed_pos = int(np.argmax(col))
        seed, seed_score = cand[seed_pos], col[seed_pos]
        p = record.proposals
        ious = iou_broadcast(p[cand], p[seed][None, :])[:, 0]
        entries = [(seed, seed_score)]
        for pos, idx in enumerate(cand):
            near = ious[pos] >= iou_thresh
            if idx != seed and near and col[pos] >= score_ratio * seed_score:
                entries.append((idx, col[pos]))
        by_class[c] = entries
    return by_class


def assign_targets_loop(record, by_class, num_classes, iou_thresh):
    """Refinement targets and weights of ``refine.assign_targets``, one
    proposal at a time."""
    r = record.num_proposals
    targets = np.full(r, num_classes, dtype=np.int64)
    weights = np.ones(r)
    entries = [(c, idx, s) for c in sorted(by_class) for idx, s in by_class[c]]
    if not entries:
        return targets, weights
    ious = iou_broadcast(record.proposals, record.proposals[[e[1] for e in entries]])
    for i in range(r):
        j = int(np.argmax(ious[i]))
        weights[i] = entries[j][2]
        if ious[i, j] >= iou_thresh:
            targets[i] = entries[j][0]
    return targets, weights


def pseudo_boxes(by_class):
    """``PseudoBoxes`` from class id -> [(proposal index, score), ...],
    flattened in ascending class id and list order, as ``refine.mine``
    orders its arrays."""
    entries = [(c, idx, s) for c in sorted(by_class) for idx, s in by_class[c]]
    return PseudoBoxes(
        class_ids=np.array([e[0] for e in entries], dtype=np.int64),
        indices=np.array([e[1] for e in entries], dtype=np.int64),
        scores=np.array([e[2] for e in entries], dtype=np.float64),
    )


def sgd_step_loop(values, grads, velocity, lr, momentum):
    """Momentum SGD one parameter at a time over separate arrays, in place:
    ``v <- momentum * v - lr * g; x <- x + v; g <- 0`` per parameter."""
    for x, g, v in zip(values, grads, velocity):
        v *= momentum
        v -= lr * g
        x += v
        g[...] = 0.0
