"""Straight-line reference implementations and test-only helpers.

Everything here is deliberately written flat, without the package's own
layers (Param, SGD, mil_chain), so agreement is evidence rather than
tautology. The package ships one forward path per component; the
standalone pieces only tests call live here instead: the contrastive loss
of a projected batch, box-pair IoU, the broadcast IoU matrix, greedy NMS
one kept box at a time, the two-branch sigmoid, the depth mask one class
and one proposal at a time, pseudo-box mining and target assignment one
proposal at a time, the momentum-SGD update one parameter at a time, the
finite-difference gradient check, the detection writer that encodes
each line as a dict through ``json.dumps``, the detection loader that
checks one line at a time, and greedy matching on one image's IoU block
for one threshold at a time.
"""

import json
import math

import numpy as np

from wsodkit import fusion
from wsodkit.data import Box, box_from_json, tokenize
from wsodkit.errors import ParseError, ValidationError, WsodkitError
from wsodkit.evaluate import Detection
from wsodkit.jsonio import as_float, as_int, as_number, as_type, read_jsonl, require
from wsodkit.refine import PseudoBoxes

EPS = 1e-7


def bare_mil_run(config, records, labels, num_classes, attention=None):
    """Plain MIL training loop: the RGB head, momentum SGD, nothing else.

    Replays the exact draw order of the full model factory (all parameter
    groups are created up front from one generator). With
    ``config.fusion`` the depth head trains too, its raw scores added to
    the RGB head's. ``attention`` is an optional list of per-record (R, C)
    multipliers on the evidence that feeds the image prediction. Images
    are scored one at a time, and each image's gradient is added on its
    own. Returns the head arrays, keyed ``w_det``, ``b_det``, ``w_cls``,
    ``b_cls`` for RGB and ``depth.w_det`` and so on for depth, and the
    per-epoch mean MIL loss trace.
    """
    n = len(records)
    d = records[0].rgb_features.shape[1]
    c = num_classes
    rng = np.random.default_rng(config.seed)
    scale = config.init_scale
    params = {}
    for head in ("", "depth."):
        params[head + "w_det"] = rng.normal(0.0, scale, (d, c))
        params[head + "b_det"] = np.zeros(c)
        params[head + "w_cls"] = rng.normal(0.0, scale, (d, c))
        params[head + "b_cls"] = np.zeros(c)
    rng.normal(0.0, scale, (d, config.proj_dim))  # projection
    rng.normal(0.0, scale, (d, c + 1))  # refinement branch
    heads = ("", "depth.") if config.fusion else ("",)
    if not config.fusion:
        params = {k: v for k, v in params.items() if not k.startswith("depth.")}

    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    lr, mom = config.learning_rate, config.momentum
    trace = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        mil_sum = 0.0
        for lo in range(0, n, config.nce_batch):
            batch = order[lo : lo + config.nce_batch]
            bsz = len(batch)
            grads = {k: np.zeros_like(v) for k, v in params.items()}
            for idx in batch:
                rec = records[int(idx)]
                feats = {"": rec.rgb_features, "depth.": rec.depth_features}
                y = np.zeros(c)
                for cid in labels[int(idx)]:
                    y[cid] = 1.0
                det = feats[""] @ params["w_det"] + params["b_det"]
                cls = feats[""] @ params["w_cls"] + params["b_cls"]
                if config.fusion:
                    x = feats["depth."]
                    det = det + (x @ params["depth.w_det"] + params["depth.b_det"])
                    cls = cls + (x @ params["depth.w_cls"] + params["depth.b_cls"])
                ed = np.exp(det - det.max(axis=0, keepdims=True))
                dp = ed / ed.sum(axis=0, keepdims=True)
                ec = np.exp(cls - cls.max(axis=1, keepdims=True))
                cp = ec / ec.sum(axis=1, keepdims=True)
                comb = dp * cp
                att = None if attention is None else attention[int(idx)]
                evidence = comb if att is None else comb * att
                total = evidence.sum(axis=0)
                p = 1.0 / (1.0 + np.exp(-total))
                pc = np.clip(p, EPS, 1.0 - EPS)
                mil_sum += float(
                    -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).sum()
                )
                d_prob = -(y * (1.0 / p) - (1.0 - y) * (1.0 / (1.0 - p)))
                d_total = d_prob * p * (1.0 - p)
                d_comb = np.broadcast_to(d_total, comb.shape)
                if att is not None:
                    d_comb = d_comb * att
                d_dp = d_comb * cp
                d_cp = d_comb * dp
                d_det = dp * (d_dp - (d_dp * dp).sum(axis=0, keepdims=True))
                d_cls = cp * (d_cp - (d_cp * cp).sum(axis=1, keepdims=True))
                s = config.lambda_mil / bsz
                for head in heads:
                    x = feats[head]
                    grads[head + "w_det"] += s * (x.T @ d_det)
                    grads[head + "b_det"] += s * d_det.sum(axis=0)
                    grads[head + "w_cls"] += s * (x.T @ d_cls)
                    grads[head + "b_cls"] += s * d_cls.sum(axis=0)
            for k, v in velocity.items():
                v *= mom
                v -= lr * grads[k]
                params[k] = params[k] + v
        trace.append(mil_sum / n)
    return params, trace


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
    """Literal CorLoc: the single best-scoring detection per image.

    Ties go to the earliest detection and NaN scores rank last.
    """
    images = [iid for iid, g in gts_by_image.items() if len(g)]
    hits = 0
    for iid in images:
        cands = [d for d in dets if d.image_id == iid]
        if not cands:
            continue
        top = max(
            enumerate(cands),
            key=lambda t: (not math.isnan(t[1].score), t[1].score, -t[0]),
        )[1]
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


def save_detections_rows(dets, path):
    """The literal writer under the columnar contract.

    ``save_detections_dumps``, except that an image id must be a str
    (TypeError otherwise, after the class id and score convert) and the
    corners, once ``json.dumps`` accepts them, are written as floats.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for d in dets:
            cid, score = int(d.class_id), float(d.score)
            if not isinstance(d.image_id, str):
                raise TypeError("image id is not a str")
            box = d.box.as_list()
            json.dumps(box)
            obj = {
                "image_id": d.image_id,
                "box": [float(v) for v in box],
                "class_id": cid,
                "score": score,
            }
            fh.write(json.dumps(obj) + "\n")


def load_detections_lines(path, vocab=None):
    """The per-line detection loader: one ``Detection`` per line, in order.

    Each line's fields are checked as they are read: box, score, image id,
    class id. The one rule it adds to the loader it reproduces: without a
    vocabulary, a class id outside int64 is a bad line.
    """
    dets = []
    num_classes = None if vocab is None else len(vocab)
    for lineno, obj in read_jsonl(path, "detections", ParseError):
        bad = f"{path}: line {lineno}: bad detection"
        box = box_from_json(require(obj, "box", bad), bad)
        score = as_float(as_number(obj.get("score"), bad), bad)
        if not math.isfinite(score):
            raise ValidationError(f"{path}: line {lineno}: non-finite score {score}")
        image_id = as_type(obj.get("image_id"), str, bad)
        cid = as_int(as_number(obj.get("class_id"), bad), bad)
        if num_classes is None and not -(2**63) <= cid < 2**63:
            raise ValidationError(bad)
        if num_classes is not None and not 0 <= cid < num_classes:
            raise ValidationError(
                f"{path}: line {lineno}: class {cid} outside 0..{num_classes - 1}"
            )
        dets.append(Detection(image_id, cid, box, score))
    return dets


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
            p.grad[...] = 0.0
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


def sigmoid_two_branch(x):
    """Logistic function with one branch per sign, filled by boolean masks:
    ``1 / (1 + exp(-x))`` where x >= 0 and ``exp(x) / (1 + exp(x))``
    elsewhere, so neither branch's exp can overflow."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def depth_mask_loop(record, priors, num_classes, use_caption):
    """``priors.depth_mask`` one class and one proposal at a time.

    A class's range averages, bound by bound in sorted word order, the
    ranges of the caption's distinct words that have one for the class,
    then falls back to the class-level range; a class with neither admits
    every proposal. Membership is closed on both ends.
    """
    values = np.ones((record.num_proposals, num_classes), dtype=bool)
    words = []
    if use_caption and record.caption:
        words = sorted(set(tokenize(record.caption)))
    by_word = priors.by_class_word
    for c in range(num_classes):
        ranges = [by_word[(c, w)] for w in words if (c, w) in by_word]
        if ranges:
            lo = sum(r.lo for r in ranges) / len(ranges)
            hi = sum(r.hi for r in ranges) / len(ranges)
        elif c in priors.by_class:
            lo, hi = priors.by_class[c].lo, priors.by_class[c].hi
        else:
            continue
        for i, d in enumerate(record.proposal_depths.tolist()):
            values[i, c] = lo <= d <= hi
    return values


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
