"""Evaluation against hidden frame labels: frame accuracy, detection overlap,
midpoint hits, and anchor quality.  Detections and ground truth are lists of
(label, start, end) with end exclusive."""

from __future__ import annotations

import numpy as np

from .core import label_array, segmentation_from_labels


def labeling_to_segments(labeling):
    """Maximal same-label runs of a frame labeling."""
    return segmentation_to_segments(segmentation_from_labels(labeling))


def segmentation_to_segments(seg):
    out = []
    t = 0
    for c, l in zip(seg.actions, seg.lengths):
        out.append((int(c), t, t + l))
        t += l
    return out


def mof(pred, gt):
    """Fraction of frames labeled correctly: corpus_mof of one video."""
    return corpus_mof([(pred, gt)])


def corpus_mof(pairs):
    """Frame-weighted mean over videos."""
    correct = 0
    total = 0
    for pred, gt in pairs:
        pred = label_array(pred)
        gt = label_array(gt)
        if pred.shape != gt.shape:
            raise ValueError("labelings differ in length")
        correct += int((pred == gt).sum())
        total += pred.shape[0]
    if total == 0:
        raise ValueError("no frames to evaluate")
    return correct / total


def _overlap(a, b):
    return max(0, min(a[2], b[2]) - max(a[1], b[1]))


def iod(detections, ground_truth):
    """Mean over detections of |GT intersect D| / |D| against the same-label
    ground-truth segment with the largest overlap; no overlap counts 0."""
    if not detections:
        raise ValueError("no detections")
    values = []
    for det in detections:
        same = [g for g in ground_truth if g[0] == det[0]]
        best = max((_overlap(det, g) for g in same), default=0)
        values.append(best / (det[2] - det[1]))
    return float(np.mean(values))


def midpoint_hit(detections, ground_truth):
    """Fraction of ground-truth segments claimed by a detection whose midpoint
    falls inside them; each ground-truth segment can be claimed once, and
    detections claim in order of their midpoints."""
    if not ground_truth:
        raise ValueError("no ground-truth segments")
    mids = sorted(((d[1] + (d[2] - d[1] - 1) // 2), d) for d in detections)
    claimed = [False] * len(ground_truth)
    hits = 0
    for mid, det in mids:
        for i, g in enumerate(ground_truth):
            if not claimed[i] and g[0] == det[0] and g[1] <= mid < g[2]:
                claimed[i] = True
                hits += 1
                break
    return hits / len(ground_truth)


def anchor_iod(anchor_set, ground_truth):
    """IoD of the anchor intervals, treated as detections of their action."""
    dets = [(a.action, a.start, a.end + 1) for a in anchor_set]
    return iod(dets, ground_truth)


def format_table(headers, rows):
    """Aligned plain-text table."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([_fmt(v) for v in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def format_csv(headers, rows):
    lines = [",".join(str(h) for h in headers)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines)


def _fmt(v):
    if isinstance(v, float):
        return "%.4f" % v
    return str(v)
