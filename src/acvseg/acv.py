"""Pseudo-ground-truth generation for one video.

Per-class saliency peaks become anchors, anchors define a graph of candidate
segmentations containing each action of the video's set exactly once in
anchor order (its cut domains), and an exact segmental Viterbi picks the
best cuts.  The result is the pseudo ground truth the scorer is trained on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dp


@dataclass(frozen=True)
class Anchor:
    """A short interval believed to lie inside a segment of `action`.

    start/end are inclusive frame indices; center is the saliency peak the
    interval was grown from.
    """

    action: int
    center: int
    start: int
    end: int

    def __post_init__(self):
        if not self.start <= self.center <= self.end:
            raise ValueError("anchor center outside its interval")
        if self.start < 0:
            raise ValueError("anchor interval out of range")


@dataclass(frozen=True)
class AnchorSet:
    """One anchor per action of the video's set; pairwise disjoint intervals,
    stored sorted by center."""

    anchors: tuple

    def __init__(self, anchors):
        anchors = tuple(sorted(anchors, key=lambda a: a.center))
        if not anchors:
            raise ValueError("no anchors")
        actions = [a.action for a in anchors]
        if len(set(actions)) != len(actions):
            raise ValueError("duplicate action among anchors")
        for prev, cur in zip(anchors, anchors[1:]):
            if cur.start <= prev.end:
                raise ValueError("anchor intervals overlap")
        object.__setattr__(self, "anchors", anchors)

    def __len__(self):
        return len(self.anchors)

    def __iter__(self):
        return iter(self.anchors)


def window_sum(rows, tau):
    """Sliding sum over a (2*tau+1)-frame window, truncated at the borders."""
    rows = np.asarray(rows, dtype=np.float64)
    t_total = rows.shape[1]
    cs = np.concatenate([np.zeros((rows.shape[0], 1)), np.cumsum(rows, axis=1)], axis=1)
    t = np.arange(t_total)
    hi = np.minimum(t + tau + 1, t_total)
    lo = np.maximum(t - tau, 0)
    return cs[:, hi] - cs[:, lo]


def compute_saliency(scores, action_set, tau):
    """S[c, t]: windowed sum of log f_c margins over the per-frame worst class
    of the set.  Rows follow the sorted order of `action_set`; every entry is
    non-negative."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    logf = scores.log_sigmoid[action_set.as_array()]
    margin = logf - logf.min(axis=0, keepdims=True)
    return window_sum(margin, tau)


def saliency_backward(d_saliency, scores, action_set, tau):
    """Map a gradient at compute_saliency(scores, action_set, tau) back to
    one at the log f_c rows of the set, in its sorted order.

    The window sum is self-adjoint, so the same truncated window applies;
    the min subtraction routes a negative column sum to each frame's worst
    class of the set (the first on ties), where the subgradient lands.
    """
    worst = scores.log_sigmoid[action_set.as_array()].argmin(axis=0)
    d_margin = window_sum(d_saliency, tau)
    d_logf = d_margin.copy()
    d_logf[worst, np.arange(d_margin.shape[1])] -= d_margin.sum(axis=0)
    return d_logf


def select_anchors(saliency, actions, lambdas, alpha):
    """Place one anchor per action at its saliency peak, grow an interval of
    half-width floor(alpha * lambda / 2), and resolve overlaps.

    Overlaps are resolved iteratively: of an overlapping pair, the anchor
    with the lower center saliency moves to its next-best center whose
    interval clears every other current anchor.  If some anchor runs out of
    centers, alpha is halved for the whole video and selection restarts;
    once every interval is a single frame and placement still fails, that is
    an error.

    saliency rows, `actions` (sorted ids) and `lambdas` are aligned.
    """
    s = np.asarray(saliency, dtype=np.float64)
    m, t_total = s.shape
    actions = [int(c) for c in actions]
    lambdas = np.asarray(lambdas, dtype=np.float64)
    if len(actions) != m or lambdas.shape != (m,):
        raise ValueError("need one action and one lambda per saliency row")
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError("alpha must be a positive finite number, got %r" % (alpha,))

    # candidate centers per class: saliency descending, earlier frame on ties
    order = np.argsort(-s, axis=1, kind="stable")

    # an anchor of radius >= T-1 spans the video and leaves no room for a
    # second one, so those halvings are taken without trying to place
    if m >= 2:
        widest = float(lambdas.max())
        while alpha * widest / 2.0 >= max(t_total - 1, 1):
            alpha /= 2.0
    while True:
        # any radius >= T-1 spans the video, so clamping at T changes no anchor
        with np.errstate(over="ignore"):
            radius = np.minimum(np.floor(alpha * lambdas / 2.0), t_total).astype(np.int64)
        placed = _place(s, order, radius, t_total)
        if placed is not None:
            return AnchorSet(Anchor(actions[i], int(c),
                                    int(max(0, c - radius[i])),
                                    int(min(t_total - 1, c + radius[i])))
                             for i, c in enumerate(placed))
        if np.all(radius == 0):
            raise ValueError("cannot place %d disjoint anchors in %d frames" % (m, t_total))
        alpha /= 2.0


def _place(s, order, radius, t_total):
    m = len(order)
    ptr = [0] * m
    centers = [int(order[i][0]) for i in range(m)]

    def interval(i, c):
        return max(0, c - int(radius[i])), min(t_total - 1, c + int(radius[i]))

    # every pass advances one pointer, so this ends within m * t_total passes
    while True:
        spans = [interval(i, centers[i]) for i in range(m)]
        # the overlapping pair whose first member starts earliest, lowest ids first
        clash = min(((spans[i][0], i, j) for i in range(m) for j in range(m)
                     if j != i and spans[j][0] <= spans[i][1] and spans[i][0] <= spans[j][1]),
                    default=None)
        if clash is None:
            return centers
        loser = min(clash[1:], key=lambda i: (s[i, centers[i]], -i))
        others = [spans[j] for j in range(m) if j != loser]
        for p in range(ptr[loser] + 1, t_total):
            c = int(order[loser][p])
            lo, hi = interval(loser, c)
            if all(o_hi < lo or o_lo > hi for o_lo, o_hi in others):
                ptr[loser], centers[loser] = p, c
                break
        else:
            return None


def cut_domains(anchor_set, num_frames):
    """The anchor graph as N-1 inclusive (lo, hi) ranges: segment n must
    contain anchor n, so its last frame lies from the end of anchor n through
    the frame before anchor n+1 starts."""
    anchors = list(anchor_set)
    if anchors[-1].end > num_frames - 1:
        raise ValueError("anchor interval beyond the last frame")
    return tuple((a.end, b.start - 1) for a, b in zip(anchors, anchors[1:]))


def constrained_viterbi(anchor_set, loglik, hmm_params):
    """Best segmentation through the anchor graph under the HMM objective.

    loglik has a row per anchor's action, in sorted order, and a column per
    frame.  Returns (Segmentation, log-score); the score includes length,
    likelihood and transition terms.  Float-equal scores go to the
    lexicographically earliest cuts; paths whose exact scores tie but round
    differently may go either way.
    """
    loglik = np.asarray(loglik, dtype=np.float64)
    actions = [a.action for a in anchor_set]
    classes = sorted(actions)
    if loglik.ndim != 2 or loglik.shape[0] != len(classes):
        raise ValueError("need a likelihood row per action of the set")
    domains = cut_domains(anchor_set, loglik.shape[1])
    return dp.best_segmentation([actions], loglik, classes, hmm_params, domains)[0]


def write_acv_dump(path, anchor_set, seg):
    """Debug dump: the anchors and the cuts chosen for one video."""
    lines = ["anchors"]
    for a in anchor_set:
        lines.append("%d center %d interval %d %d" % (a.action, a.center, a.start, a.end))
    lines.append("cuts")
    bounds = np.cumsum(seg.lengths)
    lines.append(" ".join(str(int(b) - 1) for b in bounds))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
