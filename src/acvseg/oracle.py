"""Brute-force references for the segmental search, small scales only.

Everything here exists to check the dynamic programs, never to run in the
training or inference paths.  Both oracles score candidates through the one
shared `score_segmentation`, enumerate in lexicographic order, and keep
strictly better candidates only, so float-equal scores go to the earliest
cuts, as in the DP.  The two sum their terms in different orders, so paths
whose exact scores tie but round differently may be broken differently.
Size caps are hard errors, not silent truncations.
"""

from __future__ import annotations

import itertools

import numpy as np

from .acv import Anchor, AnchorSet, cut_domains
from .core import Segmentation
from .hmm import HmmParams, log_poisson_length

MAX_ANCHOR_PATHS = 10 ** 7
MAX_ALL_COLOR_FRAMES = 20
MAX_ALL_COLOR_CLASSES = 3
MAX_ALL_COLOR_SEGMENTS = 5


def score_segmentation(actions, lengths, loglik, classes, hmm_params):
    """Log-score of one labeled segmentation under the segment HMM:
    lengths through the Poisson model, frames through loglik (rows aligned
    with the sorted `classes`), plus transition terms; the flat first-label
    prior is dropped everywhere."""
    row = {c: i for i, c in enumerate(classes)}
    total = 0.0
    t = 0
    prev = None
    for c, l in zip(actions, lengths):
        c, l = int(c), int(l)
        total += log_poisson_length(l, hmm_params.lambdas[c])
        total += float(loglik[row[c], t:t + l].sum())
        if prev is not None:
            with np.errstate(divide="ignore"):
                total += float(np.log(hmm_params.transitions[prev, c]))
        prev = c
        t += l
    return total


def brute_force_anchor_best(anchor_set, loglik, hmm_params):
    """Exhaustive maximum over the anchor graph's legal cut placements;
    loglik is laid out as for acv.constrained_viterbi."""
    t_total = np.shape(loglik)[1]
    ranges = [range(lo, hi + 1) for lo, hi in cut_domains(anchor_set, t_total)]
    n_paths = 1
    for r in ranges:
        n_paths *= len(r)
    if n_paths > MAX_ANCHOR_PATHS:
        raise ValueError("too many cut combinations: %d" % n_paths)
    actions = [a.action for a in anchor_set]
    classes = sorted(actions)
    best = None
    for cuts in itertools.product(*ranges):
        bounds = (-1,) + cuts + (t_total - 1,)
        lengths = [b - a for a, b in zip(bounds, bounds[1:])]
        if min(lengths) < 1:
            continue
        score = score_segmentation(actions, lengths, loglik, classes, hmm_params)
        if best is None or score > best[1]:
            best = (Segmentation(actions, lengths), score)
    if best is None:
        raise ValueError("no legal path through the cut domains")
    return best


def brute_force_all_color(loglik, classes, hmm_params, num_frames, max_segments):
    """True optimum over every segmentation of up to max_segments segments
    that uses every class of the set at least once.

    Immediate repeats carry zero transition mass under the co-occurrence
    convention, so they lose to their merged form automatically.
    """
    classes = sorted(int(c) for c in classes)
    if num_frames > MAX_ALL_COLOR_FRAMES:
        raise ValueError("all-color oracle capped at %d frames" % MAX_ALL_COLOR_FRAMES)
    if len(classes) > MAX_ALL_COLOR_CLASSES:
        raise ValueError("all-color oracle capped at %d classes" % MAX_ALL_COLOR_CLASSES)
    if max_segments > MAX_ALL_COLOR_SEGMENTS:
        raise ValueError("all-color oracle capped at %d segments" % MAX_ALL_COLOR_SEGMENTS)
    if max_segments < len(classes):
        raise ValueError("max_segments below the set size")
    best = None
    for n_seg in range(len(classes), max_segments + 1):
        if n_seg > num_frames:
            break
        for labels in itertools.product(classes, repeat=n_seg):
            if set(labels) != set(classes):
                continue
            for cuts in itertools.combinations(range(1, num_frames), n_seg - 1):
                bounds = (0,) + cuts + (num_frames,)
                lengths = [b - a for a, b in zip(bounds, bounds[1:])]
                score = score_segmentation(labels, lengths, loglik, classes, hmm_params)
                if best is None or score > best[1]:
                    best = (Segmentation(labels, lengths), score)
    if best is None:
        raise ValueError("no candidate segmentation at all")
    return best


def random_instance(rng, max_frames, max_classes):
    """A random small segmentation problem for equivalence sweeps, drawn from
    the numpy Generator `rng`: frame log-likelihoods (standard normals
    times 2), HMM parameters, and an AnchorSet of disjoint random intervals
    with the set's classes in random temporal order.  A set of
    max_classes actions needs 2 * max_classes anchor edges."""
    if max_classes < 1 or max_frames < max(4, 2 * max_classes):
        raise ValueError("need max_classes >= 1 and max_frames >= max(4, 2 * max_classes), "
                         "got max_frames %d, max_classes %d" % (max_frames, max_classes))
    m = int(rng.integers(1, max_classes + 1))
    t_total = int(rng.integers(max(2 * m, 4), max_frames + 1))
    n_classes = m + int(rng.integers(0, 3))
    classes = sorted(rng.choice(n_classes, size=m, replace=False).tolist())
    loglik = 2.0 * rng.standard_normal((m, t_total))
    trans = np.zeros((n_classes, n_classes))
    for c in range(n_classes):
        w = rng.random(n_classes)
        w[c] = 0.0
        if w.sum() > 0:
            trans[c] = w / w.sum()
    lam = rng.uniform(1.0, max(2.0, t_total / 2.0), size=n_classes)
    params = HmmParams(trans, lam, np.full(n_classes, 0.5))

    edges = np.sort(rng.choice(t_total, size=2 * m, replace=False))
    order = rng.permutation(m)
    anchors = []
    for i in range(m):
        start, end = int(edges[2 * i]), int(edges[2 * i + 1])
        anchors.append(Anchor(classes[order[i]], (start + end) // 2, start, end))
    return {"num_frames": t_total, "classes": classes, "loglik": loglik,
            "hmm": params, "anchors": AnchorSet(anchors)}
