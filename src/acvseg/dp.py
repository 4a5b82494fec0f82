"""Exact segmental Viterbi over cut placements for a fixed label sequence.

A "cut" k is the last frame index of segment k (0-based, inclusive).  The
final segment always ends at frame T-1, so a sequence of N segments has N-1
free cuts, each restricted to an inclusive domain.  The search maximizes

    sum_n [ log p(l_n | lambda_n) + sum_{t in segment n} loglik[n, t] ]

exactly.  Score ties are broken toward the lexicographically earliest cut
vector.  `best_segmentation` adds the transition terms, constants for a
fixed label sequence; training's anchor-constrained Viterbi and inference's
alignment both score through it, with different cut domains.  The search
is exhaustive over those domains: any restriction on the cuts reaches it
only as tighter domains.

The backward pass is a max-plus product per stage pair over the (w1, w2)
grid of their cut domains.  Below MONOTONE_MIN_CELLS cells it is taken
densely, in O(w1 * w2).  At or above it, the concavity of the Poisson
log-length kernel makes each row's leftmost argmax monotone, and a monotone
divide and conquer finds the same row maxima in O((w1 + w2) log w1).  Both
steps give bit-identical scores, and the traceback is shared.
"""

from __future__ import annotations

import numpy as np

from .core import Segmentation
from .hmm import log_poisson_length

NEG_INF = -np.inf
# Stage grids with at least this many cells take the monotone row-max step,
# smaller ones the dense one: the two cost about the same at 500 x 500.
MONOTONE_MIN_CELLS = 500 * 500


def poisson_table(lambdas, max_len):
    """pois[n, l] = log Poisson(l | lambdas[n]) for l = 0..max_len; l=0 is -inf."""
    lam = np.asarray(lambdas, dtype=np.float64)
    lengths = np.arange(1, max_len + 1, dtype=np.float64)
    table = np.full((lam.shape[0], max_len + 1), NEG_INF)
    table[:, 1:] = log_poisson_length(lengths[None, :], lam[:, None])
    return table


def _row_max_dense(profile, q, w1):
    """Row maxima of the stage grid M[i1, i2] = profile[w1-1-i1+i2] + q[i2],
    read through a zero-copy sliding window over the profile."""
    windows = np.lib.stride_tricks.sliding_window_view(profile, q.shape[0])
    return (windows[::-1] + q[None, :]).max(axis=1)


def _row_max_monotone(profile, q, w1):
    """The row maxima of _row_max_dense, found without visiting every cell.

    The Poisson log-length profile is concave, so M is inverse-Monge and the
    leftmost argmax of row i1 never lies left of that of row i1-1 among rows
    with a finite maximum.  Rows with no finite entry form a suffix; they
    take the right-most column as their bound.  Monotone divide and conquer
    then searches each row only between the argmaxes of its two bracketing
    rows, one level of the recursion at a time over all open row blocks.
    Every maximum is taken over a column subset that holds the row's argmax,
    so it equals the dense maximum bit for bit.
    """
    w2 = q.shape[0]
    out = np.empty(w1)
    # open blocks: rows lo..hi, to be searched over columns clo..chi
    lo, hi = np.array([0]), np.array([w1 - 1])
    clo, chi = np.array([0]), np.array([w2 - 1])
    while lo.size:
        mid = (lo + hi) // 2
        width = chi - clo + 1
        starts = width.cumsum() - width
        n_cells = int(starts[-1] + width[-1])
        pos = np.arange(n_cells)
        cols = pos + (clo - starts).repeat(width)
        vals = profile[cols + ((w1 - 1) - mid).repeat(width)] + q[cols]
        best = np.maximum.reduceat(vals, starts)
        out[mid] = best
        first = np.where(vals == best.repeat(width), pos, n_cells)
        arg = np.minimum.reduceat(first, starts) - starts + clo
        empty = best == NEG_INF
        arg[empty] = chi[empty]
        left, right = mid > lo, mid < hi
        lo = np.concatenate([lo[left], mid[right] + 1])
        hi = np.concatenate([mid[left] - 1, hi[right]])
        clo, chi = (np.concatenate([clo[left], arg[right]]),
                    np.concatenate([arg[left], chi[right]]))
    return out


def best_cuts(stage_loglik, stage_lambdas, domains):
    """Maximize the segmental objective over legal cut placements.

    stage_loglik: (N, T) per-stage frame log-likelihood rows.
    stage_lambdas: (N,) Poisson means per stage.
    domains: N-1 inclusive (lo, hi) ranges for the free cuts; must be
        non-decreasing and lie inside [0, T-2].  Every constraint on the
        cuts is expressed here.

    Returns (lengths, score).  Raises ValueError when no legal path exists.
    """
    loglik = np.asarray(stage_loglik, dtype=np.float64)
    lam = np.asarray(stage_lambdas, dtype=np.float64)
    n_seg, t_total = loglik.shape
    if not np.all(np.isfinite(loglik)):
        raise ValueError("non-finite frame log-likelihoods")
    if np.any(lam <= 0):
        raise ValueError("lambda must be positive")
    if len(domains) != n_seg - 1:
        raise ValueError("need exactly N-1 cut domains")

    pois = poisson_table(lam, t_total)
    # cs[n, j+1] = sum of loglik[n, :j+1]
    cs = np.concatenate([np.zeros((n_seg, 1)), np.cumsum(loglik, axis=1)], axis=1)

    if n_seg == 1:
        score = pois[0, t_total] + cs[0, t_total]
        return np.array([t_total]), float(score)

    doms = []
    for k, (lo, hi) in enumerate(domains):
        if not (0 <= lo <= hi <= t_total - 2):
            raise ValueError("cut domain %d out of range" % k)
        doms.append(np.arange(lo, hi + 1))

    # suffix[k][i]: best score of segments k+1..N-1 given segment k ends at doms[k][i]
    suffix = [None] * (n_seg - 1)
    js = doms[-1]
    suffix[n_seg - 2] = (pois[n_seg - 1, t_total - 1 - js] + cs[n_seg - 1, t_total]
                         - cs[n_seg - 1, js + 1])
    for k in range(n_seg - 3, -1, -1):
        d0, d1 = doms[k], doms[k + 1]
        w1, w2 = d0.shape[0], d1.shape[0]
        # the domains are contiguous ranges, so pois[k+1, d1[i2] - d0[i1]]
        # is Toeplitz: both row-max steps read it from one padded
        # length-profile vector
        off = int(d1[0]) - int(d0[0])
        base = off - (w1 - 1)
        profile = np.full(w1 - 1 + w2, NEG_INF)
        lo_d = max(base, 1)
        hi_d = off + w2 - 1
        if hi_d >= lo_d:
            profile[lo_d - base: hi_d - base + 1] = pois[k + 1, lo_d: hi_d + 1]
        q = cs[k + 1, d1 + 1] + suffix[k + 1]
        # row i1 starts at offset (w1-1) - i1; the row-constant cs term is
        # pulled out of the max
        step = _row_max_monotone if w1 * w2 >= MONOTONE_MIN_CELLS else _row_max_dense
        suffix[k] = step(profile, q, w1) - cs[k + 1, d0 + 1]

    first = pois[0, doms[0] + 1] + cs[0, doms[0] + 1] + suffix[0]
    total = first.max()
    if not np.isfinite(total):
        raise ValueError("no legal path through the cut domains")

    cuts = [int(doms[0][int(np.argmax(first))])]
    for k in range(1, n_seg - 1):
        prev = cuts[-1]
        j2 = doms[k]
        seg_len = np.maximum(j2 - prev, 0)  # pois[k, 0] is -inf
        cand = pois[k, seg_len] + cs[k, j2 + 1] - cs[k, prev + 1] + suffix[k]
        cuts.append(int(j2[int(np.argmax(cand))]))

    bounds = np.array([-1] + cuts + [t_total - 1])
    lengths = np.diff(bounds)
    return lengths, float(total)


def best_segmentation(actions, loglik, classes, hmm_params, domains):
    """Best cut placement for the label sequence `actions` under the segment
    HMM: lengths, frame likelihoods and transitions.

    loglik rows follow the sorted `classes`, as in oracle.score_segmentation;
    domains are those of best_cuts.  Returns (Segmentation, log-score).
    """
    actions = [int(c) for c in actions]
    row = {c: i for i, c in enumerate(classes)}
    stage_loglik = np.asarray(loglik)[[row[c] for c in actions]]
    lengths, score = best_cuts(stage_loglik, hmm_params.lambdas[actions], domains)
    with np.errstate(divide="ignore"):
        score += np.log(hmm_params.transitions[actions[:-1], actions[1:]]).sum()
    return Segmentation(actions, lengths), float(score)
