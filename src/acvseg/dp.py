"""Exact segmental Viterbi over cut placements for a fixed label sequence.

A "cut" k is the last frame index of segment k (0-based, inclusive).  A
sequence of N segments has N-1 free cuts, each restricted to an inclusive
domain, and a last cut pinned to frame T-1.  The search maximizes

    sum_n [ log p(l_n | lambda_n) + sum_{t in segment n} loglik[n, t] ]

exactly.  Score ties are broken toward the lexicographically earliest cut
vector.  `best_segmentation` adds the transition terms, constants for a
fixed label sequence; training's anchor-constrained Viterbi and inference's
alignment both score through it, with different cut domains.  The search
is exhaustive over those domains: any restriction on the cuts reaches it
only as tighter domains.

Every stage k runs from the cut before it (frame -1 for k = 0) to a cut in
its domain.  The backward pass is a max-plus product per stage pair over
the (w1, w2) grid of their contiguous cut domains, which reads the Poisson
log-length kernel as a zero-copy slice of the padded poisson_table.  Below
MONOTONE_MIN_CELLS cells it is taken densely, in O(w1 * w2).  At or above
it, the concavity of the kernel makes each row's leftmost argmax monotone,
and a monotone divide and conquer finds the same row maxima in
O((w1 + w2) log w1).  Both steps give bit-identical scores, and the
traceback from frame -1 is shared.
"""

from __future__ import annotations

import numpy as np

from .core import Segmentation
from .hmm import _log_poisson

NEG_INF = -np.inf
# Stage grids with at least this many cells take the monotone row-max step,
# smaller ones the dense one: the two cost about the same at 500 x 500.
MONOTONE_MIN_CELLS = 500 * 500


def poisson_table(lambdas, max_len):
    """pois[n, max_len + l] = log Poisson(l | lambdas[n]) for l = -max_len..max_len,
    -inf for l <= 0, so no reader clips a cut difference; lambdas must be > 0."""
    lam = np.asarray(lambdas, dtype=np.float64)
    lengths = np.arange(1, max_len + 1, dtype=np.float64)
    table = np.full((lam.shape[0], 2 * max_len + 1), NEG_INF)
    table[:, max_len + 1:] = _log_poisson(lengths[None, :], lam[:, None])
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
        cuts is expressed here; the last cut is pinned to [T-1].

    A backward pass over stages N-1..1, then a traceback over stages 0..N-1
    from frame -1; the best stage-0 candidate is the score.

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
    for k, (lo, hi) in enumerate(domains):
        if not (0 <= lo <= hi <= t_total - 2):
            raise ValueError("cut domain %d out of range" % k)
    doms = [np.arange(lo, hi + 1) for lo, hi in domains] + [np.array([t_total - 1])]

    pois = poisson_table(lam, t_total)
    # cs[n, j+1] = sum of loglik[n, :j+1]
    cs = np.concatenate([np.zeros((n_seg, 1)), np.cumsum(loglik, axis=1)], axis=1)

    # suffix[k][i]: best score of stages k+1..N-1 given cut k at doms[k][i]
    suffix = [None] * (n_seg - 1) + [np.zeros(1)]
    for k in range(n_seg - 1, 0, -1):
        d0, d1 = doms[k - 1], doms[k]
        w1, w2 = d0.shape[0], d1.shape[0]
        # pois[k, T + d1[i2] - d0[i1]] is Toeplitz: row i1 reads the profile
        # from offset (w1-1) - i1.  Free cuts are <= T-2, so base >= 2.
        base = t_total + int(d1[0]) - int(d0[-1])
        profile = pois[k, base: base + w1 - 1 + w2]
        q = cs[k, d1 + 1] + suffix[k]
        # the row-constant cs term is pulled out of the max
        step = _row_max_monotone if w1 * w2 >= MONOTONE_MIN_CELLS else _row_max_dense
        suffix[k - 1] = step(profile, q, w1) - cs[k, d0 + 1]

    cuts = [-1]
    for k in range(n_seg):
        prev, j2 = cuts[-1], doms[k]
        cand = pois[k, t_total + j2 - prev] + cs[k, j2 + 1] - cs[k, prev + 1] + suffix[k]
        if k == 0:
            score = cand.max()
            if not np.isfinite(score):
                raise ValueError("no legal path through the cut domains")
        cuts.append(int(j2[int(np.argmax(cand))]))
    return np.diff(cuts), float(score)


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
