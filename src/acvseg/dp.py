"""Exact segmental Viterbi over cut placements for fixed label sequences.

A "cut" k is the last frame index of segment k (0-based, inclusive).  A
sequence of N segments has N-1 free cuts, each restricted to an inclusive
domain, and a last cut pinned to frame T-1.  The search maximizes

    sum_n [ log p(l_n | lambda_n) + sum_{t in segment n} loglik[n, t] ]

exactly.  Paths whose scores are equal in floating point go to the
lexicographically earliest cut vector; paths whose exact scores tie but
round differently may go either way.  `best_segmentation` adds the
transition terms, constants for a fixed label sequence; training's
anchor-constrained Viterbi and inference's alignment both score through it,
with different cut domains.  The search is exhaustive over those domains:
any restriction on the cuts reaches it only as tighter domains.

The DP runs on a leading batch axis: B problems of equal N and T that
share their domains go through one backward pass and one pointer walk, and
each gets the lengths and score bits it would get alone.  Training's
anchor-constrained Viterbi is a batch of one; inference batches a video's
distinct candidates of one length.

Stage k runs from cut k-1 to cut k, where cut -1 is frame -1 and cut N-1
is frame T-1.  The backward pass takes stages N-1..0, each as a max-plus
product over the (w1, w2) grid of its two contiguous cut domains that reads
the Poisson log-length kernel as a slice of a padded poisson_table row, and
keeps each row's leftmost argmax as a backpointer.  Stage 0's one row is
the score, and the cuts follow the pointers from frame -1.  Below
MONOTONE_MIN_CELLS cells over the batch a product is taken densely, in
O(B * w1 * w2).  Otherwise the concavity of the kernel makes each row's
leftmost argmax monotone, and a monotone divide and conquer finds the same
row maxima and argmaxes, bit for bit, in O(B * (w1 + w2) log w1).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import Segmentation
from .hmm import _log_poisson

NEG_INF = -np.inf
# Stage grids with at least this many cells over the whole batch take the
# monotone row-max step, smaller ones the dense one: the two cost about the
# same at 500 x 500, and the cap bounds the dense step's temporaries.
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
    """Row maxima of each problem's stage grid
    M[b, i1, i2] = profile[b, w1-1-i1+i2] + q[b, i2], read through a
    zero-copy strided view of the profiles, and each row's leftmost argmax
    column i2; two (B, w1) arrays."""
    step_b, step_l = profile.strides
    grid = as_strided(profile[:, w1 - 1:], shape=(profile.shape[0], w1, q.shape[1]),
                      strides=(step_b, -step_l, step_l), writeable=False)
    cells = grid + q[:, None, :]
    arg = cells.argmax(axis=2)
    return cells.ravel().take(arg + np.arange(0, cells.size, q.shape[1]).reshape(arg.shape)), arg


def _row_max_monotone(profile, q, w1):
    """The row maxima and argmaxes of _row_max_dense, found without visiting
    every cell.

    The Poisson log-length profile is concave, so each M[b] is inverse-Monge
    and the leftmost argmax of row i1 never lies left of that of row i1-1
    among rows with a finite maximum.  Rows with no finite entry form a
    suffix; they take the right-most column as their bound.  Monotone divide
    and conquer then searches each row only between the argmaxes of its two
    bracketing rows, one level of the recursion at a time over all open row
    blocks of the whole batch.  Rows are numbered b*w1 + i1 and columns
    b*w2 + i2, so a block never mixes problems.  Every maximum is taken over
    a column subset that holds the row's leftmost argmax, so maximum and
    argmax equal the dense ones bit for bit.
    """
    n_batch, w2 = q.shape
    flat_p, flat_q = profile.ravel(), q.ravel()
    stride = profile.shape[1] - w2 + w1
    out = np.empty(n_batch * w1)
    out_arg = np.empty(n_batch * w1, dtype=np.int64)
    # open blocks: rows lo..hi, to be searched over columns clo..chi
    lo = np.arange(0, n_batch * w1, w1)
    hi = lo + (w1 - 1)
    col0 = clo = np.arange(0, n_batch * w2, w2)
    chi = clo + (w2 - 1)
    while lo.size:
        mid = (lo + hi) // 2
        width = chi - clo + 1
        starts = width.cumsum() - width
        n_cells = int(starts[-1] + width[-1])
        cols = (clo - starts).repeat(width)
        cols += np.arange(n_cells)
        # profile[b, i2 + (w1-1) - i1] for row mid = b*w1 + i1, column b*w2 + i2
        at = ((mid // w1) * stride + ((w1 - 1) - mid)).repeat(width)
        at += cols
        vals = flat_p.take(at)
        vals += flat_q.take(cols)
        best = np.maximum.reduceat(vals, starts)
        out[mid] = best
        # no cell is nan, so every block holds its maximum; take the first
        hits = np.flatnonzero(vals == best.repeat(width))
        arg = hits[hits.searchsorted(starts)] - starts + clo
        empty = best == NEG_INF
        arg[empty] = chi[empty]
        out_arg[mid] = arg
        left, right = mid > lo, mid < hi
        lo = np.concatenate([lo[left], mid[right] + 1])
        hi = np.concatenate([mid[left] - 1, hi[right]])
        clo, chi = (np.concatenate([clo[left], arg[right]]),
                    np.concatenate([arg[left], chi[right]]))
    return out.reshape(n_batch, w1), out_arg.reshape(n_batch, w1) - col0[:, None]


def best_cuts(stage_loglik, stage_lambdas, domains):
    """Maximize the segmental objective over legal cut placements.

    stage_loglik: (N, T) per-stage frame log-likelihood rows, or (B, N, T)
        for a batch of B problems that share the domains.
    stage_lambdas: (N,) Poisson means per stage, or (B, N).
    domains: N-1 inclusive (lo, hi) ranges for the free cuts; must be
        non-decreasing and lie inside [0, T-2].  Every constraint on the
        cuts is expressed here; the last cut is pinned to [T-1].

    A backward pass over stages N-1..0 that keeps backpointers, then a walk
    along them from frame -1, both over the whole batch at once; stage 0's
    maximum is the score.  A stage takes the monotone step when the batch's
    grids hold at least MONOTONE_MIN_CELLS cells in total.  Every problem
    gets the lengths and score bits it would get alone.

    Returns (lengths, score): an (N,) array and a float, or a (B, N) array
    and a (B,) array for batched input.  Raises ValueError when some
    problem has no legal path.
    """
    loglik = np.asarray(stage_loglik, dtype=np.float64)
    lam = np.asarray(stage_lambdas, dtype=np.float64)
    single = loglik.ndim == 2
    if single:
        loglik, lam = loglik[None], lam[None]
    n_batch, n_seg, t_total = loglik.shape
    # cs[b, n, j+1] = sum of loglik[b, n, :j+1]; a running sum stays
    # non-finite once it is, so the row totals check every frame and every
    # partial sum (an overflow would turn cut differences into nan)
    cs = np.zeros((n_batch, n_seg, t_total + 1))
    np.cumsum(loglik, axis=2, out=cs[:, :, 1:])
    if not np.all(np.isfinite(cs[:, :, -1])):
        raise ValueError("non-finite frame log-likelihoods")
    if not np.all((lam > 0) & (lam < np.inf)):  # nan and inf give nan tables
        raise ValueError("lambda must be positive")
    if len(domains) != n_seg - 1:
        raise ValueError("need exactly N-1 cut domains")
    for k, (lo, hi) in enumerate(domains):
        if not (0 <= lo <= hi <= t_total - 2):
            raise ValueError("cut domain %d out of range" % k)
    # doms[k], doms[k + 1]: the cuts before and after stage k
    doms = [np.arange(lo, hi + 1) for lo, hi in [(-1, -1), *domains, (t_total - 1, t_total - 1)]]

    # pois[b, k]: the table row of stage k of problem b
    width = 2 * t_total + 1
    pois = poisson_table(lam.reshape(-1), t_total).reshape(n_batch, n_seg, width)

    # suffix[b, i]: best score of stages k..N-1 given cut k-1 at doms[k][i];
    # back[k][b, i]: the index in doms[k + 1] of cut k on that best path
    suffix = np.zeros((n_batch, 1))
    back = [None] * n_seg
    for k in range(n_seg - 1, -1, -1):
        d0, d1 = doms[k], doms[k + 1]
        w1, w2 = d0.shape[0], d1.shape[0]
        # pois[b, k, T + d1[i2] - d0[i1]] is Toeplitz: row i1 reads the
        # profile from offset (w1-1) - i1.  Free cuts are <= T-2, so base >= 2.
        base = t_total + int(d1[0]) - int(d0[-1])
        profile = pois[:, k, base: base + w1 - 1 + w2]
        q = cs[:, k, d1[0] + 1: d1[-1] + 2] + suffix
        # the row-constant cs term is pulled out of the max
        step = (_row_max_monotone if n_batch * w1 * w2 >= MONOTONE_MIN_CELLS
                else _row_max_dense)
        best, back[k] = step(profile, q, w1)
        suffix = best - cs[:, k, d0[0] + 1: d0[-1] + 2]
    score = suffix[:, 0]
    if not np.all(np.isfinite(score)):
        raise ValueError("no legal path through the cut domains")

    cuts = np.full((n_batch, n_seg + 1), -1)
    at, rows = np.zeros(n_batch, dtype=np.int64), np.arange(n_batch)
    for k in range(n_seg):
        at = back[k][rows, at]
        cuts[:, k + 1] = doms[k + 1][at]
    lengths = np.diff(cuts, axis=1)
    if single:
        return lengths[0], float(score[0])
    return lengths, score


def best_segmentation(sequences, loglik, classes, hmm_params, domains):
    """Best cut placements for equal-length label sequences under the
    segment HMM: lengths, frame likelihoods and transitions.

    loglik rows follow the sorted `classes`, as in oracle.score_segmentation;
    domains are those of best_cuts, shared by every sequence, which all run
    through one batched best_cuts.  Returns one (Segmentation, log-score)
    per sequence, in order.
    """
    sequences = [[int(c) for c in actions] for actions in sequences]
    seqs = np.array(sequences, dtype=np.int64)
    row = {c: i for i, c in enumerate(classes)}
    stage_loglik = np.asarray(loglik)[[[row[c] for c in actions] for actions in sequences]]
    lengths, scores = best_cuts(stage_loglik, hmm_params.lambdas[seqs], domains)
    with np.errstate(divide="ignore"):
        scores = scores + np.log(hmm_params.transitions[seqs[:, :-1], seqs[:, 1:]]).sum(axis=1)
    return [(Segmentation(actions, seg_lengths), float(score))
            for actions, seg_lengths, score in zip(sequences, lengths, scores)]
