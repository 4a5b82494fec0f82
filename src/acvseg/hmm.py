"""HMM over action segments: set-level initialization and per-video refinement.

Segment lengths are Poisson with a per-class mean, transitions are first
order between distinct classes, and frame likelihoods come from the frame
scorer's posteriors divided by the class priors.  Initialization
(init_params) uses only the action sets and video lengths of the training
corpus: all three tables come from one videos x classes set-membership
matrix.  Refinement nudges the parameters at rate 1/V toward one video's
pseudo-ground-truth statistics: its segment pair counts and its per-class
segment counts and length sums.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


@dataclass
class HmmParams:
    """transitions: (n, n) row-stochastic (all-zero rows allowed for classes
    with no observed successor); lambdas: (n,) mean lengths >= 1 frame;
    priors: (n,) footage fractions in [0, 1], not normalized across classes."""

    transitions: np.ndarray
    lambdas: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        self.transitions = np.array(self.transitions, dtype=np.float64)
        self.lambdas = np.array(self.lambdas, dtype=np.float64)
        self.priors = np.array(self.priors, dtype=np.float64)
        n = self.lambdas.shape[0]
        if self.transitions.shape != (n, n) or self.priors.shape != (n,):
            raise ValueError("inconsistent parameter shapes")

    @property
    def num_classes(self):
        return self.lambdas.shape[0]

    def copy(self):
        return HmmParams(self.transitions.copy(), self.lambdas.copy(), self.priors.copy())

    def check(self):
        """Raise if any invariant is violated, up to float round-off; NaN fails."""
        tol = 1e-9
        if not np.all(self.transitions >= -tol):
            raise ValueError("negative transition probability")
        if not np.all(np.abs(np.diag(self.transitions)) <= tol):
            raise ValueError("self-transitions must be zero")
        sums = self.transitions.sum(axis=1)
        bad = ~((sums <= tol) | (np.abs(sums - 1.0) <= tol))
        if np.any(bad):
            raise ValueError("transition rows with outgoing mass must sum to 1: rows %s"
                             % (np.flatnonzero(bad).tolist(),))
        if not np.all(self.lambdas >= 1.0 - tol):
            raise ValueError("mean lengths must be >= 1 frame")
        if not np.all((self.priors >= -tol) & (self.priors <= 1.0 + tol)):
            raise ValueError("priors must lie in [0, 1]")


def init_params(video_lengths, sets, n_classes, l_min):
    """Initial tables from the training action sets and video lengths alone.

    With M the (videos, classes) 0/1 set-membership matrix and T the video
    lengths, counts = M^T M holds the number of sets containing c on its
    diagonal and the number containing both c and c' off it, and
    footage = M^T T.  Then
    - p(c'|c) = counts[c, c'] / counts[c, c] for c' != c, with rows that
      have any mass normalized to sum to 1;
    - the mean lengths minimize sum_v (T_v - sum_{c in C_v} lambda_c)^2
      subject to lambda_c >= l_min: the normal equations
      counts @ lambda = footage, solved with active-set clamping (violators
      are fixed at l_min and the free subsystem is re-solved until feasible);
    - p(c) = footage[c] / sum_v T_v, the share of footage in videos with c.
    Classes in no set get an all-zero transition row, lambda = l_min (finite
    and >= 1, as HmmParams requires), prior 0 and one warning.
    """
    if not (np.isfinite(l_min) and l_min >= 1):
        raise ValueError("l_min must be a finite number >= 1, got %r" % (l_min,))
    lengths = np.asarray(list(video_lengths), dtype=np.float64)
    sets = list(sets)
    if lengths.shape[0] != len(sets) or not sets:
        raise ValueError("need one action set per video, at least one video")
    member = np.zeros((len(sets), n_classes))
    for v, aset in enumerate(sets):
        labels = list(aset)
        if max(labels) >= n_classes:
            raise ValueError("label id out of range for vocabulary")
        member[v, labels] = 1.0
    # integer sums, so exact in any summation order
    counts = member.T @ member
    footage = member.T @ lengths
    present = np.diag(counts)
    seen = present > 0
    if not seen.all():
        warnings.warn("classes in no training set get an all-zero transition row, "
                      "lambda = l_min and prior 0: %s" % (np.flatnonzero(~seen).tolist(),))

    trans = np.zeros_like(counts)
    trans[seen] = counts[seen] / present[seen, None]
    np.fill_diagonal(trans, 0.0)
    sums = trans.sum(axis=1)
    nz = sums > 0
    trans[nz] /= sums[nz, None]

    lam = np.full(n_classes, float(l_min))
    free = seen.copy()
    while free.any():
        idx = np.flatnonzero(free)
        fixed = np.flatnonzero(seen & ~free)
        rhs = footage[idx] - counts[np.ix_(idx, fixed)].sum(axis=1) * float(l_min)
        sol, *_ = np.linalg.lstsq(counts[np.ix_(idx, idx)], rhs, rcond=None)
        violating = sol < l_min
        if not violating.any():
            lam[idx] = sol
            break
        free[idx[violating]] = False

    return HmmParams(trans, lam, footage / lengths.sum())


def _log_poisson(length, lam):
    """log p(l | lambda) = l ln(lambda) - lambda - ln(l!), unchecked."""
    return length * np.log(lam) - lam - gammaln(length + 1.0)


def log_poisson_length(length, lam):
    """_log_poisson with its inputs checked; a float for scalar inputs."""
    length = np.asarray(length, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    if np.any(length < 1) or np.any(length != np.floor(length)):
        raise ValueError("lengths must be integers >= 1")
    if np.any(lam <= 0):
        raise ValueError("lambda must be positive")
    out = _log_poisson(length, lam)
    return float(out) if out.ndim == 0 else out


def log_frame_likelihood(log_posteriors, priors):
    """log p(x_t | c) = log p(c | x_t) - log p(c), rows aligned with priors."""
    log_posteriors = np.asarray(log_posteriors, dtype=np.float64)
    priors = np.asarray(priors, dtype=np.float64)
    if np.any(priors <= 0):
        raise ValueError("zero prior for an evaluated class")
    return log_posteriors - np.log(priors)[:, None]


def update_refined(params, seg, num_videos):
    """One per-video refinement step at rate 1/V toward the pseudo-ground-truth
    statistics of `seg`.

    Touched transition rows are those with at least one successor segment, so
    every touched row stays a convex combination of stochastic rows.  Mean
    lengths are clamped at 1 frame; priors move toward the per-video footage
    fraction for every class.
    """
    if num_videos < 1:
        raise ValueError("need at least one video")
    rate = 1.0 / float(num_videos)
    n = params.num_classes
    actions = np.asarray(seg.actions, dtype=np.int64)
    lengths = np.asarray(seg.lengths, dtype=np.float64)
    if actions.max() >= n:
        raise ValueError("segment label out of range")

    trans = params.transitions.copy()
    pair = np.zeros((n, n))
    np.add.at(pair, (actions[:-1], actions[1:]), 1.0)
    out = pair.sum(axis=1)
    moved = out > 0
    trans[moved] += rate * (pair[moved] / out[moved, None] - trans[moved])

    # per-class sums of integer lengths are exact, so total / count is the exact mean
    count = np.bincount(actions, minlength=n)
    total = np.bincount(actions, weights=lengths, minlength=n)
    hit = count > 0
    lam = params.lambdas.copy()
    lam[hit] += rate * (total[hit] / count[hit] - lam[hit])
    lam = np.maximum(lam, 1.0)

    priors = params.priors + rate * (total / lengths.sum() - params.priors)
    return HmmParams(trans, lam, priors)
