"""HMM over action segments: set-level initialization and per-video refinement.

Segment lengths are Poisson with a per-class mean, transitions are first
order between distinct classes, and frame likelihoods come from the frame
scorer's posteriors divided by the class priors.  Initialization uses only
the action sets and video lengths of the training corpus; refinement nudges
the parameters toward per-video pseudo-ground-truth statistics at rate 1/V.
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
        """Raise if any structural invariant is violated, up to float round-off."""
        tol = 1e-9
        if np.any(self.transitions < -tol):
            raise ValueError("negative transition probability")
        if np.any(np.abs(np.diag(self.transitions)) > tol):
            raise ValueError("self-transitions must be zero")
        sums = self.transitions.sum(axis=1)
        bad = (sums > tol) & (np.abs(sums - 1.0) > tol)
        if np.any(bad):
            raise ValueError("transition rows with outgoing mass must sum to 1: rows %s"
                             % (np.flatnonzero(bad).tolist(),))
        if np.any(self.lambdas < 1.0 - tol):
            raise ValueError("mean lengths must be >= 1 frame")
        if np.any(self.priors < -tol) or np.any(self.priors > 1.0 + tol):
            raise ValueError("priors must lie in [0, 1]")


def init_transitions(sets, n_classes):
    """Transition matrix from set-level co-occurrence.

    p(c'|c) is proportional to the number of training sets containing both c
    and c' (c' != c); rows with any mass are normalized to sum to 1.  Classes
    appearing in no set get an all-zero row and a warning.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("empty corpus")
    present = np.zeros(n_classes)
    pair = np.zeros((n_classes, n_classes))
    for aset in sets:
        labels = np.fromiter(aset, dtype=np.int64)
        if labels.max() >= n_classes:
            raise ValueError("label id out of range for vocabulary")
        present[labels] += 1.0
        for c in labels:
            others = labels[labels != c]
            pair[c, others] += 1.0
    unseen = np.flatnonzero(present == 0)
    if unseen.size:
        warnings.warn("classes in no training set get all-zero transition rows: %s"
                      % (unseen.tolist(),))
    trans = np.zeros_like(pair)
    rows = np.flatnonzero(present > 0)
    trans[rows] = pair[rows] / present[rows, None]
    sums = trans.sum(axis=1)
    nz = sums > 0
    trans[nz] /= sums[nz, None]
    return trans


def init_lambdas(video_lengths, sets, n_classes, l_min):
    """Per-class mean lengths minimizing sum_v (T_v - sum_{c in C_v} lambda_c)^2
    subject to lambda_c >= l_min.

    Solved by the normal equations with active-set clamping: violators are
    fixed at l_min and the free subsystem is re-solved until feasible.
    Classes appearing in no set get l_min and a warning.
    """
    video_lengths = np.asarray(list(video_lengths), dtype=np.float64)
    sets = list(sets)
    if video_lengths.shape[0] != len(sets) or not sets:
        raise ValueError("need one action set per video, at least one video")
    member = np.zeros((len(sets), n_classes))
    for v, aset in enumerate(sets):
        member[v, list(aset)] = 1.0
    seen = member.any(axis=0)
    if not seen.all():
        warnings.warn("classes in no training set get lambda = l_min: %s"
                      % (np.flatnonzero(~seen).tolist(),))
    a_full = member.T @ member
    b_full = member.T @ video_lengths
    lam = np.full(n_classes, float(l_min))
    free = seen.copy()
    while free.any():
        idx = np.flatnonzero(free)
        fixed = np.flatnonzero(seen & ~free)
        rhs = b_full[idx] - a_full[np.ix_(idx, fixed)].sum(axis=1) * float(l_min)
        sol, *_ = np.linalg.lstsq(a_full[np.ix_(idx, idx)], rhs, rcond=None)
        violating = sol < l_min
        if not violating.any():
            lam[idx] = sol
            break
        free[idx[violating]] = False
    return lam


def init_priors(video_lengths, sets, n_classes):
    """p(c) = fraction of corpus footage belonging to videos whose set has c."""
    video_lengths = np.asarray(list(video_lengths), dtype=np.float64)
    sets = list(sets)
    if video_lengths.shape[0] != len(sets) or not sets:
        raise ValueError("need one action set per video, at least one video")
    num = np.zeros(n_classes)
    for t_v, aset in zip(video_lengths, sets):
        num[list(aset)] += t_v
    return num / video_lengths.sum()


def init_params(video_lengths, sets, n_classes, l_min):
    video_lengths = list(video_lengths)
    sets = list(sets)
    return HmmParams(init_transitions(sets, n_classes),
                     init_lambdas(video_lengths, sets, n_classes, l_min),
                     init_priors(video_lengths, sets, n_classes))


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
    if actions.shape[0] >= 2:
        pair = np.zeros((n, n))
        np.add.at(pair, (actions[:-1], actions[1:]), 1.0)
        out = pair.sum(axis=1)
        for c in np.flatnonzero(out > 0):
            trans[c] += rate * (pair[c] / out[c] - trans[c])

    lam = params.lambdas.copy()
    for c in np.unique(actions):
        est = lengths[actions == c].mean()
        lam[c] += rate * (est - lam[c])
    lam = np.maximum(lam, 1.0)

    footage = np.bincount(actions, weights=lengths, minlength=n) / lengths.sum()
    priors = params.priors + rate * (footage - params.priors)
    return HmmParams(trans, lam, priors)
