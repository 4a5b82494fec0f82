"""Monte-Carlo segmentation and alignment at test time.

Candidate action sequences are sampled from an action set until their mean
lengths cover the video, each candidate is aligned by the exact segmental
Viterbi, and the best posterior wins.  Segmentation draws the set from the
training ground truths; alignment is told the true set.

Repeated candidates are aligned once.  The distinct ones are grouped by
length, and each group runs through the batched DP in chunks of at most
BATCH_FRAMES stage frames; the winner is the first candidate in sample
order with the best score, exactly as if each were aligned on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dp, hmm as hmm_mod, scorer
from .core import ActionSet
from .rng import fork_rng

RESAMPLE_CAP = 10 ** 6
# picks drawn per rng call; one array draw yields the same values as as many
# scalar draws, at a fraction of the per-call overhead
DRAW_BLOCK = 1024
# distinct candidates of one length are aligned in batches of at most
# BATCH_FRAMES stage frames (batch size x segments x frames), which bounds
# the batch's tables
BATCH_FRAMES = 2 ** 17


@dataclass(frozen=True)
class CandidateSequence:
    """Ordered labels covering `source_set`, no immediate repeats."""

    actions: tuple
    source_set: ActionSet


def sample_sequences(action_set, lambdas, num_frames, k, rng):
    """Draw k candidate sequences whose accumulated mean lengths exceed the
    video length.

    Labels are uniform over the set with no immediate repeats (a singleton
    set is exempt); sampling stops right after the sum of lambdas passes
    num_frames, and sequences that fail to cover the set are discarded and
    redrawn, up to a global attempt cap.  A set that no draw can cover
    fails at once: every label but the last must be placed while the total
    is still <= num_frames.  Picks are drawn from `rng` in blocks of
    DRAW_BLOCK, so the candidates equal those of one scalar draw per pick,
    but `rng` may end the call advanced past the last pick it used.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(rng, (int, np.integer)):
        rng = fork_rng(rng, "sample")
    labels = action_set.as_array()
    lam = np.asarray(lambdas, dtype=np.float64)[labels]
    if np.any(lam <= 0):
        raise ValueError("lambda must be positive")
    if np.sort(lam)[:-1].sum() > num_frames:
        raise ValueError("no sequence can cover the set: its %d shortest mean lengths "
                         "exceed %d frames" % (lam.shape[0] - 1, num_frames))
    ids, means = labels.tolist(), lam.tolist()
    need = set(ids)
    draws = _uniform_picks(rng, len(ids))
    out = []
    attempts = 0
    while len(out) < k:
        attempts += 1
        if attempts > RESAMPLE_CAP:
            raise ValueError("gave up after %d sampling attempts" % RESAMPLE_CAP)
        seq = []
        total = 0.0
        prev = -1
        while total <= num_frames:
            if len(ids) == 1:
                pick = 0
            else:
                pick = next(draws)
                while ids[pick] == prev:
                    pick = next(draws)
            total += means[pick]
            prev = ids[pick]
            seq.append(prev)
        if need.issubset(seq):
            out.append(CandidateSequence(tuple(seq), action_set))
    return out


def _uniform_picks(rng, n):
    while True:
        yield from rng.integers(n, size=DRAW_BLOCK).tolist()


def _alignment_domains(n_seg, num_frames):
    # every segment keeps at least one frame
    if num_frames < n_seg:
        raise ValueError("more segments than frames")
    return tuple((k, num_frames - 1 - (n_seg - 1 - k)) for k in range(n_seg - 1))


def _best_over_candidates(x, action_set, mlp_params, hmm_params, k, rng):
    scores = scorer.forward(mlp_params, x)
    num_frames = scores.logits.shape[1]
    seqs = sample_sequences(action_set, hmm_params.lambdas, num_frames, k, rng)
    classes = sorted(action_set)
    rows = hmm_mod.log_frame_likelihood(scores.log_softmax[classes],
                                        hmm_params.priors[classes])
    # singleton sets sample immediate repeats; the merged form scores
    # identically except through self-transitions, which carry no mass.
    # aligned: distinct candidates in first-seen order -> (Segmentation, score)
    aligned = dict.fromkeys(tuple(c for i, c in enumerate(cand.actions)
                                  if i == 0 or c != cand.actions[i - 1])
                            for cand in seqs)
    by_length = {}
    for actions in aligned:
        by_length.setdefault(len(actions), []).append(actions)
    for n_seg, group in by_length.items():
        domains = _alignment_domains(n_seg, num_frames)
        chunk = max(1, BATCH_FRAMES // (n_seg * num_frames))
        for i in range(0, len(group), chunk):
            part = group[i: i + chunk]
            aligned.update(zip(part, dp.best_segmentation(part, rows, classes, hmm_params,
                                                          domains)))
    # a repeat never beats its own score, so walking first appearances with a
    # strict > picks the earliest sampled of the tied best candidates
    best = None
    for seg, score in aligned.values():
        if best is None or score > best[1]:
            best = (seg, score)
    if best[1] == -np.inf:
        raise ValueError("every candidate sequence scores -inf")
    return best


def segment_video(x, training_sets, mlp_params, hmm_params, k=1000, seed=0):
    """Segment a test video: sample one training action set uniformly, then
    pick the best-aligned of k candidate sequences drawn from it."""
    training_sets = list(training_sets)
    if not training_sets:
        raise ValueError("no training sets to sample from")
    rng = fork_rng(seed, "segment")
    chosen = training_sets[int(rng.integers(len(training_sets)))]
    return _best_over_candidates(x, chosen, mlp_params, hmm_params, k, rng)


def align_video(x, true_set, mlp_params, hmm_params, k=1000, seed=0):
    """Align a test video against its known action set."""
    rng = fork_rng(seed, "align")
    return _best_over_candidates(x, true_set, mlp_params, hmm_params, k, rng)
