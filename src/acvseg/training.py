"""The set-supervised training loop.

Each iteration picks one training video at random, generates pseudo ground
truth for it with the anchor-constrained Viterbi under the current model,
nudges the HMM toward that pseudo ground truth at rate 1/V, and takes one
SGD step on the scorer's cross-entropy plus diversity objective.  All
randomness is re-derived per iteration from (seed, iteration), so a run can
be checkpointed and resumed bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import acv, hmm as hmm_mod, metrics, scorer
from .core import expand_segmentation
from .data import read_features, read_labels, read_manifest
from .rng import fork_rng

# labelled videos whose anchor IoD is logged with each training progress line
PROBE_SIZE = 5


@dataclass
class TrainConfig:
    iters: int = 100000
    lr: float = 0.01
    lr_drop_at: int = 10000
    lr_after: float = 0.001
    alpha: float = 0.6
    beta: float = 0.4
    tau: int = 15
    seed: int = 0
    log_every: int = 1000

    def __post_init__(self):
        if not self.iters >= 0:
            raise ValueError("iters must be >= 0, got %r" % (self.iters,))
        if not (self.alpha > 0 and np.isfinite(self.alpha)):
            raise ValueError("alpha must be a positive finite number, got %r" % (self.alpha,))
        if not self.tau >= 0:
            raise ValueError("tau must be >= 0, got %r" % (self.tau,))
        for name in ("lr", "lr_after", "beta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite, got %r" % (name, getattr(self, name)))
        if not self.log_every >= 1:
            raise ValueError("log_every must be >= 1, got %r" % (self.log_every,))

    def lr_at(self, iteration):
        return self.lr if iteration < self.lr_drop_at else self.lr_after


@dataclass
class Video:
    video_id: str
    features: object
    action_set: object
    gt_labels: object = None  # diagnostics only, never trained on


def load_corpus(manifest_path, with_labels=False):
    """Materialize a manifest: (vocab, videos).  Frame labels are attached
    only on request and feed the progress probe, not the learner."""
    vocab, records = read_manifest(manifest_path)
    videos = []
    dim = None
    for rec in records:
        x = read_features(rec.features_path)
        if dim is None:
            dim = x.dim
        elif x.dim != dim:
            raise ValueError("feature dim mismatch at %s" % rec.video_id)
        gt = None
        if with_labels and rec.labels_path is not None:
            gt = read_labels(rec.labels_path, vocab)
            if gt.num_frames != x.num_frames:
                raise ValueError("label length mismatch at %s" % rec.video_id)
        videos.append(Video(rec.video_id, x, rec.action_set(vocab), gt))
    return vocab, videos


def pseudo_ground_truth(mlp_params, hmm_params, video, cfg, scores=None):
    """Run the anchor pipeline on one video under the current model; `scores`
    is scorer.forward(mlp_params, video.features) when the caller already
    has it.  Returns (segmentation, anchors, score)."""
    if scores is None:
        scores = scorer.forward(mlp_params, video.features)
    aset = video.action_set
    sal = acv.compute_saliency(scores, aset, cfg.tau)
    classes = aset.as_array()
    anchors = acv.select_anchors(sal, classes, hmm_params.lambdas[classes], cfg.alpha)
    loglik = hmm_mod.log_frame_likelihood(scores.log_softmax[classes],
                                          hmm_params.priors[classes])
    seg, score = acv.constrained_viterbi(anchors, loglik, hmm_params)
    return seg, anchors, score


def loss_and_grads(mlp_params, scored, action_set, pseudo_labels, tau, beta):
    """Cross-entropy on the pseudo labels plus beta times saliency diversity,
    with gradients for every scorer tensor.  `scored` is the (scores, cache)
    pair of scorer.forward(mlp_params, features, want_cache=True).  The
    diversity term reaches the logits through the saliency construction;
    the per-frame min is handled by a subgradient at the worst class."""
    scores, cache = scored
    ce, d_logits = scorer.cross_entropy_loss(scores, pseudo_labels)
    div = 0.0
    if beta != 0.0 and len(action_set) > 1:
        sal = acv.compute_saliency(scores, action_set, tau)
        div, d_sal = scorer.diversity_loss(sal)
        d_logf = acv.saliency_backward(d_sal, scores, action_set, tau)
        rows = action_set.as_array()
        # d log sigmoid(z) / dz = 1 - sigmoid(z)
        d_logits[rows] += beta * d_logf * (1.0 - expit(scores.logits[rows]))
    grads = scorer.backward(mlp_params, cache, d_logits)
    return ce + beta * div, ce, div, grads


def train(videos, hmm_params, mlp_params, cfg, start_iter=0, log=None):
    """Run cfg.iters iterations starting at start_iter; returns the updated
    (hmm_params, mlp_params, start_iter + cfg.iters), the last being the
    count a checkpoint records.  Videos must carry in-memory features."""
    if not videos:
        raise ValueError("empty corpus")
    hmm_params = hmm_params.copy()
    mlp_params = mlp_params.copy()
    n_videos = len(videos)
    probe = [v for v in videos if v.gt_labels is not None][:PROBE_SIZE]
    ce_sum, div_sum, since = 0.0, 0.0, 0
    for i in range(start_iter, start_iter + cfg.iters):
        rng = fork_rng(cfg.seed, "train", i)
        video = videos[int(rng.integers(n_videos))]
        # one forward per iteration: the params do not change before the SGD step
        scored = scorer.forward(mlp_params, video.features, want_cache=True)
        seg, _, _ = pseudo_ground_truth(mlp_params, hmm_params, video, cfg,
                                        scores=scored[0])
        hmm_params = hmm_mod.update_refined(hmm_params, seg, n_videos)
        pseudo = expand_segmentation(seg)
        _, ce, div, grads = loss_and_grads(mlp_params, scored, video.action_set,
                                           pseudo, cfg.tau, cfg.beta)
        mlp_params = scorer.sgd_step(mlp_params, grads, cfg.lr_at(i))
        ce_sum += ce
        div_sum += div
        since += 1
        if (i + 1) % cfg.log_every == 0 and log is not None:
            line = "iter %d ce %.4f div %.4f" % (i + 1, ce_sum / since, div_sum / since)
            if probe:
                line += " anchor_iod %.4f" % probe_anchor_iod(mlp_params, hmm_params, probe, cfg)
            log(line)
            ce_sum, div_sum, since = 0.0, 0.0, 0
    return hmm_params, mlp_params, start_iter + cfg.iters


def probe_anchor_iod(mlp_params, hmm_params, probe_videos, cfg):
    """Mean anchor IoD against hidden labels on a fixed probe; diagnostic only."""
    values = []
    for video in probe_videos:
        _, anchors, _ = pseudo_ground_truth(mlp_params, hmm_params, video, cfg)
        gt_segs = metrics.labeling_to_segments(video.gt_labels)
        values.append(metrics.anchor_iod(anchors, gt_segs))
    return float(np.mean(values))
