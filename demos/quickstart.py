"""End-to-end walkthrough on a synthetic corpus, using the Python API.

Generates videos whose frame features cluster around per-class means,
trains the model knowing only which actions appear in each video (not
where), then segments held-out videos and scores the result against the
hidden frame labels.  Runs in under a minute on one core.
"""

import os
import sys
import tempfile

import numpy as np

import acvseg
from acvseg import metrics
from acvseg.training import TrainConfig, load_corpus, train

work = tempfile.mkdtemp(prefix="acvseg-demo-")
print("working under %s" % work)

# ---------------------------------------------------------------------------
# 1. Synthesize a corpus.  Training videos carry a 2-3 class subset of the
#    vocabulary; every test video contains all four classes so alignment
#    and segmentation are both meaningful.
# ---------------------------------------------------------------------------
train_spec = acvseg.SynthSpec(n_classes=4, n_videos=16, frames_range=(60, 120),
                              feature_dim=32, separation=3.0, noise=1.0,
                              set_size_range=(2, 4), full_set_fraction=0.5, seed=7)
test_spec = acvseg.SynthSpec(n_classes=4, n_videos=6, frames_range=(90, 120),
                             feature_dim=32, separation=3.0, noise=1.0,
                             set_size_range=(4, 4), full_set_fraction=1.0, seed=77)
train_manifest, _ = acvseg.synth_generate(train_spec, os.path.join(work, "train"))
_, test_manifest = acvseg.synth_generate(test_spec, os.path.join(work, "test"))

vocab, train_videos = load_corpus(train_manifest)
_, test_videos = load_corpus(test_manifest, with_labels=True)
print("corpus: %d training videos, %d test videos, %d classes"
      % (len(train_videos), len(test_videos), len(vocab)))

# ---------------------------------------------------------------------------
# 2. Initialize.  Transitions come from action-set co-occurrence counts,
#    expected lengths from video length over set size, and the scorer from
#    a multiple-instance pretraining pass: per class, the max-scoring frame
#    of a video stands in for the whole video, supervised by set membership.
# ---------------------------------------------------------------------------
hmm_params = acvseg.init_params([v.features.num_frames for v in train_videos],
                                [v.action_set for v in train_videos],
                                len(vocab), l_min=10.0)
# corpora this small make the max-pool pretraining seed-sensitive: a bad
# draw locks every class onto the same frames and training cannot recover
mlp = acvseg.MlpParams.init(train_videos[0].features.dim, len(vocab),
                            n_hidden=256, seed=3)
mlp = acvseg.mil_pretrain(mlp, [(v.features, v.action_set) for v in train_videos],
                          epochs=400, lr=0.1, seed=3)

# ---------------------------------------------------------------------------
# 3. Train.  Each iteration picks one video, turns its saliency peaks into
#    anchors, runs the anchor-constrained segmental Viterbi to get a
#    pseudo ground truth, and takes one SGD step on the scorer plus a
#    counting update on the transition/length/prior tables.
# ---------------------------------------------------------------------------
cfg = TrainConfig(iters=1500, lr=0.01, lr_drop_at=10**9,
                  alpha=0.6, beta=0.4, tau=15, seed=3, log_every=500)
hmm_params, mlp, _ = train(train_videos, hmm_params, mlp, cfg,
                           log=lambda line: print("  " + line))

# ---------------------------------------------------------------------------
# 4. Segment and align held-out videos, then score against hidden labels.
#    Segmentation knows nothing about the test video's actions (it samples
#    a training action set); alignment is told the true set.
# ---------------------------------------------------------------------------
training_sets = [v.action_set for v in train_videos]
rows = []
for i, video in enumerate(test_videos):
    seg, _ = acvseg.segment_video(video.features, training_sets,
                                  mlp, hmm_params, k=300, seed=500 + i)
    aligned, _ = acvseg.align_video(video.features, video.action_set,
                                    mlp, hmm_params, k=300, seed=1)
    gt_segs = metrics.labeling_to_segments(video.gt_labels)
    rows.append((video.video_id,
                 metrics.mof(acvseg.expand_segmentation(seg), video.gt_labels),
                 metrics.iod(metrics.segmentation_to_segments(aligned), gt_segs)))

print()
print("%-8s %8s %12s" % ("video", "seg Mof", "align IoD"))
for vid, m, d in rows:
    print("%-8s %8.4f %12.4f" % (vid, m, d))
mean_mof = float(np.mean([r[1] for r in rows]))
mean_iod = float(np.mean([r[2] for r in rows]))
print("%-8s %8.4f %12.4f" % ("mean", mean_mof, mean_iod))

sys.exit(0 if mean_mof > 0.5 else 1)
