"""Set-supervised temporal action segmentation.

A segment-level HMM (first-order transitions, Poisson lengths, posteriors
over priors as frame likelihoods) is grounded on a small two-layer frame
scorer.  Training videos carry only the set of actions present: per video,
saliency peaks become anchors, anchors constrain an exact segmental Viterbi
that emits pseudo ground truth, and the scorer trains on it with a
cross-entropy plus saliency-diversity objective.  Test-time segmentation
and alignment sample candidate action sequences and keep the best-scoring
alignment.  Brute-force oracles verify the dynamic programs at small sizes.
"""

from .acv import (Anchor, AnchorSet, compute_saliency, constrained_viterbi, cut_domains,
                  select_anchors)
from .core import (ActionSet, FrameFeatures, FrameLabeling, Segmentation, Vocabulary,
                   expand_segmentation, segmentation_from_labels, validate_segmentation)
from .data import (SynthSpec, VideoRecord, read_checkpoint, read_features, read_labels,
                   read_manifest, synth_generate, write_checkpoint, write_features,
                   write_labels, write_manifest)
from .hmm import HmmParams, init_params, log_frame_likelihood, log_poisson_length, update_refined
from .infer import CandidateSequence, align_video, sample_sequences, segment_video
from .metrics import anchor_iod, corpus_mof, iod, midpoint_hit, mof
from .oracle import (brute_force_all_color, brute_force_anchor_best, random_instance,
                     score_segmentation)
from .scorer import (FrameScores, MlpParams, cross_entropy_loss, diversity_loss, forward,
                     mil_pretrain, sgd_step)
from .training import TrainConfig, load_corpus, loss_and_grads, pseudo_ground_truth, train

__version__ = "0.1.0"
