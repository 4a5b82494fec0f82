"""Show the verification strategy: every dynamic program has a brute-force
twin that enumerates the same search space at small sizes.

Two checks run here.

Equivalence: on random instances the anchor-constrained Viterbi must score
exactly what exhaustive enumeration over anchor-compatible cut placements
scores (same objective, same argmax up to ties broken identically).

Dominance: enumeration over ALL segmentations that use each action at
least once (any order, repeats allowed, more segments allowed) is a strict
superset of the anchor-constrained space, so its best score must be >= the
constrained one.  The gap is the price of anchoring.
"""

import time

import numpy as np

from acvseg import acv, oracle
from acvseg.rng import fork_rng

print("equivalence: constrained DP vs exhaustive anchor-compatible search")
worst = 0.0
t0 = time.perf_counter()
for trial in range(50):
    inst = oracle.random_instance(fork_rng(0, "demo-oracle", trial),
                                  max_frames=40, max_classes=3)
    _, dp_score = acv.constrained_viterbi(inst["anchors"], inst["loglik"], inst["hmm"])
    _, bf_score = oracle.brute_force_anchor_best(inst["anchors"], inst["loglik"],
                                                 inst["hmm"])
    worst = max(worst, abs(dp_score - bf_score))
print("  50 instances, worst |DP - brute force| = %.3e  (%.2fs)"
      % (worst, time.perf_counter() - t0))
assert worst <= 1e-9

print()
print("dominance: unconstrained enumeration never loses to the anchored DP")
gaps = []
for trial in range(25):
    inst = oracle.random_instance(fork_rng(0, "demo-dominance", trial),
                                  max_frames=16, max_classes=3)
    _, dp_score = acv.constrained_viterbi(inst["anchors"], inst["loglik"], inst["hmm"])
    _, free_score = oracle.brute_force_all_color(inst["loglik"], inst["classes"],
                                                 inst["hmm"], inst["num_frames"],
                                                 max_segments=4)
    gaps.append(free_score - dp_score)
gaps = np.array(gaps)
assert np.all(gaps >= -1e-9)
print("  25 instances, gap (free - anchored): mean %.3f, max %.3f nats"
      % (gaps.mean(), gaps.max()))
print()
print("both checks passed")
