"""End-to-end acceptance gates.

Each test prints exactly one PASS/FAIL line for its criterion on the real
stdout so the summary survives pytest's capture, then asserts.  The slow
recovery and ablation criteria train real models on synthetic corpora and
take a few minutes combined.
"""

import itertools
import sys
import time

import numpy as np
import pytest

from acvseg import acv, data, hmm, infer, metrics, oracle, scorer, training
from acvseg.acv import Anchor, AnchorSet
from acvseg.core import ActionSet, FrameFeatures, expand_segmentation, validate_segmentation
from acvseg.data import SynthSpec
from acvseg.rng import fork_rng
from acvseg.training import TrainConfig


def report(num, name, ok, detail=""):
    line = "ACCEPTANCE %2d %-24s %s  %s" % (num, name, "PASS" if ok else "FAIL", detail)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_1_constrained_viterbi_matches_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    exact = 0
    for trial in range(200):
        inst = oracle.random_instance(fork_rng(0, "accept-oracle", trial),
                                      max_frames=40, max_classes=3)
        seg_dp, score_dp = acv.constrained_viterbi(inst["anchors"], inst["loglik"],
                                                   inst["hmm"])
        seg_bf, score_bf = oracle.brute_force_anchor_best(inst["anchors"],
                                                          inst["loglik"], inst["hmm"])
        gap = abs(score_dp - score_bf)
        worst = max(worst, gap)
        exact += (seg_dp == seg_bf and gap <= 1e-9)
    elapsed = time.perf_counter() - t0
    ok = exact == 200 and elapsed < 10.0
    report(1, "oracle-exactness", ok,
           "%d/200 exact, max |dscore| %.2e, %.1fs" % (exact, worst, elapsed))


def test_criterion_2_acv_outputs_are_always_valid(tmp_path):
    spec = SynthSpec(n_classes=6, n_videos=1000, frames_range=(40, 80),
                     feature_dim=12, separation=3.0, noise=1.0,
                     set_size_range=(2, 5), full_set_fraction=0.1, seed=42)
    _, eval_manifest = data.synth_generate(spec, tmp_path)
    _, videos = training.load_corpus(eval_manifest)
    hp = hmm.init_params([v.features.num_frames for v in videos],
                         [v.action_set for v in videos], 6, l_min=8.0)
    mlp = scorer.MlpParams.init(12, 6, n_hidden=8, seed=0)  # untrained scorer
    cfg = TrainConfig(alpha=0.6, beta=0.4, tau=8)
    valid = 0
    for video in videos:
        scores = scorer.forward(mlp, video.features)
        seg, _, _ = training.pseudo_ground_truth(hp, scores, video.action_set, cfg)
        valid += validate_segmentation(seg, video.features.num_frames,
                                       video.action_set)
    report(2, "all-color-validity", valid == 1000, "%d/1000 valid" % valid)


def test_criterion_3_all_color_oracle_dominates_acv():
    gaps = []
    for trial in range(100):
        inst = oracle.random_instance(fork_rng(0, "accept-dominance", trial),
                                      max_frames=20, max_classes=3)
        _, score_dp = acv.constrained_viterbi(inst["anchors"], inst["loglik"],
                                              inst["hmm"])
        # one segment beyond |C| keeps the oracle space a strict superset of
        # the anchor DP's exactly-|C|-segment space at tractable cost
        _, score_free = oracle.brute_force_all_color(
            inst["loglik"], inst["classes"], inst["hmm"], inst["num_frames"],
            max_segments=min(5, len(inst["classes"]) + 1))
        gaps.append(score_free - score_dp)
    gaps = np.asarray(gaps)
    ok = bool(np.all(gaps >= -1e-9))
    report(3, "approximation-dominance", ok,
           "100/100 dominated, mean gap %.3f, max gap %.3f" % (gaps.mean(), gaps.max()))


def test_criterion_4_gradients_match_finite_differences():
    t0 = time.perf_counter()
    beta = 0.4
    worst = 0.0
    rng = np.random.default_rng(7)
    for trial in range(20):
        t_total = int(rng.integers(4, 11))
        dim = int(rng.integers(2, 6))
        n_classes = int(rng.integers(2, 5))
        members = ActionSet(range(n_classes))
        x = FrameFeatures(rng.standard_normal((t_total, dim)))
        pseudo = rng.integers(0, n_classes, size=t_total)
        # every tensor continuous: zero biases put ReLU-dead frames at exact
        # class ties, where the diversity term is nondifferentiable and
        # finite differences measure the tie-break, not the gradient
        mlp = scorer.MlpParams(rng.standard_normal((4, dim)),
                               0.3 * rng.standard_normal(4),
                               rng.standard_normal((n_classes, 4)),
                               0.3 * rng.standard_normal(n_classes))
        total, _, _, grads = training.loss_and_grads(
            mlp, scorer.forward(mlp, x), members, pseudo, tau=3, beta=beta)

        def loss_at(params):
            # the forward pass runs inside each evaluation, so the check
            # differentiates through it as well
            val, _, _, _ = training.loss_and_grads(
                params, scorer.forward(params, x), members, pseudo, tau=3, beta=beta)
            return val

        eps = 1e-6
        for name in ("W1", "b1", "W2", "b2"):
            analytic = grads[name]
            fd = np.zeros_like(analytic)
            flat = getattr(mlp, name)
            for idx in np.ndindex(flat.shape):
                bumped = mlp.copy()
                getattr(bumped, name)[idx] += eps
                up = loss_at(bumped)
                bumped = mlp.copy()
                getattr(bumped, name)[idx] -= eps
                down = loss_at(bumped)
                fd[idx] = (up - down) / (2 * eps)
            denom = max(np.linalg.norm(analytic), np.linalg.norm(fd), 1e-12)
            worst = max(worst, np.linalg.norm(analytic - fd) / denom)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    report(4, "gradient-check", ok,
           "20 instances, worst rel err %.2e, %.1fs" % (worst, elapsed))


@pytest.fixture(scope="module")
def recovery_corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("recovery")
    train_spec = SynthSpec(n_classes=5, n_videos=40, frames_range=(100, 300),
                           feature_dim=64, separation=3.0, noise=1.0,
                           set_size_range=(3, 3), full_set_fraction=0.85, seed=12)
    test_spec = SynthSpec(n_classes=5, n_videos=10, frames_range=(170, 185),
                          feature_dim=64, separation=3.0, noise=1.0,
                          set_size_range=(5, 5), full_set_fraction=1.0, seed=200)
    _, train_eval = data.synth_generate(train_spec, root / "train")
    _, test_eval = data.synth_generate(test_spec, root / "test")
    _, train_videos = training.load_corpus(train_eval, with_labels=True)
    _, test_videos = training.load_corpus(test_eval, with_labels=True)
    return train_videos, test_videos


def test_criterion_5_synthetic_recovery(recovery_corpora):
    t0 = time.perf_counter()
    train_videos, test_videos = recovery_corpora
    sets = [v.action_set for v in train_videos]
    hp = hmm.init_params([v.features.num_frames for v in train_videos], sets,
                         5, l_min=10.0)
    mlp = scorer.MlpParams.init(64, 5, n_hidden=256, seed=0)
    mlp = scorer.mil_pretrain(mlp, [(v.features, v.action_set) for v in train_videos],
                              epochs=1000, lr=0.1, seed=0)
    cfg = TrainConfig(iters=5000, lr=0.01, lr_drop_at=10 ** 9, alpha=0.6,
                      beta=0.4, tau=15, seed=0, log_every=10 ** 9)
    hp, mlp, _ = training.train(train_videos, hp, mlp, cfg)

    seg_pairs = []
    align_iods = []
    for i, video in enumerate(test_videos):
        seg, _ = infer.segment_video(video.features, sets, mlp, hp,
                                     k=1000, seed=1000 + i)
        seg_pairs.append((expand_segmentation(seg), video.gt_labels))
        aligned, _ = infer.align_video(video.features, video.action_set, mlp, hp,
                                       k=1000, seed=1)
        gt_segs = metrics.labeling_to_segments(video.gt_labels)
        align_iods.append(metrics.iod(metrics.segmentation_to_segments(aligned),
                                      gt_segs))
    mof = metrics.corpus_mof(seg_pairs)
    iod = float(np.mean(align_iods))
    elapsed = time.perf_counter() - t0
    ok = mof >= 0.85 and iod >= 0.90 and elapsed < 300.0
    report(5, "synthetic-recovery", ok,
           "segmentation Mof %.4f (>=0.85), alignment IoD %.4f (>=0.90), %.0fs"
           % (mof, iod, elapsed))


@pytest.fixture(scope="module")
def ablation_corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("ablation")
    spec = SynthSpec(n_classes=4, n_videos=16, frames_range=(60, 120),
                     feature_dim=32, separation=3.0, noise=1.0,
                     set_size_range=(2, 4), full_set_fraction=0.5, seed=7)
    test_spec = SynthSpec(n_classes=4, n_videos=8, frames_range=(90, 120),
                          feature_dim=32, separation=3.0, noise=1.0,
                          set_size_range=(4, 4), full_set_fraction=1.0, seed=77)
    _, train_eval = data.synth_generate(spec, root / "train")
    _, test_eval = data.synth_generate(test_spec, root / "test")
    _, train_videos = training.load_corpus(train_eval, with_labels=True)
    _, test_videos = training.load_corpus(test_eval, with_labels=True)
    return train_videos, test_videos


def _ablation_run(train_videos, test_videos, seed, beta, alpha):
    sets = [v.action_set for v in train_videos]
    hp = hmm.init_params([v.features.num_frames for v in train_videos], sets,
                         4, l_min=10.0)
    mlp = scorer.MlpParams.init(32, 4, n_hidden=64, seed=seed)
    mlp = scorer.mil_pretrain(mlp, [(v.features, v.action_set) for v in train_videos],
                              200, 0.05, seed=seed)
    cfg = TrainConfig(iters=1200, lr=0.01, lr_drop_at=10 ** 9, alpha=alpha,
                      beta=beta, tau=15, seed=seed, log_every=10 ** 9)
    init_iod = training.probe_anchor_iod(mlp, hp, train_videos[:5], cfg)
    hp, mlp, _ = training.train(train_videos, hp, mlp, cfg)
    final_iod = training.probe_anchor_iod(mlp, hp, train_videos[:5], cfg)
    pairs = []
    for i, video in enumerate(test_videos):
        seg, _ = infer.segment_video(video.features, sets, mlp, hp,
                                     k=300, seed=500 + i)
        pairs.append((expand_segmentation(seg), video.gt_labels))
    return metrics.corpus_mof(pairs), init_iod, final_iod


def test_criterion_6_ablation_directions(ablation_corpora):
    train_videos, test_videos = ablation_corpora
    sweep = {}
    for alpha in (0.4, 0.6, 0.8, 1.0):
        sweep[alpha] = _ablation_run(train_videos, test_videos, 3, 0.4, alpha)
    sweep_lines = ", ".join("a=%.1f Mof %.3f iod %.2f->%.2f" % (a, m, i, f)
                            for a, (m, i, f) in sorted(sweep.items()))
    print("  alpha sweep: " + sweep_lines, file=sys.__stdout__, flush=True)
    sweep_done = all(np.isfinite(v[0]) for v in sweep.values())

    mof_def, init_iod, final_iod = sweep[0.6]
    iod_improves = final_iod >= init_iod

    wins = 0
    for seed in range(5):
        if seed == 3:
            mof_beta = sweep[0.6][0]  # the sweep already ran this setting
        else:
            mof_beta = _ablation_run(train_videos, test_videos, seed, 0.4, 0.6)[0]
        mof_nobeta = _ablation_run(train_videos, test_videos, seed, 0.0, 0.6)[0]
        wins += mof_beta >= mof_nobeta
    ok = sweep_done and iod_improves and wins >= 3
    report(6, "ablation-directions", ok,
           "sweep complete, anchor IoD %.3f->%.3f, beta wins %d/5"
           % (init_iod, final_iod, wins))


def test_criterion_7_hmm_invariants_and_resume(ablation_corpora, tmp_path):
    train_videos, _ = ablation_corpora
    vocab = data.Vocabulary("act%02d" % c for c in range(4))
    sets = [v.action_set for v in train_videos]
    hp0 = hmm.init_params([v.features.num_frames for v in train_videos], sets,
                          4, l_min=10.0)
    mlp0 = scorer.MlpParams.init(32, 4, n_hidden=16, seed=1)

    def cfg(iters):
        return TrainConfig(iters=iters, lr=0.05, lr_drop_at=10 ** 9, alpha=0.6,
                           beta=0.4, tau=15, seed=9, log_every=10 ** 9)

    one_hp, one_mlp, _ = training.train(train_videos, hp0, mlp0, cfg(100))
    mid_hp, mid_mlp, _ = training.train(train_videos, hp0, mlp0, cfg(50))
    path = tmp_path / "ckpt.txt"
    data.write_checkpoint(path, vocab, mid_hp, mid_mlp, iteration=50)
    _, hp_r, mlp_r, it = data.read_checkpoint(path)
    two_hp, two_mlp, _ = training.train(train_videos, hp_r, mlp_r, cfg(50),
                                        start_iter=it)

    identical = (np.array_equal(one_hp.transitions, two_hp.transitions)
                 and np.array_equal(one_hp.lambdas, two_hp.lambdas)
                 and np.array_equal(one_hp.priors, two_hp.priors)
                 and all(np.array_equal(getattr(one_mlp, n), getattr(two_mlp, n))
                         for n in ("W1", "b1", "W2", "b2")))
    row_sums = one_hp.transitions.sum(axis=1)
    touched = row_sums > 0
    rows_ok = bool(np.all(np.abs(row_sums[touched] - 1.0) <= 1e-6))
    lam_ok = bool(np.all(one_hp.lambdas >= 1.0))
    priors_ok = bool(np.all((one_hp.priors >= 0.0) & (one_hp.priors <= 1.0)))
    ok = identical and rows_ok and lam_ok and priors_ok
    report(7, "hmm-invariants-resume", ok,
           "rows 1+-1e-6 %s, lambda>=1 %s, priors in [0,1] %s, resume bit-identical %s"
           % (rows_ok, lam_ok, priors_ok, identical))


def test_criterion_8_sampling_validity():
    rng = np.random.default_rng(11)
    n_sampled = 0
    all_valid = True
    deterministic = True
    for trial in range(500):
        n = int(rng.integers(1, 7))
        members = ActionSet(rng.choice(8, size=n, replace=False))
        lam = rng.uniform(2.0, 30.0, size=8)
        restricted = lam[members.as_array()]
        t_total = int(restricted.sum() - restricted.max() + rng.integers(1, 40))
        seed = int(rng.integers(2 ** 31))
        seqs = infer.sample_sequences(members, lam, t_total, 20,
                                      fork_rng(seed, "sample"))
        for cand in seqs:
            labels = list(cand.actions)
            totals = np.cumsum([lam[c] for c in labels])
            valid = (set(labels) == set(members)
                     and totals[-1] > t_total
                     and (len(labels) == 1 or totals[-2] <= t_total)
                     and (len(members) == 1
                          or all(a != b for a, b in zip(labels, labels[1:]))))
            all_valid = all_valid and valid
        n_sampled += len(seqs)
        if trial % 25 == 0:
            again = infer.sample_sequences(members, lam, t_total, 20,
                                      fork_rng(seed, "sample"))
            deterministic = deterministic and \
                [c.actions for c in again] == [c.actions for c in seqs]
    ok = all_valid and deterministic and n_sampled == 10000
    report(8, "sampling-validity", ok,
           "%d candidates valid, deterministic %s" % (n_sampled, deterministic))


def test_criterion_9_quadratic_scaling():
    sizes = (500, 1000, 2000)
    times = {}
    for t_total in sizes:
        m = 5
        lam = np.full(8, t_total / m)
        width = max(1, t_total // 100)
        anchors = []
        for i in range(m):
            center = int((i + 0.5) * t_total / m)
            anchors.append(Anchor(i, center, center - width, center + width))
        anchors = AnchorSet(anchors)
        loglik = fork_rng(13, "scaling", t_total).standard_normal((m, t_total))
        trans = (np.ones((8, 8)) - np.eye(8)) / 7.0
        params = hmm.HmmParams(trans, lam, np.full(8, 0.5))
        acv.constrained_viterbi(anchors, loglik, params)  # warm-up
        # amortize over enough calls that timer noise cannot move the ratio
        best = np.inf
        for _ in range(3):
            reps = 0
            t0 = time.perf_counter()
            while True:
                acv.constrained_viterbi(anchors, loglik, params)
                reps += 1
                elapsed = time.perf_counter() - t0
                if elapsed >= 0.25 and reps >= 5:
                    break
            best = min(best, elapsed / reps)
        times[t_total] = best
    r1 = times[1000] / times[500]
    r2 = times[2000] / times[1000]
    ok = r1 <= 4.6 and r2 <= 4.6
    report(9, "quadratic-scaling", ok,
           "t(500)=%.0fms t(1000)=%.0fms t(2000)=%.0fms ratios %.2fx %.2fx (<=4.6x)"
           % (times[500] * 1e3, times[1000] * 1e3, times[2000] * 1e3, r1, r2))


def test_criterion_10_metric_examples():
    checks = []
    checks.append(metrics.mof([0, 1, 2], [0, 1, 2]) == 1.0)
    checks.append(metrics.mof([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75)
    checks.append(metrics.mof([0, 0], [1, 1]) == 0.0)
    segs = [(0, 0, 10), (1, 10, 14)]
    checks.append(metrics.iod(segs, list(segs)) == 1.0)
    checks.append(metrics.iod([(7, 5, 15)], [(7, 0, 10)]) == 0.5)
    checks.append(metrics.iod([(0, 0, 10)], [(1, 0, 10)]) == 0.0)
    checks.append(metrics.midpoint_hit(segs, list(segs)) == 1.0)
    checks.append(metrics.midpoint_hit([(0, 2, 9)], [(0, 0, 5)]) == 0.0)
    checks.append(metrics.midpoint_hit([(0, 0, 5), (0, 5, 10)],
                                       [(0, 0, 10), (1, 10, 20)]) == 0.5)
    checks.append(metrics.anchor_iod(AnchorSet([Anchor(0, 5, 3, 7)]),
                                     [(0, 0, 10)]) == 1.0)
    checks.append(metrics.anchor_iod(AnchorSet([Anchor(0, 15, 12, 18)]),
                                     [(0, 0, 10)]) == 0.0)
    checks.append(metrics.anchor_iod(AnchorSet([Anchor(0, 5, 5, 14)]),
                                     [(0, 0, 10)]) == 0.5)
    ok = all(checks)
    report(10, "metric-examples", ok, "%d/%d exact" % (sum(checks), len(checks)))
