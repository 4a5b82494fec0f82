import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from acvseg import dp, hmm, infer, metrics, scorer
from acvseg.core import ActionSet, FrameFeatures, Segmentation
from acvseg.rng import fork_rng


def check_candidate(cand, lambdas, num_frames):
    labels = list(cand.actions)
    members = set(cand.source_set)
    assert members.issubset(set(labels)) and set(labels) == members
    lam = np.asarray(lambdas, dtype=np.float64)
    totals = np.cumsum([lam[c] for c in labels])
    assert totals[-1] > num_frames
    if len(labels) > 1:
        assert totals[-2] <= num_frames
    if len(members) > 1:
        assert all(a != b for a, b in zip(labels, labels[1:]))


class TestSampleSequences:
    def test_singleton_repeats_until_covered(self):
        seqs = infer.sample_sequences(ActionSet([0]), np.array([10.0]), 25, 5, 0)
        for cand in seqs:
            assert cand.actions == (0, 0, 0)

    def test_two_class_tight_budget_forces_permutations(self):
        seqs = infer.sample_sequences(ActionSet([0, 1]), np.array([10.0, 10.0]),
                                      15, 50, 1)
        seen = {cand.actions for cand in seqs}
        assert seen <= {(0, 1), (1, 0)}
        assert len(seen) == 2

    def test_random_instances_satisfy_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(1, 6))
            members = ActionSet(rng.choice(8, size=n, replace=False))
            lam = rng.uniform(2.0, 30.0, size=8)
            restricted = lam[members.as_array()]
            t_total = int(restricted.sum() - restricted.max() + rng.integers(1, 40))
            seqs = infer.sample_sequences(members, lam, t_total, 3,
                                          int(rng.integers(2 ** 31)))
            for cand in seqs:
                check_candidate(cand, lam, t_total)

    def test_deterministic_under_seed(self):
        members = ActionSet([0, 2, 3])
        lam = np.array([5.0, 9.0, 7.0, 6.0])
        a = infer.sample_sequences(members, lam, 40, 20, 9)
        b = infer.sample_sequences(members, lam, 40, 20, 9)
        assert [c.actions for c in a] == [c.actions for c in b]

    def test_uncoverable_set_fails_at_once(self, monkeypatch):
        # a spin up to the attempt cap would fail with the cap's message instead
        monkeypatch.setattr(infer, "RESAMPLE_CAP", 0)
        with pytest.raises(ValueError, match="no sequence can cover"):
            infer.sample_sequences(ActionSet([0, 1]), np.array([50.0, 50.0]),
                                   10, 1, 0)

    def test_shortest_lengths_filling_the_video_still_cover(self):
        # 4 + 6 == 10: both short labels fit before the stop rule fires
        lam = np.array([4.0, 6.0, 10.0])
        seqs = infer.sample_sequences(ActionSet([0, 1, 2]), lam, 10, 20, 3)
        for cand in seqs:
            check_candidate(cand, lam, 10)
        assert {cand.actions for cand in seqs} == {(0, 1, 2), (1, 0, 2)}
        with pytest.raises(ValueError, match="no sequence can cover"):
            infer.sample_sequences(ActionSet([0, 1, 2]), lam, 9, 1, 3)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            infer.sample_sequences(ActionSet([0]), np.array([0.0]), 10, 1, 0)

    def test_block_draws_equal_one_scalar_draw_per_pick(self):
        rng = np.random.default_rng(5)
        instances = [(ActionSet([0, 1, 2]), np.array([4.0, 6.0, 10.0]), 10, 20)]
        for _ in range(400):
            n = int(rng.integers(1, 8))
            members = ActionSet(rng.choice(8, size=n, replace=False))
            lam = rng.uniform(2.0, 30.0, size=8)
            restricted = lam[members.as_array()]
            t_total = int(restricted.sum() - restricted.max() + rng.integers(1, 60))
            instances.append((members, lam, t_total, int(rng.integers(1, 40))))
        resampled = singletons = 0
        for i, (members, lam, t_total, k) in enumerate(instances):
            got = infer.sample_sequences(members, lam, t_total, k,
                                         fork_rng(i, "block-draws"))
            want, attempts = scalar_draw_reference(members, lam, t_total, k,
                                                   fork_rng(i, "block-draws"))
            assert [c.actions for c in got] == want
            resampled += attempts > k
            singletons += len(members) == 1
        assert resampled >= 50 and singletons >= 20


def scalar_draw_reference(action_set, lambdas, num_frames, k, rng):
    """The sampler with one rng.integers call per pick; returns the sampled
    label tuples and the number of attempts."""
    labels = action_set.as_array()
    lam = np.asarray(lambdas, dtype=np.float64)[labels]
    need = set(labels.tolist())
    out = []
    attempts = 0
    while len(out) < k:
        attempts += 1
        seq = []
        total = 0.0
        prev = -1
        while total <= num_frames:
            if labels.shape[0] == 1:
                pick = 0
            else:
                pick = int(rng.integers(labels.shape[0]))
                while labels[pick] == prev:
                    pick = int(rng.integers(labels.shape[0]))
            total += lam[pick]
            prev = int(labels[pick])
            seq.append(prev)
        if need.issubset(seq):
            out.append(tuple(seq))
    return out, attempts


def two_class_setup(t_total=12, strength=6.0):
    """Likelihoods that scream class 0 early and class 1 late."""
    params = hmm.HmmParams(np.array([[0.0, 1.0], [1.0, 0.0]]),
                           np.array([6.0, 6.0]), np.array([0.5, 0.5]))
    x = np.zeros((t_total, 2))
    half = t_total // 2
    x[:half, 0] = strength
    x[half:, 1] = strength
    mlp = scorer.MlpParams(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2))
    return params, FrameFeatures(x), mlp


def align_sequence(actions, x, mlp, params):
    """Best cut placement for one fixed label sequence, as decoding scores
    each candidate; returns (Segmentation, log-score)."""
    scores = scorer.forward(mlp, x)
    classes = sorted(set(actions))
    rows = hmm.log_frame_likelihood(scores.log_softmax[classes], params.priors[classes])
    return dp.best_segmentation([actions], rows, classes, params,
                                infer._alignment_domains(len(actions), rows.shape[1]))[0]


class TestAlignSequence:
    def test_single_stage_takes_everything(self):
        params, x, mlp = two_class_setup()
        seg, score = align_sequence([0], x, mlp, params)
        assert seg.actions == (0,) and seg.lengths == (12,)

    def test_matches_exhaustive_cut_enumeration(self):
        rng = np.random.default_rng(3)
        for trial in range(25):
            t_total = int(rng.integers(6, 31))
            n_stage = int(rng.integers(1, 4))
            labels = [int(rng.integers(3))]
            while len(labels) < n_stage:
                nxt = int(rng.integers(3))
                if nxt != labels[-1]:
                    labels.append(nxt)
            trans = rng.random((3, 3))
            np.fill_diagonal(trans, 0.0)
            trans /= trans.sum(axis=1, keepdims=True)
            params = hmm.HmmParams(trans, rng.uniform(2, 12, 3), np.full(3, 0.5))
            x = FrameFeatures(rng.standard_normal((t_total, 3)))
            mlp = scorer.MlpParams.init(3, 3, n_hidden=4,
                                        seed=int(rng.integers(100)))
            seg, score = align_sequence(labels, x, mlp, params)

            scores = scorer.forward(mlp, x)
            classes = sorted(set(labels))
            rows = hmm.log_frame_likelihood(scores.log_softmax[classes],
                                            params.priors[classes])
            best = None
            for cuts in itertools.combinations(range(1, t_total), n_stage - 1):
                bounds = (0,) + cuts + (t_total,)
                lengths = [b - a for a, b in zip(bounds, bounds[1:])]
                val = 0.0
                for i, (c, l, lo) in enumerate(zip(labels, lengths, bounds)):
                    val += hmm.log_poisson_length(l, params.lambdas[c])
                    val += rows[classes.index(c), lo:lo + l].sum()
                    if i:
                        val += np.log(params.transitions[labels[i - 1], c])
                if best is None or val > best[0] + 1e-12:
                    best = (val, lengths)
            assert abs(score - best[0]) <= 1e-9
            assert list(seg.lengths) == best[1]

    def test_identical_likelihoods_split_by_length_model(self):
        params, x, mlp = two_class_setup()
        params.lambdas[:] = (3.0, 9.0)
        flat = FrameFeatures(np.zeros((12, 2)))
        seg, _ = align_sequence([0, 1], flat, mlp, params)

        def grid():
            best = None
            for l1 in range(1, 12):
                val = hmm.log_poisson_length(l1, 3.0) \
                    + hmm.log_poisson_length(12 - l1, 9.0)
                if best is None or val > best[1] + 1e-15:
                    best = (l1, val)
            return best[0]

        assert seg.lengths[0] == grid()

    def test_more_stages_than_frames_rejected(self):
        params, x, mlp = two_class_setup()
        with pytest.raises(ValueError):
            align_sequence([0, 1, 0], FrameFeatures(np.zeros((2, 2))), mlp, params)


class TestSegmentVideo:
    def test_singleton_training_set_is_forced(self):
        params, x, mlp = two_class_setup()
        seg, _ = infer.segment_video(x, [ActionSet([1])], mlp, params, k=4, seed=0)
        assert seg.actions == (1,) and seg.lengths == (12,)

    def test_k_one_returns_a_valid_covering(self):
        params, x, mlp = two_class_setup()
        seg, _ = infer.segment_video(x, [ActionSet([0, 1])], mlp, params, k=1, seed=3)
        assert sum(seg.lengths) == 12
        assert set(seg.actions) == {0, 1}

    def test_deterministic_under_seed(self):
        params, x, mlp = two_class_setup()
        sets = [ActionSet([0, 1]), ActionSet([0]), ActionSet([1])]
        a = infer.segment_video(x, sets, mlp, params, k=16, seed=11)
        b = infer.segment_video(x, sets, mlp, params, k=16, seed=11)
        assert a == b

    def test_empty_training_sets_rejected(self):
        params, x, mlp = two_class_setup()
        with pytest.raises(ValueError):
            infer.segment_video(x, [], mlp, params, k=4, seed=0)

    def test_recovers_separable_structure(self):
        params, x, mlp = two_class_setup(t_total=12, strength=6.0)
        # lambda sums must overshoot T at two draws so candidates stay
        # two segments long
        params.lambdas[:] = 7.0
        seg, _ = infer.segment_video(x, [ActionSet([0, 1])], mlp, params, k=32, seed=5)
        assert list(seg.actions) == [0, 1]
        assert list(seg.lengths) == [6, 6]


class TestAlignVideo:
    def test_singleton_true_set(self):
        params, x, mlp = two_class_setup()
        seg, _ = infer.align_video(x, ActionSet([0]), mlp, params, k=8, seed=0)
        assert seg.actions == (0,) and seg.lengths == (12,)

    def test_alignment_beats_segmentation_with_misleading_sets(self):
        params, x, mlp = two_class_setup()
        gt = np.array([0] * 6 + [1] * 6)
        training_sets = [ActionSet([0]), ActionSet([1]), ActionSet([0, 1])]
        seg_mofs, align_mofs = [], []
        for seed in range(8):
            s, _ = infer.segment_video(x, training_sets, mlp, params, k=16, seed=seed)
            a, _ = infer.align_video(x, ActionSet([0, 1]), mlp, params, k=16, seed=seed)
            from acvseg.core import expand_segmentation
            seg_mofs.append(metrics.mof(expand_segmentation(s), gt))
            align_mofs.append(metrics.mof(expand_segmentation(a), gt))
        assert np.mean(align_mofs) >= np.mean(seg_mofs)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_an_error(self, k):
        params, x, mlp = two_class_setup()
        with pytest.raises(ValueError, match="k must be >= 1"):
            infer.align_video(x, ActionSet([0, 1]), mlp, params, k=k, seed=0)
        with pytest.raises(ValueError, match="k must be >= 1"):
            infer.segment_video(x, [ActionSet([0, 1])], mlp, params, k=k, seed=0)

    def test_every_candidate_impossible_is_an_error(self):
        params, x, mlp = two_class_setup()
        params.transitions[:] = 0.0
        with pytest.raises(ValueError, match="-inf"):
            infer.align_video(x, ActionSet([0, 1]), mlp, params, k=8, seed=0)

    def test_posterior_improves_with_more_candidates(self):
        rng = np.random.default_rng(6)
        params = hmm.HmmParams(np.array([[0.0, 0.6, 0.4],
                                         [0.3, 0.0, 0.7],
                                         [0.5, 0.5, 0.0]]),
                               np.array([5.0, 7.0, 6.0]), np.full(3, 0.5))
        mlp = scorer.MlpParams.init(3, 3, n_hidden=8, seed=6)
        small, large = [], []
        for v in range(6):
            x = FrameFeatures(rng.standard_normal((24, 3)))
            members = ActionSet([0, 1, 2])
            _, p_small = infer.align_video(x, members, mlp, params, k=10, seed=v)
            _, p_large = infer.align_video(x, members, mlp, params, k=200, seed=v)
            small.append(p_small)
            large.append(p_large)
        assert np.mean(large) >= np.mean(small)


def per_candidate_reference(x, action_set, mlp, params, k, rng):
    """The Monte-Carlo decoder with one unbatched best_cuts call per distinct
    candidate, walked in sample order with a strict > on the score."""
    scores = scorer.forward(mlp, x)
    num_frames = scores.logits.shape[1]
    seqs = infer.sample_sequences(action_set, params.lambdas, num_frames, k, rng)
    classes = sorted(action_set)
    rows = hmm.log_frame_likelihood(scores.log_softmax[classes], params.priors[classes])
    best, cache = None, {}
    for cand in seqs:
        actions = [c for i, c in enumerate(cand.actions) if i == 0 or c != cand.actions[i - 1]]
        key = tuple(actions)
        if key not in cache:
            lengths, score = dp.best_cuts(rows[[classes.index(c) for c in actions]],
                                          params.lambdas[actions],
                                          infer._alignment_domains(len(actions), num_frames))
            with np.errstate(divide="ignore"):
                score += np.log(params.transitions[actions[:-1], actions[1:]]).sum()
            cache[key] = (Segmentation(actions, lengths), float(score))
        if best is None or cache[key][1] > best[1]:
            best = cache[key]
    if best[1] == -np.inf:
        raise ValueError("every candidate sequence scores -inf")
    return best, list(cache)


def random_decode_case(rng, n_classes=6):
    """A random video, scorer and HMM whose lambdas spread widely, so one
    video's candidates come in several lengths."""
    t_total = int(rng.integers(40, 160))
    members = ActionSet(rng.choice(n_classes, size=int(rng.integers(1, 5)), replace=False))
    trans = rng.random((n_classes, n_classes))
    np.fill_diagonal(trans, 0.0)
    trans[rng.random((n_classes, n_classes)) < 0.1] = 0.0  # some -inf transitions
    trans /= np.maximum(trans.sum(axis=1, keepdims=True), 1e-12)
    lam = rng.uniform(3.0, t_total / 2.0, size=n_classes)
    params = hmm.HmmParams(trans, lam, rng.uniform(0.2, 0.8, n_classes))
    mlp = scorer.MlpParams.init(4, n_classes, n_hidden=6, seed=int(rng.integers(100)))
    x = FrameFeatures(rng.standard_normal((t_total, 4)))
    return x, members, mlp, params


def decode_both(x, members, mlp, params, k, seed):
    """(batched result, reference result, distinct candidates in sample order)."""
    try:
        got = infer._best_over_candidates(x, members, mlp, params, k, fork_rng(seed, "t"))
    except ValueError as err:
        got = str(err)
    try:
        expect, distinct = per_candidate_reference(x, members, mlp, params, k,
                                                   fork_rng(seed, "t"))
    except ValueError as err:
        expect, distinct = str(err), []
    if isinstance(got, tuple):
        assert isinstance(got[1], float)
        got = (got[0], np.float64(got[1]).tobytes())
    if isinstance(expect, tuple):
        expect = (expect[0], np.float64(expect[1]).tobytes())
    return got, expect, distinct


class TestBatchedDecoding:
    """Batched candidate decoding returns the per-candidate loop's bits."""

    def test_random_videos_match_the_per_candidate_loop(self):
        rng = np.random.default_rng(17)
        n_mixed = n_singleton = 0
        for trial in range(40):
            x, members, mlp, params = random_decode_case(rng)
            got, expect, distinct = decode_both(x, members, mlp, params, 30, trial)
            assert got == expect
            n_mixed += len({len(a) for a in distinct}) > 1
            n_singleton += len(members) == 1
        assert n_mixed > 10 and n_singleton > 3

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_groups_split_across_chunks_match(self, monkeypatch, chunk):
        parts = []  # (candidate length, candidates) of each batched call
        batched = dp.best_segmentation

        def spy(sequences, *args):
            parts.append((len(sequences[0]), len(sequences)))
            return batched(sequences, *args)

        monkeypatch.setattr(dp, "best_segmentation", spy)
        rng = np.random.default_rng(23)
        n_split = 0
        for trial in range(12):
            x, members, mlp, params = random_decode_case(rng)
            _, _, distinct = decode_both(x, members, mlp, params, 30, trial)
            if not distinct:
                continue
            # the most common length is aligned `chunk` candidates at a time
            n_seg, size = Counter(len(a) for a in distinct).most_common(1)[0]
            monkeypatch.setattr(infer, "BATCH_FRAMES", chunk * n_seg * x.num_frames)
            parts.clear()
            got, expect, _ = decode_both(x, members, mlp, params, 30, trial)
            assert got == expect
            group = [n for length, n in parts if length == n_seg]
            assert sum(group) == size and max(group) == min(chunk, size)
            # split into full parts and, for chunk > 1, a shorter remainder
            n_split += len(group) > 2 and (chunk == 1 or group[-1] < chunk)
        assert n_split > 2

    def test_exact_ties_go_to_the_earliest_candidate(self):
        # flat posteriors, equal lambdas and priors, uniform transitions:
        # every order of the set scores the same bits
        params = hmm.HmmParams(np.full((3, 3), 0.5) - 0.5 * np.eye(3),
                               np.full(3, 8.0), np.full(3, 1 / 3))
        mlp = scorer.MlpParams.init(2, 3, n_hidden=4, seed=0)
        mlp.W2[:] = 0.0
        x = FrameFeatures(np.random.default_rng(0).standard_normal((20, 2)))
        for seed in range(6):
            got, expect, distinct = decode_both(x, ActionSet([0, 1, 2]), mlp, params, 12,
                                                seed)
            assert got == expect and len(distinct) > 1
            assert got[0].actions == distinct[0]

    def test_long_video_decodes_in_bounded_memory(self):
        rng = np.random.default_rng(7)
        trans = rng.random((7, 7))
        np.fill_diagonal(trans, 0.0)
        params = hmm.HmmParams(trans / trans.sum(axis=1, keepdims=True),
                               rng.uniform(140.0, 220.0, 7), np.full(7, 1 / 7))
        mlp = scorer.MlpParams.init(16, 7, n_hidden=32, seed=7)
        x = FrameFeatures(rng.standard_normal((1100, 16)))
        members = ActionSet(rng.choice(7, size=6, replace=False))
        tracemalloc.start()
        try:
            infer.align_video(x, members, mlp, params, k=1000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
