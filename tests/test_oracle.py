import numpy as np
import pytest

from acvseg import acv, hmm, oracle
from acvseg.core import ActionSet, validate_segmentation
from acvseg.rng import fork_rng


def two_class_params(lam=(4.0, 6.0)):
    return hmm.HmmParams(np.array([[0.0, 1.0], [1.0, 0.0]]),
                         np.array(lam), np.array([0.5, 0.5]))


class TestAnchorBest:
    def test_single_anchor_single_candidate(self):
        rng = np.random.default_rng(0)
        loglik = rng.standard_normal((1, 7))
        anchors = acv.AnchorSet([acv.Anchor(0, 3, 2, 4)])
        seg, score = oracle.brute_force_anchor_best(anchors, loglik,
                                                    two_class_params())
        assert seg.actions == (0,) and seg.lengths == (7,)
        expect = loglik.sum() + hmm.log_poisson_length(7, 4.0)
        np.testing.assert_allclose(score, expect, atol=1e-12)

    def test_four_path_graph_scores_every_path(self):
        rng = np.random.default_rng(1)
        loglik = rng.standard_normal((2, 10))
        params = two_class_params()
        anchors = acv.AnchorSet([acv.Anchor(0, 2, 2, 3), acv.Anchor(1, 7, 7, 8)])
        assert acv.cut_domains(anchors, 10) == ((3, 6),)
        by_hand = []
        for cut in (3, 4, 5, 6):
            lengths = [cut + 1, 10 - cut - 1]
            by_hand.append((oracle.score_segmentation([0, 1], lengths, loglik,
                                                      [0, 1], params), lengths))
        best_score, best_lengths = max(by_hand, key=lambda p: p[0])
        seg, score = oracle.brute_force_anchor_best(anchors, loglik, params)
        assert list(seg.lengths) == best_lengths
        np.testing.assert_allclose(score, best_score, atol=1e-12)

    def test_combination_cap_is_an_error(self):
        t_total = 9000
        anchors = acv.AnchorSet([acv.Anchor(0, 1, 0, 1),
                                 acv.Anchor(1, 4500, 4500, 4500),
                                 acv.Anchor(2, 8999, 8998, 8999)])
        loglik = np.zeros((3, t_total))
        params = hmm.HmmParams(np.array([[0.0, 0.5, 0.5],
                                         [0.5, 0.0, 0.5],
                                         [0.5, 0.5, 0.0]]),
                               np.full(3, 10.0), np.full(3, 0.5))
        with pytest.raises(ValueError):
            oracle.brute_force_anchor_best(anchors, loglik, params)


class TestAllColor:
    def test_singleton_set_prefers_one_segment(self):
        rng = np.random.default_rng(2)
        loglik = rng.standard_normal((1, 8))
        params = hmm.HmmParams(np.zeros((1, 1)), np.array([5.0]), np.array([0.5]))
        seg, score = oracle.brute_force_all_color(loglik, [0], params, 8,
                                                  max_segments=3)
        assert seg.actions == (0,) and seg.lengths == (8,)

    def test_dominates_anchor_constrained_search(self):
        gaps = []
        for trial in range(25):
            inst = oracle.random_instance(fork_rng(3, "dom", trial),
                                          max_frames=14, max_classes=3)
            members = sorted({a.action for a in inst["anchors"]})
            _, dp_score = acv.constrained_viterbi(inst["anchors"], inst["loglik"],
                                                  inst["hmm"])
            _, free_score = oracle.brute_force_all_color(
                inst["loglik"], members, inst["hmm"], inst["num_frames"],
                max_segments=min(5, len(members) + 1))
            assert free_score >= dp_score - 1e-9
            gaps.append(free_score - dp_score)
        assert min(gaps) >= -1e-9

    def test_gap_closes_when_anchors_sit_on_true_segments(self):
        # frames 0-4 scream class 0, frames 5-9 scream class 1; anchors match
        loglik = np.full((2, 10), -8.0)
        loglik[0, :5] = 0.0
        loglik[1, 5:] = 0.0
        params = two_class_params(lam=(5.0, 5.0))
        anchors = acv.AnchorSet([acv.Anchor(0, 2, 1, 3), acv.Anchor(1, 7, 6, 8)])
        seg_dp, dp_score = acv.constrained_viterbi(anchors, loglik, params)
        seg_free, free_score = oracle.brute_force_all_color(loglik, [0, 1], params,
                                                            10, max_segments=3)
        assert seg_dp == seg_free
        np.testing.assert_allclose(dp_score, free_score, atol=1e-9)
        assert list(seg_dp.lengths) == [5, 5]

    def test_output_covers_the_set(self):
        rng = np.random.default_rng(4)
        loglik = rng.standard_normal((2, 9))
        seg, _ = oracle.brute_force_all_color(loglik, [0, 1], two_class_params(),
                                              9, max_segments=4)
        assert validate_segmentation(seg, 9, ActionSet([0, 1]))

    def test_size_caps_are_hard_errors(self):
        params = two_class_params()
        with pytest.raises(ValueError):
            oracle.brute_force_all_color(np.zeros((2, 21)), [0, 1], params, 21, 3)
        with pytest.raises(ValueError):
            oracle.brute_force_all_color(np.zeros((4, 10)), [0, 1, 2, 3],
                                         hmm.HmmParams(np.zeros((4, 4)),
                                                       np.full(4, 3.0),
                                                       np.full(4, 0.5)), 10, 4)
        with pytest.raises(ValueError):
            oracle.brute_force_all_color(np.zeros((2, 10)), [0, 1], params, 10, 6)
        with pytest.raises(ValueError):
            oracle.brute_force_all_color(np.zeros((2, 10)), [0, 1], params, 10, 1)


def test_random_instance_is_reproducible_and_well_formed():
    for seed in range(10):
        a = oracle.random_instance(fork_rng(seed, "instance"), 40, 3)
        b = oracle.random_instance(fork_rng(seed, "instance"), 40, 3)
        np.testing.assert_array_equal(a["loglik"], b["loglik"])
        assert [x.action for x in a["anchors"]] \
            == [x.action for x in b["anchors"]]
        a["hmm"].check()
        assert a["num_frames"] <= 40
