import math

import numpy as np
import pytest

from acvseg import acv, dp, hmm, oracle
from acvseg.core import ActionSet, validate_segmentation
from acvseg.rng import fork_rng


class FakeScores:
    def __init__(self, sigmoid):
        self.log_sigmoid = np.log(np.asarray(sigmoid, dtype=np.float64))


def naive_saliency(log_sigmoid, members, tau):
    logf = log_sigmoid[members]
    m, t_total = logf.shape
    out = np.zeros((m, t_total))
    for i in range(m):
        for t in range(t_total):
            for u in range(-tau, tau + 1):
                if 0 <= t + u < t_total:
                    out[i, t] += logf[i, t + u] - logf[:, t + u].min()
    return out


class TestSaliency:
    def test_singleton_set_is_all_zero(self):
        scores = FakeScores(np.random.default_rng(0).uniform(0.1, 0.9, (3, 8)))
        s = acv.compute_saliency(scores, ActionSet([1]), tau=2)
        np.testing.assert_array_equal(s, np.zeros((1, 8)))

    def test_constant_margin_closed_form(self):
        sigmoid = np.vstack([np.full(9, 0.8), np.full(9, 0.2)])
        s = acv.compute_saliency(FakeScores(sigmoid), ActionSet([0, 1]), tau=1)
        np.testing.assert_allclose(s[0, 4], 3.0 * np.log(4.0), atol=1e-12)
        np.testing.assert_allclose(s[1], 0.0, atol=1e-12)

    def test_matches_double_loop_recomputation(self):
        rng = np.random.default_rng(1)
        sigmoid = rng.uniform(0.05, 0.95, (4, 20))
        members = ActionSet([0, 2, 3])
        for tau in (0, 1, 3, 25):
            s = acv.compute_saliency(FakeScores(sigmoid), members, tau=tau)
            expect = naive_saliency(np.log(sigmoid), list(members), tau)
            np.testing.assert_allclose(s, expect, atol=1e-12)

    def test_everywhere_non_negative(self):
        rng = np.random.default_rng(2)
        s = acv.compute_saliency(FakeScores(rng.uniform(0.01, 0.99, (5, 30))),
                                 ActionSet([0, 1, 2, 3, 4]), tau=4)
        assert np.all(s >= -1e-12)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            acv.compute_saliency(FakeScores(np.full((2, 4), 0.5)), ActionSet([0, 1]),
                                 tau=-1)


def test_window_sum_is_self_adjoint():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 17))
    b = rng.standard_normal((2, 17))
    for tau in (0, 2, 6):
        lhs = float((acv.window_sum(a, tau) * b).sum())
        rhs = float((a * acv.window_sum(b, tau)).sum())
        assert abs(lhs - rhs) < 1e-9


def test_saliency_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((3, 12))
    members = ActionSet([0, 1, 2])
    tau = 2

    class S:
        def __init__(self, logf):
            self.log_sigmoid = logf

    def saliency_of(logf):
        return acv.compute_saliency(S(logf), members, tau=tau)

    logf0 = np.log(1.0 / (1.0 + np.exp(-logits)))
    d_s = rng.standard_normal(saliency_of(logf0).shape)
    grad = acv.saliency_backward(d_s, S(logf0), members, tau)
    step = 1e-7
    for idx in [(0, 3), (1, 0), (2, 11), (1, 6)]:
        plus = logf0.copy()
        plus[idx] += step
        minus = logf0.copy()
        minus[idx] -= step
        fd = ((saliency_of(plus) - saliency_of(minus)) * d_s).sum() / (2 * step)
        assert abs(fd - grad[idx]) < 1e-5


class TestSelectAnchors:
    def test_single_action_sits_on_global_peak(self):
        s = np.zeros((1, 40))
        s[0, 23] = 5.0
        anchors = acv.select_anchors(s, [2], np.array([10.0]), alpha=0.6)
        (a,) = anchors
        assert a.action == 2 and a.center == 23
        assert a.start == 23 - 3 and a.end == 23 + 3

    def test_disjoint_peaks_keep_their_centers(self):
        s = np.zeros((2, 300))
        s[0, 10] = 4.0
        s[1, 200] = 4.0
        anchors = acv.select_anchors(s, [0, 1], np.array([17.0, 17.0]), alpha=0.6)
        a, b = anchors
        assert (a.center, b.center) == (10, 200)
        assert (a.start, a.end) == (5, 15)
        assert (b.start, b.end) == (195, 205)

    def test_loser_of_a_conflict_moves_to_next_best_center(self):
        s = np.full((2, 300), 0.01)
        s[0, 50] = 10.0  # winner
        s[1, 50] = 9.0
        s[1, 120] = 8.0
        anchors = acv.select_anchors(s, [0, 1], np.array([17.0, 17.0]), alpha=0.6)
        by_action = {a.action: a for a in anchors}
        assert by_action[0].center == 50
        assert by_action[1].center == 120

    def test_earliest_frame_wins_saliency_ties(self):
        s = np.zeros((1, 20))
        s[0, [6, 13]] = 2.0
        anchors = acv.select_anchors(s, [0], np.array([4.0]), alpha=0.6)
        assert list(anchors)[0].center == 6

    def test_alpha_halving_rescues_tight_videos(self):
        # two radius-5 anchors cannot fit in 8 frames at alpha=0.6
        s = np.zeros((2, 8))
        s[0, 2] = 2.0
        s[1, 6] = 1.0
        anchors = acv.select_anchors(s, [0, 1], np.array([20.0, 20.0]), alpha=0.6)
        spans = sorted((a.start, a.end) for a in anchors)
        assert spans[0][1] < spans[1][0]

    def test_placement_equals_the_pair_scan_reference(self):
        rng = np.random.default_rng(13)
        placed = 0
        for trial in range(2000):
            m = int(rng.integers(1, 8))
            t_total = int(rng.integers(1, 60))
            if trial % 3 == 0:
                s = rng.integers(0, 3, size=(m, t_total)).astype(np.float64)  # many ties
            else:
                s = rng.standard_normal((m, t_total))
            if trial % 4 == 0 and m > 1:
                s[1:] = s[0]  # every class shares the same peaks
            radius = rng.integers(0, max(1, t_total // max(m, 2)) + 3, size=m)
            order = [np.lexsort((np.arange(t_total), -s[i])) for i in range(m)]
            got = acv._place(s, order, radius, t_total)
            assert got == place_by_pair_scan(s, order, radius, t_total)
            placed += got is not None
        assert 200 <= placed <= 1800

    def test_impossible_placement_is_an_error(self):
        with pytest.raises(ValueError):
            acv.select_anchors(np.zeros((2, 1)), [0, 1], np.array([5.0, 5.0]), alpha=0.6)

    def test_intervals_clamped_to_video(self):
        s = np.zeros((1, 10))
        s[0, 0] = 1.0
        (a,) = acv.select_anchors(s, [0], np.array([30.0]), alpha=1.0)
        assert a.start == 0 and a.end <= 9

    @pytest.mark.parametrize("alpha", [1e18, 1e300])
    def test_huge_alpha_places_valid_anchors_without_overflow(self, alpha):
        s = np.random.default_rng(17).random((3, 60))
        (a,) = acv.select_anchors(s[:1], [4], np.array([20.0]), alpha=alpha)
        assert (a.start, a.center, a.end) == (0, int(s[0].argmax()), 59)
        # two anchors of radius >= T overlap, so alpha halves until they fit
        anchors = acv.select_anchors(s[1:], [0, 3], np.array([20.0, 35.0]), alpha=alpha)
        spans = sorted((a.start, a.end) for a in anchors)
        assert sorted(a.action for a in anchors) == [0, 3]
        assert all(a.start <= a.center <= a.end for a in anchors)
        assert 0 <= spans[0][0] and spans[0][1] < spans[1][0] and spans[1][1] <= 59

    def test_equals_the_halve_every_time_reference(self):
        rng = np.random.default_rng(19)
        outcomes = set()
        for trial in range(3000):
            m = int(rng.integers(1, 6))
            t_total = int(rng.integers(1, 201))
            if trial % 3 == 0:
                s = rng.integers(0, 3, size=(m, t_total)).astype(np.float64)  # many ties
            else:
                s = rng.random((m, t_total))
            actions = np.sort(rng.choice(10, size=m, replace=False))
            lambdas = rng.uniform(1.0, 200.0, size=m)
            alpha = 10.0 ** rng.uniform(-1.0, 300.0)
            got, want = [], []
            for select, out in ((acv.select_anchors, got),
                                (select_anchors_halving_every_time, want)):
                try:
                    out.append(select(s, actions, lambdas, alpha))
                except ValueError as err:
                    out.append(str(err))
            assert got == want
            outcomes.add((m > 1, isinstance(got[0], str)))
        assert outcomes == {(False, False), (True, False), (True, True)}

    def test_huge_alpha_places_after_few_attempts(self, monkeypatch):
        calls = []
        place = acv._place

        def spy(*args):
            calls.append(1)
            return place(*args)

        monkeypatch.setattr(acv, "_place", spy)
        s = np.random.default_rng(17).random((2, 60))
        anchors = acv.select_anchors(s, [0, 3], np.array([20.0, 35.0]), alpha=1e300)
        assert len(anchors) == 2 and len(calls) <= 3


def select_anchors_halving_every_time(saliency, actions, lambdas, alpha):
    """select_anchors as it was before halvings whose radii span the video
    were skipped: every halving tries to place.  Two shortcuts change no
    outcome, only the time a huge alpha takes: the radii are computed in
    Python floats, where min(floor(v), T) = floor(min(v, T)) for integer T,
    and _place, which is deterministic, runs once per radius vector, since
    the radii clamp at T."""
    s = np.asarray(saliency, dtype=np.float64)
    m, t_total = s.shape
    actions = [int(c) for c in actions]
    lambdas = [float(lam) for lam in lambdas]
    order = np.argsort(-s, axis=1, kind="stable")
    placements = {}
    while True:
        radius = tuple([math.floor(min(alpha * lam / 2.0, t_total)) for lam in lambdas])
        if radius not in placements:
            placements[radius] = acv._place(s, order, np.asarray(radius), t_total)
        placed = placements[radius]
        if placed is not None:
            return acv.AnchorSet(acv.Anchor(actions[i], int(c),
                                            int(max(0, c - radius[i])),
                                            int(min(t_total - 1, c + radius[i])))
                                 for i, c in enumerate(placed))
        if not any(radius):
            raise ValueError("cannot place %d disjoint anchors in %d frames" % (m, t_total))
        alpha /= 2.0


def place_by_pair_scan(s, order, radius, t_total):
    """Anchor placement as a bounded retry loop: rescan the anchors by
    interval start for the first overlap, move its loser one candidate
    centre at a time."""
    m = len(order)
    ptr = [0] * m
    centers = [int(order[i][0]) for i in range(m)]

    def interval(i, c):
        return max(0, c - int(radius[i])), min(t_total - 1, c + int(radius[i]))

    for _ in range(m * t_total + 1):
        spans = [interval(i, centers[i]) for i in range(m)]
        clash = None
        for i in sorted(range(m), key=lambda i: (spans[i][0], i)):
            for j in range(m):
                if j != i and not (spans[j][1] < spans[i][0] or spans[j][0] > spans[i][1]):
                    clash = (i, j) if (s[i, centers[i]], -i) < (s[j, centers[j]], -j) else (j, i)
                    break
            if clash:
                break
        if clash is None:
            return centers
        loser, _ = clash
        others = [spans[j] for j in range(m) if j != loser]
        while True:
            ptr[loser] += 1
            if ptr[loser] >= t_total:
                return None
            c = int(order[loser][ptr[loser]])
            lo, hi = interval(loser, c)
            if all(o_hi < lo or o_lo > hi for o_lo, o_hi in others):
                centers[loser] = c
                break
    raise AssertionError("reference placement did not settle")


class TestCutDomains:
    def test_single_anchor_spans_whole_video(self):
        anchors = acv.AnchorSet([acv.Anchor(3, 5, 4, 6)])
        assert acv.cut_domains(anchors, 12) == ()

    def test_two_anchor_cut_domain_matches_hand_enumeration(self):
        anchors = acv.AnchorSet([acv.Anchor(0, 2, 2, 3), acv.Anchor(1, 7, 7, 8)])
        assert acv.cut_domains(anchors, 10) == ((3, 6),)

    def test_adjacent_anchors_leave_one_cut(self):
        anchors = acv.AnchorSet([acv.Anchor(0, 2, 1, 3), acv.Anchor(1, 5, 4, 7)])
        (lo, hi), = acv.cut_domains(anchors, 9)
        assert lo == hi == 3

    def test_anchor_past_video_end_rejected(self):
        anchors = acv.AnchorSet([acv.Anchor(0, 5, 4, 6)])
        with pytest.raises(ValueError):
            acv.cut_domains(anchors, 6)


def uniform_params(n, lam):
    trans = np.full((n, n), 1.0 / max(n - 1, 1))
    np.fill_diagonal(trans, 0.0)
    if n == 1:
        trans[:] = 0.0
    return hmm.HmmParams(trans, np.full(n, float(lam)), np.full(n, 0.5))


class TestConstrainedViterbi:
    def test_single_segment_closed_form(self):
        rng = np.random.default_rng(5)
        loglik = rng.standard_normal((1, 9))
        params = uniform_params(1, 4.0)
        anchors = acv.AnchorSet([acv.Anchor(0, 4, 3, 5)])
        seg, score = acv.constrained_viterbi(anchors, loglik, params)
        assert seg.actions == (0,) and seg.lengths == (9,)
        expect = loglik.sum() + hmm.log_poisson_length(9, 4.0)
        np.testing.assert_allclose(score, expect, atol=1e-12)

    def test_uniform_likelihood_cut_follows_length_model(self):
        t_total = 30
        params = uniform_params(2, 8.0)
        params.lambdas[:] = (8.0, 22.0)
        loglik = np.zeros((2, t_total))
        anchors = acv.AnchorSet([acv.Anchor(0, 2, 2, 3), acv.Anchor(1, 27, 26, 27)])
        seg, score = acv.constrained_viterbi(anchors, loglik, params)

        def by_grid():
            (lo, hi), = acv.cut_domains(anchors, t_total)
            best = None
            for cut in range(lo, hi + 1):
                l1 = cut + 1
                val = hmm.log_poisson_length(l1, 8.0) \
                    + hmm.log_poisson_length(t_total - l1, 22.0)
                if best is None or val > best[1] + 1e-15:
                    best = (l1, val)
            return best

        l1, val = by_grid()
        assert seg.lengths[0] == l1
        np.testing.assert_allclose(score, val, atol=1e-9)

    def test_tie_breaks_toward_earliest_cut(self):
        lengths, _ = dp.best_cuts(np.zeros((2, 5)), np.array([2.0, 2.0]), ((0, 3),))
        assert tuple(lengths) == (2, 3)

    def test_matches_brute_force_on_random_instances(self):
        for trial in range(60):
            inst = oracle.random_instance(fork_rng(7, "sweep", trial), 40, 3)
            seg_dp, score_dp = acv.constrained_viterbi(inst["anchors"], inst["loglik"],
                                                       inst["hmm"])
            seg_bf, score_bf = oracle.brute_force_anchor_best(inst["anchors"],
                                                              inst["loglik"], inst["hmm"])
            assert seg_dp == seg_bf
            assert abs(score_dp - score_bf) <= 1e-9

    def test_output_always_covers_the_set(self):
        for trial in range(40):
            inst = oracle.random_instance(fork_rng(8, "cover", trial), 40, 3)
            seg, _ = acv.constrained_viterbi(inst["anchors"], inst["loglik"], inst["hmm"])
            members = ActionSet([a.action for a in inst["anchors"]])
            assert validate_segmentation(seg, inst["num_frames"], members)

    def test_each_segment_contains_its_anchor(self):
        for trial in range(40):
            inst = oracle.random_instance(fork_rng(9, "contain", trial), 40, 3)
            seg, _ = acv.constrained_viterbi(inst["anchors"], inst["loglik"], inst["hmm"])
            start = 0
            for anchor, length in zip(inst["anchors"], seg.lengths):
                end = start + length - 1
                assert start <= anchor.start and anchor.end <= end
                start += length

    def test_score_equals_independent_rescoring(self):
        for trial in range(40):
            inst = oracle.random_instance(fork_rng(10, "rescore", trial), 40, 3)
            seg, score = acv.constrained_viterbi(inst["anchors"], inst["loglik"],
                                                 inst["hmm"])
            classes = sorted({a.action for a in inst["anchors"]})
            again = oracle.score_segmentation(seg.actions, seg.lengths, inst["loglik"],
                                              classes, inst["hmm"])
            assert abs(score - again) <= 1e-9

    def test_non_finite_likelihood_rejected(self):
        inst = oracle.random_instance(fork_rng(12, "bad"), 40, 3)
        bad = inst["loglik"].copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            acv.constrained_viterbi(inst["anchors"], bad, inst["hmm"])


def test_dump_file_lists_anchors_and_cuts(tmp_path):
    from acvseg.core import Segmentation
    anchors = acv.AnchorSet([acv.Anchor(0, 2, 2, 3), acv.Anchor(1, 7, 7, 8)])
    path = tmp_path / "dump.txt"
    acv.write_acv_dump(str(path), anchors, Segmentation([0, 1], [5, 5]))
    text = path.read_text().splitlines()
    assert text[0] == "anchors"
    assert text[1].startswith("0 center 2")
    assert "cuts" in text
    assert text[-1] == "4 9"
