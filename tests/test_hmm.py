import warnings

import numpy as np
import pytest

from acvseg import hmm
from acvseg.core import ActionSet, Segmentation
from acvseg.rng import fork_rng


def sets(*groups):
    return [ActionSet(g) for g in groups]


def init(lengths, corpus, n_classes, l_min=1.0):
    return hmm.init_params(lengths, corpus, n_classes, l_min=l_min)


def transitions_of(corpus, n_classes):
    # lengths do not enter the transitions
    return init(np.ones(len(corpus)), corpus, n_classes).transitions


class TestInitTransitions:
    def test_hand_counted_pair_ratios(self):
        # {a,b} and {b,c}: b co-occurs once with each of a and c, a and c
        # only ever with b.
        t = transitions_of(sets([0, 1], [1, 2]), 3)
        expect = np.array([[0.0, 1.0, 0.0],
                           [0.5, 0.0, 0.5],
                           [0.0, 1.0, 0.0]])
        np.testing.assert_allclose(t, expect, atol=1e-12)

    def test_lonely_class_row_is_zero(self):
        t = transitions_of(sets([0]), 1)
        np.testing.assert_array_equal(t, np.zeros((1, 1)))

    def test_repeating_a_set_does_not_change_ratios(self):
        once = transitions_of(sets([0, 1]), 2)
        thrice = transitions_of(sets([0, 1], [0, 1], [0, 1]), 2)
        np.testing.assert_allclose(once, thrice, atol=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            init([], [], 2)

    def test_rows_with_mass_are_stochastic(self):
        rng = np.random.default_rng(3)
        corpus = []
        for _ in range(30):
            size = int(rng.integers(1, 5))
            corpus.append(ActionSet(rng.choice(6, size=size, replace=False)))
        t = transitions_of(corpus, 6)
        sums = t.sum(axis=1)
        assert np.all((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0))
        assert np.all(np.diag(t) == 0.0)


class TestInitLambdas:
    def test_two_classes_split_one_video_evenly(self):
        lam = init([100], sets([0, 1]), 2, l_min=1.0).lambdas
        np.testing.assert_allclose(lam, [50.0, 50.0], atol=1e-9)

    def test_two_video_least_squares_solution(self):
        # minimize (100-la)^2 + (300-la-lb)^2: gradient zero at la=100, lb=200
        lam = init([100, 300], sets([0], [0, 1]), 2, l_min=1.0).lambdas
        np.testing.assert_allclose(lam, [100.0, 200.0], atol=1e-9)

    def test_floor_inactive_when_optimum_above_it(self):
        lam = init([60], sets([0]), 1, l_min=50.0).lambdas
        np.testing.assert_allclose(lam, [60.0], atol=1e-9)

    def test_floor_binds_and_remaining_classes_resolve(self):
        # optimum without the floor would hand class b a tiny share
        lam = init([100, 100, 12], sets([0, 1], [0, 1], [1]), 2, l_min=50.0).lambdas
        assert lam[1] == 50.0
        assert lam[0] >= 50.0

    def test_unseen_class_gets_the_floor_and_a_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            params = init([80, 90], sets([0], [0, 1]), 3, l_min=7.0)
        assert len(caught) == 1 and caught[0].category is UserWarning
        assert str(caught[0].message).endswith("[2]")
        assert params.lambdas[2] == 7.0
        assert params.priors[2] == 0.0
        np.testing.assert_array_equal(params.transitions[2], np.zeros(3))

    def test_local_optimality_of_active_set_solution(self):
        rng = np.random.default_rng(11)
        lengths = rng.integers(50, 300, size=8).tolist()
        corpus = [ActionSet(rng.choice(4, size=int(rng.integers(1, 5)), replace=False))
                  for _ in lengths]
        l_min = 20.0
        lam = init(lengths, corpus, 4, l_min=l_min).lambdas

        def objective(l):
            return sum((t - sum(l[c] for c in s)) ** 2
                       for t, s in zip(lengths, corpus))

        base = objective(lam)
        for _ in range(200):
            delta = rng.uniform(-1e-3, 1e-3, size=4)
            trial = np.maximum(lam + delta, l_min)
            assert objective(trial) >= base - 1e-6


class TestInitPriors:
    def test_footage_fractions(self):
        p = init([100, 100], sets([0], [0, 1]), 2).priors
        np.testing.assert_allclose(p, [1.0, 0.5], atol=1e-12)

    def test_single_video_single_class(self):
        np.testing.assert_allclose(init([37], sets([0]), 1).priors, [1.0])

    def test_absent_class_zero(self):
        with pytest.warns(UserWarning):
            assert init([10], sets([0]), 2).priors[1] == 0.0


class TestInitParamsChecks:
    @pytest.mark.parametrize("lengths, corpus", [
        ([10, 20], sets([0])), ([10], sets([0], [1]))], ids=["more-lengths", "more-sets"])
    def test_one_set_per_video(self, lengths, corpus):
        with pytest.raises(ValueError, match="one action set per video"):
            init(lengths, corpus, 2)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            init([10, 20], sets([0], [0, 2]), 2)


class TestLogFrameLikelihood:
    def test_posterior_equal_to_prior_scores_zero(self):
        logpost = np.log(np.full((2, 4), 0.5))
        rows = hmm.log_frame_likelihood(logpost, np.array([0.5, 0.5]))
        np.testing.assert_allclose(rows, 0.0, atol=1e-12)

    def test_common_shift_moves_all_classes_equally(self):
        rng = np.random.default_rng(0)
        logpost = np.log(rng.random((3, 5)))
        priors = np.array([0.3, 0.5, 0.9])
        base = hmm.log_frame_likelihood(logpost, priors)
        shifted = hmm.log_frame_likelihood(logpost + np.log(2.0), priors)
        np.testing.assert_allclose(shifted - base, np.log(2.0), atol=1e-12)
        assert np.array_equal(np.argmax(base, axis=0), np.argmax(shifted, axis=0))

    def test_ratio_arithmetic(self):
        val = hmm.log_frame_likelihood(np.log(np.array([[0.8]])), np.array([0.4]))
        np.testing.assert_allclose(val, np.log(2.0), atol=1e-12)

    def test_zero_prior_rejected(self):
        with pytest.raises(ValueError):
            hmm.log_frame_likelihood(np.zeros((1, 3)), np.array([0.0]))


class TestLogPoissonLength:
    def test_length_one_rate_one(self):
        np.testing.assert_allclose(hmm.log_poisson_length(1, 1.0), -1.0, atol=1e-12)

    def test_length_two_rate_two(self):
        np.testing.assert_allclose(hmm.log_poisson_length(2, 2.0),
                                   np.log(2.0) - 2.0, atol=1e-12)

    def test_mass_sums_to_one(self):
        for lam in (0.5, 3.0, 25.0):
            top = int(lam + 40 * np.sqrt(lam)) + 1
            mass = sum(np.exp(hmm.log_poisson_length(l, lam)) for l in range(1, top))
            mass += np.exp(-lam)  # l = 0 term, outside the valid-length domain
            assert abs(mass - 1.0) < 1e-9

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            hmm.log_poisson_length(0, 1.0)
        with pytest.raises(ValueError):
            hmm.log_poisson_length(3, 0.0)


def small_params():
    return hmm.HmmParams(np.array([[0.0, 1.0], [1.0, 0.0]]),
                         np.array([6.0, 4.0]),
                         np.array([0.6, 0.4]))


class TestUpdateRefined:
    def test_fixed_point_when_video_matches_params(self):
        params = small_params()
        out = hmm.update_refined(params, Segmentation([0, 1], [6, 4]), 1)
        np.testing.assert_allclose(out.lambdas, params.lambdas, atol=1e-12)
        np.testing.assert_allclose(out.priors, params.priors, atol=1e-12)
        np.testing.assert_allclose(out.transitions, params.transitions, atol=1e-12)

    def test_full_step_at_rate_one(self):
        params = hmm.HmmParams(np.array([[0.0, 0.0], [0.0, 0.0]]),
                               np.array([9.0, 9.0]),
                               np.array([0.1, 0.9]))
        out = hmm.update_refined(params, Segmentation([0, 1], [6, 4]), 1)
        np.testing.assert_allclose(out.lambdas, [6.0, 4.0], atol=1e-12)
        np.testing.assert_allclose(out.priors, [0.6, 0.4], atol=1e-12)
        np.testing.assert_allclose(out.transitions[0], [0.0, 1.0], atol=1e-12)

    def test_untouched_rows_keep_their_values(self):
        params = hmm.HmmParams(np.array([[0.0, 0.3, 0.7],
                                         [0.5, 0.0, 0.5],
                                         [0.2, 0.8, 0.0]]),
                               np.array([5.0, 5.0, 5.0]),
                               np.array([0.5, 0.5, 0.5]))
        out = hmm.update_refined(params, Segmentation([0, 1], [3, 3]), 2)
        np.testing.assert_allclose(out.transitions[2], params.transitions[2], atol=1e-12)
        assert out.lambdas[2] == params.lambdas[2]

    def test_touched_rows_stay_stochastic(self):
        rng = np.random.default_rng(5)
        n = 4
        trans = rng.random((n, n))
        np.fill_diagonal(trans, 0.0)
        trans /= trans.sum(axis=1, keepdims=True)
        params = hmm.HmmParams(trans, rng.uniform(2, 20, n), rng.random(n))
        for trial in range(50):
            k = int(rng.integers(2, 6))
            actions = rng.choice(n, size=k).tolist()
            actions = [a for i, a in enumerate(actions) if i == 0 or a != actions[i - 1]]
            lengths = rng.integers(1, 9, size=len(actions)).tolist()
            params = hmm.update_refined(params, Segmentation(actions, lengths),
                                        int(rng.integers(1, 8)))
            params.check()

    def test_refined_lambda_floored_at_one_frame(self):
        params = small_params()
        out = hmm.update_refined(params, Segmentation([0, 1], [1, 1]), 1)
        assert np.all(out.lambdas >= 1.0)


def test_init_params_bundle_consistent():
    lengths = [120, 90, 200]
    corpus = sets([0, 1], [1, 2], [0, 1, 2])
    params = hmm.init_params(lengths, corpus, 3, l_min=5.0)
    params.check()
    np.testing.assert_allclose(params.transitions,
                               reference_transitions(corpus, 3), atol=1e-12)
    np.testing.assert_allclose(params.lambdas,
                               reference_lambdas(lengths, corpus, 3, l_min=5.0), atol=1e-12)
    np.testing.assert_allclose(params.priors,
                               reference_priors(lengths, corpus, 3), atol=1e-12)


@pytest.mark.parametrize("table", ["transitions", "lambdas", "priors"])
def test_check_rejects_nan_in_every_table(table):
    params = hmm.init_params([120, 90, 200], sets([0, 1], [1, 2], [0, 1, 2]), 3, l_min=5.0)
    getattr(params, table).flat[1] = np.nan
    with pytest.raises(ValueError):
        params.check()


# ------------------------------------------------------------ reference twins
# The per-table initializers and the looped refinement step that init_params
# and update_refined replace: one table at a time, counting in Python loops.

def reference_transitions(sets, n_classes):
    present = np.zeros(n_classes)
    pair = np.zeros((n_classes, n_classes))
    for aset in sets:
        labels = np.fromiter(aset, dtype=np.int64)
        present[labels] += 1.0
        for c in labels:
            others = labels[labels != c]
            pair[c, others] += 1.0
    trans = np.zeros_like(pair)
    rows = np.flatnonzero(present > 0)
    trans[rows] = pair[rows] / present[rows, None]
    sums = trans.sum(axis=1)
    nz = sums > 0
    trans[nz] /= sums[nz, None]
    return trans


def reference_lambdas(video_lengths, sets, n_classes, l_min):
    video_lengths = np.asarray(video_lengths, dtype=np.float64)
    member = np.zeros((len(sets), n_classes))
    for v, aset in enumerate(sets):
        member[v, list(aset)] = 1.0
    seen = member.any(axis=0)
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


def reference_priors(video_lengths, sets, n_classes):
    video_lengths = np.asarray(video_lengths, dtype=np.float64)
    num = np.zeros(n_classes)
    for t_v, aset in zip(video_lengths, sets):
        num[list(aset)] += t_v
    return num / video_lengths.sum()


def reference_update_refined(params, seg, num_videos):
    rate = 1.0 / float(num_videos)
    n = params.num_classes
    actions = np.asarray(seg.actions, dtype=np.int64)
    lengths = np.asarray(seg.lengths, dtype=np.float64)
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
    return hmm.HmmParams(trans, lam, priors)


def same_bits(a, b):
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in ((a.transitions, b.transitions), (a.lambdas, b.lambdas),
                            (a.priors, b.priors)))


def test_init_params_matches_reference_bit_for_bit():
    rng = fork_rng(0, "hmm-init-reference")
    unseen = floored = 0
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        n_videos = int(rng.integers(1, 81))
        # a random subset of the classes is ever drawn, so some go unseen
        pool = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        corpus = [ActionSet(rng.choice(pool, size=int(rng.integers(1, pool.size + 1)),
                                       replace=False)) for _ in range(n_videos)]
        lengths = rng.integers(1, 1500, size=n_videos).tolist()
        l_min = float(rng.choice([1, 5, 10, 50, 200]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = hmm.init_params(lengths, corpus, n, l_min)
        want = hmm.HmmParams(reference_transitions(corpus, n),
                             reference_lambdas(lengths, corpus, n, l_min),
                             reference_priors(lengths, corpus, n))
        assert same_bits(got, want)
        unseen += pool.size < n
        floored += bool(np.any(got.lambdas[pool] == l_min))
    assert unseen > 500 and floored > 200


def test_update_refined_matches_reference_bit_for_bit():
    rng = fork_rng(0, "hmm-update-reference")
    single = repeats = 0
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        trans = rng.random((n, n))
        np.fill_diagonal(trans, 0.0)
        trans /= np.maximum(trans.sum(axis=1, keepdims=True), 1e-300)
        params = hmm.HmmParams(trans, rng.uniform(1, 60, n), rng.random(n))
        k = int(rng.integers(1, 13))
        # raw draws: single segments and immediate repeats both occur
        actions = rng.integers(0, n, size=k)
        lengths = rng.integers(1, 200, size=k)
        seg = Segmentation(actions, lengths)
        v = int(rng.integers(1, 40))
        assert same_bits(hmm.update_refined(params, seg, v),
                         reference_update_refined(params, seg, v))
        single += k == 1
        repeats += bool(np.any(actions[1:] == actions[:-1]))
    assert single > 50 and repeats > 500
