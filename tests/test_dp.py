import itertools

import numpy as np
import pytest

from acvseg import dp, hmm, oracle


def stage_grid(w1, w2, offset, lam):
    """The length profile best_cuts slices from its padded Poisson table for
    two cut domains whose first cuts lie `offset` frames apart; lengths
    <= 0 are -inf."""
    max_len = w1 + w2 + abs(offset)
    base = max_len + offset - (w1 - 1)
    return dp.poisson_table([lam], max_len)[0, base: base + w1 - 1 + w2]


def brute_force_cuts(loglik, lam, domains):
    """Every cut vector inside the domains, scored term by term; the
    lexicographically earliest best wins.  None when no vector is legal."""
    n_seg, t_total = loglik.shape
    best = None
    for cuts in itertools.product(*(range(lo, hi + 1) for lo, hi in domains)):
        lengths = np.diff((-1,) + cuts + (t_total - 1,))
        if np.any(lengths < 1):
            continue
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        score = sum(hmm.log_poisson_length(int(l), lam[k]) + loglik[k, s: s + l].sum()
                    for k, (s, l) in enumerate(zip(starts, lengths)))
        if best is None or score > best[1]:
            best = (lengths, score)
    return best


def test_monotone_row_max_equals_dense_bit_for_bit():
    rng = np.random.default_rng(0)
    for trial in range(2000):
        w1, w2 = (int(v) for v in rng.integers(1, 48, size=2))
        offset = int(rng.integers(-w1 - 3, w2 + 4))
        profile = stage_grid(w1, w2, offset, float(rng.uniform(0.5, 60.0)))
        kind = trial % 3
        if kind == 0:
            q = np.zeros(w2)  # ties everywhere
        elif kind == 1:
            q = rng.integers(0, 3, size=w2).astype(np.float64)
        else:
            q = np.cumsum(rng.standard_normal(w2))
        cut = int(rng.integers(0, w2 + 1))
        if trial % 4 == 1:
            q[:cut] = dp.NEG_INF  # infeasible early states
        elif trial % 4 == 2:
            q[cut:] = dp.NEG_INF  # infeasible late states: all -inf suffix rows
        got = dp._row_max_monotone(profile, q, w1)
        np.testing.assert_array_equal(got, dp._row_max_dense(profile, q, w1))


@pytest.mark.parametrize("seed", range(4))
def test_best_cuts_takes_the_same_path_on_either_step(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        t_total = int(rng.integers(20, 120))
        n_seg = int(rng.integers(2, 7))
        lam = rng.uniform(2.0, 2.0 * t_total / n_seg, size=n_seg)
        if rng.random() < 0.3:
            loglik = np.zeros((n_seg, t_total))
        else:
            loglik = rng.standard_normal((n_seg, t_total)) * rng.uniform(0.1, 3.0)
        if rng.random() < 0.5:
            # narrow, anchor-like domains
            cuts = np.sort(rng.choice(np.arange(1, t_total - 2), n_seg - 1, replace=False))
            radius = int(rng.integers(0, 6))
            domains = tuple((max(0, int(c) - radius), min(t_total - 2, int(c) + radius))
                            for c in cuts)
        else:
            domains = tuple((k, t_total - 1 - (n_seg - 1 - k)) for k in range(n_seg - 1))
        results = []
        for min_cells in (10 ** 12, 0):  # dense only, then monotone only
            monkeypatch.setattr(dp, "MONOTONE_MIN_CELLS", min_cells)
            try:
                lengths, score = dp.best_cuts(loglik, lam, domains)
                results.append((tuple(lengths), score))
            except ValueError as err:
                results.append(str(err))
        assert results[0] == results[1]


@pytest.mark.parametrize("min_cells", [10 ** 12, 0], ids=["dense", "monotone"])
def test_best_cuts_matches_exhaustive_search(monkeypatch, min_cells):
    monkeypatch.setattr(dp, "MONOTONE_MIN_CELLS", min_cells)
    rng = np.random.default_rng(5)
    n_infeasible = 0
    for _ in range(300):
        n_seg = int(rng.integers(1, 5))
        t_total = int(rng.integers(1 if n_seg == 1 else 2, 11))
        lam = rng.uniform(0.5, 8.0, size=n_seg)
        loglik = rng.standard_normal((n_seg, t_total))
        # non-decreasing ranges inside [0, T-2]; they may overlap or leave
        # no legal cut vector
        los = np.sort(rng.integers(0, t_total - 1, size=n_seg - 1))
        his = np.maximum(np.sort(rng.integers(0, t_total - 1, size=n_seg - 1)), los)
        domains = tuple((int(lo), int(hi)) for lo, hi in zip(los, his))
        expect = brute_force_cuts(loglik, lam, domains)
        if expect is None:
            n_infeasible += 1
            with pytest.raises(ValueError, match="no legal path"):
                dp.best_cuts(loglik, lam, domains)
            continue
        lengths, score = dp.best_cuts(loglik, lam, domains)
        np.testing.assert_array_equal(lengths, expect[0])
        assert score == pytest.approx(expect[1], abs=1e-9)
    assert n_infeasible > 10


def test_best_segmentation_scores_like_the_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        t_total = int(rng.integers(4, 40))
        classes = sorted(rng.choice(6, size=3, replace=False).tolist())
        actions = [classes[i] for i in rng.permutation(3)][:int(rng.integers(1, 4))]
        trans = rng.random((6, 6))
        np.fill_diagonal(trans, 0.0)
        trans[actions[0], actions[-1]] = 0.0  # some sequences carry a -inf transition
        params = hmm.HmmParams(trans / trans.sum(axis=1, keepdims=True),
                               rng.uniform(2.0, 20.0, 6), np.full(6, 0.5))
        loglik = rng.standard_normal((3, t_total))  # rows follow the sorted classes
        domains = tuple((k, t_total - 1 - (len(actions) - 1 - k))
                        for k in range(len(actions) - 1))
        seg, score = dp.best_segmentation(actions, loglik, classes, params, domains)
        assert seg.actions == tuple(actions) and seg.num_frames == t_total
        assert score == pytest.approx(oracle.score_segmentation(
            seg.actions, seg.lengths, loglik, classes, params), abs=1e-9)
