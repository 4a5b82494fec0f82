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
        n_batch = int(rng.integers(1, 5))
        profiles, qs = [], []
        for b in range(n_batch):
            offset = int(rng.integers(-w1 - 3, w2 + 4))
            profiles.append(stage_grid(w1, w2, offset, float(rng.uniform(0.5, 60.0))))
            kind = (trial + b) % 3
            if kind == 0:
                q = np.zeros(w2)  # ties everywhere
            elif kind == 1:
                q = rng.integers(0, 3, size=w2).astype(np.float64)
            else:
                q = np.cumsum(rng.standard_normal(w2))
            cut = int(rng.integers(0, w2 + 1))
            if (trial + b) % 4 == 1:
                q[:cut] = dp.NEG_INF  # infeasible early states
            elif (trial + b) % 4 == 2:
                q[cut:] = dp.NEG_INF  # infeasible late states: all -inf suffix rows
            qs.append(q)
        if n_batch > 1 and trial % 2:
            qs[int(rng.integers(n_batch))][:] = dp.NEG_INF  # one problem's rows all -inf
        profile, q = np.stack(profiles), np.stack(qs)
        got, got_arg = dp._row_max_monotone(profile, q, w1)
        want, want_arg = dp._row_max_dense(profile, q, w1)
        assert got.shape == got_arg.shape == (n_batch, w1)
        np.testing.assert_array_equal(got, want)
        finite = np.isfinite(want)
        np.testing.assert_array_equal(got_arg[finite], want_arg[finite])


def random_batch(rng, n_batch, n_seg, t_total):
    """Problems that share their cut domains: Gaussian, integer (tie-prone)
    or zero log-likelihoods, and either shared or per-problem lambdas."""
    kind = int(rng.integers(3))
    if kind == 0:
        loglik = rng.standard_normal((n_batch, n_seg, t_total)) * rng.uniform(0.1, 3.0)
    elif kind == 1:
        loglik = rng.integers(-2, 3, size=(n_batch, n_seg, t_total)).astype(np.float64)
    else:
        loglik = np.zeros((n_batch, n_seg, t_total))
    lam = rng.uniform(1.0, 2.0 * t_total / n_seg + 1.0, size=(n_batch, n_seg))
    if rng.random() < 0.3:
        lam[:] = lam[0]
    return loglik, lam


def random_domains(rng, n_seg, t_total):
    kind = int(rng.integers(3))
    if kind == 0:  # alignment: every cut free
        return tuple((k, t_total - 1 - (n_seg - 1 - k)) for k in range(n_seg - 1))
    if kind == 1:  # narrow, anchor-like, possibly overlapping
        cuts = np.sort(rng.integers(0, t_total - 1, size=n_seg - 1))
        radius = int(rng.integers(0, 8))
        return tuple((max(0, int(c) - radius), min(t_total - 2, int(c) + radius))
                     for c in cuts)
    los = np.sort(rng.integers(0, t_total - 1, size=n_seg - 1))
    his = np.maximum(np.sort(rng.integers(0, t_total - 1, size=n_seg - 1)), los)
    return tuple((int(lo), int(hi)) for lo, hi in zip(los, his))


def solve_each(loglik, lam, domains):
    """best_cuts per problem: (lengths, score bits) or the error message."""
    out = []
    for b in range(loglik.shape[0]):
        try:
            lengths, score = dp.best_cuts(loglik[b], lam[b], domains)
            assert isinstance(score, float) and lengths.shape == (loglik.shape[1],)
            out.append((tuple(lengths), np.float64(score).tobytes()))
        except ValueError as err:
            out.append(str(err))
    return out


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("min_cells", [10 ** 12, 0], ids=["dense", "monotone"])
def test_batched_best_cuts_equals_per_problem_calls(monkeypatch, min_cells):
    monkeypatch.setattr(dp, "MONOTONE_MIN_CELLS", min_cells)
    rng = np.random.default_rng(21)
    n_single = n_infeasible = 0
    for _ in range(150):
        n_seg = int(rng.integers(1, 6))
        n_single += n_seg == 1
        t_total = int(rng.integers(max(2, n_seg), 12 if rng.random() < 0.3 else 90))
        n_batch = int(rng.integers(1, 7))
        loglik, lam = random_batch(rng, n_batch, n_seg, t_total)
        if n_seg > 1 and rng.random() < 0.1:
            # every path of one problem sums two ~-1e308 length terms to -inf
            lam[int(rng.integers(n_batch)), :2] = 1e308
        domains = random_domains(rng, n_seg, t_total)
        expect = solve_each(loglik, lam, domains)
        errors = [e for e in expect if isinstance(e, str)]
        if errors:
            n_infeasible += 1
            with pytest.raises(ValueError) as err:
                dp.best_cuts(loglik, lam, domains)
            assert str(err.value) in errors
            continue
        lengths, scores = dp.best_cuts(loglik, lam, domains)
        assert lengths.shape == (n_batch, n_seg) and scores.shape == (n_batch,)
        assert [(tuple(l), np.float64(s).tobytes())
                for l, s in zip(lengths, scores)] == expect
    assert n_single > 10 and n_infeasible > 10


# ------------------------------------------------------------ reference twin
# best_cuts as it was before it kept backpointers: the same backward pass
# over stages N-1..1, keeping every stage's suffix rows, then a traceback
# that scores each stage's candidates again in its own float order.

def reference_best_cuts(stage_loglik, stage_lambdas, domains):
    loglik = np.asarray(stage_loglik, dtype=np.float64)
    lam = np.asarray(stage_lambdas, dtype=np.float64)
    n_batch, n_seg, t_total = loglik.shape
    cs = np.zeros((n_batch, n_seg, t_total + 1))
    np.cumsum(loglik, axis=2, out=cs[:, :, 1:])
    if not np.all(np.isfinite(cs[:, :, -1])):
        raise ValueError("non-finite frame log-likelihoods")
    doms = [np.arange(lo, hi + 1) for lo, hi in domains] + [np.array([t_total - 1])]
    width = 2 * t_total + 1
    pois = dp.poisson_table(lam.reshape(-1), t_total).reshape(n_batch, n_seg, width)
    suffix = [None] * (n_seg - 1) + [np.zeros((n_batch, 1))]
    for k in range(n_seg - 1, 0, -1):
        d0, d1 = doms[k - 1], doms[k]
        w1, w2 = d0.shape[0], d1.shape[0]
        base = t_total + int(d1[0]) - int(d0[-1])
        profile = pois[:, k, base: base + w1 - 1 + w2]
        grid = np.stack([profile[:, w1 - 1 - i1: w1 - 1 - i1 + w2] for i1 in range(w1)], 1)
        q = cs[:, k, d1[0] + 1: d1[-1] + 2] + suffix[k]
        suffix[k - 1] = (grid + q[:, None, :]).max(axis=2) - cs[:, k, d0[0] + 1: d0[-1] + 2]
    pois_flat, cs_flat = pois.reshape(-1), cs.reshape(-1)
    row = np.arange(n_batch * n_seg).reshape(n_batch, n_seg)
    pois_at = row * width + t_total
    cs_at = row * (t_total + 1) + 1
    cuts = np.empty((n_batch, n_seg + 1), dtype=np.int64)
    cuts[:, 0] = -1
    for k in range(n_seg):
        prev, j2 = cuts[:, k], doms[k]
        cand = (pois_flat[(pois_at[:, k] - prev)[:, None] + j2]
                + cs[:, k, j2[0] + 1: j2[-1] + 2]
                - cs_flat[cs_at[:, k] + prev][:, None]
                + suffix[k])
        if k == 0:
            score = cand.max(axis=1)
            if not np.all(np.isfinite(score)):
                raise ValueError("no legal path through the cut domains")
        cuts[:, k + 1] = j2[np.argmax(cand, axis=1)]
    return np.diff(cuts, axis=1), score


@pytest.mark.parametrize("min_cells", [10 ** 12, 0], ids=["dense", "monotone"])
def test_best_cuts_matches_the_rescoring_traceback(monkeypatch, min_cells):
    monkeypatch.setattr(dp, "MONOTONE_MIN_CELLS", min_cells)
    rng = np.random.default_rng(16)
    n_solved = 0
    for trial in range(1000):
        n_seg = int(rng.integers(1, 7))
        t_total = int(rng.integers(max(2, n_seg), 90))
        n_batch = int(rng.integers(1, 7))
        if trial % 2:
            loglik = rng.standard_normal((n_batch, n_seg, t_total)) * rng.uniform(0.1, 3.0)
        else:  # stage rows of log-Dirichlet frame posteriors over a few classes
            n_classes = int(rng.integers(2, 8))
            post = np.log(rng.dirichlet(np.full(n_classes, rng.uniform(0.5, 2.0)),
                                        size=(n_batch, t_total)))
            labels = rng.integers(n_classes, size=(n_batch, n_seg))
            loglik = np.take_along_axis(post, labels[:, None, :], axis=2).transpose(0, 2, 1)
        lam = rng.uniform(1.0, 2.0 * t_total / n_seg + 1.0, size=(n_batch, n_seg))
        domains = random_domains(rng, n_seg, t_total)
        try:
            want = reference_best_cuts(loglik, lam, domains)
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err)):
                dp.best_cuts(loglik, lam, domains)
            continue
        n_solved += 1
        lengths, scores = dp.best_cuts(loglik, lam, domains)
        np.testing.assert_array_equal(lengths, want[0])
        np.testing.assert_allclose(scores, want[1], rtol=1e-12, atol=0)
    assert n_solved > 500


@pytest.mark.parametrize("min_cells", [10 ** 12, 0], ids=["dense", "monotone"])
@pytest.mark.parametrize("t_total", [9, 21, 101, 601])
def test_float_equal_paths_go_to_the_earliest_cut(monkeypatch, min_cells, t_total):
    # with zero frame scores and one lambda, lengths (a, T-a) and (T-a, a)
    # sum the same two log-Poisson terms and tie bit for bit
    monkeypatch.setattr(dp, "MONOTONE_MIN_CELLS", min_cells)
    loglik, lam = np.zeros((2, t_total)), np.full(2, t_total / 2)
    domains = ((0, t_total - 2),)
    earliest = [(t_total - 1) // 2, (t_total + 1) // 2]
    lengths, _ = dp.best_cuts(loglik, lam, domains)
    assert lengths.tolist() == earliest
    other = np.random.default_rng(t_total).standard_normal(loglik.shape)
    lengths, _ = dp.best_cuts(np.stack([loglik, other, loglik]), np.stack([lam] * 3), domains)
    assert lengths[[0, 2]].tolist() == [earliest] * 2


@pytest.mark.parametrize("min_cells", [10 ** 12, 0], ids=["dense", "monotone"])
def test_overflowing_sums_and_nan_lambdas_are_rejected(monkeypatch, min_cells):
    monkeypatch.setattr(dp, "MONOTONE_MIN_CELLS", min_cells)
    domains = ((0, 5), (2, 7))
    loglik = np.zeros((3, 10))
    loglik[1, 3:5] = -1e308  # finite frames whose running sum overflows
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        dp.best_cuts(loglik, np.full(3, 3.0), domains)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="lambda must be positive"):
            dp.best_cuts(np.zeros((3, 10)), np.array([3.0, bad, 3.0]), domains)


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
    for _ in range(1000):
        n_seg = int(rng.integers(1, 5))
        t_total = int(rng.integers(1 if n_seg == 1 else 2, 11))
        lam = rng.uniform(0.5, 8.0, size=n_seg)
        loglik = rng.standard_normal((n_seg, t_total))
        # ranges inside [0, T-2], sorted or in any order; they may overlap
        # or leave no legal cut vector
        los = rng.integers(0, t_total - 1, size=n_seg - 1)
        his = rng.integers(0, t_total - 1, size=n_seg - 1)
        if rng.random() < 0.5:
            los, his = np.sort(los), np.sort(his)
        his = np.maximum(his, los)
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
        n_seg = int(rng.integers(1, 4))
        # equal-length sequences, some with repeated labels
        sequences = [[classes[i] for i in rng.permutation(3)][:n_seg] for _ in range(3)]
        actions = sequences[0]
        trans = rng.random((6, 6))
        np.fill_diagonal(trans, 0.0)
        trans[actions[0], actions[-1]] = 0.0  # some sequences carry a -inf transition
        params = hmm.HmmParams(trans / trans.sum(axis=1, keepdims=True),
                               rng.uniform(2.0, 20.0, 6), np.full(6, 0.5))
        loglik = rng.standard_normal((3, t_total))  # rows follow the sorted classes
        domains = tuple((k, t_total - 1 - (n_seg - 1 - k)) for k in range(n_seg - 1))
        results = dp.best_segmentation(sequences, loglik, classes, params, domains)
        assert len(results) == len(sequences)
        for seq, (seg, score) in zip(sequences, results):
            assert seg.actions == tuple(seq) and seg.num_frames == t_total
            assert score == pytest.approx(oracle.score_segmentation(
                seg.actions, seg.lengths, loglik, classes, params), abs=1e-9)
            alone = dp.best_segmentation([seq], loglik, classes, params, domains)
            assert alone == [(seg, score)]
