import tracemalloc

import numpy as np
import pytest
from scipy.special import expit, logsumexp

from acvseg import scorer
from acvseg.core import ActionSet, FrameFeatures, FrameLabeling


def zero_params(dim=3, n_classes=2, n_hidden=4):
    return scorer.MlpParams(np.zeros((n_hidden, dim)), np.zeros(n_hidden),
                            np.zeros((n_classes, n_hidden)), np.zeros(n_classes))


def naive_forward(p, values):
    """Independent per-element recomputation of the two-layer scorer."""
    T = values.shape[0]
    n_c = p.W2.shape[0]
    logits = np.empty((n_c, T))
    for t in range(T):
        h = [max(0.0, sum(p.W1[j, d] * values[t, d] for d in range(values.shape[1]))
                 + p.b1[j]) for j in range(p.W1.shape[0])]
        for c in range(n_c):
            logits[c, t] = sum(p.W2[c, j] * h[j] for j in range(len(h))) + p.b2[c]
    sig = 1.0 / (1.0 + np.exp(-logits))
    soft = np.exp(logits - logits.max(axis=0))
    soft /= soft.sum(axis=0)
    return logits, sig, soft


def eager_forward(params, x):
    """forward as it was before its readings were computed on first read:
    (x, hidden, logits, log_sigmoid, log_softmax), all at once."""
    x = np.asarray(getattr(x, "values", x), dtype=np.float64)
    h = params.W1 @ x.T
    h += params.b1[:, None]
    np.maximum(h, 0.0, out=h)
    logits = params.W2 @ h + params.b2[:, None]
    return (x, h, logits, -np.logaddexp(0.0, -logits),
            logits - logsumexp(logits, axis=0, keepdims=True))


class TestForward:
    def test_equals_the_eager_twin_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            dim, n_classes = (int(v) for v in rng.integers(1, 9, size=2))
            p = scorer.MlpParams.init(dim, n_classes, n_hidden=int(rng.integers(1, 40)),
                                      seed=trial)
            values = 3.0 * rng.standard_normal((int(rng.integers(1, 80)), dim))
            out = scorer.forward(p, FrameFeatures(values))
            for got, want in zip((out.x, out.hidden, out.logits, out.log_sigmoid,
                                  out.log_softmax), eager_forward(p, values)):
                np.testing.assert_array_equal(got, want)

    def test_readings_are_computed_only_when_read(self, monkeypatch):
        p = scorer.MlpParams.init(4, 3, n_hidden=6, seed=5)
        x = np.random.default_rng(5).random((9, 4))

        def unread(*args, **kwargs):
            pytest.fail("a reading was computed")

        with monkeypatch.context() as m:
            m.setattr(scorer, "logsumexp", unread)
            m.setattr(np, "logaddexp", unread)
            out = scorer.forward(p, x)
            scorer.mil_loss_and_grads(p, x, ActionSet([1]))
        assert "log_sigmoid" not in vars(out) and "log_softmax" not in vars(out)
        assert out.log_softmax.shape == (3, 9) and "log_sigmoid" not in vars(out)
        assert out.log_sigmoid.shape == (3, 9) and "log_sigmoid" in vars(out)

    def test_a_second_read_returns_the_same_array(self):
        p = scorer.MlpParams.init(4, 3, n_hidden=6, seed=6)
        out = scorer.forward(p, np.random.default_rng(6).random((9, 4)))
        assert out.log_sigmoid is out.log_sigmoid
        assert out.log_softmax is out.log_softmax

    def test_all_zero_params_give_coin_flip_scores(self):
        x = FrameFeatures(np.random.default_rng(0).random((5, 3)))
        out = scorer.forward(zero_params(), x)
        np.testing.assert_allclose(expit(out.logits), 0.5, atol=1e-12)
        np.testing.assert_allclose(np.exp(out.log_softmax), 0.5, atol=1e-12)

    def test_shared_bias_shift_changes_sigmoid_not_softmax(self):
        rng = np.random.default_rng(1)
        p = scorer.MlpParams.init(3, 2, n_hidden=4, seed=1)
        x = FrameFeatures(rng.random((6, 3)))
        base = scorer.forward(p, x)
        shifted = p.copy()
        shifted.b2 += 1.5
        out = scorer.forward(shifted, x)
        assert np.all(np.abs(expit(out.logits) - expit(base.logits)) > 1e-6)
        np.testing.assert_allclose(out.log_softmax, base.log_softmax, atol=1e-9)

    def test_matches_per_element_recomputation(self):
        rng = np.random.default_rng(2)
        p = scorer.MlpParams.init(3, 2, n_hidden=5, seed=2)
        values = rng.standard_normal((4, 3))
        out = scorer.forward(p, FrameFeatures(values))
        logits, sig, soft = naive_forward(p, values)
        np.testing.assert_allclose(out.logits, logits, atol=1e-12)
        np.testing.assert_allclose(expit(out.logits), sig, atol=1e-12)
        np.testing.assert_allclose(np.exp(out.log_softmax), soft, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        p = scorer.MlpParams.init(3, 2, n_hidden=4, seed=0)
        with pytest.raises(ValueError):
            scorer.forward(p, FrameFeatures(np.zeros((4, 5))))

    def test_softmax_columns_normalized(self):
        p = scorer.MlpParams.init(4, 3, n_hidden=6, seed=3)
        out = scorer.forward(p, FrameFeatures(np.random.default_rng(3).random((7, 4))))
        np.testing.assert_allclose(np.exp(out.log_softmax).sum(axis=0), 1.0, atol=1e-9)


# unit roundoff of float32: each cast or product-and-add rounds by at most
# this much relative, so a sum of n rounded terms is within n * U32 of its
# exact value times the sum of the magnitudes (the standard gamma_n bound)
U32 = 2.0 ** -24


def eager_forward32(params, x):
    """forward's float32 path written out: (x, hidden, logits), the products
    on float32 casts of x, W1, b1 and W2, the logits widened before b2."""
    x = np.asarray(x, dtype=np.float32)
    h = params.W1.astype(np.float32) @ x.T + params.b1.astype(np.float32)[:, None]
    h = np.maximum(h, np.float32(0.0))
    logits = (params.W2.astype(np.float32) @ h).astype(np.float64) + params.b2[:, None]
    return x, h, logits


def random_scorer_case(rng, trial):
    dim, n_classes = int(rng.integers(1, 65)), int(rng.integers(1, 9))
    p = scorer.MlpParams.init(dim, n_classes, n_hidden=int(rng.integers(1, 257)), seed=trial)
    p.b1[:] = 0.1 * rng.standard_normal(p.n_hidden)
    p.b2[:] = rng.standard_normal(n_classes)
    return p, 3.0 * rng.standard_normal((int(rng.integers(1, 300)), dim))


class TestFloat32Forward:
    def test_equals_the_float32_eager_twin_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            p, values = random_scorer_case(rng, trial)
            out = scorer.forward(p, scorer.gemm_input(FrameFeatures(values)))
            assert out.x.dtype == out.hidden.dtype == np.float32
            for got, want in zip((out.x, out.hidden, out.logits), eager_forward32(p, values)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_logits_are_float64_within_the_float32_rounding_bound(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            p, values = random_scorer_case(rng, trial)
            ref = scorer.forward(p, values)
            out = scorer.forward(p, scorer.gemm_input(values))
            assert out.logits.dtype == np.float64
            # casts, a dim-term and an n_hidden-term sum, and the bias adds
            n = p.dim + p.n_hidden + 5
            scale = np.abs(p.W2) @ (np.abs(p.W1) @ np.abs(values).T
                                    + np.abs(p.b1)[:, None]) + np.abs(p.b2)[:, None]
            assert np.all(np.abs(out.logits - ref.logits) <= n * U32 * scale)

    def test_backward_returns_float64_within_the_float32_rounding_bound(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            p, values = random_scorer_case(rng, trial)
            out = scorer.forward(p, scorer.gemm_input(values))
            d_logits = rng.standard_normal(out.logits.shape)
            got = scorer.backward(p, out.x, out.hidden, d_logits)
            # the same inputs widened, so only backward's own rounding differs
            x64, h64 = out.x.astype(np.float64), out.hidden.astype(np.float64)
            want = scorer.backward(p, x64, h64, d_logits)
            abs_dz1 = (np.abs(p.W2).T @ np.abs(d_logits)) * (h64 > 0.0)
            scale = {"W1": abs_dz1 @ np.abs(x64), "b1": abs_dz1.sum(axis=1),
                     "W2": np.abs(d_logits) @ h64.T, "b2": np.zeros(p.n_classes)}
            # casts plus the longest sum: over frames after one over classes
            n = x64.shape[0] + p.n_classes + 5
            for name in ("W1", "b1", "W2", "b2"):
                assert got[name].dtype == np.float64
                assert np.all(np.abs(got[name] - want[name]) <= n * U32 * scale[name])

    def test_other_input_dtypes_compute_in_float64(self):
        p = scorer.MlpParams.init(3, 2, n_hidden=5, seed=4)
        values = np.arange(12).reshape(4, 3)
        ref = scorer.forward(p, values.astype(np.float64))
        for x in (values, values.astype(np.float16), values.tolist()):
            out = scorer.forward(p, x)
            assert out.x.dtype == out.hidden.dtype == np.float64
            np.testing.assert_array_equal(out.logits, ref.logits)

    def test_features_beyond_the_float32_range_are_an_error(self):
        # finite in float64, so FrameFeatures accepts them
        x = FrameFeatures(np.array([[1.0, 2.0], [-1e39, 0.0]]))
        with pytest.raises(ValueError, match="^features exceed the float32 range$"):
            scorer.gemm_input(x)

    @pytest.mark.parametrize("cast", [np.asarray, scorer.gemm_input])
    def test_overflowing_logits_are_an_error_without_a_warning(self, cast):
        # pytest turns any RuntimeWarning into an error (pyproject.toml)
        p = scorer.MlpParams.init(3, 2, n_hidden=5, seed=5)
        p.W1 *= 1e300
        p.W2 *= 1e300
        x = cast(np.random.default_rng(5).standard_normal((6, 3)))
        with pytest.raises(scorer.NonFiniteError, match="^non-finite logits$"):
            scorer.forward(p, x)


class TestCrossEntropy:
    def test_confident_correct_single_class_is_free(self):
        class Fake:
            log_softmax = np.zeros((1, 4))

        loss, _ = scorer.cross_entropy_loss(Fake(), FrameLabeling(np.zeros(4, dtype=int)))
        assert loss < 1e-9

    def test_uniform_two_class_value(self):
        p = zero_params(dim=2, n_classes=2)
        out = scorer.forward(p, FrameFeatures(np.ones((5, 2))))
        loss, _ = scorer.cross_entropy_loss(out, FrameLabeling(np.zeros(5, dtype=int)))
        np.testing.assert_allclose(loss, 2.0 * np.log(2.0), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        p = scorer.MlpParams.init(3, 3, n_hidden=4, seed=4)
        values = rng.standard_normal((6, 3))
        labels = FrameLabeling(rng.integers(0, 3, size=6))

        def loss_at(params):
            out = scorer.forward(params, FrameFeatures(values))
            return scorer.cross_entropy_loss(out, labels)[0]

        out = scorer.forward(p, FrameFeatures(values))
        _, d_logits = scorer.cross_entropy_loss(out, labels)
        grads = scorer.backward(p, out.x, out.hidden, d_logits)
        assert max_fd_error(p, grads, loss_at) < 1e-4


def max_fd_error(params, grads, loss_at, step=1e-5):
    worst = 0.0
    for name in ("W1", "b1", "W2", "b2"):
        g = grads[name]
        arr = getattr(params, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = params.copy()
            getattr(plus, name)[idx] += step
            minus = params.copy()
            getattr(minus, name)[idx] -= step
            fd = (loss_at(plus) - loss_at(minus)) / (2 * step)
            denom = max(abs(fd), abs(g[idx]), 1e-8)
            worst = max(worst, abs(fd - g[idx]) / denom)
    return worst


class TestDiversity:
    def test_identical_rows_fully_correlated(self):
        s = np.vstack([np.array([1.0, 2.0, 0.5]), np.array([1.0, 2.0, 0.5])])
        loss, _ = scorer.diversity_loss(s)
        np.testing.assert_allclose(loss, 1.0, atol=1e-12)

    def test_orthogonal_rows_uncorrelated(self):
        s = np.array([[1.0, 0.0], [0.0, 2.0]])
        loss, _ = scorer.diversity_loss(s)
        np.testing.assert_allclose(loss, 0.0, atol=1e-12)

    def test_single_row_defined_as_zero(self):
        loss, grad = scorer.diversity_loss(np.array([[3.0, 1.0]]))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_loss_stays_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            s = rng.random((m, 10))
            loss, _ = scorer.diversity_loss(s)
            assert 0.0 <= loss <= 1.0 + 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        s = rng.random((3, 6)) + 0.1
        _, grad = scorer.diversity_loss(s)
        step = 1e-6
        for idx in np.ndindex(s.shape):
            plus = s.copy()
            plus[idx] += step
            minus = s.copy()
            minus[idx] -= step
            fd = (scorer.diversity_loss(plus)[0] - scorer.diversity_loss(minus)[0]) / (2 * step)
            assert abs(fd - grad[idx]) < 1e-6


def grads_like(p, fill=0.0):
    return {"W1": np.full_like(p.W1, fill), "b1": np.full_like(p.b1, fill),
            "W2": np.full_like(p.W2, fill), "b2": np.full_like(p.b2, fill)}


class TestSgdStep:
    def test_zero_gradient_keeps_params(self):
        p = scorer.MlpParams.init(2, 2, n_hidden=3, seed=0)
        q = scorer.sgd_step(p, grads_like(p), 0.5)
        for name in ("W1", "b1", "W2", "b2"):
            np.testing.assert_array_equal(getattr(q, name), getattr(p, name))

    def test_unit_rate_with_self_gradient_zeroes_params(self):
        p = scorer.MlpParams.init(2, 2, n_hidden=3, seed=1)
        g = {"W1": p.W1, "b1": p.b1, "W2": p.W2, "b2": p.b2}
        q = scorer.sgd_step(p, g, 1.0)
        for name in ("W1", "b1", "W2", "b2"):
            np.testing.assert_allclose(getattr(q, name), 0.0, atol=1e-12)

    def test_step_decreases_convex_objective(self):
        p = zero_params(dim=1, n_classes=1, n_hidden=1)
        p.W1[:] = 3.0

        def value(params):
            return float((params.W1[0, 0] - 1.0) ** 2)

        g = grads_like(p)
        g["W1"][0, 0] = 2 * (p.W1[0, 0] - 1.0)
        q = scorer.sgd_step(p, g, 0.1)
        assert value(q) < value(p)

    def test_overflowing_step_rejected_without_a_warning(self):
        p = scorer.MlpParams.init(2, 2, n_hidden=3, seed=2)
        with pytest.raises(scorer.NonFiniteError, match="^the step overflows W1$"):
            scorer.sgd_step(p, grads_like(p, 10.0), 1e308)

    def test_non_finite_gradient_rejected(self):
        p = scorer.MlpParams.init(2, 2, n_hidden=3, seed=2)
        g = grads_like(p)
        g["W1"][0, 0] = np.nan
        with pytest.raises(ValueError):
            scorer.sgd_step(p, g, 0.1)


def tiny_mil_corpus(seed=0, n_videos=12, noise=0.3):
    rng = np.random.default_rng(seed)
    corpus = []
    means = 3.0 * np.eye(2, 4)
    for _ in range(n_videos):
        present = int(rng.integers(2))
        frames = means[present] + noise * rng.standard_normal((12, 4))
        corpus.append((FrameFeatures(frames), ActionSet([present])))
    return corpus


class TestMilPretrain:
    def test_video_level_accuracy_on_separable_corpus(self):
        corpus = tiny_mil_corpus()
        held_out = tiny_mil_corpus(seed=99)
        p = scorer.MlpParams.init(4, 2, n_hidden=16, seed=0)
        p = scorer.mil_pretrain(p, corpus, epochs=200, lr=0.05, seed=0)
        correct = 0
        for x, aset in held_out:
            pooled = expit(scorer.forward(p, x).logits).max(axis=1)
            correct += np.array_equal(np.flatnonzero(pooled > 0.5), aset.as_array())
        assert correct / len(held_out) >= 0.95

    def test_loss_strictly_decreases_early(self):
        corpus = tiny_mil_corpus(n_videos=1)
        p = scorer.MlpParams.init(4, 2, n_hidden=8, seed=1)
        losses = []
        for _ in range(10):
            losses.append(scorer.mil_loss_and_grads(p, *corpus[0])[0])
            p = scorer.mil_pretrain(p, corpus, epochs=1, lr=0.01, seed=0)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_zero_epochs_is_identity(self):
        corpus = tiny_mil_corpus()
        p = scorer.MlpParams.init(4, 2, n_hidden=8, seed=2)
        q = scorer.mil_pretrain(p, corpus, epochs=0, lr=0.1, seed=0)
        for name in ("W1", "b1", "W2", "b2"):
            np.testing.assert_array_equal(getattr(q, name), getattr(p, name))

    def test_features_are_cast_once_per_video(self, monkeypatch):
        corpus = tiny_mil_corpus()
        cast, seen = [], []
        gemm_input, forward = scorer.gemm_input, scorer.forward

        def spy_cast(features):
            cast.append(features)
            return gemm_input(features)

        def spy_forward(params, x):
            seen.append(x.dtype)
            return forward(params, x)

        monkeypatch.setattr(scorer, "gemm_input", spy_cast)
        monkeypatch.setattr(scorer, "forward", spy_forward)
        scorer.mil_pretrain(scorer.MlpParams.init(4, 2, n_hidden=8, seed=3), corpus,
                            epochs=5, lr=0.05, seed=7)
        assert [id(x) for x in cast] == [id(x) for x, _ in corpus]
        assert seen == [np.float32] * 5 * len(corpus)

    @pytest.mark.parametrize("lr, message", [
        (1e308, "lr 1e+308: the step overflows W2"),
        (1e30, "lr 1e+30: non-finite logits"),
        (1e20, "lr 1e+20: non-finite logits")])
    def test_overflowing_step_size_is_named(self, lr, message):
        p = scorer.MlpParams.init(4, 2, n_hidden=8, seed=3)
        with pytest.raises(ValueError) as err:
            scorer.mil_pretrain(p, tiny_mil_corpus(), epochs=2, lr=lr, seed=7)
        assert str(err.value) == message

    def test_deterministic_under_seed(self):
        corpus = tiny_mil_corpus()
        p = scorer.MlpParams.init(4, 2, n_hidden=8, seed=3)
        a = scorer.mil_pretrain(p, corpus, epochs=5, lr=0.05, seed=7)
        b = scorer.mil_pretrain(p, corpus, epochs=5, lr=0.05, seed=7)
        for name in ("W1", "b1", "W2", "b2"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class TestMilLossAndGrads:
    def test_pooled_backward_matches_full_backward(self):
        rng = np.random.default_rng(4)
        p = scorer.MlpParams.init(5, 4, n_hidden=16, seed=4)
        x = rng.standard_normal((30, 5))
        aset = ActionSet([1, 3])
        _, grads = scorer.mil_loss_and_grads(p, x, aset)
        scores = scorer.forward(p, x)
        f = expit(scores.logits)
        best_t = f.argmax(axis=1)
        pooled = f[np.arange(4), best_t]
        d_logits = np.zeros_like(f)
        d_logits[np.arange(4), best_t] = (pooled - np.isin(np.arange(4), [1, 3])) / 4
        full = scorer.backward(p, scores.x, scores.hidden, d_logits)
        for name in ("W1", "b1", "W2", "b2"):
            # only the summation order differs
            np.testing.assert_allclose(grads[name], full[name], rtol=1e-12, atol=1e-15)

    def test_equals_the_pooled_reference_from_forward_bit_for_bit(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            p = scorer.MlpParams.init(6, 5, n_hidden=12, seed=trial)
            x = rng.standard_normal((int(rng.integers(1, 60)), 6))
            if trial % 3 == 0:
                x[:, :] = x[0]  # every frame ties
            aset = ActionSet(rng.choice(5, size=int(rng.integers(1, 6)), replace=False))
            loss, grads = scorer.mil_loss_and_grads(p, x, aset)

            scores = scorer.forward(p, x)
            f = expit(scores.logits)
            best_t = f.argmax(axis=1)
            pooled = f[np.arange(5), best_t]
            y = np.isin(np.arange(5), list(aset)).astype(np.float64)
            pc = np.clip(pooled, scorer.EPS, 1.0 - scorer.EPS)
            ref_loss = float(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).mean())
            frames, col = np.unique(best_t, return_inverse=True)
            d_logits = np.zeros((5, frames.shape[0]))
            d_logits[np.arange(5), col] = (pooled - y) / 5
            ref = scorer.backward(p, scores.x[frames], scores.hidden[:, frames], d_logits)
            assert loss == ref_loss
            for name in ("W1", "b1", "W2", "b2"):
                np.testing.assert_array_equal(grads[name], ref[name])

    def test_peak_allocation_stays_near_one_hidden_layer(self):
        t_total, n_hidden = 1200, scorer.N_HIDDEN
        x = np.random.default_rng(5).standard_normal((t_total, 32))
        p = scorer.MlpParams.init(32, 7, n_hidden=n_hidden, seed=5)
        aset = ActionSet([0, 2, 5])
        scorer.mil_loss_and_grads(p, x, aset)
        tracemalloc.start()
        try:
            scorer.mil_loss_and_grads(p, x, aset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n_hidden * t_total * 8
