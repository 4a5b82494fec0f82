import tracemalloc

import numpy as np
import pytest

from acvseg import data, hmm, scorer, training
from acvseg.core import ActionSet, validate_segmentation
from acvseg.data import SynthSpec
from acvseg.training import TrainConfig


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    spec = SynthSpec(n_classes=3, n_videos=6, frames_range=(30, 50),
                     feature_dim=8, separation=3.0, noise=0.5,
                     set_size_range=(2, 3), full_set_fraction=0.5, seed=0)
    _, eval_manifest = data.synth_generate(spec, root)
    vocab, videos = training.load_corpus(eval_manifest, with_labels=True)
    return vocab, videos


def fresh_params(videos, seed=0):
    hp = hmm.init_params([v.features.num_frames for v in videos],
                         [v.action_set for v in videos], 3, l_min=8.0)
    mlp = scorer.MlpParams.init(8, 3, n_hidden=6, seed=seed)
    return hp, mlp


def small_cfg(**overrides):
    base = dict(iters=10, lr=0.05, lr_drop_at=10 ** 9, alpha=0.6, beta=0.4,
                tau=8, seed=0, log_every=10 ** 9)
    base.update(overrides)
    return TrainConfig(**base)


class TestLoadCorpus:
    def test_attaches_features_sets_and_labels(self, corpus):
        vocab, videos = corpus
        assert len(videos) == 6
        for v in videos:
            assert v.features.dim == 8
            assert v.gt_labels is not None
            assert v.gt_labels.num_frames == v.features.num_frames
            assert set(int(c) for c in v.gt_labels.labels) == set(v.action_set)

    def test_labels_skipped_unless_requested(self, corpus, tmp_path):
        spec = SynthSpec(n_classes=3, n_videos=2, frames_range=(20, 25),
                         feature_dim=4, seed=2)
        _, eval_manifest = data.synth_generate(spec, tmp_path)
        _, videos = training.load_corpus(eval_manifest, with_labels=False)
        assert all(v.gt_labels is None for v in videos)

    def test_feature_dim_mismatch_rejected(self, tmp_path):
        vocab = data.Vocabulary(["a", "b"])
        data.write_features(tmp_path / "v0.npy", np.zeros((4, 3)))
        data.write_features(tmp_path / "v1.npy", np.zeros((4, 2)))
        records = [data.VideoRecord("v0", "v0.npy", ("a",)),
                   data.VideoRecord("v1", "v1.npy", ("b",))]
        data.write_manifest(tmp_path / "m.txt", vocab, records)
        with pytest.raises(ValueError):
            training.load_corpus(tmp_path / "m.txt")

    def test_label_length_mismatch_rejected(self, tmp_path):
        vocab = data.Vocabulary(["a"])
        data.write_features(tmp_path / "v0.npy", np.zeros((4, 2)))
        data.write_labels(tmp_path / "l0.txt", [0, 0, 0], vocab)
        records = [data.VideoRecord("v0", "v0.npy", ("a",), "l0.txt")]
        data.write_manifest(tmp_path / "m.txt", vocab, records)
        with pytest.raises(ValueError):
            training.load_corpus(tmp_path / "m.txt", with_labels=True)


class TestTrainConfig:
    def test_learning_rate_schedule(self):
        cfg = TrainConfig(lr=0.01, lr_drop_at=100, lr_after=0.001)
        assert cfg.lr_at(0) == 0.01
        assert cfg.lr_at(99) == 0.01
        assert cfg.lr_at(100) == 0.001
        assert cfg.lr_at(5000) == 0.001

    @pytest.mark.parametrize("field, value", [
        ("iters", -1), ("alpha", float("inf")), ("tau", -1), ("lr", float("nan")),
        ("lr_after", float("-inf")), ("beta", float("nan")), ("log_every", 0)])
    def test_bad_field_rejected_when_built(self, field, value):
        with pytest.raises(ValueError, match="^%s must be" % field):
            TrainConfig(**{field: value})


class TestPseudoGroundTruth:
    def test_output_is_a_valid_covering(self, corpus):
        _, videos = corpus
        hp, mlp = fresh_params(videos)
        cfg = small_cfg()
        for video in videos:
            scores = scorer.forward(mlp, video.features)
            seg, anchors, score = training.pseudo_ground_truth(hp, scores, video.action_set, cfg)
            assert validate_segmentation(seg, video.features.num_frames,
                                         video.action_set)
            assert np.isfinite(score)
            assert len(anchors) == len(video.action_set)

    def test_deterministic(self, corpus):
        _, videos = corpus
        hp, mlp = fresh_params(videos)
        cfg = small_cfg()
        video = videos[0]
        a, b = (training.pseudo_ground_truth(hp, scorer.forward(mlp, video.features),
                                             video.action_set, cfg) for _ in range(2))
        assert a[0] == b[0] and a[2] == b[2]


class TestLossAndGrads:
    def test_terms_and_shapes(self, corpus):
        _, videos = corpus
        hp, mlp = fresh_params(videos)
        video = next(v for v in videos if len(v.action_set) > 1)
        cfg = small_cfg()
        seg, _, _ = training.pseudo_ground_truth(hp, scorer.forward(mlp, video.features),
                                                 video.action_set, cfg)
        pseudo = training.expand_segmentation(seg)
        total, ce, div, grads = training.loss_and_grads(
            mlp, scorer.forward(mlp, video.features), video.action_set,
            pseudo, cfg.tau, cfg.beta)
        assert np.isfinite(total) and ce >= 0.0 and 0.0 <= div <= 1.0
        assert total == pytest.approx(ce + cfg.beta * div)
        for name in ("W1", "b1", "W2", "b2"):
            assert grads[name].shape == getattr(mlp, name).shape

    def test_beta_zero_drops_diversity(self, corpus):
        _, videos = corpus
        hp, mlp = fresh_params(videos)
        video = videos[0]
        pseudo = np.array([int(min(video.action_set))] * video.features.num_frames)
        total, ce, div, _ = training.loss_and_grads(
            mlp, scorer.forward(mlp, video.features), video.action_set, pseudo, 8, 0.0)
        assert div == 0.0 and total == ce

    def test_peak_allocation_stays_near_two_hidden_layers(self):
        t_total, n_hidden = 1200, scorer.N_HIDDEN
        rng = np.random.default_rng(6)
        x = rng.standard_normal((t_total, 32))
        mlp = scorer.MlpParams.init(32, 7, n_hidden=n_hidden, seed=6)
        aset = ActionSet([0, 2, 5])
        pseudo = rng.choice([0, 2, 5], size=t_total)
        training.loss_and_grads(mlp, scorer.forward(mlp, x), aset, pseudo, 15, 0.4)
        tracemalloc.start()
        try:
            # the forward pass is measured too: its result holds one hidden layer
            training.loss_and_grads(mlp, scorer.forward(mlp, x), aset, pseudo, 15, 0.4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n_hidden * t_total * 8


class TestTrain:
    def test_one_forward_per_iteration(self, corpus, monkeypatch):
        _, videos = corpus
        hp, mlp = fresh_params(videos)
        calls = []
        forward = scorer.forward

        def counted(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(scorer, "forward", counted)
        training.train(videos, hp, mlp, small_cfg(iters=7))
        assert len(calls) == 7

    def test_features_are_cast_once_per_video(self, corpus, monkeypatch):
        _, videos = corpus
        hp, mlp = fresh_params(videos)
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
        training.train(videos, hp, mlp, small_cfg(iters=20))
        assert [id(x) for x in cast] == [id(v.features) for v in videos]
        assert seen == [np.float32] * 20

    @pytest.mark.parametrize("lr, drop_at, message", [
        (1e308, 10 ** 9, "lr 1e+308: non-finite logits"),
        (1e30, 10 ** 9, "lr 1e+30: non-finite logits"),
        # the step size in use when the scorer overflows, after the drop
        (0.01, 0, "lr 1e+30: non-finite logits")])
    def test_overflowing_step_size_is_named(self, corpus, lr, drop_at, message):
        _, videos = corpus
        hp, mlp = fresh_params(videos)
        cfg = small_cfg(lr=lr, lr_drop_at=drop_at, lr_after=1e30)
        with pytest.raises(ValueError) as err:
            training.train(videos, hp, mlp, cfg)
        assert str(err.value) == message

    def test_deterministic_under_seed(self, corpus):
        _, videos = corpus
        hp, mlp = fresh_params(videos)
        out1 = training.train(videos, hp, mlp, small_cfg())
        out2 = training.train(videos, hp, mlp, small_cfg())
        assert np.array_equal(out1[0].transitions, out2[0].transitions)
        assert np.array_equal(out1[0].lambdas, out2[0].lambdas)
        assert np.array_equal(out1[1].W1, out2[1].W1)
        assert np.array_equal(out1[1].b2, out2[1].b2)

    def test_inputs_not_mutated_and_params_move(self, corpus):
        _, videos = corpus
        hp, mlp = fresh_params(videos)
        lam_before = hp.lambdas.copy()
        w1_before = mlp.W1.copy()
        new_hp, new_mlp, iterations = training.train(videos, hp, mlp, small_cfg())
        assert np.array_equal(hp.lambdas, lam_before)
        assert np.array_equal(mlp.W1, w1_before)
        assert not np.array_equal(new_hp.lambdas, lam_before)
        assert not np.array_equal(new_mlp.W1, w1_before)
        assert iterations == 10
        new_hp.check()

    @pytest.mark.parametrize("iters", [0, 3])
    def test_iterations_count_from_start_iter(self, corpus, iters):
        _, videos = corpus
        hp, mlp = fresh_params(videos)
        _, _, iterations = training.train(videos, hp, mlp, small_cfg(iters=iters),
                                          start_iter=5)
        assert iterations == 5 + iters

    def test_split_run_matches_single_run(self, corpus):
        # 10 iterations straight vs 5 + resume-from-5: bit-identical params
        _, videos = corpus
        hp, mlp = fresh_params(videos)
        one_hp, one_mlp, _ = training.train(videos, hp, mlp, small_cfg(iters=10))
        mid_hp, mid_mlp, _ = training.train(videos, hp, mlp, small_cfg(iters=5))
        two_hp, two_mlp, _ = training.train(videos, mid_hp, mid_mlp,
                                            small_cfg(iters=5), start_iter=5)
        assert np.array_equal(one_hp.transitions, two_hp.transitions)
        assert np.array_equal(one_hp.lambdas, two_hp.lambdas)
        assert np.array_equal(one_hp.priors, two_hp.priors)
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(one_mlp, name), getattr(two_mlp, name))

    def test_checkpoint_file_round_trip_resumes_identically(self, corpus, tmp_path):
        vocab, videos = corpus
        hp, mlp = fresh_params(videos)
        one_hp, one_mlp, _ = training.train(videos, hp, mlp, small_cfg(iters=8))
        mid_hp, mid_mlp, _ = training.train(videos, hp, mlp, small_cfg(iters=4))
        path = tmp_path / "ckpt.txt"
        data.write_checkpoint(path, vocab, mid_hp, mid_mlp, iteration=4)
        _, hp_r, mlp_r, it = data.read_checkpoint(path)
        two_hp, two_mlp, _ = training.train(videos, hp_r, mlp_r,
                                            small_cfg(iters=4), start_iter=it)
        assert np.array_equal(one_hp.lambdas, two_hp.lambdas)
        assert np.array_equal(one_hp.transitions, two_hp.transitions)
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(one_mlp, name), getattr(two_mlp, name))

    def test_empty_corpus_rejected(self, corpus):
        _, videos = corpus
        hp, mlp = fresh_params(videos)
        with pytest.raises(ValueError):
            training.train([], hp, mlp, small_cfg())

    def test_negative_iters_rejected_before_any_work(self, corpus, monkeypatch):
        _, videos = corpus
        hp, mlp = fresh_params(videos)
        monkeypatch.setattr(scorer, "forward", lambda *a, **k: pytest.fail("forward ran"))
        with pytest.raises(ValueError, match="iters must be >= 0, got -5"):
            training.train(videos, hp, mlp, small_cfg(iters=-5))

    def test_logging_hook(self, corpus):
        _, videos = corpus
        hp, mlp = fresh_params(videos)
        lines = []
        training.train(videos, hp, mlp, small_cfg(iters=6, log_every=3), log=lines.append)
        assert len(lines) == 2
        assert all("ce" in line and "anchor_iod" in line for line in lines)


class TestProbe:
    def test_probe_anchor_iod_in_range_and_deterministic(self, corpus):
        _, videos = corpus
        hp, mlp = fresh_params(videos)
        cfg = small_cfg()
        probe = [v for v in videos if v.gt_labels is not None][:3]
        a = training.probe_anchor_iod(mlp, hp, probe, cfg)
        b = training.probe_anchor_iod(mlp, hp, probe, cfg)
        assert 0.0 <= a <= 1.0
        assert a == b
