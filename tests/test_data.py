import dataclasses
import io
import json
import os
import re
import warnings

import numpy as np
import pytest

from acvseg import data, hmm, scorer
from acvseg.core import Segmentation, Vocabulary, validate_segmentation
from acvseg.data import SynthSpec, VideoRecord


def write_npy(path, arr):
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, arr, allow_pickle=True)


def npz_bytes(*arrays):
    with io.BytesIO() as buf:
        np.savez(buf, *arrays)
        return buf.getvalue()


class MakesDirWhenUnpickled:
    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return os.mkdir, (self.path,)


def npy_bytes(arr):
    with io.BytesIO() as buf:
        np.lib.format.write_array(buf, arr, allow_pickle=False)
        return buf.getvalue()


def huge_header_bytes(shape):
    """A float64 .npy header claiming `shape`, far more than can be allocated."""
    with io.BytesIO() as buf:
        np.lib.format.write_array_header_1_0(
            buf, {"descr": "<f8", "fortran_order": False, "shape": shape})
        return buf.getvalue()


class TestFeatures:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "x.npy"
        write_npy(path, np.array([[0.5, -1.0]]))
        feats = data.read_features(path)
        assert feats.values.shape == (1, 2)
        assert feats.values[0, 0] == 0.5 and feats.values[0, 1] == -1.0
        write_npy(path, np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_array_equal(data.read_features(path).values, [[1.0], [2.0], [3.0]])

    def test_row_count_mismatch(self, tmp_path):
        # the header promises 3 rows, the data holds 2
        path = tmp_path / "x.npy"
        path.write_bytes(npy_bytes(np.zeros((3, 4)))[:-4 * 8])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            data.read_features(path)

    def test_width_mismatch(self, tmp_path):
        # the last row stops one value short
        path = tmp_path / "x.npy"
        path.write_bytes(npy_bytes(np.zeros((3, 4)))[:-8])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            data.read_features(path)

    def test_malformed_header(self, tmp_path):
        good = npy_bytes(np.zeros((2, 3)))
        shape = b"(2, 3)"
        assert good.count(shape) == 1
        for i, spoilt in enumerate([good.replace(shape, b"(2, x)"),
                                    good.replace(b"'descr'", b"'dtype'"), good[:20]]):
            path = tmp_path / ("x%d.npy" % i)
            path.write_bytes(spoilt)
            with pytest.raises(ValueError, match=re.escape(str(path))):
                data.read_features(path)

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(20):
            x = rng.standard_normal((int(rng.integers(1, 30)),
                                     int(rng.integers(1, 10))))
            x *= 10.0 ** rng.integers(-8, 8)
            path = tmp_path / ("m%d.npy" % trial)
            data.write_features(path, x)
            back = data.read_features(path).values
            assert np.array_equal(back, x)

    def test_nonfinite_rejected_at_write(self, tmp_path):
        with pytest.raises(ValueError):
            data.write_features(tmp_path / "bad.npy", np.array([[np.nan]]))
        assert not (tmp_path / "bad.npy").exists()

    def test_header_only_rejected_without_warning(self, tmp_path):
        for i, arr in enumerate([np.zeros((0, 3)), np.zeros((2, 2))]):
            path = tmp_path / ("x%d.npy" % i)
            body = npy_bytes(arr)
            path.write_bytes(body[:len(body) - arr.nbytes])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=re.escape(str(path))):
                    data.read_features(path)

    def test_edge_values_round_trip_bit_exact(self, tmp_path):
        x = edge_values().reshape(-1, 8)
        path = tmp_path / "edge.npy"
        data.write_features(path, x)
        assert data.read_features(path).values.tobytes() == x.tobytes()

    def test_float32_is_widened_exactly(self, tmp_path):
        x32 = (np.random.default_rng(4).standard_normal((7, 5)) * 1e3).astype(np.float32)
        x32[0, :4] = [np.finfo(np.float32).tiny, np.finfo(np.float32).max, -0.0, 1e-45]
        for order in ("<", ">"):
            path = tmp_path / ("x%s.npy" % {"<": "le", ">": "be"}[order])
            write_npy(path, x32.astype(order + "f4"))
            back = data.read_features(path).values
            assert back.dtype == np.float64
            assert back.tobytes() == x32.astype(np.float64).tobytes()

    def test_written_bytes_equal_write_array(self, tmp_path):
        x = edge_values().reshape(-1, 16)
        for i, given in enumerate([x, np.asfortranarray(x), x.tolist()]):
            path = tmp_path / ("x%d.npy" % i)
            data.write_features(path, given)
            assert path.read_bytes() == npy_bytes(x)

    def test_object_array_rejected_without_unpickling(self, tmp_path):
        path = tmp_path / "x.npy"
        marker = tmp_path / "unpickled"
        write_npy(path, np.array([[1.0, MakesDirWhenUnpickled(str(marker))]], dtype=object))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            data.read_features(path)
        assert not marker.exists()
        np.load(path, allow_pickle=True)  # the payload does act when unpickled
        assert marker.is_dir()

    @pytest.mark.parametrize("make", [
        lambda path: path.write_bytes(b""),
        lambda path: path.write_text("2 2\n1.0 2.0\n3.0 4.0\n"),
        lambda path: path.write_bytes(npy_bytes(np.zeros((4, 3)))[:-5]),
        lambda path: path.write_bytes(npz_bytes(np.zeros((4, 3)))),
        lambda path: write_npy(path, np.zeros(5)),
        lambda path: write_npy(path, np.zeros((2, 3, 4))),
        lambda path: write_npy(path, np.zeros((4, 3), dtype=complex)),
        lambda path: write_npy(path, np.zeros((4, 3), dtype=np.int64)),
        lambda path: write_npy(path, np.zeros((4, 3), dtype=bool)),
        lambda path: write_npy(path, np.zeros((4, 3), dtype=np.float16)),
        lambda path: write_npy(path, np.zeros((0, 3))),
        lambda path: write_npy(path, np.zeros((4, 0))),
        lambda path: write_npy(path, np.array([[1.0, np.inf]])),
        lambda path: path.write_bytes(huge_header_bytes((10 ** 13, 2)) + bytes(48)),
    ], ids=["empty", "old-text", "truncated", "npz", "1-d", "3-d", "complex", "int", "bool",
            "float16", "zero-rows", "zero-columns", "non-finite", "huge-shape"])
    def test_unreadable_file_rejected_naming_the_path(self, tmp_path, make):
        path = tmp_path / "x.npy"
        make(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                data.read_features(path)
        assert str(err.value).startswith("%s: " % path)
        assert "\n" not in str(err.value)


def edge_values(n_random=54, seed=3):
    """Floats that stress a text round trip: signed zero, the smallest
    subnormal and normal, the largest finite, a classic non-representable
    sum, and random values that need all 17 significant digits."""
    rng = np.random.default_rng(seed)
    fixed = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2, 1.0, -1.0]
    rand = rng.standard_normal(n_random) * 10.0 ** rng.integers(-300, 300, n_random)
    values = np.array(fixed + rand.tolist())
    assert any(float("%.16g" % v) != v for v in rand.tolist())  # 16 digits fall short
    return values


class TestLabels:
    def test_round_trip(self, tmp_path):
        vocab = Vocabulary(["walk", "run"])
        path = tmp_path / "l.txt"
        data.write_labels(path, np.array([0, 0, 1, 0]), vocab)
        back = data.read_labels(path, vocab)
        assert list(back.labels) == [0, 0, 1, 0]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            data.read_labels(path, Vocabulary(["walk"]))

    def test_unknown_name_rejected(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("walk\nfly\n")
        with pytest.raises(ValueError):
            data.read_labels(path, Vocabulary(["walk", "run"]))

    def test_unknown_name_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("walk\n\nrun\n zz \nwalk\n")
        with pytest.raises(ValueError) as err:
            data.read_labels(path, Vocabulary(["walk", "run"]))
        assert str(err.value) == "%s: line 4: unknown action name 'zz'" % path


class TestManifest:
    def make(self, tmp_path, body):
        path = tmp_path / "manifest.txt"
        path.write_text(body)
        return path

    def test_round_trip_and_relative_resolution(self, tmp_path):
        vocab = Vocabulary(["a", "b", "c"])
        records = [VideoRecord("v1", "features/v1.npy", ("a", "c")),
                   VideoRecord("v2", "/abs/v2.npy", ("b",), "labels/v2.txt")]
        path = tmp_path / "manifest.txt"
        data.write_manifest(path, vocab, records)
        vocab2, back = data.read_manifest(path)
        assert vocab2.names == vocab.names
        assert back[0].video_id == "v1"
        assert back[0].features_path == str(tmp_path / "features/v1.npy")
        assert back[0].set_names == ("a", "c")
        assert back[0].labels_path is None
        assert back[1].features_path == "/abs/v2.npy"
        assert back[1].labels_path == str(tmp_path / "labels/v2.txt")

    def test_write_requires_records(self, tmp_path):
        with pytest.raises(ValueError):
            data.write_manifest(tmp_path / "m.txt", Vocabulary(["a"]), [])

    def test_vocab_line_required(self, tmp_path):
        path = self.make(tmp_path, "v1\tfeat.npy\ta\n")
        with pytest.raises(ValueError):
            data.read_manifest(path)

    def test_no_records_rejected(self, tmp_path):
        path = self.make(tmp_path, "vocab\ta b\n")
        with pytest.raises(ValueError):
            data.read_manifest(path)

    def test_unknown_set_name_rejected(self, tmp_path):
        path = self.make(tmp_path, "vocab\ta b\nv1\tfeat.npy\ta z\n")
        with pytest.raises(ValueError):
            data.read_manifest(path)

    def test_duplicate_video_id_rejected(self, tmp_path):
        path = self.make(tmp_path,
                         "vocab\ta b\nv1\tf1.npy\ta\nv1\tf2.npy\tb\n")
        with pytest.raises(ValueError):
            data.read_manifest(path)

    def test_malformed_record_rejected(self, tmp_path):
        path = self.make(tmp_path, "vocab\ta b\nv1\tfeat.npy\n")
        with pytest.raises(ValueError):
            data.read_manifest(path)

    @pytest.mark.parametrize("body, message", [
        ("vocab\t\nv1\tfeat.npy\ta\n", "vocabulary is empty"),
        ("vocab\ta b a\nv1\tfeat.npy\ta\n", "duplicate names in vocabulary"),
        ("vocab\ta b\nv1\tfeat.npy\ta z\n", "video 'v1': unknown action name 'z'"),
        ("vocab\ta b\nv1\tfeat.npy\ta b a\n", "video 'v1': duplicate labels in action set"),
    ], ids=["empty-vocab", "duplicate-vocab", "unknown-name", "repeated-name"])
    def test_vocabulary_and_set_errors_name_the_file(self, tmp_path, body, message):
        path = self.make(tmp_path, body)
        with pytest.raises(ValueError) as err:
            data.read_manifest(path)
        assert str(err.value) == "%s: %s" % (path, message)

    def test_empty_action_set_rejected(self, tmp_path):
        path = self.make(tmp_path, "vocab\ta b\nv1\tfeat.npy\t\n")
        with pytest.raises(ValueError):
            data.read_manifest(path)

    @pytest.mark.parametrize("vid", ["", ".", "..", "../escaped", "sub/v1",
                                     "sub" + os.sep + "v1"],
                             ids=["empty", "dot", "dot-dot", "parent-path", "slash", "os-sep"])
    def test_video_id_that_is_not_a_file_name_rejected(self, tmp_path, vid):
        path = self.make(tmp_path, "vocab\ta b\n%s\tfeat.npy\ta\n" % vid)
        with pytest.raises(ValueError, match=re.escape(
                "%s: video id %r is not a plain file name" % (path, vid))):
            data.read_manifest(path)

    def test_video_id_with_alternative_separator_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "altsep", "\\")
        path = self.make(tmp_path, "vocab\ta b\nsub\\v1\tfeat.npy\ta\n")
        with pytest.raises(ValueError, match="is not a plain file name"):
            data.read_manifest(path)


def small_params(seed=0):
    rng = np.random.default_rng(seed)
    trans = rng.random((3, 3))
    np.fill_diagonal(trans, 0.0)
    trans /= trans.sum(axis=1, keepdims=True)
    hp = hmm.HmmParams(trans, rng.uniform(2, 40, 3), rng.uniform(0.1, 0.9, 3))
    mlp = scorer.MlpParams.init(4, 3, n_hidden=5, seed=seed)
    return Vocabulary(["a", "b", "c"]), hp, mlp


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        vocab, hp, mlp = small_params()
        path = tmp_path / "ckpt.txt"
        data.write_checkpoint(path, vocab, hp, mlp, iteration=17)
        vocab2, hp2, mlp2, it = data.read_checkpoint(path)
        assert it == 17
        assert vocab2.names == vocab.names
        assert np.array_equal(hp2.transitions, hp.transitions)
        assert np.array_equal(hp2.lambdas, hp.lambdas)
        assert np.array_equal(hp2.priors, hp.priors)
        for name in ("W1", "b1", "W2", "b2"):
            assert np.array_equal(getattr(mlp2, name), getattr(mlp, name))

    def test_edge_values_round_trip_bit_exact(self, tmp_path):
        vocab, hp, _ = small_params()
        v = edge_values()
        mlp = scorer.MlpParams(v[:20].reshape(5, 4), v[20:25], v[25:40].reshape(3, 5),
                               v[40:43])
        path = tmp_path / "ckpt.txt"
        data.write_checkpoint(path, vocab, hp, mlp, iteration=0)
        _, _, back, _ = data.read_checkpoint(path)
        for name in ("W1", "b1", "W2", "b2"):
            assert getattr(back, name).tobytes() == getattr(mlp, name).tobytes()

    def test_same_inputs_write_identical_bytes(self, tmp_path):
        vocab, hp, mlp = small_params()
        for name in ("a.ckpt", "b.ckpt"):
            data.write_checkpoint(tmp_path / name, vocab, hp, mlp, iteration=3)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        assert (tmp_path / "a.ckpt").read_bytes() == b"".join(
            npy_bytes(x) for x in checkpoint_records(iteration=np.array(3)))

    def test_object_array_rejected_without_unpickling(self, tmp_path):
        path = tmp_path / "x.ckpt"
        marker = tmp_path / "unpickled"
        payload = np.array([[1.0, MakesDirWhenUnpickled(str(marker))]], dtype=object)
        with open(path, "wb") as fh:
            for x in checkpoint_records(W1=payload):
                np.lib.format.write_array(fh, x, allow_pickle=True)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            data.read_checkpoint(path)
        assert not marker.exists()
        with open(path, "rb") as fh:  # the payload does act when unpickled
            for _ in range(6):
                np.lib.format.read_array(fh, allow_pickle=True)
        assert marker.is_dir()

    @pytest.mark.parametrize("make", [
        lambda: b"",
        lambda: b"[META]\niteration 5\n[HMM]\nvocab a b c\ntransitions 3 3\n",
        lambda: checkpoint_bytes()[:len(npy_bytes(np.array(0))) + 20],
        lambda: checkpoint_bytes()[:-5],
        lambda: checkpoint_bytes() + b"\0",
        lambda: npz_bytes(*checkpoint_records()),
        lambda: npy_bytes(np.zeros((4, 3))),
        lambda: checkpoint_bytes(iteration=np.array(5.0)),
        lambda: checkpoint_bytes(iteration=np.array(-5)),
        lambda: checkpoint_bytes(transitions=small_params()[1].transitions.astype(np.float32)),
        lambda: checkpoint_bytes(W1=small_params()[2].W1.ravel()),
        lambda: checkpoint_bytes(transitions=small_params()[1].transitions[:, :2]),
        lambda: checkpoint_bytes(vocab=np.array([], dtype=str)),
        lambda: checkpoint_bytes(vocab=np.array(["a", "b", "a"])),
        lambda: b"".join(npy_bytes(x) for x in checkpoint_records()[:-1]),
        lambda: b"".join(huge_header_bytes((999999999999, 32)) + x.tobytes() if i == 5
                         else npy_bytes(x) for i, x in enumerate(checkpoint_records())),
        lambda: checkpoint_bytes(lambdas=np.array([np.nan, 5.0, 5.0])),
        lambda: checkpoint_bytes(lambdas=np.array([np.inf, 5.0, 5.0])),
        lambda: checkpoint_bytes(lambdas=np.array([0.5, 5.0, 5.0])),
        lambda: checkpoint_bytes(priors=np.array([1.5, 0.5, 0.5])),
        lambda: checkpoint_bytes(transitions=small_params()[1].transitions * [[0.5], [1], [1]]),
        lambda: checkpoint_bytes(W1=small_params()[2].W1 * [[np.nan], [1], [1], [1], [1]]),
    ], ids=["empty", "old-text", "truncated-header", "truncated-data", "trailing-bytes", "npz",
            "features-npy", "float-iteration", "negative-iteration", "float32-table", "1-d-W1",
            "inconsistent-transitions", "empty-vocabulary", "duplicate-vocabulary",
            "missing-last-record", "huge-shape", "nan-lambda", "inf-lambda",
            "lambda-below-one", "prior-above-one", "half-mass-transition-row", "nan-W1"])
    def test_unreadable_checkpoint_rejected_naming_the_path(self, tmp_path, make):
        path = tmp_path / "x.ckpt"
        path.write_bytes(make())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                data.read_checkpoint(path)
        assert str(err.value).startswith("%s: " % path)
        assert "\n" not in str(err.value)


def corpus_bytes(root):
    blobs = {}
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            full = os.path.join(dirpath, name)
            blobs[os.path.relpath(full, root)] = open(full, "rb").read()
    return blobs


class TestSynthGenerate:
    def test_same_seed_is_byte_identical(self, tmp_path):
        spec = SynthSpec(n_classes=3, n_videos=4, frames_range=(30, 50),
                         feature_dim=6, seed=5)
        data.synth_generate(spec, tmp_path / "a")
        data.synth_generate(spec, tmp_path / "b")
        a, b = corpus_bytes(tmp_path / "a"), corpus_bytes(tmp_path / "b")
        assert a == b

    def test_sweep_respects_spec_ranges(self, tmp_path):
        spec = SynthSpec(n_classes=6, n_videos=40, frames_range=(40, 80),
                         feature_dim=8, set_size_range=(2, 4),
                         full_set_fraction=0.25, seed=9)
        train, evalm = data.synth_generate(spec, tmp_path)
        vocab, records = data.read_manifest(evalm)
        assert len(records) == 40
        n_full = 0
        for rec in records:
            feats = data.read_features(rec.features_path)
            gt = data.read_labels(rec.labels_path, vocab)
            assert 40 <= feats.num_frames <= 80
            assert gt.num_frames == feats.num_frames
            members = rec.action_set(vocab)
            if len(members) == 6:
                n_full += 1
            else:
                assert 2 <= len(members) <= 4
            # hidden labels use exactly the advertised set
            assert set(int(c) for c in gt.labels) == set(members)
            runs = []
            prev = None
            for c in gt.labels:
                if c != prev:
                    runs.append([int(c), 0])
                prev = int(c)
                runs[-1][1] += 1
            seg = Segmentation([r[0] for r in runs], [r[1] for r in runs])
            assert validate_segmentation(seg, feats.num_frames, members)
        assert n_full == 10

    def test_both_manifests_name_npy_features(self, tmp_path):
        spec = SynthSpec(n_classes=3, n_videos=3, frames_range=(20, 30),
                         feature_dim=4, seed=1)
        for manifest in data.synth_generate(spec, tmp_path):
            _, records = data.read_manifest(manifest)
            assert [rec.features_path for rec in records] == [
                str(tmp_path / "features" / ("vid%03d.npy" % v)) for v in range(3)]
            assert "\tfeatures/vid000.npy\t" in open(manifest).read()
        assert sorted(os.listdir(tmp_path / "features")) == [
            "vid000.npy", "vid001.npy", "vid002.npy"]

    def test_train_manifest_hides_labels(self, tmp_path):
        spec = SynthSpec(n_classes=3, n_videos=3, frames_range=(20, 30),
                         feature_dim=4, seed=1)
        train, _ = data.synth_generate(spec, tmp_path)
        _, records = data.read_manifest(train)
        assert all(rec.labels_path is None for rec in records)

    def test_zero_noise_is_nearest_mean_separable(self, tmp_path):
        spec = SynthSpec(n_classes=4, n_videos=3, frames_range=(30, 40),
                         feature_dim=5, separation=3.0, noise=0.0, seed=3)
        _, evalm = data.synth_generate(spec, tmp_path)
        vocab, records = data.read_manifest(evalm)
        means = 3.0 * np.eye(4, 5)
        for rec in records:
            x = data.read_features(rec.features_path).values
            gt = data.read_labels(rec.labels_path, vocab)
            d = ((x[:, None, :] - means[None]) ** 2).sum(axis=2)
            assert np.array_equal(np.argmin(d, axis=1), gt.labels)

    def test_impossible_specs_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            data.synth_generate(SynthSpec(n_classes=8, n_videos=1,
                                          frames_range=(4, 6), feature_dim=8),
                                tmp_path / "a")
        with pytest.raises(ValueError):
            data.synth_generate(SynthSpec(n_classes=5, n_videos=1,
                                          frames_range=(30, 40), feature_dim=3),
                                tmp_path / "b")

    @pytest.mark.parametrize("bad, message", [
        (dict(frames_range=(50, 40)), "frames_range"),
        (dict(set_size_range=(0, 2)), "set_size_range"),
        (dict(set_size_range=(3, 2)), "set_size_range"),
        (dict(full_set_fraction=-0.5), "full_set_fraction"),
        (dict(full_set_fraction=1.5), "full_set_fraction"),
        (dict(n_videos=0), "n_videos must be >= 1, got 0"),
        (dict(n_videos=-2), "n_videos must be >= 1, got -2"),
    ], ids=["frames-reversed", "set-size-zero", "set-size-reversed", "fraction-negative",
            "fraction-above-one", "no-videos", "negative-videos"])
    def test_bad_ranges_rejected_before_writing(self, tmp_path, bad, message):
        spec = dataclasses.replace(SynthSpec(n_classes=4, n_videos=4, frames_range=(30, 40),
                                             feature_dim=5), **bad)
        with pytest.raises(ValueError, match=message):
            data.synth_generate(spec, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_set_size_above_vocabulary_is_capped(self, tmp_path):
        spec = SynthSpec(n_classes=3, n_videos=4, frames_range=(30, 40), feature_dim=4,
                         set_size_range=(4, 6), seed=2)
        _, evalm = data.synth_generate(spec, tmp_path)
        vocab, records = data.read_manifest(evalm)
        assert all(len(rec.action_set(vocab)) == 3 for rec in records)

    def test_read_synth_spec(self, tmp_path):
        raw = {"n_classes": 3, "n_videos": 7, "frames_range": [20, 40],
               "feature_dim": 6, "separation": 2.5, "noise": 0.5,
               "set_size_range": [2, 3], "full_set_fraction": 0.5, "seed": 11}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw))
        spec = data.read_synth_spec(path)
        assert spec.n_videos == 7
        assert spec.frames_range == (20, 40)
        assert spec.set_size_range == (2, 3)
        assert spec.separation == 2.5

    def test_read_synth_spec_round_trips_every_field(self, tmp_path):
        spec = SynthSpec(n_classes=5, n_videos=9, frames_range=(25, 45), feature_dim=7,
                         separation=2.0, noise=0.25, set_size_range=(2, 4),
                         full_set_fraction=0.75, seed=13)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(vars(spec)))
        assert data.read_synth_spec(path) == spec

    @pytest.mark.parametrize("text, message", [
        ('{"n_classes": 3, "n_videos": 2, "bogus": 1}', "unknown spec keys: bogus"),
        ('{"n_classes": 3, "n_videos": 2, "always_present": [0]}',
         "unknown spec keys: always_present"),
        ('{"bogus": 1}', "unknown spec keys: bogus"),
        ("[1, 2]", "JSON object"),
        ('{"n_videos": 2}', "missing spec keys: n_classes"),
        ("{}", "missing spec keys: n_classes, n_videos"),
        ('{"n_classes": "4", "n_videos": 2}', 'n_classes must be an integer, found "4"'),
        ('{"n_classes": 3, "n_videos": 2.5}', "n_videos must be an integer, found 2.5"),
        ('{"n_classes": 3, "n_videos": 2, "seed": true}', "seed must be an integer"),
        ('{"n_classes": 3, "n_videos": 2, "noise": "x"}', "noise must be a finite number"),
        ('{"n_classes": 3, "n_videos": 2, "noise": NaN}', "noise must be a finite number"),
        ('{"n_classes": 3, "n_videos": 2, "frames_range": 5}',
         "frames_range must be a list of two integers, found 5"),
        ('{"n_classes": 3, "n_videos": 2, "set_size_range": [1, 2, 3]}',
         "set_size_range must be a list of two integers"),
        ('{"n_classes": 3, "n_videos": 2, "frames_range": [20.5, 40]}',
         "frames_range must be a list of two integers"),
    ], ids=["unknown", "removed-field", "only-unknown", "list", "missing-one", "empty",
            "string-count", "float-count", "bool-seed", "string-noise", "nan-noise",
            "scalar-range", "three-item-range", "float-in-range"])
    def test_read_synth_spec_rejects_bad_keys(self, tmp_path, text, message):
        path = tmp_path / "spec.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)) as err:
            data.read_synth_spec(path)
        assert str(err.value).startswith(str(path))


def checkpoint_records(**replace):
    """small_params() as the checkpoint's records in file order, with any
    record replaced by name."""
    vocab, hp, mlp = small_params()
    records = {"iteration": np.array(0), "vocab": np.array(vocab.names),
               "transitions": hp.transitions, "lambdas": hp.lambdas, "priors": hp.priors,
               "W1": mlp.W1, "b1": mlp.b1, "W2": mlp.W2, "b2": mlp.b2}
    records.update(replace)
    return list(records.values())


def checkpoint_bytes(**replace):
    return b"".join(npy_bytes(x) for x in checkpoint_records(**replace))
