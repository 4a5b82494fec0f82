import dataclasses
import io
import json
import os
import shutil

import numpy as np
import pytest

from acvseg import acv, cli, data, infer, scorer, training
from acvseg.core import expand_segmentation
from acvseg.rng import fork_rng


# a valid spec for the bad-spec cases to spoil one field of
SMALL_SPEC = {"n_classes": 4, "n_videos": 4, "frames_range": [30, 40], "feature_dim": 5}


def run_cli(argv):
    """Invoke the CLI in-process; returns its exit code."""
    try:
        return cli.main(argv) or 0
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end run shared by the happy-path tests."""
    root = tmp_path_factory.mktemp("cli")
    spec = {"n_classes": 3, "n_videos": 8, "frames_range": [30, 50],
            "feature_dim": 8, "separation": 3.0, "noise": 0.5,
            "set_size_range": [2, 3], "full_set_fraction": 0.5, "seed": 0}
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec))
    corpus = root / "corpus"
    assert run_cli(["synth", "--spec", str(spec_path), "--out", str(corpus)]) == 0
    init = root / "init.ckpt"
    assert run_cli(["pretrain", "--manifest", str(corpus / "manifest.txt"),
                    "--out", str(init), "--epochs", "40", "--lr", "0.05",
                    "--hidden", "8", "--lmin", "8", "--seed", "0"]) == 0
    trained = root / "trained.ckpt"
    assert run_cli(["train", "--manifest", str(corpus / "manifest.txt"),
                    "--init", str(init), "--out", str(trained),
                    "--iters", "40", "--lr", "0.05", "--lr-drop-at", "1000000",
                    "--tau", "8", "--seed", "0"]) == 0
    return root, corpus, init, trained


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        root, corpus, init, trained = pipeline
        assert (corpus / "manifest.txt").exists()
        assert (corpus / "manifest_eval.txt").exists()
        assert init.exists() and trained.exists()
        _, _, _, it = data.read_checkpoint(trained)
        assert it == 40

    def test_segment_align_eval(self, pipeline, capsys):
        root, corpus, init, trained = pipeline
        seg_dir, align_dir = root / "seg", root / "align"
        assert run_cli(["segment", "--manifest", str(corpus / "manifest.txt"),
                        "--ckpt", str(trained), "--k", "50", "--seed", "0",
                        "--out", str(seg_dir)]) == 0
        assert run_cli(["align", "--manifest", str(corpus / "manifest_eval.txt"),
                        "--ckpt", str(trained), "--k", "50", "--seed", "0",
                        "--out", str(align_dir)]) == 0
        for v in range(8):
            assert (seg_dir / ("vid%03d.txt" % v)).exists()
            assert (align_dir / ("vid%03d.txt" % v)).exists()
        capsys.readouterr()
        assert run_cli(["eval", "--pred", str(align_dir),
                        "--gt", str(corpus / "manifest_eval.txt")]) == 0
        out = capsys.readouterr().out
        csv_lines = [l for l in out.splitlines() if "," in l]
        assert csv_lines[0] == "video,mof,iod,midpoint"
        overall = csv_lines[-1].split(",")
        assert overall[0] == "overall"
        values = [float(v) for v in overall[1:]]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_segment_is_reproducible(self, pipeline):
        root, corpus, _, trained = pipeline
        outs = []
        for name in ("rep1", "rep2"):
            out = root / name
            assert run_cli(["segment", "--manifest", str(corpus / "manifest.txt"),
                            "--ckpt", str(trained), "--k", "20", "--seed", "7",
                            "--out", str(out)]) == 0
            outs.append(sorted((out).glob("*.txt")))
        for a, b in zip(*outs):
            assert a.read_bytes() == b.read_bytes()

    def test_predictions_equal_the_api_decode(self, pipeline):
        root, corpus, _, trained = pipeline
        manifest = str(corpus / "manifest.txt")
        vocab, videos = training.load_corpus(manifest)
        _, hmm_params, mlp, _ = data.read_checkpoint(str(trained))
        training_sets = [v.action_set for v in videos]
        for task in ("segment", "align"):
            out = root / ("api_" + task)
            assert run_cli([task, "--manifest", manifest, "--ckpt", str(trained),
                            "--k", "20", "--seed", "3", "--out", str(out)]) == 0
            for video in videos:
                seed = fork_rng(3, task, video.video_id).integers(2 ** 31)
                if task == "segment":
                    seg, _ = infer.segment_video(video.features, training_sets, mlp,
                                                 hmm_params, k=20, seed=seed)
                else:
                    seg, _ = infer.align_video(video.features, video.action_set, mlp,
                                               hmm_params, k=20, seed=seed)
                written = data.read_labels(str(out / (video.video_id + ".txt")), vocab)
                np.testing.assert_array_equal(written.labels,
                                              expand_segmentation(seg).labels)

    def test_segment_with_separate_training_manifest(self, pipeline):
        root, corpus, _, trained = pipeline
        out = root / "seg_src"
        assert run_cli(["segment", "--manifest", str(corpus / "manifest_eval.txt"),
                        "--train-manifest", str(corpus / "manifest.txt"),
                        "--ckpt", str(trained), "--k", "20", "--seed", "0",
                        "--out", str(out)]) == 0
        assert len(list(out.glob("*.txt"))) == 8

    def test_segment_reads_no_training_features(self, pipeline, tmp_path):
        # a manifest copied away from its corpus names feature files that do
        # not exist; segment needs only its action sets
        _, corpus, _, trained = pipeline
        bare = tmp_path / "bare"
        bare.mkdir()
        shutil.copy(corpus / "manifest.txt", bare / "manifest.txt")
        _, records = data.read_manifest(str(bare / "manifest.txt"))
        assert not any(os.path.exists(rec.features_path) for rec in records)
        outs = []
        for source in (corpus, bare):
            out = tmp_path / ("seg_" + source.name)
            assert run_cli(["segment", "--manifest", str(corpus / "manifest_eval.txt"),
                            "--train-manifest", str(source / "manifest.txt"),
                            "--ckpt", str(trained), "--k", "20", "--seed", "4",
                            "--out", str(out)]) == 0
            outs.append({p.name: p.read_bytes() for p in out.glob("*.txt")})
        assert len(outs[0]) == 8 and outs[0] == outs[1]

    def test_eval_on_ground_truth_is_all_ones(self, pipeline, capsys):
        root, corpus, _, _ = pipeline
        pred = root / "gtcopy"
        pred.mkdir(exist_ok=True)
        vocab, records = data.read_manifest(str(corpus / "manifest_eval.txt"))
        for rec in records:
            shutil.copy(rec.labels_path, pred / (rec.video_id + ".txt"))
        capsys.readouterr()
        assert run_cli(["eval", "--pred", str(pred),
                        "--gt", str(corpus / "manifest_eval.txt")]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if line.startswith("overall,"):
                assert line == "overall,1.0000,1.0000,1.0000"
                break
        else:
            pytest.fail("no overall csv row in output")

    def test_train_zero_iters_keeps_init(self, pipeline):
        root, corpus, init, _ = pipeline
        out = root / "noop.ckpt"
        assert run_cli(["train", "--manifest", str(corpus / "manifest.txt"),
                        "--init", str(init), "--out", str(out),
                        "--iters", "0"]) == 0
        assert out.read_bytes() == init.read_bytes()

    def test_train_dump_dir_writes_the_final_models_anchors_and_cuts(self, pipeline,
                                                                     tmp_path):
        _, corpus, _, trained = pipeline
        manifest = str(corpus / "manifest.txt")
        out, dumps = tmp_path / "more.ckpt", tmp_path / "dumps"
        assert run_cli(["train", "--manifest", manifest, "--init", str(trained),
                        "--out", str(out), "--iters", "5", "--lr", "0.05",
                        "--tau", "8", "--seed", "0", "--dump-dir", str(dumps)]) == 0
        _, videos = training.load_corpus(manifest)
        assert sorted(p.name for p in dumps.iterdir()) \
            == sorted(v.video_id + ".txt" for v in videos)
        _, hmm_params, mlp, _ = data.read_checkpoint(str(out))
        cfg = training.TrainConfig(tau=8)
        for video in videos:
            written = (dumps / (video.video_id + ".txt")).read_text()
            lines = written.splitlines()
            cut = lines.index("cuts")
            assert sorted(int(line.split()[0]) for line in lines[1:cut]) \
                == list(video.action_set)
            assert int(lines[cut + 1].split()[-1]) == video.features.num_frames - 1
            scores = scorer.forward(mlp, video.features)
            seg, anchors, _ = training.pseudo_ground_truth(hmm_params, scores,
                                                           video.action_set, cfg)
            expected = tmp_path / "expected.txt"
            acv.write_acv_dump(str(expected), anchors, seg)
            assert written == expected.read_text()


class TestOracleCheck:
    def test_reports_exact_sweep(self, capsys):
        assert run_cli(["oracle-check", "--tmax", "20", "--cmax", "2",
                        "--trials", "25", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "25/25 exact" in out


class TestErrorPaths:
    def test_unknown_flag_exits_2(self):
        assert run_cli(["oracle-check", "--bogus", "1"]) == 2

    def test_unknown_command_exits_2(self):
        assert run_cli(["frobnicate"]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli(["train", "--manifest", str(tmp_path / "nope.txt"),
                        "--init", str(tmp_path / "nope.ckpt"),
                        "--out", str(tmp_path / "out.ckpt")]) == 2

    def test_invalid_numeric_exits_2(self, pipeline):
        root, corpus, init, _ = pipeline
        assert run_cli(["train", "--manifest", str(corpus / "manifest.txt"),
                        "--init", str(init), "--out", str(root / "x.ckpt"),
                        "--iters", "many"]) == 2

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--prune", "on"), ("train", "--prune", "off"),
        ("train", "--lmin", "10"), ("eval", "--metric", "mof"), ("synth", "--seed", "3")],
        ids=["prune-on", "prune-off", "train-lmin", "eval-metric", "synth-seed"])
    def test_removed_flag_is_a_usage_error(self, pipeline, capsys, command, flag, value):
        root, corpus, init, _ = pipeline
        required = {"train": ["--manifest", str(corpus / "manifest.txt"), "--init", str(init),
                              "--out", str(root / "x.ckpt")],
                    "eval": ["--pred", str(root / "seg"),
                             "--gt", str(corpus / "manifest_eval.txt")],
                    "synth": ["--spec", str(root / "spec.json"),
                              "--out", str(root / "synth-seed")]}[command]
        capsys.readouterr()
        assert run_cli([command] + required + [flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "unrecognized arguments: %s" % flag in err

    def test_runtime_error_exits_1(self, pipeline, capsys):
        # the training manifest has no label files, so eval cannot score it
        root, corpus, _, _ = pipeline
        code = run_cli(["eval", "--pred", str(root / "seg"),
                        "--gt", str(corpus / "manifest.txt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_exits_1_with_one_line(self, pipeline, tmp_path, capsys, k):
        _, corpus, _, trained = pipeline
        capsys.readouterr()
        assert run_cli(["align", "--manifest", str(corpus / "manifest_eval.txt"),
                        "--ckpt", str(trained), "--k", k,
                        "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: k must be >= 1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("task", ["segment", "align"])
    def test_uncoverable_last_video_leaves_no_label_file(self, pipeline, tmp_path,
                                                          capsys, task):
        # every set of the corpus has two or more actions, and with every
        # lambda >= 10 none of them fits the 5 frames of the appended video
        _, corpus, init, _ = pipeline
        floored = tmp_path / "floored.ckpt"
        vocab, hmm_params, mlp, iteration = data.read_checkpoint(str(init))
        np.maximum(hmm_params.lambdas, 10.0, out=hmm_params.lambdas)
        data.write_checkpoint(str(floored), vocab, hmm_params, mlp, iteration=iteration)
        vocab, records = data.read_manifest(str(corpus / "manifest_eval.txt"))
        short = tmp_path / "short.npy"
        data.write_features(str(short), np.zeros((5, 8)))
        records.append(data.VideoRecord("zshort", str(short), vocab.names[:2], None))
        manifest = tmp_path / "manifest.txt"
        data.write_manifest(str(manifest), vocab, records)
        out = tmp_path / "pred"
        capsys.readouterr()
        assert run_cli([task, "--manifest", str(manifest), "--ckpt", str(floored),
                        "--k", "5", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: zshort: no sequence can cover the set: ")
        assert not out.exists()

    def test_video_id_outside_out_dir_exits_1_and_writes_nothing(self, pipeline, tmp_path,
                                                                 capsys):
        _, corpus, _, trained = pipeline
        vocab, records = data.read_manifest(str(corpus / "manifest_eval.txt"))
        records.append(data.VideoRecord("../escaped", records[0].features_path,
                                        records[0].set_names, None))
        manifest = tmp_path / "manifest.txt"
        data.write_manifest(str(manifest), vocab, records)
        capsys.readouterr()
        assert run_cli(["align", "--manifest", str(manifest), "--ckpt", str(trained),
                        "--k", "5", "--out", str(tmp_path / "predroot" / "pred")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: %s: video id '../escaped' is not a plain file name\n"
                                % manifest)
        assert not (tmp_path / "predroot").exists()

    @pytest.mark.parametrize("command", ["pretrain", "align"])
    def test_text_feature_file_exits_1_naming_it(self, pipeline, tmp_path, capsys, command):
        # a feature file in the text format of earlier releases: header, then rows
        _, corpus, _, trained = pipeline
        vocab, records = data.read_manifest(str(corpus / "manifest_eval.txt"))
        x = data.read_features(records[0].features_path).values
        old = tmp_path / "old.txt"
        old.write_text("%d %d\n" % x.shape
                       + "".join(" ".join(map(repr, row)) + "\n" for row in x.tolist()))
        records[1] = dataclasses.replace(records[1], features_path=str(old))
        manifest = tmp_path / "manifest.txt"
        data.write_manifest(str(manifest), vocab, records)
        out = tmp_path / "out"
        argv = {"pretrain": ["--epochs", "1"],
                "align": ["--ckpt", str(trained), "--k", "5"]}[command]
        capsys.readouterr()
        assert run_cli([command, "--manifest", str(manifest), "--out", str(out)] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: %s: " % old)
        assert not out.exists()
        assert sorted(os.listdir(tmp_path)) == ["manifest.txt", "old.txt"]

    def test_vocab_mismatch_exits_1(self, pipeline, tmp_path):
        root, corpus, init, _ = pipeline
        other = {"n_classes": 4, "n_videos": 2, "frames_range": [20, 30],
                 "feature_dim": 8, "seed": 1}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(other))
        assert run_cli(["synth", "--spec", str(spec_path),
                        "--out", str(tmp_path / "c2")]) == 0
        assert run_cli(["train", "--manifest", str(tmp_path / "c2" / "manifest.txt"),
                        "--init", str(init), "--out", str(tmp_path / "x.ckpt"),
                        "--iters", "1"]) == 1

    @pytest.mark.parametrize("spec, message", [
        ({"bogus": 1}, "unknown spec keys: bogus"),
        (dict(SMALL_SPEC, always_present=[0]), "unknown spec keys: always_present"),
        ([1, 2], "spec must be a JSON object"),
        ({"n_videos": 4}, "missing spec keys: n_classes"),
        (dict(SMALL_SPEC, set_size_range=[0, 2]), "set_size_range (0, 2) needs 1 <= lo <= hi"),
        (dict(SMALL_SPEC, set_size_range=[3, 2]), "set_size_range (3, 2) needs 1 <= lo <= hi"),
        (dict(SMALL_SPEC, full_set_fraction=-0.5), "full_set_fraction -0.5 lies outside"),
        (dict(SMALL_SPEC, frames_range=[50, 40]), "frames_range (50, 40) needs lo <= hi"),
        (dict(SMALL_SPEC, n_classes="4"), 'n_classes must be an integer, found "4"'),
        (dict(SMALL_SPEC, frames_range=5), "frames_range must be a list of two integers"),
        (dict(SMALL_SPEC, n_videos=2.5), "n_videos must be an integer, found 2.5"),
        (dict(SMALL_SPEC, noise="x"), 'noise must be a finite number, found "x"'),
        (dict(SMALL_SPEC, n_videos=0), "n_videos must be >= 1, got 0"),
        (dict(SMALL_SPEC, n_videos=-2), "n_videos must be >= 1, got -2"),
    ], ids=["unknown-key", "removed-field", "not-an-object", "missing-key", "set-size-zero",
            "set-size-reversed", "fraction-negative", "frames-reversed", "string-count",
            "scalar-range", "float-count", "string-noise", "no-videos", "negative-videos"])
    def test_bad_spec_exits_1_and_writes_nothing(self, tmp_path, capsys, spec, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "corpus"
        capsys.readouterr()
        assert run_cli(["synth", "--spec", str(spec_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]
        assert not out.exists()

    def test_negative_iters_exits_1_and_writes_nothing(self, pipeline, tmp_path, capsys):
        _, corpus, init, _ = pipeline
        out = tmp_path / "neg.ckpt"
        capsys.readouterr()
        assert run_cli(["train", "--manifest", str(corpus / "manifest.txt"),
                        "--init", str(init), "--out", str(out), "--iters", "-5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: iters must be >= 0, got -5\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_alpha_exits_1_and_writes_nothing(self, pipeline, tmp_path, capsys,
                                                         value):
        _, corpus, init, _ = pipeline
        out = tmp_path / "alpha.ckpt"
        capsys.readouterr()
        assert run_cli(["train", "--manifest", str(corpus / "manifest.txt"),
                        "--init", str(init), "--out", str(out), "--iters", "3",
                        "--alpha", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alpha must be a positive finite number, got %s\n" % value
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--alpha", "nan", "alpha must be a positive finite number, got nan"),
        ("--alpha", "0", "alpha must be a positive finite number, got 0.0"),
        ("--tau", "-1", "tau must be >= 0, got -1"),
        ("--lr", "nan", "lr must be finite, got nan"),
        ("--lr-after", "inf", "lr_after must be finite, got inf"),
        ("--beta", "nan", "beta must be finite, got nan")])
    def test_bad_train_setting_exits_1_and_writes_nothing(self, pipeline, tmp_path, capsys,
                                                          flag, value, message):
        _, corpus, init, _ = pipeline
        out, dump = tmp_path / "bad.ckpt", tmp_path / "dump"
        capsys.readouterr()
        assert run_cli(["train", "--manifest", str(corpus / "manifest.txt"),
                        "--init", str(init), "--out", str(out), "--iters", "0",
                        "--dump-dir", str(dump), flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message
        assert not out.exists() and not dump.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--epochs", "-3", "epochs must be >= 0, got -3"),
        ("--hidden", "0", "n_hidden must be >= 1, got 0"),
        ("--hidden", "-1", "n_hidden must be >= 1, got -1"),
        ("--lmin", "nan", "l_min must be a finite number >= 1, got nan"),
        ("--lmin", "inf", "l_min must be a finite number >= 1, got inf"),
        ("--lmin", "0.5", "l_min must be a finite number >= 1, got 0.5"),
        ("--lmin", "0", "l_min must be a finite number >= 1, got 0.0"),
        ("--lmin", "-5", "l_min must be a finite number >= 1, got -5.0"),
        ("--lr", "nan", "lr must be finite, got nan"),
        ("--lr", "inf", "lr must be finite, got inf"),
        ("--lr", "-inf", "lr must be finite, got -inf"),
        # pyproject.toml turns any RuntimeWarning into an error under pytest
        ("--lr", "1e308", "lr 1e+308: non-finite logits"),
        ("--lr", "1e30", "lr 1e+30: non-finite logits")])
    def test_bad_pretrain_size_exits_1_and_writes_nothing(self, pipeline, tmp_path, capsys,
                                                          flag, value, message):
        _, corpus, _, _ = pipeline
        out = tmp_path / "bad.ckpt"
        capsys.readouterr()
        # flag=value, since argparse would read a separate "-inf" as an option
        assert run_cli(["pretrain", "--manifest", str(corpus / "manifest.txt"),
                        "--out", str(out), "%s=%s" % (flag, value)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message
        assert not out.exists()

    def test_overflowing_train_lr_exits_1_and_writes_nothing(self, pipeline, tmp_path, capsys):
        # pyproject.toml turns any RuntimeWarning into an error under pytest
        _, corpus, init, _ = pipeline
        out, dump = tmp_path / "bad.ckpt", tmp_path / "dump"
        capsys.readouterr()
        assert run_cli(["train", "--manifest", str(corpus / "manifest.txt"),
                        "--init", str(init), "--out", str(out), "--iters", "5",
                        "--dump-dir", str(dump), "--lr", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: lr 1e+308: non-finite logits\n"
        assert not out.exists() and not dump.exists()

    def test_zero_pretrain_epochs_stay_valid(self, pipeline, tmp_path):
        _, corpus, _, _ = pipeline
        assert run_cli(["pretrain", "--manifest", str(corpus / "manifest.txt"),
                        "--out", str(tmp_path / "zero.ckpt"), "--epochs", "0"]) == 0
        assert (tmp_path / "zero.ckpt").exists()

    @pytest.mark.parametrize("argv, got", [
        (["--tmax", "5"], "got max_frames 5, max_classes 3"),
        (["--cmax", "0"], "got max_frames 40, max_classes 0")])
    def test_oracle_check_bounds_exit_1_with_one_line(self, capsys, argv, got):
        capsys.readouterr()
        assert run_cli(["oracle-check", "--trials", "3"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: need max_classes >= 1 and max_frames >= "
                                "max(4, 2 * max_classes), %s\n" % got)

    def test_negative_oracle_trials_exit_1_with_one_line(self, capsys):
        capsys.readouterr()
        assert run_cli(["oracle-check", "--trials", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: trials must be >= 0, got -3\n"

    def test_zero_oracle_trials_stay_valid(self, capsys):
        capsys.readouterr()
        assert run_cli(["oracle-check", "--trials", "0"]) == 0
        assert capsys.readouterr().out.startswith("0/0 exact segmentations")

    @pytest.mark.parametrize("meta", [np.array([], dtype=np.int64), np.array([7, 9])],
                             ids=["no-value", "two"])
    @pytest.mark.parametrize("command", ["train", "segment", "align"])
    def test_malformed_meta_exits_1_with_one_line(self, pipeline, tmp_path, capsys,
                                                   command, meta):
        # the iteration record leads the checkpoint; swap it for a 1-D one
        _, corpus, _, trained = pipeline
        head = io.BytesIO()
        np.lib.format.write_array(head, np.array(40, dtype=np.int64), allow_pickle=False)
        blob = trained.read_bytes()
        assert blob.startswith(head.getvalue())
        bad = io.BytesIO()
        np.lib.format.write_array(bad, meta, allow_pickle=False)
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(bad.getvalue() + blob[len(head.getvalue()):])
        out = tmp_path / "out"
        flag, extra = ("--init", "--iters") if command == "train" else ("--ckpt", "--k")
        capsys.readouterr()
        assert run_cli([command, "--manifest", str(corpus / "manifest.txt"), flag, str(ckpt),
                        "--out", str(out), extra, "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: %s: iteration must be a 0-D int64 array, "
                                "found a 1-D %s array\n" % (ckpt, meta.dtype))
        assert not out.exists()

    def test_huge_shape_checkpoint_exits_1_with_one_line(self, pipeline, tmp_path, capsys):
        # the W1 header claims (999999999999, 32), far more than can be allocated
        _, corpus, _, trained = pipeline
        with open(trained, "rb") as fh:
            records = [np.lib.format.read_array(fh, allow_pickle=False) for _ in range(9)]
        bad = io.BytesIO()
        for i, x in enumerate(records):
            if i == 5:  # W1
                np.lib.format.write_array_header_1_0(
                    bad, {"descr": "<f8", "fortran_order": False, "shape": (999999999999, 32)})
                bad.write(x.tobytes())
            else:
                np.lib.format.write_array(bad, x, allow_pickle=False)
        ckpt = tmp_path / "huge.ckpt"
        ckpt.write_bytes(bad.getvalue())
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(["align", "--manifest", str(corpus / "manifest_eval.txt"),
                        "--ckpt", str(ckpt), "--out", str(out), "--k", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: %s: W1 header claims a shape too large to "
                                "allocate\n" % ckpt)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "segment", "align"])
    def test_old_text_checkpoint_exits_1_with_one_line(self, pipeline, tmp_path, capsys,
                                                       command):
        _, corpus, _, _ = pipeline
        ckpt = tmp_path / "old.ckpt"
        ckpt.write_text("[META]\niteration 40\n[HMM]\nvocab act00 act01 act02\n")
        out = tmp_path / "out"
        flag, extra = ("--init", "--iters") if command == "train" else ("--ckpt", "--k")
        capsys.readouterr()
        assert run_cli([command, "--manifest", str(corpus / "manifest.txt"), flag, str(ckpt),
                        "--out", str(out), extra, "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: %s: " % ckpt)
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert not out.exists()


class TestTrainDefaults:
    def test_required_flags_alone_give_train_config_defaults(self):
        args = cli.build_parser().parse_args(["train", "--manifest", "m.txt",
                                              "--init", "i.ckpt", "--out", "o.ckpt"])
        names = [f.name for f in dataclasses.fields(training.TrainConfig)
                 if f.name != "log_every"]
        assert training.TrainConfig(**{n: getattr(args, n) for n in names}) \
            == training.TrainConfig()


class TestModuleEntryPoint:
    def test_python_dash_m_help(self):
        import subprocess
        import sys
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        proc = subprocess.run([sys.executable, "-m", "acvseg", "--help"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0
        assert "oracle-check" in proc.stdout
