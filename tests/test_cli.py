import dataclasses
import json
import os
import shutil

import numpy as np
import pytest

from acvseg import cli, data, infer, training
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
                        "--gt", str(corpus / "manifest_eval.txt"),
                        "--metric", "all"]) == 0
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
                        "--gt", str(corpus / "manifest_eval.txt"),
                        "--metric", "all"]) == 0
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

    def test_train_lmin_raises_length_floor(self, pipeline):
        root, corpus, init, _ = pipeline
        out = root / "floored.ckpt"
        assert run_cli(["train", "--manifest", str(corpus / "manifest.txt"),
                        "--init", str(init), "--out", str(out),
                        "--iters", "0", "--lmin", "20"]) == 0
        _, hp_init, _, _ = data.read_checkpoint(init)
        _, hp_out, _, _ = data.read_checkpoint(out)
        assert np.array_equal(hp_out.lambdas,
                              np.maximum(hp_init.lambdas, 20.0))


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

    @pytest.mark.parametrize("value", ["on", "off"])
    def test_removed_prune_flag_is_a_usage_error(self, pipeline, capsys, value):
        root, corpus, init, _ = pipeline
        capsys.readouterr()
        assert run_cli(["train", "--manifest", str(corpus / "manifest.txt"), "--init", str(init),
                        "--out", str(root / "x.ckpt"), "--prune", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "unrecognized arguments: --prune" in err

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
        assert run_cli(["train", "--manifest", str(corpus / "manifest.txt"),
                        "--init", str(init), "--out", str(floored),
                        "--iters", "0", "--lmin", "10"]) == 0
        vocab, records = data.read_manifest(str(corpus / "manifest_eval.txt"))
        short = tmp_path / "short.txt"
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
        assert "no sequence can cover" in captured.err
        assert not out.exists()

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
    ], ids=["unknown-key", "removed-field", "not-an-object", "missing-key", "set-size-zero",
            "set-size-reversed", "fraction-negative", "frames-reversed", "string-count",
            "scalar-range", "float-count", "string-noise"])
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

    @pytest.mark.parametrize("flag, value, message", [
        ("--epochs", "-3", "epochs must be >= 0, got -3"),
        ("--hidden", "0", "n_hidden must be >= 1, got 0"),
        ("--hidden", "-1", "n_hidden must be >= 1, got -1")])
    def test_bad_pretrain_size_exits_1_and_writes_nothing(self, pipeline, tmp_path, capsys,
                                                          flag, value, message):
        _, corpus, _, _ = pipeline
        out = tmp_path / "bad.ckpt"
        capsys.readouterr()
        assert run_cli(["pretrain", "--manifest", str(corpus / "manifest.txt"),
                        "--out", str(out), flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message
        assert not out.exists()

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

    @pytest.mark.parametrize("meta", ["iteration", "iteration 7 9"], ids=["no-value", "two"])
    @pytest.mark.parametrize("command", ["train", "segment", "align"])
    def test_malformed_meta_exits_1_with_one_line(self, pipeline, tmp_path, capsys,
                                                   command, meta):
        _, corpus, _, trained = pipeline
        lines = trained.read_text().splitlines()
        assert lines[:2] == ["[META]", "iteration 40"]
        lines[1] = meta
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        flag, extra = ("--init", "--iters") if command == "train" else ("--ckpt", "--k")
        capsys.readouterr()
        assert run_cli([command, "--manifest", str(corpus / "manifest.txt"), flag, str(ckpt),
                        "--out", str(out), extra, "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: %s: META section must be one line 'iteration <count>', "
                                "found %r\n" % (ckpt, meta))
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
        proc = subprocess.run([sys.executable, "-m", "acvseg", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "oracle-check" in proc.stdout
