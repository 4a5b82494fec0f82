"""Workloads and the pipeline runs the benchmark times.

A workload fixes two synthetic corpora (training and test) and the
pipeline settings.  Its corpora are generated from the workload seed, so
the same seed gives the same inputs.  Two pipelines run a workload:

- `api`: calls `acvseg` functions directly; corpora are synthesized and
  loaded once, then MIL pretraining, ACV training, segment, align and eval
  run in memory.
- `cli`: drives `acvseg.cli.main` in-process through the `synth`,
  `pretrain`, `train`, `segment`, `align` and `eval` subcommands, so every
  stage writes its artifacts as text and the next stage reads them back.

Every decode call that raises `ValueError` (the sampler's attempt cap, or
no legal path) is counted as failed and scored as all frames wrong / IoD 0;
the video is never skipped, retried or re-seeded.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import shutil
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from acvseg import cli, core, data, hmm, infer, metrics, scorer, training


# Settings every workload shares.  The training corpus and the model seeds
# are fixed (those of acceptance criterion 5); only the test corpus and the
# decode streams follow the workload seed.  Training at this size is
# seed-fragile: with training corpora drawn per seed, recovery's Mof ranged
# 0.20-0.96 across seeds, and every downstream time moved with it.
SPEC = {"feature_dim": 64, "separation": 3.0, "noise": 1.0}
TRAIN_SEED = 12
MODEL_SEED = 0
HIDDEN = 256
MIL_LR = 0.1
L_MIN = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str  # "api" or "cli"
    why: str
    n_classes: int
    train: dict  # SynthSpec fields of the training corpus
    test: dict  # SynthSpec fields of the test corpus
    mil_epochs: int
    iters: int
    k: int
    setup_reps: int
    threads: int | None = None  # ACVSEG_THREADS for the cli pipeline


# Timed workloads (BENCHMARK.json): `long` and `cli`.  Their test videos
# leave room for every action set they are decoded with: the sampler needs
# (|C|-1) mean lengths to fit in T, and a set it cannot cover spins to its
# 10**6-attempt cap (10-20 s per call).  `recovery` and `long-cap` run on
# demand only: recovery's stages last one to two seconds a pass, too short
# to time steadily on a small shared machine, and long-cap is the failure
# path itself.  The timed passes are kept short (about 6 s on `cli`, 7 s on
# `long` with 2 cores) so that a run's medians rest on several passes: a
# single stage's time varies by 15% from one pass to the next there.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="recovery", pipeline="api",
        why="acceptance-5 corpora at short T: scorer-heavy, the control on which dp does little",
        n_classes=5,
        train=dict(n_videos=40, frames_range=(100, 300), set_size_range=(3, 3),
                   full_set_fraction=0.85),
        test=dict(n_videos=10, frames_range=(170, 185), set_size_range=(5, 5),
                  full_set_fraction=1.0),
        mil_epochs=30, iters=300, k=1000, setup_reps=5),
    Workload(
        name="long", pipeline="api",
        why="T 1000-1200 with 7 classes: dp.best_cuts dominates decoding",
        n_classes=7,
        train=dict(n_videos=12, frames_range=(1000, 1200), set_size_range=(6, 6),
                   full_set_fraction=0.0),
        test=dict(n_videos=10, frames_range=(1000, 1200), set_size_range=(6, 6),
                  full_set_fraction=0.0),
        mil_epochs=20, iters=140, k=20, setup_reps=3),
    Workload(
        name="cli", pipeline="cli",
        why="short corpus through acvseg.cli.main: text I/O between stages and the decode pool",
        n_classes=5,
        train=dict(n_videos=60, frames_range=(100, 300), set_size_range=(3, 3),
                   full_set_fraction=0.85),
        test=dict(n_videos=40, frames_range=(190, 210), set_size_range=(5, 5),
                  full_set_fraction=1.0),
        mil_epochs=8, iters=250, k=25, setup_reps=3, threads=2),
    # `long` with 3-5 action sets, 30% of them full: every 7-action set is
    # uncoverable (six mean lengths exceed T).
    Workload(
        name="long-cap", pipeline="api",
        why="the sampler's attempt-cap failure path at T 1000-1200",
        n_classes=7,
        train=dict(n_videos=12, frames_range=(1000, 1200), set_size_range=(3, 5),
                   full_set_fraction=0.3),
        test=dict(n_videos=4, frames_range=(1000, 1200), set_size_range=(3, 5),
                  full_set_fraction=0.3),
        mil_epochs=30, iters=200, k=20, setup_reps=1),
)}


def derive(seed, *tags):
    """A 31-bit seed derived from the workload seed and a label path."""
    words = [int(seed) & 0xFFFFFFFF] + [zlib.crc32(str(t).encode()) for t in tags]
    return int(np.random.SeedSequence(words).generate_state(1)[0] >> 1)


def synth_spec(w, seed, which):
    corpus_seed = TRAIN_SEED if which == "train" else derive(seed, "test")
    return data.SynthSpec(n_classes=w.n_classes, seed=corpus_seed, **SPEC,
                          **getattr(w, which))


class Stages:
    """Wall time per named stage of one pipeline run."""

    def __init__(self):
        self.seconds = {}

    @contextlib.contextmanager
    def __call__(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start


@dataclass
class RunResult:
    """One pass from pretraining through eval."""

    stages: dict
    test_videos: list  # training.Video with gt_labels
    training_sets: list
    segment: list  # Segmentation or None (failed) per test video
    align: list
    problems: list = field(default_factory=list)


def _decode(videos, call, seed, task):
    out = []
    for i, video in enumerate(videos):
        try:
            seg, _ = call(video, derive(seed, task, i))
        except ValueError:
            seg = None
        out.append(seg)
    return out


# ------------------------------------------------------------------ api

def setup_api(w, seed, root):
    """Synthesize and load both corpora; returns (train_videos, test_videos)."""
    shutil.rmtree(root, ignore_errors=True)
    train_manifest, _ = data.synth_generate(synth_spec(w, seed, "train"),
                                            os.path.join(root, "train"))
    _, test_eval = data.synth_generate(synth_spec(w, seed, "test"),
                                       os.path.join(root, "test"))
    _, train_videos = training.load_corpus(train_manifest)
    _, test_videos = training.load_corpus(test_eval, with_labels=True)
    return train_videos, test_videos


def run_api(w, seed, corpora):
    train_videos, test_videos = corpora
    stage = Stages()
    sets = [v.action_set for v in train_videos]
    with stage("pretrain"):
        hp = hmm.init_params([v.features.num_frames for v in train_videos], sets,
                             w.n_classes, l_min=L_MIN)
        mlp = scorer.MlpParams.init(train_videos[0].features.dim, w.n_classes,
                                    n_hidden=HIDDEN, seed=MODEL_SEED)
        mlp = scorer.mil_pretrain(mlp, [(v.features, v.action_set) for v in train_videos],
                                  w.mil_epochs, MIL_LR, seed=MODEL_SEED)
    with stage("train"):
        cfg = training.TrainConfig(iters=w.iters, lr=0.01, lr_drop_at=10 ** 9, alpha=0.6,
                                   beta=0.4, tau=15, seed=MODEL_SEED,
                                   log_every=10 ** 9)
        hp, mlp, _ = training.train(train_videos, hp, mlp, cfg)
    with stage("segment"):
        seg = _decode(test_videos, lambda v, s: infer.segment_video(
            v.features, sets, mlp, hp, k=w.k, seed=s), seed, "segment")
    with stage("align"):
        aligned = _decode(test_videos, lambda v, s: infer.align_video(
            v.features, v.action_set, mlp, hp, k=w.k, seed=s), seed, "align")
    with stage("eval"):
        score(test_videos, seg, aligned)
    return RunResult(stage.seconds, test_videos, sets, seg, aligned)


# ------------------------------------------------------------------ cli

def _cli(*argv):
    """Run one subcommand in-process; returns its exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main([str(a) for a in argv])
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def setup_cli(w, seed, root):
    """`acvseg synth` for both corpora."""
    _cli_reference.cache_clear()
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    for which in ("train", "test"):
        spec = synth_spec(w, seed, which)
        spec_path = os.path.join(root, which + "_spec.json")
        with open(spec_path, "w") as fh:
            json.dump(vars(spec), fh)
        if _cli("synth", "--spec", spec_path, "--out", os.path.join(root, which)) != 0:
            raise RuntimeError("acvseg synth failed for the %s corpus" % which)
    return root


def run_cli(w, seed, root):
    train_m = os.path.join(root, "train", "manifest.txt")
    test_m = os.path.join(root, "test", "manifest.txt")
    test_eval = os.path.join(root, "test", "manifest_eval.txt")
    init_ckpt, model_ckpt = os.path.join(root, "init.ckpt"), os.path.join(root, "model.ckpt")
    pred = {task: os.path.join(root, "pred_" + task) for task in ("segment", "align")}
    for path in pred.values():
        shutil.rmtree(path, ignore_errors=True)
    stage = Stages()
    saved = os.environ.get("ACVSEG_THREADS")
    os.environ["ACVSEG_THREADS"] = str(w.threads)
    codes = {}
    try:
        with stage("pretrain"):
            codes["pretrain"] = _cli(
                "pretrain", "--manifest", train_m, "--out", init_ckpt,
                "--epochs", w.mil_epochs, "--lr", MIL_LR, "--hidden", HIDDEN,
                "--lmin", L_MIN, "--seed", MODEL_SEED)
        with stage("train"):
            codes["train"] = _cli(
                "train", "--manifest", train_m, "--init", init_ckpt, "--out", model_ckpt,
                "--iters", w.iters, "--lr", 0.01, "--lr-drop-at", 10 ** 9,
                "--seed", MODEL_SEED)
        with stage("segment"):
            codes["segment"] = _cli(
                "segment", "--manifest", test_m, "--ckpt", model_ckpt, "--out",
                pred["segment"], "--train-manifest", train_m, "--k", w.k,
                "--seed", derive(seed, "segment"))
        with stage("align"):
            codes["align"] = _cli(
                "align", "--manifest", test_m, "--ckpt", model_ckpt, "--out", pred["align"],
                "--k", w.k, "--seed", derive(seed, "align"))
        with stage("eval"):
            for task in ("segment", "align"):
                codes["eval_" + task] = _cli("eval", "--pred", pred[task], "--gt", test_eval)
    finally:
        if saved is None:
            del os.environ["ACVSEG_THREADS"]
        else:
            os.environ["ACVSEG_THREADS"] = saved
    return stage.seconds, codes, pred


@functools.lru_cache(maxsize=2)
def _cli_reference(root):
    """(vocab, labelled test videos, training action sets) of a synthesized
    root; every pass on the root decodes the same corpus."""
    vocab, test_videos = training.load_corpus(
        os.path.join(root, "test", "manifest_eval.txt"), with_labels=True)
    train_vocab, records = data.read_manifest(os.path.join(root, "train", "manifest.txt"))
    return vocab, test_videos, [r.action_set(train_vocab) for r in records]


def collect_cli(w, root, raw):
    """Read the predictions back; a missing file is a failed call."""
    stages, codes, pred = raw
    vocab, test_videos, training_sets = _cli_reference(root)
    out = {}
    for task, pred_dir in pred.items():
        segs = []
        for video in test_videos:
            path = os.path.join(pred_dir, video.video_id + ".txt")
            segs.append(core.segmentation_from_labels(data.read_labels(path, vocab))
                        if os.path.exists(path) else None)
        out[task] = segs
    problems = ["acvseg %s exited with %s" % (cmd.replace("_", " "), code)
                for cmd, code in codes.items() if code != 0]
    return RunResult(stages, test_videos, training_sets, out["segment"], out["align"],
                     problems)


# (setup, run, collect) per pipeline; collect runs outside any trace
PIPELINES = {
    "api": (setup_api, run_api, lambda w, state, raw: raw),
    "cli": (setup_cli, run_cli, collect_cli),
}


# ------------------------------------------------------- checks and scores

def score(test_videos, seg, aligned):
    """(seg_mof, align_iod); a failed video counts as all frames wrong / IoD 0."""
    pairs, iods = [], []
    for video, s, a in zip(test_videos, seg, aligned):
        t_total = video.features.num_frames
        pred = core.expand_segmentation(s) if s is not None else np.full(t_total, -1)
        pairs.append((pred, video.gt_labels))
        gt_segs = metrics.labeling_to_segments(video.gt_labels)
        iods.append(metrics.iod(metrics.segmentation_to_segments(a), gt_segs)
                    if a is not None else 0.0)
    return metrics.corpus_mof(pairs), float(np.mean(iods))


def check(result):
    """Problems with the predictions: each must tile its video, a segment
    prediction must use exactly one training set, an align prediction its
    true set."""
    problems = []
    allowed = {frozenset(s) for s in result.training_sets}
    for video, s, a in zip(result.test_videos, result.segment, result.align):
        t_total = video.features.num_frames
        if s is not None and not (frozenset(s.actions) in allowed
                                  and core.validate_segmentation(s, t_total, s.actions)):
            problems.append("segment %s: %s" % (video.video_id, s))
        if a is not None and not (set(a.actions) == set(video.action_set)
                                  and core.validate_segmentation(a, t_total, video.action_set)):
            problems.append("align %s: %s" % (video.video_id, a))
    return problems


def digest(result):
    """sha256 over every predicted label, segment then align."""
    h = hashlib.sha256()
    for segs in (result.segment, result.align):
        for s in segs:
            h.update(b"F" if s is None else
                     np.asarray(core.expand_segmentation(s).labels, dtype=np.int64).tobytes())
    return h.hexdigest()
