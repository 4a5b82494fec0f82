"""Command-line entry points: corpus synthesis, pretraining, training,
segmentation, alignment, evaluation, and oracle equivalence sweeps.

`eval` prints one table, then the same rows as CSV: frame accuracy (mof),
detection overlap (iod) and midpoint hits, per video and pooled over the
corpus ("overall").  Defaults of the decoding and length-floor settings
live in this parser, those of training in `training.TrainConfig`.

Exit codes: 0 on success, 2 on usage errors (including missing input
files), 1 on runtime failures with a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import acv, data, hmm as hmm_mod, infer, metrics, oracle, scorer, training
from .core import expand_segmentation
from .rng import fork_rng


def _require_files(*paths):
    for p in paths:
        if not os.path.exists(p):
            print("usage error: no such file: %s" % p, file=sys.stderr)
            sys.exit(2)


def cmd_synth(args):
    _require_files(args.spec)
    train_manifest, eval_manifest = data.synth_generate(data.read_synth_spec(args.spec),
                                                        args.out)
    print("wrote %s" % train_manifest)
    print("wrote %s" % eval_manifest)


def cmd_pretrain(args):
    _require_files(args.manifest)
    vocab, videos = training.load_corpus(args.manifest)
    hmm_params = hmm_mod.init_params([v.features.num_frames for v in videos],
                                     [v.action_set for v in videos],
                                     len(vocab), l_min=args.lmin)
    mlp = scorer.MlpParams.init(videos[0].features.dim, len(vocab),
                                n_hidden=args.hidden, seed=args.seed)
    mlp = scorer.mil_pretrain(mlp, [(v.features, v.action_set) for v in videos],
                              args.epochs, args.lr, seed=args.seed)
    data.write_checkpoint(args.out, vocab, hmm_params, mlp, iteration=0)
    print("wrote %s" % args.out)


def cmd_train(args):
    _require_files(args.manifest, args.init)
    vocab, videos = training.load_corpus(args.manifest, with_labels=True)
    ck_vocab, hmm_params, mlp, start_iter = data.read_checkpoint(args.init)
    if ck_vocab != vocab:
        raise ValueError("checkpoint vocabulary does not match the manifest")
    cfg = training.TrainConfig(iters=args.iters, lr=args.lr, lr_drop_at=args.lr_drop_at,
                               lr_after=args.lr_after, alpha=args.alpha, beta=args.beta,
                               tau=args.tau, seed=args.seed)
    hmm_params, mlp, iterations = training.train(videos, hmm_params, mlp, cfg,
                                                 start_iter=start_iter, log=print)
    data.write_checkpoint(args.out, vocab, hmm_params, mlp, iteration=iterations)
    if args.dump_dir:
        os.makedirs(args.dump_dir, exist_ok=True)
        for video in videos:
            scores = scorer.forward(mlp, scorer.gemm_input(video.features))
            seg, anchors, _ = training.pseudo_ground_truth(hmm_params, scores,
                                                           video.action_set, cfg)
            acv.write_acv_dump(os.path.join(args.dump_dir, video.video_id + ".txt"),
                               anchors, seg)
    print("wrote %s" % args.out)


def _predict(args, task):
    _require_files(args.manifest, args.ckpt)
    if args.k < 1:  # a run-wide setting, so its error names no video
        raise ValueError("k must be >= 1")
    vocab, videos = training.load_corpus(args.manifest)
    ck_vocab, hmm_params, mlp, _ = data.read_checkpoint(args.ckpt)
    if ck_vocab != vocab:
        raise ValueError("checkpoint vocabulary does not match the manifest")
    if task == "segment":
        source = args.train_manifest or args.manifest
        _require_files(source)
        # decoding samples only the training action sets, never their features
        src_vocab, records = data.read_manifest(source)
        if src_vocab != vocab:
            raise ValueError("training-set manifest vocabulary mismatch")
        training_sets = [rec.action_set(vocab) for rec in records]

    # decode every video before writing any, so a failure leaves no partial output
    segs = []
    for video in videos:
        seed = fork_rng(args.seed, task, video.video_id).integers(2 ** 31)
        decode, sets = ((infer.segment_video, training_sets) if task == "segment"
                        else (infer.align_video, video.action_set))
        try:
            seg, _ = decode(video.features, sets, mlp, hmm_params, k=args.k, seed=seed)
        except ValueError as exc:
            raise ValueError("%s: %s" % (video.video_id, exc)) from None
        segs.append(seg)
    os.makedirs(args.out, exist_ok=True)
    for video, seg in zip(videos, segs):
        path = os.path.join(args.out, video.video_id + ".txt")
        data.write_labels(path, expand_segmentation(seg), vocab)
        print("wrote %s" % path)


def cmd_segment(args):
    _predict(args, "segment")


def cmd_align(args):
    _predict(args, "align")


def cmd_eval(args):
    _require_files(args.gt)
    vocab, records = data.read_manifest(args.gt)
    rows = []
    pooled_pred, pooled_gt, pairs = [], [], []
    offset = 0  # segments pooled on one global timeline so videos never overlap
    for rec in records:
        if rec.labels_path is None:
            raise ValueError("manifest record %s has no label file" % rec.video_id)
        pred_path = os.path.join(args.pred, rec.video_id + ".txt")
        _require_files(rec.labels_path, pred_path)
        gt = data.read_labels(rec.labels_path, vocab)
        pred = data.read_labels(pred_path, vocab)
        if gt.num_frames != pred.num_frames:
            raise ValueError("length mismatch for %s" % rec.video_id)
        pred_segs = metrics.labeling_to_segments(pred)
        gt_segs = metrics.labeling_to_segments(gt)
        pairs.append((pred, gt))
        pooled_pred.extend((c, s + offset, e + offset) for c, s, e in pred_segs)
        pooled_gt.extend((c, s + offset, e + offset) for c, s, e in gt_segs)
        offset += gt.num_frames
        rows.append(_metric_row(rec.video_id, metrics.mof(pred, gt), pred_segs, gt_segs))
    rows.append(_metric_row("overall", metrics.corpus_mof(pairs), pooled_pred, pooled_gt))
    headers = ["video", "mof", "iod", "midpoint"]
    print(metrics.format_table(headers, rows))
    print()
    print(metrics.format_csv(headers, rows))


def _metric_row(vid, mof, pred_segs, gt_segs):
    return [vid, mof, metrics.iod(pred_segs, gt_segs), metrics.midpoint_hit(pred_segs, gt_segs)]


def cmd_oracle_check(args):
    if args.trials < 0:
        raise ValueError("trials must be >= 0, got %d" % args.trials)
    worst = 0.0
    for trial in range(args.trials):
        inst = oracle.random_instance(fork_rng(args.seed, "oracle-check", trial),
                                      max_frames=args.tmax, max_classes=args.cmax)
        seg_dp, score_dp = acv.constrained_viterbi(inst["anchors"], inst["loglik"], inst["hmm"])
        seg_bf, score_bf = oracle.brute_force_anchor_best(inst["anchors"], inst["loglik"],
                                                          inst["hmm"])
        if seg_dp != seg_bf:
            print("mismatch at trial %d: %s vs %s" % (trial, seg_dp, seg_bf))
            sys.exit(1)
        worst = max(worst, abs(score_dp - score_bf))
    print("%d/%d exact segmentations, max |score gap| %.3g" % (args.trials, args.trials, worst))


def build_parser():
    parser = argparse.ArgumentParser(prog="acvseg",
                                     description="set-supervised temporal action segmentation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pretrain", help="initialize the HMM and pretrain the scorer")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--hidden", type=int, default=scorer.N_HIDDEN)
    p.add_argument("--lmin", type=float, default=50.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="run the pseudo-ground-truth training loop")
    p.add_argument("--manifest", required=True)
    p.add_argument("--init", required=True)
    p.add_argument("--out", required=True)
    cfg = training.TrainConfig()
    p.add_argument("--iters", type=int, default=cfg.iters)
    p.add_argument("--lr", type=float, default=cfg.lr)
    p.add_argument("--lr-drop-at", type=int, default=cfg.lr_drop_at)
    p.add_argument("--lr-after", type=float, default=cfg.lr_after)
    p.add_argument("--alpha", type=float, default=cfg.alpha)
    p.add_argument("--beta", type=float, default=cfg.beta)
    p.add_argument("--tau", type=int, default=cfg.tau)
    p.add_argument("--seed", type=int, default=cfg.seed)
    p.add_argument("--dump-dir", default=None,
                   help="write per-video anchor and cut dumps for the final model")
    p.set_defaults(func=cmd_train)

    for name, helptext in (("segment", "predict labels without knowing the action set"),
                           ("align", "predict labels given the true action set")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--manifest", required=True)
        p.add_argument("--ckpt", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--k", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        if name == "segment":
            p.add_argument("--train-manifest", default=None,
                           help="manifest whose action sets are sampled at test time; "
                           "only its action sets are read, not its feature files "
                           "(default: the test manifest itself)")
        p.set_defaults(func=cmd_segment if name == "segment" else cmd_align)

    p = sub.add_parser("eval", help="score predictions against hidden labels")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("oracle-check", help="sweep DP vs brute-force equivalence")
    p.add_argument("--tmax", type=int, default=40)
    p.add_argument("--cmax", type=int, default=3)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(1)
    return 0
