#!/bin/sh
# The same pipeline as quickstart.py, driven entirely through the CLI.
# Every artifact stays on disk along the way: the feature matrices and the
# checkpoints are numpy .npy data, the manifests and labels plain text you
# can inspect.
set -e

WORK=$(mktemp -d "${TMPDIR:-/tmp}"/acvseg-cli-XXXXXX)
echo "working under $WORK"

# 1. Describe and generate a corpus.  The spec file is plain JSON mapping
#    generator fields to values; anything omitted keeps its default, and a
#    key that names no field, or a value of the wrong type, is an error.
cat > "$WORK/train_spec.json" <<EOF
{"n_classes": 4, "n_videos": 16, "frames_range": [60, 120],
 "feature_dim": 32, "separation": 3.0, "noise": 1.0,
 "set_size_range": [2, 4], "full_set_fraction": 0.5, "seed": 7}
EOF
cat > "$WORK/test_spec.json" <<EOF
{"n_classes": 4, "n_videos": 6, "frames_range": [90, 120],
 "feature_dim": 32, "separation": 3.0, "noise": 1.0,
 "set_size_range": [4, 4], "full_set_fraction": 1.0, "seed": 77}
EOF
acvseg synth --spec "$WORK/train_spec.json" --out "$WORK/train"
acvseg synth --spec "$WORK/test_spec.json" --out "$WORK/test"

# 2. Initialize the HMM from the action sets and pretrain the scorer with
#    per-class max-pooling over frames (set membership is the only signal).
acvseg pretrain --manifest "$WORK/train/manifest.txt" --out "$WORK/init.ckpt" \
    --epochs 400 --lr 0.1 --hidden 256 --lmin 10 --seed 3

# 3. Train: anchor-constrained pseudo ground truth, one video per iteration.
#    --dump-dir keeps, per training video, the anchors and cuts the final
#    model picks.
acvseg train --manifest "$WORK/train/manifest.txt" --init "$WORK/init.ckpt" \
    --out "$WORK/model.ckpt" --iters 1500 --lr 0.01 --lr-drop-at 1000000 \
    --alpha 0.6 --beta 0.4 --tau 15 --seed 3 --dump-dir "$WORK/dumps"

# 4. Predict.  segment does not see the test video's action set (it samples
#    one from the training corpus); align is given the true set.
acvseg segment --manifest "$WORK/test/manifest.txt" --ckpt "$WORK/model.ckpt" \
    --out "$WORK/pred_seg" --k 300 --seed 500 \
    --train-manifest "$WORK/train/manifest.txt"
acvseg align --manifest "$WORK/test/manifest.txt" --ckpt "$WORK/model.ckpt" \
    --out "$WORK/pred_align" --k 300 --seed 1

# 5. Score against the hidden frame labels (eval manifest carries them).
echo "--- segmentation ---"
acvseg eval --pred "$WORK/pred_seg" --gt "$WORK/test/manifest_eval.txt"
echo "--- alignment ---"
acvseg eval --pred "$WORK/pred_align" --gt "$WORK/test/manifest_eval.txt"

# 6. Sanity: the segmental Viterbi agrees with brute-force enumeration.
acvseg oracle-check --tmax 30 --cmax 3 --trials 10 --seed 0

echo "artifacts kept under $WORK"
