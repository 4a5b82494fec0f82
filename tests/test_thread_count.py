"""Every artifact of a CLI run is the same at one and at two BLAS threads."""

import fnmatch
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# demos/cli_walkthrough.sh's corpora; its 256 hidden units make BLAS split
TRAIN = {"n_classes": 4, "n_videos": 16, "frames_range": [60, 120], "feature_dim": 32,
         "separation": 3.0, "noise": 1.0, "set_size_range": [2, 4],
         "full_set_fraction": 0.5, "seed": 7}
TEST = dict(TRAIN, n_videos=6, frames_range=[90, 120], set_size_range=[4, 4],
            full_set_fraction=1.0, seed=77)
STEPS = (
    "synth --spec train.json --out train",
    "synth --spec test.json --out test",
    "pretrain --manifest train/manifest.txt --out init.ckpt --epochs 60 --lr 0.1"
    " --hidden 256 --lmin 10 --seed 3",
    "train --manifest train/manifest.txt --init init.ckpt --out model.ckpt --iters 150"
    " --lr-drop-at 1000000 --seed 3",
    "align --manifest test/manifest.txt --ckpt model.ckpt --out pred --k 50 --seed 1",
    "segment --manifest test/manifest.txt --ckpt model.ckpt --out seg --k 50 --seed 1"
    " --train-manifest train/manifest.txt",
)


def run_steps(work, threads):
    """Run STEPS in `work` on relative paths; returns (stdouts, {file: bytes})."""
    work.mkdir()
    (work / "train.json").write_text(json.dumps(TRAIN))
    (work / "test.json").write_text(json.dumps(TEST))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    stdouts = []
    for step in STEPS:
        proc = subprocess.run([sys.executable, "-m", "acvseg"] + step.split(), cwd=str(work),
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        stdouts.append(proc.stdout)
    return stdouts, {str(p.relative_to(work)): p.read_bytes() for p in work.rglob("*.*")}


def test_outputs_do_not_depend_on_the_thread_count(tmp_path):
    one = run_steps(tmp_path / "one", 1)
    assert {"init.ckpt", "model.ckpt"} <= set(one[1])
    assert sum(name.startswith("pred") for name in one[1]) == 6
    # the binary feature files are compared byte for byte too
    assert sum(fnmatch.fnmatch(name, "train/features/*.npy") for name in one[1]) == 16
    assert one == run_steps(tmp_path / "two", 2)
