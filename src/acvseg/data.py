"""Corpus file formats and the synthetic corpus generator.

Features and checkpoints are numpy .npy data, read and written through
numpy.lib.format without pickling, so a read-back is bit-exact.  A feature
file is one (T, D) float64 array (float32 is widened exactly on read); a
checkpoint is nine consecutive records, the iteration, the vocabulary and
the HMM and MLP tables.  Labels, manifests and predictions are
line-oriented text: per-frame label files with one action name per line
and tab-separated corpus manifests.  A file that cannot be read is a
ValueError that names it.  The generator writes hidden frame labels to a
separate file that the training path never reads.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from .core import ActionSet, FrameFeatures, FrameLabeling, Vocabulary, label_array
from .hmm import HmmParams
from .rng import fork_rng
from .scorer import MlpParams


def _read_array(fh, what, ndim, dtypes):
    """Read the next .npy record from `fh` without unpickling; anything but an
    `ndim`-D array of one of `dtypes` is a ValueError."""
    try:
        x = np.lib.format.read_array(fh, allow_pickle=False)
    except MemoryError:
        # read_array allocates the header's whole shape before reading data
        raise ValueError("%s header claims a shape too large to allocate" % what) from None
    # dtype.type ignores byte order
    if x.ndim != ndim or x.dtype.type not in dtypes:
        raise ValueError("%s must be a %d-D %s array, found a %d-D %s array"
                         % (what, ndim, " or ".join(np.dtype(t).name for t in dtypes),
                            x.ndim, x.dtype))
    return x


# ---------------------------------------------------------------- features

def write_features(path, features):
    """Write a (T, D) feature matrix to exactly `path` as a float64 .npy array."""
    if not isinstance(features, FrameFeatures):
        features = FrameFeatures(features)
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, np.ascontiguousarray(features.values),
                                  allow_pickle=False)


def read_features(path):
    """Read a .npy feature matrix; anything but a finite (T, D) float64 or
    float32 array with T, D >= 1 is a ValueError that names the file."""
    with open(path, "rb") as fh:
        try:
            # float32 widens to float64 exactly
            return FrameFeatures(_read_array(fh, "features", 2, (np.float64, np.float32)))
        except ValueError as exc:
            raise ValueError("%s: %s" % (path, exc)) from None


# ------------------------------------------------------------------ labels

def write_labels(path, labeling, vocab):
    labels = label_array(labeling).tolist()
    if labels and not 0 <= min(labels) <= max(labels) < len(vocab):
        raise ValueError("label ids outside the vocabulary")
    names = vocab.names
    with open(path, "w") as fh:
        fh.write("".join([names[c] + "\n" for c in labels]))


def read_labels(path, vocab):
    ids = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            name = line.strip()
            if name:
                try:
                    ids.append(vocab.id_of(name))
                except ValueError as exc:
                    raise ValueError("%s: line %d: %s" % (path, number, exc)) from None
    if not ids:
        raise ValueError("%s: empty label file" % path)
    return FrameLabeling(ids)


# ---------------------------------------------------------------- manifest

@dataclass(frozen=True)
class VideoRecord:
    video_id: str
    features_path: str
    set_names: tuple
    labels_path: str | None = None

    def action_set(self, vocab):
        return ActionSet(vocab.id_of(n) for n in self.set_names)


def write_manifest(path, vocab, records):
    if not records:
        raise ValueError("no records to write")
    with open(path, "w") as fh:
        fh.write("vocab\t" + " ".join(vocab.names) + "\n")
        for rec in records:
            fields = [rec.video_id, rec.features_path, " ".join(rec.set_names)]
            if rec.labels_path is not None:
                fields.append(rec.labels_path)
            fh.write("\t".join(fields) + "\n")


def read_manifest(path):
    """Returns (Vocabulary, records); relative paths are resolved against the
    manifest's directory.  A video id is a plain file name: outputs are
    written to <dir>/<id>.txt, so an id that is empty, "." or "..", or
    that holds a path separator, is an error."""
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines or not lines[0].startswith("vocab\t"):
        raise ValueError("%s: first manifest line must be the vocabulary" % path)
    try:
        vocab = Vocabulary(lines[0].split("\t", 1)[1].split())
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None
    records = []
    seen = set()
    for line in lines[1:]:
        fields = line.split("\t")
        if len(fields) not in (3, 4):
            raise ValueError("%s: malformed record %r" % (path, line))
        vid, feat, names = fields[0], fields[1], tuple(fields[2].split())
        if vid in ("", ".", "..") or any(sep and sep in vid for sep in ("/", os.sep, os.altsep)):
            raise ValueError("%s: video id %r is not a plain file name" % (path, vid))
        if vid in seen:
            raise ValueError("%s: duplicate video id %r" % (path, vid))
        seen.add(vid)
        try:
            ActionSet(vocab.id_of(n) for n in names)
        except ValueError as exc:  # an unknown, repeated or missing name
            raise ValueError("%s: video %r: %s" % (path, vid, exc)) from None
        labels = resolve(fields[3]) if len(fields) == 4 else None
        records.append(VideoRecord(vid, resolve(feat), names, labels))
    if not records:
        raise ValueError("%s: no video records" % path)
    return vocab, records


# -------------------------------------------------------------- checkpoint

# the float64 tables after the iteration and vocab records, in file order
_HMM_RECORDS = (("transitions", 2), ("lambdas", 1), ("priors", 1))
_MLP_RECORDS = (("W1", 2), ("b1", 1), ("W2", 2), ("b2", 1))


def write_checkpoint(path, vocab, hmm_params, mlp_params, iteration):
    """Write the model to exactly `path` as consecutive .npy records: the
    0-d int64 iteration, the 1-D unicode vocab, then _HMM_RECORDS and
    _MLP_RECORDS."""
    records = [np.array(iteration, dtype=np.int64), np.array(vocab.names)]
    records += [getattr(hmm_params, name) for name, _ in _HMM_RECORDS]
    records += [getattr(mlp_params, name) for name, _ in _MLP_RECORDS]
    with open(path, "wb") as fh:
        for x in records:
            np.lib.format.write_array(fh, x, allow_pickle=False)


def read_checkpoint(path):
    """Returns (vocab, HmmParams, MlpParams, iteration).  A missing, extra or
    malformed record, a non-finite MLP weight or a failed HmmParams.check is a
    ValueError naming the file."""
    with open(path, "rb") as fh:
        try:
            iteration = int(_read_array(fh, "iteration", 0, (np.int64,)))
            if iteration < 0:
                raise ValueError("iteration must be >= 0, found %d" % iteration)
            vocab = Vocabulary(_read_array(fh, "vocab", 1, (np.str_,)).tolist())
            hmm_params = HmmParams(*(_read_array(fh, name, ndim, (np.float64,))
                                     for name, ndim in _HMM_RECORDS))
            mlp_params = MlpParams(*(_read_array(fh, name, ndim, (np.float64,))
                                     for name, ndim in _MLP_RECORDS))
            if fh.read(1):
                raise ValueError("trailing bytes after the last record")
            for name, _ in _MLP_RECORDS:
                if not np.all(np.isfinite(getattr(mlp_params, name))):
                    raise ValueError("non-finite MLP weights in %s" % name)
            hmm_params.check()
        except ValueError as exc:
            raise ValueError("%s: %s" % (path, exc)) from None
    return vocab, hmm_params, mlp_params, iteration


# --------------------------------------------------------------- generator

@dataclass
class SynthSpec:
    """Configuration of the synthetic corpus generator.

    Class means sit on scaled coordinate axes (pairwise distance
    separation * sqrt(2)); frames add isotropic Gaussian noise.  Each video
    draws a length from frames_range and an action set whose size is drawn
    from set_size_range (capped at n_classes), orders the set uniformly, and
    draws near-Poisson segment lengths rescaled to tile the video exactly;
    every class shares one mean length, the mid video length over the
    typical set size.  full_set_fraction pins that share of videos to the
    complete vocabulary, which keeps set-conditioned inference meaningful
    on corpora with few classes.  A spec file (read_synth_spec) is a JSON
    object whose keys are these field names; n_classes and n_videos are
    required.
    """

    n_classes: int
    n_videos: int
    frames_range: tuple = (100, 300)
    feature_dim: int = 64
    separation: float = 3.0
    noise: float = 1.0
    set_size_range: tuple = (2, 5)
    full_set_fraction: float = 0.0
    seed: int = 0


# JSON values read_synth_spec accepts per SynthSpec field type; no bool is an int
_SPEC_VALUES = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (lambda v: type(v) is int or (type(v) is float and np.isfinite(v)),
              "a finite number"),
    "tuple": (lambda v: type(v) is list and len(v) == 2 and all(type(x) is int for x in v),
              "a list of two integers"),
}


def read_synth_spec(path):
    """Read a SynthSpec from a JSON object keyed by its field names; other
    keys, missing required keys and values of the wrong type are errors."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("%s: spec must be a JSON object" % path)
    fields = dataclasses.fields(SynthSpec)
    unknown = sorted(set(raw) - {f.name for f in fields})
    if unknown:
        raise ValueError("%s: unknown spec keys: %s" % (path, ", ".join(unknown)))
    missing = [f.name for f in fields
               if f.default is dataclasses.MISSING and f.name not in raw]
    if missing:
        raise ValueError("%s: missing spec keys: %s" % (path, ", ".join(missing)))
    for f in fields:
        accepts, kind = _SPEC_VALUES[f.type]
        if f.name in raw and not accepts(raw[f.name]):
            raise ValueError("%s: spec key %s must be %s, found %s"
                             % (path, f.name, kind, json.dumps(raw[f.name])))
    return SynthSpec(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})


def _lengths_tiling(raw, t_total):
    """Rescale positive raw lengths to positive integers summing to t_total."""
    raw = np.asarray(raw, dtype=np.float64)
    scaled = raw * (t_total / raw.sum())
    lengths = np.maximum(1, np.floor(scaled).astype(np.int64))
    frac = scaled - np.floor(scaled)
    while lengths.sum() < t_total:
        i = int(np.argmax(frac))
        lengths[i] += 1
        frac[i] = -1.0
    while lengths.sum() > t_total:
        i = int(np.argmax(lengths))
        if lengths[i] == 1:
            raise ValueError("video too short for its action set")
        lengths[i] -= 1
    return lengths


def synth_generate(spec, out_dir):
    """Write a synthetic corpus under out_dir.

    Emits features/, labels/, a training manifest without label paths, and
    an evaluation manifest that also points at the hidden frame labels.
    Returns (train_manifest_path, eval_manifest_path).  An invalid spec
    (fewer than one video, a reversed or out-of-range range, more classes
    than feature dimensions or than the shortest video has frames) is a
    ValueError raised before anything is written.
    """
    lo_f, hi_f = spec.frames_range
    lo_s, hi_s = spec.set_size_range
    if spec.n_videos < 1:
        raise ValueError("n_videos must be >= 1, got %d" % spec.n_videos)
    if not lo_f <= hi_f:
        raise ValueError("frames_range %s needs lo <= hi" % (spec.frames_range,))
    if not 1 <= lo_s <= hi_s:
        raise ValueError("set_size_range %s needs 1 <= lo <= hi" % (spec.set_size_range,))
    if not 0.0 <= spec.full_set_fraction <= 1.0:
        raise ValueError("full_set_fraction %r lies outside [0, 1]" % spec.full_set_fraction)
    if spec.n_classes > spec.feature_dim:
        raise ValueError("need n_classes <= feature_dim for axis-aligned class means")
    if lo_f < spec.n_classes:
        raise ValueError("shortest video cannot fit the largest action set")
    vocab = Vocabulary("act%02d" % c for c in range(spec.n_classes))
    mean_length = (lo_f + hi_f) / 2 / min(spec.n_classes, (lo_s + hi_s) / 2)
    class_means = spec.separation * np.eye(spec.n_classes, spec.feature_dim)
    os.makedirs(os.path.join(out_dir, "features"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "labels"), exist_ok=True)

    n_full = int(round(spec.full_set_fraction * spec.n_videos))
    full_videos = set(fork_rng(spec.seed, "synth-full").permutation(spec.n_videos)[:n_full].tolist())

    hi_s = min(hi_s, spec.n_classes)
    lo_s = min(lo_s, hi_s)
    train_records = []
    eval_records = []
    for v in range(spec.n_videos):
        rng = fork_rng(spec.seed, "synth", v)
        t_total = int(rng.integers(lo_f, hi_f + 1))
        if v in full_videos:
            chosen = np.arange(spec.n_classes)
        else:
            size = int(rng.integers(lo_s, hi_s + 1))
            chosen = np.sort(rng.choice(spec.n_classes, size=size, replace=False))
        order = rng.permutation(chosen)
        raw = np.maximum(1, rng.poisson(mean_length, size=order.size))
        lengths = _lengths_tiling(raw, t_total)
        frame_labels = np.repeat(order, lengths)
        x = class_means[frame_labels] \
            + spec.noise * rng.standard_normal((t_total, spec.feature_dim))

        vid = "vid%03d" % v
        write_features(os.path.join(out_dir, "features", vid + ".npy"), x)
        write_labels(os.path.join(out_dir, "labels", vid + ".txt"), frame_labels, vocab)
        names = tuple(vocab.name_of(int(c)) for c in chosen)
        train_records.append(VideoRecord(vid, "features/%s.npy" % vid, names))
        eval_records.append(VideoRecord(vid, "features/%s.npy" % vid, names,
                                        "labels/%s.txt" % vid))

    train_path = os.path.join(out_dir, "manifest.txt")
    eval_path = os.path.join(out_dir, "manifest_eval.txt")
    write_manifest(train_path, vocab, train_records)
    write_manifest(eval_path, vocab, eval_records)
    return train_path, eval_path
