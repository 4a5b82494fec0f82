"""Corpus file formats and the synthetic corpus generator.

A feature matrix is a numpy .npy array, (T, D) float64 (float32 is widened
exactly on read), read and written through numpy.lib.format without
pickling.  Every other artifact is line-oriented text: per-frame label
files with one action name per line, tab-separated corpus manifests, and
sectioned checkpoints whose floats are written with repr so a read-back is
bit-exact.  Checkpoint rows are parsed by numpy's C-level loadtxt; `#` is
not a comment there but a parse error.  The generator writes hidden frame
labels to a separate file that the training path never reads.
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


def _write_rows(fh, arr):
    fh.writelines(" ".join(map(repr, row)) + "\n" for row in arr.tolist())


def _parse_rows(lines, shape, where):
    """Parse a checkpoint block's rows of whitespace-separated floats into a
    float64 array that must have the block header's `shape`."""
    if not lines:
        # loadtxt would only warn and return an empty array
        raise ValueError("%s: no rows, header says %s" % (where, shape))
    try:
        arr = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
    except ValueError as exc:
        raise ValueError("%s: %s" % (where, exc)) from None
    if arr.shape != shape:
        raise ValueError("%s: got shape %s, header says %s" % (where, arr.shape, shape))
    return arr


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
            x = np.lib.format.read_array(fh, allow_pickle=False)
            # dtype.type ignores byte order; float32 widens to float64 exactly
            if x.ndim != 2 or x.dtype.type not in (np.float64, np.float32):
                raise ValueError("features must be a 2-D float64 or float32 array, found "
                                 "a %d-D %s array" % (x.ndim, x.dtype))
            return FrameFeatures(x)
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

def _vocabulary(names, path):
    try:
        return Vocabulary(names)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None


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
    vocab = _vocabulary(lines[0].split("\t", 1)[1].split(), path)
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

def _write_matrix(fh, name, arr):
    arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
    fh.write(name + " " + " ".join(str(d) for d in arr.shape) + "\n")
    _write_rows(fh, arr)


class _Reader:
    def __init__(self, path):
        with open(path) as fh:
            self.lines = [line.rstrip("\n") for line in fh if line.strip()]
        self.pos = 0
        self.path = path

    def next(self):
        if self.pos >= len(self.lines):
            raise ValueError("%s: truncated checkpoint" % self.path)
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, token):
        line = self.next()
        if line != token:
            raise ValueError("%s: expected %r, found %r" % (self.path, token, line))

    def matrix(self, name):
        head = self.next().split()
        if head[0] != name:
            raise ValueError("%s: expected %r block, found %r" % (self.path, name, head[0]))
        if len(head) != 3 or not all(v.isdecimal() for v in head[1:]):
            raise ValueError("%s: %r block needs a 2-D shape of two counts, found %r"
                             % (self.path, name, " ".join(head[1:])))
        shape = (int(head[1]), int(head[2]))
        rows = self.lines[self.pos:self.pos + shape[0]]
        if len(rows) < shape[0]:
            raise ValueError("%s: truncated checkpoint" % self.path)
        self.pos += len(rows)
        return _parse_rows(rows, shape, "%s: %r block" % (self.path, name))


def write_checkpoint(path, vocab, hmm_params, mlp_params, iteration):
    with open(path, "w") as fh:
        fh.write("[META]\n")
        fh.write("iteration %d\n" % iteration)
        fh.write("[HMM]\n")
        fh.write("vocab " + " ".join(vocab.names) + "\n")
        _write_matrix(fh, "transitions", hmm_params.transitions)
        _write_matrix(fh, "lambdas", hmm_params.lambdas)
        _write_matrix(fh, "priors", hmm_params.priors)
        fh.write("[MLP]\n")
        _write_matrix(fh, "W1", mlp_params.W1)
        _write_matrix(fh, "b1", mlp_params.b1)
        _write_matrix(fh, "W2", mlp_params.W2)
        _write_matrix(fh, "b2", mlp_params.b2)


def read_checkpoint(path):
    """Returns (vocab, HmmParams, MlpParams, iteration)."""
    r = _Reader(path)
    r.expect("[META]")
    line = r.next()
    fields = line.split()
    if len(fields) != 2 or fields[0] != "iteration" or not fields[1].isdecimal():
        raise ValueError("%s: META section must be one line 'iteration <count>', found %r"
                         % (path, line))
    iteration = int(fields[1])
    r.expect("[HMM]")
    head = r.next().split()
    if head[0] != "vocab":
        raise ValueError("%s: HMM section must begin with the vocabulary" % path)
    vocab = _vocabulary(head[1:], path)
    trans = r.matrix("transitions")
    lam = r.matrix("lambdas")[0]
    priors = r.matrix("priors")[0]
    r.expect("[MLP]")
    w1 = r.matrix("W1")
    b1 = r.matrix("b1")[0]
    w2 = r.matrix("W2")
    b2 = r.matrix("b2")[0]
    return vocab, HmmParams(trans, lam, priors), MlpParams(w1, b1, w2, b2), iteration


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
