"""Shared domain types for frame-labeled video segmentation.

Label ids are dense ints assigned by position in a Vocabulary.  Background,
if present, is an ordinary label with no special handling anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Vocabulary:
    """Ordered action names; a label id is the name's position."""

    def __init__(self, names):
        names = tuple(str(n) for n in names)
        if not names:
            raise ValueError("vocabulary is empty")
        if len(set(names)) != len(names):
            raise ValueError("duplicate names in vocabulary")
        for n in names:
            if not n or any(ch.isspace() for ch in n):
                raise ValueError("action names must be non-empty and whitespace-free: %r" % (n,))
        self.names = names
        self._ids = {n: i for i, n in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __eq__(self, other):
        return isinstance(other, Vocabulary) and self.names == other.names

    def __repr__(self):
        return "Vocabulary(%r)" % (list(self.names),)

    def id_of(self, name):
        try:
            return self._ids[name]
        except KeyError:
            raise ValueError("unknown action name %r" % (name,)) from None

    def name_of(self, label):
        if not 0 <= label < len(self.names):
            raise ValueError("label id %r out of range" % (label,))
        return self.names[label]


@dataclass(frozen=True)
class ActionSet:
    """Unordered set of label ids present in a video; stored sorted."""

    labels: tuple

    def __init__(self, labels):
        labels = tuple(sorted(int(c) for c in labels))
        if not labels:
            raise ValueError("action set is empty")
        if labels[0] < 0:
            raise ValueError("negative label id")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels in action set")
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label):
        return label in self.labels

    def as_array(self):
        return np.asarray(self.labels, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class FrameFeatures:
    """Per-frame feature matrix, shape (T, D), float64, finite."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError("features must be a (T, D) matrix with T, D >= 1")
        if not np.all(np.isfinite(values)):
            raise ValueError("features contain non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def num_frames(self):
        return self.values.shape[0]

    @property
    def dim(self):
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class FrameLabeling:
    """Dense per-frame label ids, shape (T,)."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.shape[0] < 1:
            raise ValueError("frame labeling must be a non-empty 1-d array")
        if labels.min() < 0:
            raise ValueError("negative label id in frame labeling")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @property
    def num_frames(self):
        return self.labels.shape[0]


@dataclass(frozen=True)
class Segmentation:
    """Ordered labeled segments: parallel tuples of label ids and frame counts."""

    actions: tuple
    lengths: tuple

    def __init__(self, actions, lengths):
        actions = tuple(int(c) for c in actions)
        lengths = tuple(int(l) for l in lengths)
        if not actions or len(actions) != len(lengths):
            raise ValueError("need equally many actions and lengths, at least one segment")
        if any(c < 0 for c in actions):
            raise ValueError("negative label id")
        if any(l < 1 for l in lengths):
            raise ValueError("segment lengths must be >= 1 frame")
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "lengths", lengths)

    @property
    def num_frames(self):
        return sum(self.lengths)


def expand_segmentation(seg):
    """Segment list -> per-frame labels."""
    return FrameLabeling(np.repeat(np.asarray(seg.actions, dtype=np.int64),
                                   np.asarray(seg.lengths, dtype=np.int64)))


def label_array(labeling):
    """The per-frame label ids of a FrameLabeling or an array-like."""
    return labeling.labels if isinstance(labeling, FrameLabeling) else np.asarray(labeling)


def segmentation_from_labels(labeling):
    """Per-frame labels -> maximal-run segment list (inverse of expand)."""
    labels = label_array(labeling)
    change = np.flatnonzero(np.diff(labels)) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [labels.shape[0]]))
    return Segmentation(labels[starts], ends - starts)


def validate_segmentation(seg, num_frames, action_set):
    """True iff the segments (positive lengths by construction) tile exactly
    num_frames and every label of the action set appears at least once."""
    if seg.num_frames != num_frames:
        return False
    return set(action_set).issubset(set(seg.actions))
