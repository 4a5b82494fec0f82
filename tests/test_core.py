import numpy as np
import pytest

from acvseg.core import (ActionSet, FrameFeatures, FrameLabeling, Segmentation,
                         Vocabulary, expand_segmentation, label_array,
                         segmentation_from_labels, validate_segmentation)


def test_expand_single_segment():
    seg = Segmentation([0], [3])
    assert expand_segmentation(seg).labels.tolist() == [0, 0, 0]


def test_expand_two_segments():
    seg = Segmentation([0, 1], [2, 1])
    assert expand_segmentation(seg).labels.tolist() == [0, 0, 1]


def test_expand_then_run_length_recovers_segments():
    seg = Segmentation([2, 0, 2, 1], [4, 1, 2, 3])
    back = segmentation_from_labels(expand_segmentation(seg))
    assert back == seg


def test_expand_preserves_total_length():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        lengths = rng.integers(1, 9, size=n).tolist()
        seg = Segmentation(rng.integers(0, 4, size=n).tolist(), lengths)
        assert expand_segmentation(seg).num_frames == sum(lengths)


def test_validate_accepts_covering_tiling():
    assert validate_segmentation(Segmentation([0, 1], [5, 5]), 10, ActionSet([0, 1]))


def test_validate_rejects_missing_action():
    assert not validate_segmentation(Segmentation([0], [10]), 10, ActionSet([0, 1]))


def test_validate_rejects_length_mismatch():
    assert not validate_segmentation(Segmentation([0, 1], [5, 4]), 10, ActionSet([0, 1]))


def test_segmentation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Segmentation([], [])
    with pytest.raises(ValueError):
        Segmentation([0, 1], [3])
    with pytest.raises(ValueError):
        Segmentation([0], [0])
    with pytest.raises(ValueError):
        Segmentation([-1], [3])


def test_action_set_sorted_unique_nonempty():
    s = ActionSet([3, 1, 2])
    assert s.labels == (1, 2, 3)
    assert 2 in s and 0 not in s
    with pytest.raises(ValueError):
        ActionSet([])
    with pytest.raises(ValueError):
        ActionSet([1, 1])
    with pytest.raises(ValueError):
        ActionSet([-2])


def test_frame_features_invariants():
    x = FrameFeatures(np.zeros((4, 2)))
    assert x.num_frames == 4 and x.dim == 2
    with pytest.raises(ValueError):
        FrameFeatures(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        FrameFeatures(np.zeros((0, 2)))


def test_frame_labeling_length():
    lab = FrameLabeling(np.array([0, 0, 1]))
    assert lab.num_frames == 3
    with pytest.raises(ValueError):
        FrameLabeling(np.array([], dtype=np.int64))


def test_vocabulary_bijection():
    vocab = Vocabulary(["walk", "run"])
    assert vocab.id_of("run") == 1
    assert vocab.name_of(0) == "walk"
    assert len(vocab) == 2
    with pytest.raises(ValueError):
        Vocabulary(["walk", "walk"])
    with pytest.raises(ValueError):
        vocab.id_of("jump")


def test_label_array_reads_labelings_and_array_likes():
    labeling = FrameLabeling([2, 0, 1])
    assert label_array(labeling) is labeling.labels
    assert label_array([2, 0, 1]).tolist() == [2, 0, 1]
