import numpy as np
import pytest

from acvseg import metrics
from acvseg.acv import Anchor, AnchorSet
from acvseg.core import FrameLabeling, Segmentation


class TestMof:
    def test_identical_labelings(self):
        x = np.array([0, 1, 1, 2, 0])
        assert metrics.mof(x, x.copy()) == 1.0

    def test_one_mismatch_in_four(self):
        assert metrics.mof([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75

    def test_all_wrong(self):
        assert metrics.mof([0, 0, 0], [1, 2, 3]) == 0.0

    def test_accepts_frame_labeling_objects(self):
        a = FrameLabeling(np.array([0, 1, 1]))
        b = FrameLabeling(np.array([0, 1, 0]))
        assert metrics.mof(a, b) == pytest.approx(2 / 3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metrics.mof([0, 1], [0, 1, 2])

    def test_equals_the_frame_mean_bit_for_bit(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            t, c = int(rng.integers(1, 3000)), int(rng.integers(1, 8))
            pred, gt = rng.integers(0, c, size=t), rng.integers(0, c, size=t)
            assert metrics.mof(pred, gt).hex() == float((pred == gt).mean()).hex()


class TestCorpusMof:
    def test_frame_weighted_mean(self):
        pairs = [([0, 0], [0, 0]),
                 ([1, 1, 1, 1, 1, 1], [1, 1, 1, 0, 0, 0])]
        # 2 + 3 correct out of 8 frames, not the 0.75 a per-video mean gives
        assert metrics.corpus_mof(pairs) == pytest.approx(5 / 8)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            metrics.corpus_mof([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metrics.corpus_mof([([0], [0, 1])])


class TestIod:
    def test_pred_equals_gt(self):
        segs = [(0, 0, 10), (1, 10, 16), (0, 16, 30)]
        assert metrics.iod(segs, list(segs)) == 1.0

    def test_half_overlap(self):
        assert metrics.iod([(7, 5, 15)], [(7, 0, 10)]) == 0.5

    def test_absent_label_contributes_zero(self):
        assert metrics.iod([(0, 0, 10)], [(1, 0, 10)]) == 0.0
        assert metrics.iod([(1, 0, 10), (0, 0, 10)], [(1, 0, 10)]) == 0.5

    def test_largest_overlap_gt_is_used(self):
        # detection straddles two same-label GT segments: 3 frames in the
        # first, 5 in the second; denominator is the detection length 10
        gt = [(2, 0, 5), (9, 5, 7), (2, 7, 20)]
        assert metrics.iod([(2, 2, 12)], gt) == pytest.approx(5 / 10)

    def test_no_detections_rejected(self):
        with pytest.raises(ValueError):
            metrics.iod([], [(0, 0, 10)])


class TestMidpointHit:
    def test_pred_equals_gt(self):
        segs = [(0, 0, 9), (1, 9, 14), (0, 14, 31)]
        assert metrics.midpoint_hit(segs, list(segs)) == 1.0

    def test_midpoint_one_frame_outside(self):
        # detection [2, 9) has midpoint frame 5; GT [0, 5) just misses it
        assert metrics.midpoint_hit([(0, 2, 9)], [(0, 0, 5)]) == 0.0

    def test_wrong_label_is_no_hit(self):
        assert metrics.midpoint_hit([(1, 0, 10)], [(0, 0, 10)]) == 0.0

    def test_double_detection_counted_once(self):
        gt = [(0, 0, 10), (1, 10, 20)]
        dets = [(0, 0, 5), (0, 5, 10)]
        assert metrics.midpoint_hit(dets, gt) == 0.5

    def test_normalizes_by_gt_count(self):
        gt = [(0, 0, 10), (1, 10, 20), (2, 20, 30)]
        assert metrics.midpoint_hit([(1, 10, 20)], gt) == pytest.approx(1 / 3)

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError):
            metrics.midpoint_hit([(0, 0, 10)], [])


class TestAnchorIod:
    def test_anchor_inside_its_segment(self):
        anchors = AnchorSet([Anchor(0, 5, 3, 7)])
        assert metrics.anchor_iod(anchors, [(0, 0, 10)]) == 1.0

    def test_anchor_fully_outside(self):
        anchors = AnchorSet([Anchor(0, 15, 12, 18)])
        assert metrics.anchor_iod(anchors, [(0, 0, 10)]) == 0.0

    def test_half_overlapping_anchor(self):
        # inclusive [5, 14] is 10 frames, 5 of them inside GT [0, 10)
        anchors = AnchorSet([Anchor(0, 5, 5, 14)])
        assert metrics.anchor_iod(anchors, [(0, 0, 10)]) == 0.5

    def test_mean_over_anchors(self):
        anchors = AnchorSet([Anchor(0, 2, 1, 3), Anchor(1, 30, 28, 32)])
        gt = [(0, 0, 10), (1, 10, 20)]
        assert metrics.anchor_iod(anchors, gt) == 0.5


class TestInvariants:
    def test_range_and_self_agreement(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = int(rng.integers(2, 40))
            labels = rng.integers(0, 4, size=t)
            other = rng.integers(0, 4, size=t)
            segs = metrics.labeling_to_segments(labels)
            segs_other = metrics.labeling_to_segments(other)
            assert metrics.mof(labels, labels) == 1.0
            assert metrics.iod(segs, segs) == 1.0
            assert metrics.midpoint_hit(segs, segs) == 1.0
            for val in (metrics.mof(labels, other),
                        metrics.iod(segs, segs_other),
                        metrics.midpoint_hit(segs, segs_other)):
                assert 0.0 <= val <= 1.0

    def test_segment_order_permutation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = int(rng.integers(4, 40))
            pred = metrics.labeling_to_segments(rng.integers(0, 3, size=t))
            gt = metrics.labeling_to_segments(rng.integers(0, 3, size=t))
            pred_shuf = list(pred)
            gt_shuf = list(gt)
            rng.shuffle(pred_shuf)
            rng.shuffle(gt_shuf)
            assert metrics.iod(pred_shuf, gt_shuf) == pytest.approx(
                metrics.iod(pred, gt))
            assert metrics.midpoint_hit(pred_shuf, gt_shuf) == pytest.approx(
                metrics.midpoint_hit(pred, gt))


class TestSegmentConversions:
    def test_labeling_to_segments_runs(self):
        segs = metrics.labeling_to_segments([0, 0, 1, 1, 0])
        assert segs == [(0, 0, 2), (1, 2, 4), (0, 4, 5)]

    def test_segmentation_to_segments(self):
        seg = Segmentation([0, 1], [3, 2])
        assert metrics.segmentation_to_segments(seg) == [(0, 0, 3), (1, 3, 5)]


class TestReportFormats:
    def test_csv(self):
        out = metrics.format_csv(["video", "mof"], [["v1", 0.5], ["v2", 1.0]])
        assert out.splitlines() == ["video,mof", "v1,0.5000", "v2,1.0000"]

    def test_table_aligns_and_keeps_tokens(self):
        out = metrics.format_table(["metric", "value"], [["mof", 0.925]])
        lines = out.splitlines()
        assert lines[0].split() == ["metric", "value"]
        assert lines[1].split() == ["mof", "0.9250"]
        assert lines[1].index("0.9250") == lines[0].index("value")
