import numpy as np
import pytest

from radroute import evaluate
from radroute.errors import ShapeError
from radroute.evaluate import (UndefinedMetricError, compare_table,
                               confusion_2x2, scores)


def block_mask(shape, rows, cols):
    m = np.zeros(shape, dtype=np.uint8)
    m[rows, cols] = 1
    return m


def keep_all(mask):
    """The ignore mask that ignores no pixel of mask."""
    return np.zeros(mask.shape, dtype=bool)


class TestMetrics:
    def test_perfect_prediction(self):
        truth = block_mask((8, 8), slice(2, 5), slice(1, 7))
        s = scores(truth, truth, keep_all(truth))
        assert s.iou == 1.0
        assert s.pixel_accuracy == 1.0

    def test_disjoint_iou_zero(self):
        pred = block_mask((8, 8), slice(0, 2), slice(0, 8))
        truth = block_mask((8, 8), slice(6, 8), slice(0, 8))
        assert scores(pred, truth, keep_all(truth)).iou == 0.0

    def test_half_coverage_no_false_positives(self):
        truth = block_mask((8, 8), slice(0, 4), slice(0, 8))
        pred = block_mask((8, 8), slice(0, 2), slice(0, 8))
        assert scores(pred, truth, keep_all(truth)).iou == 0.5

    def test_both_empty_iou_one(self):
        empty = np.zeros((4, 4), dtype=np.uint8)
        s = scores(empty, empty, keep_all(empty))
        assert s.iou == 1.0
        assert s.pixel_accuracy == 1.0

    def test_confusion_counts(self):
        pred = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        truth = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        c = confusion_2x2(pred, truth, keep_all(truth))
        np.testing.assert_array_equal(c, [[1, 1], [1, 1]])
        assert c.sum() == pred.size

    def test_ignore_mask_restricts_counts(self):
        pred = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        truth = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        ignore = np.array([[False, True], [True, False]])
        c = confusion_2x2(pred, truth, ignore)
        assert c.sum() == 2
        assert scores(pred, truth, ignore).pixel_accuracy == 1.0

    def test_all_ignored_undefined(self):
        pred = np.zeros((3, 3), dtype=np.uint8)
        with pytest.raises(UndefinedMetricError):
            scores(pred, pred, np.ones((3, 3), dtype=bool))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            scores(np.zeros((2, 2)), np.zeros((3, 3)),
                   np.zeros((2, 2), dtype=bool))
        with pytest.raises(ShapeError):
            scores(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((3, 3)))

    def test_relabel_symmetry(self):
        # swapping positive/negative in both pred and truth keeps accuracy
        rng = np.random.default_rng(0)
        pred = (rng.random((16, 16)) < 0.4).astype(np.uint8)
        truth = (rng.random((16, 16)) < 0.4).astype(np.uint8)
        assert (scores(pred, truth, keep_all(truth)).pixel_accuracy
                == scores(1 - pred, 1 - truth, keep_all(truth)).pixel_accuracy)

    def test_scores_bundle(self):
        truth = block_mask((8, 8), slice(0, 4), slice(0, 8))
        pred = block_mask((8, 8), slice(0, 2), slice(0, 8))
        s = scores(pred, truth, keep_all(truth))
        assert s.iou == 0.5
        assert s.pixel_accuracy == 0.75
        assert s.confusion.sum() == 64


class TestRegionReport:
    """Scores restricted to a region: the ignore mask is its complement."""

    def test_whole_image_equals_global(self):
        rng = np.random.default_rng(1)
        pred = (rng.random((10, 10)) < 0.5).astype(np.uint8)
        truth = (rng.random((10, 10)) < 0.5).astype(np.uint8)
        whole = scores(pred, truth, np.zeros((10, 10), dtype=bool))
        p, t = pred.astype(bool), truth.astype(bool)
        assert whole.iou == (p & t).sum() / (p | t).sum()
        assert whole.pixel_accuracy == (p == t).mean()

    def test_single_correct_pixel(self):
        pred = block_mask((4, 4), 1, 1)
        region = np.zeros((4, 4), dtype=bool)
        region[1, 1] = True
        s = scores(pred, pred, ~region)
        assert s.pixel_accuracy == 1.0
        assert s.confusion.sum() == 1

    def test_empty_region_rejected(self):
        pred = np.zeros((4, 4), dtype=np.uint8)
        with pytest.raises(UndefinedMetricError):
            scores(pred, pred, np.ones((4, 4), dtype=bool))


class TestCompareTable:
    ROWS = [("spectrogram", [98.5, 98.1, 98.9]),
            ("mel", [98.8, 99.0, 98.6]),
            ("gammatone", [99.4, 99.2, 99.5])]

    def test_three_rows_plus_average(self):
        text = compare_table(["trial 1", "trial 2", "trial 3"], self.ROWS)
        lines = text.strip().splitlines()
        assert len(lines) == 5  # header + 3 rows + average
        assert lines[-1].startswith("Average")
        avg = np.mean([v for _, v in self.ROWS], axis=0)
        assert f"{avg[0]:.1f}" in lines[-1]

    def test_single_row_no_average(self):
        text = compare_table(["a", "b"], [("only", [1.0, 2.0])])
        assert "Average" not in text
        assert len(text.strip().splitlines()) == 2

    def test_identical_inputs_identical_bytes(self):
        cols = ["t1", "t2", "t3"]
        assert compare_table(cols, self.ROWS) == compare_table(cols,
                                                               self.ROWS)

    def test_columns_aligned(self):
        text = compare_table(["t1", "t2", "t3"], self.ROWS)
        lines = text.rstrip("\n").splitlines()
        widths = {len(line) for line in lines}
        assert len(widths) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compare_table(["a"], [])
