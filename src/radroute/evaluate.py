"""Segmentation metrics and comparison tables."""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


class UndefinedMetricError(RuntimeError):
    """Every pixel was ignored; the metric has no value."""


@dataclass
class SegScores:
    pixel_accuracy: float
    iou: float
    confusion: np.ndarray  # 2x2 counts, rows true (neg, pos), cols predicted


def _validate(pred: np.ndarray, truth: np.ndarray, ignore_mask: np.ndarray):
    if pred.shape != truth.shape:
        raise ShapeError("prediction/truth shape mismatch")
    if ignore_mask.shape != pred.shape:
        raise ShapeError("ignore mask shape mismatch")
    keep = ~ignore_mask.astype(bool)
    if not keep.any():
        raise UndefinedMetricError("all pixels ignored")
    return keep


def confusion_2x2(pred: np.ndarray, truth: np.ndarray,
                  ignore_mask: np.ndarray) -> np.ndarray:
    keep = _validate(pred, truth, ignore_mask)
    p = pred.astype(bool)[keep]
    t = truth.astype(bool)[keep]
    tn = int((~t & ~p).sum())
    fp = int((~t & p).sum())
    fn = int((t & ~p).sum())
    tp = int((t & p).sum())
    return np.array([[tn, fp], [fn, tp]], dtype=np.int64)


def scores(pred, truth, ignore_mask) -> SegScores:
    """Pixel accuracy and positive-class IoU, TP/(TP+FP+FN), over the
    pixels not ignored; IoU is 1 when both masks are empty."""
    c = confusion_2x2(pred, truth, ignore_mask)
    denom = c[1, 1] + c[0, 1] + c[1, 0]
    return SegScores(
        pixel_accuracy=float(np.trace(c)) / float(c.sum()),
        iou=1.0 if denom == 0 else float(c[1, 1]) / float(denom),
        confusion=c,
    )


def compare_table(column_names: list, rows: list) -> str:
    """Aligned text table of named score rows, one decimal each, plus an
    average row.

    rows: list of (name, values) with len(values) == len(column_names).
    A single row renders without the average.
    """
    if not rows:
        raise ValueError("need at least one row")
    body = [(name, [f"{v:.1f}" for v in values])
            for name, values in rows]
    if len(rows) > 1:
        avg = np.mean([values for _, values in rows], axis=0)
        body.append(("Average", [f"{v:.1f}" for v in avg]))
    name_w = max(len(n) for n, _ in body)
    col_ws = [max(len(c), max(len(vals[i]) for _, vals in body))
              for i, c in enumerate(column_names)]
    lines = [" " * name_w + "  " +
             "  ".join(c.rjust(w) for c, w in zip(column_names, col_ws))]
    for name, vals in body:
        lines.append(name.ljust(name_w) + "  "
                     + "  ".join(v.rjust(w) for v, w in zip(vals, col_ws)))
    return "\n".join(lines) + "\n"
