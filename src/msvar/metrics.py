"""Segmentation quality metrics.

Overlap metrics (IoU, Dice, precision, recall) score one class of interest
against ground truth; the clustering metrics (region covering, Rand index
over pixel pairs, variation of information) compare whole partitions and are
invariant to relabeling. Regions are label identity, not connected
components.
"""

from dataclasses import dataclass

import numpy as np

from .grid import STRIP


def _check_pair(pred, gt):
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape or pred.ndim != 2:
        raise ValueError(f"label maps must share an (H, W) shape, got {pred.shape} vs {gt.shape}")
    if pred.size == 0:
        raise ValueError(f"label maps must not be empty, got shape {pred.shape}")
    return pred, gt


@dataclass(frozen=True)
class ConfusionCounts:
    """Contingency table between two label maps plus the label values."""

    table: np.ndarray        # (num_pred_labels, num_gt_labels) pixel counts
    pred_labels: np.ndarray
    gt_labels: np.ndarray

    @classmethod
    def from_maps(cls, pred, gt):
        """Count the table in one pass over row strips of max(STRIP, cells)
        pixels, cells = len(pred_labels) * len(gt_labels): per strip each
        pixel's two label indices are found by np.searchsorted in the sorted
        labels and one np.bincount of pi * G + gi adds into the table. Beyond
        np.unique's sorted copy of each map, nothing image-sized is formed."""
        pred, gt = _check_pair(pred, gt)
        pred_labels, gt_labels = np.unique(pred), np.unique(gt)
        cells = len(pred_labels) * len(gt_labels)
        table = np.zeros(cells, dtype=np.intp)
        rows = max(1, max(STRIP, cells) // pred.shape[1])
        for r in range(0, pred.shape[0], rows):
            key = np.searchsorted(pred_labels, pred[r : r + rows].ravel())
            key *= len(gt_labels)
            key += np.searchsorted(gt_labels, gt[r : r + rows].ravel())
            table += np.bincount(key, minlength=cells)
        return cls(
            table=table.reshape(len(pred_labels), len(gt_labels)),
            pred_labels=pred_labels,
            gt_labels=gt_labels,
        )

    @property
    def total(self):
        return int(self.table.sum())

    def binary_counts(self, positive_class):
        """(TP, FP, FN, TN) for `positive_class` taken as the foreground."""
        in_pred = self.pred_labels == positive_class
        in_gt = self.gt_labels == positive_class
        tp = int(self.table[np.ix_(in_pred, in_gt)].sum())
        fp = int(self.table[in_pred, :].sum()) - tp
        fn = int(self.table[:, in_gt].sum()) - tp
        tn = self.total - tp - fp - fn
        return tp, fp, fn, tn

    def overlap(self, positive_class):
        """overlap_metrics of the two maps, from this table."""
        tp, fp, fn, _ = self.binary_counts(positive_class)
        both_empty = (tp + fp == 0) and (tp + fn == 0)
        iou = _ratio(tp, tp + fp + fn, both_empty)
        dice = _ratio(2 * tp, 2 * tp + fp + fn, both_empty)
        precision = _ratio(tp, tp + fp, both_empty)
        recall = _ratio(tp, tp + fn, both_empty)
        return iou, dice, precision, recall

    def clustering(self):
        """clustering_metrics of the two maps, from this table."""
        table = self.table
        n = self.total

        gt_sizes = table.sum(axis=0)      # per ground-truth region
        pred_sizes = table.sum(axis=1)
        union = gt_sizes[None, :] + pred_sizes[:, None] - table
        jac = np.where(union > 0, table / np.maximum(union, 1), 0.0)
        rc = float(np.sum(gt_sizes * jac.max(axis=0)) / n)

        # pair counting with exact integer arithmetic
        def pairs(k):
            return int(k) * (int(k) - 1) // 2

        together_both = sum(pairs(v) for v in table.reshape(-1))
        together_pred = sum(pairs(v) for v in pred_sizes)
        together_gt = sum(pairs(v) for v in gt_sizes)
        total_pairs = pairs(n)
        agreements = total_pairs + 2 * together_both - together_pred - together_gt
        pri = agreements / total_pairs if total_pairs > 0 else 1.0

        # VI from the joint, sum_ij p_ij (log(p_i / p_ij) + log(p_j / p_ij)), in
        # counts: no term is negative, and each is exactly 0 where a region of
        # one map is a region of the other, so a map against itself gives 0.0
        i, j = np.nonzero(table)
        n_ij = table[i, j]
        vi = float(np.sum(n_ij / n * (np.log(pred_sizes[i] / n_ij) + np.log(gt_sizes[j] / n_ij))))
        return rc, pri, vi


def _ratio(num, den, both_empty):
    if den == 0:
        return 1.0 if both_empty else 0.0
    return num / den


def overlap_metrics(pred, gt, positive_class):
    """(iou, dice, precision, recall) of the given class.

    Empty-denominator cases follow the convention: 1 if both masks are empty,
    0 otherwise.
    """
    return ConfusionCounts.from_maps(pred, gt).overlap(positive_class)


def clustering_metrics(pred, gt):
    """(rc, pri, vi) comparing two partitions of the same pixel grid.

    rc: mean best-overlap covering of ground-truth regions by predicted
    regions, weighted by region size. pri: fraction of pixel pairs on which
    the two partitions agree (same/different), in closed form from the
    contingency table. vi: H(pred) + H(gt) - 2 I(pred, gt), natural log, taken
    from the joint distribution as -sum_ij p_ij (log(p_ij / p_i) + log(p_ij / p_j)),
    so it is exactly 0.0 for two maps with the same regions.
    """
    return ConfusionCounts.from_maps(pred, gt).clustering()
