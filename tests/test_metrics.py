import numpy as np
import pytest

from msvar import grid, metrics
from msvar.metrics import ConfusionCounts, clustering_metrics, overlap_metrics

from oracles import clustering_loop, confusion_table_unique, overlap_loop


def test_identical_masks_score_one():
    rng = np.random.default_rng(0)
    m = rng.integers(0, 2, (8, 8))
    m[0, 0] = 1
    iou, dice, precision, recall = overlap_metrics(m, m, 1)
    assert (iou, dice, precision, recall) == (1.0, 1.0, 1.0, 1.0)


def test_disjoint_masks_score_zero():
    gt = np.zeros((4, 4), dtype=int)
    gt[:, :2] = 1
    pred = 1 - gt
    iou, dice, _, _ = overlap_metrics(pred, gt, 1)
    assert iou == 0.0 and dice == 0.0


def test_overlap_matches_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        pred = rng.integers(0, 3, (8, 8))
        gt = rng.integers(0, 3, (8, 8))
        assert overlap_metrics(pred, gt, 1) == overlap_loop(pred, gt, 1)


def test_empty_denominator_conventions():
    zeros = np.zeros((4, 4), dtype=int)
    ones = np.ones((4, 4), dtype=int)
    # class 1 absent from both -> all ones
    assert overlap_metrics(zeros, zeros, 1) == (1.0, 1.0, 1.0, 1.0)
    # absent from pred only -> all zeros
    assert overlap_metrics(zeros, ones, 1) == (0.0, 0.0, 0.0, 0.0)
    # absent from gt only
    assert overlap_metrics(ones, zeros, 1) == (0.0, 0.0, 0.0, 0.0)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        overlap_metrics(np.zeros((4, 4), dtype=int), np.zeros((4, 5), dtype=int), 1)
    with pytest.raises(ValueError):
        clustering_metrics(np.zeros((4, 4), dtype=int), np.zeros((5, 4), dtype=int))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
@pytest.mark.parametrize("family", ["overlap", "clustering", "counts"])
def test_empty_maps_rejected(shape, family):
    call = {"overlap": lambda a, b: overlap_metrics(a, b, 1), "clustering": clustering_metrics,
            "counts": ConfusionCounts.from_maps}[family]
    with pytest.raises(ValueError, match=rf"empty, got shape \({shape[0]}, {shape[1]}\)"):
        call(np.zeros(shape, dtype=int), np.zeros(shape, dtype=int))


def test_clustering_identity():
    # VI is exactly 0.0 (not -0.0) for any map against itself, also for the
    # square, whose H + H - 2 I (I = H) does not round to 0
    square = np.zeros((8, 8), dtype=int)
    square[2:5, 2:5] = 1
    for m in (np.random.default_rng(2).integers(0, 4, (6, 6)), square):
        rc, pri, vi = clustering_metrics(m, m)
        assert rc == pytest.approx(1.0, abs=1e-12)
        assert pri == pytest.approx(1.0, abs=1e-12)
        assert vi == 0.0 and repr(vi) == "0.0"


def test_clustering_hand_enumerated_2x2():
    # pred one region, gt two equal halves: of the 6 pixel pairs only the two
    # within-gt pairs agree -> PRI 1/3; VI = ln 2
    pred = np.zeros((2, 2), dtype=int)
    gt = np.array([[0, 0], [1, 1]])
    rc, pri, vi = clustering_metrics(pred, gt)
    assert pri == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert vi == pytest.approx(np.log(2.0), abs=1e-12)
    assert rc == pytest.approx(0.5, abs=1e-12)


def test_clustering_matches_pairwise_oracle():
    rng = np.random.default_rng(3)
    for _ in range(8):
        pred = rng.integers(0, 4, (6, 6))
        gt = rng.integers(0, 4, (6, 6))
        got = clustering_metrics(pred, gt)
        want = clustering_loop(pred, gt)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9)


def test_clustering_ranges_and_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(10):
        pred = rng.integers(0, 5, (7, 7))
        gt = rng.integers(0, 3, (7, 7))
        rc, pri, vi = clustering_metrics(pred, gt)
        assert 0.0 <= pri <= 1.0
        assert vi >= 0.0
        assert 0.0 < rc <= 1.0
        _, pri_t, vi_t = clustering_metrics(gt, pred)
        assert vi_t == pytest.approx(vi, abs=1e-12)
        assert pri_t == pytest.approx(pri, abs=1e-12)


def test_relabeling_invariance():
    rng = np.random.default_rng(5)
    pred = rng.integers(0, 4, (6, 6))
    gt = rng.integers(0, 4, (6, 6))
    remap = np.array([3, 0, 2, 1])
    base = clustering_metrics(pred, gt)
    assert clustering_metrics(remap[pred], gt) == pytest.approx(base, abs=1e-12)
    assert clustering_metrics(pred, remap[gt]) == pytest.approx(base, abs=1e-12)
    # overlap metrics follow matched permutations
    a = overlap_metrics(pred, gt, 2)
    b = overlap_metrics(remap[pred], remap[gt], remap[2])
    assert a == b


def test_pri_closed_form_equals_pair_count():
    rng = np.random.default_rng(6)
    for _ in range(5):
        pred = rng.integers(0, 3, (5, 5))
        gt = rng.integers(0, 4, (5, 5))
        _, pri, _ = clustering_metrics(pred, gt)
        _, pri_loop, _ = clustering_loop(pred, gt)
        assert pri == pytest.approx(pri_loop, abs=1e-12)


def test_confusion_counts_totals():
    pred = np.array([[0, 0, 1], [1, 2, 2]])
    gt = np.array([[0, 1, 1], [1, 2, 0]])
    counts = ConfusionCounts.from_maps(pred, gt)
    assert counts.total == 6
    assert counts.table.sum() == 6
    tp, fp, fn, tn = counts.binary_counts(1)
    assert (tp, fp, fn, tn) == (2, 0, 1, 3)


def _label_pairs(shape, rng):
    """Named (pred, gt) pairs of one shape: small ints, strided views of
    larger arrays, negative and gapped labels, floats with a signed zero, and
    enough labels that the table outgrows a strip."""
    h, w = shape
    gapped = np.array([-7, -1, 3, 40])
    floats = np.array([-0.5, -0.0, 0.0, 0.25, 1e9])
    return {
        "ints": (rng.integers(0, 3, shape), rng.integers(0, 4, shape)),
        "strided": (rng.integers(0, 3, (2 * h, 3 * w))[::2, ::3], rng.integers(0, 2, (w, h)).T),
        "negative-gapped": (gapped[rng.integers(0, 4, shape)], rng.integers(-3, 0, shape)),
        "float": (floats[rng.integers(0, 5, shape)], rng.integers(0, 2, shape).astype(np.float64)),
        "many-labels": (rng.integers(0, 200, shape), rng.integers(0, 200, shape)),
    }


@pytest.mark.parametrize("strip", [1, 7, 64, grid.STRIP])
@pytest.mark.parametrize("shape", [(1, 1), (1, 29), (29, 1), (13, 11), (131, 127)])
def test_strip_counted_table_equals_the_whole_map_formula(monkeypatch, strip, shape):
    # a strip holds max(STRIP, cells) pixels in whole rows: at STRIP 1 and 7
    # as many as the table has cells, and at the default STRIP the 131x127
    # many-labels table (about 200 x 200 cells) outgrows a strip
    monkeypatch.setattr(metrics, "STRIP", strip)
    rng = np.random.default_rng(strip * 7919 + shape[0] * 31 + shape[1])
    for name, (pred, gt) in _label_pairs(shape, rng).items():
        counts = ConfusionCounts.from_maps(pred, gt)
        table, pred_labels, gt_labels = confusion_table_unique(pred, gt)
        for got, want in ((counts.table, table), (counts.pred_labels, pred_labels),
                          (counts.gt_labels, gt_labels)):
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_one_table_gives_both_metric_families():
    rng = np.random.default_rng(7)
    pred = rng.integers(0, 3, (9, 10))
    gt = rng.integers(0, 4, (9, 10))
    counts = ConfusionCounts.from_maps(pred, gt)
    assert counts.overlap(2) == overlap_metrics(pred, gt, 2) == overlap_loop(pred, gt, 2)
    assert counts.clustering() == clustering_metrics(pred, gt)
