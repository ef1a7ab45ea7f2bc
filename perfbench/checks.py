"""Output checks for one `msvar segment` operation.

Every check returns a list of problems (empty when the output is right). Each
compares the output with ground truth, with a formula written here apart from
msvar, or with a property the method must have; none compares with a stored
copy of an earlier output.
"""

import itertools
import json
import math

import numpy as np

# `msvar eval` and the formulas here differ only in summation order.
EVAL_TOL = 1e-12


def contingency(pred, gt):
    """(P, G) pixel counts of pred label p meeting gt label g, labels 0..P-1 / 0..G-1."""
    pred = np.asarray(pred).ravel()
    gt = np.asarray(gt).ravel()
    p, g = int(pred.max()) + 1, int(gt.max()) + 1
    return np.bincount(pred * g + gt, minlength=p * g).reshape(p, g)


def best_mean_iou(pred, gt, num_classes):
    """Per-class IoU averaged over classes, under the best relabelling of pred."""
    table = np.zeros((num_classes, num_classes), dtype=np.int64)
    t = contingency(pred, gt)
    table[: t.shape[0], : t.shape[1]] = t[:num_classes, :num_classes]
    pred_sizes = table.sum(axis=1)
    gt_sizes = table.sum(axis=0)
    best = 0.0
    for perm in itertools.permutations(range(num_classes)):
        # pred label perm[k] is read as gt class k
        ious = []
        for k, p in enumerate(perm):
            inter = table[p, k]
            union = pred_sizes[p] + gt_sizes[k] - inter
            ious.append(inter / union if union else 1.0)
        best = max(best, sum(ious) / num_classes)
    return best


def partition_scores(pred, gt):
    """(rc, pri, vi) from the contingency table, natural log for VI."""
    table = contingency(pred, gt)
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    n = int(table.sum())
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    rc = 0.0
    for j in range(table.shape[1]):
        rc += b[j] * max(table[i, j] / (a[i] + b[j] - table[i, j]) for i in range(table.shape[0]))
    rc /= n

    def c2(k):
        return int(k) * (int(k) - 1) // 2

    same_both = sum(c2(v) for v in table.ravel())
    agree = c2(n) + 2 * same_both - sum(c2(v) for v in a) - sum(c2(v) for v in b)
    pri = agree / c2(n)

    vi = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            nij = table[i, j]
            if nij:
                # VI = -sum p_ij (log(p_ij / p_i) + log(p_ij / p_j))
                vi -= nij / n * (math.log(nij / a[i]) + math.log(nij / b[j]))
    return float(rc), float(pri), max(float(vi), 0.0)


def iou_of_class(pred, gt, k):
    inter = int(np.sum((pred == k) & (gt == k)))
    union = int(np.sum((pred == k) | (gt == k)))
    return inter / union if union else 1.0


def check_mask(mask, shape, num_classes):
    if mask.shape != shape:
        return [f"mask shape {mask.shape}, expected {shape}"]
    if mask.min() < 0 or mask.max() >= num_classes:
        return [f"mask labels span {mask.min()}..{mask.max()}, expected 0..{num_classes - 1}"]
    return []


def check_iou(mean_iou, floor):
    if not mean_iou >= floor:
        return [f"mean IoU {mean_iou:.6f} below the floor {floor}"]
    return []


def parse_eval(stdout):
    """The CSV row of `msvar eval` as a dict of floats (empty cells omitted)."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError(f"unexpected eval output {stdout!r}")
    header, row = lines[-2].split(","), lines[-1].split(",")
    return {k: float(v) for k, v in zip(header, row) if v != ""}


def check_eval_row(row, mask, gt, num_classes):
    problems = []
    expect = dict(zip(("rc", "pri", "vi"), partition_scores(mask, gt)))
    if num_classes == 2:
        expect["iou"] = iou_of_class(mask, gt, 1)
    for key, want in expect.items():
        got = row.get(key)
        if got is None or not abs(got - want) <= EVAL_TOL:
            problems.append(f"eval {key} = {got!r}, own formula gives {want!r}")
    return problems


def parse_trace(text):
    """trace.csv as (header, float rows)."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))


def check_trace(header, rows, results, monotone):
    """Each loss is the sum of its terms; run.json agrees with the trace; descent if promised."""
    problems = []
    if header[:2] != ["iter", "loss"] or len(header) < 4:
        return [f"unexpected trace header {header}"]
    if len(rows) == 0:
        return ["empty trace"]
    if not np.array_equal(rows[:, 0], np.arange(len(rows))):
        problems.append("trace iteration column is not 0, 1, 2, ...")
    loss = rows[:, 1]
    terms = rows[:, 2:].sum(axis=1)
    off = np.abs(loss - terms) > 1e-12 * np.maximum(1.0, np.abs(loss))
    if off.any():
        problems.append(f"trace row {int(np.argmax(off))}: loss is not the sum of its terms")
    if results.get("iterations") != len(rows) - 1:
        problems.append(f"run.json iterations {results.get('iterations')} but {len(rows) - 1} trace steps")
    if results.get("final_loss") != loss[-1]:
        problems.append(f"run.json final_loss {results.get('final_loss')} but trace ends at {float(loss[-1])!r}")
    if monotone:
        rise = np.diff(loss) > 0
        if rise.any():
            problems.append(f"loss rises at trace step {int(np.argmax(rise)) + 1} despite backtracking")
    return problems


def check_region_means(centroids, image, mask, num_classes):
    """Centroids equal the plain per-class image means over the mask (0 for an empty class)."""
    counts = np.bincount(mask.ravel(), minlength=num_classes)
    sums = np.bincount(mask.ravel(), weights=image.ravel(), minlength=num_classes)
    want = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    got = np.asarray(centroids, dtype=np.float64).reshape(-1)
    if got.shape != want.shape or not np.all(np.abs(got - want) <= 1e-12):
        return [f"centroids {got.tolist()} but per-class image means are {want.tolist()}"]
    return []


def check_bias(b, b_true, corr_floor):
    problems = []
    if abs(float(b.mean()) - 1.0) > 1e-12:
        problems.append(f"bias field off gauge: mean(b) = {float(b.mean())!r}")
    corr = float(np.corrcoef(b.ravel(), b_true.ravel())[0, 1])
    if not corr >= corr_floor:
        problems.append(f"corr(b, b_true) = {corr:.4f} below the floor {corr_floor}")
    return problems


def check_identical(first, files):
    """Repeated operations must write byte-identical files."""
    return [f"{name} differs from the first operation's" for name in sorted(first) if files.get(name) != first[name]]


def check_exit(code, results):
    """Exit 0 means converged, 3 means the budget ran out; both write outputs."""
    want = {0: True, 3: False}.get(code)
    if want is None:
        return [f"exit code {code}"]
    if results.get("converged") is not want:
        return [f"exit code {code} but run.json converged = {results.get('converged')!r}"]
    return []


def load_results(text):
    return json.loads(text)["results"]
