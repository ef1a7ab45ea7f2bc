"""Straight-loop reference implementations used to pin the vectorized code.

Everything here is written with explicit Python loops over pixels and
classes, independent of the library's numpy formulations.
"""

import math

import numpy as np


def grad_forward_loop(f):
    h, w = f.shape
    gx = np.zeros((h, w))
    gy = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            if j + 1 < w:
                gx[i, j] = f[i, j + 1] - f[i, j]
            if i + 1 < h:
                gy[i, j] = f[i + 1, j] - f[i, j]
    return gx, gy


def tv_smooth_loop(f, eps):
    gx, gy = grad_forward_loop(f)
    h, w = f.shape
    total = 0.0
    for i in range(h):
        for j in range(w):
            total += math.sqrt(gx[i, j] ** 2 + gy[i, j] ** 2 + eps * eps)
    return total - h * w * eps


def softmax_loop(z):
    n, h, w = z.shape
    y = np.zeros_like(z)
    for i in range(h):
        for j in range(w):
            m = max(z[k, i, j] for k in range(n))
            e = [math.exp(z[k, i, j] - m) for k in range(n)]
            s = sum(e)
            for k in range(n):
                y[k, i, j] = e[k] / s
    return y


def centroids_loop(x, y, eps_den=1e-8):
    n = y.shape[0]
    h, w, c = x.shape
    out = np.zeros((n, c))
    for k in range(n):
        den = 0.0
        for i in range(h):
            for j in range(w):
                den += y[k, i, j]
        for ch in range(c):
            num = 0.0
            for i in range(h):
                for j in range(w):
                    num += x[i, j, ch] * y[k, i, j]
            out[k, ch] = num / (den + eps_den)
    return out


def bias_centroids_loop(x, y, b, eps_den=1e-8):
    n = y.shape[0]
    h, w, c = x.shape
    out = np.zeros((n, c))
    for k in range(n):
        den = 0.0
        for i in range(h):
            for j in range(w):
                den += b[i, j] * b[i, j] * y[k, i, j]
        for ch in range(c):
            num = 0.0
            for i in range(h):
                for j in range(w):
                    num += b[i, j] * x[i, j, ch] * y[k, i, j]
            out[k, ch] = num / (den + eps_den)
    return out


def ms_loss_loop(x, y, lam, tv_eps, eps_den=1e-8):
    n = y.shape[0]
    h, w, nc = x.shape
    c = centroids_loop(x, y, eps_den)
    data = 0.0
    for k in range(n):
        for i in range(h):
            for j in range(w):
                d = sum((x[i, j, ch] - c[k, ch]) ** 2 for ch in range(nc))
                data += d * y[k, i, j]
    tv = lam * sum(tv_smooth_loop(y[k], tv_eps) for k in range(n))
    return data + tv, data, tv


def bias_ms_loss_loop(x, y, b, lam, gamma, tv_eps, eps_den=1e-8):
    n = y.shape[0]
    h, w, nc = x.shape
    c = bias_centroids_loop(x, y, b, eps_den)
    data = 0.0
    for k in range(n):
        for i in range(h):
            for j in range(w):
                d = sum((x[i, j, ch] - b[i, j] * c[k, ch]) ** 2 for ch in range(nc))
                data += d * y[k, i, j]
    tv_y = lam * sum(tv_smooth_loop(y[k], tv_eps) for k in range(n))
    tv_b = gamma * tv_smooth_loop(b, tv_eps)
    return data + tv_y + tv_b, data, tv_y, tv_b


def divergence_normalized_loop(f, eps):
    """div(grad f / |grad f|): forward-difference gradient, normalized with
    the eps guard, backward-difference divergence."""
    h, w = f.shape
    gx, gy = grad_forward_loop(f)
    qx = np.zeros((h, w))
    qy = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            mag = math.sqrt(gx[i, j] ** 2 + gy[i, j] ** 2 + eps * eps)
            qx[i, j] = gx[i, j] / mag
            qy[i, j] = gy[i, j] / mag
    div = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            div[i, j] = qx[i, j] + qy[i, j]
            if j > 0:
                div[i, j] -= qx[i, j - 1]
            if i > 0:
                div[i, j] -= qy[i - 1, j]
    return div


def fixed_point_velocity_loop(x, y, c, lam, tv_eps):
    """Transcription of the relaxed fixed-point velocity:
    lam * div(grad y_n/|grad y_n|) + sum_i (-1)^{delta(n,i)} ||x - c_i||^2."""
    n = y.shape[0]
    h, w, nc = x.shape
    vel = np.zeros((n, h, w))
    for k in range(n):
        curv = divergence_normalized_loop(y[k], tv_eps)
        for i in range(h):
            for j in range(w):
                comp = 0.0
                for m in range(n):
                    d = sum((x[i, j, ch] - c[m, ch]) ** 2 for ch in range(nc))
                    comp += -d if m == k else d
                vel[k, i, j] = lam * curv[i, j] + comp
    return vel


def heaviside_loop(phi, eps_h):
    return 0.5 * (1.0 + (2.0 / math.pi) * np.arctan(phi / eps_h))


def delta_loop(phi, eps_h):
    return (eps_h / math.pi) / (eps_h**2 + phi**2)


def curvature_central_loop(phi, guard=1e-8):
    h, w = phi.shape
    kappa = np.zeros((h, w))
    def at(i, j):
        return phi[min(max(i, 0), h - 1), min(max(j, 0), w - 1)]
    for i in range(h):
        for j in range(w):
            fx = 0.5 * (at(i, j + 1) - at(i, j - 1))
            fy = 0.5 * (at(i + 1, j) - at(i - 1, j))
            fxx = at(i, j + 1) - 2 * at(i, j) + at(i, j - 1)
            fyy = at(i + 1, j) - 2 * at(i, j) + at(i - 1, j)
            fxy = 0.25 * (at(i + 1, j + 1) - at(i + 1, j - 1) - at(i - 1, j + 1) + at(i - 1, j - 1))
            num = fxx * fy * fy - 2 * fx * fy * fxy + fyy * fx * fx
            kappa[i, j] = num / ((fx * fx + fy * fy) ** 1.5 + guard)
    return kappa


def levelset_velocity_loop(x, phi, eps_h, lam, eps_den=1e-8):
    """Transcription of the two-level-function evolution equations.

    Class index = 2*[phi1>0] + [phi2>0]; returns (v1, v2).
    """
    h, w, nc = x.shape
    phi1, phi2 = phi[0], phi[1]
    h1 = heaviside_loop(phi1, eps_h)
    h2 = heaviside_loop(phi2, eps_h)
    chi = [
        (1 - h1) * (1 - h2),
        (1 - h1) * h2,
        h1 * (1 - h2),
        h1 * h2,
    ]
    c = np.zeros((4, nc))
    for k in range(4):
        den = float(np.sum(chi[k])) + eps_den
        for ch in range(nc):
            c[k, ch] = float(np.sum(x[:, :, ch] * chi[k])) / den

    def sq(k, i, j):
        return sum((x[i, j, ch] - c[k, ch]) ** 2 for ch in range(nc))

    k1 = curvature_central_loop(phi1)
    k2 = curvature_central_loop(phi2)
    v1 = np.zeros((h, w))
    v2 = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            comp1 = (sq(3, i, j) - sq(1, i, j)) * h2[i, j] + (sq(2, i, j) - sq(0, i, j)) * (
                1 - h2[i, j]
            )
            comp2 = (sq(3, i, j) - sq(2, i, j)) * h1[i, j] + (sq(1, i, j) - sq(0, i, j)) * (
                1 - h1[i, j]
            )
            d1 = delta_loop(np.array(phi1[i, j]), eps_h)
            d2 = delta_loop(np.array(phi2[i, j]), eps_h)
            v1[i, j] = d1 * (lam * k1[i, j] - comp1)
            v2[i, j] = d2 * (lam * k2[i, j] - comp2)
    return v1, v2


def cross_entropy_loop(y, labels, clamp=1e-12, ignore_index=255):
    h, w = labels.shape
    total = 0.0
    count = 0
    for i in range(h):
        for j in range(w):
            if labels[i, j] == ignore_index:
                continue
            total -= math.log(max(y[labels[i, j], i, j], clamp))
            count += 1
    return total / count


def overlap_loop(pred, gt, positive):
    h, w = pred.shape
    tp = fp = fn = 0
    for i in range(h):
        for j in range(w):
            p = pred[i, j] == positive
            g = gt[i, j] == positive
            tp += p and g
            fp += p and not g
            fn += g and not p
    def ratio(num, den):
        if den == 0:
            return 1.0 if tp + fp == 0 and tp + fn == 0 else 0.0
        return num / den
    return (
        ratio(tp, tp + fp + fn),
        ratio(2 * tp, 2 * tp + fp + fn),
        ratio(tp, tp + fp),
        ratio(tp, tp + fn),
    )


def clustering_loop(pred, gt):
    """RC via region loops, Rand agreement via all pixel pairs, VI via
    entropies of the label partitions."""
    pv = pred.ravel()
    gv = gt.ravel()
    n = pv.size

    gt_regions = {}
    pred_regions = {}
    for idx in range(n):
        gt_regions.setdefault(gv[idx], set()).add(idx)
        pred_regions.setdefault(pv[idx], set()).add(idx)
    rc = 0.0
    for r in gt_regions.values():
        best = 0.0
        for rp in pred_regions.values():
            inter = len(r & rp)
            union = len(r | rp)
            best = max(best, inter / union)
        rc += len(r) * best
    rc /= n

    agree = 0
    pairs = 0
    for a in range(n):
        for b in range(a + 1, n):
            pairs += 1
            if (pv[a] == pv[b]) == (gv[a] == gv[b]):
                agree += 1
    pri = agree / pairs if pairs else 1.0

    def entropy(regions):
        out = 0.0
        for r in regions.values():
            p = len(r) / n
            out -= p * math.log(p)
        return out

    mi = 0.0
    for r in pred_regions.values():
        for s in gt_regions.values():
            inter = len(r & s)
            if inter:
                pij = inter / n
                mi += pij * math.log(pij / ((len(r) / n) * (len(s) / n)))
    vi = entropy(pred_regions) + entropy(gt_regions) - 2 * mi
    return rc, pri, max(vi, 0.0)


def wcss_loop(x, labels, num_classes):
    """Within-cluster sum of squared errors of a hard partition."""
    h, w, nc = x.shape
    means = np.zeros((num_classes, nc))
    counts = np.zeros(num_classes)
    for i in range(h):
        for j in range(w):
            means[labels[i, j]] += x[i, j]
            counts[labels[i, j]] += 1
    for k in range(num_classes):
        if counts[k]:
            means[k] /= counts[k]
    total = 0.0
    for i in range(h):
        for j in range(w):
            total += sum((x[i, j, ch] - means[labels[i, j], ch]) ** 2 for ch in range(nc))
    return total


def fd_gradient(fun, x0, step=1e-6):
    """Central finite differences of a scalar function over an ndarray."""
    g = np.zeros_like(x0, dtype=np.float64)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x0.copy()
        xp[idx] += step
        xm = x0.copy()
        xm[idx] -= step
        g[idx] = (fun(xp) - fun(xm)) / (2 * step)
        it.iternext()
    return g


def best_permutation_ious(pred, gt, num_classes):
    """Per-class IoUs under the class relabeling that maximizes their mean."""
    from itertools import permutations

    from msvar.metrics import overlap_metrics

    best = None
    for perm in permutations(range(num_classes)):
        remap = np.asarray(perm)[pred]
        ious = [overlap_metrics(remap, gt, k)[0] for k in range(num_classes)]
        if best is None or np.mean(ious) > np.mean(best):
            best = ious
    return best


def kmeans_loop(x, num_classes, seed, iters=20, restarts=8):
    """Per-pixel k-means: k-means++ seeding and Lloyd sweeps over every pixel,
    best of several seeded restarts by within-cluster SSE (first one wins a tie)."""

    def once(pts, rng):
        centers = np.empty((num_classes, pts.shape[1]))
        centers[0] = pts[rng.integers(len(pts))]
        d2 = np.sum((pts - centers[0]) ** 2, axis=1)
        for k in range(1, num_classes):
            total = d2.sum()
            if total > 0:
                idx = rng.choice(len(pts), p=d2 / total)
            else:
                idx = rng.integers(len(pts))
            centers[k] = pts[idx]
            d2 = np.minimum(d2, np.sum((pts - centers[k]) ** 2, axis=1))
        for _ in range(iters):
            dists = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            labels = np.argmin(dists, axis=1)
            for k in range(num_classes):
                sel = labels == k
                if sel.any():
                    centers[k] = pts[sel].mean(axis=0)
        dists = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(dists, axis=1)
        sse = float(dists[np.arange(len(pts)), labels].sum())
        return labels, centers, sse

    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        x = x[:, :, None]
    pts = x.reshape(-1, x.shape[2])
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(restarts):
        labels, centers, sse = once(pts, rng)
        if best is None or sse < best[2]:
            best = (labels, centers, sse)
    return best[0].reshape(x.shape[:2]), best[1]
