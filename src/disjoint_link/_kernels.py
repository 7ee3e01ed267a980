"""Exact numeric kernels: distances, per-row k smallest, neighbor medians, sigmoid.

`nearest` streams the query rows in blocks of about `_BLOCK_CELLS` distances:
each block gets its exact distances from `pairwise_euclidean` and its top k
from `k_smallest`, so memory stays at O(block + (N + M) k) and no N x M
matrix is ever held. Both kernels are looked up as module globals on every
block, which lets a caller wrap them to time each layer.

Distances accumulate squared differences in ascending order of the reduced
axis. The GEMM form |a|^2 + |b|^2 - 2ab is not used: it is faster but off by
about 1e-15, which breaks exact ties and so the lower-index tie rule.
"""

from __future__ import annotations

import numpy as np

DEFAULT_BACKEND = "numpy"  # the one kernel implementation, named for run records

# distances per block of query rows in `nearest`: 512 KB of float64, so a
# block and its scratch buffer fit in a 2 MB per-core L2 cache. On a 2-core
# Xeon VM, blocks of 2^20 cells (8 MB) made a 4000 x 4000 search 1.5x slower.
_BLOCK_CELLS = 1 << 16


def pairwise_euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact all-pairs Euclidean distances between rows of `a` and rows of `b`."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("inputs must be 2-D")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    acc = np.zeros((a.shape[0], b.shape[0]))
    diff = np.empty_like(acc)
    for t in range(a.shape[1]):
        np.subtract(a[:, t, None], b[:, t], out=diff)
        np.multiply(diff, diff, out=diff)
        acc += diff
    return np.sqrt(acc, out=acc)


def k_smallest(dist: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row indices and values of the k smallest entries, ascending.

    Ties are broken by the lower column index, so the output is a total,
    reproducible order: the first k of a stable argsort of each row.
    """
    dist = np.ascontiguousarray(dist, dtype=np.float64)
    n, m = dist.shape
    if not 1 <= k <= m:
        raise ValueError(f"k={k} out of range for {m} columns")
    if k == m:
        order = np.argsort(dist, axis=1, kind="stable")
        return order.astype(np.int64), np.take_along_axis(dist, order, axis=1)
    # every entry at or below the row's k-th value is a candidate; a row whose
    # k-th value is NaN keeps all its columns, which a stable sort puts last
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    rows, cols = np.nonzero((dist <= kth) | np.isnan(kth))
    vals = dist[rows, cols]
    order = np.lexsort((cols, vals, rows))
    counts = np.bincount(rows, minlength=n)
    take = order[((np.cumsum(counts) - counts)[:, None] + np.arange(k)).ravel()]
    return cols[take].reshape(n, k).astype(np.int64, copy=False), vals[take].reshape(n, k)


def nearest(query: np.ndarray, ref: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For each query row, the k nearest `ref` rows and their exact distances.

    Equal to `k_smallest(pairwise_euclidean(query, ref), k)` bit for bit, but
    computed over blocks of query rows so the full matrix never exists.
    """
    query = np.ascontiguousarray(query, dtype=np.float64)
    ref = np.ascontiguousarray(ref, dtype=np.float64)
    n, m = query.shape[0], ref.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"k={k} out of range for {m} reference rows")
    idx = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    step = max(1, _BLOCK_CELLS // m)
    for lo in range(0, n, step):
        block = pairwise_euclidean(query[lo : lo + step], ref)
        idx[lo : lo + step], dist[lo : lo + step] = k_smallest(block, k)
    return idx, dist


def median_over_rows(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Feature-wise median of ``values[idx[i]]`` for each row i.

    Even neighbor counts use the midpoint of the two middle values.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= values.shape[0]):
        raise ValueError("neighbor index out of range")
    srt = np.sort(values[idx], axis=1)  # (n, k, ncols)
    h = idx.shape[1] // 2
    if idx.shape[1] % 2 == 1:
        return srt[:, h, :].copy()
    return (srt[:, h - 1, :] + srt[:, h, :]) * 0.5


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated on the side that cannot overflow exp."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
