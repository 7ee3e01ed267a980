"""Exact numeric kernels: distances, per-row k smallest, neighbor medians, sigmoid.

`pairwise_euclidean` accumulates squared differences in ascending order of
the reduced axis; its bits define every distance the package reports, and
`k_smallest` orders a row by (distance, column), so ties go to the lower
index.

`nearest` gives the same answer as the two of them on the full N x M matrix,
bit for bit, in three steps over blocks of about `_BLOCK_CELLS` cells:

- filter: one GEMM per block gives approximate squared distances on centred
  coordinates; each row keeps the few columns at or below a threshold taken
  from its group minima (`_threshold`), and a partition of those gives its
  k-th and (k+1)-th smallest;
- certify: a rigorous bound M on the GEMM's error decides whether a row's k
  candidates are certainly its k nearest, with no tie across the boundary;
- refine: the candidates' distances are recomputed with the exact ufunc
  sequence and ordered by (distance, column).

The GEMM only prunes: every distance and every ordering decision comes from
the exact arithmetic. A row the bound cannot settle (a tie or near-tie at
the k-th place) refines every column within 2M of its k-th candidate; a row
with non-finite or overflowing values, or whose candidate set is too large
to pay off, takes `k_smallest(pairwise_euclidean(...))` on its own.
Memory stays at O(block + (N + M) k). `pairwise_euclidean` and `k_smallest`
are looked up as module globals, which lets a caller wrap them to time each
layer; `nearest` calls them only on the rows that take the exact path: every
row when k equals the reference row count, otherwise the rows the filter
cannot settle.
"""

from __future__ import annotations

import numpy as np

DEFAULT_BACKEND = "numpy"  # the one kernel implementation, named for run records

# distances per block of query rows in `nearest`: 2 MB of float64, so a block
# and its mask fit in a 4 MB per-core L2 cache. On a 2-core Xeon VM (medians
# of 25 runs), blocks of 2^16 cells made a 200 x 20 000 search about 1.15x
# slower, and blocks of 2^20 cells a 20 000 x 200 search 1.3x and a
# 300 x 3000 one 1.4x slower; a 4000 x 4000 search moved within noise.
_BLOCK_CELLS = 1 << 18

# group minima per row in the filter's threshold; 64 and 256 groups were
# within run-to-run noise of 128 on those shapes
_GROUPS = 128


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
    if not 1 <= k <= dist.shape[1]:
        raise ValueError(f"k={k} out of range for {dist.shape[1]} columns")
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return order.astype(np.int64, copy=False), np.take_along_axis(dist, order, axis=1)


def nearest(query: np.ndarray, ref: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For each query row, the k nearest `ref` rows and their exact distances.

    Equal to `k_smallest(pairwise_euclidean(query, ref), k)` bit for bit, but
    computed over blocks of query rows by filter, certify and refine (see the
    module docstring), so the full matrix never exists.
    """
    query = np.ascontiguousarray(query, dtype=np.float64)
    ref = np.ascontiguousarray(ref, dtype=np.float64)
    if query.ndim != 2 or ref.ndim != 2:
        raise ValueError("inputs must be 2-D")
    if query.shape[1] != ref.shape[1]:
        raise ValueError(f"dimension mismatch: {query.shape[1]} vs {ref.shape[1]}")
    n, m = query.shape[0], ref.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"k={k} out of range for {m} reference rows")
    idx = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    step = max(1, _BLOCK_CELLS // m)
    # k == m keeps every column, so the full stable sort is the whole answer
    exact = np.arange(n) if k == m else _filter_refine(query, ref, k, step, idx, dist)
    for lo in range(0, len(exact), step):
        rows = exact[lo : lo + step]
        idx[rows], dist[rows] = k_smallest(pairwise_euclidean(query[rows], ref), k)
    return idx, dist


def _filter_refine(
    query: np.ndarray, ref: np.ndarray, k: int, step: int, idx: np.ndarray, dist: np.ndarray
) -> np.ndarray:
    """Fill the rows of `idx`/`dist` that the GEMM filter can settle; return
    the rows left for the exact full-row path.

    Filter. With c = ref's column mean (its rounding does not matter: the
    bound below holds for any c), a = fl(q - c) and b = fl(r - c), one GEMM
    of [a, 1] against [-2b, |b|^2] gives A = |b|^2 - 2 a.b, which is the
    squared distance less the row constant |a|^2. The columns at or below
    `_threshold`, which is at or above the (k+1)-th smallest A, hold each
    row's k + 1 smallest, usually with few others; a values-only partition
    of them gives A_(k) and A_(k+1), whichever way ties among them break.
    Centring keeps |a| and |b| at the data's spread, so a common offset does
    not inflate the bound.

    Certify. Let E be the squared distance `pairwise_euclidean` computes (its
    sqrt is the reported distance), u = 2^-53, eta = 2^-1074 (the smallest
    subnormal) and s_i = |a_i|^2 + max_j |b_j|^2. For every column j,
    |A_ij + |a_i|^2 - E_ij| + slack_i <= M_i with

        M_i = (8R + 32) u s_i + 8 (R + 2) eta.

    The terms hold for any summation order, FMA or not (gamma_n = nu/(1-nu)):
    - the GEMM and |b|^2, each a sum of at most R + 1 terms: (3R + 4) u s_i;
    - the centring rounds a and b, which moves |a - b|^2 off |q - r|^2 by at
      most (4 + 10u) u s_i;
    - E's own rounding, subtract, square and add in R-order: (2R + 4) u s_i;
    - slack_i = 4.01 u s_i + 6 eta: two squared distances more than 2 slack
      apart keep their order through the correctly rounded sqrt, subnormal
      ones included;
    - products that underflow: (3R + 2) eta.
    That is (5R + 16.1) u s_i + (3R + 8) eta; M_i takes 1.6 times as much so
    that the rounding of M and of the comparisons below cannot eat into it.
    A row is certified when A_(k+1) - A_(k) > 2 M_i: then its k columns at
    or below A_(k) are nearer than every other column after the sqrt, so
    they are the k nearest with no tie across the boundary. A row whose s_i
    is not finite or above 2^1000, where E, the GEMM or the norms could
    overflow, skips the filter.

    Refine. A certified row refines its k candidates. Any other row refines
    the superset {j : A_j <= A_(k) + 2 M_i}, which holds every column that
    can be among its k nearest; a superset of more than a quarter of the row
    costs more than the row, so that row takes the exact path instead.
    """
    r = query.shape[1]
    m = ref.shape[0]
    u, eta = 2.0**-53, 2.0**-1074
    # non-finite or overflowing inputs make nan and inf here; their rows fail
    # the bounds check and take the exact path, which warns as it always has
    with np.errstate(all="ignore"):
        c = np.ones(m) @ ref / m  # a GEMV: mean(axis=0) reduces a narrow array row by row
        a = query - c
        b = ref - c
        na = np.einsum("ij,ij->i", a, a)
        nb = np.einsum("ij,ij->i", b, b)
        scale = na + nb.max()
        bound = 2.0 * ((8 * r + 32) * u * scale + 8 * (r + 2) * eta)  # 2 M
        ok = scale <= 2.0**1000
        qa = np.hstack([a, np.ones((len(a), 1))])
        bt = np.empty((r + 1, m))
        np.multiply(b.T, -2.0, out=bt[:r])
        bt[r] = nb
    rows_ok = np.flatnonzero(ok)
    exact = [np.flatnonzero(~ok)]
    sure_rows, sure_cand = [], []
    buf = np.empty((min(step, len(rows_ok)), m))
    for lo in range(0, len(rows_ok), step):
        rows = rows_ok[lo : lo + step]
        A = np.matmul(qa[rows], bt, out=buf[: len(rows)])
        cand, vals = _columns(A <= _threshold(A, k)[:, None], A)
        low = np.partition(vals, (k - 1, k), axis=1)
        kth = low[:, k - 1]
        sure = low[:, k] - kth > bound[rows]
        sure_rows.append(rows[sure])
        # a certified row has exactly k candidates at or below its k-th value
        sure_cand.append(cand[sure][vals[sure] <= kth[sure, None]].reshape(-1, k))
        if sure.all():
            continue
        unsure, A_unsure = rows[~sure], A[~sure]
        inside = A_unsure <= (kth[~sure] + bound[unsure])[:, None]
        big = np.count_nonzero(inside, axis=1) > m // 4
        exact.append(unsure[big])
        if not big.all():
            cand, _ = _columns(inside[~big], A_unsure[~big])
            _refine(query, ref, k, unsure[~big], cand, idx, dist)
    if sure_rows:
        _refine(query, ref, k, np.concatenate(sure_rows), np.concatenate(sure_cand), idx, dist)
    return np.concatenate(exact)


def _threshold(A: np.ndarray, k: int) -> np.ndarray:
    """Per row of `A`, a value at or above its (k+1)-th smallest: the (k+1)-th
    smallest of its group minima. Column j is in group j mod G, for G =
    max(k + 1, min(`_GROUPS`, m // 2)) groups; when that leaves groups of
    one column, the row itself is the group minima. The k + 1 groups at or
    below the threshold hold k + 1 distinct columns at or below it."""
    n, m = A.shape
    groups = max(k + 1, min(_GROUPS, m // 2))
    width = m // groups
    if width == 1:
        gmin = A
    else:
        split = groups * width
        gmin = A[:, :split].reshape(n, width, groups).min(axis=1)
        # the m - split < G tail columns join groups 0, 1, ...
        np.minimum(gmin[:, : m - split], A[:, split:], out=gmin[:, : m - split])
    return np.partition(gmin, k, axis=1)[:, k]


def _columns(mask: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The True columns of each row of `mask`, ascending and padded with the
    column count m, and the values of `A` there, padded with inf."""
    n, m = mask.shape
    flat = np.flatnonzero(mask)  # row by row, columns ascending
    i, j = np.divmod(flat, m)
    counts = np.bincount(i, minlength=n)
    pos = np.arange(len(j)) - np.repeat(np.cumsum(counts) - counts, counts)
    cand = np.full((n, counts.max()), m)
    cand[i, pos] = j
    vals = np.full(cand.shape, np.inf)
    vals[i, pos] = A.ravel()[flat]
    return cand, vals


def _refine(
    query: np.ndarray, ref: np.ndarray, k: int, rows: np.ndarray, cand: np.ndarray,
    idx: np.ndarray, dist: np.ndarray,
) -> None:
    """Write the k nearest of each of `rows` among its candidate columns
    `cand` (one row each, ascending, padded with m), ordered by (distance,
    column).

    The distances are `pairwise_euclidean`'s ufunc sequence on the same
    operands, so they have its bits.
    """
    pad = cand == ref.shape[0]
    gather = np.where(pad, 0, cand)
    acc = np.zeros(cand.shape)
    diff = np.empty_like(acc)
    for t in range(query.shape[1]):
        np.subtract(query[rows, t, None], ref[:, t][gather], out=diff)
        np.multiply(diff, diff, out=diff)
        acc += diff
    np.sqrt(acc, out=acc)
    acc[pad] = np.inf
    order = np.argsort(acc, axis=1, kind="stable")[:, :k]
    idx[rows] = np.take_along_axis(cand, order, axis=1)
    dist[rows] = np.take_along_axis(acc, order, axis=1)


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
    """Logistic function through e = exp(-|z|), which cannot overflow:
    1 / (1 + e) for z >= 0, e / (1 + e) below."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)
