"""Cross-dataset linkage: reduce, normalize, exact neighbor search, aggregate.

Both callers, `link_detailed` and the cross-validated evaluation, run one
pipeline, and `link_detailed` is the evaluation's fold whose training rows
are all of D1. `fit_jobs` lists a run's reducer fits with their seeds and R,
`fit_reducer` fits one dataset's side of a reducer on its standardized rows,
and `link_into` is the one linking step: `pair_reducers` turns the two fitted
sides into row transforms into one shared R-dimensional space,
`normalize_latent` z-scores each side's latent axes, and `link_rows` gives
every query row the feature-wise median of its k nearest reference rows (the
random baseline draws its neighbors instead). The search streams over row
blocks, so the full distance matrix is never built. `pooled` runs a command's
slow tasks on a fork pool: its autoencoder fits, evaluate's chunks of
same-shape fold-by-condition cells and, for a large link (`link_is_large`), the two search directions and
the formatting of the CSV blocks that `linked_to_csv` and `neighbors_to_csv`
write.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from . import _kernels, data
from .autoencoder import AutoencoderHyper, AutoencoderReducer, encode, fit_autoencoder
from .data import (
    Dataset,
    DataError,
    LABEL_COLUMN,
    standardize,
    write_csv,
)
from .reducers import (
    FeatureImportancePair,
    PcaReducer,
    TScoreReport,
    autoencoder_to_payload,
    compute_t_scores,
    feature_importance_pair,
    fit_pca,
    normalize_latent,
    pair_to_payload,
    pca_to_payload,
    project_pca,
)

DEFAULT_K = 5
DEFAULT_R = 8
LINK_KINDS = ("feature_importance", "pca", "autoencoder", "random")
_RANDOM_TAG = 7919  # namespaces the random-baseline rng away from the fits' seeds


@dataclass(frozen=True)
class NeighborMap:
    k: int
    neighbors: np.ndarray  # (N, k) column indices, ascending distance
    distances: np.ndarray  # (N, k) matching distances, for audits


@dataclass(frozen=True)
class ColumnProvenance:
    tag: str  # "own" | "aggregated"
    source_id: str
    feature: str


@dataclass(frozen=True)
class LinkedDataset:
    X: np.ndarray
    y: np.ndarray
    provenance: tuple[ColumnProvenance, ...]
    base_id: str
    other_id: str

    def __post_init__(self):
        if self.X.shape[1] != len(self.provenance):
            raise DataError("provenance must tag every column")


def _check_dims(r_a: int, r_b: int) -> None:
    if r_a != r_b:
        raise DataError(f"reduced dimensions differ: {r_a} vs {r_b}")


def _check_k(k: int, n_cols: int) -> None:
    if not 1 <= k <= n_cols:
        raise DataError(f"k={k} must lie in [1, {n_cols}]")


def median_aggregate(neighbors: NeighborMap, source_features: np.ndarray) -> np.ndarray:
    """Feature-wise median over each row's neighbors in the source dataset.

    Even k uses the midpoint of the two middle values. Source labels are
    never part of the aggregated features.
    """
    source_features = np.asarray(source_features, dtype=np.float64)
    if neighbors.neighbors.max() >= source_features.shape[0]:
        raise DataError("neighbor index exceeds the source dataset")
    return _kernels.median_over_rows(source_features, neighbors.neighbors)


def link_rows(
    z_query: np.ndarray, z_ref: np.ndarray, ref_features: np.ndarray, k: int
) -> tuple[NeighborMap, np.ndarray]:
    """Each query row's k nearest reference rows and the feature-wise median
    of their `ref_features`.

    The neighbors are the k smallest of each row of the exact distance
    matrix, ties to the lower index, but the search streams over blocks of
    query rows, so no matrix is built.
    """
    _check_dims(z_query.shape[1], z_ref.shape[1])
    _check_k(k, z_ref.shape[0])
    nb = NeighborMap(k, *_kernels.nearest(z_query, z_ref, k))
    return nb, median_aggregate(nb, ref_features)


def random_neighbor_map(n_rows: int, n_cols: int, k: int, rng: np.random.Generator) -> NeighborMap:
    if k > n_cols:
        raise DataError(f"k={k} exceeds the {n_cols} available samples")
    idx = np.empty((n_rows, k), dtype=np.int64)
    for i in range(n_rows):
        idx[i] = rng.choice(n_cols, size=k, replace=False)
    return NeighborMap(k=k, neighbors=idx, distances=np.full((n_rows, k), np.nan))


def random_rng(seed: int, fold: int) -> np.random.Generator:
    """The random baseline's draws for fold `fold` of CV seed `seed`."""
    return np.random.default_rng(np.random.SeedSequence([seed, fold, _RANDOM_TAG]))


def concat_linked(base: Dataset, agg: np.ndarray, other: Dataset) -> LinkedDataset:
    """`base`'s standardized rows with `agg` appended; `other` names the
    aggregated columns."""
    X = np.hstack([base.X, agg])
    prov = tuple(
        [ColumnProvenance("own", base.id, name) for name in base.feature_names]
        + [ColumnProvenance("aggregated", other.id, name) for name in other.feature_names]
    )
    return LinkedDataset(X=X, y=base.y.copy(), provenance=prov, base_id=base.id, other_id=other.id)


# ---------------------------------------------------------------------------
# the reducer step: fit each side, pair the sides, agree on R
# ---------------------------------------------------------------------------

FittedReducer = TScoreReport | PcaReducer | AutoencoderReducer
RowTransform = Callable[[np.ndarray], np.ndarray]
FitJob = tuple[str, Dataset, int, AutoencoderHyper]  # fit_reducer's arguments


def effective_r(requested: int, *limits: int) -> int:
    r = min(requested, *limits)
    if r < 1:
        raise DataError(f"no valid reduced dimension (requested {requested}, limits {limits})")
    return r


def r_limits(kind: str, d: Dataset) -> tuple[int, ...]:
    """The caps one dataset puts on R: PCA needs R <= min(n, k), an
    autoencoder latent only R <= k. Feature importance ignores R."""
    return (d.k,) if kind == "autoencoder" else (d.n, d.k)


def _ae_seeded(ae_hyper: AutoencoderHyper | None, *tags: int) -> AutoencoderHyper:
    seed = int(np.random.SeedSequence(list(tags)).generate_state(1)[0])
    return replace(ae_hyper or AutoencoderHyper(), seed=seed)


def fit_jobs(
    conditions: list[str],
    d2s: Dataset,
    runs: list[tuple[int, list[Dataset]]],
    *,
    r: int,
    ae_hyper: AutoencoderHyper | None,
) -> dict[tuple[int, str, int | None], FitJob]:
    """`fit_reducer`'s arguments for every reducer fit of a run, keyed by
    (seed, condition, fold) in canonical order; fold None is D2's fit, listed
    before D1's. `runs` pairs each CV seed with its folds' D1 training rows,
    each fold standardized by its own statistics; D2's side is fitted on
    `d2s`, D2 with its rows standardized.

    The one seed rule: D2's autoencoder of CV seed s trains with
    SeedSequence([s, 2]) and fold f's D1 autoencoder with
    SeedSequence([s, f, 1]). The one R rule: both sides of a (seed,
    condition) share one R, capped by the seed's smallest training fold.
    """
    linked = [c for c in conditions if c not in ("unlinked", "random")]
    jobs = {}
    for seed, train in runs:
        for cond in linked:
            r_eff = effective_r(r, min(d.n for d in train), train[0].k, *r_limits(cond, d2s))
            jobs[seed, cond, None] = (cond, d2s, r_eff, _ae_seeded(ae_hyper, seed, 2))
            for fold, d1_tr in enumerate(train):
                jobs[seed, cond, fold] = (cond, d1_tr, r_eff, _ae_seeded(ae_hyper, seed, fold, 1))
    return jobs


def fit_reducer(kind: str, d: Dataset, r: int, hyper: AutoencoderHyper) -> FittedReducer:
    """Fit one dataset's side of a reducer on its standardized rows: its
    t-scores, its top-r PCA or its r-dimensional autoencoder, trained with
    `hyper` (seed included)."""
    if kind == "feature_importance":
        return compute_t_scores(d)
    if kind == "pca":
        return fit_pca(d.X, r)
    if kind == "autoencoder":
        return fit_autoencoder(d.X, r, hyper)
    raise DataError(f"unknown reducer kind {kind!r}")


_worker_tasks: list[Callable[[], Any]] = []  # in a pool worker: the tasks of the pool that forked it


def _adopt_tasks(tasks: list[Callable[[], Any]]) -> None:
    global _worker_tasks
    _worker_tasks = tasks


def _run_task(i: int) -> Any:
    return _worker_tasks[i]()


def usable_cores() -> int:
    """The most workers `pooled` starts: one per core this process may run on."""
    return len(os.sched_getaffinity(0))


@contextmanager
def pooled(tasks: list[tuple[Callable[[], Any], bool]]) -> Iterator[list[Callable[[], Any]]]:
    """One getter per (task, in_pool) pair, in order, that returns the task's
    result or raises its error.

    The package's one process pool. The tasks with `in_pool` set start on
    entry, in the order given, on a fork pool of at most one worker per usable
    core and never more workers than such tasks; any other task runs in this
    process when its getter is called. A worker inherits the task list when it
    forks and is sent only a task's index, so no task's data is pickled, only
    its result. On exit, pooled tasks not yet started are cancelled and the
    workers joined, so no child process outlives the block.
    """
    n_pooled = sum(in_pool for _, in_pool in tasks)
    if not n_pooled:
        yield [task for task, _ in tasks]
        return
    # imported here: at module level they add 20-25 ms to the start-up of
    # every command, including those that open no pool
    import concurrent.futures
    import multiprocessing

    pool = concurrent.futures.ProcessPoolExecutor(
        min(n_pooled, usable_cores()),
        # fork, not spawn: a spawned worker imports numpy and the package
        # again, about 0.3 s each, and could not inherit the tasks. The
        # package runs no threads, and a fork pool forks every worker before
        # it starts its own
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt_tasks,
        initargs=([task for task, _ in tasks],),
    )
    try:
        yield [pool.submit(_run_task, i).result if in_pool else task
               for i, (task, in_pool) in enumerate(tasks)]
    finally:
        pool.shutdown(cancel_futures=True)


def pair_reducers(
    fit1: FittedReducer, fit2: FittedReducer
) -> tuple[RowTransform, RowTransform, int, FeatureImportancePair | None]:
    """Row transforms of two fitted sides into one shared space, its R, and
    the feature-importance pairing (None for the other reducers).

    Only feature importance pairs anything: each side keeps the columns whose
    t-score sign and rank match a column of the other side.
    """
    if isinstance(fit1, TScoreReport):
        pair = feature_importance_pair(fit1, fit2)
        return (lambda X: X[:, pair.sel1]), (lambda X: X[:, pair.sel2]), pair.r, pair
    if isinstance(fit1, PcaReducer):
        r = fit1.components.shape[0]
        return (lambda X: project_pca(fit1, X)), (lambda X: project_pca(fit2, X)), r, None
    return (lambda X: encode(fit1, X)), (lambda X: encode(fit2, X)), fit1.latent_dim, None


def link_into(
    kind: str,
    fit1: FittedReducer | None,
    fit2: FittedReducer | None,
    x2: np.ndarray,
    k: int,
    rng: np.random.Generator,
    *x1s: np.ndarray,
) -> list[tuple[NeighborMap, np.ndarray]]:
    """The one linking step: each block of D1's standardized rows in `x1s`,
    linked into D2's standardized rows `x2` through the fitted sides `fit1`
    and `fit2`, as its neighbors in D2 and their feature-wise medians.

    The first block sets D1's latent statistics and later blocks (a fold's
    test rows) pass through them. The random baseline fits nothing (None)
    and draws each block's neighbors from `rng` in turn.
    """
    if kind == "random":
        nbs = [random_neighbor_map(x1.shape[0], x2.shape[0], k, rng) for x1 in x1s]
        return [(nb, median_aggregate(nb, x2)) for nb in nbs]
    to_shared1, to_shared2, *_ = pair_reducers(fit1, fit2)
    z1s = normalize_latent(*(to_shared1(x1) for x1 in x1s))
    (z2,) = normalize_latent(to_shared2(x2))
    return [link_rows(z1, z2, x2, k) for z1 in z1s]


def _reducer_payload(fit1: FittedReducer, fit2: FittedReducer, pair: FeatureImportancePair | None) -> dict:
    if pair is not None:
        return pair_to_payload(pair, fit1.t, fit2.t)
    to_payload = pca_to_payload if isinstance(fit1, PcaReducer) else autoencoder_to_payload
    return {"d1": to_payload(fit1), "d2": to_payload(fit2)}


@dataclass(frozen=True)
class LinkResult:
    d12: LinkedDataset
    d21: LinkedDataset
    reducer_kind: str
    r: int | None  # None for the random baseline
    neighbors_12: NeighborMap
    neighbors_21: NeighborMap
    reducer_payload: dict


def link_is_large(n1: int, n2: int, k: int) -> bool:
    """Whether one of `link`'s files spans more than one CSV block: D12.csv
    has `n1` rows, D21.csv `n2` and neighbors.csv `n1 * k`. A large link runs
    its two searches and its CSV formatting on the pool; a smaller one starts
    no process for them."""
    return max(n1 * k, n2) > data.CSV_BLOCK_ROWS


def link_detailed(
    d1: Dataset,
    d2: Dataset,
    reducer_kind: str,
    *,
    k: int = DEFAULT_K,
    r: int = DEFAULT_R,
    ae_hyper: AutoencoderHyper | None = None,
    seed: int = 0,
) -> LinkResult:
    """Full pipeline: standardize, fit both sides, then `link_into` each
    way, D12 first, and concatenate.

    This is CV seed `seed` of the evaluation with one fold whose training
    rows are all of D1: the same seeds and R (`fit_jobs`) and, for
    "random", the same draws. The autoencoders of D1 and D2 train
    concurrently, and so do the two directions of a large link
    (`link_is_large`) that draws no random neighbors.
    """
    if reducer_kind not in LINK_KINDS:
        raise DataError(f"unknown reducer kind {reducer_kind!r}")
    d1s, _ = standardize(d1)
    d2s, _ = standardize(d2)
    jobs = fit_jobs([reducer_kind], d2s, [(seed, [d1s])], r=r, ae_hyper=ae_hyper)
    keys = [(seed, reducer_kind, 0), (seed, reducer_kind, None)]  # D1 first: its error is the one raised
    tasks = [(partial(fit_reducer, *jobs[key]), reducer_kind == "autoencoder") for key in keys if key in jobs]
    with pooled(tasks) as fitted:
        fit1, fit2 = [result() for result in fitted] or (None, None)  # random fits nothing
    # D12 first, its error the one raised. The random baseline's D21 draws
    # continue D12's rng, so it links in this process
    rng = random_rng(seed, 0)
    ways = [partial(link_into, reducer_kind, fit1, fit2, d2s.X, k, rng, d1s.X),
            partial(link_into, reducer_kind, fit2, fit1, d1s.X, k, rng, d2s.X)]
    in_pool = reducer_kind != "random" and link_is_large(d1.n, d2.n, k)
    with pooled([(way, in_pool) for way in ways]) as linked:
        ((nb12, agg12),), ((nb21, agg21),) = [result() for result in linked]
    if reducer_kind == "random":
        r_eff, payload = None, {"k": k, "seed": seed}
    else:
        _, _, r_eff, pair = pair_reducers(fit1, fit2)
        payload = {"R": r_eff, **_reducer_payload(fit1, fit2, pair)}
    return LinkResult(
        d12=concat_linked(d1s, agg12, d2s),
        d21=concat_linked(d2s, agg21, d1s),
        reducer_kind=reducer_kind,
        r=r_eff,
        neighbors_12=nb12,
        neighbors_21=nb21,
        reducer_payload={"kind": reducer_kind, **payload},
    )


def link(
    d1: Dataset,
    d2: Dataset,
    reducer_kind: str,
    *,
    k: int = DEFAULT_K,
    r: int = DEFAULT_R,
    ae_hyper: AutoencoderHyper | None = None,
    seed: int = 0,
) -> tuple[LinkedDataset, LinkedDataset]:
    res = link_detailed(d1, d2, reducer_kind, k=k, r=r, ae_hyper=ae_hyper, seed=seed)
    return res.d12, res.d21


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def linked_columns(d: LinkedDataset) -> tuple[list[str], list[np.ndarray]]:
    """The CSV header and columns of a linked dataset: each feature tagged
    `own.<feature>` or `agg.<source_id>.<feature>`, the label last."""
    header = [
        f"own.{p.feature}" if p.tag == "own" else f"agg.{p.source_id}.{p.feature}"
        for p in d.provenance
    ] + [LABEL_COLUMN]
    return header, [*d.X.T, d.y]


def neighbors_columns(nb: NeighborMap) -> tuple[list[str], list[np.ndarray]]:
    """The CSV header and columns of a neighbor map, one row per (row, rank)."""
    n = nb.neighbors.shape[0]
    return ["row_index", "rank", "col_index", "distance"], [
        np.repeat(np.arange(n), nb.k), np.tile(np.arange(nb.k), n),
        nb.neighbors.ravel(), nb.distances.ravel()]


def linked_to_csv(
    d: LinkedDataset, path: str | Path, blocks: list[Callable[[], str]] | None = None
) -> None:
    """`d` as CSV (`linked_columns`); `blocks` as in `write_csv`."""
    write_csv(path, *linked_columns(d), blocks)


def neighbors_to_csv(
    nb: NeighborMap, path: str | Path, blocks: list[Callable[[], str]] | None = None
) -> None:
    """`nb` as CSV (`neighbors_columns`); `blocks` as in `write_csv`."""
    write_csv(path, *neighbors_columns(nb), blocks)
