"""Cross-dataset linkage: reduce, normalize, exact neighbor search, aggregate.

Both callers, `link_detailed` and the cross-validated evaluation, run one
pipeline, and `link_detailed` is the evaluation's fold whose training rows
are all of D1. `fit_jobs` lists a run's reducer fits with their seeds and R,
`fit_reducer` fits one dataset's side of a reducer on its standardized rows,
`pair_reducers` turns two fitted sides into transforms into one shared space
and reducer.json's body, and `link_into`, the one linking step, uses them:
`normalize_latent` z-scores each side's latent axes, one exact search
(`_kernels.nearest`) finds every query row's k nearest reference rows (the
random baseline draws them instead), and each row gets their feature-wise
median (`_kernels.median_over_rows`). The search streams over row blocks, so
the full distance matrix is never built. A linked table is a
`Dataset` (`concat_linked`) whose feature names are its CSV header:
`own.<feature>` for the base rows, `agg.<other id>.<feature>` for the
medians. `pooled` runs a command's slow tasks, on a fork pool or in this
process, and returns each one's result or error in order: the autoencoder
fits, evaluate's chunks of fold-by-condition cells and the formatting of the
CSV blocks that `linked_to_csv` and `neighbors_to_csv` write.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import _kernels
from .autoencoder import AutoencoderHyper, AutoencoderReducer, encode, fit_autoencoder
from .data import (
    Dataset,
    DataError,
    FeatureSchema,
    dataset_columns,
    standardize,
    write_csv,
)
from .reducers import (
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
REDUCER_KINDS = ("feature_importance", "pca", "autoencoder")
LINK_KINDS = (*REDUCER_KINDS, "random")
_RANDOM_TAG = 7919  # namespaces the random-baseline rng away from the fits' seeds


@dataclass(frozen=True)
class NeighborMap:
    neighbors: np.ndarray  # (N, k) column indices, ascending distance
    distances: np.ndarray  # (N, k) matching distances, for audits

    @property
    def k(self) -> int:
        return self.neighbors.shape[1]


def _check_k(k: int, n: int) -> None:
    """The one k rule: a row links to 1 to all `n` rows of the other dataset."""
    if not 1 <= k <= n:
        raise DataError(f"k={k} must lie in [1, {n}]")


def random_neighbor_map(n_rows: int, n_cols: int, k: int, rng: np.random.Generator) -> NeighborMap:
    """Per row, k of `n_cols` columns drawn without replacement; `link_into` checked k."""
    idx = np.empty((n_rows, k), dtype=np.int64)
    for i in range(n_rows):
        idx[i] = rng.choice(n_cols, size=k, replace=False)
    return NeighborMap(idx, np.full((n_rows, k), np.nan))


def random_rng(seed: int, fold: int) -> np.random.Generator:
    """The random baseline's draws for fold `fold` of CV seed `seed`."""
    return np.random.default_rng(np.random.SeedSequence([seed, fold, _RANDOM_TAG]))


def concat_linked(base: Dataset, agg: np.ndarray, other: Dataset) -> Dataset:
    """`base`'s standardized rows with `agg` appended, under `base`'s id and
    labels. Each feature name carries its provenance: `own.<feature>` for
    `base`'s columns, `agg.<other.id>.<feature>` for the aggregated ones."""
    names = [f"own.{name}" for name in base.feature_names] + [
        f"agg.{other.id}.{name}" for name in other.feature_names]
    schema = tuple(FeatureSchema(name, "numeric") for name in names)
    return Dataset(schema, np.hstack([base.X, agg]), base.y, base.id)


# ---------------------------------------------------------------------------
# the reducer step: fit each side, pair the sides, agree on R
# ---------------------------------------------------------------------------

FittedReducer = TScoreReport | PcaReducer | AutoencoderReducer
RowTransform = Callable[[np.ndarray], np.ndarray]
ReducerPair = tuple[RowTransform, RowTransform, Callable[[], dict]]  # pair_reducers' result
FitJob = tuple[str, Dataset, int, AutoencoderHyper]  # fit_reducer's arguments


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
    condition) share one R, capped by the seed's smallest training fold, by
    both sides' feature counts and, but for the autoencoder, by D2's rows.
    Feature importance ignores R.
    """
    linked = [c for c in conditions if c not in ("unlinked", "random")]
    jobs = {}
    for seed, train in runs:
        for cond in linked:
            d2_limits = (d2s.k,) if cond == "autoencoder" else (d2s.n, d2s.k)
            limits = (min(d.n for d in train), train[0].k, *d2_limits)
            r_eff = min(r, *limits)
            if r_eff < 1:
                raise DataError(f"no valid reduced dimension (requested {r}, limits {limits})")
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


def _caught(fn: Callable[..., Any], *args) -> Any:
    """`fn(*args)`, or the error it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _unwrap(result: Any) -> Any:
    """`result`, raised if it is an error."""
    if isinstance(result, Exception):
        raise result
    return result


def pooled(tasks: list[Callable[[], Any]], in_pool: bool = True) -> list[Any]:
    """Each task's result, or the error it raised, in the order given.

    The package's one process pool. With `in_pool` set, the tasks start in
    the order given on a fork pool of at most one worker per usable core and
    never more workers than tasks; otherwise, or when that pool would hold
    one worker, they run in this process, one after another. A worker
    inherits the task list when it forks and is sent only a task's index, so
    no task's data is pickled, only its result. Every worker is joined before
    the call returns, so no child process outlives it.
    """
    workers = min(len(tasks), usable_cores())
    if not in_pool or workers < 2:
        return [_caught(task) for task in tasks]
    # imported here: at module level they add 20-25 ms to the start-up of
    # every command, including those that open no pool
    import concurrent.futures
    import multiprocessing

    pool = concurrent.futures.ProcessPoolExecutor(
        workers,
        # fork, not spawn: a spawned worker imports numpy and the package
        # again, about 0.3 s each, and could not inherit the tasks. The
        # package runs no threads, and a fork pool forks every worker before
        # it starts its own
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt_tasks,
        initargs=(tasks,),
    )
    try:
        futures = [pool.submit(_run_task, i) for i in range(len(tasks))]
        return [_caught(future.result) for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def pair_reducers(fit1: FittedReducer | None, fit2: FittedReducer | None) -> ReducerPair | None:
    """The one reducer protocol, and the only code that reads a fitted side's
    type: two fitted sides as row transforms into one shared space, and a
    call that builds reducer.json's body, their shared R included. None for
    the random baseline, whose sides are None because it fits nothing.

    Only feature importance pairs anything: each side keeps the columns whose
    t-score sign and rank match a column of the other side. Pairing (fit2,
    fit1) gives the same transforms, swapped.
    """
    if fit1 is None:
        return None
    if isinstance(fit1, TScoreReport):
        pair = feature_importance_pair(fit1, fit2)
        return ((lambda X: X[:, pair.sel1]), (lambda X: X[:, pair.sel2]),
                lambda: {"R": pair.r, **pair_to_payload(pair, fit1.t, fit2.t)})
    transform, to_payload, r = ((project_pca, pca_to_payload, fit1.components.shape[0])
                                if isinstance(fit1, PcaReducer)
                                else (encode, autoencoder_to_payload, fit1.latent_dim))
    return (partial(transform, fit1), partial(transform, fit2),
            lambda: {"R": r, "d1": to_payload(fit1), "d2": to_payload(fit2)})


def link_into(
    pair: ReducerPair | None, x2: np.ndarray, k: int, rng: np.random.Generator, *x1s: np.ndarray,
) -> list[tuple[NeighborMap, np.ndarray]]:
    """The one linking step: each block of D1's standardized rows in `x1s`,
    linked into D2's standardized rows `x2` through `pair`'s transforms
    (`pair_reducers`), as its neighbors in D2 and their feature-wise medians.

    The first block sets D1's latent statistics and later blocks (a fold's
    test rows) pass through them. The neighbors are the k smallest of each
    row of the exact distance matrix, ties to the lower index; an even k's
    median is the midpoint of the two middle values. A None pair, the random
    baseline's, draws each block's neighbors from `rng` in turn. A k outside
    [1, D2's rows] fails first, whichever the pair (`_check_k`).
    """
    _check_k(k, x2.shape[0])
    if pair is None:
        nbs = [random_neighbor_map(x1.shape[0], x2.shape[0], k, rng) for x1 in x1s]
    else:
        to_shared1, to_shared2, _ = pair
        z1s = normalize_latent(*(to_shared1(x1) for x1 in x1s))
        (z2,) = normalize_latent(to_shared2(x2))
        # one search prepares D2's side once; a row's neighbors depend only on
        # it and D2, so each block's slice is that block's own answer
        idx, dist = _kernels.nearest(np.concatenate(z1s), z2, k)
        ends = np.cumsum([len(z1) for z1 in z1s])[:-1]
        nbs = [NeighborMap(i, d) for i, d in zip(np.split(idx, ends), np.split(dist, ends))]
    return [(nb, _kernels.median_over_rows(x2, nb.neighbors)) for nb in nbs]


@dataclass(frozen=True)
class LinkResult:
    d12: Dataset
    d21: Dataset
    neighbors_12: NeighborMap
    neighbors_21: NeighborMap
    reducer_payload: dict


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
    concurrently; the two searches run in this process.
    """
    if reducer_kind not in LINK_KINDS:
        raise DataError(f"unknown reducer kind {reducer_kind!r}")
    _check_k(k, d2.n)  # before any fit or draw
    _check_k(k, d1.n)
    d1s = standardize(d1)
    d2s = standardize(d2)
    jobs = fit_jobs([reducer_kind], d2s, [(seed, [d1s])], r=r, ae_hyper=ae_hyper)
    keys = [(seed, reducer_kind, 0), (seed, reducer_kind, None)]  # D1 first: its error is the one raised
    tasks = [partial(fit_reducer, *jobs[key]) for key in keys if key in jobs]
    fitted = pooled(tasks, in_pool=reducer_kind == "autoencoder")
    pair = pair_reducers(*([_unwrap(fit) for fit in fitted] or (None, None)))  # random fits nothing
    # D21 links through the transforms swapped; the random baseline's D21
    # draws continue D12's rng
    rng = random_rng(seed, 0)
    ((nb12, agg12),) = link_into(pair, d2s.X, k, rng, d1s.X)
    ((nb21, agg21),) = link_into(pair and (pair[1], pair[0], pair[2]), d1s.X, k, rng, d2s.X)
    payload = {"k": k, "seed": seed} if pair is None else pair[2]()
    return LinkResult(
        d12=concat_linked(d1s, agg12, d2s),
        d21=concat_linked(d2s, agg21, d1s),
        neighbors_12=nb12,
        neighbors_21=nb21,
        reducer_payload={"kind": reducer_kind, **payload},
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def neighbors_columns(nb: NeighborMap) -> tuple[list[str], list[np.ndarray]]:
    """The CSV header and columns of a neighbor map, one row per (row, rank)."""
    n = nb.neighbors.shape[0]
    return ["row_index", "rank", "col_index", "distance"], [
        np.repeat(np.arange(n), nb.k), np.tile(np.arange(nb.k), n),
        nb.neighbors.ravel(), nb.distances.ravel()]


def linked_to_csv(d: Dataset, path: str | Path, texts: list[str] | None = None) -> None:
    """`d` as CSV (`dataset_columns`); `texts` as in `write_csv`."""
    write_csv(path, *dataset_columns(d), texts)


def neighbors_to_csv(nb: NeighborMap, path: str | Path, texts: list[str] | None = None) -> None:
    """`nb` as CSV (`neighbors_columns`); `texts` as in `write_csv`."""
    write_csv(path, *neighbors_columns(nb), texts)
