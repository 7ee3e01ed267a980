"""Measure the linkage benefit with a fixed classifier and AUROC.

The target dataset is split with stratified cross-validation; for every
condition (unlinked, each reducer-based linkage, random linkage) the fold's
training rows drive every fitted artifact — standardization, t-scores,
reducers, the reduced axes' z-scores, neighbor search — while the other
dataset is treated as fully available context. Test rows only ever pass
through already fitted transforms.

A cell is one (seed, condition, fold) key: link the fold's rows through its D1
fit and the condition's one D2 fit (`link_into`), fit the logistic model,
whose schedule is fixed (`EPOCHS` steps of `LEARNING_RATE`, L2 penalty
`L2_LAMBDA`), score the test rows. `run_fold_conditions` runs a list of cells:
it links each on its own and fits their models in one `fit_logistics` call,
which stacks same-shape fits in lockstep and gives each model the bits of a
fit on its own. `evaluate_conditions` deals each wave's keys round-robin into
at most one chunk per usable core. It runs two waves, each one call of the
package's fork pool: the first runs the autoencoder fits and the other
conditions' chunks; the second, which inherits those fits, the autoencoder's
chunks. AUROCs are read back in the serial order. The first CV seed's folds
hold each D1 row out once, so their test rows' neighbors make an out-of-fold
D12 of every linked condition: the D12 that `after.svg` projects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import _kernels
from ._kernels import sigmoid
from .autoencoder import AutoencoderHyper
from .data import (
    Dataset,
    DataError,
    apply_standardization,
    fit_standardization,
    standardize,
    stratified_kfold,
)
from .linkage import (
    DEFAULT_K,
    DEFAULT_R,
    REDUCER_KINDS,
    FittedReducer,
    NeighborMap,
    _caught,
    _check_k,
    _unwrap,
    concat_linked,
    fit_jobs,
    fit_reducer,
    link_into,
    pair_reducers,
    pooled,
    random_rng,
    usable_cores,
)

CONDITION_ORDER = ("unlinked", "random", *REDUCER_KINDS)

DISPLAY_NAMES = {
    "unlinked": "Unlinked",
    "random": "Random",
    "feature_importance": "Feature importance",
    "pca": "Principal component analysis",
    "autoencoder": "Autoencoder",
}


# ---------------------------------------------------------------------------
# logistic classifier
# ---------------------------------------------------------------------------


LEARNING_RATE = 0.1
EPOCHS = 500
L2_LAMBDA = 1e-3


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    bias: float


def _logistic_grad(w: np.ndarray, b, X: np.ndarray, y: np.ndarray, l2: float):
    """Gradient in (w, b) of the mean cross-entropy plus (l2/2)*||w||^2; the
    bias is not penalized. Stacked operands, X (S, n, d), w (S, d) and b
    (S,), give each slice's gradient; a single fit's are X (n, d), w (d,)
    and a scalar b."""
    n = X.shape[-2]
    resid = sigmoid(np.matmul(X, w[..., None])[..., 0] + np.asarray(b)[..., None]) - y
    gw = np.matmul(X.swapaxes(-1, -2), resid[..., None])[..., 0] / n + l2 * w
    gb = np.add.reduce(resid, axis=-1) / n  # resid.mean()'s bits, without its overhead
    return gw, gb


def _check_training(X: np.ndarray, y: np.ndarray) -> None:
    if not (np.any(y == 0) and np.any(y == 1)):
        raise DataError("logistic training needs both classes")
    if not np.all(np.isfinite(X)):
        raise DataError("logistic training input contains non-finite values")


def fit_logistics(Xs: list[np.ndarray], ys: list[np.ndarray]) -> list[LogisticModel]:
    """One full-batch gradient descent from zero init per (n, d) matrix of
    `Xs` with its labels in `ys`, in input order; deterministic.

    The fits of one shape run in lockstep, S at a time. Each step is a few
    calls on the stacked (S, n, d) operands: `np.matmul` runs each slice's
    product as the matrix-vector product of a single fit does, and the bias
    gradient sums each slice's residuals as a 1-D sum does, so every model
    has the bits of its fit alone, whatever the other fits. Before any fit,
    the first slice without both classes or with a non-finite value raises."""
    Xs = [np.asarray(X, dtype=np.float64) for X in Xs]
    ys = [np.asarray(y, dtype=np.float64) for y in ys]
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, (x_s, y_s) in enumerate(zip(Xs, ys)):
        _check_training(x_s, y_s)
        groups.setdefault(x_s.shape, []).append(i)
    models = [None] * len(Xs)
    for group in groups.values():
        X = np.array([Xs[i] for i in group])
        y = np.array([ys[i] for i in group])
        w = np.zeros((X.shape[0], X.shape[2]))
        b = np.zeros(X.shape[0])
        for _ in range(EPOCHS):
            gw, gb = _logistic_grad(w, b, X, y, L2_LAMBDA)
            w = w - LEARNING_RATE * gw
            b = b - LEARNING_RATE * gb
        for i, w_s, b_s in zip(group, w, b):
            models[i] = LogisticModel(weights=w_s, bias=float(b_s))
    return models


def fit_logistic(X: np.ndarray, y: np.ndarray) -> LogisticModel:
    """Full-batch gradient descent from zero init; `fit_logistics` of one."""
    (model,) = fit_logistics([X], [y])
    return model


def predict_proba(m: LogisticModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != m.weights.shape[0]:
        raise DataError(f"model expects {m.weights.shape[0]} columns, got {X.shape[1]}")
    p = sigmoid(X @ m.weights + m.bias)
    return np.clip(p, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


# ---------------------------------------------------------------------------
# AUROC
# ---------------------------------------------------------------------------


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outscores a random negative, ties half.

    Computed by the tie-averaged rank-sum identity, which reproduces the
    pairwise definition exactly.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise DataError("scores and labels must align")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUROC needs both classes present")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    ranks = starts[inverse] + (counts[inverse] + 1.0) / 2.0
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# ---------------------------------------------------------------------------
# cross-validated condition comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class D2Context:
    """Per-condition artifacts of the source dataset, shared by every cell."""

    X_std: np.ndarray
    reducer: FittedReducer | None = None  # None for unlinked and random


@dataclass(frozen=True)
class FoldOutcome:
    auroc: float
    scores: np.ndarray
    model: LogisticModel
    neighbors_train: NeighborMap | None
    neighbors_test: NeighborMap | None


def standardized_folds(
    d1: Dataset, split: list[tuple[np.ndarray, np.ndarray]]
) -> list[tuple[Dataset, Dataset]]:
    """Each fold's D1 training and test rows, both standardized by the
    training rows' statistics. One CV seed's reducer fits and every
    condition's folds share them."""
    folds = []
    for tr, te in split:
        params = fit_standardization(d1.X[tr])
        folds.append(tuple(
            Dataset(d1.schema, apply_standardization(params, d1.X[rows]), d1.y[rows], d1.id)
            for rows in (tr, te)
        ))
    return folds


def prepare_d2_context(d2s: Dataset, reducer: FittedReducer | None = None) -> D2Context:
    """D2's standardized rows, those of `d2s`, with its fitted reducer (None
    for unlinked and random)."""
    return D2Context(d2s.X, reducer)


def _fold_features(
    condition: str, train: Dataset, test: Dataset, ctx: D2Context, reducer: FittedReducer | None,
    seed: int, fold: int, k: int,
) -> tuple[np.ndarray, np.ndarray, NeighborMap | None, NeighborMap | None]:
    """A cell's training and test features, the training ones checked for the
    logistic fit, and its neighbor maps (None unlinked)."""
    x_tr, x_te = train.X, test.X
    nb_tr = nb_te = None
    if condition == "unlinked":
        feat_tr, feat_te = x_tr, x_te
    else:
        (nb_tr, agg_tr), (nb_te, agg_te) = link_into(
            pair_reducers(reducer, ctx.reducer), ctx.X_std, k, random_rng(seed, fold), x_tr, x_te)
        feat_tr = np.hstack([x_tr, agg_tr])
        feat_te = np.hstack([x_te, agg_te])
    _check_training(feat_tr, train.y)
    return feat_tr, feat_te, nb_tr, nb_te


def _fold_outcome(y_te: np.ndarray, feat_te: np.ndarray, nb_tr: NeighborMap | None,
                  nb_te: NeighborMap | None, model: LogisticModel) -> FoldOutcome:
    scores = predict_proba(model, feat_te)
    return FoldOutcome(
        auroc=auroc(scores, y_te),
        scores=scores,
        model=model,
        neighbors_train=nb_tr,
        neighbors_test=nb_te,
    )


def run_fold_conditions(
    cells: list[tuple | Exception], *, k: int = DEFAULT_K
) -> list[FoldOutcome | Exception]:
    """Each cell's outcome, or the error it raised, in its place. A cell is
    `run_fold_condition`'s arguments (condition, train, test, ctx, reducer,
    seed, fold); a cell given as an error, one whose inputs failed, stays
    that error.

    Each cell links on its own; the cells that linked then fit their models
    in one `fit_logistics` call, which gives each model the bits of its fit
    alone."""
    outcomes = [cell if isinstance(cell, Exception) else _caught(_fold_features, *cell, k) for cell in cells]
    linked = [i for i, out in enumerate(outcomes) if not isinstance(out, Exception)]
    models = fit_logistics([outcomes[i][0] for i in linked], [cells[i][1].y for i in linked])
    for i, model in zip(linked, models):
        outcomes[i] = _caught(_fold_outcome, cells[i][2].y, *outcomes[i][1:], model)
    return outcomes


def run_fold_condition(
    condition: str,
    train: Dataset,
    test: Dataset,
    ctx: D2Context,
    reducer: FittedReducer | None = None,
    *,
    k: int = DEFAULT_K,
    seed: int = 0,
    fold: int = 0,
) -> FoldOutcome:
    """Evaluate one condition on one fold: `train` and `test` are the fold's
    D1 rows from `standardized_folds`, `reducer` the D1 side fitted on
    `train` (None for unlinked and random). Test labels touch nothing
    fitted. The one-cell call of `run_fold_conditions`."""
    (outcome,) = run_fold_conditions([(condition, train, test, ctx, reducer, seed, fold)], k=k)
    return _unwrap(outcome)


@dataclass(frozen=True)
class ConditionSummary:
    per_seed: tuple[tuple[float, ...], ...]  # [seed][fold], at least 2 values

    @property
    def values(self) -> list[float]:
        return [v for fold_list in self.per_seed for v in fold_list]

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def sd(self) -> float:  # the sample standard deviation over all fold-by-seed values
        return float(np.std(self.values, ddof=1))


@dataclass(frozen=True)
class EvaluationReport:
    d1_id: str
    d2_id: str
    folds: int
    seeds: tuple[int, ...]
    k: int
    r: int
    conditions: dict[str, ConditionSummary] = field(default_factory=dict)
    # linked condition -> the first CV seed's out-of-fold D12, which
    # `after.svg` projects: each row's medians come from the fold that held
    # it out. Not in the JSON
    after: dict[str, Dataset] = field(default_factory=dict, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "d1": self.d1_id,
            "d2": self.d2_id,
            "config": {"folds": self.folds, "seeds": list(self.seeds), "k": self.k, "R": self.r},
            "conditions": {
                name: {
                    "per_seed": [list(f) for f in c.per_seed],
                    "mean": c.mean,
                    "sd": c.sd,
                }
                for name, c in self.conditions.items()
            },
        }

    def to_table_text(self) -> str:
        lines = [
            f"Linkage of {self.d1_id} with {self.d2_id}",
            f"AUROC %, mean over {len(self.seeds)} seeds x {self.folds} folds (± sample sd)",
            "",
        ]
        width = max(len(DISPLAY_NAMES[c]) for c in self.conditions)
        header = f"{'Condition':<{width}} | AUROC"
        lines.append(header)
        lines.append("-" * len(header.split('|')[0]) + "+" + "-" * 14)
        for name, c in self.conditions.items():  # in CONDITION_ORDER, as evaluated
            lines.append(f"{DISPLAY_NAMES[name]:<{width}} | {100 * c.mean:5.1f} ± {100 * c.sd:4.1f}")
        return "\n".join(lines) + "\n"


def evaluate_conditions(
    d1: Dataset,
    d2: Dataset,
    conditions: list[str],
    folds: int,
    seeds: list[int],
    *,
    k: int = DEFAULT_K,
    r: int = DEFAULT_R,
    ae_hyper: AutoencoderHyper | None = None,
) -> EvaluationReport:
    """Per-fold AUROC of every condition under stratified cross-validation.

    All conditions in one seed share the identical fold split, so comparisons
    are paired. A cell is its (seed, condition, fold) key: link, fit the
    logistic model, score. D2's side of a condition is fitted once
    (`fit_jobs`) and every CV seed's cells read it. Each wave's keys are
    dealt round-robin into at most one chunk per usable core, each chunk one
    pooled `run_fold_conditions` call. The feature-importance and PCA sides
    are fitted here; then two waves run, each one `pooled` call. The first
    trains the autoencoders, D2's first, and runs the other conditions'
    chunks. The second, which inherits those fits, runs the autoencoder's
    chunks; without an autoencoder it has no task and forks nothing. Each
    fit and chunk comes back as its result or its error, and AUROCs are read
    in the serial loop's (seed, condition, fold) order, so neither the
    report nor the first error raised depends on the worker count.

    The first CV seed's reducer cells also return their test rows'
    neighbors, from which the report's `after` assembles each linked
    condition's out-of-fold D12. A k outside [1, D2's rows], no condition,
    no CV seed or a repeated CV seed fails before any fit.
    """
    if folds < 2:
        raise DataError("folds must be >= 2")
    if not seeds:
        raise DataError("seeds must be a non-empty list")
    repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]]
    if repeated:
        raise DataError(f"CV seed {repeated[0]} is listed more than once")
    unknown = [c for c in conditions if c not in CONDITION_ORDER]
    if unknown:
        raise DataError(f"unknown conditions: {unknown}")
    if not conditions:
        raise DataError("conditions must be a non-empty list")
    _check_k(k, d2.n)
    d1.require_both_classes()
    d2.require_both_classes()
    ordered = [c for c in CONDITION_ORDER if c in set(conditions)]
    splits = {seed: stratified_kfold(d1, folds, seed) for seed in seeds}
    runs = {seed: standardized_folds(d1, split) for seed, split in splits.items()}
    d2s = standardize(d2)  # once: every seed and condition shares D2's rows
    jobs = fit_jobs(ordered, d2s, [(seed, [tr for tr, _ in split]) for seed, split in runs.items()],
                    r=r, ae_hyper=ae_hyper)
    first = seeds[0]  # the CV seed of every cell's D2 fit and of `after`'s out-of-fold D12s
    linked = [cond for cond in ordered if cond in REDUCER_KINDS]
    # fitted here, before the pool forks, so the pooled cells inherit them;
    # each fit or its error, which a cell raises where the serial loop would
    fits = {key: _caught(fit_reducer, *job) for key, job in jobs.items() if job[0] != "autoencoder"}
    # D2's fit, the longest, is listed first and so starts first
    ae_keys = [key for key, job in jobs.items() if job[0] == "autoencoder"]

    def cell_args(seed: int, cond: str, fold: int) -> tuple:
        train, test = runs[seed][fold]
        ctx = prepare_d2_context(d2s, _unwrap(fits.get((first, cond, None))))
        return cond, train, test, ctx, _unwrap(fits.get((seed, cond, fold))), seed, fold

    def chunk_outcomes(chunk: list[tuple]) -> list[tuple[float, NeighborMap | None] | Exception]:
        # each cell's AUROC, with its test rows' neighbors if `after` needs them
        outcomes = run_fold_conditions([_caught(cell_args, *key) for key in chunk], k=k)
        return [out if isinstance(out, Exception) else
                (out.auroc, out.neighbors_test if key[0] == first and key[1] in linked else None)
                for key, out in zip(chunk, outcomes)]

    keys = [(seed, cond, fold) for seed in seeds for cond in ordered for fold in range(folds)]
    cores = usable_cores()
    cells: dict[tuple, tuple[float, NeighborMap | None] | Exception] = {}
    # the autoencoder's cells wait for its fits: its wave forks after the
    # first returns, and inherits them
    for ae_wave in (False, True):
        fit_keys = [] if ae_wave else ae_keys
        wave = [key for key in keys if (key[1] == "autoencoder") == ae_wave]
        chunks = [wave[j::cores] for j in range(min(cores, len(wave)))]
        results = iter(pooled([partial(fit_reducer, *jobs[key]) for key in fit_keys]
                              + [partial(chunk_outcomes, chunk) for chunk in chunks]))
        # read in the order submitted: zip takes each key before its result,
        # so it stops after its last key's result
        fits.update(zip(fit_keys, results))
        for chunk, result in zip(chunks, results):  # a failed chunk fails each of its cells
            cells.update(zip(chunk, result if isinstance(result, list) else [result] * len(chunk)))
    per_seed = np.reshape([_unwrap(cells[key])[0] for key in keys], (len(seeds), len(ordered), folds))
    d1s, after = standardize(d1), {}
    for cond in linked:  # each row's medians from the fold that held it out
        agg = np.empty((d1.n, d2s.k))
        for fold, (_, te) in enumerate(splits[first]):
            agg[te] = _kernels.median_over_rows(d2s.X, cells[first, cond, fold][1].neighbors)
        after[cond] = concat_linked(d1s, agg, d2s)
    return EvaluationReport(
        d1_id=d1.id,
        d2_id=d2.id,
        folds=folds,
        seeds=tuple(int(s) for s in seeds),
        k=k,
        r=r,
        conditions={c: ConditionSummary(tuple(map(tuple, per_seed[:, j].tolist())))
                    for j, c in enumerate(ordered)},
        after=after,
    )
