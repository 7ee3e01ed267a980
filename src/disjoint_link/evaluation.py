"""Measure the linkage benefit with a fixed classifier and AUROC.

The target dataset is split with stratified cross-validation; for every
condition (unlinked, each reducer-based linkage, random linkage) the fold's
training rows drive every fitted artifact — standardization, t-scores,
reducers, latent normalization, neighbor search — while the other dataset is
treated as fully available context. Test rows only ever pass through already
fitted transforms.

A cell is one (seed, condition, fold): link the fold's rows (`link_into`),
fit the logistic model, score the test rows. The cells are independent, so
`evaluate_conditions` runs them on the package's fork pool next to the
autoencoder fits, and reads their AUROCs back in the serial order. It also
fits the first CV seed's D1 side of every linked condition on all rows, which
`link_all_rows` links through that seed's evaluated D2 fit for the
`after.svg` projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

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
    FittedReducer,
    LinkedDataset,
    NeighborMap,
    concat_linked,
    fit_jobs,
    fit_reducer,
    link_into,
    pooled,
    random_rng,
)

ALL_ROWS = "all rows"  # the fold key of the first CV seed's all-rows D1 fits

CONDITION_ORDER = ("unlinked", "random", "feature_importance", "pca", "autoencoder")

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


@dataclass(frozen=True)
class LogisticHyper:
    learning_rate: float = 0.1
    epochs: int = 500
    l2_lambda: float = 1e-3


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray
    bias: float
    hyper: LogisticHyper


def _logistic_grad(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, l2: float):
    """Gradient in (w, b) of the mean cross-entropy plus (l2/2)*||w||^2; the
    bias is not penalized."""
    n = X.shape[0]
    resid = sigmoid(X @ w + b) - y
    gw = X.T @ resid / n + l2 * w
    gb = float(np.add.reduce(resid) / n)  # resid.mean()'s bits, without its overhead
    return gw, gb


def fit_logistic(X: np.ndarray, y: np.ndarray, hyper: LogisticHyper | None = None) -> LogisticModel:
    """Full-batch gradient descent from zero init; deterministic."""
    hyper = hyper or LogisticHyper()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not (np.any(y == 0) and np.any(y == 1)):
        raise DataError("logistic training needs both classes")
    if not np.all(np.isfinite(X)):
        raise DataError("logistic training input contains non-finite values")
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(hyper.epochs):
        gw, gb = _logistic_grad(w, b, X, y, hyper.l2_lambda)
        w = w - hyper.learning_rate * gw
        b = b - hyper.learning_rate * gb
    return LogisticModel(weights=w, bias=b, hyper=hyper)


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
    """Per-(condition, seed) artifacts of the source dataset, shared by folds."""

    X_std: np.ndarray
    reducer: FittedReducer | None = None  # None for unlinked and random


@dataclass(frozen=True)
class FoldOutcome:
    condition: str
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
    fitted."""
    x_tr, x_te = train.X, test.X
    nb_tr = nb_te = None
    if condition == "unlinked":
        feat_tr, feat_te = x_tr, x_te
    else:
        (nb_tr, agg_tr), (nb_te, agg_te) = link_into(
            condition, reducer, ctx.reducer, ctx.X_std, k, random_rng(seed, fold), x_tr, x_te)
        feat_tr = np.hstack([x_tr, agg_tr])
        feat_te = np.hstack([x_te, agg_te])

    model = fit_logistic(feat_tr, train.y)
    scores = predict_proba(model, feat_te)
    return FoldOutcome(
        condition=condition,
        auroc=auroc(scores, test.y),
        scores=scores,
        model=model,
        neighbors_train=nb_tr,
        neighbors_test=nb_te,
    )


@dataclass(frozen=True)
class ConditionSummary:
    name: str
    per_seed: tuple[tuple[float, ...], ...]  # [seed][fold]
    mean: float
    sd: float  # sample standard deviation over all fold-by-seed values

    @property
    def values(self) -> list[float]:
        return [v for fold_list in self.per_seed for v in fold_list]


@dataclass(frozen=True)
class EvaluationReport:
    d1_id: str
    d2_id: str
    folds: int
    seeds: tuple[int, ...]
    k: int
    r: int
    conditions: dict[str, ConditionSummary] = field(default_factory=dict)
    # the first CV seed's all-rows sides, condition -> ((D1 on all rows, its
    # fit), (D2, its fit)); each fit is a getter that raises the fit's error.
    # Not in the JSON
    all_rows_sides: dict[str, tuple[tuple[Dataset, Callable[[], FittedReducer]], ...]] = field(
        default_factory=dict, repr=False)

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
        for name in CONDITION_ORDER:
            if name not in self.conditions:
                continue
            c = self.conditions[name]
            lines.append(f"{DISPLAY_NAMES[name]:<{width}} | {100 * c.mean:5.1f} ± {100 * c.sd:4.1f}")
        return "\n".join(lines) + "\n"


def _summary(name: str, per_seed: list[list[float]]) -> ConditionSummary:
    flat = np.array([v for fl in per_seed for v in fl])
    sd = float(flat.std(ddof=1)) if flat.size > 1 else 0.0
    return ConditionSummary(
        name=name,
        per_seed=tuple(tuple(fl) for fl in per_seed),
        mean=float(flat.mean()),
        sd=sd,
    )


def _settled(fn: Callable[..., Any], *args) -> Callable[[], Any]:
    """Run `fn(*args)` now; a callable that returns its result or raises its
    error, so the error surfaces where the serial loop would have raised it."""
    try:
        value = fn(*args)
    except Exception as exc:
        def reraise(error=exc):  # bound now: `exc` is unset once the except block ends
            raise error
        return reraise
    return lambda: value


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
    are paired. A cell is one (seed, condition, fold): link, fit the logistic
    model, score. The feature-importance and PCA sides are fitted here; then
    one fork pool (`pooled`) trains the autoencoders, D2's first and the
    all-rows D1 sides last, and runs every cell of the other conditions,
    while the autoencoder cells run here once their fits are back. Results
    are read in the serial loop's (seed, condition, fold) order, so neither
    the report nor the first error raised depends on the worker count.

    The first CV seed's all-rows D1 sides are the fold of all rows that
    `link` fits, at that seed's R; the report hands them back with the seed's
    D2 fits for `link_all_rows`. A failed all-rows fit raises only there.
    """
    if folds < 2:
        raise DataError("folds must be >= 2")
    unknown = [c for c in conditions if c not in CONDITION_ORDER]
    if unknown:
        raise DataError(f"unknown conditions: {unknown}")
    if k > d2.n:
        raise DataError(f"k={k} exceeds the source dataset size {d2.n}")
    d1.require_both_classes()
    d2.require_both_classes()
    ordered = [c for c in CONDITION_ORDER if c in set(conditions)]
    runs = [(seed, standardized_folds(d1, stratified_kfold(d1, folds, seed))) for seed in seeds]
    d1s, _ = standardize(d1)
    d2s, _ = standardize(d2)  # once: every seed and condition shares D2's rows
    jobs = fit_jobs(ordered, d2s, [(seed, [tr for tr, _ in split]) for seed, split in runs],
                    r=r, ae_hyper=ae_hyper)
    d2_keys = [key for key in jobs if key[0] == seeds[0] and key[2] is None]
    for seed, cond, _ in d2_keys:
        jobs[seed, cond, ALL_ROWS] = fit_jobs([cond], d2s, [(seed, [d1s])], r=jobs[seed, cond, None][2],
                                              ae_hyper=ae_hyper)[seed, cond, 0]
    # fitted here, before the pool forks, so the pooled cells inherit them
    fits = {key: _settled(fit_reducer, *job) for key, job in jobs.items() if job[0] != "autoencoder"}
    # D2's fits, the longest, start first; the all-rows fits come last in `jobs`
    ae_keys = sorted((key for key, job in jobs.items() if job[0] == "autoencoder"),
                     key=lambda key: key[2] is not None)

    def reducer(*key):
        return fits[key]() if key in fits else None

    def cell_auroc(seed: int, cond: str, fold: int, train: Dataset, test: Dataset) -> float:
        ctx = prepare_d2_context(d2s, reducer(seed, cond, None))
        return run_fold_condition(cond, train, test, ctx, reducer(seed, cond, fold),
                                  k=k, seed=seed, fold=fold).auroc

    tasks = [(partial(fit_reducer, *jobs[key]), True) for key in ae_keys] + [
        (partial(cell_auroc, seed, cond, fold, tr, te), cond != "autoencoder")
        for seed, split in runs for cond in ordered for fold, (tr, te) in enumerate(split)
    ]
    with pooled(tasks) as results:
        # the autoencoder cells run here and find their fits' getters in `fits`
        fits.update(zip(ae_keys, results))
        aurocs = [result() for result in results[len(ae_keys):]]
        all_rows_sides = {
            cond: ((d1s, _settled(fits[seed, cond, ALL_ROWS])), (d2s, _settled(fits[seed, cond, None])))
            for seed, cond, _ in d2_keys}
    per_seed = np.reshape(aurocs, (len(seeds), len(ordered), folds))
    return EvaluationReport(
        d1_id=d1.id,
        d2_id=d2.id,
        folds=folds,
        seeds=tuple(int(s) for s in seeds),
        k=k,
        r=r,
        conditions={c: _summary(c, per_seed[:, j].tolist()) for j, c in enumerate(ordered)},
        all_rows_sides=all_rows_sides,
    )


def link_all_rows(report: EvaluationReport, condition: str) -> LinkedDataset:
    """`link`'s D12 for the report's first CV seed, which `after.svg` plots.

    It links the all-rows D1 side and the evaluated D2 side of `condition`
    that `evaluate_conditions` fitted, so it fits nothing; D21 is never
    built. Unless the seed's smallest training fold capped R below the
    all-rows fold's, this is `link_detailed(..., seed=report.seeds[0]).d12`.
    """
    (d1s, fit1), (d2s, fit2) = report.all_rows_sides[condition]
    ((_, agg),) = link_into(condition, fit1(), fit2(), d2s.X, report.k, random_rng(report.seeds[0], 0), d1s.X)
    return concat_linked(d1s, agg, d2s)
