"""Measure the linkage benefit with a fixed classifier and AUROC.

The target dataset is split with stratified cross-validation; for every
condition (unlinked, each reducer-based linkage, random linkage) the fold's
training rows drive every fitted artifact — standardization, t-scores,
reducers, latent normalization, neighbor search — while the other dataset is
treated as fully available context. Test rows only ever pass through already
fitted transforms.

A cell is one (seed, condition, fold): link the fold's rows (`link_into`),
fit the logistic model, score the test rows. `run_fold_conditions` runs a
list of cells: it links each on its own and fits the logistic models of
same-shape cells in lockstep (`fit_logistics`), which gives each model the
bits of a fit on its own. `evaluate_conditions` groups the cells by that
shape, the training row count and the feature count, which are known before
any linking, and deals each group into at most one chunk per usable core.
The chunks run on the package's fork pool: those of conditions without an
autoencoder next to the autoencoder fits, the autoencoder's on a second pool
once its fits are back. AUROCs are read back in the serial order. It also
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
    usable_cores,
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


def fit_logistics(
    Xs: list[np.ndarray], ys: list[np.ndarray], hyper: LogisticHyper | None = None
) -> list[LogisticModel]:
    """S full-batch gradient descents from zero init in lockstep, one per
    same-shape (n, d) matrix of `Xs` with its labels in `ys`; deterministic.

    Each step is a few calls on the stacked (S, n, d) operands: `np.matmul`
    runs each slice's product as the matrix-vector product of a single fit
    does, and the bias gradient sums each slice's residuals as a 1-D sum does,
    so every model has the bits of its fit alone, whatever S. The first
    slice without both classes or with a non-finite value raises."""
    hyper = hyper or LogisticHyper()
    X = np.array(Xs, dtype=np.float64)
    y = np.array(ys, dtype=np.float64)
    for x_s, y_s in zip(X, y):
        _check_training(x_s, y_s)
    w = np.zeros((X.shape[0], X.shape[2]))
    b = np.zeros(X.shape[0])
    for _ in range(hyper.epochs):
        gw, gb = _logistic_grad(w, b, X, y, hyper.l2_lambda)
        w = w - hyper.learning_rate * gw
        b = b - hyper.learning_rate * gb
    return [LogisticModel(weights=w_s, bias=float(b_s), hyper=hyper) for w_s, b_s in zip(w, b)]


def fit_logistic(X: np.ndarray, y: np.ndarray, hyper: LogisticHyper | None = None) -> LogisticModel:
    """Full-batch gradient descent from zero init; `fit_logistics` of one."""
    (model,) = fit_logistics([X], [y], hyper)
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
            condition, reducer, ctx.reducer, ctx.X_std, k, random_rng(seed, fold), x_tr, x_te)
        feat_tr = np.hstack([x_tr, agg_tr])
        feat_te = np.hstack([x_te, agg_te])
    _check_training(feat_tr, train.y)
    return feat_tr, feat_te, nb_tr, nb_te


def _fold_outcome(cell: tuple, feat_te: np.ndarray, nb_tr: NeighborMap | None, nb_te: NeighborMap | None,
                  model: LogisticModel) -> FoldOutcome:
    condition, _, test, *_ = cell
    scores = predict_proba(model, feat_te)
    return FoldOutcome(
        condition=condition,
        auroc=auroc(scores, test.y),
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

    Each cell links on its own; the cells whose training features share a
    shape then fit their logistic models in one `fit_logistics` call, which
    gives each model the bits of its fit alone."""
    outcomes: list = list(cells)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, cell in enumerate(cells):
        if not isinstance(cell, Exception):
            outcomes[i] = _caught(_fold_features, *cell, k)
            if not isinstance(outcomes[i], Exception):
                groups.setdefault(outcomes[i][0].shape, []).append(i)
    for members in groups.values():
        models = fit_logistics([outcomes[i][0] for i in members], [cells[i][1].y for i in members])
        for i, model in zip(members, models):
            outcomes[i] = _caught(_fold_outcome, cells[i], *outcomes[i][1:], model)
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


def _settled(fn: Callable[..., Any], *args) -> Callable[[], Any]:
    """Run `fn(*args)` now; a callable that returns its result or raises its
    error, so the error surfaces where the serial loop would have raised it."""
    result = _caught(fn, *args)
    return lambda: _unwrap(result)


def _chunks(cells: list[tuple], width: Callable[[str], int]) -> list[list[tuple]]:
    """The (seed, condition, fold, train, test) `cells` grouped by the shape
    of their logistic fit, training rows by `width(condition)` features, each
    group dealt round-robin into at most one chunk per usable core. Fold
    sizes that differ by a row make separate groups: no fit is padded."""
    groups: dict[tuple[int, int], list[tuple]] = {}
    for cell in cells:
        groups.setdefault((cell[3].n, width(cell[1])), []).append(cell)
    cores = usable_cores()
    return [group[j::cores] for group in groups.values() for j in range(min(cores, len(group)))]


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
    model, score. The cells run in chunks of the same logistic shape
    (`_chunks`), each chunk one pooled `run_fold_conditions` call whose
    models are fitted in lockstep. The feature-importance and PCA sides are
    fitted here; then one fork pool (`pooled`) trains the autoencoders, D2's
    first and the all-rows D1 sides last, and runs the chunks of the other
    conditions. Once the autoencoder cells' fits are back, a second pool
    runs their chunks. AUROCs are read in the serial loop's (seed,
    condition, fold) order, so neither the report nor the first error raised
    depends on the worker count.

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

    def cell_args(seed: int, cond: str, fold: int, train: Dataset, test: Dataset) -> tuple:
        ctx = prepare_d2_context(d2s, reducer(seed, cond, None))
        return cond, train, test, ctx, reducer(seed, cond, fold), seed, fold

    def chunk_aurocs(chunk: list[tuple]) -> list[float | Exception]:
        outcomes = run_fold_conditions([_caught(cell_args, *cell) for cell in chunk], k=k)
        return [out if isinstance(out, Exception) else out.auroc for out in outcomes]

    def width(cond: str) -> int:
        return d1.k + (d2.k if cond != "unlinked" else 0)

    cells = [(seed, cond, fold, tr, te)
             for seed, split in runs for cond in ordered for fold, (tr, te) in enumerate(split)]
    chunks = _chunks([cell for cell in cells if cell[1] != "autoencoder"], width)
    tasks = [(partial(fit_reducer, *jobs[key]), True) for key in ae_keys] + [
        (partial(chunk_aurocs, chunk), True) for chunk in chunks]
    with pooled(tasks) as results:
        # the second pool forks once the autoencoder cells' fits are settled
        # here, and inherits them; after.svg's all-rows fits may still train
        fits.update((key, _settled(result) if key[2] != ALL_ROWS else result)
                    for key, result in zip(ae_keys, results))
        ae_chunks = _chunks([cell for cell in cells if cell[1] == "autoencoder"], width)
        with pooled([(partial(chunk_aurocs, chunk), True) for chunk in ae_chunks]) as ae_results:
            getters = results[len(ae_keys):] + ae_results
            slot = {cell[:3]: (get, pos) for chunk, get in zip(chunks + ae_chunks, getters)
                    for pos, cell in enumerate(chunk)}
            aurocs = [_unwrap(get()[pos]) for get, pos in (slot[cell[:3]] for cell in cells)]
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
