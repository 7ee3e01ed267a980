import multiprocessing
import os

import numpy as np
import pytest

from disjoint_link import _kernels, evaluation, linkage
from disjoint_link.autoencoder import AutoencoderHyper
from disjoint_link.data import (
    DataError,
    apply_standardization,
    fit_standardization,
    standardize,
    stratified_kfold,
)
from disjoint_link.evaluation import (
    LogisticHyper,
    _logistic_grad,
    auroc,
    evaluate_conditions,
    fit_logistic,
    fit_logistics,
    predict_proba,
    prepare_d2_context,
    run_fold_condition,
    run_fold_conditions,
    standardized_folds,
)
from disjoint_link.linkage import fit_jobs, fit_reducer, link_detailed, pair_reducers
from disjoint_link.reducers import normalize_latent
from disjoint_link.synth import SyntheticPairConfig, synthesize_disjoint_pair

from oracles import auroc_brute, fit_logistic_reference, logistic_loss, roc_curve


class TestLogistic:
    def test_separable_case(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = fit_logistic(X, y)
        assert auroc(predict_proba(model, X), y) == 1.0

    def test_fit_matches_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(5)
        hyper = LogisticHyper()
        for n, k in ((240, 16), (61, 3), (7, 1)):
            X = rng.normal(size=(n, k)) * rng.choice([0.5, 3.0, 40.0], size=k)
            y = (rng.random(n) < 0.3).astype(float)
            y[:2] = 0.0, 1.0
            model = fit_logistic(X, y, hyper)
            w, b = fit_logistic_reference(X, y, hyper)
            assert model.weights.tobytes() == w.tobytes() and model.bias == b

    @pytest.mark.parametrize("d", [1, 3, 6, 16])
    @pytest.mark.parametrize("n", [7, 61, 160, 239, 240, 241, 2000])
    def test_lockstep_fits_match_the_reference_bit_for_bit(self, n, d):
        # every slice of a stack has the bits of its fit alone, whatever
        # the stack's size; 239-241 rows are the fold sizes of a 300-row
        # dataset in 5 folds, each fitted in its own stack
        rng = np.random.default_rng(n * 100 + d)
        hyper = LogisticHyper(epochs=40)
        Xs = [rng.normal(size=(n, d)) * rng.choice([0.5, 3.0, 40.0], size=d) for _ in range(15)]
        ys = [(rng.random(n) < 0.3).astype(float) for _ in range(15)]
        for y in ys:
            y[:2] = 0.0, 1.0
        want = [fit_logistic_reference(X, y, hyper) for X, y in zip(Xs, ys)]
        for stack in (1, 2, 15):
            models = fit_logistics(Xs[:stack], ys[:stack], hyper)
            assert len(models) == stack
            for model, (w, b) in zip(models, want):
                assert model.weights.tobytes() == w.tobytes() and model.bias == b

    def test_lockstep_fits_name_the_first_bad_slice(self):
        X = np.arange(6.0).reshape(3, 2)
        with pytest.raises(DataError, match="^logistic training needs both classes$"):
            fit_logistics([X, X], [np.array([0, 1, 0]), np.array([1, 1, 1])])
        with pytest.raises(DataError, match="^logistic training input contains non-finite values$"):
            fit_logistics([X, np.where(X == 5.0, np.inf, X)], [np.array([0, 1, 0])] * 2)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 4))
        y = rng.integers(0, 2, size=12).astype(float)
        y[0], y[1] = 0, 1
        w = rng.normal(size=4)
        b = 0.3
        lam = 0.01
        gw, gb = _logistic_grad(w, b, X, y, lam)
        eps = 1e-6
        for j in range(4):
            wp, wm = w.copy(), w.copy()
            wp[j] += eps
            wm[j] -= eps
            hi = logistic_loss(wp, b, X, y, lam)
            lo = logistic_loss(wm, b, X, y, lam)
            num = (hi - lo) / (2 * eps)
            assert abs(gw[j] - num) / max(abs(num), 1e-8) < 1e-6
        hi = logistic_loss(w, b + eps, X, y, lam)
        lo = logistic_loss(w, b - eps, X, y, lam)
        assert abs(gb - (hi - lo) / (2 * eps)) / max(abs(gb), 1e-8) < 1e-6

    def test_strong_regularization_shrinks_to_prior(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 3))
        y = (rng.uniform(size=200) < 0.3).astype(int)
        hyper = LogisticHyper(learning_rate=0.01, epochs=4000, l2_lambda=50.0)
        model = fit_logistic(X, y, hyper)
        assert np.abs(model.weights).max() < 0.01
        assert predict_proba(model, X).mean() == pytest.approx(y.mean(), abs=0.02)

    def test_loss_non_increasing_default_lr(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 6))
        X = apply_standardization(fit_standardization(X), X)
        y = (X[:, 0] + rng.normal(size=50) > 0).astype(float)
        hyper = LogisticHyper()
        w = np.zeros(6)
        b = 0.0
        losses = []
        for _ in range(200):
            losses.append(logistic_loss(w, b, X, y, hyper.l2_lambda))
            gw, gb = _logistic_grad(w, b, X, y, hyper.l2_lambda)
            w = w - hyper.learning_rate * gw
            b = b - hyper.learning_rate * gb
        assert (np.diff(losses) <= 1e-12).all()

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            fit_logistic(np.zeros((3, 1)), np.array([1, 1, 1]))

    def test_predict_hand_case(self):
        from disjoint_link.evaluation import LogisticModel

        model = LogisticModel(weights=np.array([2.0]), bias=-1.0)
        p = predict_proba(model, np.array([[1.0]]))
        assert p[0] == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_zero_model_gives_half(self):
        from disjoint_link.evaluation import LogisticModel

        model = LogisticModel(weights=np.zeros(2), bias=0.0)
        np.testing.assert_array_equal(predict_proba(model, np.zeros((4, 2))), np.full(4, 0.5))

    def test_probabilities_in_open_interval(self):
        from disjoint_link.evaluation import LogisticModel

        model = LogisticModel(weights=np.array([1000.0]), bias=0.0)
        p = predict_proba(model, np.array([[-5.0], [5.0]]))
        assert 0.0 < p[0] and p[1] < 1.0


class TestAuroc:
    def test_extremes(self):
        assert auroc(np.array([0.1, 0.9]), np.array([0, 1])) == 1.0
        assert auroc(np.array([0.9, 0.1]), np.array([0, 1])) == 0.0

    def test_all_ties_half(self):
        assert auroc(np.ones(6), np.array([0, 1, 0, 1, 0, 1])) == 0.5

    def test_hand_case(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        labels = np.array([0, 0, 1, 1])
        assert auroc(scores, labels) == 0.75

    def test_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 50))
            scores = rng.integers(0, 6, size=n).astype(float)  # heavy ties
            labels = np.zeros(n, dtype=int)
            labels[: int(rng.integers(1, n))] = 1
            rng.shuffle(labels)
            if labels.sum() in (0, n):
                continue
            assert auroc(scores, labels) == pytest.approx(
                auroc_brute(scores.tolist(), labels.tolist()), abs=1e-12
            )

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=30)
        labels = np.array([0, 1] * 15)
        transformed = np.exp(3.0 * scores) + 7.0
        assert auroc(scores, labels) == pytest.approx(auroc(transformed, labels), abs=1e-12)

    def test_complement_identity(self):
        rng = np.random.default_rng(5)
        scores = rng.integers(0, 4, size=40).astype(float)
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[1] = 0, 1
        assert auroc(scores, labels) + auroc(scores, 1 - labels) == pytest.approx(1.0, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auroc(np.array([0.1, 0.2]), np.array([1, 1]))


class TestRocCurve:
    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=25)
        labels = np.array([0, 1] * 12 + [0])
        curve = roc_curve(scores, labels)
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
        assert (np.diff(curve.fpr) >= 0).all()
        assert (np.diff(curve.tpr) >= 0).all()

    def test_trapezoid_area_matches_auroc(self):
        rng = np.random.default_rng(7)
        scores = rng.integers(0, 5, size=60).astype(float)
        labels = rng.integers(0, 2, size=60)
        labels[0], labels[1] = 0, 1
        curve = roc_curve(scores, labels)
        area = np.trapezoid(curve.tpr, curve.fpr)
        assert area == pytest.approx(auroc(scores, labels), abs=1e-12)

    def test_thresholds_descending(self):
        scores = np.array([0.1, 0.5, 0.5, 0.9])
        labels = np.array([0, 1, 0, 1])
        curve = roc_curve(scores, labels)
        assert (np.diff(curve.thresholds) < 0).all()


def small_pair(seed=0):
    cfg = SyntheticPairConfig(latent_dim=2, n1=60, n2=120, k1=4, k2=5,
                              noise_sigma=0.5, positive_rate=0.3, seed=seed)
    return synthesize_disjoint_pair(cfg)


class TestEvaluateConditions:
    def test_unlinked_only_equals_plain_cv(self):
        d1, d2 = small_pair()
        report = evaluate_conditions(d1, d2, ["unlinked"], folds=3, seeds=[0], k=3, r=2)
        manual = []
        for tr, te in stratified_kfold(d1, 3, 0):
            params = fit_standardization(d1.X[tr])
            xtr = apply_standardization(params, d1.X[tr])
            xte = apply_standardization(params, d1.X[te])
            model = fit_logistic(xtr, d1.y[tr])
            manual.append(auroc(predict_proba(model, xte), d1.y[te]))
        got = list(report.conditions["unlinked"].per_seed[0])
        assert got == pytest.approx(manual, abs=1e-15)

    def test_bookkeeping_two_seeds(self):
        d1, d2 = small_pair()
        report = evaluate_conditions(d1, d2, ["unlinked", "random"], folds=3,
                                     seeds=[0, 1], k=3, r=2)
        for cond in ("unlinked", "random"):
            c = report.conditions[cond]
            assert len(c.per_seed) == 2
            assert all(len(f) == 3 for f in c.per_seed)
            assert 0.0 <= c.mean <= 1.0

    def test_all_aurocs_in_unit_interval(self):
        d1, d2 = small_pair(1)
        from disjoint_link.autoencoder import AutoencoderHyper

        report = evaluate_conditions(
            d1, d2, ["unlinked", "random", "feature_importance", "pca", "autoencoder"],
            folds=2, seeds=[0], k=3, r=2,
            ae_hyper=AutoencoderHyper(epochs=5),
        )
        for c in report.conditions.values():
            assert all(0.0 <= v <= 1.0 for v in c.values)

    def test_unknown_condition_rejected(self):
        d1, d2 = small_pair()
        with pytest.raises(DataError, match="unknown conditions"):
            evaluate_conditions(d1, d2, ["umap"], folds=2, seeds=[0])

    def test_k_exceeding_source_rejected(self):
        d1, d2 = small_pair()
        with pytest.raises(DataError, match="exceeds the source"):
            evaluate_conditions(d1, d2, ["random"], folds=2, seeds=[0], k=d2.n + 1)

    def test_repeated_seed_rejected(self):
        d1, d2 = small_pair()
        with pytest.raises(DataError, match="^CV seed 0 is listed more than once$"):
            evaluate_conditions(d1, d2, ["unlinked"], folds=2, seeds=[0, 0])

    def test_report_serialization(self):
        d1, d2 = small_pair()
        report = evaluate_conditions(d1, d2, ["unlinked", "random"], folds=2, seeds=[0], k=2, r=2)
        doc = report.to_json_dict()
        assert doc["config"]["folds"] == 2
        assert "unlinked" in doc["conditions"]
        table = report.to_table_text()
        assert "Unlinked" in table and "Random" in table
        assert table.index("Unlinked") < table.index("Random")

    def test_table_single_condition(self):
        d1, d2 = small_pair()
        report = evaluate_conditions(d1, d2, ["unlinked"], folds=2, seeds=[0], k=2, r=2)
        lines = [l for l in report.to_table_text().splitlines() if "|" in l and "±" in l]
        assert len(lines) == 1


def serial_per_seed(d1, d2, cond, folds, seeds, *, k, r, ae_hyper=None):
    """One condition's per-seed AUROCs from the pipeline's steps called one
    after another in this process, each fit from the job `fit_jobs` lists."""
    splits = {seed: stratified_kfold(d1, folds, seed) for seed in seeds}
    runs = [(seed, standardized_folds(d1, splits[seed])) for seed in seeds]
    d2s, _ = standardize(d2)
    jobs = fit_jobs([cond], d2s, [(seed, [tr for tr, _ in fs]) for seed, fs in runs], r=r, ae_hyper=ae_hyper)
    want = []
    for seed, fs in runs:
        d2_job = jobs.get((seed, cond, None))
        ctx = prepare_d2_context(d2s, d2_job and fit_reducer(*d2_job))
        fold_values = []
        for fold, ((tr, te), (d1_tr, d1_te)) in enumerate(zip(splits[seed], fs)):
            params = fit_standardization(d1.X[tr])
            assert np.array_equal(d1_tr.X, apply_standardization(params, d1.X[tr]))
            assert np.array_equal(d1_te.X, apply_standardization(params, d1.X[te]))
            d1_job = jobs.get((seed, cond, fold))
            assert d1_job is None or d1_job[1] is d1_tr
            fit1 = d1_job and fit_reducer(*d1_job)
            fold_values.append(run_fold_condition(cond, d1_tr, d1_te, ctx, fit1, k=k, seed=seed, fold=fold).auroc)
        want.append(tuple(fold_values))
    return tuple(want)


class TestPooledFits:
    def test_report_equals_the_serial_pipeline(self):
        # every pooled fit reaches the (seed, fold) it was listed for
        d1, d2 = small_pair(4)
        hyper = AutoencoderHyper(hidden_dims=(4,), epochs=5)
        seeds = [0, 1]
        report = evaluate_conditions(d1, d2, ["autoencoder"], folds=3, seeds=seeds, k=3, r=2,
                                     ae_hyper=hyper)
        assert multiprocessing.active_children() == []
        want = serial_per_seed(d1, d2, "autoencoder", 3, seeds, k=3, r=2, ae_hyper=hyper)
        assert report.conditions["autoencoder"].per_seed == want

    def test_divergence_leaves_no_worker(self):
        d1, d2 = small_pair(4)
        hyper = AutoencoderHyper(hidden_dims=(), epochs=50, learning_rate=50.0)
        with pytest.raises(RuntimeError, match="non-finite reconstruction loss at epoch"):
            evaluate_conditions(d1, d2, ["autoencoder"], folds=3, seeds=[0], k=3, r=2, ae_hyper=hyper)
        assert multiprocessing.active_children() == []

    def test_cells_without_autoencoder_run_in_workers(self, monkeypatch, tmp_path):
        # no cell runs in this process, each reaches the (seed, condition,
        # fold) it was listed for, and no worker outlives the call
        parent, log = os.getpid(), tmp_path / "cells.log"

        def recording_run(cells, **kwargs):
            with open(log, "a", encoding="utf-8") as fh:  # one line per chunk, from any process
                fh.write(f"{os.getpid()} {' '.join(cell[0] for cell in cells)}\n")
            return run_fold_conditions(cells, **kwargs)

        monkeypatch.setattr(evaluation, "run_fold_conditions", recording_run)
        d1, d2 = small_pair(4)
        conditions = ["unlinked", "random", "feature_importance", "pca"]
        report = evaluate_conditions(d1, d2, conditions, folds=3, seeds=[0, 1], k=3, r=2)
        assert multiprocessing.active_children() == []
        chunks = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
        in_parent = [cond for pid, *conds in chunks if int(pid) == parent for cond in conds]
        assert in_parent == []
        assert sorted(cond for _, *conds in chunks for cond in conds) == sorted(conditions * 2 * 3)
        for cond in conditions:
            assert report.conditions[cond].per_seed == serial_per_seed(d1, d2, cond, 3, [0, 1], k=3, r=2), cond

    def test_a_failing_fit_raises_where_the_serial_loop_would(self, monkeypatch):
        # feature importance is fitted before the pool forks, but its error
        # is raised at its first cell, so an earlier cell's error comes first
        def failing_fit(kind, *args):
            if kind == "feature_importance":
                raise DataError("fit failed")
            return fit_reducer(kind, *args)

        def failing_run(cells, **kwargs):
            # a cell whose fit failed comes as that error
            keys = [None if isinstance(cell, Exception) else (cell[0], cell[6]) for cell in cells]
            return [DataError("cell failed") if key == ("random", 1) else out
                    for key, out in zip(keys, run_fold_conditions(cells, **kwargs))]

        monkeypatch.setattr(evaluation, "fit_reducer", failing_fit)
        d1, d2 = small_pair()
        conditions = ["unlinked", "random", "feature_importance"]
        with pytest.raises(DataError, match="^fit failed$"):
            evaluate_conditions(d1, d2, conditions, folds=2, seeds=[0], k=3, r=2)
        monkeypatch.setattr(evaluation, "run_fold_conditions", failing_run)
        with pytest.raises(DataError, match="^cell failed$"):
            evaluate_conditions(d1, d2, conditions, folds=2, seeds=[0], k=3, r=2)
        assert multiprocessing.active_children() == []

    def test_report_does_not_depend_on_usable_cores(self, monkeypatch):
        # 23 positives in 3 folds give training folds of 39, 40 and 41 rows,
        # so every condition's cells form three groups; one core stacks each
        # group whole, two split it, and the autoencoder cells run on a
        # second pool
        d1, d2 = small_pair(5)
        hyper = AutoencoderHyper(hidden_dims=(4,), epochs=5)
        reports = []
        for cores in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
            report = evaluate_conditions(d1, d2, list(evaluation.CONDITION_ORDER), folds=3, seeds=[0, 1],
                                         k=3, r=2, ae_hyper=hyper)
            reports.append(report.to_json_dict())
            assert multiprocessing.active_children() == []
        assert reports[0] == reports[1]
        assert reports[0]["conditions"]["autoencoder"]["per_seed"] == [
            list(v) for v in serial_per_seed(d1, d2, "autoencoder", 3, [0, 1], k=3, r=2, ae_hyper=hyper)]

    def test_cells_fit_in_same_shape_stacks(self, monkeypatch):
        # with the pool run here, every lockstep fit stacks one shape, and
        # the 39-, 40- and 41-row training folds never share a stack
        shapes = []

        def recording_fits(Xs, ys, hyper=None):
            shapes.append(sorted({np.shape(X) for X in Xs}))
            return fit_logistics(Xs, ys, hyper)

        monkeypatch.setattr(evaluation, "pooled", lambda tasks: linkage.pooled(tasks, in_pool=False))
        monkeypatch.setattr(evaluation, "fit_logistics", recording_fits)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        d1, d2 = small_pair(5)
        evaluate_conditions(d1, d2, ["unlinked", "random", "pca"], folds=3, seeds=[0], k=3, r=2)
        assert all(len(stack) == 1 for stack in shapes)
        # one core: one stack per (rows, features) group, unlinked's and the
        # linked conditions' for each fold size
        assert sorted(stack[0] for stack in shapes) == [(n, d) for n in (39, 40, 41) for d in (4, 9)]


class TestOnePipeline:
    @pytest.mark.parametrize("condition", ["feature_importance", "pca", "autoencoder", "random"])
    def test_all_rows_fold_matches_link(self, condition):
        # with every row in both training and test, a fold links D1 exactly as
        # `link` does: the same seeds, R and random draws
        d1, d2 = small_pair(3)
        rows = np.arange(d1.n)
        d2s, _ = standardize(d2)
        ((train, test),) = standardized_folds(d1, [(rows, rows)])
        jobs = fit_jobs([condition], d2s, [(0, [train])], r=3, ae_hyper=None)
        fits = {fold: fit_reducer(*job) for (_, _, fold), job in jobs.items()}
        ctx = prepare_d2_context(d2s, fits.get(None))
        out = run_fold_condition(condition, train, test, ctx, fits.get(0), k=4)
        want = link_detailed(d1, d2, condition, k=4, r=3).neighbors_12
        assert np.array_equal(out.neighbors_train.neighbors, want.neighbors)
        assert np.array_equal(out.neighbors_train.distances, want.distances, equal_nan=True)


class TestLinkAllRows:
    def test_fits_nothing_and_equals_link(self, monkeypatch):
        # evaluate links every linked condition's all-rows D1 side through the
        # D2 fit it evaluated, on its pool, so after.svg's D12 is `link`'s and
        # reading it fits nothing
        d1, d2 = small_pair(3)
        hyper = AutoencoderHyper(hidden_dims=(4,), epochs=5)
        conditions = ["feature_importance", "pca", "autoencoder"]
        report = evaluate_conditions(d1, d2, conditions, folds=3, seeds=[2], k=3, r=2, ae_hyper=hyper)
        want = {c: link_detailed(d1, d2, c, k=3, r=2, ae_hyper=hyper, seed=2).d12 for c in conditions}
        assert sorted(report.after) == sorted(conditions)
        for cond in conditions:
            got = report.after[cond]
            assert got.X.tobytes() == want[cond].X.tobytes(), cond
            assert got.feature_names == want[cond].feature_names


class TestTestRows:
    @pytest.mark.parametrize("condition", ["feature_importance", "pca", "autoencoder"])
    def test_pass_through_the_training_rows_latent_statistics(self, condition):
        # the test block is z-scored by the training block's latent
        # statistics, never by its own
        d1, d2 = small_pair(2)
        ((train, test),) = standardized_folds(d1, stratified_kfold(d1, 3, 0)[:1])
        d2s, _ = standardize(d2)
        jobs = fit_jobs([condition], d2s, [(0, [train])], r=2, ae_hyper=AutoencoderHyper(epochs=5))
        fits = {fold: fit_reducer(*job) for (_, _, fold), job in jobs.items()}
        out = run_fold_condition(condition, train, test, prepare_d2_context(d2s, fits[None]), fits[0], k=3)
        to_shared1, to_shared2 = pair_reducers(fits[0], fits[None])
        z_te = normalize_latent(to_shared1(train.X), to_shared1(test.X))[1]
        (z2,) = normalize_latent(to_shared2(d2s.X))
        want_idx, want_dist = _kernels.nearest(z_te, z2, 3)
        assert np.array_equal(out.neighbors_test.neighbors, want_idx)
        assert np.array_equal(out.neighbors_test.distances, want_dist)


class TestLeakageAudit:
    @pytest.mark.parametrize("condition", ["unlinked", "random", "feature_importance", "pca", "autoencoder"])
    def test_permuting_test_labels_changes_no_artifact(self, condition):
        from disjoint_link.autoencoder import AutoencoderHyper
        from disjoint_link.data import Dataset

        d1, d2 = small_pair(2)
        hyper = AutoencoderHyper(epochs=5)
        splits = stratified_kfold(d1, 3, 0)
        tr, te = splits[0]

        d2s, _ = standardize(d2)

        def run(d):
            ((d_tr, d_te),) = standardized_folds(d, [(tr, te)])
            jobs = fit_jobs([condition], d2s, [(0, [d_tr])], r=2, ae_hyper=hyper)
            fits = {fold: fit_reducer(*job) for (_, _, fold), job in jobs.items()}
            ctx = prepare_d2_context(d2s, fits.get(None))
            return run_fold_condition(condition, d_tr, d_te, ctx, fits.get(0), k=3, seed=0, fold=0)

        y_mut = d1.y.copy()
        y_mut[te] = np.roll(y_mut[te], 1)  # permute only the test fold's labels
        assert not np.array_equal(y_mut, d1.y)
        d1_mut = Dataset(d1.schema, d1.X, y_mut, d1.id)

        a = run(d1)
        b = run(d1_mut)

        assert np.array_equal(a.model.weights, b.model.weights)
        assert a.model.bias == b.model.bias
        assert np.array_equal(a.scores, b.scores)
        if a.neighbors_train is not None:
            assert np.array_equal(a.neighbors_train.neighbors, b.neighbors_train.neighbors)
            assert np.array_equal(a.neighbors_test.neighbors, b.neighbors_test.neighbors)
