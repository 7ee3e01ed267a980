import json

import numpy as np
import pytest
from scipy import stats

from disjoint_link.data import DataError
from disjoint_link.linkage import fit_reducer, pair_reducers
from disjoint_link.reducers import (
    PcaReducer,
    T_CAP,
    _apply_sign_convention,
    compute_t_scores,
    feature_importance_pair,
    fit_pca,
    normalize_latent,
    pair_to_payload,
    pca_to_payload,
    project_pca,
)

from oracles import pca_components_brute, welch_t_brute


class TestTScores:
    def test_hand_case(self, make_dataset):
        # class 0 = {1,2,3}, class 1 = {4,5,6}: t = 3/sqrt(1/3+1/3)
        d = make_dataset([[1], [2], [3], [4], [5], [6]], [0, 0, 0, 1, 1, 1])
        rep = compute_t_scores(d)
        assert rep.t[0] == pytest.approx(3.0 / np.sqrt(2.0 / 3.0), abs=1e-12)

    def test_against_scipy_reference(self, make_dataset):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 5))
        y = rng.integers(0, 2, size=30)
        y[:3] = 1
        y[3:6] = 0
        rep = compute_t_scores(make_dataset(X, y))
        ref = stats.ttest_ind(X[y == 1], X[y == 0], equal_var=False).statistic
        np.testing.assert_allclose(rep.t, ref, atol=1e-10)

    def test_against_bruteforce_many(self, make_dataset):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(5, 15))
            k = int(rng.integers(1, 5))
            X = rng.normal(size=(n, k))
            y = np.zeros(n, dtype=int)
            y[: int(rng.integers(2, n - 1))] = 1
            rep = compute_t_scores(make_dataset(X, y))
            for j in range(k):
                want = welch_t_brute(X[y == 0, j].tolist(), X[y == 1, j].tolist())
                assert rep.t[j] == pytest.approx(want, abs=1e-10)

    def test_label_swap_negates(self, make_dataset):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 4))
        y = np.array([0, 1] * 10)
        t_fwd = compute_t_scores(make_dataset(X, y)).t
        t_rev = compute_t_scores(make_dataset(X, 1 - y)).t
        np.testing.assert_allclose(t_fwd, -t_rev, atol=1e-12)

    def test_constant_equal_means_is_zero(self, make_dataset):
        d = make_dataset([[1.0], [1.0], [1.0], [1.0]], [0, 0, 1, 1])
        assert compute_t_scores(d).t[0] == 0.0

    def test_constant_unequal_means_capped(self, make_dataset):
        d = make_dataset([[0.0], [0.0], [1.0], [1.0]], [0, 0, 1, 1])
        assert compute_t_scores(d).t[0] == T_CAP

    def test_small_class_rejected(self, make_dataset):
        d = make_dataset([[1.0], [2.0], [3.0]], [0, 0, 1])
        with pytest.raises(DataError):
            compute_t_scores(d)

    def test_orderings_and_sign_split(self, make_dataset):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 6))
        y = rng.integers(0, 2, size=40)
        y[:4] = 1
        y[4:8] = 0
        rep = compute_t_scores(make_dataset(X, y))
        assert (rep.t[rep.positive_idx] > 0).all()
        assert (rep.t[rep.negative_idx] < 0).all()
        assert not set(rep.positive_idx) & set(rep.negative_idx)
        assert (np.diff(rep.t[rep.positive_idx]) <= 0).all()
        assert (np.diff(np.abs(rep.t[rep.negative_idx])) <= 0).all()


class TestFeatureImportancePair:
    def _report(self, t):
        from disjoint_link.reducers import TScoreReport

        t = np.asarray(t, dtype=float)
        pos = np.flatnonzero(t > 0)
        neg = np.flatnonzero(t < 0)
        pos = pos[np.argsort(-t[pos], kind="stable")]
        neg = neg[np.argsort(-np.abs(t[neg]), kind="stable")]
        return TScoreReport(t, pos, neg)

    def test_min_counts(self):
        r1 = self._report([3.0, 2.0, 1.0, -1.0, -2.0])  # 3 pos, 2 neg
        r2 = self._report([5.0, 4.0, -1.0, -2.0, -3.0, -4.0])  # 2 pos, 4 neg
        pair = feature_importance_pair(r1, r2)
        assert (pair.p_min, pair.n_min, pair.r) == (2, 2, 4)

    def test_identical_dataset_symmetric(self, make_dataset):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 5))
        y = rng.integers(0, 2, size=30)
        y[:2] = 1
        y[2:4] = 0
        d = make_dataset(X, y)
        fit = fit_reducer("feature_importance", d, 1, None)
        to_shared1, to_shared2, _ = pair_reducers(fit, fit)
        assert feature_importance_pair(fit, fit).r == 5
        np.testing.assert_array_equal(to_shared1(d.X), to_shared2(d.X))

    def test_all_negative_boundary(self):
        r1 = self._report([1.0, -2.0, -1.0])
        r2 = self._report([-3.0, -1.0])
        pair = feature_importance_pair(r1, r2)
        assert pair.p_min == 0 and pair.n_min == 2
        np.testing.assert_array_equal(pair.sel1, [1, 2])
        np.testing.assert_array_equal(pair.sel2, [0, 1])

    def test_no_common_polarity_errors(self):
        r1 = self._report([1.0, 2.0])
        r2 = self._report([-1.0, -2.0])
        with pytest.raises(DataError, match="no informative features"):
            feature_importance_pair(r1, r2)

    def test_selection_order_is_t_rank(self):
        r1 = self._report([0.5, 3.0, -0.2, 2.0])
        r2 = self._report([1.0, 2.0, -4.0])
        pair = feature_importance_pair(r1, r2)
        np.testing.assert_array_equal(pair.sel1, [1, 3, 2])
        np.testing.assert_array_equal(pair.sel2, [1, 0, 2])

    def test_payload_round_trip(self):
        r1 = self._report([1.0, -2.0])
        r2 = self._report([2.0, -1.0])
        pair = feature_importance_pair(r1, r2)
        doc = json.loads(json.dumps(pair_to_payload(pair, r1.t, r2.t)))
        assert (doc["p_min"], doc["n_min"]) == (pair.p_min, pair.n_min)
        assert np.array_equal(doc["sel1"], pair.sel1) and np.array_equal(doc["sel2"], pair.sel2)
        assert np.array_equal(doc["t1"], r1.t) and np.array_equal(doc["t2"], r2.t)


class TestPca:
    def test_axis_aligned_data(self):
        X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [-1.0, 0.0]])
        red = fit_pca(X, 1)
        np.testing.assert_allclose(red.components, [[1.0, 0.0]], atol=1e-12)

    def test_known_covariance_eigenstructure(self):
        # population covariance [[2,1],[1,2]]: eigenvalues (3,1)
        X = np.array([[2.0, 1.0], [-2.0, -1.0], [0.0, np.sqrt(3)], [0.0, -np.sqrt(3)]])
        red = fit_pca(X, 2)
        np.testing.assert_allclose(red.eigenvalues, [3.0, 1.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(red.components[0], [s, s], atol=1e-12)
        np.testing.assert_allclose(red.components[1], [s, -s], atol=1e-12)

    def test_full_rank_round_trip(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 4))
        red = fit_pca(X, 4)
        z = project_pca(red, X)
        np.testing.assert_allclose(z @ red.components + red.mean, X, atol=1e-8)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(6, 20))
            k = int(rng.integers(2, 8))
            X = rng.normal(size=(n, k))
            r = min(3, k)
            red = fit_pca(X, r)
            want_vals, want_comps = pca_components_brute(X, r)
            np.testing.assert_allclose(red.eigenvalues, want_vals, atol=1e-8)
            np.testing.assert_allclose(red.components, want_comps, atol=1e-8)

    def test_orthonormal_rows(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(25, 6))
        red = fit_pca(X, 4)
        np.testing.assert_allclose(red.components @ red.components.T, np.eye(4), atol=1e-8)

    def test_projection_decorrelated_and_variance_sums(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 5)) @ rng.normal(size=(5, 5))
        red = fit_pca(X, 3)
        z = project_pca(red, X)
        cov = (z - z.mean(axis=0)).T @ (z - z.mean(axis=0)) / z.shape[0]
        np.testing.assert_allclose(cov - np.diag(np.diag(cov)), 0.0, atol=1e-8)
        assert np.trace(cov) == pytest.approx(red.eigenvalues.sum(), abs=1e-8)

    def test_sign_convention_fixes_negated_vectors(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(20, 4))
        red = fit_pca(X, 3)
        flipped = red.components.copy()
        flipped[1] = -flipped[1]
        np.testing.assert_array_equal(_apply_sign_convention(flipped), red.components)

    def test_r_out_of_range(self):
        with pytest.raises(DataError):
            fit_pca(np.zeros((3, 2)), 3)

    def test_non_finite_rejected(self):
        X = np.zeros((4, 2))
        X[0, 0] = np.inf
        with pytest.raises(DataError):
            fit_pca(X, 1)

    def test_project_mean_row_is_zero(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(9, 3))
        red = fit_pca(X, 2)
        z = project_pca(red, X.mean(axis=0, keepdims=True))
        np.testing.assert_allclose(z, 0.0, atol=1e-12)

    def test_identity_components_give_centered_data(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
        red = PcaReducer(mean=X.mean(axis=0), components=np.eye(2), eigenvalues=np.ones(2))
        z = project_pca(red, X)
        np.testing.assert_allclose(z, X - X.mean(axis=0), atol=1e-12)

    def test_hand_projection(self):
        X = np.array([[2.0, 1.0], [-2.0, -1.0], [0.0, np.sqrt(3)], [0.0, -np.sqrt(3)]])
        red = fit_pca(X, 2)
        z = project_pca(red, np.array([[1.0, 1.0]]))
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(z, [[2 * s, 0.0]], atol=1e-12)

    def test_dimension_mismatch(self):
        red = fit_pca(np.random.default_rng(0).normal(size=(5, 3)), 2)
        with pytest.raises(DataError):
            project_pca(red, np.zeros((2, 4)))

    def test_payload_round_trip_bit_exact(self):
        rng = np.random.default_rng(11)
        red = fit_pca(rng.normal(size=(12, 5)), 3)
        doc = pca_to_payload(red)
        assert np.array_equal(doc["mean"], red.mean)
        assert np.array_equal(doc["components"], red.components)
        assert np.array_equal(doc["eigenvalues"], red.eigenvalues)

    def test_round_trip_through_json_text_bit_exact(self):
        rng = np.random.default_rng(12)
        red = fit_pca(rng.normal(size=(9, 4)) * 1e-7, 2)  # awkward magnitudes
        doc = json.loads(json.dumps(pca_to_payload(red)))
        assert np.array_equal(doc["mean"], red.mean)
        assert np.array_equal(doc["components"], red.components)
        assert np.array_equal(doc["eigenvalues"], red.eigenvalues)


class TestNormalizeLatent:
    def test_hand_case(self):
        (out,) = normalize_latent(np.array([[2.0], [4.0]]))
        assert out[:, 0].tolist() == [-1.0, 1.0]

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        (once,) = normalize_latent(rng.normal(size=(15, 3)))
        (twice,) = normalize_latent(once)
        np.testing.assert_allclose(twice, once, atol=1e-10)

    def test_constant_dim_zeroed(self):
        (out,) = normalize_latent(np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]))
        assert out[:, 1].tolist() == [0.0, 0.0, 0.0]

    def test_others_use_the_statistics_of_the_first(self):
        train, test = normalize_latent(np.array([[2.0], [4.0]]), np.array([[3.0], [6.0]]))
        assert train[:, 0].tolist() == [-1.0, 1.0]
        assert test[:, 0].tolist() == [0.0, 3.0]

    def test_single_row_rejected(self):
        with pytest.raises(DataError, match="at least 2 rows"):
            normalize_latent(np.array([[1.0, 2.0]]))
