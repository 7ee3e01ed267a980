import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disjoint_link.data import (
    DataError,
    Dataset,
    FeatureSchema,
    apply_standardization,
    dataset_to_csv,
    fit_standardization,
    load_csv,
    schema_to_json,
    standardize,
    stratified_kfold,
)
from oracles import invert_standardization, schema_from_json


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSchema:
    def test_categorical_needs_two_categories(self):
        with pytest.raises(DataError):
            FeatureSchema("x", "categorical", ("only",))

    def test_unknown_kind(self):
        with pytest.raises(DataError):
            FeatureSchema("x", "weird")

    def test_duplicate_names_rejected(self):
        schema = (FeatureSchema("a", "numeric"), FeatureSchema("a", "numeric"))
        with pytest.raises(DataError):
            Dataset(schema, np.zeros((2, 2)), np.array([0, 1]), "d")

    def test_json_round_trip(self):
        schema = (
            FeatureSchema("age", "numeric"),
            FeatureSchema("region", "categorical", ("north", "south")),
        )
        assert schema_from_json(schema_to_json(schema)) == schema


class TestLoadCsv:
    def test_median_imputation(self, tmp_path):
        path = write_csv(tmp_path, "x,label\n1,0\n2,1\n,0\n4,1\n")
        d = load_csv(path, "label")
        assert d.X[:, 0].tolist() == [1.0, 2.0, 2.0, 4.0]

    def test_one_hot_definition(self, tmp_path):
        path = write_csv(tmp_path, "c,label\nA,0\nB,1\nA,0\n")
        d = load_csv(path, "label")
        assert d.feature_names == ["c=A", "c=B"]
        assert d.X.tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]

    def test_non_binary_label_rejected(self, tmp_path):
        path = write_csv(tmp_path, "x,label\n1,0\n2,2\n3,1\n")
        with pytest.raises(DataError, match="non-binary label"):
            load_csv(path, "label")

    def test_missing_label_column(self, tmp_path):
        path = write_csv(tmp_path, "x,y\n1,0\n2,1\n")
        with pytest.raises(DataError, match="label column"):
            load_csv(path, "label")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "nope.csv", "label")

    def test_entirely_missing_column(self, tmp_path):
        path = write_csv(tmp_path, "x,empty,label\n1,,0\n2,,1\n")
        with pytest.raises(DataError, match="no values to impute"):
            load_csv(path, "label")

    def test_categorical_mode_imputation(self, tmp_path):
        path = write_csv(tmp_path, "c,label\nB,0\nB,1\nA,0\n,1\n")
        d = load_csv(path, "label")
        # mode is B; missing row gets the B column
        assert d.X[3].tolist() == [0.0, 1.0]

    def test_mode_tie_broken_lexicographically(self, tmp_path):
        path = write_csv(tmp_path, "c,label\nB,0\nA,1\n,0\n")
        d = load_csv(path, "label")
        assert d.X[2].tolist() == [1.0, 0.0]  # A wins the tie

    def test_schema_hint_forces_numeric(self, tmp_path):
        path = write_csv(tmp_path, "x,label\n1,0\n2,1\n3,0\n")
        d = load_csv(path, "label", schema_hints=[FeatureSchema("x", "numeric")])
        assert d.schema[0].kind == "numeric"

    def test_float_labels_accepted(self, tmp_path):
        path = write_csv(tmp_path, "x,label\n1,0.0\n2,1.0\n")
        d = load_csv(path, "label")
        assert d.y.tolist() == [0, 1]

    @given(
        rows=st.lists(st.sampled_from(["A", "B", "C"]), min_size=3, max_size=30).filter(
            lambda r: len(set(r)) >= 2
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_one_hot_rows_sum_to_one(self, tmp_path_factory, rows):
        tmp = tmp_path_factory.mktemp("hyp")
        labels = [i % 2 for i in range(len(rows))]
        text = "c,label\n" + "".join(f"{c},{y}\n" for c, y in zip(rows, labels))
        d = load_csv(write_csv(tmp, text), "label")
        np.testing.assert_array_equal(d.X.sum(axis=1), np.ones(len(rows)))


class TestStandardize:
    def test_two_point_column(self, make_dataset):
        d = make_dataset([[1.0], [3.0]], [0, 1])
        out, params = standardize(d), fit_standardization(d.X)
        assert out.X[:, 0].tolist() == [-1.0, 1.0]
        assert params.means[0] == 2.0
        assert params.stddevs[0] == 1.0  # population convention

    def test_constant_column_zeroed_and_flagged(self, make_dataset):
        d = make_dataset([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]], [0, 1, 0])
        out, params = standardize(d), fit_standardization(d.X)
        assert out.X[:, 0].tolist() == [0.0, 0.0, 0.0]
        assert params.constant_mask.tolist() == [True, False]

    def test_idempotent_on_standardized_data(self, make_dataset):
        rng = np.random.default_rng(0)
        d = make_dataset(rng.normal(size=(20, 3)), rng.integers(0, 2, size=20))
        once = standardize(d)
        twice = standardize(once)
        np.testing.assert_allclose(twice.X, once.X, atol=1e-10)

    def test_round_trip_inversion(self):
        rng = np.random.default_rng(1)
        X = rng.normal(loc=5.0, scale=3.0, size=(30, 4))
        X[:, 2] = 7.5  # constant column inverts back through the stored mean
        params = fit_standardization(X)
        back = invert_standardization(params, apply_standardization(params, X))
        np.testing.assert_allclose(back, X, rtol=1e-10)

    def test_means_and_stddevs_after(self, make_dataset):
        rng = np.random.default_rng(2)
        d = make_dataset(rng.normal(size=(50, 5)) * 9 + 4, rng.integers(0, 2, size=50))
        out = standardize(d)
        np.testing.assert_allclose(out.X.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.X.std(axis=0), 1.0, atol=1e-10)


class TestStratifiedKfold:
    def test_forced_stratification(self, make_dataset):
        y = [1, 1] + [0] * 8
        d = make_dataset(np.arange(10, dtype=float)[:, None], y)
        for _, test in stratified_kfold(d, 2, seed=0):
            assert d.y[test].sum() == 1

    def test_deterministic(self, make_dataset):
        rng = np.random.default_rng(3)
        d = make_dataset(rng.normal(size=(40, 2)), rng.integers(0, 2, size=40))
        a = stratified_kfold(d, 4, seed=9)
        b = stratified_kfold(d, 4, seed=9)
        for (tr1, te1), (tr2, te2) in zip(a, b):
            np.testing.assert_array_equal(tr1, tr2)
            np.testing.assert_array_equal(te1, te2)

    def test_class_smaller_than_folds(self, make_dataset):
        d = make_dataset(np.arange(8, dtype=float)[:, None], [1, 1, 0, 0, 0, 0, 0, 0])
        with pytest.raises(DataError, match="fewer than"):
            stratified_kfold(d, 3, seed=0)

    @given(n=st.integers(12, 60), folds=st.integers(2, 4), seed=st.integers(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_partition_property(self, n, folds, seed):
        rng = np.random.default_rng(seed + 1000)
        y = np.zeros(n, dtype=int)
        y[: max(folds, n // 4)] = 1
        X = rng.normal(size=(n, 2))
        from conftest import numeric_dataset

        d = numeric_dataset(X, y)
        splits = stratified_kfold(d, folds, seed)
        all_test = np.concatenate([te for _, te in splits])
        assert sorted(all_test.tolist()) == list(range(n))
        pos_counts = [int(d.y[te].sum()) for _, te in splits]
        assert max(pos_counts) - min(pos_counts) <= 1
        for tr, te in splits:
            assert np.intersect1d(tr, te).size == 0

    def test_per_fold_positive_balance(self, make_dataset):
        rng = np.random.default_rng(5)
        y = np.array([1] * 7 + [0] * 33)
        d = make_dataset(rng.normal(size=(40, 2)), y)
        counts = [int(d.y[te].sum()) for _, te in stratified_kfold(d, 5, seed=1)]
        assert max(counts) - min(counts) <= 1


class TestDatasetInvariants:
    def test_row_count_mismatch(self, make_dataset):
        with pytest.raises(DataError):
            make_dataset(np.zeros((3, 2)), [0, 1])

    def test_nan_rejected(self, make_dataset):
        X = np.zeros((3, 2))
        X[1, 1] = np.nan
        with pytest.raises(DataError):
            make_dataset(X, [0, 1, 0])

    def test_non_binary_labels_rejected(self, make_dataset):
        with pytest.raises(DataError):
            make_dataset(np.zeros((3, 2)), [0, 1, 2])

    def test_csv_round_trip(self, tmp_path, make_dataset):
        rng = np.random.default_rng(4)
        d = make_dataset(rng.normal(size=(6, 3)), rng.integers(0, 2, size=6), "rt")
        path = tmp_path / "d.csv"
        dataset_to_csv(d, path)
        back = load_csv(path, "label")
        np.testing.assert_array_equal(back.X, d.X)
        np.testing.assert_array_equal(back.y, d.y)
