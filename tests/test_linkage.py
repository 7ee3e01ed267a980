import concurrent.futures
import multiprocessing
import os
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from disjoint_link import _kernels, linkage
from disjoint_link.autoencoder import AutoencoderHyper, fit_autoencoder
from disjoint_link.data import DataError, standardize
from disjoint_link.linkage import (
    fit_reducer,
    link_detailed,
    link_into,
    linked_to_csv,
    neighbors_to_csv,
    pair_reducers,
    pooled,
)
from disjoint_link.reducers import autoencoder_to_payload, normalize_latent

from oracles import LinkageMatrix, distance_matrix, k_nearest, pairwise_dist_brute


def reduced(a):
    return np.asarray(a, dtype=float)


class TestDistanceMatrix:
    def test_identity(self):
        m = distance_matrix(reduced([[1.0, 2.0]]), reduced([[1.0, 2.0]]))
        assert m.dist.tolist() == [[0.0]]

    def test_3_4_5(self):
        m = distance_matrix(reduced([[0.0, 0.0]]), reduced([[3.0, 4.0]]))
        assert m.dist[0, 0] == 5.0

    def test_bruteforce_oracle(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
        m = distance_matrix(reduced(a), reduced(b))
        np.testing.assert_allclose(m.dist, pairwise_dist_brute(a, b), atol=1e-12)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(6, 3)), rng.normal(size=(9, 3))
        fwd = distance_matrix(reduced(a), reduced(b)).dist
        rev = distance_matrix(reduced(b), reduced(a)).dist
        np.testing.assert_allclose(fwd, rev.T, atol=1e-12)

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(5, 4)), rng.normal(size=(7, 4))
        d_ab = distance_matrix(reduced(a), reduced(b)).dist
        d_bb = pairwise_dist_brute(b, b)
        for i in range(5):
            for j in range(7):
                for l in range(7):
                    assert d_ab[i, j] <= d_ab[i, l] + d_bb[l, j] + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            distance_matrix(reduced([[1.0, 2.0]]), reduced([[1.0]]))

    def test_row_col_sources(self):
        a, b = reduced([[0.0]]), reduced([[1.0]])
        m = distance_matrix(a, b, "left", "right")
        assert (m.row_source, m.col_source) == ("left", "right")
        back = distance_matrix(b, a, "right", "left")
        assert (back.row_source, back.col_source) == ("right", "left")


class TestKNearest:
    def test_tie_break(self):
        m = LinkageMatrix(np.array([[2.0, 1.0, 1.0]]), "a", "b")
        nb = k_nearest(m, 2)
        assert nb.neighbors.tolist() == [[1, 2]]

    def test_k_equals_m(self):
        rng = np.random.default_rng(3)
        m = LinkageMatrix(rng.uniform(size=(3, 5)), "a", "b")
        nb = k_nearest(m, 5)
        for row in nb.neighbors:
            assert sorted(row.tolist()) == list(range(5))

    def test_k1_argmin(self):
        rng = np.random.default_rng(4)
        dist = rng.uniform(size=(6, 8))
        nb = k_nearest(LinkageMatrix(dist, "a", "b"), 1)
        np.testing.assert_array_equal(nb.neighbors[:, 0], dist.argmin(axis=1))

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        dist = rng.uniform(size=(4, 6))
        a = k_nearest(LinkageMatrix(dist, "a", "b"), 3)
        b = k_nearest(LinkageMatrix(dist * 37.5, "a", "b"), 3)
        np.testing.assert_array_equal(a.neighbors, b.neighbors)

    def test_k_too_large(self):
        with pytest.raises(DataError):
            k_nearest(LinkageMatrix(np.zeros((2, 3)), "a", "b"), 4)

    def test_row_distances_non_decreasing(self):
        rng = np.random.default_rng(6)
        nb = k_nearest(LinkageMatrix(rng.uniform(size=(5, 9)), "a", "b"), 4)
        assert (np.diff(nb.distances, axis=1) >= 0).all()


class TestNearestNeighbors:
    """The exact neighbor search `link_into` runs, `_kernels.nearest`."""

    def test_equals_k_nearest_of_the_matrix(self):
        rng = np.random.default_rng(4)
        a, b = reduced(rng.integers(0, 3, size=(9, 2))), reduced(rng.integers(0, 3, size=(13, 2)))
        ref_features = rng.normal(size=(13, 3))
        idx, dist = _kernels.nearest(a, b, 4)
        agg = _kernels.median_over_rows(ref_features, idx)
        want = k_nearest(distance_matrix(a, b), 4)
        np.testing.assert_array_equal(idx, want.neighbors)
        np.testing.assert_array_equal(dist, want.distances)
        np.testing.assert_array_equal(agg, _kernels.median_over_rows(ref_features, want.neighbors))

    def test_memory_stays_below_half_a_matrix(self):
        n = m = 4000
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(n, 8)), rng.normal(size=(m, 8))
        tracemalloc.start()
        try:
            idx, _ = _kernels.nearest(a, b, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert idx.shape == (n, 5)
        assert peak < 8 * n * m / 2


class TestMedianAggregate:
    """The neighbors' feature-wise median `link_into` appends, `_kernels.median_over_rows`."""

    def test_k1_identity(self):
        m = LinkageMatrix(np.array([[0.5, 0.1], [0.2, 0.9]]), "a", "b")
        nb = k_nearest(m, 1)
        src = np.array([[10.0, 1.0], [20.0, 2.0]])
        out = _kernels.median_over_rows(src, nb.neighbors)
        np.testing.assert_array_equal(out, src[[1, 0]])

    def test_odd_median(self):
        nb = k_nearest(LinkageMatrix(np.array([[1.0, 2.0, 3.0]]), "a", "b"), 3)
        out = _kernels.median_over_rows(np.array([[1.0], [5.0], [100.0]]), nb.neighbors)
        assert out[0, 0] == 5.0

    def test_even_midpoint(self):
        nb = k_nearest(LinkageMatrix(np.array([[1.0, 2.0, 3.0, 4.0]]), "a", "b"), 4)
        out = _kernels.median_over_rows(np.array([[1.0], [3.0], [5.0], [100.0]]), nb.neighbors)
        assert out[0, 0] == 4.0

    def test_neighbor_permutation_invariance(self):
        rng = np.random.default_rng(7)
        src = rng.normal(size=(10, 3))
        idx = np.array([[0, 3, 7, 9], [2, 4, 5, 8]])
        shuffled = idx[:, [2, 0, 3, 1]]
        np.testing.assert_array_equal(_kernels.median_over_rows(src, idx), _kernels.median_over_rows(src, shuffled))


class TestLink:
    def test_self_linkage_fixed_point(self, make_dataset):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(6, 2))
        y = [0, 1, 0, 1, 0, 1]
        d = make_dataset(X, y, "base")
        copy = make_dataset(X.copy(), y, "copy")
        d12 = link_detailed(d, copy, "pca", k=1, r=2).d12
        own = d12.X[:, :2]
        agg = d12.X[:, 2:]
        np.testing.assert_allclose(agg, own, atol=1e-12)

    def test_dimension_contract(self, make_dataset):
        rng = np.random.default_rng(9)
        d1 = make_dataset(rng.normal(size=(7, 3)), [0, 1] * 3 + [0], "d1")
        d2 = make_dataset(rng.normal(size=(11, 5)), [0, 1] * 5 + [1], "d2")
        res = link_detailed(d1, d2, "pca", k=3, r=8)
        assert res.d12.X.shape == (7, 8)
        assert res.d21.X.shape == (11, 8)
        assert sum(name.startswith("own.") for name in res.d12.feature_names) == 3
        assert sum(name.startswith("agg.") for name in res.d12.feature_names) == 5

    def test_golden_hand_trace(self, make_dataset):
        # d1 raw [[0],[2]] -> standardized [[-1],[1]]; d2 raw [[10],[14]] -> [[-1],[1]]
        # PCA R=1 keeps the axis; distances [[0,2],[2,0]]; k=1 matches row i to col i
        d1 = make_dataset([[0.0], [2.0]], [0, 1], "d1")
        d2 = make_dataset([[10.0], [14.0]], [0, 1], "d2")
        res = link_detailed(d1, d2, "pca", k=1, r=1)
        full = link_detailed(d1, d2, "pca", k=2, r=1)  # both columns: the whole matrix
        assert full.neighbors_12.neighbors.tolist() == [[0, 1], [1, 0]]
        np.testing.assert_allclose(full.neighbors_12.distances, [[0.0, 2.0], [0.0, 2.0]], atol=1e-12)
        assert res.neighbors_12.neighbors.tolist() == [[0], [1]]
        assert res.neighbors_21.neighbors.tolist() == [[0], [1]]
        np.testing.assert_allclose(res.d12.X, [[-1.0, -1.0], [1.0, 1.0]], atol=1e-12)
        np.testing.assert_allclose(res.d21.X, [[-1.0, -1.0], [1.0, 1.0]], atol=1e-12)
        assert res.d12.y.tolist() == [0, 1]
        assert res.reducer_payload["R"] == 1

    def test_result_holds_no_pair_matrix(self, make_dataset):
        rng = np.random.default_rng(12)
        d1 = make_dataset(rng.normal(size=(7, 3)), [0, 1] * 3 + [0], "d1")
        d2 = make_dataset(rng.normal(size=(13, 2)), [0, 1] * 6 + [1], "d2")
        res = link_detailed(d1, d2, "pca", k=3, r=2)
        parts = [res, res.d12, res.d21, res.neighbors_12, res.neighbors_21]
        shapes = {np.shape(v) for part in parts for v in vars(part).values() if isinstance(v, np.ndarray)}
        assert (7, 13) not in shapes and (13, 7) not in shapes

    def test_base_block_is_standardized_dataset(self, make_dataset):
        rng = np.random.default_rng(10)
        d1 = make_dataset(rng.normal(size=(8, 3)) * 4 + 2, [0, 1] * 4, "d1")
        d2 = make_dataset(rng.normal(size=(12, 4)), [0, 1] * 6, "d2")
        d12 = link_detailed(d1, d2, "pca", k=2, r=2).d12
        want, _ = standardize(d1)
        assert np.array_equal(d12.X[:, :3], want.X)

    def test_pipeline_deterministic(self, make_dataset):
        rng = np.random.default_rng(11)
        d1 = make_dataset(rng.normal(size=(10, 3)), [0, 1] * 5, "d1")
        d2 = make_dataset(rng.normal(size=(15, 4)), [0, 1, 1] * 5, "d2")
        from disjoint_link.autoencoder import AutoencoderHyper

        hyper = AutoencoderHyper(epochs=5, seed=3)
        a = link_detailed(d1, d2, "autoencoder", k=3, r=2, ae_hyper=hyper, seed=9)
        b = link_detailed(d1, d2, "autoencoder", k=3, r=2, ae_hyper=hyper, seed=9)
        assert np.array_equal(a.d12.X, b.d12.X)
        assert np.array_equal(a.d21.X, b.d21.X)

    def test_feature_importance_link(self, make_dataset):
        rng = np.random.default_rng(12)
        X1 = rng.normal(size=(30, 4))
        y1 = (X1[:, 0] + 0.3 * rng.normal(size=30) > 0).astype(int)
        X2 = rng.normal(size=(40, 6))
        y2 = (X2[:, 1] + 0.3 * rng.normal(size=40) > 0).astype(int)
        d1 = make_dataset(X1, y1, "d1")
        d2 = make_dataset(X2, y2, "d2")
        res = link_detailed(d1, d2, "feature_importance", k=3)
        assert res.d12.X.shape == (30, 10)
        assert res.reducer_payload["kind"] == "feature_importance"
        assert res.reducer_payload["R"] == len(res.reducer_payload["sel1"]) == len(res.reducer_payload["sel2"])

    def test_unknown_reducer(self, make_dataset):
        d1 = make_dataset([[0.0], [1.0]], [0, 1], "d1")
        with pytest.raises(DataError, match="unknown reducer"):
            link_detailed(d1, d1, "umap")


class TestLinkInto:
    @pytest.mark.parametrize("cells", [None, 7 * 90])  # the default blocks, and 7-row blocks
    @pytest.mark.parametrize("kind", ["feature_importance", "pca", "autoencoder"])
    def test_each_block_is_its_own_search(self, make_dataset, monkeypatch, kind, cells):
        # link_into searches all its blocks in one call; each block's slice
        # must be the search and median of that block alone, bit for bit
        rng = np.random.default_rng(13)
        X1, X2 = rng.normal(size=(70, 4)), rng.normal(size=(90, 6))
        d1s, _ = standardize(make_dataset(X1, (X1[:, 0] + 0.3 * rng.normal(size=70) > 0).astype(int), "d1"))
        d2s, _ = standardize(make_dataset(X2, (X2[:, 1] + 0.3 * rng.normal(size=90) > 0).astype(int), "d2"))
        hyper = AutoencoderHyper(hidden_dims=(4,), epochs=5, seed=3)
        fit1, fit2 = fit_reducer(kind, d1s, 2, hyper), fit_reducer(kind, d2s, 2, hyper)
        if cells:
            monkeypatch.setattr(_kernels, "_BLOCK_CELLS", cells)
        blocks = (d1s.X[:50], d1s.X[50:], d1s.X[3:10])
        linked = link_into(kind, fit1, fit2, d2s.X, 4, None, *blocks)
        to_shared1, to_shared2 = pair_reducers(fit1, fit2)
        z1s = normalize_latent(*(to_shared1(x1) for x1 in blocks))
        (z2,) = normalize_latent(to_shared2(d2s.X))
        assert len(linked) == len(blocks)
        for (nb, agg), z1 in zip(linked, z1s):
            want_idx, want_dist = _kernels.nearest(z1, z2, 4)
            want_agg = _kernels.median_over_rows(d2s.X, want_idx)
            np.testing.assert_array_equal(nb.neighbors, want_idx)
            np.testing.assert_array_equal(nb.distances.view(np.uint64), want_dist.view(np.uint64))
            np.testing.assert_array_equal(agg.view(np.uint64), want_agg.view(np.uint64))


def no_fork():
    raise AssertionError("a process was started")


def outcomes(results):
    """`pooled`'s results with each error as its type and args, which compare."""
    return [(type(r), r.args) if isinstance(r, Exception) else r for r in results]


class TestPooledFits:
    def test_autoencoder_sides_keep_their_rows_and_seeds(self, make_dataset):
        # the evaluation's seeds for the fold of all D1 rows: D1 trains with
        # SeedSequence([seed, 0, 1]) and D2 with SeedSequence([seed, 2]),
        # however the pool schedules them, and no worker outlives the call
        rng = np.random.default_rng(13)
        d1 = make_dataset(rng.normal(size=(12, 3)), [0, 1] * 6, "d1")
        d2 = make_dataset(rng.normal(size=(16, 3)), [0, 1] * 8, "d2")
        hyper = AutoencoderHyper(hidden_dims=(4,), epochs=3)
        res = link_detailed(d1, d2, "autoencoder", k=2, r=2, ae_hyper=hyper, seed=4)
        assert multiprocessing.active_children() == []
        for side, d, tags in (("d1", d1, [4, 0, 1]), ("d2", d2, [4, 2])):
            seed = int(np.random.SeedSequence(tags).generate_state(1)[0])
            want = fit_autoencoder(standardize(d)[0].X, 2, replace(hyper, seed=seed))
            assert res.reducer_payload[side] == autoencoder_to_payload(want), side

    def test_no_autoencoder_starts_no_process(self, make_dataset, monkeypatch):
        monkeypatch.setattr(os, "fork", no_fork)
        rng = np.random.default_rng(14)
        d1 = make_dataset(rng.normal(size=(12, 3)), [0, 1] * 6, "d1")
        d2 = make_dataset(rng.normal(size=(16, 4)), [0, 1] * 8, "d2")
        for kind in ("pca", "feature_importance"):
            link_detailed(d1, d2, kind, k=2, r=2)


class TestPooled:
    """`pooled`'s one contract: each task's result, or the error it raised,
    in the order given, whether the tasks run on the fork pool or here."""

    def test_both_modes_return_results_and_errors_in_order(self):
        calls = []

        def task(i):
            calls.append(i)  # seen only when the task runs in this process
            if i == 1:
                raise DataError("task 1 failed")
            return 10 * i

        tasks = [partial(task, i) for i in range(3)]
        in_process = pooled(tasks, in_pool=False)
        assert calls == [0, 1, 2]  # in order, and the error stopped no later task
        forked = pooled(tasks)
        assert calls == [0, 1, 2]  # the pool ran them in its workers
        assert multiprocessing.active_children() == []  # none left, after an error too
        assert outcomes(in_process) == outcomes(forked) == [0, (DataError, ("task 1 failed",)), 20]

    @pytest.mark.parametrize("n_tasks, cores, size", [(1, {0, 1}, 1), (3, {0, 1}, 2), (2, {0, 1, 2}, 2)])
    def test_pool_size_is_the_tasks_capped_by_usable_cores(self, monkeypatch, n_tasks, cores, size):
        sizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
        assert pooled([partial(int, i) for i in range(n_tasks)]) == list(range(n_tasks))
        assert sizes == [size]
        assert multiprocessing.active_children() == []

    def test_no_tasks_or_in_process_forks_nothing(self, monkeypatch):
        monkeypatch.setattr(os, "fork", no_fork)
        assert pooled([]) == []
        assert outcomes(pooled([partial(int, "4"), partial(int, "x")], in_pool=False)) == [
            4, (ValueError, ("invalid literal for int() with base 10: 'x'",))]

    def test_failing_directions_of_a_small_link_report_d12s_error(self, make_dataset, monkeypatch):
        # every file of this link is one CSV block, so both directions are
        # searched here, D21 after D12 failed, and D12's error is raised
        searched = []

        def failing_link_into(kind, fit1, fit2, x2, k, rng, x1):
            searched.append(len(x1))
            raise DataError("D12 failed" if len(x1) == 12 else "D21 failed")

        monkeypatch.setattr(linkage, "link_into", failing_link_into)
        monkeypatch.setattr(os, "fork", no_fork)
        rng = np.random.default_rng(15)
        d1 = make_dataset(rng.normal(size=(12, 3)), [0, 1] * 6, "d1")
        d2 = make_dataset(rng.normal(size=(16, 4)), [0, 1] * 8, "d2")
        with pytest.raises(DataError, match="^D12 failed$"):
            link_detailed(d1, d2, "pca", k=2, r=2)
        assert searched == [12, 16]


class TestRandomLink:
    def test_deterministic(self, make_dataset):
        rng = np.random.default_rng(13)
        d1 = make_dataset(rng.normal(size=(8, 2)), [0, 1] * 4, "d1")
        d2 = make_dataset(rng.normal(size=(9, 3)), [0, 1, 0] * 3, "d2")
        a = link_detailed(d1, d2, "random", k=2, seed=5)
        b = link_detailed(d1, d2, "random", k=2, seed=5)
        assert np.array_equal(a.d12.X, b.d12.X) and np.array_equal(a.d21.X, b.d21.X)

    def test_k_equals_m_matches_true_linkage(self, make_dataset):
        rng = np.random.default_rng(14)
        d1 = make_dataset(rng.normal(size=(6, 2)), [0, 1] * 3, "d1")
        d2 = make_dataset(rng.normal(size=(6, 3)), [0, 1] * 3, "d2")
        rand = link_detailed(d1, d2, "random", k=6, seed=0)
        true = link_detailed(d1, d2, "pca", k=6, r=2)
        np.testing.assert_allclose(rand.d12.X, true.d12.X, atol=1e-12)
        np.testing.assert_allclose(rand.d21.X, true.d21.X, atol=1e-12)

    def test_k_too_large(self, make_dataset):
        d1 = make_dataset([[0.0], [1.0]], [0, 1], "d1")
        with pytest.raises(DataError):
            link_detailed(d1, d1, "random", k=3, seed=0)

    def test_uniform_selection_frequency(self, make_dataset):
        # 10 rows x 1000 seeds with k=1: each column expected at rate 0.1,
        # binomial sd = sqrt(.1*.9/10000) ~= 0.003, so 0.03 is a 10-sigma band
        rng = np.random.default_rng(15)
        d1 = make_dataset(rng.normal(size=(10, 2)), [0, 1] * 5, "d1")
        d2 = make_dataset(rng.normal(size=(10, 2)), [0, 1] * 5, "d2")
        counts = np.zeros(10)
        for seed in range(1000):
            nb12 = link_detailed(d1, d2, "random", k=1, seed=seed).neighbors_12
            for j in nb12.neighbors[:, 0]:
                counts[j] += 1
        freq = counts / 10000.0
        assert (np.abs(freq - 0.1) <= 0.03).all()

    def test_payload_names_kind_k_seed(self, make_dataset):
        rng = np.random.default_rng(13)
        d1 = make_dataset(rng.normal(size=(8, 2)), [0, 1] * 4, "d1")
        d2 = make_dataset(rng.normal(size=(9, 3)), [0, 1, 0] * 3, "d2")
        res = link_detailed(d1, d2, "random", k=2, seed=5)
        assert res.reducer_payload == {"kind": "random", "k": 2, "seed": 5}

    def test_no_duplicate_neighbors_per_row(self, make_dataset):
        rng = np.random.default_rng(16)
        d1 = make_dataset(rng.normal(size=(5, 2)), [0, 1, 0, 1, 0], "d1")
        d2 = make_dataset(rng.normal(size=(7, 2)), [0, 1] * 3 + [0], "d2")
        nb12 = link_detailed(d1, d2, "random", k=4, seed=2).neighbors_12
        for row in nb12.neighbors:
            assert len(set(row.tolist())) == 4


class TestSerialization:
    def test_linked_csv_headers(self, tmp_path, make_dataset):
        rng = np.random.default_rng(17)
        d1 = make_dataset(rng.normal(size=(5, 2)), [0, 1, 0, 1, 0], "one")
        d2 = make_dataset(rng.normal(size=(6, 3)), [0, 1] * 3, "two")
        d12 = link_detailed(d1, d2, "pca", k=2, r=2).d12
        path = tmp_path / "d12.csv"
        linked_to_csv(d12, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:2] == ["own.f0", "own.f1"]
        assert header[2:5] == ["agg.two.f0", "agg.two.f1", "agg.two.f2"]
        assert header[-1] == "label"

    def test_neighbors_csv_format(self, tmp_path, make_dataset):
        rng = np.random.default_rng(18)
        d1 = make_dataset(rng.normal(size=(4, 2)), [0, 1, 0, 1], "d1")
        d2 = make_dataset(rng.normal(size=(5, 2)), [0, 1, 0, 1, 0], "d2")
        res = link_detailed(d1, d2, "pca", k=2, r=2)
        path = tmp_path / "nb.csv"
        neighbors_to_csv(res.neighbors_12, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "row_index,rank,col_index,distance"
        assert len(lines) == 1 + 4 * 2
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
