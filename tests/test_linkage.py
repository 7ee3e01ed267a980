import ast
import concurrent.futures
import multiprocessing
import os
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from disjoint_link import _kernels, linkage
from disjoint_link.autoencoder import AutoencoderHyper, fit_autoencoder
from disjoint_link.data import DataError, standardize
from disjoint_link.evaluation import evaluate_conditions
from disjoint_link.linkage import (
    fit_reducer,
    link_detailed,
    link_into,
    linked_to_csv,
    neighbors_to_csv,
    pair_reducers,
    pooled,
    random_rng,
)
from disjoint_link.reducers import (
    autoencoder_to_payload,
    compute_t_scores,
    feature_importance_pair,
    normalize_latent,
)
from disjoint_link.synth import SyntheticPairConfig, synthesize_disjoint_pair, synthesize_disjoint_pair_detailed

from oracles import k_nearest_brute, score_fidelity


class TestNearestNeighbors:
    """The exact neighbor search `link_into` runs, `_kernels.nearest`."""

    def test_equals_k_nearest_of_the_matrix(self):
        rng = np.random.default_rng(4)
        a, b = rng.integers(0, 3, size=(9, 2)).astype(float), rng.integers(0, 3, size=(13, 2)).astype(float)
        ref_features = rng.normal(size=(13, 3))
        idx, dist = _kernels.nearest(a, b, 4)
        agg = _kernels.median_over_rows(ref_features, idx)
        want_idx, want_dist = k_nearest_brute(a, b, 4)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(dist, want_dist)
        np.testing.assert_array_equal(agg, _kernels.median_over_rows(ref_features, want_idx))

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
        want = standardize(d1)
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

    def test_feature_importance_link_pairs_once(self, make_dataset, monkeypatch):
        # D12, D21 and reducer.json share one pairing of the t-scores, and
        # the pair of the swapped sides is the first pair swapped
        rng = np.random.default_rng(12)
        X1, X2 = rng.normal(size=(30, 4)), rng.normal(size=(40, 6))
        d1 = make_dataset(X1, (X1[:, 0] + 0.3 * rng.normal(size=30) > 0).astype(int), "d1")
        d2 = make_dataset(X2, (X2[:, 1] + 0.3 * rng.normal(size=40) > 0).astype(int), "d2")
        pairs = []

        def counted(r1, r2):
            pairs.append(feature_importance_pair(r1, r2))
            return pairs[-1]

        monkeypatch.setattr(linkage, "feature_importance_pair", counted)
        monkeypatch.setattr(os, "fork", no_fork)
        res = link_detailed(d1, d2, "feature_importance", k=3)
        assert len(pairs) == 1
        fit1, fit2 = (compute_t_scores(standardize(d)) for d in (d1, d2))
        swapped = feature_importance_pair(fit2, fit1)
        assert (swapped.p_min, swapped.n_min) == (pairs[0].p_min, pairs[0].n_min)
        np.testing.assert_array_equal(swapped.sel1, pairs[0].sel2)
        np.testing.assert_array_equal(swapped.sel2, pairs[0].sel1)
        assert res.reducer_payload["sel2"] == swapped.sel1.tolist()

    def test_random_pairs_nothing(self):
        assert pair_reducers(None, None) is None

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
        d1s = standardize(make_dataset(X1, (X1[:, 0] + 0.3 * rng.normal(size=70) > 0).astype(int), "d1"))
        d2s = standardize(make_dataset(X2, (X2[:, 1] + 0.3 * rng.normal(size=90) > 0).astype(int), "d2"))
        hyper = AutoencoderHyper(hidden_dims=(4,), epochs=5, seed=3)
        fit1, fit2 = fit_reducer(kind, d1s, 2, hyper), fit_reducer(kind, d2s, 2, hyper)
        if cells:
            monkeypatch.setattr(_kernels, "_BLOCK_CELLS", cells)
        blocks = (d1s.X[:50], d1s.X[50:], d1s.X[3:10])
        pair = pair_reducers(fit1, fit2)
        linked = link_into(pair, d2s.X, 4, None, *blocks)
        to_shared1, to_shared2, _ = pair
        z1s = normalize_latent(*(to_shared1(x1) for x1 in blocks))
        (z2,) = normalize_latent(to_shared2(d2s.X))
        assert len(linked) == len(blocks)
        for (nb, agg), z1 in zip(linked, z1s):
            want_idx, want_dist = _kernels.nearest(z1, z2, 4)
            want_agg = _kernels.median_over_rows(d2s.X, want_idx)
            np.testing.assert_array_equal(nb.neighbors, want_idx)
            np.testing.assert_array_equal(nb.distances.view(np.uint64), want_dist.view(np.uint64))
            np.testing.assert_array_equal(agg.view(np.uint64), want_agg.view(np.uint64))


class TestOneKRule:
    """Every linking entry point checks k against D2's rows (`_check_k`),
    with one message, before it fits or draws anything."""

    @pytest.mark.parametrize("too_many", [False, True], ids=["k=0", "k=rows+1"])
    @pytest.mark.parametrize("entry", ["evaluate_conditions", "link_detailed", "link_into-pair", "link_into-random"])
    def test_one_message_at_every_entry_point(self, entry, too_many):
        d1, d2 = synthesize_disjoint_pair(SyntheticPairConfig(2, 40, 60, 3, 4, 0.5, 0.3, 3))
        d1s, d2s = standardize(d1), standardize(d2)
        k = d2.n + 1 if too_many else 0
        calls = {
            "evaluate_conditions": lambda: evaluate_conditions(d1, d2, ["random", "pca"], folds=2, seeds=[0], k=k),
            "link_detailed": lambda: link_detailed(d1, d2, "pca", k=k),
            "link_into-pair": lambda: link_into(
                pair_reducers(*(fit_reducer("pca", d, 2, AutoencoderHyper()) for d in (d1s, d2s))), d2s.X, k, None, d1s.X),
            "link_into-random": lambda: link_into(None, d2s.X, k, random_rng(0, 0), d1s.X),
        }
        with pytest.raises(DataError, match=rf"^k={k} must lie in \[1, {d2.n}\]$"):
            calls[entry]()


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
            want = fit_autoencoder(standardize(d).X, 2, replace(hyper, seed=seed))
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
        assert sizes == ([size] if size > 1 else [])  # a pool of one worker is no pool
        assert multiprocessing.active_children() == []

    def test_no_tasks_or_in_process_forks_nothing(self, monkeypatch):
        monkeypatch.setattr(os, "fork", no_fork)
        assert pooled([]) == []
        assert outcomes(pooled([partial(int, "4"), partial(int, "x")], in_pool=False)) == [
            4, (ValueError, ("invalid literal for int() with base 10: 'x'",))]

    def test_a_failed_d12_raises_before_d21_is_searched(self, make_dataset, monkeypatch):
        # both directions are searched here, D12 first; its error is raised
        # and D21 is never searched
        searched = []

        def failing_link_into(pair, x2, k, rng, x1):
            searched.append(len(x1))
            raise DataError("D12 failed" if len(x1) == 12 else "D21 failed")

        monkeypatch.setattr(linkage, "link_into", failing_link_into)
        monkeypatch.setattr(os, "fork", no_fork)
        rng = np.random.default_rng(15)
        d1 = make_dataset(rng.normal(size=(12, 3)), [0, 1] * 6, "d1")
        d2 = make_dataset(rng.normal(size=(16, 4)), [0, 1] * 8, "d2")
        with pytest.raises(DataError, match="^D12 failed$"):
            link_detailed(d1, d2, "pca", k=2, r=2)
        assert searched == [12]


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


class TestScoreFidelity:
    def test_fidelity_before_any_alignment(self):
        # corr(z1 . w, mean z2 . w over the neighbors) on the acceptance
        # generator at noise 0.25, R 3, k 5: neighbors by the true latent
        # reach 1 and random ones 0. The reducers' values, which no latent
        # alignment corrects yet, are printed, not asserted
        for gen_seed in (11, 12):
            cfg = SyntheticPairConfig(3, 300, 3000, 6, 10, 0.25, 0.05, gen_seed)
            d1, d2, details = synthesize_disjoint_pair_detailed(cfg)
            fidelity = {"true latent": score_fidelity(details, _kernels.nearest(details.z1, details.z2, 5)[0])}
            for kind in ("random", "feature_importance", "pca", "autoencoder"):
                nb = link_detailed(d1, d2, kind, k=5, r=3, seed=1).neighbors_12
                fidelity[kind] = score_fidelity(details, nb.neighbors)
            print(f"score fidelity, generator seed {gen_seed}: "
                  + ", ".join(f"{name} {value:+.3f}" for name, value in fidelity.items()))
            assert fidelity["true latent"] >= 0.99
            assert abs(fidelity["random"]) < 0.15


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


def test_oracles_wrap_no_linking_code():
    # a reference built on the kernels or the linking step would agree with
    # them by construction, so the brute-force oracles import neither
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert not imported & {"disjoint_link._kernels", "disjoint_link.linkage"}
