import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from disjoint_link import _kernels

from oracles import (
    group_threshold_brute, k_nearest_brute, k_smallest_brute, median_brute, pairwise_dist_brute, sigmoid_two_branch,
)


@pytest.fixture(params=["numpy", "list"])
def as_input(request):
    """Every kernel takes array-likes: run each case on ndarrays and on nested lists."""
    if request.param == "numpy":
        return np.asarray
    return lambda x: np.asarray(x).tolist()


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


class TestPairwiseEuclidean:
    def test_identical_single_rows(self, as_input):
        a = np.array([[1.0, 2.0, 3.0]])
        assert _kernels.pairwise_euclidean(as_input(a), as_input(a.copy()))[0, 0] == 0.0

    def test_3_4_5_triangle(self, as_input):
        a = np.array([[0.0, 0.0]])
        b = np.array([[3.0, 4.0]])
        assert _kernels.pairwise_euclidean(as_input(a), as_input(b))[0, 0] == 5.0

    def test_matches_bruteforce(self, as_input):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(4, 2))
        got = _kernels.pairwise_euclidean(as_input(a), as_input(b))
        np.testing.assert_allclose(got, pairwise_dist_brute(a, b), atol=1e-12)

    def test_dimension_mismatch(self, as_input):
        with pytest.raises(ValueError):
            _kernels.pairwise_euclidean(as_input(np.zeros((2, 3))), as_input(np.zeros((2, 4))))

    def test_zero_iff_identical_rows(self, as_input):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(5, 3))
        b = a[[2, 0]].copy()
        d = _kernels.pairwise_euclidean(as_input(a), as_input(b))
        assert d[2, 0] == 0.0 and d[0, 1] == 0.0
        mask = np.zeros_like(d, dtype=bool)
        mask[2, 0] = mask[0, 1] = True
        assert (d[~mask] > 0).all()

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(6, 3)), rng.normal(size=(9, 3))
        np.testing.assert_allclose(_kernels.pairwise_euclidean(a, b), _kernels.pairwise_euclidean(b, a).T, atol=1e-12)

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(5, 4)), rng.normal(size=(7, 4))
        d_ab, d_bb = _kernels.pairwise_euclidean(a, b), pairwise_dist_brute(b, b)
        for i, j, l in np.ndindex(5, 7, 7):
            assert d_ab[i, j] <= d_ab[i, l] + d_bb[l, j] + 1e-12


class TestKSmallest:
    def test_tie_broken_by_lower_index(self, as_input):
        dist = np.array([[2.0, 1.0, 1.0]])
        idx, val = _kernels.k_smallest(as_input(dist), 2)
        assert idx.tolist() == [[1, 2]]
        assert val.tolist() == [[1.0, 1.0]]

    def test_k_equals_m_is_full_sort(self, as_input):
        rng = np.random.default_rng(11)
        dist = rng.uniform(size=(4, 6))
        idx, val = _kernels.k_smallest(as_input(dist), 6)
        for i in range(4):
            assert sorted(idx[i].tolist()) == list(range(6))
            assert (np.diff(val[i]) >= 0).all()

    def test_k1_is_argmin(self, as_input):
        rng = np.random.default_rng(5)
        dist = rng.uniform(size=(7, 9))
        idx, _ = _kernels.k_smallest(as_input(dist), 1)
        np.testing.assert_array_equal(idx[:, 0], dist.argmin(axis=1))

    def test_rescaling_invariance(self):
        dist = np.random.default_rng(5).uniform(size=(4, 6))
        np.testing.assert_array_equal(_kernels.k_smallest(dist, 3)[0], _kernels.k_smallest(dist * 37.5, 3)[0])

    def test_k_out_of_range(self, as_input):
        with pytest.raises(ValueError):
            _kernels.k_smallest(as_input(np.zeros((2, 3))), 4)

    @given(
        dist=st.integers(1, 8).flatmap(
            lambda m: st.lists(
                st.lists(st.sampled_from([0.0, 1.0, 2.0, np.inf, np.nan]), min_size=m, max_size=m),
                min_size=1,
                max_size=8,
            )
        ),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_stable_argsort_on_ties(self, dist, data):
        dist = np.array(dist)
        k = data.draw(st.integers(1, dist.shape[1]), label="k")
        idx, val = _kernels.k_smallest(dist, k)
        want_idx, want_val = k_smallest_brute(dist, k)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(bits(val), bits(want_val))


def integer_points(max_rows):
    """Tie-heavy point sets: few distinct small integer coordinates."""
    return st.integers(1, 3).flatmap(
        lambda r: st.tuples(
            st.lists(st.lists(st.integers(0, 2), min_size=r, max_size=r), min_size=1, max_size=max_rows),
            st.lists(st.lists(st.integers(0, 2), min_size=r, max_size=r), min_size=1, max_size=max_rows),
        )
    )


def block_rows(rule, n, extra):
    if rule == "one_row":
        return 1
    if rule == "non_divisor":
        return n - 1  # divides no n >= 3
    return n + extra


def count_exact_rows(mp):
    """Patch `pairwise_euclidean` to count the query rows that reach the
    exact full-row path; returns the one-element counter."""
    seen = [0]
    full_rows = _kernels.pairwise_euclidean

    def counted(a, b):
        seen[0] += len(a)
        return full_rows(a, b)

    mp.setattr(_kernels, "pairwise_euclidean", counted)
    return seen


def non_finite_query(rng):
    query, ref = rng.normal(size=(120, 6)), rng.normal(size=(160, 6))
    query[3, 1], query[8, 4], query[11] = np.nan, np.inf, 1e200  # 1e200 overflows its norm
    query[15] = 1e153  # a finite squared norm, too large for the bound
    query[19] = 1e140  # within the bound, but no column stands out
    return query, ref


def non_finite_ref(rng):
    query, ref = rng.normal(size=(120, 6)), rng.normal(size=(160, 6))
    ref[7, 2], ref[40, 0] = -np.inf, np.nan
    return query, ref


def duplicated(rng):
    ref = np.repeat(rng.normal(size=(40, 6)), 4, axis=0)
    query = np.vstack([ref[::3], rng.normal(size=(40, 6))])
    return query, ref


# input families that defeat a naive GEMM filter; each gives (query, ref)
HARD_INPUTS = {
    "continuous": lambda rng: (rng.normal(size=(200, 8)), rng.normal(size=(300, 8))),
    "offset_1e7": lambda rng: (rng.normal(size=(200, 6)) + 1e7, rng.normal(size=(300, 6)) + 1e7),
    "scale_1e-160": lambda rng: (rng.normal(size=(150, 6)) * 1e-160, rng.normal(size=(200, 6)) * 1e-160),
    "non_finite_query": non_finite_query,
    "non_finite_ref": non_finite_ref,
    "duplicated": duplicated,
}


def one_ulp_near_ties(rng, rows, r, k):
    """Query rows far apart, each owning k + 2 consecutive reference rows: k - 1
    clearly nearest, then two whose distances differ by one ulp, the farther
    at the lower index. The pair's gap is far below the GEMM's rounding."""
    query = rng.normal(scale=10.0, size=(rows, r))
    steps = np.arange(-12, 13)
    nudges = np.stack(np.meshgrid(steps, steps, steps, indexing="ij"), axis=-1).reshape(-1, 3)
    ref = []
    for q in query:
        near = q + rng.normal(scale=0.15, size=r)
        # move three coordinates by whole ulps until a distance is 1 ulp longer
        cand = np.repeat(near[None], len(nudges), axis=0)
        cand[:, :3] += nudges * np.spacing(near[:3])
        target = np.nextafter(_kernels.pairwise_euclidean(q[None], near[None])[0, 0], np.inf)
        far = cand[np.flatnonzero(_kernels.pairwise_euclidean(q[None], cand)[0] == target)[0]]
        closer = q + rng.normal(scale=0.01, size=(k - 1, r))
        ref += [*closer, far, near, q + 1.0]
    return query, np.array(ref)


def filter_groups(m, k):
    """The filter's group count for m columns, as `_kernels._threshold`
    documents it: max(k + 1, min(_GROUPS, m // 2)) groups, or m groups of one
    when that leaves groups of one column."""
    groups = max(k + 1, min(_kernels._GROUPS, m // 2))
    return m if m // groups == 1 else groups


def grouped_ref(layout, rng):
    """A 34-row reference in 6 groups of 5 columns plus 4 tail columns (k = 3,
    `_GROUPS` = 6) and 12 query rows near the origin; far rows everywhere but
    where `layout` puts the query rows' 4 nearest."""
    ref = rng.normal(size=(34, 3)) + 40.0
    near = {"one_group": [1, 7, 13, 19], "tail": [30, 31, 32, 33], "tail_and_group_0": [0, 6, 30, 24]}[layout]
    ref[near] = rng.normal(scale=0.1, size=(4, 3))
    return rng.normal(scale=0.1, size=(12, 3)), ref


class TestNearest:
    @pytest.mark.parametrize("k_rule", ["one", "all", "any"])
    @pytest.mark.parametrize("block_rule", ["one_row", "non_divisor", "whole"])
    @given(points=integer_points(12), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_full_matrix_oracle(self, block_rule, k_rule, points, data):
        query, ref = (np.array(p, dtype=float) for p in points)
        n, m = len(query), len(ref)
        assume(block_rule != "non_divisor" or n >= 3)
        k = {"one": 1, "all": m}.get(k_rule) or data.draw(st.integers(1, m), label="k")
        rows = block_rows(block_rule, n, data.draw(st.integers(0, 3), label="extra"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_BLOCK_CELLS", rows * m)
            idx, dist = _kernels.nearest(query, ref, k)
        want_idx, want_dist = k_nearest_brute(query, ref, k)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(bits(dist), bits(want_dist))

    @given(
        shape=st.tuples(st.integers(1, 10), st.integers(1, 10), st.integers(1, 4)),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_reverse_search_is_top_k_of_the_transpose(self, shape, seed, data):
        n, m, r = shape
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, r)).round(rng.integers(0, 3))  # rounding makes ties
        b = rng.normal(size=(m, r)).round(rng.integers(0, 3))
        k = data.draw(st.integers(1, n), label="k")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_BLOCK_CELLS", data.draw(st.integers(1, 2 * n * m), label="cells"))
            idx, dist = _kernels.nearest(b, a, k)
        want_idx, want_dist = _kernels.k_smallest(_kernels.pairwise_euclidean(a, b).T, k)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(bits(dist), bits(want_dist))

    @pytest.mark.parametrize("family", sorted(HARD_INPUTS))
    def test_hard_inputs_match_full_matrix_oracle(self, family):
        query, ref = HARD_INPUTS[family](np.random.default_rng(9))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_BLOCK_CELLS", 50 * len(ref))  # several blocks
            exact = count_exact_rows(mp)
            with np.errstate(all="ignore"):
                idx, dist = _kernels.nearest(query, ref, 5)
        want_idx, want_dist = k_nearest_brute(query, ref, 5)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(bits(dist), bits(want_dist))
        if family in ("continuous", "offset_1e7"):
            assert exact[0] < 0.01 * len(query)  # the filter, not the full rows, answered

    def test_one_ulp_near_tie_at_the_kth_place(self):
        query, ref = one_ulp_near_ties(np.random.default_rng(21), rows=60, r=4, k=3)
        d = pairwise_dist_brute(query, ref)
        for i in range(len(query)):  # rows 5i + 2 and 5i + 3: the farther comes first
            assert d[i, 5 * i + 2] == np.nextafter(d[i, 5 * i + 3], np.inf)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_BLOCK_CELLS", 7 * len(ref))
            idx, dist = _kernels.nearest(query, ref, 3)
        want_idx, want_dist = k_nearest_brute(query, ref, 3)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(bits(dist), bits(want_dist))

    @pytest.mark.parametrize("coords", ["integer", "continuous"])
    @pytest.mark.parametrize("block_rule", ["one_row", "non_divisor"])
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_grouped_filter_matches_full_matrix_oracle(self, block_rule, coords, seed, data):
        # few filter groups, so that rows of up to 80 columns form groups of
        # several columns, mostly with tail columns left over
        rng = np.random.default_rng(seed)
        n, m, r = data.draw(st.integers(3, 12), label="n"), data.draw(st.integers(2, 80), label="m"), rng.integers(1, 4)
        k = data.draw(st.integers(1, m - 1), label="k")  # k == m takes no filter
        if coords == "integer":  # ties everywhere, at the k-th place too
            query, ref = rng.integers(0, 3, size=(n, r)).astype(float), rng.integers(0, 3, size=(m, r)).astype(float)
        else:
            query, ref = rng.normal(size=(n, r)), rng.normal(size=(m, r))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_GROUPS", data.draw(st.integers(1, 8), label="groups"))
            mp.setattr(_kernels, "_BLOCK_CELLS", block_rows(block_rule, n, 0) * m)
            idx, dist = _kernels.nearest(query, ref, k)
        want_idx, want_dist = k_nearest_brute(query, ref, k)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(bits(dist), bits(want_dist))

    @pytest.mark.parametrize("layout", ["one_group", "tail", "tail_and_group_0", "all_equal"])
    def test_grouped_filter_layouts(self, layout):
        rng = np.random.default_rng(17)
        if layout == "all_equal":
            query, ref = np.ones((12, 3)), np.ones((34, 3))
        else:
            query, ref = grouped_ref(layout, rng)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_GROUPS", 6)
            assert filter_groups(34, 3) == 6
            idx, dist = _kernels.nearest(query, ref, 3)
        want_idx, want_dist = k_nearest_brute(query, ref, 3)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(bits(dist), bits(want_dist))

    @pytest.mark.parametrize("coords", ["integer", "continuous"])
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_threshold_is_a_group_minimum_at_or_above_the_k_plus_1th(self, coords, seed, data):
        rng = np.random.default_rng(seed)
        n, m = data.draw(st.integers(1, 6), label="n"), data.draw(st.integers(2, 90), label="m")
        k = data.draw(st.integers(1, m - 1), label="k")
        A = rng.integers(0, 4, size=(n, m)).astype(float) if coords == "integer" else rng.normal(size=(n, m))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_GROUPS", data.draw(st.integers(1, 12), label="groups"))
            t = _kernels._threshold(A, k)
            groups = filter_groups(m, k)
        np.testing.assert_array_equal(t, group_threshold_brute(A, k, groups))
        assert (t >= np.sort(A, axis=1)[:, k]).all()

    def test_wide_one_ulp_near_ties_at_the_kth_place(self):
        # the near-tie rows of the test above in a reference of 128 groups of
        # 2 columns plus 81 tail columns; each query's own columns lie in
        # separate groups
        query, ref = one_ulp_near_ties(np.random.default_rng(22), rows=60, r=4, k=3)
        far = np.random.default_rng(23).normal(scale=10.0, size=(37, 4)) + 1e3
        ref = np.vstack([ref, far])
        assert filter_groups(len(ref), 3) == 128 and len(ref) % 128
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_BLOCK_CELLS", 7 * len(ref))
            idx, dist = _kernels.nearest(query, ref, 3)
        want_idx, want_dist = k_nearest_brute(query, ref, 3)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(bits(dist), bits(want_dist))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            _kernels.nearest(np.zeros((2, 3)), np.zeros((3, 3)), 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            _kernels.nearest(np.zeros((2, 3)), np.zeros((3, 4)), 1)


class TestMedianOverRows:
    def test_odd_k_median(self, as_input):
        values = np.array([[1.0], [5.0], [100.0]])
        idx = np.array([[0, 1, 2]])
        assert _kernels.median_over_rows(as_input(values), as_input(idx))[0, 0] == 5.0

    def test_even_k_midpoint(self, as_input):
        values = np.array([[1.0], [3.0], [5.0], [100.0]])
        idx = np.array([[0, 1, 2, 3]])
        assert _kernels.median_over_rows(as_input(values), as_input(idx))[0, 0] == 4.0

    def test_matches_statistics_median(self, as_input):
        rng = np.random.default_rng(13)
        values = rng.normal(size=(20, 3))
        for k in (1, 2, 3, 4, 5):
            idx = np.array([rng.choice(20, size=k, replace=False) for _ in range(6)])
            got = _kernels.median_over_rows(as_input(values), as_input(idx))
            for i in range(6):
                for c in range(3):
                    want = median_brute([values[j, c] for j in idx[i]])
                    assert got[i, c] == pytest.approx(want, abs=1e-15)

    def test_neighbor_permutation_invariance(self):
        src = np.random.default_rng(7).normal(size=(10, 3))
        idx = np.array([[0, 3, 7, 9], [2, 4, 5, 8]])
        shuffled = idx[:, [2, 0, 3, 1]]
        np.testing.assert_array_equal(_kernels.median_over_rows(src, idx), _kernels.median_over_rows(src, shuffled))

    def test_index_out_of_range(self, as_input):
        with pytest.raises(ValueError):
            _kernels.median_over_rows(as_input(np.zeros((3, 2))), as_input(np.array([[0, 3]])))


class TestSigmoid:
    def test_bits_match_the_two_branch_form(self):
        # both zeros, the ends of exp's range, NaN, infinities, subnormals
        rng = np.random.default_rng(17)
        edges = np.array([0.0, -0.0, 709.0, -709.0, 710.0, -710.0, 745.2, -745.2, 1e308, -1e308,
                          np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
                          -2.2250738585072009e-308, 36.7, -36.7, 37.5, -37.5])
        z = np.concatenate([edges, rng.normal(scale=3.0, size=20000), rng.normal(scale=300.0, size=20000),
                            rng.normal(size=20000) * 1e-300])
        got, want = _kernels.sigmoid(z), sigmoid_two_branch(z)
        # NaN gives NaN, whose sign bit is not part of the contract
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(bits(got[~np.isnan(want)]), bits(want[~np.isnan(want)]))

