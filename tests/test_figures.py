import xml.etree.ElementTree as ET

import numpy as np
import pytest

from disjoint_link.data import Dataset, DataError
from disjoint_link.figures import (
    PC_AXES,
    export_projection_2d,
    projection_to_csv,
    scatter_svg,
    write_projection_svg,
)

from oracles import pairwise_dist_brute, scatter_svg_reference


class TestProjection:
    def test_two_feature_input_preserves_distances(self, make_dataset):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 2)) * 3 + 1
        d = make_dataset(X, [0, 1] * 6)
        proj = export_projection_2d(d)
        want = pairwise_dist_brute(X - X.mean(axis=0), X - X.mean(axis=0))
        got = pairwise_dist_brute(proj.X, proj.X)
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_row_count_preserved(self, make_dataset):
        rng = np.random.default_rng(1)
        d = make_dataset(rng.normal(size=(17, 5)), [0, 1] * 8 + [0])
        assert export_projection_2d(d).X.shape == (17, 2)

    def test_collinear_data_flat_second_axis(self, make_dataset):
        t = np.linspace(-2, 2, 10)
        X = np.stack([t, 3 * t, -t], axis=1)
        d = make_dataset(X, [0, 1] * 5)
        proj = export_projection_2d(d)
        np.testing.assert_allclose(proj.X[:, 1], 0.0, atol=1e-8)

    def test_single_feature_rejected(self, make_dataset):
        d = make_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(DataError):
            export_projection_2d(d)

    def test_works_on_linked_dataset(self, make_dataset):
        from disjoint_link.linkage import link_detailed

        rng = np.random.default_rng(2)
        d1 = make_dataset(rng.normal(size=(8, 2)), [0, 1] * 4, "d1")
        d2 = make_dataset(rng.normal(size=(9, 3)), [0, 1, 0] * 3, "d2")
        d12 = link_detailed(d1, d2, "pca", k=2, r=2).d12
        assert export_projection_2d(d12).X.shape == (8, 2)


class TestExports:
    def test_csv_format(self, tmp_path, make_dataset):
        rng = np.random.default_rng(3)
        d = make_dataset(rng.normal(size=(5, 3)), [0, 1, 0, 1, 0])
        proj = export_projection_2d(d)
        path = tmp_path / "proj.csv"
        projection_to_csv(proj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "pc1,pc2,label"
        assert len(lines) == 6

    def test_svg_is_self_contained_and_deterministic(self, make_dataset):
        rng = np.random.default_rng(4)
        d = make_dataset(rng.normal(size=(9, 3)), [0, 1, 0] * 3)
        proj = export_projection_2d(d)
        svg1 = scatter_svg(proj, title="demo")
        svg2 = scatter_svg(proj, title="demo")
        assert svg1 == svg2
        assert svg1.startswith("<svg ")
        assert svg1.count("<circle") == 9
        assert "demo" in svg1

    @pytest.mark.parametrize("title", ["R&D before linkage", "<d1> & d2 after pca linkage", "demo"])
    def test_svg_title_is_escaped_text(self, make_dataset, title):
        # a title carries a dataset's file stem, which may hold &, < or >
        rng = np.random.default_rng(6)
        proj = export_projection_2d(make_dataset(rng.normal(size=(5, 2)), [0, 1, 0, 1, 0]))
        root = ET.fromstring(scatter_svg(proj, title=title))
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts == [title, "pc1", "pc2"]

    def test_svg_two_colors_by_label(self, tmp_path, make_dataset):
        from disjoint_link.figures import NEGATIVE_COLOR, POSITIVE_COLOR

        rng = np.random.default_rng(5)
        d = make_dataset(rng.normal(size=(6, 2)), [0, 0, 0, 1, 1, 1])
        proj = export_projection_2d(d)
        path = tmp_path / "p.svg"
        write_projection_svg(proj, path, "demo")
        text = path.read_text()
        assert text.count(NEGATIVE_COLOR) == 3
        assert text.count(POSITIVE_COLOR) == 3


def _points(case):
    rng = np.random.default_rng(7)
    labels = (rng.random(40) < 0.3).astype(np.int64)
    if case == "random":
        return rng.normal(size=(40, 2)) * [3.0, 0.2] + [1.0, -5.0], labels
    if case == "repeated":
        return np.repeat(rng.normal(size=(5, 2)), 8, axis=0), labels
    if case == "equal x":
        return np.column_stack([np.full(40, 2.5), rng.normal(size=40)]), labels
    if case == "equal y":
        return np.column_stack([rng.normal(size=40), np.full(40, -1.0)]), labels
    if case == "x span below the floor":
        return np.column_stack([rng.choice([0.0, 2e-13, 5e-13], size=40), rng.normal(size=40)]), labels
    if case == "one point":
        return np.full((40, 2), 0.1), labels
    if case == "negative zero":
        return rng.choice([-0.0, 0.0, 1.0, -1e-300], size=(40, 2)), labels
    if case == "all -0.0":
        return np.full((40, 2), -0.0), labels
    if case == "only negatives":
        return rng.normal(size=(40, 2)), np.zeros(40, dtype=np.int64)
    if case == "only positives":
        return rng.normal(size=(40, 2)), np.ones(40, dtype=np.int64)
    raise AssertionError(case)


@pytest.mark.parametrize("case", ["random", "repeated", "equal x", "equal y", "x span below the floor",
                                  "one point", "negative zero", "all -0.0", "only negatives", "only positives"])
def test_svg_equals_the_per_point_reference(case):
    # equal or nearly equal coordinates take the 1e-12 span floor; each
    # class may be empty
    points, labels = _points(case)
    proj = Dataset(PC_AXES, points, labels, "p")
    assert scatter_svg(proj, title="t") == scatter_svg_reference(proj, title="t")
