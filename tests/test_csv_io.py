"""CSV ingestion and output against the cell-by-cell references in oracles.py.

The package parses a column of numbers in one pass and formats whole blocks
of rows at a time; the references parse and write one cell and one row at a
time. Files must come out byte for byte the same, and every input must load
to the same Dataset or fail with the same message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disjoint_link import data
from disjoint_link.data import DataError, Dataset, FeatureSchema, dataset_to_csv, load_csv
from disjoint_link.figures import PC_AXES, projection_to_csv
from disjoint_link.linkage import (
    NeighborMap,
    linked_to_csv,
    neighbors_to_csv,
    random_neighbor_map,
)
from oracles import (
    labelled_rows_reference,
    load_csv_reference,
    neighbors_rows_reference,
    write_rows_reference,
)

# values around the points where repr switches notation (1e16, 1e-5), the
# subnormal range and both zeros
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1e16, -1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf), 9999999999999998.0,
    1e-5, -1e-5, np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0), 0.0001, 1e22, 1.7976931348623157e308,
    0.1, 1 / 3, 123456789.0,
]

cell_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300, allow_subnormal=True),
)
# cells around numpy's reader: whitespace, subnormals and signs it reads as
# `float` does; underscores, hex floats, infinities and NaN, overflow,
# non-ASCII digits, quotes, `#`, gaps and text, which it must leave to the
# general path
FINITE_TOKENS = [" 1.5 ", "\t2", "5e-324", "2.2250738585072014e-308", "+1", ".5", "5.", "1E-5", "-0.0", "1e308"]
OTHER_TOKENS = ["1_0", "0x1p3", "infinity", "-inf", "nan", "NaN", "1e400", "-1e400", "\u0663", "\uff11",
                '"7"', '"1,5"', "#5", "1#", "", "A"]
number_cells = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                         st.sampled_from(FINITE_TOKENS))
binary_labels = st.sampled_from(["0", "1", "1.0", "-0.0", " 1"])
token_rows = st.one_of(
    st.lists(st.tuples(number_cells, number_cells, binary_labels), max_size=6),
    st.lists(st.tuples(*[st.one_of(number_cells, st.sampled_from(OTHER_TOKENS))] * 2,
                       st.one_of(binary_labels, st.sampled_from(["2", "nan", '"1"', ""]))), max_size=6),
)
# names a header must quote: comma, quote, newline, carriage return
names = st.text(alphabet=st.sampled_from(list('ab ,"\n\r=é')), min_size=1, max_size=6)


@st.composite
def labelled_matrices(draw):
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, 4))
    X = np.array(draw(st.lists(cell_floats, min_size=n * k, max_size=n * k)), dtype=np.float64)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    header = draw(st.lists(names, min_size=k, max_size=k, unique=True))
    return X.reshape(n, k), y, header


def same_bytes(tmp, write, write_reference):
    write(tmp / "new.csv")
    write_reference(tmp / "ref.csv")
    assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


class TestWriterBytes:
    @given(case=labelled_matrices(), block_rows=st.sampled_from([1, 2, 4096]))
    @settings(max_examples=150, deadline=None)
    def test_labelled_writers_match_row_by_row(self, tmp_path_factory, case, block_rows):
        X, y, header = case
        tmp = tmp_path_factory.mktemp("w")
        with pytest.MonkeyPatch.context() as m:
            m.setattr(data, "CSV_BLOCK_ROWS", block_rows)
            rows = lambda: labelled_rows_reference(X, y)  # noqa: E731
            same_bytes(tmp, lambda p: data.write_csv(p, header + ["label"], [*X.T, y]),
                       lambda p: write_rows_reference(p, header + ["label"], rows()))
            if len(X) < 2:  # a Dataset holds at least 2 rows
                X, y = np.vstack([X, X]), np.concatenate([y, y])
            p2 = Dataset(PC_AXES, np.column_stack([X[:, 0], X[:, -1]]), y, "p")
            same_bytes(tmp, lambda p: projection_to_csv(p2, p),
                       lambda p: write_rows_reference(p, ["pc1", "pc2", "label"],
                                                      labelled_rows_reference(p2.X, y)))
            linked_header = [f"own.{n}" if j % 2 else f"agg.src,1.{n}" for j, n in enumerate(header)]
            linked = Dataset(tuple(FeatureSchema(n, "numeric") for n in linked_header), X, y, "b")
            same_bytes(tmp, lambda p: linked_to_csv(linked, p),
                       lambda p: write_rows_reference(p, linked_header + ["label"], rows()))

    @given(case=labelled_matrices())
    @settings(max_examples=50, deadline=None)
    def test_dataset_to_csv_matches_row_by_row(self, tmp_path_factory, case):
        X, y, header = case
        if len(X) < 2:
            X, y = np.vstack([X, X]), np.concatenate([y, y])
        d = Dataset(tuple(FeatureSchema(n, "numeric") for n in header), X, y, "d")
        same_bytes(tmp_path_factory.mktemp("d"), lambda p: dataset_to_csv(d, p, "died, y"),
                   lambda p: write_rows_reference(p, header + ["died, y"], labelled_rows_reference(X, y)))

    @given(n=st.integers(1, 12), extra=st.integers(0, 5), seed=st.integers(0, 2**32 - 1),
           block_rows=st.sampled_from([1, 3, 4096]))
    @settings(max_examples=50, deadline=None)
    def test_neighbors_match_row_by_row(self, tmp_path_factory, n, extra, seed, block_rows):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        tmp = tmp_path_factory.mktemp("nb")
        nan_map = random_neighbor_map(n, k + extra, k, rng)  # NaN distances
        finite = NeighborMap(k=k, neighbors=nan_map.neighbors,
                             distances=rng.choice(EDGE_FLOATS, size=(n, k)) * rng.random((n, k)))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(data, "CSV_BLOCK_ROWS", block_rows)
            for nb in (nan_map, finite):
                same_bytes(tmp, lambda p: neighbors_to_csv(nb, p),
                           lambda p: write_rows_reference(p, ["row_index", "rank", "col_index", "distance"],
                                                          neighbors_rows_reference(nb)))

    def test_header_quoting_and_line_ends(self, tmp_path):
        path = tmp_path / "q.csv"
        data.write_csv(path, ['a,b', 'say "hi"', "two\nlines", "label"],
                       [np.array([1e16, -0.0]), np.array([1e-5, 5e-324]), np.array([0.1, 2.0]),
                        np.array([0, 1])])
        assert path.read_bytes() == (
            b'"a,b","say ""hi""","two\nlines",label\r\n'
            b"1e+16,1e-05,0.1,0\r\n-0.0,5e-324,2.0,1\r\n"
        )


def load_outcome(load, path, hints):
    try:
        d = load(path, "label", hints)
    except DataError as exc:
        return "error", str(exc)
    # the layout too: a BLAS product's bits depend on it
    return d.schema, d.X.dtype, d.X.shape, d.X.strides, d.X.tobytes(), d.y.dtype, d.y.tobytes(), d.id


def id_column(n):
    """A file whose `id` column holds n distinct text values."""
    return "id,label\n" + "".join(f"c{i},{i % 2}\n" for i in range(n))


def numbers_and_na(n, na_row):
    """A file whose `x` column holds n distinct numbers and one `NA`, at file row `na_row`."""
    cells = [f"{i}.5" for i in range(n)]
    cells.insert(na_row - 2, "NA")
    return "x,label\n" + "".join(f"{c},{i % 2}\n" for i, c in enumerate(cells))


LOADER_CASES = {
    "gaps": ("x,z,label\n1,,0\n,2.5,1\n3,4,0\n", None),
    "categoricals": ("c,x,label\nB,1,0\nA,2,1\n,3,0\nB,4,1\n", None),
    "mixed cells make a categorical": ("x,label\n1,0\nA,1\n2,0\n", None),
    "numeric hint on gaps": ("x,label\n1,0\n,1\n4,0\nabc,1\n", [FeatureSchema("x", "numeric")]),
    "numeric hint on a full column": ("x,label\n1,0\n2,1\n", [FeatureSchema("x", "numeric")]),
    "numeric hint on text only": ("x,label\nabc,0\n,1\nd,0\n", [FeatureSchema("x", "numeric")]),
    "categorical hint on numbers": ("x,label\n1,0\n2,1\n1,0\n",
                                    [FeatureSchema("x", "categorical", ("1", "2", "3"))]),
    "categorical hint, unknown value": ("x,label\n1,0\n2,1\n", [FeatureSchema("x", "categorical", ("1", "3"))]),
    "hint on no column": ("x,label\n1,0\n2,1\n3,0\n", [FeatureSchema("xx", "categorical", ("a", "b"))]),
    "hint on the label": ("x,label\n1,0\n2,1\n3,0\n", [FeatureSchema("label", "numeric")]),
    "overflowing median": ("x,z,label\n1e308,1,0\n1e308,2,1\n,3,0\n", None),
    "whitespace and underscores": ("x,z,label\n 1.5 ,1_000,0\n\t2,-0.0,1\n3e-320, 7 ,0\n", None),
    "nan cell": ("x,label\n1,0\nnan,1\n", None),
    "inf cell": ("x,label\n1,0\n-Infinity,1\n", None),
    "nan beside a gap": ("x,label\nnan,0\n,1\n2,0\n", None),
    "float labels": ("x,label\n1,1.0\n2,0.0\n3, 1 \n4,-0.0\n", None),
    "non-binary label in row 7": ("x,label\n1,0\n2,1\n3,0\n4,1\n5,0\n6,2\n7,1\n", None),
    "text label in row 7": ("x,label\n1,0\n2,1\n3,0\n4,1\n5,0\n6,yes\n7,1\n", None),
    "fractional label": ("x,label\n1,0\n2,0.5\n3,1\n", None),
    "nan label": ("x,label\n1,0\n2,nan\n", None),
    "empty label": ("x,label\n1,0\n2,\n", None),
    "empty column": ("x,e,label\n1,,0\n2,,1\n", None),
    "single category": ("c,label\nA,0\nA,1\n", None),
    "label only": ("label\n0\n1\n", None),
    "ragged row": ("x,label\n1,0\n2\n", None),
    "one data row": ("x,label\n1,0\n", None),
    "empty file": ("", None),
    "missing label column": ("x,y\n1,0\n2,1\n", None),
    "50 categories": (id_column(50), None),
    "51 categories": (id_column(51), None),
    "51 hinted categories": (id_column(51), [FeatureSchema("id", "categorical",
                                                            tuple(f"c{i}" for i in range(51)))]),
    "80 numbers and NA": (numbers_and_na(80, 42), None),
    "blank line between rows": ("x,label\n1,0\n\n2,1\n", None),
    "blank lines only": ("x,label\n\n\n", None),
    "header only": ("x,label\n", None),
    "quoted numbers": ('x,label\n"1",0\n2,"1"\n', None),
    "quoted header names": ('"x,1","say ""hi""",label\n1,2,0\n3,4,1\n', None),
    "header name with a line break": ('"x\r\ny",label\r\n1,0\r\n2,1\r\n', None),
    "two columns encode to one name": ("site,site=A,label\nA,1,0\nB,2,1\n", None),
}


class TestLoaderParity:
    @pytest.mark.filterwarnings("error")  # numpy's reader warns on a file of blank lines
    @pytest.mark.parametrize("name", sorted(LOADER_CASES))
    def test_same_dataset_or_same_error(self, tmp_path, name):
        text, hints = LOADER_CASES[name]
        path = tmp_path / "in.csv"
        path.write_text(text, encoding="utf-8")
        assert load_outcome(load_csv, path, hints) == load_outcome(load_csv_reference, path, hints)

    @given(
        grid=st.lists(
            st.lists(st.sampled_from(["", "1", "2.5", " 3 ", "1_000", "-0.0", "1e-320", "nan", "inf", "A", "B"]),
                     min_size=3, max_size=3),
            min_size=2, max_size=8),
        labels=st.lists(st.sampled_from(["0", "1", "0.0", "1.0", " 1", "2", "0.5"]), min_size=8, max_size=8),
        hint=st.sampled_from([None, "numeric", "categorical"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_grids(self, tmp_path_factory, grid, labels, hint):
        hints = None
        if hint == "numeric":
            hints = [FeatureSchema("a", "numeric")]
        elif hint == "categorical":
            hints = [FeatureSchema("a", "categorical", tuple(sorted({r[0] for r in grid} - {""} | {"A", "B"})))]
        text = "a,b,label,c\n" + "".join(f"{r[0]},{r[1]},{lab},{r[2]}\n" for r, lab in zip(grid, labels))
        path = tmp_path_factory.mktemp("g") / "grid.csv"
        path.write_text(text, encoding="utf-8")
        assert load_outcome(load_csv, path, hints) == load_outcome(load_csv_reference, path, hints)

    @given(
        rows=token_rows,
        label_at=st.integers(0, 2),
        newline=st.sampled_from(["\n", "\r\n"]),
        bom=st.booleans(),
        blank_at=st.one_of(st.none(), st.none(), st.none(), st.integers(0, 6)),
        final_newline=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_hard_tokens_match_the_reference(self, tmp_path_factory, rows, label_at, newline, bom, blank_at,
                                             final_newline):
        # numpy's reader takes a file only when it reads it as `float` would;
        # anything else must reach the general path and its named error
        order = lambda cells: [*cells[:2]][:label_at] + [cells[2]] + [*cells[:2]][label_at:]  # noqa: E731
        lines = [",".join(order(("a", "b", "label")))] + [",".join(order(row)) for row in rows]
        if blank_at is not None:
            lines.insert(1 + min(blank_at, len(rows)), "")
        text = newline.join(lines) + (newline if final_newline else "")
        got, ref = tmp_path_factory.mktemp("got") / "in.csv", tmp_path_factory.mktemp("ref") / "in.csv"
        got.write_bytes(("\ufeff" * bom + text).encode("utf-8"))
        ref.write_bytes(text.encode("utf-8"))  # the reference reads no byte-order mark
        outcome = load_outcome(load_csv, got, None)
        want = load_outcome(load_csv_reference, ref, None)
        if want[0] == "error":
            outcome = outcome[0], outcome[1].replace(str(got), str(ref))
        assert outcome == want

    def test_a_numeric_file_takes_numpys_reader(self, tmp_path, monkeypatch):
        # a gap-free numeric file never reaches the general path, so a silent
        # fall-back cannot hide a slower load
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 4)) * [1.0, 1e-300, 1e300, 7.0]
        y = rng.integers(0, 2, size=50)
        path = tmp_path / "numeric.csv"
        np.savetxt(path, np.column_stack([X, y]), delimiter=",", header="a,b,c,d,label", comments="",
                   fmt=["%.17g"] * 4 + ["%d"])
        want = load_outcome(load_csv_reference, path, None)

        def no_general_path(*args):
            raise AssertionError("the general path read a numeric file")

        monkeypatch.setattr(data, "_load_general_csv", no_general_path)
        assert load_outcome(load_csv, path, None) == want
        dataset_to_csv(load_csv(path, "label"), tmp_path / "written.csv")
        assert load_outcome(load_csv, tmp_path / "written.csv", None)[:-1] == want[:-1]

    def test_label_error_names_the_row(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(LOADER_CASES["non-binary label in row 7"][0], encoding="utf-8")
        with pytest.raises(DataError, match="non-binary label '2' at row 7 of"):
            load_csv(path, "label")

    def test_numeric_hint_names_a_text_cell(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(LOADER_CASES["numeric hint on gaps"][0], encoding="utf-8")
        with pytest.raises(DataError, match=r"non-numeric value 'abc' in column 'x' at row 5 of"):
            load_csv(path, "label", [FeatureSchema("x", "numeric")])
        path.write_text(LOADER_CASES["numeric hint on text only"][0], encoding="utf-8")
        with pytest.raises(DataError, match=r"^column 'x' has no values to impute from$"):
            load_csv(path, "label", [FeatureSchema("x", "numeric")])


    def test_a_hint_must_name_a_feature_column(self, tmp_path):
        # a misspelled hint would leave its column inferred, silently
        path = tmp_path / "in.csv"
        for case in ("hint on no column", "hint on the label"):
            text, hints = LOADER_CASES[case]
            path.write_text(text, encoding="utf-8")
            with pytest.raises(DataError, match=rf"^schema hint '{hints[0].name}' names no feature column of "):
                load_csv(path, "label", hints)

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_median_is_named(self, tmp_path):
        # every cell is finite; only the midpoint of the two 1e308 cells is not
        path = tmp_path / "in.csv"
        path.write_text(LOADER_CASES["overflowing median"][0], encoding="utf-8")
        with pytest.raises(DataError, match=r"^column 'x' has a median that overflows, so its gaps cannot be filled$"):
            load_csv(path, "label")

    def test_columns_that_encode_to_one_name_are_named(self, tmp_path):
        # a categorical `site` beside a numeric `site=A` would write a linked
        # header that names `own.site=A` twice
        path = tmp_path / "in.csv"
        path.write_text(LOADER_CASES["two columns encode to one name"][0], encoding="utf-8")
        with pytest.raises(DataError, match=r"^two features encode to the column name 'site=A'$"):
            load_csv(path, "label")

    def test_an_id_column_is_named_with_its_count(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(LOADER_CASES["51 categories"][0], encoding="utf-8")
        with pytest.raises(DataError, match=r"^column 'id' has 51 distinct values, too many for a categorical \(at most 50\)"):
            load_csv(path, "label")
        assert load_csv(path, "label", LOADER_CASES["51 hinted categories"][1]).k == 51

    def test_a_missing_value_code_is_named_with_its_row(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(LOADER_CASES["80 numbers and NA"][0], encoding="utf-8")
        with pytest.raises(DataError, match=r"^column 'x' has 81 distinct values, .*; its first non-numeric "
                                            r"cell is 'NA' at row 42; give it a schema hint"):
            load_csv(path, "label")
        # an all-text id column has no number to set its odd cell against
        path.write_text(LOADER_CASES["51 categories"][0], encoding="utf-8")
        with pytest.raises(DataError) as exc:
            load_csv(path, "label")
        assert "non-numeric" not in str(exc.value)


class TestHeaderFaults:
    @pytest.mark.parametrize("header,dup", [("label,a,label", "label"), ("a,a,label", "a"), ("a,label,b,b", "b")])
    def test_duplicate_column_is_named(self, tmp_path, header, dup):
        path = tmp_path / "dup.csv"
        width = header.count(",") + 1
        path.write_text(header + "\n" + ("0," * width)[:-1] + "\n" + ("1," * width)[:-1] + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=rf"duplicate column '{dup}' in .*dup\.csv"):
            load_csv(path, "label")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "label,x,c\n0,1.5,A\n1,2,B\n0,,A\n"
        (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
        (tmp_path / "bom.csv").write_text(text, encoding="utf-8-sig")
        assert (tmp_path / "bom.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        plain = load_csv(tmp_path / "plain.csv", "label")
        bom = load_csv(tmp_path / "bom.csv", "label")
        assert bom.schema == plain.schema
        assert bom.X.tobytes() == plain.X.tobytes() and bom.y.tobytes() == plain.y.tobytes()
