"""Tabular datasets with binary outcomes: ingestion, cleaning, splitting.

CSV files come in RFC-4180 shape with a header row; missing cells are empty
strings. Categorical columns are one-hot encoded (one column per category,
none dropped), missing numerics take the column median, missing categoricals
the column mode. All downstream distance computations assume `standardize`
has been applied first.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

LABEL_COLUMN = "label"
MAX_CATEGORIES = 50  # an inferred categorical with more distinct values is taken for an id column


class DataError(ValueError):
    """Raised on malformed input data or violated preconditions."""


@dataclass(frozen=True)
class FeatureSchema:
    """One source column: numeric, or categorical with its category labels."""

    name: str
    kind: str  # "numeric" | "categorical"
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("numeric", "categorical"):
            raise DataError(f"unknown feature kind {self.kind!r}")
        if self.kind == "categorical" and len(self.categories) < 2:
            raise DataError(f"categorical feature {self.name!r} needs >= 2 categories")
        if self.kind == "numeric" and self.categories:
            raise DataError(f"numeric feature {self.name!r} must not carry categories")

    @property
    def encoded_names(self) -> list[str]:
        """Column names after encoding: the name itself, or name=category."""
        if self.kind == "numeric":
            return [self.name]
        return [f"{self.name}={c}" for c in self.categories]


def _check_schema(schema: list[FeatureSchema]) -> None:
    names = [s.name for s in schema]
    if len(set(names)) != len(names):
        raise DataError("feature names must be unique within a schema")
    seen: set[str] = set()
    for name in (n for s in schema for n in s.encoded_names):
        if name in seen:
            raise DataError(f"two features encode to the column name {name!r}")
        seen.add(name)


@dataclass(frozen=True)
class Dataset:
    """N samples by K encoded numeric features plus binary outcome labels.

    Every table the package builds is one: D1 and D2, the linked D12 and D21
    (`linkage.concat_linked`) and the 2-D projections (`figures`)."""

    schema: tuple[FeatureSchema, ...]
    X: np.ndarray
    y: np.ndarray
    id: str

    def __post_init__(self):
        _check_schema(list(self.schema))
        X = np.asarray(self.X, dtype=np.float64)
        y = np.asarray(self.y)
        if X.ndim != 2:
            raise DataError("X must be 2-D")
        if X.shape[0] != y.shape[0]:
            raise DataError(f"row count {X.shape[0]} != label count {y.shape[0]}")
        if X.shape[0] < 2:
            raise DataError("a dataset needs at least 2 samples")
        if X.shape[1] < 1:
            raise DataError("a dataset needs at least 1 feature")
        if not np.all(np.isfinite(X)):
            raise DataError("X contains non-finite values after ingestion")
        if not np.isin(y, (0, 1)).all():
            raise DataError("labels must be 0 or 1")
        expected = sum(len(s.encoded_names) for s in self.schema)
        if expected != X.shape[1]:
            raise DataError(f"schema encodes {expected} columns but X has {X.shape[1]}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y.astype(np.int64))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]

    @property
    def feature_names(self) -> list[str]:
        return [n for s in self.schema for n in s.encoded_names]

    def require_both_classes(self) -> None:
        if not (np.any(self.y == 0) and np.any(self.y == 1)):
            raise DataError(f"dataset {self.id!r} must contain both classes")


@dataclass(frozen=True)
class StandardizationParams:
    """Per-column mean and population standard deviation; zero stddev marks a
    constant column, which standardization maps to all zeros."""

    means: np.ndarray
    stddevs: np.ndarray

    @property
    def constant_mask(self) -> np.ndarray:
        return self.stddevs == 0.0


def fit_standardization(X: np.ndarray) -> StandardizationParams:
    X = np.asarray(X, dtype=np.float64)
    means = X.mean(axis=0)
    stddevs = X.std(axis=0)  # population convention, divide by N
    return StandardizationParams(means=means, stddevs=stddevs)


def apply_standardization(params: StandardizationParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    safe = np.where(params.constant_mask, 1.0, params.stddevs)
    out = (X - params.means) / safe
    out[:, params.constant_mask] = 0.0
    return out


def standardize(d: Dataset) -> tuple[Dataset, StandardizationParams]:
    """Z-score every column (population stddev); constant columns become zero."""
    params = fit_standardization(d.X)
    out = Dataset(d.schema, apply_standardization(params, d.X), d.y, d.id)
    return out, params


def stratified_kfold(d: Dataset, folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic stratified k-fold split of a dataset's row indices.

    Each class is shuffled with the seed and dealt round-robin, so per-fold
    class counts differ by at most one.
    """
    if folds < 2:
        raise DataError("folds must be >= 2")
    d.require_both_classes()
    rng = np.random.default_rng(seed)
    test_folds: list[list[int]] = [[] for _ in range(folds)]
    for cls in (0, 1):
        members = np.flatnonzero(d.y == cls)
        if members.size < folds:
            raise DataError(f"class {cls} has {members.size} members, fewer than {folds} folds")
        perm = rng.permutation(members)
        for pos, row in enumerate(perm):
            test_folds[pos % folds].append(int(row))
    all_idx = np.arange(d.n)
    out = []
    for f in range(folds):
        test = np.sort(np.array(test_folds[f], dtype=np.int64))
        train = np.setdiff1d(all_idx, test)
        out.append((train, test))
    return out


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _parse_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _parse_column(cells: tuple[str, ...]) -> np.ndarray | None:
    """Every cell through `float` once; None if any cell is not a number."""
    try:
        return np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        return None


def _load_numeric_csv(path: Path, label_column: str) -> Dataset | None:
    """`load_csv`'s result for a file of numbers only, parsed by numpy's C
    reader, or None when in any doubt, so that the general path reads the
    file and raises its named error. Doubt is a duplicate or missing header
    name; no feature column; fewer than 2 data rows; an unreadable file or
    one that `np.loadtxt` rejects, such as a gap, text, a quote, `1_000` or
    a ragged row; a blank line, which `np.loadtxt` skips where the general
    path fails; a column count other than the header's; a non-finite value;
    a label other than 0 or 1. `np.loadtxt` accepts a subset of the cells
    that `float` accepts, with the same bits.
    """
    try:
        raw = path.read_bytes()
        ends = raw.count(b"\n")
        if b"\r" in raw:
            ends += raw.count(b"\r") - raw.count(b"\r\n")
        # the file's lines less the header, which are csv's rows unless a
        # quoted cell spans lines; loadtxt rejects a quote in a cell, and a
        # header that spans lines leaves it a row short of this count
        n_rows = ends + (raw[-1:] not in b"\r\n") - 1
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), [])
            if len(set(header)) != len(header) or label_column not in header or len(header) < 2 or n_rows < 2:
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # loadtxt warns when it finds only blank lines
                table = np.loadtxt(fh, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except (OSError, ValueError, UserWarning, csv.Error):
        return None
    # a blank line leaves loadtxt a row short
    if table.shape != (n_rows, len(header)) or not np.all(np.isfinite(table)):
        return None
    j = header.index(label_column)
    labels = table[:, j]
    if not np.all((labels == 0.0) | (labels == 1.0)):
        return None
    schema = tuple(FeatureSchema(name, "numeric") for name in header if name != label_column)
    # C order, as the general path's hstack gives: BLAS's bits depend on it
    return Dataset(schema, np.delete(table, j, axis=1), labels.astype(np.int64), id=path.stem)


def load_csv(
    path: str | Path,
    label_column: str,
    schema_hints: list[FeatureSchema] | None = None,
) -> Dataset:
    """Read a CSV into a Dataset: infer column kinds, impute, one-hot encode.

    Numeric gaps are filled with the column median, categorical gaps with the
    column mode (ties broken lexicographically); a median that overflows
    fails by name. A schema hint must name a feature column, and a column
    hinted numeric must hold a number or nothing in every cell. An inferred
    categorical column may hold at most `MAX_CATEGORIES` distinct values, so
    an id column fails here instead of one-hot encoding into one column per
    row; where some of its cells are numbers, the error names the first that
    is not, such as a missing-value code like `NA`. Labels must coerce to
    {0,1}.
    A leading UTF-8 byte-order mark is skipped.

    Without schema hints, a file of finite numbers with 0/1 labels is parsed
    by numpy's C reader (`_load_numeric_csv`); any other file, or one in
    doubt, takes the general path, which gives the same Dataset for the
    files both read. There, a column whose cells all parse as numbers is
    parsed in one pass; any other column goes cell by cell.
    """
    path = Path(path)
    numeric = None if schema_hints else _load_numeric_csv(path, label_column)
    return numeric if numeric is not None else _load_general_csv(path, label_column, schema_hints)


def _load_general_csv(path: Path, label_column: str, schema_hints: list[FeatureSchema] | None) -> Dataset:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path} is empty")
    header, body = rows[0], rows[1:]
    for j, name in enumerate(header):
        if name in header[:j]:
            raise DataError(f"duplicate column {name!r} in {path}")
    if label_column not in header:
        raise DataError(f"label column {label_column!r} not found in {path}")
    if len(body) < 2:
        raise DataError(f"{path} has fewer than 2 data rows")
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise DataError(f"{path} row {i + 2} has {len(row)} cells, expected {len(header)}")

    columns = dict(zip(header, zip(*body)))

    labels = _parse_column(columns[label_column])
    if labels is None or not np.all((labels == 0.0) | (labels == 1.0)):
        for i, cell in enumerate(columns[label_column]):  # raises at the first bad cell
            if _parse_float(cell) not in (0.0, 1.0):
                raise DataError(f"non-binary label {cell!r} at row {i + 2} of {path}")
    y = labels.astype(np.int64)

    hints = {h.name: h for h in (schema_hints or [])}
    for name in hints:
        if name == label_column or name not in header:
            raise DataError(f"schema hint {name!r} names no feature column of {path}")
    schema: list[FeatureSchema] = []
    blocks: list[np.ndarray] = []
    for name in header:
        if name == label_column:
            continue
        cells = columns[name]
        hint = hints.get(name)
        col = None if hint and hint.kind == "categorical" else _parse_column(cells)
        present = cells if col is not None else [c for c in cells if c != ""]
        if not present:
            raise DataError(f"column {name!r} has no values to impute from")
        if col is None and (hint.kind == "numeric" if hint
                            else all(_parse_float(c) is not None for c in present)):
            vals = [_parse_float(c) for c in cells]
            known = [v for v in vals if v is not None]
            if not known:
                raise DataError(f"column {name!r} has no values to impute from")
            for i, (cell, v) in enumerate(zip(cells, vals)):  # a hinted column's text is no gap
                if v is None and cell != "":
                    raise DataError(f"non-numeric value {cell!r} in column {name!r} at row {i + 2} of {path}")
            with np.errstate(over="ignore"):  # the midpoint of two huge values
                med = float(np.median(known))
            if not np.isfinite(med) and np.all(np.isfinite(known)):
                raise DataError(f"column {name!r} has a median that overflows, so its gaps cannot be filled")
            col = np.array([med if v is None else v for v in vals], dtype=np.float64)
        if col is not None:
            if not np.all(np.isfinite(col)):
                raise DataError(f"column {name!r} contains non-finite values")
            schema.append(FeatureSchema(name, "numeric"))
            blocks.append(col[:, None])
        else:
            if hint and hint.categories:
                cats = list(hint.categories)
                unknown = sorted(set(present) - set(cats))
                if unknown:
                    raise DataError(f"column {name!r} has values outside hinted categories: {unknown}")
            else:
                cats = sorted(set(present))
                if len(cats) > MAX_CATEGORIES:
                    text = [(i, c) for i, c in enumerate(cells) if c != "" and _parse_float(c) is None]
                    named = ""
                    if 0 < len(text) < len(present):  # numbers but for a code such as NA: name it
                        i, cell = text[0]
                        named = f"; its first non-numeric cell is {cell!r} at row {i + 2}"
                    raise DataError(
                        f"column {name!r} has {len(cats)} distinct values, too many for a categorical "
                        f"(at most {MAX_CATEGORIES}){named}; give it a schema hint or drop the column")
            if len(cats) < 2:
                raise DataError(f"categorical column {name!r} has a single category {cats[0]!r}")
            counts = {c: 0 for c in cats}
            for c in present:
                counts[c] += 1
            # mode, ties broken lexicographically
            best = max(counts.values())
            mode = min(c for c in cats if counts[c] == best)
            onehot = np.zeros((len(cells), len(cats)), dtype=np.float64)
            pos = {c: j for j, c in enumerate(cats)}
            for i, cell in enumerate(cells):
                onehot[i, pos[cell if cell != "" else mode]] = 1.0
            schema.append(FeatureSchema(name, "categorical", tuple(cats)))
            blocks.append(onehot)
    if not blocks:
        raise DataError(f"{path} has no feature columns besides the label")
    X = np.hstack(blocks)
    return Dataset(tuple(schema), X, y, id=path.stem)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

CSV_BLOCK_ROWS = 4096  # rows formatted per task: a serial write holds one block's text at once


def csv_blocks(columns: list[np.ndarray]) -> list[Callable[[], str]]:
    """One zero-argument task per `CSV_BLOCK_ROWS` rows of the equal-length
    1-D `columns`, each returning those rows' lines as `write_csv` writes
    them."""
    return [partial(_csv_lines, columns, lo) for lo in range(0, len(columns[0]), CSV_BLOCK_ROWS)]


def _csv_lines(columns: list[np.ndarray], lo: int) -> str:
    rows = zip(*(col[lo:lo + CSV_BLOCK_ROWS].tolist() for col in columns))
    return "".join([",".join(map(repr, row)) + "\r\n" for row in rows])


def write_csv(
    path: str | Path,
    header: list[str],
    columns: list[np.ndarray],
    texts: list[str] | None = None,
) -> None:
    """`header` through `csv.writer` (quoted where a name needs it), then one
    line per row of the equal-length 1-D `columns`: each cell the repr of its
    value (a float's shortest round-trip form, an int's digits), comma-joined,
    with csv's CRLF line end.

    `texts` are the results of `csv_blocks(columns)`'s tasks, in order, such
    as `linkage.pooled` returns; by default each block is formatted here."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(texts if texts is not None else (block() for block in csv_blocks(columns)))


def dataset_columns(d: Dataset, label_column: str = LABEL_COLUMN) -> tuple[list[str], list[np.ndarray]]:
    """The CSV header and columns of `d`: its feature names and columns, the
    label last."""
    return d.feature_names + [label_column], [*d.X.T, d.y]


def dataset_to_csv(d: Dataset, path: str | Path, label_column: str = LABEL_COLUMN) -> None:
    write_csv(path, *dataset_columns(d, label_column))


def schema_to_json(schema: tuple[FeatureSchema, ...] | list[FeatureSchema]) -> list[dict]:
    return [
        {"name": s.name, "kind": s.kind, "categories": list(s.categories)}
        for s in schema
    ]


def write_schema(schema, path: str | Path) -> None:
    Path(path).write_text(json.dumps(schema_to_json(schema), indent=2) + "\n", encoding="utf-8")
