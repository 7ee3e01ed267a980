"""Independent brute-force oracles used to check the library implementations.

Everything here is deliberately written in the most literal way possible
(scalar loops, textbook formulas) and stays independent of the code paths it
verifies. The full-matrix forms (`distance_matrix`, `k_nearest`) are the
exception: they hold the whole N x M matrix from the exact kernels, the form
the streaming search `_kernels.nearest` must equal. `roc_curve`,
`invert_standardization` and `schema_from_json` are plain forms the pipeline
does not need. `sigmoid_two_branch` and `fit_logistic_reference` are the forms
`_kernels.sigmoid` and the logistic fit had before the sigmoid went
branch-free; `logistic_loss` is the loss whose gradient the fit descends. The CSV references are the cell-by-cell loader and the
row-by-row `csv.writer` writers the package's one-pass forms must equal byte
for byte. `scatter_svg_reference` is the per-point loop `figures.scatter_svg`
had before it scaled the points as arrays.
"""

import csv

import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from disjoint_link import _kernels
from disjoint_link.data import DataError, Dataset, FeatureSchema
from disjoint_link.figures import NEGATIVE_COLOR, POSITIVE_COLOR
from disjoint_link.linkage import NeighborMap


def welch_t_brute(values0, values1):
    """Two-sample Welch t statistic of group 1 against group 0, scalar math."""
    n0, n1 = len(values0), len(values1)
    m0 = sum(values0) / n0
    m1 = sum(values1) / n1
    v0 = sum((v - m0) ** 2 for v in values0) / (n0 - 1)
    v1 = sum((v - m1) ** 2 for v in values1) / (n1 - 1)
    denom = math.sqrt(v1 / n1 + v0 / n0)
    if denom == 0.0:
        if m1 == m0:
            return 0.0
        return math.copysign(1e6, m1 - m0)
    return (m1 - m0) / denom


def pairwise_dist_brute(a, b):
    """Scalar-loop Euclidean distance matrix.

    Each square is a product and the sum runs left to right, so every entry
    is the correctly rounded textbook value: `** 2` goes through the C
    library's pow, which need not round correctly, and `sum` of floats is
    compensated from Python 3.12 on.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            acc = 0.0
            for t in range(a.shape[1]):
                d = float(a[i, t]) - float(b[j, t])
                acc += d * d
            out[i, j] = math.sqrt(acc)
    return out


def k_smallest_brute(dist, k):
    """First k columns of a stable argsort of every row, with their values."""
    dist = np.asarray(dist, dtype=float)
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(dist, order, axis=1)


def k_nearest_brute(a, b, k):
    """The full scalar-loop distance matrix, then a stable argsort per row."""
    return k_smallest_brute(pairwise_dist_brute(a, b), k)


def group_threshold_brute(A, k, groups):
    """Per row, the (k+1)-th smallest of the minima of the column groups
    {j : j mod groups = g}."""
    return np.array([sorted(min(row[g::groups]) for g in range(groups))[k]
                     for row in np.asarray(A, dtype=float)])


@dataclass(frozen=True)
class LinkageMatrix:
    dist: np.ndarray  # (N, M) non-negative
    row_source: str
    col_source: str


def distance_matrix(a, b, row_source="a", col_source="b"):
    """Exact all-pairs Euclidean distances between the rows of two reduced
    datasets, tagged with the datasets' names."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[1] != b.shape[1]:
        raise DataError(f"reduced dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    return LinkageMatrix(_kernels.pairwise_euclidean(a, b), row_source, col_source)


def k_nearest(m, k):
    """Per row, the k nearest columns ascending; ties go to the lower index."""
    if not 1 <= k <= m.dist.shape[1]:
        raise DataError(f"k={k} must lie in [1, {m.dist.shape[1]}]")
    idx, val = _kernels.k_smallest(m.dist, k)
    return NeighborMap(k=k, neighbors=idx, distances=val)


def auroc_brute(scores, labels):
    """Pairwise definition: (#{s+ > s-} + 0.5 #ties) / (P * N)."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


@dataclass(frozen=True)
class RocCurve:
    thresholds: np.ndarray  # descending; first entry +inf
    fpr: np.ndarray
    tpr: np.ndarray


def roc_curve(scores, labels):
    """Step curve over the distinct score thresholds, from (0,0) to (1,1)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    boundaries = np.flatnonzero(np.diff(s)) + 1
    cut = np.concatenate([boundaries, [len(s)]])
    tp = np.cumsum(y == 1)[cut - 1]
    fp = np.cumsum(y == 0)[cut - 1]
    thresholds = np.concatenate([[np.inf], s[cut - 1]])
    fpr = np.concatenate([[0.0], fp / n_neg])
    tpr = np.concatenate([[0.0], tp / n_pos])
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr)


def sigmoid_two_branch(z):
    """The logistic function on the side that cannot overflow exp, each side
    computed on its own: 1 / (1 + exp(-z)) where z >= 0, exp(z) / (1 + exp(z))
    elsewhere (NaN included). `_kernels.sigmoid` must give the same bits."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def fit_logistic_reference(X, y, hyper):
    """`fit_logistic`'s weights and bias by its update rule, with the
    two-branch sigmoid and `ndarray.mean` for the bias gradient."""
    w, b = np.zeros(X.shape[1]), 0.0
    for _ in range(hyper.epochs):
        resid = sigmoid_two_branch(X @ w + b) - y
        gw = X.T @ resid / X.shape[0] + hyper.l2_lambda * w
        w = w - hyper.learning_rate * gw
        b = b - hyper.learning_rate * float(resid.mean())
    return w, b


def logistic_loss(w, b, X, y, l2):
    """Mean cross-entropy plus (l2/2)*||w||^2; the bias is not penalized."""
    z = X @ w + b
    # log(1 + exp(-|z|)) is the stable core of both label branches
    softplus = np.log1p(np.exp(-np.abs(z)))
    loss = float(np.mean(np.where(y == 1, softplus + np.maximum(-z, 0.0), softplus + np.maximum(z, 0.0))))
    return loss + 0.5 * l2 * float(w @ w)


def median_brute(values):
    return statistics.median(values)


def jacobi_eigh(matrix, sweeps=100, tol=1e-13):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors-as-columns), both unsorted.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = math.sqrt(sum(a[p, q] ** 2 for p in range(n) for q in range(n) if p != q))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    return np.diag(a).copy(), v


def pca_components_brute(X, r):
    """Top-r eigenvectors of the population covariance, via the Jacobi oracle,
    with the largest-absolute-entry-positive sign convention applied."""
    X = np.asarray(X, dtype=float)
    xc = X - X.mean(axis=0)
    cov = xc.T @ xc / X.shape[0]
    vals, vecs = jacobi_eigh(cov)
    order = np.argsort(-vals, kind="stable")[:r]
    comps = vecs[:, order].T.copy()
    for i in range(comps.shape[0]):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return np.maximum(vals[order], 0.0), comps


def reconstruction_mse(layers, tanh_flags, X):
    """Mean squared reconstruction error through an allocating forward pass."""
    X = np.asarray(X, dtype=np.float64)
    a = X
    for (w, b), is_tanh in zip(layers, tanh_flags):
        a = a @ w + b
        if is_tanh:
            a = np.tanh(a)
    return float(np.mean((a - X) ** 2))


def encode_reference(reducer, X):
    """An autoencoder's latent for X through an allocating forward pass of
    its encoder half: tanh on every hidden layer, identity on the latent."""
    layers = reducer.encoder_layers
    a = np.asarray(X, dtype=np.float64)
    for i, (w, b) in enumerate(layers):
        a = a @ w + b
        if i < len(layers) - 1:
            a = np.tanh(a)
    return a


def fit_autoencoder_reference(X, r, hyper):
    """The autoencoder training loop in its plain per-layer form: allocating
    forward and backward passes, a per-layer momentum update and a fancy-index
    gather per batch. Returns the trained ((W, b), ...) and the epoch losses.

    Deliberately independent of `disjoint_link.autoencoder` apart from the
    hyperparameters; a training step must match it bit for bit.
    """
    X = np.asarray(X, dtype=np.float64)
    n, k = X.shape
    hidden = tuple(hyper.hidden_dims)
    dims = [k, *hidden, r, *reversed(hidden), k]
    tanh_flags = [True] * (len(dims) - 1)
    tanh_flags[len(hidden)] = False  # latent layer
    tanh_flags[-1] = False  # output layer

    def forward(layers, batch):
        acts = [batch]
        for (w, b), is_tanh in zip(layers, tanh_flags):
            z = acts[-1] @ w + b
            acts.append(np.tanh(z) if is_tanh else z)
        return acts

    def loss_and_grads(layers, batch):
        acts = forward(layers, batch)
        resid = acts[-1] - batch
        loss = float(np.mean(resid**2))
        delta = 2.0 * resid / resid.size
        grads = []
        for i in range(len(layers) - 1, -1, -1):
            w, _ = layers[i]
            grads.append((acts[i].T @ delta, delta.sum(axis=0)))
            if i > 0:
                delta = delta @ w.T
                if tanh_flags[i - 1]:
                    delta = delta * (1.0 - acts[i] ** 2)
        grads.reverse()
        return loss, grads

    rng = np.random.default_rng(hyper.seed)
    layers = []
    for din, dout in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (din + dout))
        layers.append([rng.uniform(-bound, bound, size=(din, dout)), np.zeros(dout)])
    velocity = [[np.zeros_like(w), np.zeros_like(b)] for w, b in layers]

    log = []
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        for start in range(0, n, hyper.batch_size):
            batch = X[order[start : start + hyper.batch_size]]
            _, grads = loss_and_grads(layers, batch)
            for layer, vel, (gw, gb) in zip(layers, velocity, grads):
                vel[0] = 0.9 * vel[0] + gw
                vel[1] = 0.9 * vel[1] + gb
                layer[0] = layer[0] - hyper.learning_rate * vel[0]
                layer[1] = layer[1] - hyper.learning_rate * vel[1]
        log.append(float(np.mean((forward(layers, X)[-1] - X) ** 2)))
    return tuple((w, b) for w, b in layers), tuple(log)


def invert_standardization(params, X):
    """Undo `apply_standardization`: constant columns come back as their mean."""
    return np.asarray(X, dtype=np.float64) * params.stddevs + params.means


def schema_from_json(doc):
    """The inverse of `data.schema_to_json`."""
    return tuple(FeatureSchema(e["name"], e["kind"], tuple(e.get("categories", ()))) for e in doc)


# ---------------------------------------------------------------------------
# CSV references: every cell parsed and written on its own
# ---------------------------------------------------------------------------


def _parse_float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def load_csv_reference(
    path: str | Path,
    label_column: str,
    schema_hints: list[FeatureSchema] | None = None,
) -> Dataset:
    """The cell-by-cell loader: each numeric cell parsed once to classify its
    column and again to read it. Plain UTF-8, no duplicate-header check. An
    inferred categorical column holds at most 50 distinct values; if some of
    its cells are numbers, the error names the first that is not."""
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path} is empty")
    header, body = rows[0], rows[1:]
    if label_column not in header:
        raise DataError(f"label column {label_column!r} not found in {path}")
    if len(body) < 2:
        raise DataError(f"{path} has fewer than 2 data rows")
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise DataError(f"{path} row {i + 2} has {len(row)} cells, expected {len(header)}")

    columns = {name: [row[j] for row in body] for j, name in enumerate(header)}

    labels = []
    for i, cell in enumerate(columns[label_column]):
        v = _parse_float(cell)
        if v is None or v not in (0.0, 1.0):
            raise DataError(f"non-binary label {cell!r} at row {i + 2} of {path}")
        labels.append(int(v))
    y = np.array(labels, dtype=np.int64)

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
        present = [c for c in cells if c != ""]
        if not present:
            raise DataError(f"column {name!r} has no values to impute from")
        hint = hints.get(name)
        numeric = hint.kind == "numeric" if hint else all(_parse_float(c) is not None for c in present)
        if numeric:
            vals = [_parse_float(c) for c in cells]
            if all(v is None for v in vals):
                raise DataError(f"column {name!r} has no values to impute from")
            for i, cell in enumerate(cells):
                if cell != "" and _parse_float(cell) is None:
                    raise DataError(f"non-numeric value {cell!r} in column {name!r} at row {i + 2} of {path}")
            known = [v for v in vals if v is not None]
            with np.errstate(over="ignore"):
                med = float(np.median(known))
            if math.isinf(med) and None in vals and all(math.isfinite(v) for v in known):
                raise DataError(f"column {name!r} has a median that overflows, so its gaps cannot be filled")
            col = np.array([med if v is None else v for v in vals], dtype=np.float64)
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
                if len(cats) > 50:
                    numbers = [c for c in present if _parse_float(c) is not None]
                    named = ""
                    if numbers and len(numbers) < len(present):
                        for i, cell in enumerate(cells):
                            if cell != "" and _parse_float(cell) is None:
                                named = f"; its first non-numeric cell is {cell!r} at row {i + 2}"
                                break
                    raise DataError(
                        f"column {name!r} has {len(cats)} distinct values, too many for a categorical "
                        f"(at most 50){named}; give it a schema hint or drop the column")
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


def write_rows_reference(path, header, rows):
    """One `csv.writer.writerow` per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def labelled_rows_reference(X, y):
    """Rows of float cells, each `repr(float(v))` of a numpy scalar, then the label."""
    return ([repr(float(v)) for v in X[i]] + [int(y[i])] for i in range(len(X)))


def neighbors_rows_reference(nb):
    """`neighbors.csv` rows: row index, rank, column index, distance."""
    for i in range(nb.neighbors.shape[0]):
        for rank in range(nb.k):
            yield [i, rank, int(nb.neighbors[i, rank]), repr(float(nb.distances[i, rank]))]


def scatter_svg_reference(p, title=""):
    width, height, margin = 640.0, 480.0, 48.0
    xs, ys = p.X[:, 0], p.X[:, 1]
    xmin, ymin = xs.min(), ys.min()
    xspan = max(xs.max() - xmin, 1e-12)
    yspan = max(ys.max() - ymin, 1e-12)

    def sx(v):
        return margin + (v - xmin) / xspan * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - ymin) / yspan * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<rect x="{margin:.0f}" y="{margin:.0f}" width="{width - 2 * margin:.0f}" '
        f'height="{height - 2 * margin:.0f}" fill="none" stroke="#cccccc"/>',
    ]
    if title:
        text = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{width / 2:.0f}" y="{margin / 2 + 6:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{text}</text>'
        )
    for target, color in ((0, NEGATIVE_COLOR), (1, POSITIVE_COLOR)):
        for (x, y), lab in zip(p.X, p.y):
            if lab != target:
                continue
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}" fill-opacity="0.7"/>'
            )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 12:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">pc1</text>'
    )
    parts.append(
        f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 16 {height / 2:.0f})">pc2</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
