"""Output checks that recompute the program's results with plain numpy/scipy.

Each check raises CheckFailed with the first disagreement it finds.
Tolerances (absolute, on values of order one):
- standardized features, medians and distances: 1e-9;
- a neighbour index may differ from the brute-force one only where the two
  candidates' distances are within 1e-9 of each other (a tie);
- PCA components: orthonormal to 1e-10, eigenvalues to 1e-9 relative,
  spanned subspace (projector difference) to 1e-7;
- per-fold AUROC of the unlinked condition: 1e-9;
- mean and sd in report.json: 1e-12 relative;
- table.txt: its one-decimal percentages within 0.05 + 1e-9 of the report.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy.linalg import eigh
from scipy.special import expit
from scipy.stats import mannwhitneyu

TOL = 1e-9
DISPLAY_NAMES = {
    "unlinked": "Unlinked",
    "random": "Random",
    "feature_importance": "Feature importance",
    "pca": "Principal component analysis",
    "autoencoder": "Autoencoder",
}


class CheckFailed(AssertionError):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_dataset(path: Path):
    header, table = read_table(path)
    expect(header[-1] == "label", f"{path.name}: last column is not the label")
    return header[:-1], table[:, :-1], table[:, -1].astype(np.int64)


def standardize(x: np.ndarray) -> np.ndarray:
    """Population z-score per column; constant columns become zero."""
    mean, sd = x.mean(axis=0), x.std(axis=0)
    out = (x - mean) / np.where(sd == 0.0, 1.0, sd)
    out[:, sd == 0.0] = 0.0
    return out


def brute_knn(query: np.ndarray, ref: np.ndarray):
    """All distances, and each row's columns by ascending distance with ties
    to the lower index."""
    dist = np.sqrt(((query[:, None, :] - ref[None, :, :]) ** 2).sum(axis=2))
    return dist, np.argsort(dist, axis=1, kind="stable")


# ---------------------------------------------------------------------------
# link
# ---------------------------------------------------------------------------


def _check_pca(side: str, payload: dict, xs: np.ndarray, r: int) -> np.ndarray:
    comps = np.array(payload["components"])
    expect(comps.shape == (r, xs.shape[1]), f"{side}: components shape {comps.shape}")
    expect(np.abs(comps @ comps.T - np.eye(r)).max() < 1e-10, f"{side}: components not orthonormal")
    mean = xs.mean(axis=0)
    expect(np.abs(np.array(payload["mean"]) - mean).max() < TOL, f"{side}: PCA mean differs")
    xc = xs - mean
    values, vectors = eigh(xc.T @ xc / xs.shape[0])
    top = np.argsort(values)[::-1][:r]
    expect(
        np.allclose(payload["eigenvalues"], np.maximum(values[top], 0.0), rtol=1e-9, atol=1e-12),
        f"{side}: eigenvalues differ from scipy.linalg.eigh",
    )
    span = vectors[:, top]
    expect(
        np.abs(comps.T @ comps - span @ span.T).max() < 1e-7,
        f"{side}: components span another subspace than the top-{r} eigenvectors",
    )
    return xc @ comps.T


def _encode(payload: dict, xs: np.ndarray) -> np.ndarray:
    h = xs
    layers = payload["encoder"]
    for i, layer in enumerate(layers):
        h = h @ np.array(layer["w"]) + np.array(layer["b"])
        if i < len(layers) - 1:
            h = np.tanh(h)
    return h


def _check_aggregates(name: str, header, table, own_names, own_std, labels, agg_names, agg_values):
    own_cols = [f"own.{n}" for n in own_names]
    expect(header[: len(own_cols)] == own_cols, f"{name}: own.* header differs")
    agg_header = header[len(own_cols) : -1]
    expect(
        len(agg_header) == len(agg_names)
        and all(h.startswith("agg.") and h.endswith("." + n) for h, n in zip(agg_header, agg_names)),
        f"{name}: agg.* header differs",
    )
    expect(header[-1] == "label", f"{name}: no label column")
    expect(table.shape[0] == own_std.shape[0], f"{name}: {table.shape[0]} rows")
    expect(np.abs(table[:, : len(own_cols)] - own_std).max() < TOL, f"{name}: own.* differ")
    expect(np.array_equal(table[:, -1].astype(np.int64), labels), f"{name}: labels differ")
    if agg_values is not None:
        got = table[:, len(own_cols) : -1]
        expect(np.abs(got - agg_values).max() < TOL, f"{name}: agg.* are not the neighbour medians")


def _check_neighbors(name: str, want_idx, want_dist, got_idx, got_dist, full_dist) -> None:
    """Compare a row sample's neighbours; an index may differ only at a tie."""
    expect(np.abs(got_dist - want_dist).max() < TOL, f"{name}: neighbour distances differ")
    for row in np.flatnonzero((got_idx != want_idx).any(axis=1)):
        chosen = full_dist[row, got_idx[row]]
        expect(
            np.abs(chosen - want_dist[row]).max() < TOL,
            f"{name}: row {row} neighbours {got_idx[row]} are not ties of {want_idx[row]}",
        )


def check_link(out: Path, d1_csv: Path, d2_csv: Path, k: int, sample: int, seed: int) -> str:
    names1, x1, y1 = read_dataset(d1_csv)
    names2, x2, y2 = read_dataset(d2_csv)
    x1s, x2s = standardize(x1), standardize(x2)
    payload = json.loads((out / "reducer.json").read_text(encoding="utf-8"))
    r = payload["R"]
    if payload["kind"] == "pca":
        z1 = _check_pca("d1", payload["d1"], x1s, r)
        z2 = _check_pca("d2", payload["d2"], x2s, r)
    elif payload["kind"] == "autoencoder":
        z1, z2 = _encode(payload["d1"], x1s), _encode(payload["d2"], x2s)
    else:
        raise CheckFailed(f"no check for reducer kind {payload['kind']!r}")
    z1n, z2n = standardize(z1), standardize(z2)

    _, nb = read_table(out / "neighbors.csv")
    expect(nb.shape[0] == len(y1) * k, f"neighbors.csv has {nb.shape[0]} rows")
    nb_idx = nb[:, 2].astype(np.int64).reshape(len(y1), k)
    nb_dist = nb[:, 3].reshape(len(y1), k)
    expect(
        np.array_equal(nb[:, 0].astype(np.int64), np.repeat(np.arange(len(y1)), k))
        and np.array_equal(nb[:, 1].astype(np.int64), np.tile(np.arange(k), len(y1))),
        "neighbors.csv row/rank columns out of order",
    )
    rng = np.random.default_rng(seed)
    rows1 = np.sort(rng.choice(len(y1), size=min(sample, len(y1)), replace=False))
    rows2 = np.sort(rng.choice(len(y2), size=min(sample, len(y2)), replace=False))

    full, order = brute_knn(z1n[rows1], z2n)
    want = order[:, :k]
    want_dist = np.take_along_axis(full, want, axis=1)
    _check_neighbors("D1 sample", want, want_dist, nb_idx[rows1], nb_dist[rows1], full)

    header12, d12 = read_table(out / "D12.csv")
    agg12 = np.median(x2s[nb_idx], axis=1)
    _check_aggregates("D12.csv", header12, d12, names1, x1s, y1, names2, agg12)

    header21, d21 = read_table(out / "D21.csv")
    _check_aggregates("D21.csv", header21, d21, names2, x2s, y2, names1, None)
    full, order = brute_knn(z2n[rows2], z1n)
    dist = np.take_along_axis(full, order[:, : k + 1], axis=1)
    # the median is defined by the neighbour set only where the k-th and
    # (k+1)-th distances are not tied
    clear = dist[:, k] - dist[:, k - 1] > TOL
    agg21 = np.median(x1s[order[clear, :k]], axis=1)
    got = d21[rows2[clear], len(names2) : -1]
    expect(clear.any() and np.abs(got - agg21).max() < TOL, "D21.csv: agg.* are not the neighbour medians")
    return f"link ok: {payload['kind']} R={r}, {len(rows1)}+{int(clear.sum())} sampled rows brute-forced"


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def stratified_folds(y: np.ndarray, folds: int, seed: int):
    """The documented split rule: shuffle each class with the seed, deal
    its rows round-robin to the test folds."""
    rng = np.random.default_rng(seed)
    tests: list[list[int]] = [[] for _ in range(folds)]
    for cls in (0, 1):
        for pos, row in enumerate(rng.permutation(np.flatnonzero(y == cls))):
            tests[pos % folds].append(int(row))
    everything = np.arange(len(y))
    return [(np.setdiff1d(everything, t), np.sort(np.array(t, dtype=np.int64))) for t in tests]


def _check_split(split, y: np.ndarray) -> None:
    tests = np.concatenate([te for _, te in split])
    expect(len(tests) == len(y) and np.array_equal(np.sort(tests), np.arange(len(y))),
           "test folds are not a disjoint cover of D1")
    for tr, te in split:
        expect(np.intersect1d(tr, te).size == 0 and len(tr) + len(te) == len(y),
               "a fold's train and test rows overlap or miss rows")
    for cls in (0, 1):
        counts = [int((y[te] == cls).sum()) for _, te in split]
        expect(max(counts) - min(counts) <= 1, f"class {cls} not stratified: {counts}")


def unlinked_auroc(x: np.ndarray, y: np.ndarray, tr: np.ndarray, te: np.ndarray) -> float:
    """Fold-train standardization, 500 epochs of full-batch gradient descent
    from zero (lr 0.1, L2 1e-3), AUROC as the Mann-Whitney U share."""
    mean, sd = x[tr].mean(axis=0), x[tr].std(axis=0)
    safe = np.where(sd == 0.0, 1.0, sd)
    xtr, xte = (x[tr] - mean) / safe, (x[te] - mean) / safe
    xtr[:, sd == 0.0] = 0.0
    xte[:, sd == 0.0] = 0.0
    w, b, ytr = np.zeros(x.shape[1]), 0.0, y[tr].astype(np.float64)
    for _ in range(500):
        resid = expit(xtr @ w + b) - ytr
        w, b = w - 0.1 * (xtr.T @ resid / len(tr) + 1e-3 * w), b - 0.1 * resid.mean()
    scores = expit(xte @ w + b)
    pos, neg = scores[y[te] == 1], scores[y[te] == 0]
    return mannwhitneyu(pos, neg).statistic / (len(pos) * len(neg))


def check_evaluate(out: Path, d1_csv: Path, seeds: list[int], folds: int, reducers: list[str]) -> str:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    conditions = ["unlinked", "random", *reducers]
    expect(sorted(report["conditions"]) == sorted(conditions), f"conditions {list(report['conditions'])}")
    for name, c in report["conditions"].items():
        vals = np.array(c["per_seed"], dtype=np.float64)
        expect(vals.shape == (len(seeds), folds), f"{name}: per_seed shape {vals.shape}")
        expect(bool(np.all(np.isfinite(vals) & (vals >= 0) & (vals <= 1))), f"{name}: AUROC outside [0, 1]")
        flat = vals.ravel()
        expect(np.isclose(c["mean"], flat.mean(), rtol=1e-12, atol=0), f"{name}: mean differs")
        expect(np.isclose(c["sd"], flat.std(ddof=1), rtol=1e-12, atol=0), f"{name}: sd differs")

    table = (out / "table.txt").read_text(encoding="utf-8").splitlines()
    expect(f"mean over {len(seeds)} seeds x {folds} folds" in table[1], "table.txt header differs")
    rows = {line.split("|")[0].strip(): line.split("|")[1] for line in table[3:] if "|" in line}
    for name, c in report["conditions"].items():
        mean, sd = (float(v) for v in rows[DISPLAY_NAMES[name]].split("±"))
        expect(abs(mean - 100 * c["mean"]) <= 0.05 + TOL and abs(sd - 100 * c["sd"]) <= 0.05 + TOL,
               f"table.txt row for {name} disagrees with report.json")

    _, x, y = read_dataset(d1_csv)
    worst = 0.0
    for s_i, seed in enumerate(seeds):
        split = stratified_folds(y, folds, seed)
        _check_split(split, y)
        for f, (tr, te) in enumerate(split):
            diff = abs(unlinked_auroc(x, y, tr, te) - report["conditions"]["unlinked"]["per_seed"][s_i][f])
            worst = max(worst, diff)
    expect(worst < TOL, f"unlinked AUROC differs from the recomputation by {worst:.3g}")

    for name in ("before.csv", "after.csv"):
        _, proj = read_table(out / name)
        expect(proj.shape == (len(y), 3) and np.array_equal(proj[:, 2].astype(np.int64), y),
               f"{name}: rows or labels differ from D1")
    return f"evaluate ok: {len(conditions)} conditions, unlinked AUROC within {worst:.2g} of recomputation"
