"""Cross-dataset linkage: exact neighbor search, aggregation, concatenation.

Every cross-dataset sample pair of two reduced datasets has an exact
Euclidean distance. Each sample's k nearest rows in the other dataset are
median-aggregated and concatenated onto its own (standardized) features,
giving the linked datasets. The search streams over row blocks, so the full
distance matrix (`distance_matrix`) is never built on the linking path.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from .autoencoder import AutoencoderHyper
from .data import (
    Dataset,
    DataError,
    LABEL_COLUMN,
    standardize,
)
from .reducers import (
    ReducedDataset,
    compute_t_scores,
    encode,
    feature_importance_pair,
    fit_autoencoder,
    fit_pca,
    normalize_latent,
    project_pca,
)

DEFAULT_K = 5
DEFAULT_R = 8


@dataclass(frozen=True)
class LinkageMatrix:
    dist: np.ndarray  # (N, M) non-negative
    row_source: str
    col_source: str

    @property
    def transposed(self) -> "LinkageMatrix":
        return LinkageMatrix(self.dist.T, self.col_source, self.row_source)


@dataclass(frozen=True)
class NeighborMap:
    k: int
    neighbors: np.ndarray  # (N, k) column indices, ascending distance
    distances: np.ndarray  # (N, k) matching distances, for audits


@dataclass(frozen=True)
class ColumnProvenance:
    tag: str  # "own" | "aggregated"
    source_id: str
    feature: str


@dataclass(frozen=True)
class LinkedDataset:
    X: np.ndarray
    y: np.ndarray
    provenance: tuple[ColumnProvenance, ...]
    base_id: str
    other_id: str

    def __post_init__(self):
        if self.X.shape[1] != len(self.provenance):
            raise DataError("provenance must tag every column")


def _check_pair(a: ReducedDataset, b: ReducedDataset) -> None:
    if a.r != b.r:
        raise DataError(f"reduced dimensions differ: {a.r} vs {b.r}")


def _check_k(k: int, n_cols: int) -> None:
    if not 1 <= k <= n_cols:
        raise DataError(f"k={k} must lie in [1, {n_cols}]")


def distance_matrix(a: ReducedDataset, b: ReducedDataset) -> LinkageMatrix:
    """Exact all-pairs Euclidean distances between two reduced datasets."""
    _check_pair(a, b)
    dist = _kernels.pairwise_euclidean(a.Z, b.Z)
    return LinkageMatrix(dist=dist, row_source=a.source_id, col_source=b.source_id)


def k_nearest(m: LinkageMatrix, k: int) -> NeighborMap:
    """Per row, the k nearest columns ascending; ties go to the lower index."""
    _check_k(k, m.dist.shape[1])
    idx, val = _kernels.k_smallest(m.dist, k)
    return NeighborMap(k=k, neighbors=idx, distances=val)


def nearest_neighbors(query: ReducedDataset, ref: ReducedDataset, k: int) -> NeighborMap:
    """`k_nearest(distance_matrix(query, ref), k)` without the matrix: the
    exact search streams over blocks of query rows."""
    _check_pair(query, ref)
    _check_k(k, ref.Z.shape[0])
    idx, val = _kernels.nearest(query.Z, ref.Z, k)
    return NeighborMap(k=k, neighbors=idx, distances=val)


def median_aggregate(neighbors: NeighborMap, source_features: np.ndarray) -> np.ndarray:
    """Feature-wise median over each row's neighbors in the source dataset.

    Even k uses the midpoint of the two middle values. Source labels are
    never part of the aggregated features.
    """
    source_features = np.asarray(source_features, dtype=np.float64)
    if neighbors.neighbors.max() >= source_features.shape[0]:
        raise DataError("neighbor index exceeds the source dataset")
    return _kernels.median_over_rows(source_features, neighbors.neighbors)


def _concat_linked(
    base_std: np.ndarray,
    base: Dataset,
    agg: np.ndarray,
    other: Dataset,
) -> LinkedDataset:
    X = np.hstack([base_std, agg])
    prov = tuple(
        [ColumnProvenance("own", base.id, name) for name in base.feature_names]
        + [ColumnProvenance("aggregated", other.id, name) for name in other.feature_names]
    )
    return LinkedDataset(X=X, y=base.y.copy(), provenance=prov, base_id=base.id, other_id=other.id)


def effective_r(requested: int, *limits: int) -> int:
    r = min(requested, *limits)
    if r < 1:
        raise DataError(f"no valid reduced dimension (requested {requested}, limits {limits})")
    return r


@dataclass(frozen=True)
class LinkResult:
    d12: LinkedDataset
    d21: LinkedDataset
    reducer_kind: str
    r: int
    neighbors_12: NeighborMap
    neighbors_21: NeighborMap
    reducer_payload: dict


def _reduce_pair(
    d1s: Dataset,
    d2s: Dataset,
    reducer_kind: str,
    r: int,
    ae_hyper: AutoencoderHyper | None,
    seed: int,
) -> tuple[ReducedDataset, ReducedDataset, int, dict]:
    from .reducers import autoencoder_to_payload, pair_to_payload, pca_to_payload

    if reducer_kind == "feature_importance":
        rep1, rep2 = compute_t_scores(d1s), compute_t_scores(d2s)
        pair = feature_importance_pair(rep1, rep2)
        z1 = ReducedDataset(d1s.X[:, pair.sel1], d1s.id, reducer_kind)
        z2 = ReducedDataset(d2s.X[:, pair.sel2], d2s.id, reducer_kind)
        return z1, z2, pair.r, pair_to_payload(pair, rep1.t, rep2.t)
    if reducer_kind == "pca":
        r_eff = effective_r(r, d1s.n, d1s.k, d2s.n, d2s.k)
        red1 = fit_pca(d1s.X, r_eff)
        red2 = fit_pca(d2s.X, r_eff)
        z1 = project_pca(red1, d1s.X, d1s.id)
        z2 = project_pca(red2, d2s.X, d2s.id)
        return z1, z2, r_eff, {"d1": pca_to_payload(red1), "d2": pca_to_payload(red2)}
    if reducer_kind == "autoencoder":
        r_eff = effective_r(r, d1s.k, d2s.k)
        hyper = ae_hyper or AutoencoderHyper()
        h1 = AutoencoderHyper(hyper.hidden_dims, hyper.epochs, hyper.batch_size, hyper.learning_rate, seed)
        h2 = AutoencoderHyper(hyper.hidden_dims, hyper.epochs, hyper.batch_size, hyper.learning_rate, seed + 1)
        red1 = fit_autoencoder(d1s.X, r_eff, h1)
        red2 = fit_autoencoder(d2s.X, r_eff, h2)
        z1 = ReducedDataset(encode(red1, d1s.X), d1s.id, reducer_kind)
        z2 = ReducedDataset(encode(red2, d2s.X), d2s.id, reducer_kind)
        payload = {"d1": autoencoder_to_payload(red1), "d2": autoencoder_to_payload(red2)}
        return z1, z2, r_eff, payload
    raise DataError(f"unknown reducer kind {reducer_kind!r}")


def link_detailed(
    d1: Dataset,
    d2: Dataset,
    reducer_kind: str,
    *,
    k: int = DEFAULT_K,
    r: int = DEFAULT_R,
    ae_hyper: AutoencoderHyper | None = None,
    seed: int = 0,
) -> LinkResult:
    """Full pipeline: standardize, reduce, normalize, exact neighbors both
    ways, median aggregation, concatenation."""
    d1s, _ = standardize(d1)
    d2s, _ = standardize(d2)
    z1, z2, r_eff, payload = _reduce_pair(d1s, d2s, reducer_kind, r, ae_hyper, seed)
    z1n, z2n = normalize_latent(z1), normalize_latent(z2)
    nb12 = nearest_neighbors(z1n, z2n, k)
    nb21 = nearest_neighbors(z2n, z1n, k)
    agg12 = median_aggregate(nb12, d2s.X)
    agg21 = median_aggregate(nb21, d1s.X)
    d12 = _concat_linked(d1s.X, d1, agg12, d2)
    d21 = _concat_linked(d2s.X, d2, agg21, d1)
    return LinkResult(
        d12=d12,
        d21=d21,
        reducer_kind=reducer_kind,
        r=r_eff,
        neighbors_12=nb12,
        neighbors_21=nb21,
        reducer_payload={"kind": reducer_kind, "R": r_eff, **payload},
    )


def link(
    d1: Dataset,
    d2: Dataset,
    reducer_kind: str,
    *,
    k: int = DEFAULT_K,
    r: int = DEFAULT_R,
    ae_hyper: AutoencoderHyper | None = None,
    seed: int = 0,
) -> tuple[LinkedDataset, LinkedDataset]:
    res = link_detailed(d1, d2, reducer_kind, k=k, r=r, ae_hyper=ae_hyper, seed=seed)
    return res.d12, res.d21


def random_neighbor_map(n_rows: int, n_cols: int, k: int, rng: np.random.Generator) -> NeighborMap:
    if k > n_cols:
        raise DataError(f"k={k} exceeds the {n_cols} available samples")
    idx = np.empty((n_rows, k), dtype=np.int64)
    for i in range(n_rows):
        idx[i] = rng.choice(n_cols, size=k, replace=False)
    return NeighborMap(k=k, neighbors=idx, distances=np.full((n_rows, k), np.nan))


def random_link_detailed(
    d1: Dataset, d2: Dataset, k: int = DEFAULT_K, seed: int = 0
) -> tuple[LinkedDataset, LinkedDataset, NeighborMap, NeighborMap]:
    if k > d2.n or k > d1.n:
        raise DataError(f"k={k} exceeds a dataset size ({d1.n}, {d2.n})")
    d1s, _ = standardize(d1)
    d2s, _ = standardize(d2)
    rng = np.random.default_rng(seed)
    nb12 = random_neighbor_map(d1.n, d2.n, k, rng)
    nb21 = random_neighbor_map(d2.n, d1.n, k, rng)
    d12 = _concat_linked(d1s.X, d1, median_aggregate(nb12, d2s.X), d2)
    d21 = _concat_linked(d2s.X, d2, median_aggregate(nb21, d1s.X), d1)
    return d12, d21, nb12, nb21


def random_link(
    d1: Dataset, d2: Dataset, k: int = DEFAULT_K, seed: int = 0
) -> tuple[LinkedDataset, LinkedDataset]:
    """Baseline: aggregate k uniformly drawn rows instead of nearest neighbors."""
    d12, d21, _, _ = random_link_detailed(d1, d2, k, seed)
    return d12, d21


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def linked_to_csv(d: LinkedDataset, path: str | Path) -> None:
    """Header tags each column `own.<feature>` or `agg.<source_id>.<feature>`."""
    header = [
        f"own.{p.feature}" if p.tag == "own" else f"agg.{p.source_id}.{p.feature}"
        for p in d.provenance
    ] + [LABEL_COLUMN]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(d.X.shape[0]):
            writer.writerow([repr(float(v)) for v in d.X[i]] + [int(d.y[i])])


def neighbors_to_csv(nb: NeighborMap, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row_index", "rank", "col_index", "distance"])
        for i in range(nb.neighbors.shape[0]):
            for rank in range(nb.k):
                writer.writerow([i, rank, int(nb.neighbors[i, rank]), repr(float(nb.distances[i, rank]))])
