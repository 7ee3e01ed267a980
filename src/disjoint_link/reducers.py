"""Dimension reduction to a common R-dimensional space.

Three interchangeable techniques: outcome-driven feature selection by Welch
t-score sign and rank, principal component projection, and a dense
autoencoder latent space (see `autoencoder`). Each reduces one dataset to R
dimensions; a pair of reduced datasets with equal R feeds the linkage step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autoencoder import AutoencoderReducer
from .data import (
    Dataset,
    DataError,
    apply_standardization,
    fit_standardization,
)

T_CAP = 1e6  # stands in for an infinite t on zero-variance, unequal-mean features


@dataclass(frozen=True)
class TScoreReport:
    """Welch t-statistics per feature, with indices split by sign and sorted
    by strength (descending, ties to the lower feature index)."""

    t: np.ndarray
    positive_idx: np.ndarray
    negative_idx: np.ndarray


@dataclass(frozen=True)
class FeatureImportancePair:
    p_min: int
    n_min: int
    sel1: np.ndarray
    sel2: np.ndarray

    @property
    def r(self) -> int:
        return self.p_min + self.n_min


@dataclass(frozen=True)
class PcaReducer:
    mean: np.ndarray
    components: np.ndarray  # (R, K), orthonormal rows, eigenvalue-descending
    eigenvalues: np.ndarray


def compute_t_scores(d: Dataset) -> TScoreReport:
    """Per-feature two-sample Welch t-statistic of class 1 against class 0.

    Zero-variance features get t=0 when the class means agree and a capped
    +/-1e6 otherwise, keeping the sort order total.
    """
    d.require_both_classes()
    x0 = d.X[d.y == 0]
    x1 = d.X[d.y == 1]
    if x0.shape[0] < 2 or x1.shape[0] < 2:
        raise DataError("each class needs at least 2 samples for t-scores")
    m0, m1 = x0.mean(axis=0), x1.mean(axis=0)
    v0 = x0.var(axis=0, ddof=1)
    v1 = x1.var(axis=0, ddof=1)
    denom = np.sqrt(v1 / x1.shape[0] + v0 / x0.shape[0])
    diff = m1 - m0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = diff / denom
    degenerate = denom == 0.0
    t[degenerate & (diff == 0.0)] = 0.0
    t[degenerate & (diff > 0.0)] = T_CAP
    t[degenerate & (diff < 0.0)] = -T_CAP
    pos = np.flatnonzero(t > 0)
    neg = np.flatnonzero(t < 0)
    pos = pos[np.argsort(-t[pos], kind="stable")]
    neg = neg[np.argsort(-np.abs(t[neg]), kind="stable")]
    return TScoreReport(t=t, positive_idx=pos, negative_idx=neg)


def feature_importance_pair(r1: TScoreReport, r2: TScoreReport) -> FeatureImportancePair:
    """Align two t-score reports positionally: i-th strongest positive with
    i-th strongest positive, then negatives."""
    p_min = min(len(r1.positive_idx), len(r2.positive_idx))
    n_min = min(len(r1.negative_idx), len(r2.negative_idx))
    if p_min + n_min == 0:
        raise DataError("no informative features in common polarity")
    sel1 = np.concatenate([r1.positive_idx[:p_min], r1.negative_idx[:n_min]])
    sel2 = np.concatenate([r2.positive_idx[:p_min], r2.negative_idx[:n_min]])
    return FeatureImportancePair(p_min=p_min, n_min=n_min, sel1=sel1, sel2=sel2)


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


def _apply_sign_convention(components: np.ndarray) -> np.ndarray:
    out = components.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


def fit_pca(X: np.ndarray, r: int) -> PcaReducer:
    """Top-r eigenvectors of the (population) covariance of column-centered X."""
    X = np.asarray(X, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise DataError("PCA input contains non-finite values")
    n, k = X.shape
    if not 1 <= r <= min(n, k):
        raise DataError(f"R={r} out of range for a {n}x{k} matrix")
    mean = X.mean(axis=0)
    xc = X - mean
    cov = xc.T @ xc / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, kind="stable")[::-1][:r]
    values = np.maximum(eigvals[order], 0.0)
    components = _apply_sign_convention(eigvecs[:, order].T)
    return PcaReducer(mean=mean, components=components, eigenvalues=values)


def project_pca(reducer: PcaReducer, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != reducer.mean.shape[0]:
        raise DataError(
            f"PCA expects {reducer.mean.shape[0]} columns, got {X.shape[1]}"
        )
    Z = (X - reducer.mean) @ reducer.components.T
    if not np.all(np.isfinite(Z)):
        raise DataError("reduced representation contains non-finite entries")
    return Z


# ---------------------------------------------------------------------------
# latent normalization
# ---------------------------------------------------------------------------


def normalize_latent(z: np.ndarray, *others: np.ndarray) -> list[np.ndarray]:
    """Z-score each latent dimension of `z` by its own mean and spread, and
    `others` by the same statistics; constant dims go to 0.

    Two independently fitted reducers put arbitrary scales on their latent
    axes, so distances across datasets are only meaningful afterwards. In
    cross-validation `z` holds a fold's training rows and `others` its test
    rows, which pass through the statistics fitted on training rows only.
    """
    if z.shape[0] < 2:
        raise DataError("latent normalization needs at least 2 rows")
    params = fit_standardization(z)
    return [apply_standardization(params, a) for a in (z, *others)]


# ---------------------------------------------------------------------------
# serialization (17-significant-digit JSON payloads, bit-exact round trips)
# ---------------------------------------------------------------------------


def _floats(a: np.ndarray) -> list:
    return np.asarray(a, dtype=np.float64).tolist()


def pca_to_payload(r: PcaReducer) -> dict:
    return {
        "mean": _floats(r.mean),
        "components": _floats(r.components),
        "eigenvalues": _floats(r.eigenvalues),
    }


def autoencoder_to_payload(r: AutoencoderReducer) -> dict:
    def layers(ls):
        return [{"w": _floats(w), "b": _floats(b)} for w, b in ls]

    return {
        "latent_dim": r.latent_dim,
        "activation": "tanh",  # the only one `autoencoder._tanh_flags` applies
        "encoder": layers(r.encoder_layers),
        "decoder": layers(r.decoder_layers),
        "training_log": _floats(np.array(r.training_log)),
    }


def pair_to_payload(pair: FeatureImportancePair, t1: np.ndarray, t2: np.ndarray) -> dict:
    return {
        "p_min": pair.p_min,
        "n_min": pair.n_min,
        "sel1": [int(i) for i in pair.sel1],
        "sel2": [int(i) for i in pair.sel2],
        "t1": _floats(t1),
        "t2": _floats(t2),
    }


__all__ = [
    "FeatureImportancePair",
    "PcaReducer",
    "TScoreReport",
    "compute_t_scores",
    "feature_importance_pair",
    "fit_pca",
    "normalize_latent",
    "project_pca",
]
