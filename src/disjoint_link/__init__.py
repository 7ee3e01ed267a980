"""Data-level linkage of disjoint tabular datasets sharing a binary outcome.

Two datasets with no common samples or features are each reduced to a common
R-dimensional space, every cross-dataset sample pair gets an exact Euclidean
distance, and each sample is extended with the median of its k nearest
neighbors' features from the other dataset. `evaluation` quantifies the
resulting AUROC lift against unlinked and randomly linked baselines.
"""

from ._kernels import DEFAULT_BACKEND
from .autoencoder import AutoencoderHyper, AutoencoderReducer, encode, fit_autoencoder
from .data import (
    Dataset,
    DataError,
    FeatureSchema,
    StandardizationParams,
    load_csv,
    standardize,
    stratified_kfold,
)
from .evaluation import (
    EvaluationReport,
    LogisticHyper,
    LogisticModel,
    auroc,
    evaluate_conditions,
    fit_logistic,
    predict_proba,
)
from .figures import export_projection_2d
from .linkage import NeighborMap, link_rows, median_aggregate
from .reducers import (
    FeatureImportancePair,
    PcaReducer,
    TScoreReport,
    compute_t_scores,
    fit_pca,
    normalize_latent,
    project_pca,
)
from .synth import SyntheticPairConfig, synthesize_disjoint_pair

__version__ = "0.1.0"

__all__ = [
    "AutoencoderHyper",
    "AutoencoderReducer",
    "DEFAULT_BACKEND",
    "DataError",
    "Dataset",
    "EvaluationReport",
    "FeatureImportancePair",
    "FeatureSchema",
    "LogisticHyper",
    "LogisticModel",
    "NeighborMap",
    "PcaReducer",
    "StandardizationParams",
    "SyntheticPairConfig",
    "TScoreReport",
    "auroc",
    "compute_t_scores",
    "encode",
    "evaluate_conditions",
    "export_projection_2d",
    "fit_autoencoder",
    "fit_logistic",
    "fit_pca",
    "link_rows",
    "load_csv",
    "median_aggregate",
    "normalize_latent",
    "predict_proba",
    "project_pca",
    "standardize",
    "stratified_kfold",
    "synthesize_disjoint_pair",
]
