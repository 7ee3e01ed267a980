"""Data-level linkage of disjoint tabular datasets sharing a binary outcome.

Two datasets with no common samples or features are each reduced to a common
R-dimensional space, every cross-dataset sample pair gets an exact Euclidean
distance, and each sample is extended with the median of its k nearest
neighbors' features from the other dataset. `evaluation` quantifies the
resulting AUROC lift against unlinked and randomly linked baselines.

Importing the package sets the BLAS to one thread per process, unless the
environment already names a thread count: the fork pool runs one worker per
core, and a threaded BLAS in each worker would compete with the others for
the same cores. The setting takes effect only if numpy is not imported yet.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")  # before numpy, which reads them once
del _name

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
    LogisticModel,
    auroc,
    evaluate_conditions,
    fit_logistic,
    predict_proba,
)
from .figures import export_projection_2d
from .linkage import NeighborMap
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
    "load_csv",
    "normalize_latent",
    "predict_proba",
    "project_pca",
    "standardize",
    "stratified_kfold",
    "synthesize_disjoint_pair",
]
