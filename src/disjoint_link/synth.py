"""Synthetic stand-in for a pair of disjoint surveys.

Both datasets are driven by one latent population model: each sample draws
its own latent vector z, features are a dataset-specific random linear map of z
plus Gaussian noise, and the binary outcome is Bernoulli in a logistic score
of z shared by both datasets. The pair shares no samples and no feature
columns, only the latent structure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._kernels import sigmoid
from .data import Dataset, DataError, FeatureSchema

# Fixed generator geometry. The outcome signal strength is the L2 norm of the
# latent weight vector; per-feature loading scales differ between the two
# datasets to mirror the intended use case: the first dataset is the small
# survey whose features express the latent factors weakly relative to its
# noise, the second is the larger reference survey with strong expression.
SIGNAL_NORM = 4.0
D1_LOADING_SCALE = 0.5
D2_LOADING_SCALE = 2.0


@dataclass(frozen=True)
class SyntheticPairConfig:
    latent_dim: int
    n1: int
    n2: int
    k1: int
    k2: int
    noise_sigma: float
    positive_rate: float
    seed: int

    def __post_init__(self):
        if self.latent_dim < 1:
            raise DataError("latent_dim must be >= 1")
        if self.latent_dim > min(self.k1, self.k2):
            raise DataError("latent_dim must be <= min(k1, k2)")
        if self.n1 < 2 or self.n2 < 2:
            raise DataError("n1 and n2 must be >= 2")
        if self.noise_sigma < 0:
            raise DataError("noise_sigma must be >= 0")
        if not 0.0 < self.positive_rate < 1.0:
            raise DataError("positive_rate must lie in (0, 1)")
        if not 0 <= self.seed < 2**64:
            raise DataError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class SynthDetails:
    """Generator internals, exposed for sanity checks and audits."""

    w: np.ndarray
    bias: float
    a1: np.ndarray
    a2: np.ndarray
    z1: np.ndarray
    z2: np.ndarray


@functools.cache
def _hermite_nodes() -> tuple[np.ndarray, np.ndarray]:
    """128-point Gauss-Hermite (probabilists') nodes and weights, read-only."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(128)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def expected_positive_rate(bias: float, score_std: float) -> float:
    """E[sigmoid(bias + s)] for s ~ N(0, score_std^2), by Gauss-Hermite quadrature."""
    nodes, weights = _hermite_nodes()
    vals = sigmoid(bias + score_std * nodes)
    return float(weights @ vals / np.sqrt(2.0 * np.pi))


def calibrate_bias(score_std: float, positive_rate: float) -> float:
    """Bisect the intercept so the expected positive rate hits the target."""
    lo, hi = -80.0, 80.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if expected_positive_rate(mid, score_std) < positive_rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _numeric_schema(prefix: str, count: int) -> tuple[FeatureSchema, ...]:
    return tuple(FeatureSchema(f"{prefix}{j}", "numeric") for j in range(count))


def synthesize_disjoint_pair_detailed(
    cfg: SyntheticPairConfig,
) -> tuple[Dataset, Dataset, SynthDetails]:
    rng = np.random.default_rng(cfg.seed)
    d = cfg.latent_dim

    w = rng.normal(size=d)
    w *= SIGNAL_NORM / np.linalg.norm(w)
    a1 = rng.normal(scale=D1_LOADING_SCALE / np.sqrt(d), size=(cfg.k1, d))
    a2 = rng.normal(scale=D2_LOADING_SCALE / np.sqrt(d), size=(cfg.k2, d))
    bias = calibrate_bias(SIGNAL_NORM, cfg.positive_rate)

    def draw(n, k, a, prefix, ds_id):
        z = rng.normal(size=(n, d))
        x = z @ a.T
        if cfg.noise_sigma > 0:
            x = x + cfg.noise_sigma * rng.normal(size=(n, k))
        p = sigmoid(bias + z @ w)
        y = (rng.uniform(size=n) < p).astype(np.int64)
        ds = Dataset(_numeric_schema(prefix, k), x, y, id=ds_id)
        return ds, z

    d1, z1 = draw(cfg.n1, cfg.k1, a1, "f1_", f"synth1-seed{cfg.seed}")
    d2, z2 = draw(cfg.n2, cfg.k2, a2, "f2_", f"synth2-seed{cfg.seed}")
    return d1, d2, SynthDetails(w=w, bias=bias, a1=a1, a2=a2, z1=z1, z2=z2)


def synthesize_disjoint_pair(cfg: SyntheticPairConfig) -> tuple[Dataset, Dataset]:
    """Draw a disjoint dataset pair over a shared latent space."""
    d1, d2, _ = synthesize_disjoint_pair_detailed(cfg)
    return d1, d2
