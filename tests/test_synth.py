import numpy as np
import pytest

from disjoint_link.data import DataError, standardize
from disjoint_link.evaluation import auroc, fit_logistic, predict_proba
from disjoint_link.synth import (
    SIGNAL_NORM,
    SyntheticPairConfig,
    calibrate_bias,
    expected_positive_rate,
    synthesize_disjoint_pair,
    synthesize_disjoint_pair_detailed,
)


def cfg(**overrides):
    base = dict(latent_dim=3, n1=300, n2=400, k1=6, k2=10,
                noise_sigma=1.0, positive_rate=0.2, seed=0)
    base.update(overrides)
    return SyntheticPairConfig(**base)


class TestConfig:
    def test_latent_dim_bounded_by_feature_counts(self):
        with pytest.raises(DataError):
            cfg(latent_dim=7)

    def test_positive_rate_open_interval(self):
        with pytest.raises(DataError):
            cfg(positive_rate=1.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(DataError):
            cfg(noise_sigma=-0.1)


class TestCalibration:
    def test_bias_hits_requested_rate(self):
        for rate in (0.05, 0.2, 0.5, 0.9):
            b = calibrate_bias(SIGNAL_NORM, rate)
            assert expected_positive_rate(b, SIGNAL_NORM) == pytest.approx(rate, abs=1e-9)

    def test_symmetric_rate_is_zero_bias(self):
        assert calibrate_bias(SIGNAL_NORM, 0.5) == pytest.approx(0.0, abs=1e-9)

    def test_bias_pinned_bit_for_bit(self):
        # the value the generator has always used for the acceptance rate;
        # the quadrature nodes are computed once, the arithmetic is unchanged
        assert calibrate_bias(4.0, 0.05) == -7.2201680243375


class TestGenerator:
    def test_same_seed_bit_identical(self):
        a1, a2 = synthesize_disjoint_pair(cfg())
        b1, b2 = synthesize_disjoint_pair(cfg())
        assert np.array_equal(a1.X, b1.X) and np.array_equal(a1.y, b1.y)
        assert np.array_equal(a2.X, b2.X) and np.array_equal(a2.y, b2.y)

    def test_different_seeds_differ(self):
        a1, _ = synthesize_disjoint_pair(cfg(seed=0))
        b1, _ = synthesize_disjoint_pair(cfg(seed=1))
        assert not np.array_equal(a1.X, b1.X)

    def test_shapes_and_disjoint_features(self):
        d1, d2 = synthesize_disjoint_pair(cfg())
        assert d1.X.shape == (300, 6) and d2.X.shape == (400, 10)
        assert not set(d1.feature_names) & set(d2.feature_names)
        assert d1.id != d2.id

    def test_noiseless_full_latent_is_invertible_map(self):
        d1, _, det = synthesize_disjoint_pair_detailed(
            cfg(latent_dim=6, k1=6, k2=8, noise_sigma=0.0, n1=50)
        )
        assert np.linalg.matrix_rank(det.a1) == 6
        np.testing.assert_allclose(d1.X, det.z1 @ det.a1.T, atol=1e-12)

    def test_observed_rate_within_band(self):
        # binomial check: at n=2000 the sample rate has sd ~= sqrt(.05*.95/2000)
        # ~= 0.0049, so +-0.02 is a >4-sigma band per side
        for seed in (0, 1, 2, 3):
            d1, _ = synthesize_disjoint_pair(
                cfg(n1=2000, n2=100, positive_rate=0.05, seed=seed)
            )
            assert 0.03 <= d1.y.mean() <= 0.07

    def test_noiseless_signal_sanity(self):
        # latent_dim <= 3, n1 >= 1000, noise 0: in-sample logistic AUROC > 0.9
        d1, _ = synthesize_disjoint_pair(
            cfg(latent_dim=3, n1=1200, n2=50, k1=6, k2=8, noise_sigma=0.0,
                positive_rate=0.3, seed=4)
        )
        std = standardize(d1)
        model = fit_logistic(std.X, std.y)
        assert auroc(predict_proba(model, std.X), std.y) > 0.9

    def test_downstream_pipeline_finite(self):
        d1, d2 = synthesize_disjoint_pair(cfg(seed=9))
        s1 = standardize(d1)
        s2 = standardize(d2)
        assert np.isfinite(s1.X).all() and np.isfinite(s2.X).all()
