import hashlib
import warnings

import numpy as np
import pytest

from disjoint_link.autoencoder import (
    AutoencoderHyper,
    TrainingDiverged,
    _layer_dims,
    _layer_views,
    _run,
    _step_buffers,
    _step_calls,
    _tanh_flags,
    encode,
    fit_autoencoder,
    init_layers,
    loss_and_grads,
)
from disjoint_link.data import DataError
from disjoint_link.reducers import autoencoder_to_payload
from oracles import encode_reference, fit_autoencoder_reference, reconstruction_mse


def finite_difference_grads(layers, tanh_flags, X, eps=1e-5):
    grads = []
    for li, (w, b) in enumerate(layers):
        gw = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + eps
            hi = loss_and_grads(layers, tanh_flags, X)[0]
            w[idx] = orig - eps
            lo = loss_and_grads(layers, tanh_flags, X)[0]
            w[idx] = orig
            gw[idx] = (hi - lo) / (2 * eps)
        gb = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + eps
            hi = loss_and_grads(layers, tanh_flags, X)[0]
            b[idx] = orig - eps
            lo = loss_and_grads(layers, tanh_flags, X)[0]
            b[idx] = orig
            gb[idx] = (hi - lo) / (2 * eps)
        grads.append((gw, gb))
    return grads


def relative_error(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 4))
        dims = _layer_dims(4, 2, (3,))
        flags = _tanh_flags(len(dims) - 1, 2)
        layers = init_layers(dims, rng)
        for layer in layers:  # non-zero biases exercise every parameter
            layer[1][:] = rng.normal(scale=0.1, size=layer[1].shape)
        _, analytic = loss_and_grads(layers, flags, X)
        numeric = finite_difference_grads(layers, flags, X)
        for (gw, gb), (nw, nb) in zip(analytic, numeric):
            assert relative_error(gw, nw) < 1e-4
            assert relative_error(gb, nb) < 1e-4

    def test_linear_autoencoder_gradients(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 3))
        dims = _layer_dims(3, 2, ())
        flags = _tanh_flags(len(dims) - 1, 1)
        layers = init_layers(dims, rng)
        _, analytic = loss_and_grads(layers, flags, X)
        numeric = finite_difference_grads(layers, flags, X)
        for (gw, gb), (nw, nb) in zip(analytic, numeric):
            assert relative_error(gw, nw) < 1e-4
            assert relative_error(gb, nb) < 1e-4

    def test_backward_into_flat_buffers_equals_loss_and_grads(self):
        # the training step's calls write every parameter's gradient into
        # flat views, bit for bit what loss_and_grads returns
        rng = np.random.default_rng(14)
        X = rng.normal(size=(9, 5))
        dims = _layer_dims(5, 2, (4, 3))
        flags = _tanh_flags(len(dims) - 1, 3)
        layers = init_layers(dims, rng)
        for layer in layers:
            layer[1][:] = rng.normal(scale=0.1, size=layer[1].shape)
        _, want = loss_and_grads(layers, flags, X)

        flat = np.full(sum(din * dout + dout for din, dout in zip(dims[:-1], dims[1:])), np.nan)
        grads = _layer_views(flat, dims)
        _run(_step_calls(layers, flags, grads, X, _step_buffers(len(X), dims)))
        assert not np.isnan(flat).any()  # every parameter's gradient was written
        for (gw, gb), (ww, wb) in zip(grads, want):
            assert gw.tobytes() == ww.tobytes() and gb.tobytes() == wb.tobytes()


def fit_bytes(layers, log) -> bytes:
    return b"".join(w.tobytes() + b.tobytes() for w, b in layers) + np.asarray(log).tobytes()


class TestTrainingMatchesReference:
    """`fit_autoencoder` is bit for bit the plain per-layer training loop."""

    @pytest.mark.parametrize(
        "hidden, n, k, r, batch_size",
        [
            ((), 23, 4, 2, 5),
            ((5,), 23, 4, 2, 1),
            ((16, 8), 23, 4, 2, 7),  # 7 does not divide 23: a short last batch
            ((32,), 23, 4, 2, 64),  # one batch of all rows
            ((5,), 23, 4, 4, 6),  # R == K
            ((16, 8), 20, 3, 1, 32),
            ((32,), 3000, 10, 6, 32),  # the acceptance D2 shape: a 24-row last batch
            ((5,), 33, 4, 2, 32),  # a one-row last batch
        ],
        ids=["linear", "batch-1", "ragged-batch", "batch-over-n", "r-equals-k", "r-1",
             "acceptance-d2", "one-row-last-batch"],
    )
    def test_equals_reference_bit_for_bit(self, hidden, n, k, r, batch_size):
        X = np.random.default_rng(n + k).normal(size=(n, k))
        hyper = AutoencoderHyper(hidden_dims=hidden, epochs=4, batch_size=batch_size,
                                 learning_rate=0.02, seed=batch_size)
        red = fit_autoencoder(X, r, hyper)
        ref_layers, ref_log = fit_autoencoder_reference(X, r, hyper)
        assert [w.shape for w, _ in red.all_layers] == [w.shape for w, _ in ref_layers]
        assert fit_bytes(red.all_layers, red.training_log) == fit_bytes(ref_layers, ref_log)

    def test_pinned_digest(self):
        # SHA-256 of one fit's weights and log, computed before the training
        # loop took its flat-vector form; it catches a change made to both
        # the loop and the reference
        X = np.random.default_rng(20).normal(size=(23, 4))
        hyper = AutoencoderHyper(hidden_dims=(3,), epochs=6, batch_size=5,
                                 learning_rate=0.05, seed=9)
        want = "6cbc3627c021f28155ddc406e1fae72fc3985a4e15d506ab168fe0d4b4bc9b1f"
        red = fit_autoencoder(X, 2, hyper)
        assert hashlib.sha256(fit_bytes(red.all_layers, red.training_log)).hexdigest() == want
        assert hashlib.sha256(fit_bytes(*fit_autoencoder_reference(X, 2, hyper))).hexdigest() == want


class TestTraining:
    def test_linear_ae_reaches_subspace_optimum(self):
        # data exactly in a 2-dim linear subspace: reconstruction can be exact
        rng = np.random.default_rng(2)
        basis = rng.normal(size=(2, 5))
        X = rng.normal(size=(60, 2)) @ basis
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        hyper = AutoencoderHyper(hidden_dims=(), epochs=600, batch_size=16,
                                 learning_rate=0.02, seed=0)
        red = fit_autoencoder(X, 2, hyper)
        assert red.training_log[-1] < 1e-3

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 4))
        a = fit_autoencoder(X, 2, AutoencoderHyper(epochs=5, seed=7))
        b = fit_autoencoder(X, 2, AutoencoderHyper(epochs=5, seed=7))
        for (wa, ba), (wb, bb) in zip(a.all_layers, b.all_layers):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)

    def test_training_log_improves(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 5))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        red = fit_autoencoder(X, 3, AutoencoderHyper(epochs=50, seed=0))
        assert len(red.training_log) == 50
        assert red.training_log[-1] <= red.training_log[0]

    def test_divergence_reports_epoch(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3))
        # the overflow is reported once, as TrainingDiverged, not as warnings
        with warnings.catch_warnings(), pytest.raises(TrainingDiverged, match="epoch"):
            warnings.simplefilter("error")
            fit_autoencoder(
                X, 2,
                AutoencoderHyper(hidden_dims=(), epochs=50, learning_rate=50.0, seed=0),
            )

    def test_architecture_dims(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(10, 7))
        red = fit_autoencoder(X, 3, AutoencoderHyper(hidden_dims=(5,), epochs=1, seed=0))
        shapes = [w.shape for w, _ in red.all_layers]
        assert shapes == [(7, 5), (5, 3), (3, 5), (5, 7)]

    def test_non_finite_input_rejected(self):
        X = np.zeros((5, 2))
        X[0, 0] = np.nan
        with pytest.raises(DataError):
            fit_autoencoder(X, 1)


class TestEncode:
    def test_zero_weights_give_zeros(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(8, 3))
        red = fit_autoencoder(X, 2, AutoencoderHyper(epochs=1, seed=0))
        zeroed = type(red)(
            encoder_layers=tuple((np.zeros_like(w), np.zeros_like(b)) for w, b in red.encoder_layers),
            decoder_layers=red.decoder_layers,
        )
        np.testing.assert_array_equal(encode(zeroed, X), np.zeros((8, 2)))

    def test_identity_block_extracts_first_columns(self):
        from disjoint_link.autoencoder import AutoencoderReducer

        w = np.zeros((4, 2))
        w[0, 0] = 1.0
        w[1, 1] = 1.0
        red = AutoencoderReducer(
            encoder_layers=((w, np.zeros(2)),),
            decoder_layers=((np.zeros((2, 4)), np.zeros(4)),),
        )
        rng = np.random.default_rng(8)
        X = rng.normal(size=(5, 4))
        np.testing.assert_allclose(encode(red, X), X[:, :2], atol=1e-15)

    def test_shape_contract(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(12, 6))
        red = fit_autoencoder(X, 3, AutoencoderHyper(epochs=2, seed=1))
        assert encode(red, X).shape == (12, 3)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(10)
        red = fit_autoencoder(rng.normal(size=(6, 3)), 2, AutoencoderHyper(epochs=1, seed=0))
        with pytest.raises(DataError):
            encode(red, np.zeros((2, 5)))

    def test_reconstruct_matches_forward(self):
        # with two hidden layers the encoder has two tanh layers before its
        # identity latent, so a wrong tanh flag in encode shows
        rng = np.random.default_rng(11)
        X = rng.normal(size=(9, 4))
        for hidden in ((32,), (4, 3)):
            red = fit_autoencoder(X, 2, AutoencoderHyper(hidden_dims=hidden, epochs=3, seed=2))
            got, want = encode(red, X), encode_reference(red, X)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
            layers = red.all_layers
            flags = _tanh_flags(len(layers), len(red.encoder_layers))
            # the epoch-end loss, run from the same forward calls on n-row
            # buffers, is the allocating forward pass's MSE bit for bit
            assert red.training_log[-1] == reconstruction_mse(layers, flags, X)


def assert_payload_holds(doc, red):
    """The payload's arrays equal the fitted reducer's bit for bit."""
    layers = doc["encoder"] + doc["decoder"]
    assert len(layers) == len(red.all_layers)
    for entry, (w, b) in zip(layers, red.all_layers):
        assert np.array_equal(entry["w"], w) and np.array_equal(entry["b"], b)
    assert tuple(doc["training_log"]) == red.training_log
    assert (doc["latent_dim"], doc["activation"]) == (red.latent_dim, "tanh")


class TestSerialization:
    def test_payload_round_trip_bit_exact(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(15, 4))
        red = fit_autoencoder(X, 2, AutoencoderHyper(epochs=4, seed=3))
        assert_payload_holds(autoencoder_to_payload(red), red)

    def test_round_trip_through_json_text_bit_exact(self):
        import json

        rng = np.random.default_rng(13)
        X = rng.normal(size=(10, 3))
        red = fit_autoencoder(X, 2, AutoencoderHyper(epochs=3, seed=5))
        assert_payload_holds(json.loads(json.dumps(autoencoder_to_payload(red))), red)
