import hashlib
import warnings

import numpy as np
import pytest

import oracles
from disjoint_link import autoencoder
from disjoint_link.autoencoder import (
    AutoencoderHyper,
    TrainingDiverged,
    _layer_blocks,
    _layer_dims,
    _run,
    _step_buffers,
    _step_calls,
    _tanh_flags,
    _with_ones,
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
        # flat views, the bias's through the ones row, bit for bit what
        # loss_and_grads returns
        rng = np.random.default_rng(14)
        X = rng.normal(size=(9, 5))
        dims = _layer_dims(5, 2, (4, 3))
        flags = _tanh_flags(len(dims) - 1, 3)
        layers = init_layers(dims, rng)
        for layer in layers:
            layer[1][:] = rng.normal(scale=0.1, size=layer[1].shape)
        _, want = loss_and_grads(layers, flags, X)

        theta = np.concatenate([a.ravel() for layer in layers for a in layer])
        flat = np.full(theta.size, np.nan)
        grads = _layer_blocks(flat, dims)
        _run(_step_calls(_layer_blocks(theta, dims), flags, grads, _with_ones(X).T, np.empty((5, 9)),
                         _step_buffers(len(X), dims[1:])))
        assert not np.isnan(flat).any()  # every parameter's gradient was written
        for g, (ww, wb) in zip(grads, want):
            assert g[:-1].tobytes() == ww.tobytes() and g[-1].tobytes() == wb.tobytes()

    @pytest.mark.parametrize(
        "hidden, n, k, r",
        [((), 9, 4, 2), ((5,), 9, 4, 2), ((16, 8), 9, 4, 2), ((5,), 1, 4, 2), ((5,), 9, 4, 4),
         ((32,), 40, 10, 6)],
        ids=["linear", "one-hidden", "two-hidden", "one-row", "r-equals-k", "acceptance-width"],
    )
    def test_folded_matches_the_unfolded_form(self, hidden, n, k, r):
        # one product per layer with the bias folded in, on feature-major
        # activations, against a @ W + b and delta.sum(axis=0) on row-major
        # ones; 40 rows contract the weight gradients over more than 32
        rng = np.random.default_rng(n + len(hidden))
        X = rng.normal(size=(n, k))
        dims = _layer_dims(k, r, hidden)
        flags = _tanh_flags(len(dims) - 1, len(hidden) + 1)
        layers = init_layers(dims, rng)
        for layer in layers:
            layer[1][:] = rng.normal(scale=0.1, size=layer[1].shape)
        loss, grads = loss_and_grads(layers, flags, X)
        want_loss, want = oracles.loss_and_grads(layers, flags, X)
        assert abs(loss - want_loss) <= 1e-12 * want_loss
        for (gw, gb), (ww, wb) in zip(grads, want):
            assert relative_error(gw, ww) < 1e-12
            assert relative_error(gb, wb) < 1e-12


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
        # SHA-256 of one fit's weights and log, computed when each layer
        # became one product with its bias folded in and the log took its
        # loss from the batches; it catches a change made to both the loop
        # and the reference
        X = np.random.default_rng(20).normal(size=(23, 4))
        hyper = AutoencoderHyper(hidden_dims=(3,), epochs=6, batch_size=5,
                                 learning_rate=0.05, seed=9)
        want = "78b3397d7b01549570ce6136b7e8338f1efc3dfc29879724de853ce6723cb268"
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

    def test_divergence_in_the_last_update_is_reported(self):
        # one epoch of one batch: its loss is taken before its only update,
        # which overflows, so only the pass after the last epoch sees it
        X = np.random.default_rng(5).normal(size=(20, 3))
        hyper = AutoencoderHyper(hidden_dims=(), epochs=1, batch_size=32, learning_rate=1e300, seed=0)
        with warnings.catch_warnings(), pytest.raises(
                TrainingDiverged, match="^non-finite reconstruction loss at epoch 0; lower the learning rate$"):
            warnings.simplefilter("error")
            fit_autoencoder(X, 2, hyper)

    def test_a_step_is_21_calls_and_4_momentum_calls(self, monkeypatch):
        # hidden (32,): 6 forward, 2 for the residual and output delta, 13
        # backward, then the momentum update; the gain over the 29 + 4 calls
        # of a step with separate bias calls, guarded without a timer
        lengths = []
        real_run = autoencoder._run
        monkeypatch.setattr(autoencoder, "_run", lambda calls: (lengths.append(len(calls)), real_run(calls)))
        X = np.random.default_rng(15).normal(size=(64, 10))
        fit_autoencoder(X, 6, AutoencoderHyper(hidden_dims=(32,), epochs=1, batch_size=32, seed=0))
        assert lengths[0] == 2 * (21 + 4)

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

    def test_reconstruct_matches_forward(self, monkeypatch):
        # with two hidden layers the encoder has two tanh layers before its
        # identity latent, so a wrong tanh flag in encode shows
        rng = np.random.default_rng(11)
        X = rng.normal(size=(9, 4))
        errors = []
        real_error = autoencoder._reconstruction_error
        monkeypatch.setattr(autoencoder, "_reconstruction_error",
                            lambda *args: errors.append(real_error(*args)) or errors[-1])
        for hidden in ((32,), (4, 3)):
            errors.clear()
            red = fit_autoencoder(X, 2, AutoencoderHyper(hidden_dims=hidden, epochs=3, seed=2))
            got, want = encode(red, X), encode_reference(red, X)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
            assert got.flags.c_contiguous
            layers = red.all_layers
            flags = _tanh_flags(len(layers), len(red.encoder_layers))
            # the check after the last epoch, run from the same forward calls
            # on n-row buffers, is the allocating forward pass's MSE bit for bit
            assert errors == [reconstruction_mse(layers, flags, X)]


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
