"""Dense autoencoder trained by mini-batch gradient descent with momentum.

The network is K -> hidden_dims -> R -> reversed(hidden_dims) -> K with tanh
on the hidden layers and identity on the latent and output layers. The
encoder output is the sample's reduced representation.

Every forward pass, the training step's, the epoch loss's and `encode`'s, is
the list of numpy calls `_forward_calls` builds on fixed activation buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .data import DataError

MOMENTUM = 0.9

Layers = tuple[tuple[np.ndarray, np.ndarray], ...]  # ((W, b), ...) with W (din, dout)


class TrainingDiverged(RuntimeError):
    """Non-finite loss during training; usually the learning rate is too high."""


@dataclass(frozen=True)
class AutoencoderHyper:
    hidden_dims: tuple[int, ...] = (32,)
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise DataError("epochs must be >= 1")
        if self.batch_size < 1:
            raise DataError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise DataError("learning_rate must be positive")
        if any(h < 1 for h in self.hidden_dims):
            raise DataError("hidden dims must be positive")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))


@dataclass(frozen=True)
class AutoencoderReducer:
    encoder_layers: Layers
    decoder_layers: Layers
    training_log: tuple[float, ...] = field(default=())

    @property
    def all_layers(self) -> Layers:
        return self.encoder_layers + self.decoder_layers

    @property
    def latent_dim(self) -> int:
        """R, the width of the last encoder layer."""
        return self.encoder_layers[-1][0].shape[1]


def _layer_dims(k: int, r: int, hidden: tuple[int, ...]) -> list[int]:
    return [k, *hidden, r, *reversed(hidden), k]


def _tanh_flags(n_layers: int, n_encoder: int) -> list[bool]:
    # tanh everywhere except the latent layer (last encoder layer) and the
    # output layer (last decoder layer)
    flags = [True] * n_layers
    flags[n_encoder - 1] = False
    flags[-1] = False
    return flags


def init_layers(dims: list[int], rng: np.random.Generator) -> list[list[np.ndarray]]:
    layers = []
    for din, dout in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (din + dout))
        w = rng.uniform(-bound, bound, size=(din, dout))
        b = np.zeros(dout)
        layers.append([w, b])
    return layers


def _layer_views(flat: np.ndarray, dims: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's (W, b) as reshaped views into one flat vector laid out
    W0, b0, W1, b1, ..."""
    views, start = [], 0
    for din, dout in zip(dims[:-1], dims[1:]):
        w = flat[start : start + din * dout].reshape(din, dout)
        start += din * dout
        views.append((w, flat[start : start + dout]))
        start += dout
    return views


Call = tuple[Callable[..., Any], tuple]  # a numpy function and its positional arguments


def _forward_calls(layers, tanh_flags, x: np.ndarray, acts: list[np.ndarray]) -> list[Call]:
    """The forward pass of the rows `x` as numpy calls that write each
    layer's activation into its (len(x), dout) buffer in `acts`; the last
    buffer ends up holding the output."""
    calls: list[Call] = []
    a = x
    for (w, b), is_tanh, z in zip(layers, tanh_flags, acts):
        calls += [(np.dot, (a, w, z)), (np.add, (z, b, z))]
        if is_tanh:
            calls.append((np.tanh, (z, z)))
        a = z
    return calls


def _squared_error_calls(out: np.ndarray, x: np.ndarray) -> list[Call]:
    """(out - x)^2 written over the output activation `out`; its mean is the
    reconstruction loss."""
    return [(np.subtract, (out, x, out)), (np.square, (out, out))]


def _step_buffers(m: int, dims: list[int]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each layer's (m, dout) activation and delta buffer for batches of m rows."""
    return [np.empty((m, d)) for d in dims[1:]], [np.empty((m, d)) for d in dims[1:]]


def _step_calls(layers, tanh_flags, grads, x: np.ndarray, bufs) -> list[Call]:
    """One training step on the rows `x` as numpy calls on fixed arrays, to be
    run in order: the forward pass into `bufs`' activations, the output delta
    and backpropagation, which writes each layer's weight and bias gradient
    into the arrays `grads` holds. The calls allocate nothing.

    Each tanh derivative 1 - a^2 is taken in place in its activation, which
    backpropagation no longer reads once it is used; the output activation is
    kept, so the caller can take the loss from it.
    """
    acts, deltas = bufs
    calls = _forward_calls(layers, tanh_flags, x, acts)
    a, delta = acts[-1], deltas[-1]
    # d(mean r^2)/dr = 2 r / size, rounded once: size / 2 is exact
    calls += [(np.subtract, (a, x, delta)), (np.divide, (delta, delta.size * 0.5, delta))]
    ins = [x, *acts[:-1]]
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grads[i]
        # np.add.reduce with axis 0 is np.sum without its Python wrapper
        calls += [(np.dot, (ins[i].T, delta, gw)), (np.add.reduce, (delta, 0, None, gb))]
        if i > 0:
            below = deltas[i - 1]
            calls.append((np.dot, (delta, layers[i][0].T, below)))
            if tanh_flags[i - 1]:
                a = ins[i]
                calls += [(np.square, (a, a)), (np.subtract, (1.0, a, a)), (np.multiply, (below, a, below))]
            delta = below
    return calls


def _run(calls: list[Call]) -> None:
    for f, args in calls:
        f(*args)


def loss_and_grads(layers, tanh_flags, X: np.ndarray):
    """Mean squared reconstruction error and its gradient per layer: one
    training step's calls on all of X, without the momentum update."""
    dims = [X.shape[1], *(w.shape[1] for w, _ in layers)]
    grads = [(np.empty_like(w), np.empty_like(b)) for w, b in layers]
    bufs = _step_buffers(len(X), dims)
    out = bufs[0][-1]
    _run(_step_calls(layers, tanh_flags, grads, X, bufs) + _squared_error_calls(out, X))
    return float(np.mean(out)), grads


def fit_autoencoder(X: np.ndarray, r: int, hyper: AutoencoderHyper | None = None) -> AutoencoderReducer:
    """Train the autoencoder; deterministic for a fixed seed.

    A step's cost is dominated by the number of numpy calls, not by their
    size, so the epoch's calls are built once per fit and then only run. All
    parameters live in one flat vector, so the momentum step is four
    whole-vector calls however many layers the net has. Each epoch gathers
    the shuffled rows into one fixed buffer, and every batch is a view into
    it; the batches share one set of activation and delta buffers, and a short
    last batch has its own. The epoch-end loss over all rows is built once
    too: the same forward calls into n-row buffers, then the squared error.
    """
    hyper = hyper or AutoencoderHyper()
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise DataError("training input must be a non-empty 2-D matrix")
    if not np.all(np.isfinite(X)):
        raise DataError("training input contains non-finite values")
    if r < 1:
        raise DataError("latent dimension must be >= 1")
    n, k = X.shape
    dims = _layer_dims(k, r, hyper.hidden_dims)
    n_encoder = len(hyper.hidden_dims) + 1
    tanh_flags = _tanh_flags(len(dims) - 1, n_encoder)

    rng = np.random.default_rng(hyper.seed)
    theta = np.concatenate([a.ravel() for layer in init_layers(dims, rng) for a in layer])
    layers = _layer_views(theta, dims)
    grad = np.empty_like(theta)
    grads = _layer_views(grad, dims)
    velocity = np.zeros_like(theta)
    step = np.empty_like(theta)
    momentum: list[Call] = [
        (np.multiply, (velocity, MOMENTUM, velocity)),
        (np.add, (velocity, grad, velocity)),
        (np.multiply, (velocity, hyper.learning_rate, step)),
        (np.subtract, (theta, step, theta)),
    ]
    shuffled = np.empty_like(X)
    batches = [shuffled[start : start + hyper.batch_size] for start in range(0, n, hyper.batch_size)]
    bufs = {len(batch): _step_buffers(len(batch), dims) for batch in batches[:1] + batches[-1:]}
    epoch_calls = [call for batch in batches
                   for call in _step_calls(layers, tanh_flags, grads, batch, bufs[len(batch)]) + momentum]
    loss_acts = [np.empty((n, dout)) for dout in dims[1:]]
    loss_calls = _forward_calls(layers, tanh_flags, X, loss_acts) + _squared_error_calls(loss_acts[-1], X)

    log = []
    # a diverging net overflows long before its epoch ends; TrainingDiverged
    # reports it, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(hyper.epochs):
            np.take(X, rng.permutation(n), axis=0, out=shuffled)
            _run(epoch_calls)
            _run(loss_calls)
            epoch_loss = float(np.mean(loss_acts[-1]))
            if not np.isfinite(epoch_loss):
                raise TrainingDiverged(
                    f"non-finite reconstruction loss at epoch {epoch}; lower the learning rate"
                )
            log.append(epoch_loss)

    frozen = tuple((w.copy(), b.copy()) for w, b in layers)
    return AutoencoderReducer(
        encoder_layers=frozen[:n_encoder],
        decoder_layers=frozen[n_encoder:],
        training_log=tuple(log),
    )


def encode(reducer: AutoencoderReducer, X: np.ndarray) -> np.ndarray:
    """Forward pass through the encoder half only."""
    X = np.asarray(X, dtype=np.float64)
    din = reducer.encoder_layers[0][0].shape[0]
    if X.shape[1] != din:
        raise DataError(f"encoder expects {din} columns, got {X.shape[1]}")
    n_encoder = len(reducer.encoder_layers)
    acts = [np.empty((len(X), w.shape[1])) for w, _ in reducer.encoder_layers]
    _run(_forward_calls(reducer.encoder_layers, _tanh_flags(n_encoder, n_encoder), X, acts))
    return acts[-1]
