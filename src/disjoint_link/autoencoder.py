"""Dense autoencoder trained by mini-batch gradient descent with momentum.

The network is K -> hidden_dims -> R -> reversed(hidden_dims) -> K with tanh
on the hidden layers and identity on the latent and output layers. The
encoder output is the sample's reduced representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    latent_dim: int
    activation: str = "tanh"
    training_log: tuple[float, ...] = field(default=())

    @property
    def all_layers(self) -> Layers:
        return self.encoder_layers + self.decoder_layers


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


def forward(layers, tanh_flags, X: np.ndarray) -> list[np.ndarray]:
    """Activations per layer, with the input first; length len(layers)+1."""
    acts = [X]
    for (w, b), is_tanh in zip(layers, tanh_flags):
        z = acts[-1] @ w
        z += b
        if is_tanh:
            np.tanh(z, out=z)
        acts.append(z)
    return acts


def _backward(layers, tanh_flags, acts, delta: np.ndarray, grads) -> None:
    """Backpropagate the output delta through `forward`'s activations, writing
    each layer's weight and bias gradient into the arrays `grads` holds."""
    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grads[i]
        np.matmul(acts[i].T, delta, out=gw)
        np.add.reduce(delta, axis=0, out=gb)  # np.sum without its Python wrapper
        if i > 0:
            delta = delta @ layers[i][0].T
            if tanh_flags[i - 1]:
                delta *= 1.0 - acts[i] ** 2


def loss_and_grads(layers, tanh_flags, X: np.ndarray):
    """Mean squared reconstruction error and its gradient per layer."""
    acts = forward(layers, tanh_flags, X)
    resid = acts[-1] - X
    loss = float(np.mean(resid**2))
    # d(mean r^2)/dr = 2 r / size, rounded once: size / 2 is exact
    resid /= resid.size * 0.5
    grads = [(np.empty_like(w), np.empty_like(b)) for w, b in layers]
    _backward(layers, tanh_flags, acts, resid, grads)
    return loss, grads


def _reconstruction_mse_into(layers, tanh_flags, X: np.ndarray, bufs) -> float:
    """Mean squared reconstruction error of X, each layer's activation
    written into its (n, dout) buffer in `bufs`."""
    a = X
    for (w, b), is_tanh, z in zip(layers, tanh_flags, bufs):
        np.matmul(a, w, out=z)
        z += b
        if is_tanh:
            np.tanh(z, out=z)
        a = z
    a -= X
    np.square(a, out=a)
    return float(np.mean(a))


def fit_autoencoder(X: np.ndarray, r: int, hyper: AutoencoderHyper | None = None) -> AutoencoderReducer:
    """Train the autoencoder; deterministic for a fixed seed.

    All parameters live in one flat vector, so the momentum step is four
    whole-vector numpy calls however many layers the net has; each step's
    cost is dominated by the number of numpy calls, not by their size. The
    epoch-end loss over all rows goes through activation buffers allocated
    once per fit.
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
    loss_bufs = [np.empty((n, dout)) for dout in dims[1:]]

    log = []
    # a diverging net overflows long before its epoch ends; TrainingDiverged
    # reports it, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(hyper.epochs):
            shuffled = X[rng.permutation(n)]
            for start in range(0, n, hyper.batch_size):
                batch = shuffled[start : start + hyper.batch_size]
                acts = forward(layers, tanh_flags, batch)
                delta = acts[-1]
                delta -= batch
                delta /= delta.size * 0.5
                _backward(layers, tanh_flags, acts, delta, grads)
                velocity *= MOMENTUM
                velocity += grad
                np.multiply(velocity, hyper.learning_rate, out=step)
                theta -= step
            epoch_loss = _reconstruction_mse_into(layers, tanh_flags, X, loss_bufs)
            if not np.isfinite(epoch_loss):
                raise TrainingDiverged(
                    f"non-finite reconstruction loss at epoch {epoch}; lower the learning rate"
                )
            log.append(epoch_loss)

    frozen = tuple((w.copy(), b.copy()) for w, b in layers)
    return AutoencoderReducer(
        encoder_layers=frozen[:n_encoder],
        decoder_layers=frozen[n_encoder:],
        latent_dim=r,
        training_log=tuple(log),
    )


def _encoder_flags(r: "AutoencoderReducer") -> list[bool]:
    return [True] * (len(r.encoder_layers) - 1) + [False]


def encode(reducer: AutoencoderReducer, X: np.ndarray) -> np.ndarray:
    """Forward pass through the encoder half only."""
    X = np.asarray(X, dtype=np.float64)
    din = reducer.encoder_layers[0][0].shape[0]
    if X.shape[1] != din:
        raise DataError(f"encoder expects {din} columns, got {X.shape[1]}")
    return forward(reducer.encoder_layers, _encoder_flags(reducer), X)[-1]

