"""Dense autoencoder trained by mini-batch gradient descent with momentum.

The network is K -> hidden_dims -> R -> reversed(hidden_dims) -> K with tanh
on the hidden layers and identity on the latent and output layers. The
encoder output is the sample's reduced representation.

Activations are feature-major, (d + 1, m) for m rows with a last row of
ones, so each layer is one product [W; b]^T [a; 1] with its bias folded in,
and its gradient one product [a; 1] delta^T. Every forward pass, the training
step's, the check after the last epoch's and `encode`'s, is the list of numpy
calls `_forward_calls` builds on fixed activation buffers. The epoch loss is
taken from the batches' residuals, not from a separate pass over all rows.
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


def _layer_blocks(flat: np.ndarray, dims: list[int]) -> list[np.ndarray]:
    """Each layer's (din + 1, dout) block [W; b] as a reshaped view into one
    flat vector laid out W0, b0, W1, b1, ...: W is the block's first din rows
    and b its last."""
    blocks, start = [], 0
    for din, dout in zip(dims[:-1], dims[1:]):
        blocks.append(flat[start : start + (din + 1) * dout].reshape(din + 1, dout))
        start += (din + 1) * dout
    return blocks


def _with_ones(X: np.ndarray) -> np.ndarray:
    """X with a last column of ones: its transpose is X feature-major, with
    the ones row that multiplies the first layer's bias."""
    return np.hstack((X, np.ones((len(X), 1))))


Call = tuple[Callable[..., Any], tuple]  # a numpy function and its positional arguments


def _forward_buffers(m: int, widths: list[int]) -> list[np.ndarray]:
    """Each layer's feature-major activation buffer for m rows: (dout + 1, m)
    with a last row of ones, which multiplies the next layer's bias, and
    (dout, m) for the last layer, which no layer reads."""
    return [np.ones((d + 1, m)) for d in widths[:-1]] + [np.empty((widths[-1], m))]


def _forward_calls(blocks, tanh_flags, x: np.ndarray, acts: list[np.ndarray]) -> list[Call]:
    """The forward pass of the feature-major rows `x`, whose last row is
    ones, as numpy calls: per layer one product [W; b]^T [a; 1] into the
    first dout rows of its buffer in `acts`, then tanh in place. The last
    buffer ends up holding the output."""
    calls: list[Call] = []
    a = x
    for wb, is_tanh, buf in zip(blocks, tanh_flags, acts):
        z = buf[: wb.shape[1]]
        calls.append((np.dot, (wb.T, a, z)))
        if is_tanh:
            calls.append((np.tanh, (z, z)))
        a = buf
    return calls


def _step_buffers(m: int, widths: list[int]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each layer's feature-major activation and (dout, m) delta buffer for
    batches of m rows."""
    return _forward_buffers(m, widths), [np.empty((d, m)) for d in widths]


def _step_calls(blocks, tanh_flags, grads, x: np.ndarray, resid: np.ndarray, bufs) -> list[Call]:
    """One training step on the feature-major rows `x` as numpy calls on
    fixed arrays, to be run in order: the forward pass into `bufs`'
    activations, the residual output - x into `resid`, the output delta and
    backpropagation, which writes each layer's folded gradient [dW; db] into
    its block in `grads`. The calls allocate nothing.

    Each gradient is one product [a; 1] delta^T: the ones row makes its last
    row, the bias gradient, the sum of delta over the rows. Each tanh
    derivative 1 - a^2 is taken in place in its activation, which
    backpropagation no longer reads once it is used.
    """
    acts, deltas = bufs
    calls = _forward_calls(blocks, tanh_flags, x, acts)
    delta = deltas[-1]
    # d(mean r^2)/dr = 2 r / size, rounded once: size / 2 is exact
    calls += [(np.subtract, (acts[-1], x[:-1], resid)), (np.divide, (resid, delta.size * 0.5, delta))]
    ins = [x, *acts[:-1]]
    for i in range(len(blocks) - 1, -1, -1):
        calls.append((np.dot, (ins[i], delta.T, grads[i])))
        if i > 0:
            below = deltas[i - 1]
            calls.append((np.dot, (blocks[i][:-1], delta, below)))
            if tanh_flags[i - 1]:
                a = ins[i][:-1]
                calls += [(np.square, (a, a)), (np.subtract, (1.0, a, a)), (np.multiply, (below, a, below))]
            delta = below
    return calls


def _run(calls: list[Call]) -> None:
    for f, args in calls:
        f(*args)


def _mean_square(r: np.ndarray) -> float:
    """The mean of r^2, squared in place. numpy's pairwise sum gives the same
    bits at any BLAS thread count, which BLAS's dot does not."""
    return float(np.mean(np.square(r, out=r)))


def _reconstruction_error(blocks, tanh_flags, x: np.ndarray) -> float:
    """Mean squared reconstruction error of the feature-major rows `x`
    through one forward pass on buffers of all its rows."""
    acts = _forward_buffers(x.shape[1], [wb.shape[1] for wb in blocks])
    out = acts[-1]
    _run(_forward_calls(blocks, tanh_flags, x, acts) + [(np.subtract, (out, x[:-1], out))])
    return _mean_square(out)


def loss_and_grads(layers, tanh_flags, X: np.ndarray):
    """Mean squared reconstruction error and its gradient (dW, db) per layer:
    one training step's calls on all of X, without the momentum update."""
    dims = [X.shape[1], *(w.shape[1] for w, _ in layers)]
    theta = np.concatenate([a.ravel() for layer in layers for a in layer])
    grad = np.empty_like(theta)
    grads = _layer_blocks(grad, dims)
    resid = np.empty((X.shape[1], len(X)))
    _run(_step_calls(_layer_blocks(theta, dims), tanh_flags, grads, _with_ones(X).T, resid,
                     _step_buffers(len(X), dims[1:])))
    return _mean_square(resid), [(g[:-1], g[-1]) for g in grads]


def _finite(loss: float, epoch: int) -> float:
    if not np.isfinite(loss):
        raise TrainingDiverged(f"non-finite reconstruction loss at epoch {epoch}; lower the learning rate")
    return loss


def fit_autoencoder(X: np.ndarray, r: int, hyper: AutoencoderHyper | None = None) -> AutoencoderReducer:
    """Train the autoencoder; deterministic for a fixed seed.

    A step's cost is dominated by the number of numpy calls, not by their
    size, so the epoch's calls are built once per fit and then only run.
    Every layer is one product with its bias folded in, on feature-major
    activations. All parameters live in one flat vector, so the momentum
    step is four whole-vector calls however many layers the net has. Each
    epoch gathers the shuffled rows, with their ones column, into one fixed
    buffer, and every batch is a view into it; the batches share one set of
    activation and delta buffers, and a short last batch has its own.

    `training_log[e]` is the mean squared residual of epoch e's batches, each
    taken before its batch's update: the row-weighted mean of the batch
    losses. Each batch writes its residual into its own slice of one epoch
    buffer, so no pass over all rows is needed. A non-finite epoch loss
    raises `TrainingDiverged`, and so does a non-finite loss of one forward
    pass over all rows after the last epoch, which sees the last updates.
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
    blocks = _layer_blocks(theta, dims)
    grad = np.empty_like(theta)
    grads = _layer_blocks(grad, dims)
    velocity = np.zeros_like(theta)
    step = np.empty_like(theta)
    momentum: list[Call] = [
        (np.multiply, (velocity, MOMENTUM, velocity)),
        (np.add, (velocity, grad, velocity)),
        (np.multiply, (velocity, hyper.learning_rate, step)),
        (np.subtract, (theta, step, theta)),
    ]
    X1 = _with_ones(X)
    shuffled = np.empty_like(X1)
    resid = np.empty(n * k)
    starts = range(0, n, hyper.batch_size)
    sizes = [min(hyper.batch_size, n - start) for start in starts]
    bufs = {m: _step_buffers(m, dims[1:]) for m in sizes[:1] + sizes[-1:]}
    epoch_calls = [
        call for start, m in zip(starts, sizes)
        for call in _step_calls(blocks, tanh_flags, grads, shuffled[start : start + m].T,
                                resid[start * k : (start + m) * k].reshape(k, m), bufs[m]) + momentum
    ]

    log = []
    # a diverging net overflows long before its epoch ends; TrainingDiverged
    # reports it, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(hyper.epochs):
            np.take(X1, rng.permutation(n), axis=0, out=shuffled)
            _run(epoch_calls)
            log.append(_finite(_mean_square(resid), epoch))
        # each batch's loss precedes its update, so the last updates are
        # checked by one more pass over all rows
        _finite(_reconstruction_error(blocks, tanh_flags, X1.T), hyper.epochs - 1)

    frozen = tuple((wb[:-1].copy(), wb[-1].copy()) for wb in blocks)
    return AutoencoderReducer(
        encoder_layers=frozen[:n_encoder],
        decoder_layers=frozen[n_encoder:],
        training_log=tuple(log),
    )


def encode(reducer: AutoencoderReducer, X: np.ndarray) -> np.ndarray:
    """Forward pass through the encoder half only; the latent comes back
    row-major, (n, R) and C-contiguous."""
    X = np.asarray(X, dtype=np.float64)
    din = reducer.encoder_layers[0][0].shape[0]
    if X.shape[1] != din:
        raise DataError(f"encoder expects {din} columns, got {X.shape[1]}")
    n_encoder = len(reducer.encoder_layers)
    blocks = [np.vstack((w, b)) for w, b in reducer.encoder_layers]
    acts = _forward_buffers(len(X), [wb.shape[1] for wb in blocks])
    _run(_forward_calls(blocks, _tanh_flags(n_encoder, n_encoder), _with_ones(X).T, acts))
    return acts[-1].T.copy()
