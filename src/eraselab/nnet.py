"""Epsilon-prediction MLP with exact reverse-mode gradients.

The network maps (z, t, c) to a predicted noise vector through a small
fully connected stack. Conditioning is concatenation at the input layer:
[z, sinusoidal time features, learned concept embedding], so conditional
and unconditional passes share every weight. All arithmetic is f64; the
backward pass is a hand-rolled tape replay that is exact up to rounding,
which keeps finite-difference oracles tight.

Optimizer contract: parameter arrays are never mutated. `adamw_step`
returns a new Parameters whose updated tensors are freshly allocated, so
tapes recorded against older parameters stay valid. The Adam moments and
the optimizer's scratch buffers, which belong to `OptimizerState`, are
updated in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import NumericalError, StructuralError


@dataclass(frozen=True)
class NetworkShape:
    input_dim: int
    hidden: tuple[int, ...] = (128, 128, 128)
    time_embed_dim: int = 32
    concept_embed_dim: int = 16

    def __post_init__(self):
        dims = (self.input_dim, self.time_embed_dim, self.concept_embed_dim) + self.hidden
        if any(d < 1 for d in dims):
            raise StructuralError(f"all dims must be >= 1, got {self}")
        if self.time_embed_dim % 2 != 0:
            raise StructuralError("time_embed_dim must be even (sin/cos pairs)")

    @property
    def concat_dim(self) -> int:
        return self.input_dim + self.time_embed_dim + self.concept_embed_dim

    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per linear layer, output layer last."""
        widths = [self.concat_dim, *self.hidden, self.input_dim]
        return list(zip(widths[:-1], widths[1:]))


@dataclass
class Parameters:
    """Weights/biases per linear layer plus the concept embedding table.

    Row K of the table is the unconditional token. Arrays are never
    mutated: an optimizer step allocates new arrays for the tensors it
    updates and shares the others, so tapes recorded against an older
    Parameters stay valid.
    """

    shape: NetworkShape
    n_concepts: int
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    concept_embed: np.ndarray

    def tensor_names(self) -> list[str]:
        names = []
        for i in range(len(self.weights)):
            names.extend([f"w{i}", f"b{i}"])
        names.append("embed")
        return names

    def get_tensor(self, name: str) -> np.ndarray:
        if name == "embed":
            return self.concept_embed
        kind, idx = name[0], int(name[1:])
        return self.weights[idx] if kind == "w" else self.biases[idx]

    def set_tensor(self, name: str, value: np.ndarray) -> None:
        if value.shape != self.get_tensor(name).shape:
            raise StructuralError(f"tensor {name}: shape {value.shape} != "
                                  f"{self.get_tensor(name).shape}")
        if name == "embed":
            self.concept_embed = value
        else:
            kind, idx = name[0], int(name[1:])
            if kind == "w":
                self.weights[idx] = value
            else:
                self.biases[idx] = value

    def copy(self) -> "Parameters":
        return Parameters(self.shape, self.n_concepts,
                          [w.copy() for w in self.weights],
                          [b.copy() for b in self.biases],
                          self.concept_embed.copy())

    @property
    def null_id(self) -> int:
        return self.n_concepts


def init_params(shape: NetworkShape, n_concepts: int, seed: int) -> Parameters:
    """Uniform(+-1/sqrt(fan_in)) linear layers, N(0, 0.02^2) embeddings."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in shape.layer_dims():
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    embed = 0.02 * rng.standard_normal((n_concepts + 1, shape.concept_embed_dim))
    return Parameters(shape, n_concepts, weights, biases, embed)


@dataclass(frozen=True)
class TrainMask:
    """Which parameter tensors receive optimizer updates."""

    trainable: frozenset[str]

    @staticmethod
    def all_tensors(params: Parameters) -> "TrainMask":
        return TrainMask(frozenset(params.tensor_names()))

    @staticmethod
    def only(names: Sequence[str]) -> "TrainMask":
        return TrainMask(frozenset(names))

    def covers(self, name: str) -> bool:
        return name in self.trainable


@dataclass
class GradientBuffer:
    """Accumulated d(loss)/d(theta), shape-congruent with Parameters."""

    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]
    d_embed: np.ndarray

    def get_tensor(self, name: str) -> np.ndarray:
        if name == "embed":
            return self.d_embed
        kind, idx = name[0], int(name[1:])
        return self.d_weights[idx] if kind == "w" else self.d_biases[idx]

    def add(self, other: "GradientBuffer", scale: float = 1.0) -> None:
        for i in range(len(self.d_weights)):
            self.d_weights[i] += scale * other.d_weights[i]
            self.d_biases[i] += scale * other.d_biases[i]
        self.d_embed += scale * other.d_embed


def time_features(t, dim: int) -> np.ndarray:
    """Sinusoidal features of the (integer) schedule timestep.

    Accepts a scalar or a vector of timesteps; vector input yields one row
    per timestep.
    """
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = np.multiply.outer(np.asarray(t, dtype=np.float64), freqs)
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


@dataclass
class Tape:
    """Activation record from one batched forward pass."""

    params: Parameters
    c_ids: np.ndarray
    inputs: list[np.ndarray]       # input to each linear layer, (n, fan_in)
    pre_acts: list[np.ndarray]     # pre-activation of each hidden layer
    sigmoids: list[np.ndarray]     # sigmoid(pre_act) of each hidden layer
    output: np.ndarray             # (n, input_dim)


def _silu_grad(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """s * (1 + x * (1 - s)) with s = sigmoid(x), in one scratch array."""
    out = 1.0 - s
    np.multiply(x, out, out=out)
    np.add(out, 1.0, out=out)
    np.multiply(s, out, out=out)
    return out


def forward_batch(params: Parameters, Z: np.ndarray, t, c) -> tuple[np.ndarray, Tape]:
    """Batched eps prediction; t and c may be scalars or per-row vectors."""
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    n = Z.shape[0]
    if Z.shape[1] != params.shape.input_dim:
        raise StructuralError(f"z dim {Z.shape[1]} != input_dim {params.shape.input_dim}")
    c_ids = np.broadcast_to(np.asarray(c, dtype=np.int64), (n,)).copy()
    if c_ids.min() < 0 or c_ids.max() > params.n_concepts:
        raise StructuralError(f"concept id out of range 0..{params.n_concepts}")
    t_arr = np.broadcast_to(np.asarray(t, dtype=np.float64), (n,))
    tf = time_features(t_arr, params.shape.time_embed_dim)
    x = np.concatenate([Z, tf, params.concept_embed[c_ids]], axis=1)

    inputs, pre_acts, sigmoids = [], [], []
    h = x
    n_layers = len(params.weights)
    # The sigmoid 1 / (1 + exp(-pre)) is built in place in one fresh buffer.
    # exp overflows to inf below pre = -709, which gives the exact limit 0.
    with np.errstate(over="ignore"):
        for i in range(n_layers):
            inputs.append(h)
            pre = h @ params.weights[i].T
            np.add(pre, params.biases[i], out=pre)
            if i < n_layers - 1:
                s = np.negative(pre)
                np.exp(s, out=s)
                np.add(s, 1.0, out=s)
                np.divide(1.0, s, out=s)
                pre_acts.append(pre)
                sigmoids.append(s)
                h = pre * s
            else:
                h = pre
    tape = Tape(params=params, c_ids=c_ids, inputs=inputs,
                pre_acts=pre_acts, sigmoids=sigmoids, output=h)
    return h, tape


def forward(params: Parameters, z: np.ndarray, t: int, c: int) -> tuple[np.ndarray, Tape]:
    """Single-sample eps prediction: eps_hat(z_t, c, t) plus its tape."""
    out, tape = forward_batch(params, np.asarray(z, dtype=np.float64)[None, :], t, c)
    return out[0], tape


def backward(tape: Tape, upstream: np.ndarray) -> GradientBuffer:
    """Exact gradient of <upstream, eps_hat> w.r.t. every parameter tensor.

    Batched tapes take an (n, d) upstream and accumulate the gradient of
    sum_i <upstream_i, eps_hat_i>.
    """
    params = tape.params
    up = np.asarray(upstream, dtype=np.float64)
    if up.ndim == 1:
        up = up[None, :]
    if up.shape != tape.output.shape:
        raise StructuralError(f"upstream shape {up.shape} does not match tape "
                              f"output {tape.output.shape}")

    n_layers = len(params.weights)
    d_weights, d_biases = [None] * n_layers, [None] * n_layers
    delta = up
    for i in reversed(range(n_layers)):
        d_weights[i] = delta.T @ tape.inputs[i]
        d_biases[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ params.weights[i]
            np.multiply(delta, _silu_grad(tape.pre_acts[i - 1],
                                          tape.sigmoids[i - 1]), out=delta)

    # Of layer 0's input gradient only the concept-embedding columns have a
    # parameter behind them, so only those columns of W0 enter the product.
    embed_slice = slice(params.shape.input_dim + params.shape.time_embed_dim, None)
    d_embed = np.zeros_like(params.concept_embed)
    np.add.at(d_embed, tape.c_ids, delta @ params.weights[0][:, embed_slice])
    return GradientBuffer(d_weights, d_biases, d_embed)


# Elements per slice of the AdamW update. The update is elementwise, so
# running all of its passes over one slice before the next keeps the slice
# in cache without changing any result.
_ADAMW_CHUNK = 16384


@dataclass
class OptimizerState:
    """Decoupled-weight-decay Adam moments per parameter tensor.

    `adamw_step` updates the C-contiguous moments `m` and `v` in place and
    works in `scratch`, two flat buffers of one update slice each that
    `fresh` allocates once. Only the state mutates; parameters never do.
    """

    lr: float = 1e-5
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.0
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    scratch: tuple = ()

    @staticmethod
    def fresh(params: Parameters, lr: float = 1e-5, weight_decay: float = 0.0,
              betas: tuple[float, float] = (0.9, 0.999),
              eps: float = 1e-8) -> "OptimizerState":
        state = OptimizerState(lr=lr, betas=betas, eps=eps, weight_decay=weight_decay)
        for name in params.tensor_names():
            shape = params.get_tensor(name).shape
            state.m[name] = np.zeros(shape)
            state.v[name] = np.zeros(shape)
        chunk = min(_ADAMW_CHUNK, max(m.size for m in state.m.values()))
        state.scratch = (np.empty(chunk), np.empty(chunk))
        return state


def adamw_step(params: Parameters, grads: GradientBuffer, mask: TrainMask,
               state: OptimizerState) -> Parameters:
    """One AdamW update on the masked-in tensors; returns new Parameters.

    Masked-out tensors keep their exact array objects; updated tensors are
    new arrays. The moments change in place, in the operation order of

        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        p - lr * ((m/bc1) / (sqrt(v/bc2) + eps) + wd*p)

    At wd == 0 the wd*p term is not formed; adding a zero leaves every
    finite result as it was. Raises on non-finite gradients before
    touching params or state.
    """
    for name in params.tensor_names():
        g = grads.get_tensor(name)
        if mask.covers(name) and not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for tensor {name}")

    state.step_count += 1
    b1, b2 = state.betas
    bc1 = 1.0 - b1 ** state.step_count
    bc2 = 1.0 - b2 ** state.step_count

    out = Parameters(params.shape, params.n_concepts, list(params.weights),
                     list(params.biases), params.concept_embed)
    for name in params.tensor_names():
        if not mask.covers(name):
            continue
        param = params.get_tensor(name)
        new = np.empty(param.shape)
        flat_p, flat_new = param.reshape(-1), new.reshape(-1)
        flat_g = grads.get_tensor(name).reshape(-1)
        flat_m, flat_v = state.m[name].reshape(-1), state.v[name].reshape(-1)
        for lo in range(0, param.size, _ADAMW_CHUNK):
            hi = min(lo + _ADAMW_CHUNK, param.size)
            p, g, m, v = flat_p[lo:hi], flat_g[lo:hi], flat_m[lo:hi], flat_v[lo:hi]
            a, b = state.scratch[0][:hi - lo], state.scratch[1][:hi - lo]
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=a)
            np.add(m, a, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, 1.0 - b2, out=a)
            np.multiply(a, g, out=a)
            np.add(v, a, out=v)
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            np.add(b, state.eps, out=b)
            np.divide(m, bc1, out=a)
            np.divide(a, b, out=a)
            if state.weight_decay != 0.0:
                np.multiply(p, state.weight_decay, out=b)
                np.add(a, b, out=a)
            np.multiply(a, state.lr, out=a)
            np.subtract(p, a, out=flat_new[lo:hi])
        out.set_tensor(name, new)
    return out
