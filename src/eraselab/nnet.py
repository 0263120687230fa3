"""Epsilon-prediction MLP with exact reverse-mode gradients.

The network maps (z, t, c) to a predicted noise vector through a small
fully connected stack. Conditioning is concatenation at the input layer:
[z, sinusoidal time features, learned concept embedding], so conditional
and unconditional passes share every weight. All arithmetic is f64; the
backward pass is a hand-rolled tape replay that is exact up to rounding,
which keeps finite-difference oracles tight.

Storage contract: every tensor of a model lives in one contiguous f64
vector, `flat`, laid out in `tensor_names()` order (w0, b0, w1, b1, ...,
embed; see `tensor_layout`). That vector is the checkpoint payload.
`Parameters.weights`, `biases` and `concept_embed` are reshaped views of
it. The same type holds a model, its gradient and its Adam moments, and a
training mask is a frozenset of tensor names.

Write contract: a model's `flat` is never written once it is in use.
`adamw_step` returns a new Parameters over a freshly allocated vector, so
tapes recorded against older parameters stay valid; `set_tensor` only
serves freshly copied parameters that no tape has seen. Gradient and
moment vectors, and the optimizer's scratch buffers, are written in place.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NumericalError, StructuralError


@dataclass(frozen=True)
class NetworkShape:
    input_dim: int
    hidden: tuple[int, ...]
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


@dataclass(frozen=True)
class TensorLayout:
    """Where each tensor of a model lies in its flat vector: names in
    tensor_names() order, shapes, and element offsets (one more than there
    are tensors, the last being the vector's length)."""

    names: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.offsets[-1]

    def name_at(self, index: int) -> str:
        """The tensor that holds element `index` of the flat vector."""
        return self.names[bisect.bisect_right(self.offsets, index) - 1]

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """One reshaped view of flat per tensor, in layout order."""
        if flat.shape != (self.size,) or flat.dtype != np.float64 \
                or not flat.flags.c_contiguous:
            raise StructuralError(f"flat vector must be contiguous f64 of "
                                  f"length {self.size}, got {flat.dtype} "
                                  f"{flat.shape}")
        return [flat[lo:hi].reshape(shape) for lo, hi, shape
                in zip(self.offsets, self.offsets[1:], self.shapes)]


@functools.lru_cache(maxsize=64)
def tensor_layout(shape: NetworkShape, n_concepts: int) -> TensorLayout:
    """The flat layout of a model of this shape and concept count."""
    names, shapes = [], []
    for i, (fan_in, fan_out) in enumerate(shape.layer_dims()):
        names += [f"w{i}", f"b{i}"]
        shapes += [(fan_out, fan_in), (fan_out,)]
    names.append("embed")
    shapes.append((n_concepts + 1, shape.concept_embed_dim))
    offsets = [0]
    for s in shapes:
        offsets.append(offsets[-1] + math.prod(s))
    return TensorLayout(tuple(names), tuple(shapes), tuple(offsets))


@dataclass
class Parameters:
    """Weights/biases per linear layer plus the concept embedding table,
    as views of one contiguous vector `flat` (see the module docstring).

    Row K of the table is the unconditional token. The same type carries a
    gradient (`backward`) and the Adam moments. A model's `flat` is never
    written once it is in use: an optimizer step builds a new vector, so
    tapes recorded against an older Parameters stay valid. Gradient and
    moment vectors are written in place.
    """

    shape: NetworkShape
    n_concepts: int
    flat: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)
    concept_embed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        views = tensor_layout(self.shape, self.n_concepts).views(self.flat)
        self.weights, self.biases, self.concept_embed = \
            views[0:-1:2], views[1:-1:2], views[-1]

    def tensor_names(self) -> list[str]:
        return list(tensor_layout(self.shape, self.n_concepts).names)

    def get_tensor(self, name: str) -> np.ndarray:
        if name == "embed":
            return self.concept_embed
        kind, idx = name[0], int(name[1:])
        return self.weights[idx] if kind == "w" else self.biases[idx]

    def set_tensor(self, name: str, value: np.ndarray) -> None:
        """Write value into the tensor's view of `flat`; only for freshly
        copied parameters (see the module docstring)."""
        if value.shape != self.get_tensor(name).shape:
            raise StructuralError(f"tensor {name}: shape {value.shape} != "
                                  f"{self.get_tensor(name).shape}")
        self.get_tensor(name)[...] = value

    def copy(self) -> "Parameters":
        return Parameters(self.shape, self.n_concepts, self.flat.copy())

    @property
    def null_id(self) -> int:
        return self.n_concepts


def init_params(shape: NetworkShape, n_concepts: int, seed: int) -> Parameters:
    """Uniform(+-1/sqrt(fan_in)) linear layers, N(0, 0.02^2) embeddings."""
    rng = np.random.default_rng(seed)
    params = Parameters(shape, n_concepts,
                        np.empty(tensor_layout(shape, n_concepts).size))
    for w, b in zip(params.weights, params.biases):
        bound = 1.0 / np.sqrt(w.shape[1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
        b[...] = rng.uniform(-bound, bound, size=b.shape)
    params.concept_embed[...] = 0.02 * rng.standard_normal(params.concept_embed.shape)
    return params


@functools.lru_cache(maxsize=64)
def _mask_spans(shape: NetworkShape, n_concepts: int,
                mask: frozenset[str]) -> tuple[tuple[int, int], ...]:
    """(start, stop) of each maximal run of masked-in tensors in the flat
    layout; the full mask is one run."""
    layout = tensor_layout(shape, n_concepts)
    spans = []
    for name, lo, hi in zip(layout.names, layout.offsets, layout.offsets[1:]):
        if name not in mask:
            continue
        if spans and spans[-1][1] == lo:
            spans[-1] = (spans[-1][0], hi)
        else:
            spans.append((lo, hi))
    return tuple(spans)


def time_features(t, dim: int) -> np.ndarray:
    """Sinusoidal features of the (integer) schedule timestep.

    Accepts a scalar or a vector of timesteps; vector input yields one row
    per timestep.
    """
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = np.multiply.outer(np.asarray(t, dtype=np.float64), freqs)
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


# time_features(arange(len), dim) per time_embed_dim. time_features is
# elementwise, so a row of the table has the bits of a direct call. A table
# is rebuilt at twice (largest t + 1) when a larger t arrives, so it never
# holds more than 2 * (T_train + 1) rows.
_TIME_TABLES: dict[int, np.ndarray] = {}


def _time_rows(t, dim: int) -> np.ndarray:
    """time_features(t, dim) for integer timesteps, from the table."""
    t = np.asarray(t)
    if t.dtype.kind not in "iu":
        raise StructuralError(f"timesteps must be integers, got {t.dtype}")
    lo, hi = (int(t), int(t)) if t.ndim == 0 else (int(t.min()), int(t.max()))
    if lo < 0:
        raise StructuralError(f"timestep {lo} is negative")
    table = _TIME_TABLES.get(dim)
    if table is None or hi >= len(table):
        table = _TIME_TABLES[dim] = time_features(np.arange(2 * (hi + 1)), dim)
    return table[t]


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


def _check_rows(params: Parameters, Z) -> np.ndarray:
    """Z as an (n, input_dim) f64 array with n >= 1."""
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    if Z.shape[1] != params.shape.input_dim:
        raise StructuralError(f"z dim {Z.shape[1]} != input_dim {params.shape.input_dim}")
    if Z.shape[0] == 0:
        raise StructuralError("empty batch: no rows to evaluate")
    return Z


def _upper_layers(params: Parameters, pre: np.ndarray,
                  tape: Optional[Tape] = None) -> np.ndarray:
    """The network from layer 0's pre-activation (bias added) to the output.

    Each hidden layer's sigmoid 1 / (1 + exp(-pre)) is built in place in one
    fresh buffer; exp overflows to inf below pre = -709, which gives the
    exact limit 0. A tape, if given, receives every later layer's input and
    every hidden layer's pre-activation and sigmoid.
    """
    n_layers = len(params.weights)
    with np.errstate(over="ignore"):
        for i in range(1, n_layers):
            s = np.negative(pre)
            np.exp(s, out=s)
            np.add(s, 1.0, out=s)
            np.divide(1.0, s, out=s)
            if tape is None:
                h = np.multiply(pre, s, out=s)
            else:
                tape.pre_acts.append(pre)
                tape.sigmoids.append(s)
                h = pre * s
                tape.inputs.append(h)
            pre = h @ params.weights[i].T
            np.add(pre, params.biases[i], out=pre)
    return pre


def forward_batch(params: Parameters, Z: np.ndarray, t, c) -> tuple[np.ndarray, Tape]:
    """Batched eps prediction; t and c may be scalars or per-row vectors."""
    Z = _check_rows(params, Z)
    n = Z.shape[0]
    c_ids = np.broadcast_to(np.asarray(c, dtype=np.int64), (n,)).copy()
    if c_ids.min() < 0 or c_ids.max() > params.n_concepts:
        raise StructuralError(f"concept id out of range 0..{params.n_concepts}")
    tf = np.broadcast_to(_time_rows(t, params.shape.time_embed_dim),
                         (n, params.shape.time_embed_dim))
    x = np.concatenate([Z, tf, params.concept_embed[c_ids]], axis=1)

    tape = Tape(params=params, c_ids=c_ids, inputs=[x], pre_acts=[],
                sigmoids=[], output=None)
    pre = x @ params.weights[0].T
    np.add(pre, params.biases[0], out=pre)
    tape.output = _upper_layers(params, pre, tape)
    return tape.output, tape


def eps_columns(params: Parameters, Z: np.ndarray, t, columns) -> np.ndarray:
    """eps(Z, t, c) for each column of concept ids, shape (k, n, d); no tape.

    This is frozen-model inference. A column is one concept id or one id
    per row; -1 marks a row the column does not need, which stays 0. Each
    distinct (row, concept) pair is evaluated once. t is a schedule
    timestep or one per row.

    Layer 0 is computed in factored form: W0's z columns meet each row of Z
    once, however many columns read it, and its time and concept columns
    meet each distinct (t, c) pair once. The sum differs from
    forward_batch's single product by rounding only; the later layers are
    forward_batch's. Z, c and t are checked as forward_batch checks them.
    """
    Z = _check_rows(params, Z)
    n, d = Z.shape
    ids = np.empty((len(columns), n), dtype=np.int64)
    for i, col in enumerate(columns):
        ids[i] = col
    if ids.min() < -1 or ids.max() > params.n_concepts:
        raise StructuralError(f"concept id out of range 0..{params.n_concepts} "
                              f"(or -1 to skip a row)")
    t_all = np.broadcast_to(np.asarray(t), (n,))
    out = np.zeros(ids.shape + (d,))
    need = ids >= 0
    if not need.any():
        return out
    keys, where = np.unique(ids[need] * n + np.nonzero(need)[1],
                            return_inverse=True)
    row = keys % n
    width = params.n_concepts + 1
    pairs, pair_at = np.unique(t_all[row] * width + keys // n,
                               return_inverse=True)

    # layer 0 = z part + (time part + concept part + b0), the bracket once
    # per distinct (t, c) pair
    w0, t_dim = params.weights[0], params.shape.time_embed_dim
    tf = _time_rows(pairs // width, t_dim)
    bias = tf @ w0[:, d:d + t_dim].T
    bias += params.concept_embed[pairs % width] @ w0[:, d + t_dim:].T
    np.add(bias, params.biases[0], out=bias)
    pre = (Z @ w0[:, :d].T)[row]
    pre += bias[pair_at]
    out[need] = _upper_layers(params, pre)[where]
    return out


def backward(tape: Tape, upstream: np.ndarray) -> Parameters:
    """Exact gradient of <upstream, eps_hat> w.r.t. every parameter tensor.

    The upstream has the tape output's shape (n, d), and the gradient is
    that of sum_i <upstream_i, eps_hat_i>, a Parameters over a fresh vector.
    """
    params = tape.params
    up = np.asarray(upstream, dtype=np.float64)
    if up.shape != tape.output.shape:
        raise StructuralError(f"upstream shape {up.shape} does not match tape "
                              f"output {tape.output.shape}")

    n_layers = len(params.weights)
    grads = Parameters(params.shape, params.n_concepts,
                       np.empty_like(params.flat))
    delta = up
    for i in reversed(range(n_layers)):
        np.matmul(delta.T, tape.inputs[i], out=grads.weights[i])
        np.sum(delta, axis=0, out=grads.biases[i])
        if i > 0:
            delta = delta @ params.weights[i]
            np.multiply(delta, _silu_grad(tape.pre_acts[i - 1],
                                          tape.sigmoids[i - 1]), out=delta)

    # Of layer 0's input gradient only the concept-embedding columns have a
    # parameter behind them, so only those columns of W0 enter the product.
    embed_slice = slice(params.shape.input_dim + params.shape.time_embed_dim, None)
    grads.concept_embed.fill(0.0)
    np.add.at(grads.concept_embed, tape.c_ids, delta @ params.weights[0][:, embed_slice])
    return grads


# Elements per slice of the AdamW update. The update is elementwise, so
# running all of its passes over one slice before the next keeps the slice
# in cache without changing any result.
_ADAMW_CHUNK = 16384

# Adam's moment decay rates and the denominator's epsilon.
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Decoupled-weight-decay Adam moments, laid out like Parameters.flat.

    `adamw_step` updates the moments `m` and `v` in place and works in
    `scratch`, two flat buffers of one update slice each that `fresh`
    allocates once. Only the state mutates; the model never does.
    """

    lr: float
    weight_decay: float
    m: Parameters
    v: Parameters
    scratch: tuple
    step_count: int

    @staticmethod
    def fresh(params: Parameters, lr: float,
              weight_decay: float) -> "OptimizerState":
        zeros = [Parameters(params.shape, params.n_concepts,
                            np.zeros_like(params.flat)) for _ in range(2)]
        chunk = min(_ADAMW_CHUNK, params.flat.size)
        return OptimizerState(lr, weight_decay, zeros[0], zeros[1],
                              (np.empty(chunk), np.empty(chunk)), 0)


def adamw_step(params: Parameters, grads: Parameters, mask: frozenset[str],
               state: OptimizerState) -> Parameters:
    """One AdamW update on the tensors named in mask; returns new Parameters.

    The result's vector is new: updated tensors are computed into it and
    masked-out tensors copied bit for bit. An empty mask returns params
    itself. The moments change in place, in the operation order of

        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        p - lr * ((m/bc1) / (sqrt(v/bc2) + eps) + wd*p)

    which runs slice by slice over each contiguous run of masked-in
    tensors. At wd == 0 the wd*p term is not formed; adding a zero leaves
    every finite result as it was. Raises on non-finite gradients, naming
    the first such tensor, before touching params or state.
    """
    spans = _mask_spans(params.shape, params.n_concepts, mask)
    for lo, hi in spans:
        finite = np.isfinite(grads.flat[lo:hi])
        if not finite.all():
            name = tensor_layout(params.shape, params.n_concepts).name_at(
                lo + int(np.argmin(finite)))
            raise NumericalError(f"non-finite gradient for tensor {name}")

    state.step_count += 1
    if not spans:
        return params
    b1, b2 = ADAM_BETAS
    bc1 = 1.0 - b1 ** state.step_count
    bc2 = 1.0 - b2 ** state.step_count

    full = spans == ((0, params.flat.size),)
    new = np.empty_like(params.flat) if full else params.flat.copy()
    for span_lo, span_hi in spans:
        for lo in range(span_lo, span_hi, _ADAMW_CHUNK):
            hi = min(lo + _ADAMW_CHUNK, span_hi)
            p, g = params.flat[lo:hi], grads.flat[lo:hi]
            m, v = state.m.flat[lo:hi], state.v.flat[lo:hi]
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
            np.add(b, ADAM_EPS, out=b)
            np.divide(m, bc1, out=a)
            np.divide(a, b, out=a)
            if state.weight_decay != 0.0:
                np.multiply(p, state.weight_decay, out=b)
                np.add(a, b, out=a)
            np.multiply(a, state.lr, out=a)
            np.subtract(p, a, out=new[lo:hi])
    return Parameters(params.shape, params.n_concepts, new)
