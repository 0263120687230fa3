"""Reference implementations that only the tests use.

Each is an independent or sequential path that a test compares the
package's own code against: a batch-1 DDIM trajectory with its record,
forward diffusion, a seeded validation loss, zero parameter and gradient
buffers, the class direction evaluated on its own, the frozen-model eps
columns and CFG closure as forward_batch calls, the nearest-rank
percentile, and the exact score and Bayes rate of a Gaussian mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from eraselab import nnet
from eraselab.diffusion import (GuidanceFn, NoiseSchedule, SamplerConfig,
                                conditional_eps, descend)
from eraselab.errors import ConfigError, NumericalError, StructuralError
from eraselab.guidance import _nearest_rank, cfg_compose
from eraselab.toyworld import Dataset, PointMixtureSpec

# ---------------------------------------------------------------------------
# Diffusion
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """DDIM descent record, ordered from z_T down to the stop state.

    states[k] is the state at sampler_indices[k]; eps_hats[k] is the
    prediction used to leave states[k].
    """

    states: np.ndarray
    eps_hats: np.ndarray
    sampler_indices: tuple[int, ...]
    seed: int

    def __post_init__(self):
        if self.states.shape[0] != len(self.sampler_indices):
            raise ConfigError("one state per recorded sampler index required")
        if self.eps_hats.shape[0] != self.states.shape[0] - 1:
            raise ConfigError("one eps record per transition required")

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def forward_diffuse(x0: np.ndarray, t: int, eps: np.ndarray,
                    sched: NoiseSchedule) -> np.ndarray:
    """z_t = sqrt(alpha_bar_t) x0 + sqrt(1 - alpha_bar_t) eps."""
    sched._check_t(t)
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    a = sched.alpha_bar_at(t)
    return np.sqrt(a) * x0 + np.sqrt(1.0 - a) * eps


def sample(params: nnet.Parameters, sched: NoiseSchedule, sampler: SamplerConfig,
           c: int, guid: Optional[GuidanceFn], seed: int,
           stop_index: int = 0) -> Trajectory:
    """Seeded z_T ~ N(0, I), then DDIM descent to stop_index (default: x0)."""
    if not 0 <= stop_index < sampler.T:
        raise ConfigError(f"stop_index {stop_index} outside [0, {sampler.T})")
    if guid is None:
        guid = conditional_eps(params)
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((1, params.shape.input_dim))
    _, states, eps_list = descend(Z, sampler, sched, c, guid, stop_index, record=True)
    return Trajectory(states=np.array([s[0] for s in states]),
                      eps_hats=np.array([e[0] for e in eps_list])
                      if eps_list else np.zeros((0, params.shape.input_dim)),
                      sampler_indices=tuple(range(sampler.T, stop_index - 1, -1)),
                      seed=seed)


def validation_eps_loss(params: nnet.Parameters, dataset: Dataset,
                        sched: NoiseSchedule, seed: int,
                        n_rows: int = 256) -> float:
    """Mean eps-matching loss on a fixed seeded probe batch."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, len(dataset.labels), size=n_rows)
    x0 = dataset.samples[rows]
    c = dataset.labels[rows]
    t = rng.integers(1, sched.T_train + 1, size=n_rows)
    eps = rng.standard_normal(x0.shape)
    a = sched.alpha_bar[t - 1][:, None]
    z_t = np.sqrt(a) * x0 + np.sqrt(1.0 - a) * eps
    eps_hat = nnet.forward_batch(params, z_t, t, c)[0]
    return float(((eps_hat - eps) ** 2).sum() / n_rows)


# ---------------------------------------------------------------------------
# Network buffers
# ---------------------------------------------------------------------------


def zero_like_params(params: nnet.Parameters) -> nnet.Parameters:
    return nnet.Parameters(params.shape, params.n_concepts,
                           np.zeros_like(params.flat))


def assert_finite_grads(grads: nnet.Parameters) -> None:
    if not np.all(np.isfinite(grads.flat)):
        raise NumericalError("non-finite gradient")


# ---------------------------------------------------------------------------
# Guidance
# ---------------------------------------------------------------------------


def class_direction(params: nnet.Parameters, z: np.ndarray, t: int,
                    c: int) -> np.ndarray:
    """eps(z, c) - eps(z, null): the scaled class-posterior gradient."""
    e_c = nnet.forward_batch(params, np.atleast_2d(z), t, c)[0]
    e_u = nnet.forward_batch(params, np.atleast_2d(z), t, params.null_id)[0]
    out = e_c - e_u
    return out[0] if np.asarray(z).ndim == 1 else out


def eps_columns(params: nnet.Parameters, Z: np.ndarray, t,
                columns) -> np.ndarray:
    """nnet.eps_columns through one forward_batch over the stacked rows,
    layer 0 as one product over [z, time features, embedding]."""
    n = Z.shape[0]
    ids = np.stack([np.broadcast_to(np.asarray(col, dtype=np.int64), (n,))
                    for col in columns])
    rows = np.broadcast_to(np.arange(n), ids.shape)
    need = ids >= 0
    keys, where = np.unique(ids[need] * n + rows[need], return_inverse=True)
    t_rows = np.broadcast_to(np.asarray(t), (n,))[keys % n]
    eps = nnet.forward_batch(params, Z[keys % n], t_rows, keys // n)[0]
    out = np.zeros(ids.shape + (Z.shape[1],))
    out[need] = eps[where]
    return out


def cfg_guidance(params: nnet.Parameters, gamma: float) -> GuidanceFn:
    """The CFG closure as two forward_batch calls, conditional then null."""
    def guid(Z, sampler_index, schedule_t, c):
        e_c = nnet.forward_batch(params, Z, schedule_t, c)[0]
        e_u = nnet.forward_batch(params, Z, schedule_t, params.null_id)[0]
        return cfg_compose(e_u, e_c, gamma)
    return guid


def percentile_threshold(values: np.ndarray, kappa: float) -> float:
    """Nearest-rank percentile: ascending sort, element ceil(kappa*n) - 1."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise StructuralError("percentile of an empty vector")
    if not 0.0 <= kappa <= 1.0:
        raise ConfigError(f"kappa must lie in [0, 1], got {kappa}")
    return float(np.sort(values)[_nearest_rank(kappa, values.size)])


# ---------------------------------------------------------------------------
# Gaussian mixture
# ---------------------------------------------------------------------------


def _noised_params(spec: PointMixtureSpec, alpha_bar: float | None):
    """Component means/variance of the mixture after forward diffusion.

    Convolving each component with the diffusion Gaussian at level a=alpha_bar
    gives means sqrt(a)*mu and isotropic variance a*sigma^2 + (1-a).
    """
    means = spec.mean_array()
    if alpha_bar is None:
        return means, spec.sigma ** 2
    if not 0.0 < alpha_bar <= 1.0:
        raise ConfigError(f"alpha_bar must lie in (0, 1], got {alpha_bar}")
    return np.sqrt(alpha_bar) * means, alpha_bar * spec.sigma ** 2 + (1.0 - alpha_bar)


def mixture_log_density_grad(spec: PointMixtureSpec, x: np.ndarray,
                             alpha_bar: float | None = None) -> np.ndarray:
    """Exact score of the (optionally noised) mixture at x.

    grad log p(x) = sum_k r_k(x) * (mu_k - x) / var with posterior
    responsibilities r_k computed in log space.
    """
    x = np.asarray(x, dtype=np.float64)
    means, var = _noised_params(spec, alpha_bar)
    diff = x[None, :] - means                      # (K, 2)
    log_w = np.log(np.maximum(np.asarray(spec.weights), 1e-300))
    log_comp = log_w - (diff ** 2).sum(axis=1) / (2.0 * var)
    resp = np.exp(log_comp - logsumexp(log_comp))
    return -(resp[:, None] * diff).sum(axis=0) / var


def bayes_rate_quadrature(spec: PointMixtureSpec, extent: float = 2.5,
                          n_grid: int = 501) -> float:
    """Bayes accuracy of the mixture by 2-D Riemann quadrature (independent
    of bayes_classify's code path)."""
    means, var = _noised_params(spec, None)
    lo = means.min() - extent
    hi = means.max() + extent
    axis = np.linspace(lo, hi, n_grid)
    h = axis[1] - axis[0]
    xs, ys = np.meshgrid(axis, axis)
    grid = np.stack([xs.ravel(), ys.ravel()], axis=1)
    weights = np.asarray(spec.weights)
    dens = np.empty((spec.n_components, grid.shape[0]))
    for k in range(spec.n_components):
        d2 = ((grid - means[k]) ** 2).sum(axis=1)
        dens[k] = weights[k] * np.exp(-d2 / (2 * var)) / (2 * np.pi * var)
    return float(dens.max(axis=0).sum() * h * h)
