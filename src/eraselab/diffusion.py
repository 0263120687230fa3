"""Noise schedule, forward diffusion, base training, DDIM sampling/inversion.

Timestep conventions used throughout the package:
  - schedule timesteps t are 1-based integers 1..T_train indexing the beta
    tables; t=0 denotes clean data (alpha_bar_0 := 1).
  - sampler indices i are 1-based positions in the subsampled sequence tau
    (length T); state index 0 is the fully denoised output. Guidance windows
    and warmup rules live in sampler-index space; the network always sees
    the schedule timestep tau_i.

Guidance closures have signature guid(Z, sampler_index, schedule_t, c) -> eps
with Z of shape (n, d); plain conditional prediction is the gamma=0 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import nnet
from .errors import ConfigError, NumericalError
from .toyworld import Dataset


@dataclass(frozen=True)
class NoiseSchedule:
    T_train: int
    beta: np.ndarray
    alpha: np.ndarray
    alpha_bar: np.ndarray
    sigma: np.ndarray

    @staticmethod
    def from_betas(beta: np.ndarray) -> "NoiseSchedule":
        beta = np.asarray(beta, dtype=np.float64)
        if beta.ndim != 1 or beta.size < 1:
            raise ConfigError("beta must be a nonempty vector")
        if np.any(beta <= 0) or np.any(beta >= 1):
            raise ConfigError("beta values must lie in (0, 1)")
        alpha = 1.0 - beta
        alpha_bar = np.cumprod(alpha)
        return NoiseSchedule(T_train=beta.size, beta=beta, alpha=alpha,
                             alpha_bar=alpha_bar, sigma=np.sqrt(1.0 - alpha_bar))

    def _check_t(self, t: int, allow_zero: bool = False) -> None:
        lo = 0 if allow_zero else 1
        if not lo <= t <= self.T_train:
            raise ConfigError(f"timestep {t} outside [{lo}, {self.T_train}]")

    def alpha_bar_at(self, t: int) -> float:
        """alpha_bar_t with the t=0 clean-data convention alpha_bar_0 = 1."""
        self._check_t(t, allow_zero=True)
        return 1.0 if t == 0 else float(self.alpha_bar[t - 1])

    def sigma_at(self, t: int) -> float:
        self._check_t(t, allow_zero=True)
        return 0.0 if t == 0 else float(self.sigma[t - 1])


def make_linear_schedule(T_train: int = 100, beta_start: float = 1e-4,
                         beta_end: float = 0.02) -> NoiseSchedule:
    if T_train < 1:
        raise ConfigError(f"T_train must be >= 1, got {T_train}")
    if not 0 < beta_start <= beta_end < 1:
        raise ConfigError(f"need 0 < beta_start <= beta_end < 1, "
                          f"got [{beta_start}, {beta_end}]")
    return NoiseSchedule.from_betas(np.linspace(beta_start, beta_end, T_train))


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic DDIM over a subsampled timestep sequence."""

    T: int
    tau: tuple[int, ...]

    def __post_init__(self):
        if len(self.tau) != self.T:
            raise ConfigError(f"tau length {len(self.tau)} != T {self.T}")
        if any(b <= a for a, b in zip(self.tau, self.tau[1:])):
            raise ConfigError("tau must be strictly increasing")
        if self.tau[0] < 1:
            raise ConfigError("tau values must be >= 1")

    @staticmethod
    def uniform(T: int, T_train: int) -> "SamplerConfig":
        """Evenly spaced schedule indices with the largest pinned to T_train."""
        if not 1 <= T <= T_train:
            raise ConfigError(f"need 1 <= T <= T_train, got T={T}, T_train={T_train}")
        tau = np.unique(np.round(np.linspace(T_train / T, T_train, T)).astype(int))
        if tau.size != T:
            raise ConfigError(f"T={T} does not embed evenly into T_train={T_train}")
        return SamplerConfig(T=T, tau=tuple(int(v) for v in tau))

    def schedule_t(self, sampler_index: int) -> int:
        """Schedule timestep at a sampler index; index 0 is clean data."""
        if not 0 <= sampler_index <= self.T:
            raise ConfigError(f"sampler index {sampler_index} outside [0, {self.T}]")
        return 0 if sampler_index == 0 else self.tau[sampler_index - 1]


GuidanceFn = Callable[[np.ndarray, int, int, int], np.ndarray]


def conditional_eps(params: nnet.Parameters) -> GuidanceFn:
    """Plain eps_theta(z, c, t) closure (no guidance)."""
    def guid(Z, sampler_index, schedule_t, c):
        return nnet.eps_columns(params, Z, schedule_t, [c])[0]
    return guid


def ddim_step(z_t: np.ndarray, eps_hat: np.ndarray, from_t: int, to_t: int,
              sched: NoiseSchedule) -> np.ndarray:
    """Deterministic DDIM transition between two schedule timesteps.

    Predicts x0_hat = (z - sigma_from * eps)/sqrt(alpha_bar_from) and
    re-noises to to_t. to_t = 0 returns x0_hat. The algebra is its own
    inverse, so from_t < to_t runs the map upward (used by inversion).
    """
    sched._check_t(from_t, allow_zero=True)
    sched._check_t(to_t, allow_zero=True)
    a_from = sched.alpha_bar_at(from_t)
    a_to = sched.alpha_bar_at(to_t)
    x0_hat = (z_t - np.sqrt(1.0 - a_from) * eps_hat) / np.sqrt(a_from)
    return np.sqrt(a_to) * x0_hat + np.sqrt(1.0 - a_to) * eps_hat


def descend(Z: np.ndarray, sampler: SamplerConfig, sched: NoiseSchedule,
            c: int, guid: GuidanceFn, stop_index: int = 0,
            record: bool = False) -> tuple[np.ndarray, list, list]:
    """DDIM descent of explicit states Z (n, d) from sampler index T down to
    stop_index; returns (final states, recorded states, recorded eps)."""
    states = [Z.copy()] if record else []
    eps_list = []
    for i in range(sampler.T, stop_index, -1):
        t_from = sampler.schedule_t(i)
        t_to = sampler.schedule_t(i - 1)
        eps_hat = guid(Z, i, t_from, c)
        Z = ddim_step(Z, eps_hat, t_from, t_to, sched)
        if not np.all(np.isfinite(Z)):
            raise NumericalError(f"non-finite state after DDIM step "
                                 f"{i} -> {i - 1} (t={t_from} -> {t_to})")
        if record:
            eps_list.append(eps_hat.copy())
            states.append(Z.copy())
    return Z, states, eps_list


def sample_final_batch(params: nnet.Parameters, sched: NoiseSchedule,
                       sampler: SamplerConfig, c: int, guid: Optional[GuidanceFn],
                       n: int, seed: int) -> np.ndarray:
    """n seeded z_T ~ N(0, I) descended together; returns the final states."""
    if guid is None:
        guid = conditional_eps(params)
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, params.shape.input_dim))
    Z, _, _ = descend(Z, sampler, sched, c, guid)
    return Z


def ddim_invert(x0: np.ndarray, params: nnet.Parameters, sched: NoiseSchedule,
                sampler: SamplerConfig, c: int) -> np.ndarray:
    """Run the deterministic DDIM map upward from clean data to z_T.

    Each ascent step evaluates eps at the target timestep, so descending
    from the result approximately reconstructs x0.
    """
    Z = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    single = np.asarray(x0).ndim == 1
    for i in range(0, sampler.T):
        t_from = sampler.schedule_t(i)
        t_to = sampler.schedule_t(i + 1)
        eps_hat = nnet.eps_columns(params, Z, t_to, [c])[0]
        Z = ddim_step(Z, eps_hat, t_from, t_to, sched)
        if not np.all(np.isfinite(Z)):
            raise NumericalError(f"non-finite state inverting step "
                                 f"{i} -> {i + 1} (t={t_from} -> {t_to})")
    return Z[0] if single else Z


def train_base(dataset: Dataset, shape: nnet.NetworkShape, sched: NoiseSchedule,
               steps: int, p_uncond: float, seed: int, lr: float = 1e-3,
               batch_size: int = 64,
               loss_log: Optional[list] = None) -> nnet.Parameters:
    """Minibatch eps-matching with CFG label dropout.

    Each step draws rows, per-row t ~ U{1..T_train} and eps ~ N(0, I),
    replaces labels by the null token with probability p_uncond, and takes
    one AdamW step on mean_i ||eps_i - eps_theta(z_t_i, c_i, t_i)||^2.
    lr decays to zero on a cosine; the final calibration of the eps field
    (and with it DDIM inversion quality) depends on it.
    """
    if len(dataset.labels) == 0:
        raise ConfigError("dataset is empty")
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if not 0.0 <= p_uncond <= 1.0:
        raise ConfigError(f"p_uncond must lie in [0, 1], got {p_uncond}")
    if shape.input_dim != dataset.dim:
        raise ConfigError(f"network input_dim {shape.input_dim} != "
                          f"dataset dim {dataset.dim}")

    rng = np.random.default_rng(seed)
    params = nnet.init_params(shape, dataset.n_concepts, seed=seed)
    mask = frozenset(params.tensor_names())
    state = nnet.OptimizerState.fresh(params, lr=lr)
    n = len(dataset.labels)

    for step in range(steps):
        state.lr = lr * 0.5 * (1.0 + np.cos(np.pi * step / steps))
        rows = rng.integers(0, n, size=batch_size)
        x0 = dataset.samples[rows]
        c = dataset.labels[rows].copy()
        c[rng.random(batch_size) < p_uncond] = params.null_id
        t = rng.integers(1, sched.T_train + 1, size=batch_size)
        eps = rng.standard_normal(x0.shape)
        a = sched.alpha_bar[t - 1][:, None]
        z_t = np.sqrt(a) * x0 + np.sqrt(1.0 - a) * eps

        eps_hat, tape = nnet.forward_batch(params, z_t, t, c)
        resid = eps_hat - eps
        loss = float((resid ** 2).sum() / batch_size)
        if not np.isfinite(loss):
            raise NumericalError(f"non-finite training loss at step {step}")
        grads = nnet.backward(tape, 2.0 * resid / batch_size)
        params = nnet.adamw_step(params, grads, mask, state)
        if loss_log is not None and (step % 50 == 0 or step == steps - 1):
            loss_log.append((step, loss))
    return params
