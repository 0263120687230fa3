"""Reference implementations that only the tests use.

Each is an independent or sequential path that a test compares the
package's own code against: the batch-1 forward, the DDIM descent with its
per-step record of states and eps (diffusion.descend keeps only the final
states), a batch-1 trajectory built on it, forward diffusion, a seeded
validation loss, zero parameter and gradient buffers, the three erase
losses as separate batch-1 evaluations (erasure.student_step makes one
two-row forward and one backward), the class direction evaluated on its
own, the frozen-model eps columns and CFG closure as forward_batch calls,
the nearest-rank percentile, the exact score and Bayes rate of a Gaussian
mixture, the dataset CSV writer through csv.writer, and the warmup rule as
a gate of its own (the config loader folds it into each window). Also the
operating point that tests build configs from when a value does not
matter to them, a snapshot callback for erase runs whose snapshots do not
matter, and one erase run from its config (erasure.erase_finetune takes a
built pass): the package's constructors take every value explicitly, and
the run-configuration table in persistence is the only default the
package itself keeps.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import logsumexp

from eraselab import nnet
from eraselab.diffusion import (GuidanceFn, NoiseSchedule, SamplerConfig,
                                conditional_eps, ddim_step)
from eraselab.erasure import EraseConfig, erase_finetune, teacher_pass
from eraselab.errors import ConfigError, NumericalError, StructuralError
from eraselab.guidance import _nearest_rank, cfg_compose
from eraselab.toyworld import Dataset, PointMixtureSpec

# ---------------------------------------------------------------------------
# Configs
# ---------------------------------------------------------------------------

# The points net's widths ([base] hidden unset, mode points2d).
POINTS_HIDDEN = (128, 128, 128)


def warmup_active(t, t_warmup: int, style: str, T: int) -> bool:
    """Whether the [erase] warmup rule lets delta act at sampler index t of
    T: literal from t_warmup up, sega up to T - t_warmup (the first
    t_warmup reverse steps are skipped)."""
    return t >= t_warmup if style == "literal" else t <= T - t_warmup


def erase_config(**fields) -> EraseConfig:
    """An EraseConfig at the paper's scales (gamma1 = gamma2 = 7.5, lambda
    5, 200 iterations, lr 2e-3) with no instructions; fields, erase_set
    among them, override."""
    return EraseConfig(**{
        "instructions": (), "replacement_id": None,
        "gamma1": 7.5, "gamma2": 7.5, "lam": 5.0, "n_iters": 200,
        "loss_kind": "ours",
        "trainable": None, "lr": 2e-3, "weight_decay": 0.0,
        "snapshot_every": 10, "seed": 0, **fields})


def drop_snapshot(iteration, student) -> None:
    """An on_snapshot for erasure.erase_finetune that keeps nothing."""


def erase(base: nnet.Parameters, cfg: EraseConfig, sched: NoiseSchedule,
          sampler: SamplerConfig, on_snapshot):
    """One erase run as the command line's erase makes it: the teacher pass
    of base and cfg, then erasure.erase_finetune over it."""
    return erase_finetune(base, teacher_pass(base, cfg, sched, sampler), cfg,
                          on_snapshot)


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------


def forward(params: nnet.Parameters, z: np.ndarray, t: int,
            c: int) -> tuple[np.ndarray, nnet.Tape]:
    """Single-sample eps prediction: eps_hat(z_t, c, t) plus its tape."""
    out, tape = nnet.forward_batch(params, np.asarray(z, dtype=np.float64)[None, :],
                                   t, c)
    return out[0], tape


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


def descend_recorded(Z: np.ndarray, sampler: SamplerConfig,
                     sched: NoiseSchedule, c: int, guid: GuidanceFn,
                     stop_index: int = 0) -> tuple[np.ndarray, list, list]:
    """diffusion.descend with a record of its history: returns (final
    states, the states at sampler indices T down to stop_index, the eps
    used to leave each of them but the last)."""
    states = [Z.copy()]
    eps_list = []
    for i in range(sampler.T, stop_index, -1):
        t_from = sampler.schedule_t(i)
        t_to = sampler.schedule_t(i - 1)
        eps_hat = guid(Z, i, t_from, c)
        Z = ddim_step(Z, eps_hat, t_from, t_to, sched)
        if not np.all(np.isfinite(Z)):
            raise NumericalError(f"non-finite state after DDIM step "
                                 f"{i} -> {i - 1} (t={t_from} -> {t_to})")
        eps_list.append(eps_hat.copy())
        states.append(Z.copy())
    return Z, states, eps_list


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
    _, states, eps_list = descend_recorded(Z, sampler, sched, c, guid,
                                           stop_index)
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
# Erasure losses
# ---------------------------------------------------------------------------


def concept_loss(student: nnet.Parameters, z_t: np.ndarray, schedule_t: int,
                 c: int, e_s_u: np.ndarray, target: np.ndarray,
                 gamma2: float) -> tuple[float, nnet.Parameters]:
    """||gamma2*(eps_s(z,c) - sg(e_s_u)) - target||^2 and its gradient,
    from a batch-1 forward of the conditional row; e_s_u is a constant."""
    e_s_c, tape_c = forward(student, z_t, schedule_t, c)
    resid = gamma2 * (e_s_c - e_s_u) - target
    return float(resid @ resid), nnet.backward(tape_c, 2.0 * gamma2 * resid[None])


def penalty_loss(tape_u: nnet.Tape,
                 anchor: np.ndarray) -> tuple[float, nnet.Parameters]:
    """||eps_s(z, null) - anchor||^2 and its gradient; tape_u is the tape of
    the student's batch-1 null-token forward."""
    resid = tape_u.output[0] - anchor
    return float(resid @ resid), nnet.backward(tape_u, 2.0 * resid[None])


def baseline_loss(student: nnet.Parameters, z_t: np.ndarray, schedule_t: int,
                  c: int, target: np.ndarray) -> tuple[float, nnet.Parameters]:
    """||eps_s(z, c) - target||^2 and its gradient (the esd and sdd loss),
    from a batch-1 forward."""
    e_s_c, tape_c = forward(student, z_t, schedule_t, c)
    resid = e_s_c - target
    return float(resid @ resid), nnet.backward(tape_c, 2.0 * resid[None])


# ---------------------------------------------------------------------------
# Guidance
# ---------------------------------------------------------------------------


def class_direction(params: nnet.Parameters, z: np.ndarray, t: int,
                    c: int) -> np.ndarray:
    """eps(z, c) - eps(z, null): the scaled class-posterior gradient, from
    one forward_batch over the rows [null, c] (the call shape of the erase
    student step and the teacher's targets)."""
    z = np.asarray(z, dtype=np.float64)
    e_u, e_c = nnet.forward_batch(params, np.stack([z, z]), t,
                                  (params.null_id, c))[0]
    return e_c - e_u


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
    log_w = np.log(1.0 / spec.n_components)      # equal weights
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
    weight = 1.0 / spec.n_components               # equal weights
    dens = np.empty((spec.n_components, grid.shape[0]))
    for k in range(spec.n_components):
        d2 = ((grid - means[k]) ** 2).sum(axis=1)
        dens[k] = weight * np.exp(-d2 / (2 * var)) / (2 * np.pi * var)
    return float(dens.max(axis=0).sum() * h * h)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

def dataset_to_csv(dataset: Dataset, path) -> None:
    """toyworld.dataset_to_csv through csv.writer, one float() per value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"x{i}" for i in range(dataset.dim)])
        for label, row in zip(dataset.labels, dataset.samples):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])
