"""Score composition: CFG, class directions, and the erasing signal delta.

delta is assembled per instruction concept from the class direction under
the supplied (frozen) parameters, gated by a sampler-index window and an
elementwise percentile bottleneck that keeps only the largest-magnitude
coordinates. Windows live in sampler-index space (1..T of the subsampled
DDIM sequence); the config loader folds the [erase] warmup rule into each
window. The network itself is always evaluated at the corresponding
schedule timestep.

The rollout closure composes eps_hat = eps_uncond + gamma*(eps_cond -
eps_uncond) + delta. Note the convention gap against cfg_compose: without
instructions, the rollout closure at gamma equals cfg_compose at gamma - 1.

delta and both closures sit on nnet.eps_columns, which evaluates every
distinct concept of every row once, in one tape-free pass. Rows may carry
their own concept, sampler index and schedule timestep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import nnet
from .diffusion import GuidanceFn
from .errors import ConfigError, StructuralError


@dataclass(frozen=True)
class InstructionConcept:
    """One term of the erasing signal: concept, signed weight, window, kappa."""

    concept_id: int
    g_c: float
    t_high: int
    t_low: int
    kappa: float

    def __post_init__(self):
        # sampler indices run 1..T, so a window with t_low < 1 never opens
        if not 0 <= self.t_high <= self.t_low or self.t_low < 1:
            raise ConfigError(f"need 0 <= t_high <= t_low and t_low >= 1, "
                              f"got [{self.t_high}, {self.t_low}]")
        if not 0.0 <= self.kappa <= 1.0:
            raise ConfigError(f"kappa must lie in [0, 1], got {self.kappa}")
        if not np.isfinite(self.g_c):
            raise ConfigError(f"g_c must be finite, got {self.g_c}")

    def in_window(self, t):
        """Whether sampler index t (an int or an array) lies in the window."""
        return (self.t_high <= t) & (t <= self.t_low)


def cfg_compose(eps_uncond: np.ndarray, eps_cond: np.ndarray,
                gamma: float) -> np.ndarray:
    """(1 + gamma) * eps_cond - gamma * eps_uncond."""
    eps_uncond = np.asarray(eps_uncond, dtype=np.float64)
    eps_cond = np.asarray(eps_cond, dtype=np.float64)
    if eps_uncond.shape != eps_cond.shape:
        raise StructuralError(f"shape mismatch: {eps_uncond.shape} vs "
                              f"{eps_cond.shape}")
    return (1.0 + gamma) * eps_cond - gamma * eps_uncond


def _nearest_rank(kappa: float, n: int) -> int:
    """Nearest-rank index of the kappa percentile among n sorted values."""
    return int(np.clip(np.ceil(kappa * n) - 1, 0, n - 1))


def _mask_rows(abs_delta: np.ndarray, kappa: float) -> np.ndarray:
    """Per-row percentile bottleneck mask: 1 where |delta| >= threshold."""
    idx = _nearest_rank(kappa, abs_delta.shape[1])
    thresh = np.sort(abs_delta, axis=1)[:, idx][:, None]
    return (abs_delta >= thresh).astype(np.float64)


def _guided_terms(params: nnet.Parameters, Z: np.ndarray, sampler_index,
                  schedule_t, c, instructions: Sequence[InstructionConcept]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eps_uncond, eps_cond, delta) at states Z of shape (n, d).

    One nnet.eps_columns call evaluates, per row, the null token, c and the
    concept of each instruction whose window is open at the row's sampler
    index, each distinct concept once. c, sampler_index and schedule_t may
    be scalars or per-row vectors.

    delta = sum over open instructions of g_c * mask * (eps(z, c'') -
    eps(z, null)), where mask keeps coordinates with |direction| at or
    above the kappa percentile of the row.
    """
    n = Z.shape[0]
    for ins in instructions:
        if not 0 <= ins.concept_id < params.n_concepts:
            raise ConfigError(f"instruction concept id {ins.concept_id} not in "
                              f"0..{params.n_concepts - 1}")
    index = np.broadcast_to(np.asarray(sampler_index), (n,))
    gates = [ins.in_window(index) for ins in instructions]
    e_u, e_c, *e_ins = nnet.eps_columns(
        params, Z, schedule_t, [params.null_id, c] + [
            np.where(gate, ins.concept_id, -1)
            for ins, gate in zip(instructions, gates)])
    out = np.zeros_like(Z)
    for ins, gate, e_i in zip(instructions, gates, e_ins):
        if gate.any():
            direction = e_i[gate] - e_u[gate]
            mask = _mask_rows(np.abs(direction), ins.kappa)
            out[gate] += ins.g_c * mask * direction
    return e_u, e_c, out


def delta(instructions: Sequence[InstructionConcept], Z: np.ndarray,
          sampler_index, schedule_t, params: nnet.Parameters) -> np.ndarray:
    """Erasing signal for states Z of shape (n, d).

    sum over instructions of g_c * mask * (eps(z, c'') - eps(z, null)),
    where mask keeps coordinates with |direction| at or above the kappa
    percentile of the current state, and an instruction contributes only
    when the sampler index lies in its window. The network is evaluated at
    schedule_t. sampler_index and schedule_t may be one per row.
    """
    return _guided_terms(params, np.asarray(Z, dtype=np.float64), sampler_index,
                         schedule_t, params.null_id, instructions)[2]


def cfg_guidance(params: nnet.Parameters, gamma: float) -> GuidanceFn:
    """Sampling closure for plain CFG: (1+gamma)*eps_c - gamma*eps_uncond."""
    def guid(Z, sampler_index, schedule_t, c):
        e_c, e_u = nnet.eps_columns(params, Z, schedule_t, [c, params.null_id])
        return cfg_compose(e_u, e_c, gamma)
    return guid


def rollout_guidance(params: nnet.Parameters, gamma1: float,
                     instructions: Sequence[InstructionConcept]) -> GuidanceFn:
    """Sampling closure for the erasure rollout: eps_uncond + gamma1 *
    (eps_cond - eps_uncond) + delta, with c one concept id per row or one
    for all."""
    def guid(Z, sampler_index, schedule_t, c):
        e_u, e_c, signal = _guided_terms(params, Z, sampler_index, schedule_t,
                                         c, instructions)
        out = e_u + gamma1 * (e_c - e_u)
        if instructions:
            out = out + signal
        return out
    return guid
