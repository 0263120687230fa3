"""Concept-erasure losses and the guided fine-tuning loop.

A frozen teacher (the pre-erasure model) supervises a student initialized
from the same weights. Per iteration the teacher rolls a fresh trajectory
partway down under guided prediction (CFG plus the erasing signal delta),
and the student takes one optimizer step on

    L = L_concept + lambda * L_penalty

where L_concept pulls the student's class direction toward the teacher's
delta-shifted one (stop-gradient on the student's unconditional branch)
and L_penalty anchors the student's unconditional prediction to the
teacher's. esd/sdd baseline losses replace L_concept for comparison runs
and ignore lambda.

Nothing the teacher computes depends on the student, so erase_finetune
computes the teacher's side of every iteration first: all rollouts as one
batched descent, then the targets at every rollout state. The sequential
loop keeps only the student's forwards, its backward and AdamW.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import diffusion as df
from . import guidance as gd
from . import nnet
from .errors import ConfigError, NumericalError
from .toyworld import ConceptVocab

LOSS_KINDS = ("ours", "esd", "sdd")
REPLACEMENT_MODES = ("delta", "explicit")


@dataclass(frozen=True)
class EraseConfig:
    erase_set: tuple[int, ...]
    instructions: tuple[gd.InstructionConcept, ...] = ()
    replacement_mode: str = "delta"
    replacement_id: Optional[int] = None
    gamma1: float = 7.5
    gamma2: float = 7.5
    lam: float = 5.0
    n_iters: int = 200
    sampler_T: int = 35
    warmup: gd.WarmupRule = field(default_factory=gd.WarmupRule)
    loss_kind: str = "ours"
    trainable: Optional[tuple[str, ...]] = None
    lr: float = 2e-3
    weight_decay: float = 0.0
    snapshot_every: int = 10
    seed: int = 0

    def __post_init__(self):
        if len(self.erase_set) == 0:
            raise ConfigError("erase_set must name at least one concept")
        if self.replacement_mode not in REPLACEMENT_MODES:
            raise ConfigError(f"unknown replacement mode {self.replacement_mode!r}")
        if self.replacement_mode == "explicit" and self.replacement_id is None:
            raise ConfigError("explicit replacement mode needs replacement_id")
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.loss_kind!r}")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.n_iters < 1:
            raise ConfigError(f"n_iters must be >= 1, got {self.n_iters}")
        if self.sampler_T < 1:
            raise ConfigError(f"sampler_T must be >= 1, got {self.sampler_T}")
        if self.trainable is not None and len(self.trainable) == 0:
            raise ConfigError("at least one tensor must stay trainable")

    def mask_for(self, params: nnet.Parameters) -> frozenset[str]:
        if self.trainable is None:
            return frozenset(params.tensor_names())
        known = set(params.tensor_names())
        bad = [n for n in self.trainable if n not in known]
        if bad:
            raise ConfigError(f"unknown trainable tensors {bad}; known: "
                              f"{sorted(known)}")
        return frozenset(self.trainable)

    def validate_ids(self, vocab: ConceptVocab) -> None:
        for cid in self.erase_set:
            vocab.validate_id(cid)
        for ins in self.instructions:
            vocab.validate_id(ins.concept_id)
        if self.replacement_id is not None:
            vocab.validate_id(self.replacement_id, allow_null=True)


@dataclass
class LossBreakdown:
    concept: float
    penalty: float
    total: float

    def __post_init__(self):
        vals = (self.concept, self.penalty, self.total)
        if not all(np.isfinite(v) for v in vals):
            raise NumericalError(f"non-finite loss breakdown {vals}")
        if self.concept < 0 or self.penalty < 0:
            raise NumericalError(f"negative squared loss {vals}")


@dataclass
class EraseRunLog:
    iterations: list = field(default_factory=list)   # (iter, t_index, LossBreakdown)
    snapshots: list = field(default_factory=list)    # (iter, Parameters)


def teacher_targets(teacher: nnet.Parameters, cfg: EraseConfig, z_t: np.ndarray,
                    t_index, schedule_t, c) -> tuple[np.ndarray, np.ndarray]:
    """(target, anchor): the frozen teacher's side of the losses at z_t.

    Row r is evaluated at sampler index t_index[r], schedule timestep
    schedule_t[r] and concept c[r]; scalars apply to every row, and a 1-D
    z_t gives 1-D results. anchor = eps_teacher(z, null) is the penalty's
    target. target is, for ours, gamma1 * the teacher's class direction
    (under c plus delta in delta mode; under the replacement concept, no
    delta, in explicit mode); for esd, eps_u - gamma1 * (eps_c - eps_u);
    for sdd, eps_u.

    eps_c and eps_u are evaluated row by row, in the arithmetic of the
    student's own batch-1 forwards. A student equal to the teacher then
    gets an exactly zero residual, as in a per-iteration loop, and AdamW,
    which divides by the gradient's own scale, never sees rounding noise in
    place of a zero gradient. delta is evaluated for all rows at once.
    """
    Z = np.atleast_2d(np.asarray(z_t, dtype=np.float64))
    ours = cfg.loss_kind == "ours"
    teacher_c = cfg.replacement_id if ours \
        and cfg.replacement_mode == "explicit" else c
    t_rows = np.broadcast_to(schedule_t, (len(Z),))
    c_rows = np.broadcast_to(teacher_c, (len(Z),))
    e_u = np.array([nnet.forward(teacher, z, t, teacher.null_id)[0]
                    for z, t in zip(Z, t_rows)])
    e_c = np.array([nnet.forward(teacher, z, t, k)[0]
                    for z, t, k in zip(Z, t_rows, c_rows)])
    if ours:
        target = cfg.gamma1 * (e_c - e_u)
        if cfg.replacement_mode == "delta" and cfg.instructions:
            target = target + gd.delta(cfg.instructions, Z, t_index, schedule_t,
                                       teacher, cfg.warmup)
    elif cfg.loss_kind == "esd":
        target = e_u - cfg.gamma1 * (e_c - e_u)
    else:
        target = e_u
    if np.asarray(z_t).ndim == 1:
        return target[0], e_u[0]
    return target, e_u


def concept_loss(student: nnet.Parameters, z_t: np.ndarray, schedule_t: int,
                 c: int, e_s_u: np.ndarray, target: np.ndarray,
                 gamma2: float) -> tuple[float, nnet.Parameters]:
    """||gamma2*(eps_s(z,c) - sg(e_s_u)) - target||^2.

    e_s_u is the student's unconditional prediction at (z_t, schedule_t)
    and enters as a constant (stop-gradient); target comes from
    teacher_targets. Gradient flows only through the student's conditional
    evaluation.
    """
    e_s_c, tape_c = nnet.forward(student, z_t, schedule_t, c)
    resid = gamma2 * (e_s_c - e_s_u) - target
    loss = float(resid @ resid)
    grads = nnet.backward(tape_c, 2.0 * gamma2 * resid)
    return loss, grads


def penalty_loss(tape_u: nnet.Tape,
                 anchor: np.ndarray) -> tuple[float, nnet.Parameters]:
    """||eps_s(z, null) - anchor||^2 with full student gradient.

    tape_u is the tape of the student's null-token forward at one state.
    """
    resid = tape_u.output[0] - anchor
    loss = float(resid @ resid)
    grads = nnet.backward(tape_u, 2.0 * resid)
    return loss, grads


def baseline_loss(student: nnet.Parameters, z_t: np.ndarray, schedule_t: int,
                  c: int, target: np.ndarray) -> tuple[float, nnet.Parameters]:
    """||eps_s(z, c) - target||^2 for the esd and sdd targets of
    teacher_targets."""
    e_s_c, tape_c = nnet.forward(student, z_t, schedule_t, c)
    resid = e_s_c - target
    loss = float(resid @ resid)
    grads = nnet.backward(tape_c, 2.0 * resid)
    return loss, grads


@dataclass(frozen=True)
class TeacherPass:
    """The teacher's side of every iteration; row k is iteration k + 1."""

    t_index: np.ndarray     # (n_iters,) sampler index
    concept: np.ndarray     # (n_iters,) concept id
    schedule_t: np.ndarray  # (n_iters,) schedule timestep
    z_t: np.ndarray         # (n_iters, d) rollout state at t_index
    target: np.ndarray      # (n_iters, d) teacher_targets
    anchor: np.ndarray      # (n_iters, d) eps_teacher(z_t, null)


def _teacher_pass(teacher: nnet.Parameters, cfg: EraseConfig,
                  sched: df.NoiseSchedule,
                  sampler: df.SamplerConfig) -> TeacherPass:
    """Draw (t_index, c, z_T) for every iteration in the loop's RNG order,
    roll all rows down in one descent, then take every row's targets.

    The descent runs to the lowest t_index and records every state; row r
    keeps the state at its own t_index (z_T when t_index is T).
    """
    rng = np.random.default_rng(cfg.seed)
    n, T = cfg.n_iters, cfg.sampler_T
    t_index = np.empty(n, dtype=np.int64)
    concept = np.empty(n, dtype=np.int64)
    Z_T = np.empty((n, teacher.shape.input_dim))
    for k in range(n):
        t_index[k] = rng.integers(1, T + 1)
        concept[k] = cfg.erase_set[rng.integers(0, len(cfg.erase_set))]
        Z_T[k] = rng.standard_normal(teacher.shape.input_dim)
    rollout_ins = cfg.instructions if cfg.loss_kind == "ours" \
        and cfg.replacement_mode == "delta" else ()
    guid = gd.rollout_guidance(teacher, cfg.gamma1, rollout_ins, cfg.warmup)
    _, states, _ = df.descend(Z_T, sampler, sched, concept, guid,
                              stop_index=int(t_index.min()), record=True)
    z_t = np.array([states[T - t][k] for k, t in enumerate(t_index)])
    schedule_t = np.asarray(sampler.tau)[t_index - 1]
    target, anchor = teacher_targets(teacher, cfg, z_t, t_index, schedule_t,
                                     concept)
    return TeacherPass(t_index, concept, schedule_t, z_t, target, anchor)


def erase_finetune(base: nnet.Parameters, cfg: EraseConfig,
                   sched: df.NoiseSchedule,
                   vocab: ConceptVocab) -> tuple[nnet.Parameters, EraseRunLog]:
    """Guided fine-tuning loop.

    Per iteration: t ~ U{1..T} in sampler-index space, c ~ erase set, fresh
    x_T ~ N(0, I); the frozen teacher rolls down to x_t under guided
    prediction, the losses are evaluated at x_t, and the student takes one
    AdamW step. The teacher's side of all iterations is computed up front
    (_teacher_pass). Snapshots are taken every cfg.snapshot_every iterations.
    """
    cfg.validate_ids(vocab)
    if vocab.size != base.n_concepts:
        raise ConfigError(f"vocab size {vocab.size} != model concepts "
                          f"{base.n_concepts}")
    if cfg.warmup.style == "sega" and cfg.warmup.sampler_T != cfg.sampler_T:
        raise ConfigError(f"warmup counts down from {cfg.warmup.sampler_T} "
                          f"but the sampler has {cfg.sampler_T} steps")

    # An AdamW step builds new parameters and never writes into old ones,
    # so the student may start as base itself and snapshots need no copy.
    student = base
    mask = cfg.mask_for(student)
    state = nnet.OptimizerState.fresh(student, lr=cfg.lr,
                                      weight_decay=cfg.weight_decay)
    sampler = df.SamplerConfig.uniform(cfg.sampler_T, sched.T_train)
    teacher = _teacher_pass(base, cfg, sched, sampler)
    log = EraseRunLog()

    for k in range(cfg.n_iters):
        it, z_t = k + 1, teacher.z_t[k]
        schedule_t, c = int(teacher.schedule_t[k]), int(teacher.concept[k])
        if cfg.loss_kind == "ours":
            e_s_u, tape_u = nnet.forward(student, z_t, schedule_t,
                                         student.null_id)
            c_loss, grads = concept_loss(student, z_t, schedule_t, c, e_s_u,
                                         teacher.target[k], cfg.gamma2)
            p_loss, p_grads = penalty_loss(tape_u, teacher.anchor[k])
            grads.flat += cfg.lam * p_grads.flat
            breakdown = LossBreakdown(c_loss, p_loss, c_loss + cfg.lam * p_loss)
        else:
            c_loss, grads = baseline_loss(student, z_t, schedule_t, c,
                                          teacher.target[k])
            breakdown = LossBreakdown(c_loss, 0.0, c_loss)

        try:
            student = nnet.adamw_step(student, grads, mask, state)
        except NumericalError as exc:
            raise NumericalError(f"iteration {it}: {exc}") from exc
        log.iterations.append((it, int(teacher.t_index[k]), breakdown))
        if cfg.snapshot_every and it % cfg.snapshot_every == 0:
            log.snapshots.append((it, student))
    return student, log
