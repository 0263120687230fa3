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
    slack: float = 0.0
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
        if self.slack != 0.0:
            raise ConfigError("slack is fixed at 0")
        if self.n_iters < 1:
            raise ConfigError(f"n_iters must be >= 1, got {self.n_iters}")
        if self.sampler_T < 1:
            raise ConfigError(f"sampler_T must be >= 1, got {self.sampler_T}")
        if self.trainable is not None and len(self.trainable) == 0:
            raise ConfigError("at least one tensor must stay trainable")

    def mask_for(self, params: nnet.Parameters) -> nnet.TrainMask:
        if self.trainable is None:
            return nnet.TrainMask.all_tensors(params)
        known = set(params.tensor_names())
        bad = [n for n in self.trainable if n not in known]
        if bad:
            raise ConfigError(f"unknown trainable tensors {bad}; known: "
                              f"{sorted(known)}")
        return nnet.TrainMask.only(self.trainable)

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

    def append(self, iteration: int, t_index: int, loss: LossBreakdown) -> None:
        self.iterations.append((iteration, t_index, loss))


def concept_loss(student: nnet.Parameters, teacher: nnet.Parameters,
                 z_t: np.ndarray, sampler_index: int, schedule_t: int, c: int,
                 cfg: EraseConfig) -> tuple[float, nnet.GradientBuffer]:
    """||gamma2*(eps_s(z,c) - sg(eps_s(z,null))) - target||^2.

    target = gamma1 * teacher class direction (under c, plus delta, in
    delta mode; under the replacement concept, no delta, in explicit mode).
    Gradient flows only through the student's conditional evaluation: the
    unconditional branch enters as a constant (stop-gradient) and the
    teacher is frozen by construction.
    """
    z_t = np.asarray(z_t, dtype=np.float64)
    e_s_c, tape_c = nnet.forward(student, z_t, schedule_t, c)
    e_s_u, _ = nnet.forward(student, z_t, schedule_t, student.null_id)

    teacher_c = cfg.replacement_id if cfg.replacement_mode == "explicit" else c
    e_t_c, _ = nnet.forward(teacher, z_t, schedule_t, teacher_c)
    e_t_u, _ = nnet.forward(teacher, z_t, schedule_t, teacher.null_id)
    target = cfg.gamma1 * (e_t_c - e_t_u)
    if cfg.replacement_mode == "delta" and cfg.instructions:
        target = target + gd.delta(cfg.instructions, z_t, sampler_index,
                                   schedule_t, teacher, cfg.warmup)

    resid = cfg.gamma2 * (e_s_c - e_s_u) - target
    loss = float(resid @ resid)
    grads = nnet.backward(tape_c, 2.0 * cfg.gamma2 * resid)
    return loss, grads


def penalty_loss(student: nnet.Parameters, teacher: nnet.Parameters,
                 z_t: np.ndarray, schedule_t: int) -> tuple[float, nnet.GradientBuffer]:
    """||eps_s(z, null) - eps_t(z, null)||^2 with full student gradient."""
    z_t = np.asarray(z_t, dtype=np.float64)
    e_s_u, tape_u = nnet.forward(student, z_t, schedule_t, student.null_id)
    e_t_u, _ = nnet.forward(teacher, z_t, schedule_t, teacher.null_id)
    resid = e_s_u - e_t_u
    loss = float(resid @ resid)
    grads = nnet.backward(tape_u, 2.0 * resid)
    return loss, grads


def baseline_loss(kind: str, student: nnet.Parameters, teacher: nnet.Parameters,
                  z_t: np.ndarray, schedule_t: int, c: int,
                  gamma: float) -> tuple[float, nnet.GradientBuffer]:
    """esd: pull eps_s(z,c) to the teacher's negatively guided prediction;
    sdd: pull it to the teacher's unconditional prediction."""
    if kind not in ("esd", "sdd"):
        raise ConfigError(f"unknown baseline kind {kind!r}")
    z_t = np.asarray(z_t, dtype=np.float64)
    e_s_c, tape_c = nnet.forward(student, z_t, schedule_t, c)
    e_t_u, _ = nnet.forward(teacher, z_t, schedule_t, teacher.null_id)
    if kind == "esd":
        e_t_c, _ = nnet.forward(teacher, z_t, schedule_t, c)
        target = e_t_u - gamma * (e_t_c - e_t_u)
    else:
        target = e_t_u
    resid = e_s_c - target
    loss = float(resid @ resid)
    grads = nnet.backward(tape_c, 2.0 * resid)
    return loss, grads


def erase_finetune(base: nnet.Parameters, cfg: EraseConfig,
                   sched: df.NoiseSchedule,
                   vocab: ConceptVocab) -> tuple[nnet.Parameters, EraseRunLog]:
    """Guided fine-tuning loop.

    Per iteration: t ~ U{1..T} in sampler-index space, c ~ erase set, fresh
    x_T ~ N(0, I); the frozen teacher rolls down to x_t under guided
    prediction, the losses are evaluated at x_t, and the student takes one
    AdamW step. Snapshots are taken every cfg.snapshot_every iterations.
    """
    cfg.validate_ids(vocab)
    if vocab.size != base.n_concepts:
        raise ConfigError(f"vocab size {vocab.size} != model concepts "
                          f"{base.n_concepts}")
    if cfg.warmup.style == "sega" and cfg.warmup.sampler_T != cfg.sampler_T:
        raise ConfigError(f"warmup counts down from {cfg.warmup.sampler_T} "
                          f"but the sampler has {cfg.sampler_T} steps")

    teacher = base.copy()
    student = base.copy()
    mask = cfg.mask_for(student)
    state = nnet.OptimizerState.fresh(student, lr=cfg.lr,
                                      weight_decay=cfg.weight_decay)
    sampler = df.SamplerConfig.uniform(cfg.sampler_T, sched.T_train)
    rollout_ins = cfg.instructions if cfg.loss_kind == "ours" \
        and cfg.replacement_mode == "delta" else ()
    guid = gd.rollout_guidance(teacher, cfg.gamma1, rollout_ins, cfg.warmup)
    rng = np.random.default_rng(cfg.seed)
    log = EraseRunLog()

    for it in range(1, cfg.n_iters + 1):
        t_index = int(rng.integers(1, cfg.sampler_T + 1))
        c = int(cfg.erase_set[rng.integers(0, len(cfg.erase_set))])
        z_T = rng.standard_normal((1, base.shape.input_dim))
        if t_index == cfg.sampler_T:
            z_t = z_T[0]
        else:
            z_t = df.descend(z_T, sampler, sched, c, guid,
                             stop_index=t_index)[0][0]
        schedule_t = sampler.schedule_t(t_index)

        if cfg.loss_kind == "ours":
            c_loss, grads = concept_loss(student, teacher, z_t, t_index,
                                         schedule_t, c, cfg)
            p_loss, p_grads = penalty_loss(student, teacher, z_t, schedule_t)
            grads.add(p_grads, scale=cfg.lam)
            breakdown = LossBreakdown(c_loss, p_loss, c_loss + cfg.lam * p_loss)
        else:
            c_loss, grads = baseline_loss(cfg.loss_kind, student, teacher,
                                          z_t, schedule_t, c, cfg.gamma1)
            breakdown = LossBreakdown(c_loss, 0.0, c_loss)

        try:
            student = nnet.adamw_step(student, grads, mask, state)
        except NumericalError as exc:
            raise NumericalError(f"iteration {it}: {exc}") from exc
        log.append(it, t_index, breakdown)
        if cfg.snapshot_every and it % cfg.snapshot_every == 0:
            log.snapshots.append((it, student.copy()))
    return student, log
