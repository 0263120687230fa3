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

Both terms read the same two student evaluations, eps(z, null) and
eps(z, c), so one iteration of the student is one forward over the rows
[null, c] and one backward (student_step). The teacher's targets come from
the same two-row call at each state, so a student equal to the teacher
reproduces them bit for bit.

Nothing the teacher computes depends on the student, so teacher_pass
computes the teacher's side of every iteration first: all rollouts as one
batched descent, then the targets at every rollout state. The descent keeps
one state per iteration, taken as it passes that iteration's t, and no
trajectory. erase_finetune takes the pass and runs the student steps alone.

Each snapshot goes to the caller's on_snapshot when the loop takes it, and
the loop keeps no list of them, so a run holds one student at a time
however many snapshots it takes (cli erase writes each one to disk at once).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import diffusion as df
from . import guidance as gd
from . import nnet
from .errors import ConfigError, NumericalError

LOSS_KINDS = ("ours", "esd", "sdd")


@dataclass(frozen=True)
class EraseConfig:
    erase_set: tuple[int, ...]
    instructions: tuple[gd.InstructionConcept, ...]
    replacement_id: Optional[int]
    gamma1: float
    gamma2: float
    lam: float
    n_iters: int
    loss_kind: str
    trainable: Optional[tuple[str, ...]]
    lr: float
    weight_decay: float
    snapshot_every: int
    seed: int

    def __post_init__(self):
        if len(self.erase_set) == 0:
            raise ConfigError("erase_set must name at least one concept")
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.loss_kind!r}")
        if self.replacement_id is not None and self.loss_kind != "ours":
            raise ConfigError(f"a replacement concept needs loss kind 'ours', "
                              f"got {self.loss_kind!r}")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.n_iters < 1:
            raise ConfigError(f"n_iters must be >= 1, got {self.n_iters}")
        if self.trainable is not None and len(self.trainable) == 0:
            raise ConfigError("at least one tensor must stay trainable")

    def mask_for(self, names: Sequence[str]) -> frozenset[str]:
        """The training mask over a model with these tensor names."""
        if self.trainable is None:
            return frozenset(names)
        bad = [n for n in self.trainable if n not in names]
        if bad:
            raise ConfigError(f"unknown trainable tensors {bad}; known: "
                              f"{sorted(names)}")
        return frozenset(self.trainable)


@dataclass
class LossBreakdown:
    concept: float
    penalty: float
    total: float

    def __post_init__(self):
        vals = (self.concept, self.penalty, self.total)
        if not all(np.isfinite(v) for v in vals):
            raise NumericalError(f"non-finite loss breakdown {vals}")


def _null_and_concept(params: nnet.Parameters, z: np.ndarray, t,
                      c) -> tuple[np.ndarray, nnet.Tape]:
    """forward_batch over the rows [null, c] at one state: the call that the
    student step and the teacher's targets share, so that equal parameters
    give equal bits (a batch-1 forward can round differently)."""
    return nnet.forward_batch(params, np.stack([z, z]), t, (params.null_id, c))


def teacher_targets(teacher: nnet.Parameters, cfg: EraseConfig, z_t: np.ndarray,
                    t_index, schedule_t, c) -> tuple[np.ndarray, np.ndarray]:
    """(target, anchor): the frozen teacher's side of the losses at the
    (n, d) states z_t.

    Row r is evaluated at sampler index t_index[r], schedule timestep
    schedule_t[r] and concept c[r]; scalars apply to every row.
    anchor = eps_teacher(z, null) is the penalty's target. target is, for
    ours, gamma1 * the teacher's class direction (under c plus delta; under
    the replacement concept, no delta, when cfg names one);
    for esd, eps_u - gamma1 * (eps_c - eps_u); for sdd, eps_u.

    eps_u and eps_c come row by row from the two-row call of student_step.
    A student equal to the teacher then gets exactly zero residuals, and
    AdamW, which divides by the gradient's own scale, never sees rounding
    noise in place of a zero gradient. delta is evaluated for all rows at
    once.
    """
    Z = np.asarray(z_t, dtype=np.float64)
    teacher_c = c if cfg.replacement_id is None else cfg.replacement_id
    t_rows = np.broadcast_to(schedule_t, (len(Z),))
    c_rows = np.broadcast_to(teacher_c, (len(Z),))
    eps = np.array([_null_and_concept(teacher, z, t, k)[0]
                    for z, t, k in zip(Z, t_rows, c_rows)])
    e_u, e_c = eps[:, 0], eps[:, 1]
    if cfg.loss_kind == "ours":
        target = cfg.gamma1 * (e_c - e_u)
        if cfg.replacement_id is None and cfg.instructions:
            target = target + gd.delta(cfg.instructions, Z, t_index, schedule_t,
                                       teacher)
    elif cfg.loss_kind == "esd":
        target = e_u - cfg.gamma1 * (e_c - e_u)
    else:
        target = e_u
    return target, e_u


def student_step(student: nnet.Parameters, z_t: np.ndarray, schedule_t: int,
                 c: int, target: np.ndarray, anchor: np.ndarray,
                 cfg: EraseConfig) -> tuple[LossBreakdown, nnet.Parameters]:
    """The student's losses at one rollout state and the gradient of
    their total.

    For ours, with e_u = eps_s(z, null) and e_c = eps_s(z, c),

        concept = ||r_c||^2,  r_c = gamma2 * (e_c - sg(e_u)) - target
        penalty = ||r_u||^2,  r_u = e_u - anchor

    and the total is concept + lam * penalty. e_u enters r_c as a constant
    (stop-gradient), so the concept term's gradient flows only through the
    conditional row. esd and sdd have concept = ||e_c - target||^2 and no
    penalty. Both rows come from one forward, and the gradient from one
    backward with the upstream [2 lam r_u, 2 gamma2 r_c] (esd/sdd:
    [0, 2 r_c]). target and anchor come from teacher_targets.
    """
    (e_u, e_c), tape = _null_and_concept(student, z_t, schedule_t, c)
    if cfg.loss_kind == "ours":
        r_u = e_u - anchor
        r_c = cfg.gamma2 * (e_c - e_u) - target
        upstream = (2.0 * cfg.lam * r_u, 2.0 * cfg.gamma2 * r_c)
    else:
        r_u = np.zeros_like(e_u)
        r_c = e_c - target
        upstream = (r_u, 2.0 * r_c)
    concept, penalty = float(r_c @ r_c), float(r_u @ r_u)
    return (LossBreakdown(concept, penalty, concept + cfg.lam * penalty),
            nnet.backward(tape, np.stack(upstream)))


@dataclass(frozen=True)
class TeacherPass:
    """The teacher's side of every iteration; row k is iteration k + 1."""

    t_index: np.ndarray     # (n_iters,) sampler index
    concept: np.ndarray     # (n_iters,) concept id
    schedule_t: np.ndarray  # (n_iters,) schedule timestep
    z_t: np.ndarray         # (n_iters, d) rollout state at t_index
    target: np.ndarray      # (n_iters, d) teacher_targets
    anchor: np.ndarray      # (n_iters, d) eps_teacher(z_t, null)


def teacher_pass(teacher: nnet.Parameters, cfg: EraseConfig,
                 sched: df.NoiseSchedule,
                 sampler: df.SamplerConfig) -> TeacherPass:
    """Draw (t_index, c, z_T) for every iteration in the loop's RNG order,
    roll all rows down in one descent, then take every row's targets.

    The descent runs to the lowest t_index and keeps no history: as it
    passes sampler index i, the guidance closure copies the state of every
    row whose t_index is i (z_T when t_index is T), and the rows at the
    lowest index take the descent's result.
    """
    rng = np.random.default_rng(cfg.seed)
    n, T = cfg.n_iters, sampler.T
    t_index = np.empty(n, dtype=np.int64)
    concept = np.empty(n, dtype=np.int64)
    Z_T = np.empty((n, teacher.shape.input_dim))
    for k in range(n):
        t_index[k] = rng.integers(1, T + 1)
        concept[k] = cfg.erase_set[rng.integers(0, len(cfg.erase_set))]
        Z_T[k] = rng.standard_normal(teacher.shape.input_dim)
    rollout_ins = cfg.instructions if cfg.loss_kind == "ours" \
        and cfg.replacement_id is None else ()
    guid = gd.rollout_guidance(teacher, cfg.gamma1, rollout_ins)
    z_t = np.empty_like(Z_T)

    def keep_and_guide(Z, sampler_index, schedule_t, c):
        rows = t_index == sampler_index
        z_t[rows] = Z[rows]
        return guid(Z, sampler_index, schedule_t, c)

    stop = int(t_index.min())
    last = t_index == stop
    z_t[last] = df.descend(Z_T, sampler, sched, concept, keep_and_guide,
                           stop_index=stop)[last]
    schedule_t = np.asarray(sampler.tau)[t_index - 1]
    target, anchor = teacher_targets(teacher, cfg, z_t, t_index, schedule_t,
                                     concept)
    return TeacherPass(t_index, concept, schedule_t, z_t, target, anchor)


def erase_finetune(base: nnet.Parameters, teacher: TeacherPass,
                   cfg: EraseConfig,
                   on_snapshot: Callable[[int, nnet.Parameters], None]
                   ) -> tuple[nnet.Parameters, list]:
    """Guided fine-tuning loop over a built teacher pass: per row of
    teacher, the student's losses and their gradient at the row's x_t
    (student_step), then one AdamW step. The loop never writes into
    teacher, so runs may share one; teacher must come from base and from a
    config that differs from cfg only in student values (gamma2, lam, lr,
    weight_decay, trainable, snapshot_every). Every cfg.snapshot_every
    iterations the loop calls on_snapshot(iteration, student) and keeps
    nothing of the snapshot, so the caller decides whether to write it,
    keep it (the parameters are never written again) or drop it. Returns
    the student and one (iteration, t_index, LossBreakdown) row per
    iteration.

    cfg's concept ids are taken as ids of base's concepts: the config
    loader resolves them by name in the vocab, and the command line checks
    a checkpoint's concept count against that vocab when it reads it.
    """
    # An AdamW step builds new parameters and never writes into old ones,
    # so the student may start as base itself and on_snapshot may keep the
    # student it is handed without a copy.
    student = base
    mask = cfg.mask_for(student.tensor_names())
    state = nnet.OptimizerState.fresh(student, lr=cfg.lr,
                                      weight_decay=cfg.weight_decay)
    log = []

    for k in range(len(teacher.t_index)):
        it, z_t = k + 1, teacher.z_t[k]
        schedule_t, c = int(teacher.schedule_t[k]), int(teacher.concept[k])
        breakdown, grads = student_step(student, z_t, schedule_t, c,
                                        teacher.target[k], teacher.anchor[k],
                                        cfg)
        try:
            student = nnet.adamw_step(student, grads, mask, state)
        except NumericalError as exc:
            raise NumericalError(f"iteration {it}: {exc}") from exc
        log.append((it, int(teacher.t_index[k]), breakdown))
        if it % cfg.snapshot_every == 0:
            on_snapshot(it, student)
    return student, log
