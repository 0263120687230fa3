"""Erasure losses, stop-gradient soundness, and the fine-tuning loop."""

import numpy as np
import pytest

from eraselab import diffusion as df
from eraselab import erasure as er
from eraselab import guidance as gd
from eraselab import nnet
from eraselab import toyworld as tw
from eraselab.errors import ConfigError

import oracles


def tiny_setup(seed=0, n_concepts=3):
    shape = nnet.NetworkShape(input_dim=2, hidden=(6,), time_embed_dim=4,
                              concept_embed_dim=4)
    params = nnet.init_params(shape, n_concepts, seed=seed)
    sched = df.make_linear_schedule(20, 1e-4, 0.02)
    return params, sched


def small_vocab(n=3):
    return tw.ConceptVocab.from_names(tuple("abcdefgh"[:n]))


def run_config(**overrides):
    base = dict(erase_set=(0,), sampler_T=10, n_iters=4, seed=5)
    base.update(overrides)
    return er.EraseConfig(**base)


def window_instructions(kappa=0.5):
    return (gd.InstructionConcept(0, -7.5, 1, 10, kappa),
            gd.InstructionConcept(1, 6.5, 1, 10, kappa))


# The loss functions take the teacher's targets; these wrappers give them
# the former (student, teacher, state) signatures.
def concept_loss(student, teacher, z, t_index, schedule_t, c, cfg):
    target, _ = er.teacher_targets(teacher, cfg, z, t_index, schedule_t, c)
    e_s_u, _ = nnet.forward(student, z, schedule_t, student.null_id)
    return er.concept_loss(student, z, schedule_t, c, e_s_u, target,
                           cfg.gamma2)


def penalty_loss(student, teacher, z, schedule_t):
    _, anchor = er.teacher_targets(teacher, run_config(), z, 1, schedule_t, 0)
    _, tape_u = nnet.forward(student, z, schedule_t, student.null_id)
    return er.penalty_loss(tape_u, anchor)


def baseline_loss(kind, student, teacher, z, schedule_t, c, gamma):
    cfg = run_config(loss_kind=kind, gamma1=gamma)
    target, _ = er.teacher_targets(teacher, cfg, z, 1, schedule_t, c)
    return er.baseline_loss(student, z, schedule_t, c, target)


class TestEraseConfig:
    def test_empty_erase_set_rejected(self):
        with pytest.raises(ConfigError):
            er.EraseConfig(erase_set=())

    def test_unknown_mode_and_kind_rejected(self):
        with pytest.raises(ConfigError):
            er.EraseConfig(erase_set=(0,), replacement_mode="swap")
        with pytest.raises(ConfigError):
            er.EraseConfig(erase_set=(0,), loss_kind="mystery")

    def test_explicit_mode_needs_replacement_id(self):
        with pytest.raises(ConfigError):
            er.EraseConfig(erase_set=(0,), replacement_mode="explicit")
        er.EraseConfig(erase_set=(0,), replacement_mode="explicit",
                       replacement_id=1)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            er.EraseConfig(erase_set=(0,), lam=-0.5)

    def test_iteration_counts_must_be_positive(self):
        with pytest.raises(ConfigError):
            er.EraseConfig(erase_set=(0,), n_iters=0)
        with pytest.raises(ConfigError):
            er.EraseConfig(erase_set=(0,), sampler_T=0)

    def test_empty_trainable_tuple_rejected(self):
        with pytest.raises(ConfigError):
            er.EraseConfig(erase_set=(0,), trainable=())

    def test_unknown_trainable_tensor_rejected(self):
        params, _ = tiny_setup()
        cfg = run_config(trainable=("embed", "w9"))
        with pytest.raises(ConfigError):
            cfg.mask_for(params)

    def test_default_mask_covers_everything(self):
        params, _ = tiny_setup()
        mask = run_config().mask_for(params)
        assert all(n in mask for n in params.tensor_names())

    def test_id_validation_against_vocab(self):
        vocab = small_vocab(3)
        with pytest.raises(ConfigError):
            run_config(erase_set=(3,)).validate_ids(vocab)
        with pytest.raises(ConfigError):
            run_config(instructions=(gd.InstructionConcept(7, 1.0, 1, 10, 0.5),)
                       ).validate_ids(vocab)
        run_config(instructions=window_instructions()).validate_ids(vocab)


class TestConceptLoss:
    def test_matched_models_no_delta_zero_loss_zero_grad(self):
        params, sched = tiny_setup()
        rng = np.random.default_rng(1)
        cfg = run_config()
        for _ in range(5):
            z = rng.standard_normal(2)
            loss, grads = concept_loss(params, params, z, 3, 6, 0, cfg)
            assert loss == 0.0
            for name in params.tensor_names():
                np.testing.assert_array_equal(grads.get_tensor(name),
                                              np.zeros_like(params.get_tensor(name)))

    def test_matched_models_loss_is_signal_norm(self):
        params, sched = tiny_setup()
        cfg = run_config(instructions=window_instructions())
        rng = np.random.default_rng(2)
        for _ in range(5):
            z = rng.standard_normal(2)
            sig = gd.delta(cfg.instructions, z, 7, 14, params, cfg.warmup)
            assert sig @ sig > 0
            loss, _ = concept_loss(params, params, z, 7, 14, 0, cfg)
            assert loss == sig @ sig

    def test_explicit_replacement_closed_form(self):
        params, _ = tiny_setup()
        cfg = run_config(replacement_mode="explicit", replacement_id=2,
                         gamma1=3.0, gamma2=3.0)
        z = np.array([0.4, -1.1])
        e_c, _ = nnet.forward(params, z, 6, 0)
        e_r, _ = nnet.forward(params, z, 6, 2)
        expected = 3.0 * (e_c - e_r)
        loss, _ = concept_loss(params, params, z, 3, 6, 0, cfg)
        np.testing.assert_allclose(loss, expected @ expected, rtol=1e-12)

    def test_gradient_matches_frozen_branch_oracle(self):
        # The unconditional branch must act as a constant: finite
        # differences of the loss with that branch's output pinned should
        # reproduce the analytic gradient.
        rng = np.random.default_rng(3)
        teacher, sched = tiny_setup(seed=11)
        cfg = run_config(instructions=window_instructions(),
                         gamma1=7.5, gamma2=7.5)
        h = 1e-5
        for rep in range(10):
            student = nnet.init_params(teacher.shape, 3, seed=100 + rep)
            z = rng.standard_normal(2)
            t_index = int(rng.integers(1, 11))
            schedule_t = 2 * t_index
            c = int(rng.integers(0, 3))
            loss, grads = concept_loss(student, teacher, z, t_index,
                                          schedule_t, c, cfg)

            e_u_frozen, _ = nnet.forward(student, z, schedule_t,
                                         student.null_id)
            e_t_c, _ = nnet.forward(teacher, z, schedule_t, c)
            e_t_u, _ = nnet.forward(teacher, z, schedule_t, teacher.null_id)
            target = cfg.gamma1 * (e_t_c - e_t_u) + gd.delta(
                cfg.instructions, z, t_index, schedule_t, teacher, cfg.warmup)

            def frozen_loss(p):
                e_c, _ = nnet.forward(p, z, schedule_t, c)
                resid = cfg.gamma2 * (e_c - e_u_frozen) - target
                return float(resid @ resid)

            for name in student.tensor_names():
                arr = student.get_tensor(name)
                num = np.zeros_like(arr)
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    for sign, store in ((1.0, "plus"), (-1.0, "minus")):
                        bumped = student.copy()
                        v = bumped.get_tensor(name).copy()
                        v[idx] += sign * h
                        bumped.set_tensor(name, v)
                        if sign > 0:
                            f_plus = frozen_loss(bumped)
                        else:
                            f_minus = frozen_loss(bumped)
                    num[idx] = (f_plus - f_minus) / (2 * h)
                got = grads.get_tensor(name)
                err = np.abs(got - num) / np.maximum(1.0, np.abs(num))
                assert err.max() <= 1e-6, f"{name}: {err.max()}"

    def test_no_gradient_reaches_null_embedding_row(self):
        teacher, _ = tiny_setup(seed=11)
        student = nnet.init_params(teacher.shape, 3, seed=12)
        cfg = run_config()
        z = np.array([0.2, 0.9])
        loss, grads = concept_loss(student, teacher, z, 3, 6, 1, cfg)
        assert loss > 0
        np.testing.assert_array_equal(grads.get_tensor("embed")[student.null_id],
                                      np.zeros(4))
        # the naive (unfrozen) loss does feel that row, so the zero above
        # is the stop-gradient at work, not a vanishing sensitivity
        h = 1e-4

        def naive_loss(p):
            e_c, _ = nnet.forward(p, z, 6, 1)
            e_u, _ = nnet.forward(p, z, 6, p.null_id)
            e_t_c, _ = nnet.forward(teacher, z, 6, 1)
            e_t_u, _ = nnet.forward(teacher, z, 6, teacher.null_id)
            resid = cfg.gamma2 * (e_c - e_u) - cfg.gamma1 * (e_t_c - e_t_u)
            return float(resid @ resid)

        bumped = student.copy()
        v = bumped.get_tensor("embed").copy()
        v[student.null_id, 0] += h
        bumped.set_tensor("embed", v)
        lo = student.copy()
        w = lo.get_tensor("embed").copy()
        w[student.null_id, 0] -= h
        lo.set_tensor("embed", w)
        assert abs(naive_loss(bumped) - naive_loss(lo)) / (2 * h) > 1e-3


class TestPenaltyLoss:
    def test_zero_at_shared_parameters(self):
        params, _ = tiny_setup()
        rng = np.random.default_rng(4)
        for _ in range(8):
            z = rng.standard_normal(2)
            t = int(rng.integers(1, 21))
            loss, _ = penalty_loss(params, params, z, t)
            assert loss == 0.0

    def test_perturbation_raises_loss_with_matching_gradient_sign(self):
        teacher, _ = tiny_setup(seed=7)
        student = teacher.copy()
        v = student.get_tensor("b0").copy()
        v[2] += 1e-3
        student.set_tensor("b0", v)
        z = np.array([0.5, -0.7])
        loss, grads = penalty_loss(student, teacher, z, 9)
        assert loss > 0
        h = 1e-6
        plus = student.copy()
        vp = plus.get_tensor("b0").copy()
        vp[2] += h
        plus.set_tensor("b0", vp)
        minus = student.copy()
        vm = minus.get_tensor("b0").copy()
        vm[2] -= h
        minus.set_tensor("b0", vm)
        fd = (penalty_loss(plus, teacher, z, 9)[0]
              - penalty_loss(minus, teacher, z, 9)[0]) / (2 * h)
        got = grads.get_tensor("b0")[2]
        assert np.sign(got) == np.sign(fd)
        np.testing.assert_allclose(got, fd, rtol=1e-6)

    def test_only_null_embedding_row_receives_gradient(self):
        teacher, _ = tiny_setup(seed=7)
        student = nnet.init_params(teacher.shape, 3, seed=8)
        _, grads = penalty_loss(student, teacher, np.array([1.0, 0.3]), 5)
        g = grads.get_tensor("embed")
        np.testing.assert_array_equal(g[:3], np.zeros((3, 4)))
        assert np.abs(g[3]).max() > 0


class TestBaselineLoss:
    def test_esd_gamma_zero_equals_class_direction_norm(self):
        params, _ = tiny_setup()
        rng = np.random.default_rng(5)
        for _ in range(5):
            z = rng.standard_normal(2)
            loss, _ = baseline_loss("esd", params, params, z, 4, 1, 0.0)
            direction = oracles.class_direction(params, z, 4, 1)
            np.testing.assert_allclose(loss, direction @ direction, rtol=1e-14)

    def test_sdd_equals_class_direction_norm(self):
        params, _ = tiny_setup()
        z = np.array([-0.3, 0.8])
        loss, _ = baseline_loss("sdd", params, params, z, 4, 2, 0.0)
        direction = oracles.class_direction(params, z, 4, 2)
        np.testing.assert_allclose(loss, direction @ direction, rtol=1e-14)

    def test_unknown_kind_rejected(self):
        params, _ = tiny_setup()
        with pytest.raises(ConfigError):
            baseline_loss("ablate", params, params, np.zeros(2), 4, 0, 1.0)

    def test_gradient_matches_fixed_target_oracle(self):
        teacher, _ = tiny_setup(seed=9)
        student = nnet.init_params(teacher.shape, 3, seed=10)
        z = np.array([0.6, -0.2])
        loss, grads = baseline_loss("esd", student, teacher, z, 8, 0, 2.0)
        e_t_c, _ = nnet.forward(teacher, z, 8, 0)
        e_t_u, _ = nnet.forward(teacher, z, 8, teacher.null_id)
        target = e_t_u - 2.0 * (e_t_c - e_t_u)
        h = 1e-5
        for name in ("w1", "embed"):
            arr = student.get_tensor(name)
            num = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                vals = []
                for sign in (1.0, -1.0):
                    bumped = student.copy()
                    v = bumped.get_tensor(name).copy()
                    v[idx] += sign * h
                    bumped.set_tensor(name, v)
                    e_c, _ = nnet.forward(bumped, z, 8, 0)
                    resid = e_c - target
                    vals.append(float(resid @ resid))
                num[idx] = (vals[0] - vals[1]) / (2 * h)
            got = grads.get_tensor(name)
            err = np.abs(got - num) / np.maximum(1.0, np.abs(num))
            assert err.max() <= 1e-6


class TestGradientDecomposition:
    def test_total_gradient_is_concept_plus_scaled_penalty(self):
        teacher, _ = tiny_setup(seed=13)
        student = nnet.init_params(teacher.shape, 3, seed=14)
        cfg = run_config(instructions=window_instructions())
        z = np.array([0.1, -0.4])
        _, c_grads = concept_loss(student, teacher, z, 6, 12, 0, cfg)
        _, p_grads = penalty_loss(student, teacher, z, 12)
        for lam in (0.0, 1.0, 5.0):
            _, combined = concept_loss(student, teacher, z, 6, 12, 0, cfg)
            combined.flat += lam * p_grads.flat
            for name in student.tensor_names():
                expected = c_grads.get_tensor(name) + lam * p_grads.get_tensor(name)
                np.testing.assert_array_equal(combined.get_tensor(name), expected)


class TestResidualTriangleBound:
    def test_norm_of_sum_bounded_by_sum_of_norms(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            d = int(rng.integers(1, 8))
            u = rng.standard_normal(d)
            c = rng.standard_normal(d)
            lhs = np.linalg.norm(u + c)
            rhs = np.linalg.norm(u) + np.linalg.norm(c)
            assert lhs <= rhs + 1e-12


class TestEraseFinetune:
    def test_zero_learning_rate_is_identity(self):
        base, sched = tiny_setup()
        vocab = small_vocab()
        cfg = run_config(n_iters=1, lr=0.0)
        student, _ = er.erase_finetune(base, cfg, sched, vocab)
        for name in base.tensor_names():
            np.testing.assert_array_equal(student.get_tensor(name),
                                          base.get_tensor(name))

    def test_input_model_never_mutated(self):
        base, sched = tiny_setup()
        snapshot = base.copy()
        cfg = run_config(n_iters=5, instructions=window_instructions())
        er.erase_finetune(base, cfg, sched, small_vocab())
        for name in base.tensor_names():
            np.testing.assert_array_equal(base.get_tensor(name),
                                          snapshot.get_tensor(name))

    def test_masked_tensors_stay_bit_identical(self):
        base, sched = tiny_setup()
        cfg = run_config(n_iters=5, trainable=("embed",),
                         instructions=window_instructions())
        student, _ = er.erase_finetune(base, cfg, sched, small_vocab())
        for name in base.tensor_names():
            if name == "embed":
                assert np.abs(student.get_tensor(name)
                              - base.get_tensor(name)).max() > 0
            else:
                np.testing.assert_array_equal(student.get_tensor(name),
                                              base.get_tensor(name))

    def test_same_seed_same_result(self):
        base, sched = tiny_setup()
        cfg = run_config(n_iters=6, instructions=window_instructions())
        a, _ = er.erase_finetune(base, cfg, sched, small_vocab())
        b, _ = er.erase_finetune(base, cfg, sched, small_vocab())
        for name in a.tensor_names():
            np.testing.assert_array_equal(a.get_tensor(name), b.get_tensor(name))

    def test_log_counts_and_total_decomposition(self):
        base, sched = tiny_setup()
        cfg = run_config(n_iters=12, snapshot_every=5, lam=5.0,
                         instructions=window_instructions())
        _, log = er.erase_finetune(base, cfg, sched, small_vocab())
        assert len(log.iterations) == 12
        assert [it for it, _ in log.snapshots] == [5, 10]
        for it, t_index, breakdown in log.iterations:
            assert 1 <= t_index <= cfg.sampler_T
            assert breakdown.total == breakdown.concept + 5.0 * breakdown.penalty

    def test_baseline_kinds_run_without_penalty(self):
        base, sched = tiny_setup()
        for kind in ("esd", "sdd"):
            cfg = run_config(n_iters=3, loss_kind=kind)
            _, log = er.erase_finetune(base, cfg, sched, small_vocab())
            assert all(b.penalty == 0.0 for _, _, b in log.iterations)

    def test_sega_warmup_must_match_sampler_length(self):
        base, sched = tiny_setup()
        cfg = run_config(n_iters=3, instructions=window_instructions(),
                         warmup=gd.WarmupRule(2, "sega", sampler_T=10))
        er.erase_finetune(base, cfg, sched, small_vocab())
        bad = run_config(n_iters=3, warmup=gd.WarmupRule(2, "sega", sampler_T=35))
        with pytest.raises(ConfigError):
            er.erase_finetune(base, bad, sched, small_vocab())

    def test_vocab_size_mismatch_rejected(self):
        base, sched = tiny_setup()
        with pytest.raises(ConfigError):
            er.erase_finetune(base, run_config(), sched, small_vocab(5))


# -- the sequential erase loop, kept as the oracle of the teacher pass -------

def sequential_targets(teacher, cfg, z, t_index, schedule_t, c):
    """(target, anchor) at one state as the per-iteration loop computed
    them before the teacher pass: batch-1 teacher forwards."""
    e_t_u, _ = nnet.forward(teacher, z, schedule_t, teacher.null_id)
    if cfg.loss_kind == "sdd":
        return e_t_u, e_t_u
    explicit = cfg.loss_kind == "ours" and cfg.replacement_mode == "explicit"
    e_t_c, _ = nnet.forward(teacher, z, schedule_t,
                            cfg.replacement_id if explicit else c)
    if cfg.loss_kind == "esd":
        return e_t_u - cfg.gamma1 * (e_t_c - e_t_u), e_t_u
    target = cfg.gamma1 * (e_t_c - e_t_u)
    if cfg.replacement_mode == "delta" and cfg.instructions:
        target = target + sequential_delta(cfg.instructions, z, t_index,
                                           schedule_t, teacher, cfg.warmup)
    return target, e_t_u


def sequential_delta(instructions, Z, sampler_index, schedule_t, params, warmup):
    """delta with two forwards per open instruction, as before fusion."""
    Z_arr = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    out = np.zeros_like(Z_arr)
    for ins in instructions:
        if not ins.in_window(sampler_index) or not warmup.active(sampler_index):
            continue
        e_c = nnet.forward_batch(params, Z_arr, schedule_t, ins.concept_id)[0]
        e_u = nnet.forward_batch(params, Z_arr, schedule_t, params.null_id)[0]
        direction = e_c - e_u
        mask = gd._mask_rows(np.abs(direction), ins.kappa)
        out += ins.g_c * mask * direction
    return out[0] if np.asarray(Z).ndim == 1 else out


def sequential_guidance(params, gamma, instructions, warmup):
    def guid(Z, sampler_index, schedule_t, c):
        e_u = nnet.forward_batch(params, Z, schedule_t, params.null_id)[0]
        e_c = nnet.forward_batch(params, Z, schedule_t, c)[0]
        out = e_u + gamma * (e_c - e_u)
        if instructions:
            out = out + sequential_delta(instructions, Z, sampler_index,
                                         schedule_t, params, warmup)
        return out
    return guid


def sequential_erase(base, cfg, sched):
    """The erase loop before the teacher pass: one batch-1 teacher rollout
    and one teacher evaluation per iteration. Returns the student, the loss
    rows and each iteration's (t_index, c, z_t, target, anchor)."""
    teacher, student = base.copy(), base.copy()
    mask = cfg.mask_for(student)
    state = nnet.OptimizerState.fresh(student, lr=cfg.lr,
                                      weight_decay=cfg.weight_decay)
    sampler = df.SamplerConfig.uniform(cfg.sampler_T, sched.T_train)
    ours = cfg.loss_kind == "ours"
    rollout_ins = cfg.instructions if ours \
        and cfg.replacement_mode == "delta" else ()
    guid = sequential_guidance(teacher, cfg.gamma1, rollout_ins, cfg.warmup)
    rng = np.random.default_rng(cfg.seed)
    losses, rows = [], []
    for _ in range(cfg.n_iters):
        t_index = int(rng.integers(1, cfg.sampler_T + 1))
        c = int(cfg.erase_set[rng.integers(0, len(cfg.erase_set))])
        z_T = rng.standard_normal((1, base.shape.input_dim))
        if t_index == cfg.sampler_T:
            z_t = z_T[0]
        else:
            z_t = df.descend(z_T, sampler, sched, c, guid,
                             stop_index=t_index)[0][0]
        schedule_t = sampler.schedule_t(t_index)
        target, anchor = sequential_targets(teacher, cfg, z_t, t_index,
                                            schedule_t, c)
        rows.append((t_index, c, z_t, target, anchor))

        e_s_c, tape_c = nnet.forward(student, z_t, schedule_t, c)
        if ours:
            e_s_u, _ = nnet.forward(student, z_t, schedule_t, student.null_id)
            resid = cfg.gamma2 * (e_s_c - e_s_u) - target
            c_loss = float(resid @ resid)
            grads = nnet.backward(tape_c, 2.0 * cfg.gamma2 * resid)
            e_s_u, tape_u = nnet.forward(student, z_t, schedule_t,
                                         student.null_id)
            p_resid = e_s_u - anchor
            p_loss = float(p_resid @ p_resid)
            grads.flat += cfg.lam * nnet.backward(tape_u, 2.0 * p_resid).flat
        else:
            resid = e_s_c - target
            c_loss, p_loss = float(resid @ resid), 0.0
            grads = nnet.backward(tape_c, 2.0 * resid)
        student = nnet.adamw_step(student, grads, mask, state)
        losses.append((c_loss, p_loss))
    return student, losses, rows


def assert_rel_close(got, want, rtol=1e-9):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    assert float(np.abs(got - want).max(initial=0.0)) <= rtol * scale


def oracle_setup():
    """A 16-dim net, so the percentile masks keep a strict subset."""
    shape = nnet.NetworkShape(input_dim=16, hidden=(12, 12), time_embed_dim=4,
                              concept_embed_dim=4)
    return nnet.init_params(shape, 3, seed=21), \
        df.make_linear_schedule(20, 1e-4, 0.02)


SLOW_PATH_CASES = {
    "ours-delta": dict(instructions=window_instructions(0.75), lam=2.0),
    "ours-explicit": dict(replacement_mode="explicit", replacement_id=2,
                          instructions=window_instructions(0.75)),
    "esd": dict(loss_kind="esd"),
    "sdd": dict(loss_kind="sdd"),
    "sega-warmup": dict(instructions=(gd.InstructionConcept(0, -7.5, 3, 10, 0.75),
                                      gd.InstructionConcept(1, 6.5, 1, 8, 0.5)),
                        warmup=gd.WarmupRule(4, "sega", sampler_T=10)),
    "two-concepts": dict(erase_set=(0, 2), instructions=window_instructions(0.75)),
}


class TestTeacherPassOracle:
    @pytest.mark.parametrize("case", sorted(SLOW_PATH_CASES))
    def test_teacher_pass_matches_sequential_loop(self, case):
        base, sched = oracle_setup()
        cfg = run_config(n_iters=24, **SLOW_PATH_CASES[case])
        sampler = df.SamplerConfig.uniform(cfg.sampler_T, sched.T_train)
        _, _, rows = sequential_erase(base, cfg, sched)
        batched = er._teacher_pass(base, cfg, sched, sampler)
        assert len(set(batched.t_index.tolist())) > 1
        for k, (t_index, c, z_t, target, anchor) in enumerate(rows):
            assert (batched.t_index[k], batched.concept[k]) == (t_index, c)
            assert batched.schedule_t[k] == sampler.schedule_t(t_index)
            assert_rel_close(batched.z_t[k], z_t)
            assert_rel_close(batched.target[k], target)
            assert_rel_close(batched.anchor[k], anchor)

    @pytest.mark.parametrize("case", sorted(SLOW_PATH_CASES))
    def test_erase_matches_sequential_loop(self, case):
        base, sched = oracle_setup()
        cfg = run_config(n_iters=24, **SLOW_PATH_CASES[case])
        want, losses, _ = sequential_erase(base, cfg, sched)
        got, log = er.erase_finetune(base, cfg, sched, small_vocab())
        # the penalty at iteration 1 was exactly 0 and is now of order
        # 1e-33, so the losses are compared as one vector per kind
        got_losses = [(b.concept, b.penalty) for _, _, b in log.iterations]
        assert_rel_close(np.array(got_losses)[:, 0], np.array(losses)[:, 0])
        assert_rel_close(np.array(got_losses)[:, 1], np.array(losses)[:, 1])
        for name in base.tensor_names():
            assert_rel_close(got.get_tensor(name), want.get_tensor(name))
