"""Erasure losses, stop-gradient soundness, and the fine-tuning loop."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from eraselab import diffusion as df
from eraselab import erasure as er
from eraselab import guidance as gd
from eraselab import nnet
from eraselab import persistence
from eraselab.errors import ConfigError

import oracles


def tiny_setup(seed=0, n_concepts=3):
    shape = nnet.NetworkShape(input_dim=2, hidden=(6,), time_embed_dim=4,
                              concept_embed_dim=4)
    params = nnet.init_params(shape, n_concepts, seed=seed)
    sched = df.make_linear_schedule(20, 1e-4, 0.02)
    return params, sched


# The sampler of the erase runs below: 10 steps over the 20-step schedules
# of tiny_setup and oracle_setup.
SAMPLER = df.SamplerConfig.uniform(10, 20)


def run_config(**overrides):
    base = dict(erase_set=(0,), n_iters=4, seed=5)
    base.update(overrides)
    return oracles.erase_config(**base)


def window_instructions(kappa=0.5):
    """Windows 1..10 with a literal warmup of 5 folded in."""
    return (gd.InstructionConcept(0, -7.5, 5, 10, kappa),
            gd.InstructionConcept(1, 6.5, 5, 10, kappa))


# Each loss term through the package's student step, in the (student,
# teacher, state) signatures of the tests below. teacher_targets takes
# (n, d) states; one state is one row.
def targets(teacher, cfg, z, t_index, schedule_t, c):
    target, anchor = er.teacher_targets(teacher, cfg, z[None], t_index,
                                        schedule_t, c)
    return target[0], anchor[0]


def concept_loss(student, teacher, z, t_index, schedule_t, c, cfg):
    """The concept term alone: the step at lam = 0."""
    target, anchor = targets(teacher, cfg, z, t_index, schedule_t, c)
    breakdown, grads = er.student_step(student, z, schedule_t, c, target,
                                       anchor, dataclasses.replace(cfg, lam=0.0))
    return breakdown.concept, grads


def penalty_loss(student, teacher, z, schedule_t):
    """The penalty term alone: the step at lam = 1 and gamma2 = 0, which
    gives the conditional row a zero upstream."""
    cfg = run_config(lam=1.0, gamma2=0.0)
    target, anchor = targets(teacher, cfg, z, 1, schedule_t, 0)
    breakdown, grads = er.student_step(student, z, schedule_t, 0, target,
                                       anchor, cfg)
    return breakdown.penalty, grads


def baseline_loss(kind, student, teacher, z, schedule_t, c, gamma):
    cfg = run_config(loss_kind=kind, gamma1=gamma)
    target, anchor = targets(teacher, cfg, z, 1, schedule_t, c)
    breakdown, grads = er.student_step(student, z, schedule_t, c, target,
                                       anchor, cfg)
    assert breakdown.penalty == 0.0
    return breakdown.concept, grads


class TestEraseConfig:
    def test_empty_erase_set_rejected(self):
        with pytest.raises(ConfigError):
            oracles.erase_config(erase_set=())

    def test_unknown_loss_kind_rejected(self):
        with pytest.raises(ConfigError):
            oracles.erase_config(erase_set=(0,), loss_kind="mystery")

    def test_replacement_needs_the_ours_loss(self):
        oracles.erase_config(erase_set=(0,), replacement_id=1)
        for kind in ("esd", "sdd"):
            oracles.erase_config(erase_set=(0,), loss_kind=kind)
            with pytest.raises(ConfigError, match="replacement"):
                oracles.erase_config(erase_set=(0,), loss_kind=kind,
                                     replacement_id=1)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            oracles.erase_config(erase_set=(0,), lam=-0.5)

    def test_iteration_counts_must_be_positive(self):
        with pytest.raises(ConfigError):
            oracles.erase_config(erase_set=(0,), n_iters=0)

    def test_empty_trainable_tuple_rejected(self):
        with pytest.raises(ConfigError):
            oracles.erase_config(erase_set=(0,), trainable=())

    def test_unknown_trainable_tensor_rejected(self):
        params, _ = tiny_setup()
        cfg = run_config(trainable=("embed", "w9"))
        with pytest.raises(ConfigError):
            cfg.mask_for(params.tensor_names())

    def test_default_mask_covers_everything(self):
        params, _ = tiny_setup()
        mask = run_config().mask_for(params.tensor_names())
        assert all(n in mask for n in params.tensor_names())

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
            sig = gd.delta(cfg.instructions, z[None], 7, 14, params)[0]
            assert sig @ sig > 0
            loss, _ = concept_loss(params, params, z, 7, 14, 0, cfg)
            assert loss == sig @ sig

    def test_explicit_replacement_closed_form(self):
        params, _ = tiny_setup()
        cfg = run_config(replacement_id=2, gamma1=3.0, gamma2=3.0)
        z = np.array([0.4, -1.1])
        e_c, _ = oracles.forward(params, z, 6, 0)
        e_r, _ = oracles.forward(params, z, 6, 2)
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

            e_u_frozen, _ = oracles.forward(student, z, schedule_t,
                                            student.null_id)
            e_t_c, _ = oracles.forward(teacher, z, schedule_t, c)
            e_t_u, _ = oracles.forward(teacher, z, schedule_t, teacher.null_id)
            target = cfg.gamma1 * (e_t_c - e_t_u) + gd.delta(
                cfg.instructions, z[None], t_index, schedule_t, teacher)[0]

            def frozen_loss(p):
                e_c, _ = oracles.forward(p, z, schedule_t, c)
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
            e_c, _ = oracles.forward(p, z, 6, 1)
            e_u, _ = oracles.forward(p, z, 6, p.null_id)
            e_t_c, _ = oracles.forward(teacher, z, 6, 1)
            e_t_u, _ = oracles.forward(teacher, z, 6, teacher.null_id)
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
        e_t_c, _ = oracles.forward(teacher, z, 8, 0)
        e_t_u, _ = oracles.forward(teacher, z, 8, teacher.null_id)
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
                    e_c, _ = oracles.forward(bumped, z, 8, 0)
                    resid = e_c - target
                    vals.append(float(resid @ resid))
                num[idx] = (vals[0] - vals[1]) / (2 * h)
            got = grads.get_tensor(name)
            err = np.abs(got - num) / np.maximum(1.0, np.abs(num))
            assert err.max() <= 1e-6


class TestGradientDecomposition:
    """The step's one backward against the oracle's separate batch-1
    backwards. Batching rounds differently, so the gradients agree within
    1e-12 of their largest magnitude (measured at most 8.8e-14 on this
    net, at lam = 0, where gamma2 amplifies the null row's rounding)."""

    def test_total_gradient_is_concept_plus_scaled_penalty(self):
        teacher, _ = tiny_setup(seed=13)
        rng = np.random.default_rng(16)
        for rep in range(5):
            student = nnet.init_params(teacher.shape, 3, seed=14 + rep)
            z = rng.standard_normal(2)
            for lam in (0.0, 1.0, 5.0):
                cfg = run_config(instructions=window_instructions(), lam=lam)
                target, anchor = targets(teacher, cfg, z, 6, 12, 0)
                breakdown, got = er.student_step(student, z, 12, 0, target,
                                                 anchor, cfg)
                e_s_u, tape_u = oracles.forward(student, z, 12, student.null_id)
                c_loss, g_c = oracles.concept_loss(student, z, 12, 0, e_s_u,
                                                   target, cfg.gamma2)
                p_loss, g_p = oracles.penalty_loss(tape_u, anchor)
                assert_rel_close(got.flat, g_c.flat + lam * g_p.flat, 1e-12)
                assert_rel_close(breakdown.concept, c_loss, 1e-12)
                assert_rel_close(breakdown.penalty, p_loss, 1e-12)
                assert breakdown.total == \
                    breakdown.concept + lam * breakdown.penalty

    @pytest.mark.parametrize("kind", ["esd", "sdd"])
    def test_baseline_gradient_matches_oracle(self, kind):
        teacher, _ = tiny_setup(seed=13)
        rng = np.random.default_rng(17)
        for rep in range(5):
            student = nnet.init_params(teacher.shape, 3, seed=14 + rep)
            z = rng.standard_normal(2)
            cfg = run_config(loss_kind=kind)
            target, anchor = targets(teacher, cfg, z, 6, 12, 1)
            breakdown, got = er.student_step(student, z, 12, 1, target,
                                             anchor, cfg)
            loss, want = oracles.baseline_loss(student, z, 12, 1, target)
            assert_rel_close(got.flat, want.flat, 1e-12)
            assert_rel_close(breakdown.concept, loss, 1e-12)
            assert (breakdown.penalty, breakdown.total) == (0.0, breakdown.concept)


class TestStudentStep:
    def test_gradient_matches_central_differences(self):
        """The step's gradient is that of concept + lam * penalty with the
        null row's output held constant inside the concept term only."""
        teacher, _ = tiny_setup(seed=11)
        cfg = run_config(instructions=window_instructions(), lam=5.0)
        rng = np.random.default_rng(18)
        h = 1e-5
        for rep in range(3):
            student = nnet.init_params(teacher.shape, 3, seed=30 + rep)
            z = rng.standard_normal(2)
            t_index = int(rng.integers(1, 11))
            schedule_t, c = 2 * t_index, int(rng.integers(0, 3))
            target, anchor = targets(teacher, cfg, z, t_index, schedule_t, c)
            breakdown, grads = er.student_step(student, z, schedule_t, c,
                                               target, anchor, cfg)
            e_u_frozen, _ = oracles.forward(student, z, schedule_t,
                                            student.null_id)

            def loss(p):
                e_c, _ = oracles.forward(p, z, schedule_t, c)
                e_u, _ = oracles.forward(p, z, schedule_t, p.null_id)
                r_c = cfg.gamma2 * (e_c - e_u_frozen) - target
                r_u = e_u - anchor
                return float(r_c @ r_c) + cfg.lam * float(r_u @ r_u)

            assert_rel_close(breakdown.total, loss(student), 1e-12)
            num = np.empty_like(student.flat)
            for i in range(student.flat.size):
                vals = []
                for sign in (1.0, -1.0):
                    bumped = student.copy()
                    bumped.flat[i] += sign * h
                    vals.append(loss(bumped))
                num[i] = (vals[0] - vals[1]) / (2 * h)
            err = np.abs(grads.flat - num) / np.maximum(1.0, np.abs(num))
            assert err.max() <= 1e-6, err.max()

    @pytest.mark.parametrize("mode", ["delta", "explicit"])
    def test_exact_zero_residuals_at_the_teacher(self, mode):
        """A student equal to the teacher reproduces the teacher's eps bit
        for bit: the penalty is exactly 0, so it adds exactly nothing to the
        gradient, and without a replacement ("delta") or instructions so is
        the concept residual. This needs teacher_targets to make the step's
        two-row call; batch-1 calls round differently."""
        base, sched = oracle_setup()
        cfg = run_config(n_iters=24, erase_set=(0, 1),
                         replacement_id=None if mode == "delta" else 2)
        teacher = er.teacher_pass(base, cfg, sched, SAMPLER)
        for k in range(cfg.n_iters):
            state = (base, teacher.z_t[k], int(teacher.schedule_t[k]),
                     int(teacher.concept[k]), teacher.target[k],
                     teacher.anchor[k])
            breakdown, grads = er.student_step(*state, cfg)
            assert breakdown.penalty == 0.0, k
            if mode == "delta":
                assert breakdown.concept == 0.0, k
                assert not grads.flat.any(), k
            else:
                assert breakdown.concept > 0.0, k
                _, no_penalty = er.student_step(
                    *state, dataclasses.replace(cfg, lam=0.0))
                assert np.array_equal(grads.flat, no_penalty.flat), k


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
        cfg = run_config(n_iters=1, lr=0.0)
        student, _ = oracles.erase(base, cfg, sched, SAMPLER,
                                   oracles.drop_snapshot)
        for name in base.tensor_names():
            np.testing.assert_array_equal(student.get_tensor(name),
                                          base.get_tensor(name))

    def test_input_model_never_mutated(self):
        base, sched = tiny_setup()
        snapshot = base.copy()
        cfg = run_config(n_iters=5, instructions=window_instructions())
        oracles.erase(base, cfg, sched, SAMPLER, oracles.drop_snapshot)
        for name in base.tensor_names():
            np.testing.assert_array_equal(base.get_tensor(name),
                                          snapshot.get_tensor(name))

    def test_masked_tensors_stay_bit_identical(self):
        base, sched = tiny_setup()
        cfg = run_config(n_iters=5, trainable=("embed",),
                         instructions=window_instructions())
        student, _ = oracles.erase(base, cfg, sched, SAMPLER,
                                   oracles.drop_snapshot)
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
        a, _ = oracles.erase(base, cfg, sched, SAMPLER, oracles.drop_snapshot)
        b, _ = oracles.erase(base, cfg, sched, SAMPLER, oracles.drop_snapshot)
        for name in a.tensor_names():
            np.testing.assert_array_equal(a.get_tensor(name), b.get_tensor(name))

    def test_log_counts_and_total_decomposition(self):
        base, sched = tiny_setup()
        cfg = run_config(n_iters=12, snapshot_every=5, lam=5.0,
                         instructions=window_instructions())
        snapshots = []
        _, log = oracles.erase(
            base, cfg, sched, SAMPLER,
            lambda it, student: snapshots.append((it, student.flat.copy())))
        assert len(log) == 12
        assert [it for it, _ in snapshots] == [5, 10]
        for it, t_index, breakdown in log:
            assert 1 <= t_index <= SAMPLER.T
            assert breakdown.total == breakdown.concept + 5.0 * breakdown.penalty

    def test_baseline_kinds_run_without_penalty(self):
        base, sched = tiny_setup()
        for kind in ("esd", "sdd"):
            cfg = run_config(n_iters=3, loss_kind=kind)
            _, log = oracles.erase(base, cfg, sched, SAMPLER,
                                   oracles.drop_snapshot)
            assert all(b.penalty == 0.0 for _, _, b in log)

    @pytest.mark.parametrize("kind", ["ours", "esd"])
    def test_one_two_row_forward_per_target_and_per_step(self, kind,
                                                         monkeypatch):
        """The tape forwards are the teacher's targets and the student's
        steps, two rows each, one per iteration apiece, and the student
        makes one backward per iteration."""
        rows, backwards = [], []
        forward_batch, backward = nnet.forward_batch, nnet.backward

        def counted_forward(params, Z, t, c):
            rows.append(len(Z))
            return forward_batch(params, Z, t, c)

        def counted_backward(tape, upstream):
            backwards.append(tape.output.shape[0])
            return backward(tape, upstream)

        monkeypatch.setattr(nnet, "forward_batch", counted_forward)
        monkeypatch.setattr(nnet, "backward", counted_backward)
        base, sched = tiny_setup()
        cfg = run_config(n_iters=5, loss_kind=kind,
                         instructions=window_instructions())
        oracles.erase(base, cfg, sched, SAMPLER, oracles.drop_snapshot)
        assert rows == [2] * 10
        assert backwards == [2] * 5


# -- the sequential erase loop, kept as the oracle of the teacher pass -------

def sequential_targets(teacher, cfg, z, t_index, schedule_t, c):
    """(target, anchor) at one state as the per-iteration loop computed
    them before the teacher pass: batch-1 teacher forwards."""
    e_t_u, _ = oracles.forward(teacher, z, schedule_t, teacher.null_id)
    if cfg.loss_kind == "sdd":
        return e_t_u, e_t_u
    e_t_c, _ = oracles.forward(teacher, z, schedule_t,
                               c if cfg.replacement_id is None
                               else cfg.replacement_id)
    if cfg.loss_kind == "esd":
        return e_t_u - cfg.gamma1 * (e_t_c - e_t_u), e_t_u
    target = cfg.gamma1 * (e_t_c - e_t_u)
    if cfg.replacement_id is None and cfg.instructions:
        target = target + sequential_delta(cfg.instructions, z, t_index,
                                           schedule_t, teacher)
    return target, e_t_u


def sequential_delta(instructions, Z, sampler_index, schedule_t, params):
    """delta with two forwards per open instruction, as before fusion."""
    Z_arr = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    out = np.zeros_like(Z_arr)
    for ins in instructions:
        if not ins.in_window(sampler_index):
            continue
        e_c = nnet.forward_batch(params, Z_arr, schedule_t, ins.concept_id)[0]
        e_u = nnet.forward_batch(params, Z_arr, schedule_t, params.null_id)[0]
        direction = e_c - e_u
        mask = gd._mask_rows(np.abs(direction), ins.kappa)
        out += ins.g_c * mask * direction
    return out[0] if np.asarray(Z).ndim == 1 else out


def sequential_guidance(params, gamma, instructions):
    def guid(Z, sampler_index, schedule_t, c):
        e_u = nnet.forward_batch(params, Z, schedule_t, params.null_id)[0]
        e_c = nnet.forward_batch(params, Z, schedule_t, c)[0]
        out = e_u + gamma * (e_c - e_u)
        if instructions:
            out = out + sequential_delta(instructions, Z, sampler_index,
                                         schedule_t, params)
        return out
    return guid


def sequential_erase(base, cfg, sched, sampler):
    """The erase loop before the teacher pass and the student step: one
    batch-1 teacher rollout and one teacher evaluation per iteration, and
    one batch-1 student forward and backward per loss term. Returns the
    student, the loss rows and each iteration's (t_index, c, z_t, target,
    anchor)."""
    teacher, student = base.copy(), base.copy()
    mask = cfg.mask_for(student.tensor_names())
    state = nnet.OptimizerState.fresh(student, lr=cfg.lr,
                                      weight_decay=cfg.weight_decay)
    ours = cfg.loss_kind == "ours"
    rollout_ins = cfg.instructions if ours \
        and cfg.replacement_id is None else ()
    guid = sequential_guidance(teacher, cfg.gamma1, rollout_ins)
    rng = np.random.default_rng(cfg.seed)
    losses, rows = [], []
    for _ in range(cfg.n_iters):
        t_index = int(rng.integers(1, sampler.T + 1))
        c = int(cfg.erase_set[rng.integers(0, len(cfg.erase_set))])
        z_T = rng.standard_normal((1, base.shape.input_dim))
        if t_index == sampler.T:
            z_t = z_T[0]
        else:
            z_t = df.descend(z_T, sampler, sched, c, guid,
                             stop_index=t_index)[0]
        schedule_t = sampler.schedule_t(t_index)
        target, anchor = sequential_targets(teacher, cfg, z_t, t_index,
                                            schedule_t, c)
        rows.append((t_index, c, z_t, target, anchor))

        if ours:
            e_s_u, tape_u = oracles.forward(student, z_t, schedule_t,
                                            student.null_id)
            c_loss, grads = oracles.concept_loss(student, z_t, schedule_t, c,
                                                 e_s_u, target, cfg.gamma2)
            p_loss, p_grads = oracles.penalty_loss(tape_u, anchor)
            grads.flat += cfg.lam * p_grads.flat
        else:
            c_loss, grads = oracles.baseline_loss(student, z_t, schedule_t, c,
                                                  target)
            p_loss = 0.0
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
    "ours-explicit": dict(replacement_id=2,
                          instructions=window_instructions(0.75)),
    "esd": dict(loss_kind="esd"),
    "sdd": dict(loss_kind="sdd"),
    # windows 3..10 and 1..8 with a sega warmup of 4 of 10 folded in
    "sega-warmup": dict(instructions=(gd.InstructionConcept(0, -7.5, 3, 6, 0.75),
                                      gd.InstructionConcept(1, 6.5, 1, 6, 0.5))),
    "two-concepts": dict(erase_set=(0, 2), instructions=window_instructions(0.75)),
}


class TestTeacherPassOracle:
    @pytest.mark.parametrize("case", sorted(SLOW_PATH_CASES))
    def test_teacher_pass_matches_sequential_loop(self, case):
        base, sched = oracle_setup()
        cfg = run_config(n_iters=24, **SLOW_PATH_CASES[case])
        _, _, rows = sequential_erase(base, cfg, sched, SAMPLER)
        batched = er.teacher_pass(base, cfg, sched, SAMPLER)
        assert len(set(batched.t_index.tolist())) > 1
        for k, (t_index, c, z_t, target, anchor) in enumerate(rows):
            assert (batched.t_index[k], batched.concept[k]) == (t_index, c)
            assert batched.schedule_t[k] == SAMPLER.schedule_t(t_index)
            assert_rel_close(batched.z_t[k], z_t)
            assert_rel_close(batched.target[k], target)
            assert_rel_close(batched.anchor[k], anchor)

    @pytest.mark.parametrize("case", sorted(SLOW_PATH_CASES))
    def test_teacher_pass_keeps_the_recorded_states(self, case):
        """Row k's z_t is, bit for bit, the state at its own t_index in
        the recorded descent of all rows."""
        base, sched = oracle_setup()
        cfg = run_config(n_iters=24, **SLOW_PATH_CASES[case])
        T, rng = SAMPLER.T, np.random.default_rng(cfg.seed)
        draws = [(rng.integers(1, T + 1),
                  cfg.erase_set[rng.integers(0, len(cfg.erase_set))],
                  rng.standard_normal(base.shape.input_dim))
                 for _ in range(cfg.n_iters)]
        t_index, c, Z_T = (np.array(col) for col in zip(*draws))
        rollout_ins = cfg.instructions if cfg.loss_kind == "ours" \
            and cfg.replacement_id is None else ()
        guid = gd.rollout_guidance(base, cfg.gamma1, rollout_ins)
        _, states, _ = oracles.descend_recorded(Z_T, SAMPLER, sched, c, guid,
                                                int(t_index.min()))
        got = er.teacher_pass(base, cfg, sched, SAMPLER)
        assert np.array_equal(got.t_index, t_index)
        assert np.array_equal(got.concept, c)
        for k, t in enumerate(t_index):
            assert np.array_equal(got.z_t[k], states[T - t][k]), k

    @pytest.mark.parametrize("case", sorted(SLOW_PATH_CASES))
    def test_erase_matches_sequential_loop(self, case):
        base, sched = oracle_setup()
        cfg = run_config(n_iters=24, **SLOW_PATH_CASES[case])
        want, losses, _ = sequential_erase(base, cfg, sched, SAMPLER)
        got, log = oracles.erase(base, cfg, sched, SAMPLER,
                                 oracles.drop_snapshot)
        # a penalty near 0 can differ from the oracle's by more than its
        # own size, so the losses are compared as one vector per kind
        got_losses = [(b.concept, b.penalty) for _, _, b in log]
        assert_rel_close(np.array(got_losses)[:, 0], np.array(losses)[:, 0])
        assert_rel_close(np.array(got_losses)[:, 1], np.array(losses)[:, 1])
        for name in base.tensor_names():
            assert_rel_close(got.get_tensor(name), want.get_tensor(name))


def test_teacher_pass_holds_no_trajectory(tmp_path):
    """On a glyph-sized input with a narrow net, a descent that kept every
    state and eps of its 200 rows (28 times the results) would dominate the
    pass's peak; keeping one state per row stays within 10 times."""
    config = tmp_path / "run.ini"
    config.write_text("[run]\nmode = glyphs16\n[base]\nhidden = 16\n"
                      "[erase]\nn_iters = 200\n")
    cfg = persistence.load_config(config)
    vocab, _ = cfg.vocab_and_spec()
    teacher = nnet.init_params(cfg.network_shape(), vocab.size, seed=0)
    tracemalloc.start()
    try:
        got = er.teacher_pass(teacher, cfg.erase, cfg.schedule(),
                              cfg.sampler())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = got.z_t.nbytes + got.target.nbytes + got.anchor.nbytes
    assert peak < 10 * kept, (peak, kept)


def test_erase_memory_does_not_grow_with_snapshots(tmp_path):
    """erase_finetune hands each snapshot on and keeps none: with a snapshot
    at every one of 40 iterations on a glyph-input net, its peak stays far
    below the 40 models that a list of snapshots would hold."""
    config = tmp_path / "run.ini"
    config.write_text("[run]\nmode = glyphs16\n[base]\nhidden = 64\n"
                      "[erase]\nn_iters = 40\nsnapshot_every = 1\n")
    cfg = persistence.load_config(config)
    vocab, _ = cfg.vocab_and_spec()
    base = nnet.init_params(cfg.network_shape(), vocab.size, seed=0)
    taken = []
    tracemalloc.start()
    try:
        oracles.erase(base, cfg.erase, cfg.schedule(), cfg.sampler(),
                      lambda it, student: taken.append(it))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert taken == list(range(1, 41))
    assert peak < 20 * base.flat.nbytes, (peak, base.flat.nbytes)
