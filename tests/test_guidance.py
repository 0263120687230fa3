"""CFG algebra, percentile bottleneck, and the erasing signal."""

import numpy as np
import pytest

from eraselab import guidance as gd
from eraselab import nnet, persistence
from eraselab.errors import ConfigError, StructuralError

import oracles


def small_params(n_concepts=4, input_dim=2, seed=0):
    shape = nnet.NetworkShape(input_dim=input_dim, hidden=(8, 8),
                              time_embed_dim=4, concept_embed_dim=4)
    return nnet.init_params(shape, n_concepts, seed=seed)


def loaded_instructions(tmp_path, text):
    """The instructions the config loader builds from text, the [erase]
    warmup rule folded into their windows."""
    path = tmp_path / "run.ini"
    path.write_text(text)
    return persistence.load_config(path).erase.instructions


class TestCfgCompose:
    def test_gamma_zero_returns_conditional(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            e_u = rng.standard_normal(3)
            e_c = rng.standard_normal(3)
            np.testing.assert_array_equal(gd.cfg_compose(e_u, e_c, 0.0), e_c)

    def test_gamma_minus_one_returns_unconditional(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            e_u = rng.standard_normal(3)
            e_c = rng.standard_normal(3)
            np.testing.assert_array_equal(gd.cfg_compose(e_u, e_c, -1.0), e_u)

    def test_operating_point_arithmetic(self):
        out = gd.cfg_compose(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 7.5)
        np.testing.assert_array_equal(out, np.array([8.5, -7.5]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            gd.cfg_compose(np.zeros(2), np.zeros(3), 1.0)


class TestClassDirection:
    def test_null_is_zero(self):
        params = small_params()
        direction = oracles.class_direction(params, np.array([0.3, -0.2]), 5,
                                            params.null_id)
        np.testing.assert_array_equal(direction, np.zeros(2))

    def test_consistent_with_cfg_algebra(self):
        params = small_params(seed=3)
        rng = np.random.default_rng(4)
        for _ in range(10):
            z = rng.standard_normal(2)
            t = int(rng.integers(1, 50))
            c = int(rng.integers(0, 4))
            e_c, _ = oracles.forward(params, z, t, c)
            e_u, _ = oracles.forward(params, z, t, params.null_id)
            lhs = oracles.class_direction(params, z, t, c)
            rhs = gd.cfg_compose(e_u, e_c, 1.0) - e_c
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)

    def test_degenerate_model_near_zero(self, uncond_base):
        rng = np.random.default_rng(5)
        for _ in range(10):
            z = rng.standard_normal(2)
            t = int(rng.integers(1, 101))
            c = int(rng.integers(0, uncond_base.n_concepts))
            assert np.linalg.norm(oracles.class_direction(uncond_base, z, t, c)) < 0.05


class TestPercentileThreshold:
    def test_kappa_zero_is_minimum(self):
        values = np.array([3.0, 1.0, 2.0])
        assert oracles.percentile_threshold(values, 0.0) == 1.0

    def test_kappa_one_is_maximum(self):
        values = np.array([3.0, 1.0, 2.0])
        assert oracles.percentile_threshold(values, 1.0) == 3.0

    def test_nearest_rank_20_values(self):
        rng = np.random.default_rng(6)
        values = rng.permutation(np.arange(20, dtype=np.float64))
        assert oracles.percentile_threshold(values, 0.95) == np.sort(values)[18]

    def test_matches_brute_force_rule(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            values = rng.random(n)
            kappa = float(rng.random())
            idx = min(max(int(np.ceil(kappa * n)) - 1, 0), n - 1)
            expect = sorted(values)[idx]
            assert oracles.percentile_threshold(values, kappa) == expect

    def test_empty_rejected(self):
        with pytest.raises(StructuralError):
            oracles.percentile_threshold(np.array([]), 0.5)


class TestInstructionConcept:
    def test_window_must_reach_a_sampler_index(self):
        gd.InstructionConcept(0, -7.5, 0, 1, 0.5)
        for t_high, t_low in ((0, 0), (2, 1), (-1, 3)):
            with pytest.raises(ConfigError):
                gd.InstructionConcept(0, -7.5, t_high, t_low, 0.5)


class TestWarmupRule:
    """The [erase] warmup rule, which the config loader folds into each
    instruction's window (sampler length 35)."""

    WINDOW = "[instruction.a]\nname = c0\nt_high = 1\nt_low = 35\n"

    def test_literal_gate(self, tmp_path):
        [ins] = loaded_instructions(tmp_path, "[erase]\nt_warmup = 5\n"
                                    + self.WINDOW)
        assert not ins.in_window(4)
        assert ins.in_window(5)
        assert ins.in_window(35)

    def test_sega_gate(self, tmp_path):
        [ins] = loaded_instructions(tmp_path, "[erase]\nt_warmup = 5\n"
                                    "warmup_style = sega\n" + self.WINDOW)
        assert ins.in_window(30)
        assert not ins.in_window(31)
        assert ins.in_window(1)

    def test_warmup_longer_than_the_sampler_rejected(self, tmp_path):
        for style in ("literal", "sega"):
            # a warmup as long as the sampler is valid: literal leaves
            # index 35 open, and sega shuts the window, dropping it
            kept = loaded_instructions(
                tmp_path, f"[erase]\nt_warmup = 35\nwarmup_style = {style}\n"
                + self.WINDOW)
            assert [(i.t_high, i.t_low) for i in kept] == \
                {"literal": [(35, 35)], "sega": []}[style]
            with pytest.raises(ConfigError, match=r"\[erase\] t_warmup: "):
                loaded_instructions(
                    tmp_path, f"[erase]\nt_warmup = 36\n"
                    f"warmup_style = {style}\n" + self.WINDOW)

    def test_fold_equals_the_window_and_warmup_gates(self, tmp_path):
        """Every window a config can write for sampler lengths 1..8, under
        every warmup of either style: at each index 1..T the loaded
        instruction's gate, or its absence, is the window's test and the
        warmup rule's together."""
        for T in range(1, 9):
            # t_high = 0 comes only from a fraction that floors to 0
            windows = [(high, low) for high in range(T + 1)
                       for low in range(max(high, 1), T + 1)]
            sections = "".join(
                f"[instruction.w{k}]\nname = c0\ng = {k + 1}\n"
                f"t_high = {high or '0.01'}\nt_low = {low}\n"
                for k, (high, low) in enumerate(windows))
            for style in ("literal", "sega"):
                for t_warmup in range(T + 1):
                    loaded = loaded_instructions(
                        tmp_path, f"[sampler]\nt_sample = {T}\n[erase]\n"
                        f"t_warmup = {t_warmup}\nwarmup_style = {style}\n"
                        + sections)
                    # each instruction's g is its window's position plus 1
                    by_window = {int(ins.g_c) - 1: ins for ins in loaded}
                    for k, (high, low) in enumerate(windows):
                        for t in range(1, T + 1):
                            want = high <= t <= low and oracles.warmup_active(
                                t, t_warmup, style, T)
                            got = k in by_window and by_window[k].in_window(t)
                            assert got == want, (T, style, t_warmup, high,
                                                 low, t)


class TestDelta:
    def test_empty_instructions_zero(self):
        params = small_params()
        out = gd.delta([], np.array([[0.1, 0.2]]), 20, 57, params)
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_outside_window_zero(self):
        params = small_params(seed=8)
        ins = gd.InstructionConcept(concept_id=0, g_c=-7.5, t_high=12,
                                    t_low=35, kappa=0.95)
        Z = np.array([[0.4, -0.1]])
        for t in (1, 4, 11):
            out = gd.delta([ins], Z, t, 30, params)
            np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_warmup_blocks_low_indices(self, tmp_path):
        params = small_params(seed=9)
        # window 1..35 under the default literal warmup of 5
        ins = loaded_instructions(tmp_path, "[instruction.a]\nname = c1\n"
                                  "g = 1\nt_high = 1\nt_low = 35\nkappa = 0\n")
        Z = np.array([[0.2, 0.3]])
        np.testing.assert_array_equal(gd.delta(ins, Z, 4, 12, params),
                                      np.zeros((1, 2)))
        assert np.abs(gd.delta(ins, Z, 5, 12, params)).max() > 0

    def test_kappa_zero_in_window_is_direction(self):
        params = small_params(seed=10)
        ins = gd.InstructionConcept(concept_id=2, g_c=1.0, t_high=5,
                                    t_low=35, kappa=0.0)
        rng = np.random.default_rng(11)
        z = rng.standard_normal(2)
        out = gd.delta([ins], z[None], 20, 57, params)[0]
        expect = oracles.class_direction(params, z, 57, 2)
        np.testing.assert_allclose(out, expect, rtol=1e-12, atol=1e-15)

    def test_positive_homogeneity_in_g(self):
        params = small_params(input_dim=16, seed=12)
        rng = np.random.default_rng(13)
        z = rng.standard_normal(16)
        base = [gd.InstructionConcept(0, -7.5, 12, 35, 0.95),
                gd.InstructionConcept(1, 6.5, 12, 35, 0.95)]
        scaled = [gd.InstructionConcept(0, -7.5 * 3.0, 12, 35, 0.95),
                  gd.InstructionConcept(1, 6.5 * 3.0, 12, 35, 0.95)]
        a = gd.delta(base, z[None], 20, 57, params)
        b = gd.delta(scaled, z[None], 20, 57, params)
        np.testing.assert_allclose(b, 3.0 * a, rtol=1e-12, atol=1e-15)

    def test_sparsity_bound_per_instruction(self):
        for d, kappa in ((16, 0.95), (256, 0.95), (2, 0.95), (64, 0.5)):
            params = small_params(input_dim=d, seed=14)
            ins = gd.InstructionConcept(0, 1.0, 1, 35, kappa)
            rng = np.random.default_rng(15)
            kept_bound = d - (int(np.ceil(kappa * d)) - 1)
            for _ in range(10):
                z = rng.standard_normal(d)
                out = gd.delta([ins], z[None], 20, 57, params)
                assert np.count_nonzero(out) <= kept_bound

    def test_invalid_instruction_id_rejected(self):
        params = small_params(n_concepts=2)
        ins = gd.InstructionConcept(5, 1.0, 1, 35, 0.5)
        with pytest.raises(ConfigError):
            gd.delta([ins], np.zeros((1, 2)), 20, 57, params)

    def test_batch_matches_single(self):
        params = small_params(input_dim=8, seed=16)
        ins = [gd.InstructionConcept(0, -7.5, 1, 35, 0.75),
               gd.InstructionConcept(1, 6.5, 1, 35, 0.75)]
        rng = np.random.default_rng(17)
        Z = rng.standard_normal((5, 8))
        batch = gd.delta(ins, Z, 20, 57, params)
        for i in range(5):
            single = gd.delta(ins, Z[i][None], 20, 57, params)[0]
            np.testing.assert_allclose(batch[i], single, rtol=1e-12, atol=1e-14)


class TestGuidedEps:
    """The rollout closure's guided eps: eps_uncond + gamma * (eps_cond -
    eps_uncond) + delta."""

    def test_decomposition_identity(self):
        params = small_params(seed=18)
        rng = np.random.default_rng(19)
        for gamma in (0.0, 1.0, 7.5, -2.0):
            z = rng.standard_normal(2)
            t = int(rng.integers(1, 50))
            c = int(rng.integers(0, 4))
            e_u, _ = oracles.forward(params, z, t, params.null_id)
            guid = gd.rollout_guidance(params, gamma, [])
            out = guid(z[None], 20, t, c)[0]
            np.testing.assert_allclose(
                out - e_u, gamma * oracles.class_direction(params, z, t, c),
                rtol=1e-12, atol=1e-14)

    def test_relation_to_cfg_compose(self):
        params = small_params(seed=20)
        rng = np.random.default_rng(21)
        for gamma in (0.0, 7.5):
            z = rng.standard_normal(2)
            t = int(rng.integers(1, 50))
            c = 1
            e_c, _ = oracles.forward(params, z, t, c)
            e_u, _ = oracles.forward(params, z, t, params.null_id)
            guid = gd.rollout_guidance(params, gamma, [])
            out = guid(z[None], 20, t, c)[0]
            np.testing.assert_allclose(out, gd.cfg_compose(e_u, e_c, gamma - 1.0),
                                       rtol=1e-12, atol=1e-14)

    def test_delta_adds_linearly(self):
        params = small_params(input_dim=16, seed=22)
        ins = [gd.InstructionConcept(0, -7.5, 12, 35, 0.95),
               gd.InstructionConcept(1, 6.5, 12, 35, 0.95)]
        rng = np.random.default_rng(23)
        Z = rng.standard_normal((1, 16))
        with_delta = gd.rollout_guidance(params, 7.5, ins)(Z, 20, 57, 2)
        without = gd.rollout_guidance(params, 7.5, [])(Z, 20, 57, 2)
        d = gd.delta(ins, Z, 20, 57, params)
        np.testing.assert_allclose(with_delta, without + d, rtol=1e-12,
                                   atol=1e-14)

    def test_paper_instruction_set_mask_density(self):
        d = 256
        params = small_params(n_concepts=5, input_dim=d, seed=24)
        ins = [gd.InstructionConcept(0, -7.5, 12, 35, 0.95),
               gd.InstructionConcept(1, 6.5, 12, 35, 0.95),
               gd.InstructionConcept(2, 6.5, 12, 35, 0.95)]
        rng = np.random.default_rng(25)
        bound = 0.05 * d + 1
        for t in (12, 20, 35):
            z = rng.standard_normal(d)
            for single in ins:
                out = gd.delta([single], z[None], t, 57, params)
                assert np.count_nonzero(out) <= bound


class TestCfgGuidance:
    @pytest.mark.parametrize("gamma", [0.0, -1.0, 7.5])
    def test_matches_two_forward_batch_calls(self, gamma):
        """The CFG closure evaluates [c, null] in one nnet.eps_columns call;
        two forward_batch calls are its oracle, within the rounding bound
        of eps_columns (1e-14 of the largest magnitude)."""
        params = small_params(input_dim=16, seed=26)
        Z = np.random.default_rng(27).standard_normal((60, 16))
        for c in (0, 3, params.null_id):
            got = gd.cfg_guidance(params, gamma)(Z, 9, 17, c)
            want = oracles.cfg_guidance(params, gamma)(Z, 9, 17, c)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
