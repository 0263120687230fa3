"""Schedule identities, DDIM algebra, base training, and inversion."""

import numpy as np
import pytest

from eraselab import diffusion as df
from eraselab import nnet
from eraselab import toyworld as tw
from eraselab.errors import ConfigError

import oracles


class TestSchedule:
    def test_single_step(self):
        sched = df.make_linear_schedule(1, 0.5, 0.5)
        np.testing.assert_allclose(sched.alpha, [0.5])
        np.testing.assert_allclose(sched.alpha_bar, [0.5])

    def test_two_step_product(self):
        sched = df.NoiseSchedule.from_betas(np.array([0.1, 0.2]))
        np.testing.assert_allclose(sched.alpha_bar, [0.9, 0.72], rtol=1e-15)

    def test_default_terminal_alpha_bar_matches_product_loop(self):
        sched = df.make_linear_schedule()
        betas = np.linspace(1e-4, 0.02, 100)
        prod = 1.0
        for b in betas:
            prod *= 1.0 - b
        np.testing.assert_allclose(sched.alpha_bar[-1], prod, rtol=1e-14)

    def test_monotonicity(self):
        for beta_end in (0.02, 0.04):
            sched = df.make_linear_schedule(100, 1e-4, beta_end)
            assert np.all(np.diff(sched.alpha_bar) < 0)
            assert np.all(np.diff(sched.sigma) > 0)
            assert sched.alpha_bar[0] == sched.alpha[0]
            np.testing.assert_array_equal(sched.sigma,
                                          np.sqrt(1.0 - sched.alpha_bar))

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ConfigError):
            df.make_linear_schedule(0, 1e-4, 0.02)
        with pytest.raises(ConfigError):
            df.make_linear_schedule(10, 0.0, 0.02)
        with pytest.raises(ConfigError):
            df.make_linear_schedule(10, 0.03, 0.02)
        with pytest.raises(ConfigError):
            df.make_linear_schedule(10, 0.5, 1.0)


class TestSamplerConfig:
    def test_uniform_default_spacing(self):
        sampler = df.SamplerConfig.uniform(35, 100)
        assert len(sampler.tau) == 35
        assert sampler.tau[-1] == 100
        assert all(b > a for a, b in zip(sampler.tau, sampler.tau[1:]))

    def test_full_sequence(self):
        sampler = df.SamplerConfig.uniform(100, 100)
        assert sampler.tau == tuple(range(1, 101))

    def test_schedule_t_of_index(self):
        sampler = df.SamplerConfig.uniform(35, 100)
        assert sampler.schedule_t(0) == 0
        assert sampler.schedule_t(35) == 100
        with pytest.raises(ConfigError):
            sampler.schedule_t(36)


class TestForwardDiffuse:
    def test_zero_eps(self, sched):
        x0 = np.array([1.0, -2.0])
        z = oracles.forward_diffuse(x0, 40, np.zeros(2), sched)
        np.testing.assert_allclose(z, np.sqrt(sched.alpha_bar_at(40)) * x0,
                                   rtol=1e-15)

    def test_identity_limit(self):
        sched = df.make_linear_schedule(10, 1e-9, 1e-8)
        x0 = np.array([0.7, 0.3])
        z = oracles.forward_diffuse(x0, 1, np.ones(2), sched)
        np.testing.assert_allclose(z, x0, atol=1e-4)

    def test_monte_carlo_moments(self, sched):
        rng = np.random.default_rng(0)
        x0 = np.array([0.5, -1.0])
        t = 60
        n = 10 ** 5
        eps = rng.standard_normal((n, 2))
        z = oracles.forward_diffuse(x0, t, eps, sched)
        a = sched.alpha_bar_at(t)
        se_mean = np.sqrt((1 - a) / n)
        assert np.all(np.abs(z.mean(axis=0) - np.sqrt(a) * x0) < 3 * se_mean)
        se_var = (1 - a) * np.sqrt(2.0 / n)
        assert np.all(np.abs(z.var(axis=0) - (1 - a)) < 3 * se_var)

    def test_timestep_range(self, sched):
        with pytest.raises(ConfigError):
            oracles.forward_diffuse(np.zeros(2), 0, np.zeros(2), sched)
        with pytest.raises(ConfigError):
            oracles.forward_diffuse(np.zeros(2), 101, np.zeros(2), sched)


class TestDdimStep:
    def test_to_zero_returns_x0_hat(self, sched):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(2)
        eps = rng.standard_normal(2)
        t = 50
        a = sched.alpha_bar_at(t)
        expect = (z - np.sqrt(1 - a) * eps) / np.sqrt(a)
        np.testing.assert_allclose(df.ddim_step(z, eps, t, 0, sched), expect,
                                   rtol=1e-14)

    def test_zero_eps_rescales(self, sched):
        z = np.array([0.3, -0.4])
        out = df.ddim_step(z, np.zeros(2), 80, 40, sched)
        ratio = np.sqrt(sched.alpha_bar_at(40) / sched.alpha_bar_at(80))
        np.testing.assert_allclose(out, ratio * z, rtol=1e-14)

    def test_round_trip_exact(self, sched):
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = rng.standard_normal(2)
            eps = rng.standard_normal(2)
            t = int(rng.integers(2, 101))
            s = int(rng.integers(0, t))
            down = df.ddim_step(z, eps, t, s, sched)
            back = df.ddim_step(down, eps, s, t, sched)
            np.testing.assert_allclose(back, z, atol=1e-10)


class TestTrainBase:
    def test_validation_loss_decreases(self, points_world, points_base, sched):
        _, _, dataset = points_world
        shape = nnet.NetworkShape(input_dim=2)
        fresh = nnet.init_params(shape, dataset.n_concepts, seed=1)
        before = oracles.validation_eps_loss(fresh, dataset, sched, seed=99)
        after = oracles.validation_eps_loss(points_base, dataset, sched, seed=99)
        assert after < before

    def test_learned_score_matches_analytic(self, gauss1_world, gauss1_base, sched):
        spec, dataset = gauss1_world
        rng = np.random.default_rng(5)
        t = 50
        a = sched.alpha_bar_at(t)
        sig = sched.sigma_at(t)
        errs = []
        for _ in range(200):
            x0 = dataset.samples[rng.integers(0, len(dataset.labels))]
            z = oracles.forward_diffuse(x0, t, rng.standard_normal(2), sched)
            eps_hat, _ = nnet.forward(gauss1_base, z, t, 0)
            truth = oracles.mixture_log_density_grad(spec, z, alpha_bar=a)
            errs.append(np.linalg.norm(-eps_hat / sig - truth)
                        / np.linalg.norm(truth))
        assert np.mean(errs) <= 0.10

    def test_degenerate_dropout_collapses_conditioning(self, uncond_base):
        rng = np.random.default_rng(6)
        for _ in range(25):
            z = rng.standard_normal(2)
            t = int(rng.integers(1, 101))
            e_u, _ = nnet.forward(uncond_base, z, t, uncond_base.null_id)
            for c in range(uncond_base.n_concepts):
                e_c, _ = nnet.forward(uncond_base, z, t, c)
                assert np.linalg.norm(e_c - e_u) < 0.05

    def test_empty_dataset_rejected(self, sched):
        dataset = tw.Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int),
                             mode="points2d", n_concepts=2)
        with pytest.raises(ConfigError):
            df.train_base(dataset, nnet.NetworkShape(input_dim=2), sched,
                          steps=1, p_uncond=0.1, seed=0)


class TestSample:
    def test_seed_determinism(self, points_base, sched, sampler):
        a = oracles.sample(points_base, sched, sampler, c=0, guid=None, seed=42)
        b = oracles.sample(points_base, sched, sampler, c=0, guid=None, seed=42)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.eps_hats, b.eps_hats)

    def test_trajectory_shape(self, points_base, sched, sampler):
        traj = oracles.sample(points_base, sched, sampler, c=1, guid=None, seed=7)
        assert traj.states.shape == (36, 2)
        assert traj.eps_hats.shape == (35, 2)
        assert traj.sampler_indices[0] == 35
        assert traj.sampler_indices[-1] == 0

    def test_stop_index(self, points_base, sched, sampler):
        traj = oracles.sample(points_base, sched, sampler, c=1, guid=None,
                              seed=7, stop_index=20)
        assert traj.sampler_indices == tuple(range(35, 19, -1))
        assert traj.states.shape == (16, 2)

    def test_explicit_gamma0_closure_matches_none(self, points_base, sched, sampler):
        traj_plain = oracles.sample(points_base, sched, sampler, c=2, guid=None, seed=9)

        def cfg0(Z, i, t, c):
            e_c, _ = nnet.forward_batch(points_base, Z, t, c)
            e_u, _ = nnet.forward_batch(points_base, Z, t, points_base.null_id)
            return (1 + 0.0) * e_c - 0.0 * e_u

        traj_cfg = oracles.sample(points_base, sched, sampler, c=2, guid=cfg0, seed=9)
        np.testing.assert_allclose(traj_cfg.states, traj_plain.states,
                                   rtol=1e-12, atol=1e-14)

    def test_base_samples_classified_correctly(self, points_world, points_base,
                                               sched, sampler):
        _, spec, _ = points_world
        accs = []
        for cid in range(8):
            X = df.sample_final_batch(points_base, sched, sampler, cid, None,
                                      200, seed=500 + cid)
            accs.append(np.mean([tw.bayes_classify(spec, x)[0] == cid
                                 for x in X]))
        assert min(accs) >= 0.90


class TestInvert:
    def test_identity_model_closed_form(self, sched, sampler):
        shape = nnet.NetworkShape(input_dim=2, hidden=(4,))
        params = oracles.zero_like_params(nnet.init_params(shape, 1, seed=0))
        x0 = np.array([0.8, -0.6])
        z_T = df.ddim_invert(x0, params, sched, sampler, c=0)
        np.testing.assert_allclose(z_T, np.sqrt(sched.alpha_bar_at(100)) * x0,
                                   rtol=1e-12)
        traj = oracles.sample(params, sched, sampler, c=0, guid=None, seed=0)
        recon, _, _ = df.descend(z_T[None, :], sampler, sched, 0,
                                  df.conditional_eps(params), 0, record=False)
        np.testing.assert_allclose(recon[0], x0, rtol=1e-12)

    def test_round_trip_on_training_samples(self, points_world, points_base,
                                            sched, sampler):
        _, _, dataset = points_world
        rng = np.random.default_rng(11)
        guid = df.conditional_eps(points_base)
        rels = []
        for _ in range(32):
            idx = rng.integers(0, len(dataset.labels))
            x0 = dataset.samples[idx]
            c = int(dataset.labels[idx])
            z_T = df.ddim_invert(x0, points_base, sched, sampler, c)
            recon, _, _ = df.descend(z_T[None, :], sampler, sched, c, guid,
                                      0, record=False)
            rels.append(np.linalg.norm(recon[0] - x0) / np.linalg.norm(x0))
        assert np.mean(rels) <= 0.05

    def test_inverted_latents_look_gaussian(self, points_world, points_base,
                                            sched, sampler):
        _, _, dataset = points_world
        rng = np.random.default_rng(12)
        idx = rng.integers(0, len(dataset.labels), size=128)
        zs = np.array([df.ddim_invert(dataset.samples[i], points_base, sched,
                                      sampler, int(dataset.labels[i]))
                       for i in idx])
        assert np.all(np.abs(zs.mean(axis=0)) <= 0.2)
        assert np.all((zs.std(axis=0) >= 0.8) & (zs.std(axis=0) <= 1.2))
