"""Metrics (erasure rate, MMD^2, SSIM, consistency) and theory verifiers."""

import json

import numpy as np
import pytest

from eraselab import analysis as an
from eraselab import diffusion as df
from eraselab import guidance as gd
from eraselab import nnet
from eraselab import toyworld as tw
from eraselab.errors import ConfigError, StructuralError

import oracles


def tiny_model(input_dim=2, n_concepts=3, seed=0):
    shape = nnet.NetworkShape(input_dim=input_dim, hidden=(6,),
                              time_embed_dim=4, concept_embed_dim=4)
    return nnet.init_params(shape, n_concepts, seed=seed)


class TestErasureRate:
    def test_canonical_target_glyphs_rate_one(self):
        _, spec = tw.default_glyph_vocab()
        oracle = lambda X: tw.template_classify(spec, X)
        batch = np.stack([tw.canonical_template(spec, 2).ravel()] * 5)
        assert an.erasure_rate(batch, 2, oracle, threshold=0.7) == 1.0

    def test_no_target_hits_rate_zero(self):
        oracle = lambda X: (np.ones(len(X), dtype=int), np.ones(len(X)))
        batch = np.zeros((4, 2))
        assert an.erasure_rate(batch, 0, oracle, threshold=0.7) == 0.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        confs = rng.uniform(0, 1, size=50)
        batch = confs[:, None]
        oracle = lambda X: (np.zeros(len(X), dtype=int), X[:, 0])
        rates = [an.erasure_rate(batch, 0, oracle, threshold=th)
                 for th in np.linspace(0, 1, 21)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert all(0.0 <= r <= 1.0 for r in rates)

    def test_empty_batch_rejected(self):
        with pytest.raises(StructuralError):
            an.erasure_rate(np.zeros((0, 2)), 0,
                            lambda X: (np.zeros(len(X), dtype=int), np.ones(len(X))),
                            threshold=0.7)


def mmd2_loops(X, Y, k):
    """Literal double-loop evaluation of the paired estimator."""
    m = len(X)
    total = 0.0
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            total += (k(X[i], X[j]) + k(Y[i], Y[j])
                      - k(X[i], Y[j]) - k(X[j], Y[i]))
    return total / (m * (m - 1))


def kid_kernel(a, b):
    return (float(a @ b) / len(a) + 1.0) ** 3


class TestMmd2:
    def test_identical_batches_near_zero(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 3))
        assert abs(an.mmd2(X, X)) <= 1e-10

    def test_matches_double_loop_paired(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((12, 2))
        Y = rng.standard_normal((12, 2)) + 0.5
        got = an.mmd2(X, Y)
        want = mmd2_loops(X, Y, kid_kernel)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_matches_double_loop_polynomial_unequal_sizes(self):
        # Unequal batches are rejected rather than estimated; cut to one
        # size, the same draws match the double-loop oracle.
        rng = np.random.default_rng(3)
        X = rng.standard_normal((10, 4))
        Y = rng.standard_normal((15, 4)) + 0.3
        with pytest.raises(StructuralError):
            an.mmd2(X, Y)
        got = an.mmd2(X, Y[:10])
        want = mmd2_loops(X, Y[:10], kid_kernel)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_permutation_null_has_zero_mean(self):
        rng = np.random.default_rng(4)
        pooled = rng.standard_normal((60, 2))
        vals = []
        for _ in range(100):
            perm = rng.permutation(60)
            vals.append(an.mmd2(pooled[perm[:30]], pooled[perm[30:]]))
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean()) <= 3 * se

    def test_shape_errors(self):
        with pytest.raises(StructuralError):
            an.mmd2(np.zeros((4, 2)), np.zeros((4, 3)))
        with pytest.raises(StructuralError):
            an.mmd2(np.zeros((1, 2)), np.zeros((4, 2)))
        with pytest.raises(StructuralError):
            an.mmd2(np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(StructuralError):
            an.mmd2(np.zeros((10, 4)), np.zeros((15, 4)))


def ssim_loops(a, b, window):
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    vals = []
    for i in range(a.shape[0] - window + 1):
        for j in range(a.shape[1] - window + 1):
            wa = a[i:i + window, j:j + window]
            wb = b[i:i + window, j:j + window]
            mu_a, mu_b = wa.mean(), wb.mean()
            var_a = (wa * wa).mean() - mu_a ** 2
            var_b = (wb * wb).mean() - mu_b ** 2
            cov = (wa * wb).mean() - mu_a * mu_b
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                        / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)))
    return float(np.mean(vals))


class TestSsim:
    def test_identical_images_exactly_one(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(0, 1, size=(16, 16))
        assert an.ssim(img, img) == 1.0

    def test_contrast_inversion_below_one(self):
        rng = np.random.default_rng(7)
        img = rng.uniform(0, 1, size=(16, 16))
        assert an.ssim(img, 1.0 - img) < 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0, 1, size=(16, 16))
        b = rng.uniform(0, 1, size=(16, 16))
        assert an.ssim(a, b) == an.ssim(b, a)

    def test_matches_per_window_loops(self):
        rng = np.random.default_rng(9)
        a16 = rng.uniform(0, 1, size=(16, 16))
        b16 = rng.uniform(0, 1, size=(16, 16))
        np.testing.assert_allclose(an.ssim(a16, b16),
                                   ssim_loops(a16, b16, 7), atol=1e-12)

    def test_stays_in_range(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = rng.uniform(0, 1, size=(16, 16))
            b = rng.uniform(0, 1, size=(16, 16))
            assert -1.0 - 1e-12 <= an.ssim(a, b) <= 1.0 + 1e-12

    def test_shape_and_window_errors(self):
        with pytest.raises(StructuralError):
            an.ssim(np.zeros((16, 16)), np.zeros((8, 8)))
        with pytest.raises(ConfigError):
            an.ssim(np.zeros((6, 6)), np.zeros((6, 6)))


def consistency(model_a, model_b, sched, sampler, concepts, seeds,
                gamma=7.5):
    """seed_consistency over the two models' consistency_endpoints."""
    ends_a, ends_b = (an.consistency_endpoints(m, sched, sampler, concepts,
                                               seeds, gamma)
                      for m in (model_a, model_b))
    return an.seed_consistency(ends_a, ends_b, concepts)


class TestSeedConsistency:
    def small_sampler(self):
        return df.make_linear_schedule(20, 1e-4, 0.02), df.SamplerConfig.uniform(5, 20)

    def test_identical_models_zero_distance(self):
        sched, sampler = self.small_sampler()
        model = tiny_model()
        out = consistency(model, model, sched, sampler,
                          concepts=(0, 1), seeds=(0, 1, 2))
        assert out == {0: 0.0, 1: 0.0}

    def test_identical_glyph_models_unit_ssim(self):
        sched, sampler = self.small_sampler()
        model = tiny_model(input_dim=256)
        out = consistency(model, model, sched, sampler, concepts=(0,),
                          seeds=(3,))
        assert out == {0: 1.0}

    def test_symmetric_and_deterministic(self):
        sched, sampler = self.small_sampler()
        a = tiny_model(seed=1)
        b = tiny_model(seed=2)
        ab = consistency(a, b, sched, sampler, (0, 2), (5, 6), 7.5)
        ba = consistency(b, a, sched, sampler, (0, 2), (5, 6), 7.5)
        assert ab == ba
        assert ab == consistency(a, b, sched, sampler, (0, 2), (5, 6), 7.5)
        assert all(v < 0 for v in ab.values())

    def test_mismatched_endpoint_shapes_rejected(self):
        sched, sampler = self.small_sampler()

        def ends(model, seeds):
            return an.consistency_endpoints(model, sched, sampler, (0,),
                                            seeds, 7.5)

        a = ends(tiny_model(), (0, 1))
        for b in (ends(tiny_model(input_dim=3), (0, 1)),    # another width
                  ends(tiny_model(), (0,))):                  # fewer seeds
            with pytest.raises(StructuralError):
                an.seed_consistency(a, b, (0,))


def per_seed_consistency(model_a, model_b, sched, sampler, concepts, seeds,
                         gamma=7.5):
    """seed_consistency with one batch-1 descent per (model, concept, seed),
    as before batching."""
    metric = "ssim" if model_a.shape.input_dim == 256 else "neg_l2"
    guid_a = gd.cfg_guidance(model_a, gamma)
    guid_b = gd.cfg_guidance(model_b, gamma)
    out = {}
    for c in concepts:
        sims = []
        for seed in seeds:
            x_a = oracles.sample(model_a, sched, sampler, c, guid_a, seed=seed).final
            x_b = oracles.sample(model_b, sched, sampler, c, guid_b, seed=seed).final
            if metric == "ssim":
                sims.append(an.ssim(x_a.reshape(16, 16), x_b.reshape(16, 16)))
            else:
                sims.append(-float(np.linalg.norm(x_a - x_b)))
        out[int(c)] = float(np.mean(sims))
    return out


class TestSeedConsistencyMatchesPerSeed:
    @pytest.mark.parametrize("input_dim", [2, 256])
    def test_batched_matches_per_seed_loop(self, input_dim):
        sched = df.make_linear_schedule(20, 1e-4, 0.02)
        sampler = df.SamplerConfig.uniform(5, 20)
        a = tiny_model(input_dim=input_dim, seed=1)
        b = tiny_model(input_dim=input_dim, seed=2)
        got = consistency(a, b, sched, sampler, (0, 2, 1), (5, 6, 9), 7.5)
        want = per_seed_consistency(a, b, sched, sampler, (0, 2, 1), (5, 6, 9))
        assert list(got) == list(want)
        for c in want:
            assert abs(got[c] - want[c]) <= 1e-9 * max(abs(want[c]), 1.0)


class TestLossWeights:
    def test_ratio_identity_across_default_schedule(self):
        # 0.04 is the configured beta_end, 0.02 the common textbook one
        for beta_end in (0.02, 0.04):
            sched = df.make_linear_schedule(100, 1e-4, beta_end)
            for t in range(2, sched.T_train + 1):
                w, w_prime = an.loss_weights(t, sched)
                a_t = float(sched.alpha[t - 1])
                np.testing.assert_allclose(w, w_prime * (1 - a_t) ** 2 / a_t,
                                           rtol=1e-12)
                assert w > 0 and w_prime > 0

    def test_worked_value(self):
        # alpha_1 = 0.8, alpha_2 = 0.9 gives abar_2 = 0.72
        sched = df.NoiseSchedule.from_betas(np.array([0.2, 0.1]))
        w, w_prime = an.loss_weights(2, sched)
        np.testing.assert_allclose(w_prime, 28.0, rtol=1e-12)
        np.testing.assert_allclose(w, 28.0 * 0.1 ** 2 / 0.9, rtol=1e-12)
        np.testing.assert_allclose(w, 0.31111, rtol=1e-4)

    def test_out_of_range_rejected(self):
        sched = df.make_linear_schedule(10, 1e-4, 0.02)
        with pytest.raises(ConfigError):
            an.loss_weights(1, sched)
        with pytest.raises(ConfigError):
            an.loss_weights(11, sched)


class TestKlGuidedGaussians:
    def test_equal_means_zero(self):
        assert an.kl_guided_gaussians(np.ones(3), np.ones(3), 2.0) == 0.0

    def test_unit_offset_closed_form(self):
        assert an.kl_guided_gaussians(np.array([1.0, 0.0]),
                                      np.array([0.0, 0.0]), 1.0) == 0.5

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            mu1 = rng.standard_normal(4)
            mu2 = rng.standard_normal(4)
            assert an.kl_guided_gaussians(mu1, mu2, rng.uniform(0.1, 3)) >= 0

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(12)
        for _ in range(3):
            mu1 = rng.standard_normal(2)
            mu2 = rng.standard_normal(2)
            sigma2 = rng.uniform(0.5, 2.0)
            closed = an.kl_guided_gaussians(mu1, mu2, sigma2)
            x = mu1 + np.sqrt(sigma2) * rng.standard_normal((1_000_000, 2))
            log_ratio = (np.sum((x - mu2) ** 2, axis=1)
                         - np.sum((x - mu1) ** 2, axis=1)) / (2 * sigma2)
            np.testing.assert_allclose(log_ratio.mean(), closed, rtol=0.02)

    def test_validation(self):
        with pytest.raises(ConfigError):
            an.kl_guided_gaussians(np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(StructuralError):
            an.kl_guided_gaussians(np.zeros(2), np.zeros(3), 1.0)


class TestKlChainCheck:
    def test_matched_models_zero_everywhere(self):
        sched = df.make_linear_schedule(20, 1e-4, 0.02)
        model = tiny_model(seed=4)
        probes = [(np.array([0.1, -0.2]), t, c, c)
                  for t in (2, 7, 20) for c in (0, 1)]
        report = an.kl_chain_check(model, model, sched, probes,
                                   gamma1=7.5, gamma2=7.5)
        assert report.max_rel_discrepancy == 0.0

    def test_two_paths_agree_under_perturbation(self):
        sched = df.make_linear_schedule(20, 1e-4, 0.02)
        teacher = tiny_model(seed=5)
        rng = np.random.default_rng(13)
        for rep in range(10):
            student = teacher.copy()
            v = student.get_tensor("b1").copy()
            v[int(rng.integers(0, v.size))] += rng.uniform(0.01, 0.5)
            student.set_tensor("b1", v)
            probes = [(rng.standard_normal(2), int(rng.integers(2, 21)),
                       int(rng.integers(0, 3)), int(rng.integers(0, 3)))
                      for _ in range(5)]
            report = an.kl_chain_check(teacher, student, sched, probes,
                                       gamma1=7.5, gamma2=7.5)
            assert report.max_rel_discrepancy <= 1e-10
            assert report.max_decomposition_err <= 1e-12

    def test_mismatched_models_rejected(self):
        sched = df.make_linear_schedule(20, 1e-4, 0.02)
        with pytest.raises(ConfigError):
            an.kl_chain_check(tiny_model(), tiny_model(n_concepts=5), sched, [],
                              gamma1=7.5, gamma2=7.5)


class TestTriangleBound:
    def test_holds_on_random_pairs(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            d = int(rng.integers(1, 10))
            u = rng.standard_normal(d)
            c = rng.standard_normal(d)
            assert an.triangle_bound_holds(u, c)

    def test_collinear_equality_case(self):
        u = np.array([1.0, 2.0])
        assert an.triangle_bound_holds(u, 2 * u)


class TestMetricReport:
    def report(self):
        return an.MetricReport(erasure_rates={0: 0.05, 1: 0.9},
                               drift={0: 0.001, 1: 0.002},
                               consistency={0: -0.1, 1: -0.2},
                               sample_count=100, seeds=(1, 2, 3),
                               threshold=0.7)

    def test_json_round_trip(self):
        rep = self.report()
        back = an.MetricReport.from_dict(json.loads(json.dumps(rep.to_dict())))
        assert back == rep

    def test_validation(self):
        with pytest.raises(ConfigError):
            an.MetricReport({0: 1.5}, {}, {}, 10, (0,), 0.7)
        with pytest.raises(ConfigError):
            an.MetricReport({0: 0.5}, {}, {}, 0, (0,), 0.7)
