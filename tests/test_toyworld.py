"""Generators and analytic oracles for the synthetic concept worlds."""

import numpy as np
import pytest
from scipy.special import logsumexp

from eraselab import toyworld as tw
from eraselab.errors import ConfigError, StructuralError

import oracles


def make_mixture(means, sigma=0.1, weights=None):
    k = len(means)
    if weights is None:
        weights = tuple([1.0 / k] * k)
    return tw.PointMixtureSpec(means=tuple(means), sigma=sigma, weights=tuple(weights))


class TestConceptVocab:
    def test_dense_ids_and_null(self):
        vocab = tw.ConceptVocab.from_names(["a", "b", "c"])
        assert vocab.size == 3
        assert vocab.null_id == 3
        assert vocab.id_of("b") == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            tw.ConceptVocab.from_names(["a", "a"])

    def test_validate_id_null_gating(self):
        vocab = tw.ConceptVocab.from_names(["a", "b"])
        vocab.validate_id(2, allow_null=True)
        with pytest.raises(ConfigError):
            vocab.validate_id(2, allow_null=False)


class TestSpecs:
    def test_weights_must_normalize(self):
        with pytest.raises(ConfigError):
            tw.PointMixtureSpec(means=((0, 0),), sigma=0.1, weights=(0.5,))

    def test_sigma_positive(self):
        with pytest.raises(ConfigError):
            make_mixture([(0, 0)], sigma=0.0)

    def test_empty_means_rejected(self):
        with pytest.raises(ConfigError):
            tw.PointMixtureSpec(means=(), sigma=0.1, weights=())

    def test_unknown_shape_rejected(self):
        with pytest.raises(ConfigError):
            tw.GlyphSpec(shape_kinds=("hexagon",))


class TestGenPoints2d:
    def test_monte_carlo_mean(self):
        spec = make_mixture([(0.0, 0.0)], sigma=0.1)
        ds = tw.gen_points2d(spec, 10 ** 5, seed=11)
        bound = 3.0 * 0.1 / np.sqrt(10 ** 5)
        assert np.all(np.abs(ds.samples.mean(axis=0)) < bound)

    def test_seed_determinism(self):
        spec = make_mixture([(1, 0), (-1, 0)])
        a = tw.gen_points2d(spec, 50, seed=7)
        b = tw.gen_points2d(spec, 50, seed=7)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_count_rejected(self):
        spec = make_mixture([(0, 0)])
        with pytest.raises(ConfigError):
            tw.gen_points2d(spec, 0, seed=0)

    def test_labels_balanced(self):
        spec = make_mixture([(1, 0), (-1, 0), (0, 1)])
        ds = tw.gen_points2d(spec, 40, seed=3)
        assert [int((ds.labels == i).sum()) for i in range(3)] == [40, 40, 40]


class TestGenGlyphs:
    def test_zero_jitter_matches_canonical_template(self):
        spec = tw.GlyphSpec(shape_kinds=tw.KNOWN_SHAPES, jitter_pos=0.0,
                            jitter_scale=0.0, intensity_low=1.0, intensity_high=1.0)
        ds = tw.gen_glyphs(spec, 3, seed=5)
        for cid in range(spec.n_concepts):
            tmpl = tw.canonical_template(spec, cid)
            for row in ds.samples[ds.labels == cid]:
                np.testing.assert_allclose(row, tmpl)

    def test_pixel_range(self):
        spec = tw.default_glyph_vocab()[1]
        ds = tw.gen_glyphs(spec, 20, seed=9)
        assert ds.samples.min() >= 0.0 and ds.samples.max() <= 1.0

    def test_seed_determinism(self):
        spec = tw.default_glyph_vocab()[1]
        a = tw.gen_glyphs(spec, 8, seed=2)
        b = tw.gen_glyphs(spec, 8, seed=2)
        np.testing.assert_array_equal(a.samples, b.samples)


class TestMixtureScore:
    def test_single_component_closed_form(self):
        spec = make_mixture([(0.3, -0.7)], sigma=0.25)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.uniform(-1, 1, size=2)
            expect = -(x - np.array([0.3, -0.7])) / 0.25 ** 2
            np.testing.assert_allclose(oracles.mixture_log_density_grad(spec, x),
                                       expect, rtol=1e-12)

    def test_symmetric_midpoint_zero_along_axis(self):
        spec = make_mixture([(1.0, 0.0), (-1.0, 0.0)], sigma=0.4)
        grad = oracles.mixture_log_density_grad(spec, np.array([0.0, 0.3]))
        assert abs(grad[0]) < 1e-14

    def test_matches_finite_differences(self):
        spec = make_mixture([(1, 0), (-0.4, 0.8), (0.2, -0.9)], sigma=0.3,
                            weights=(0.5, 0.2, 0.3))
        h = 1e-5
        rng = np.random.default_rng(42)

        def log_density(pt, alpha_bar):
            means, var = oracles._noised_params(spec, alpha_bar)
            d2 = ((pt - means) ** 2).sum(axis=1)
            return logsumexp(np.log(spec.weights) - d2 / (2 * var))

        for alpha_bar in (None, 1.0, 0.7, 0.2):
            for _ in range(25):
                x = rng.uniform(-1.5, 1.5, size=2)
                grad = oracles.mixture_log_density_grad(spec, x, alpha_bar=alpha_bar)
                num = np.zeros(2)
                for i in range(2):
                    e = np.zeros(2)
                    e[i] = h
                    num[i] = (log_density(x + e, alpha_bar)
                              - log_density(x - e, alpha_bar)) / (2 * h)
                scale = max(1.0, float(np.abs(num).max()))
                assert np.abs(grad - num).max() / scale <= 1e-6

    def test_alpha_bar_range_checked(self):
        spec = make_mixture([(0, 0)])
        with pytest.raises(ConfigError):
            oracles.mixture_log_density_grad(spec, np.zeros(2), alpha_bar=0.0)
        with pytest.raises(ConfigError):
            oracles.mixture_log_density_grad(spec, np.zeros(2), alpha_bar=1.2)


class TestBayesClassify:
    def test_component_mean_high_posterior(self):
        vocab, spec = tw.default_points_vocab()
        for k in range(spec.n_components):
            label, posterior = tw.bayes_classify(spec, spec.mean_array()[k])
            assert label == k
            assert posterior[k] > 0.99

    def test_posterior_normalized(self):
        spec = make_mixture([(1, 0), (-1, 0), (0, 1)], sigma=0.5)
        rng = np.random.default_rng(1)
        for _ in range(30):
            _, posterior = tw.bayes_classify(spec, rng.uniform(-2, 2, size=2))
            np.testing.assert_allclose(posterior.sum(), 1.0, atol=1e-12)

    def test_tie_breaks_to_lowest_id(self):
        spec = make_mixture([(1.0, 0.0), (-1.0, 0.0)], sigma=0.3)
        label, posterior = tw.bayes_classify(spec, np.array([0.0, 0.5]))
        np.testing.assert_allclose(posterior[0], posterior[1], atol=1e-12)
        assert label == 0

    def test_calibration_against_bayes_rate(self):
        vocab, spec = tw.default_points_vocab()
        rate = oracles.bayes_rate_quadrature(spec)
        ds = tw.gen_points2d(spec, 1250, seed=17)   # 8 * 1250 = 10^4
        hits = sum(tw.bayes_classify(spec, x)[0] == l
                   for x, l in zip(ds.samples, ds.labels))
        assert abs(hits / len(ds.labels) - rate) <= 0.02


class TestTemplateClassify:
    def test_self_match(self):
        spec = tw.default_glyph_vocab()[1]
        for cid in range(spec.n_concepts):
            label, conf = tw.template_classify(spec, tw.canonical_template(spec, cid))
            assert label == cid
            assert conf >= 0.99

    def test_zero_image_degenerate(self):
        spec = tw.default_glyph_vocab()[1]
        label, conf = tw.template_classify(spec, np.zeros(256))
        assert conf == 0.0

    def test_confidence_decreases_with_noise(self):
        spec = tw.default_glyph_vocab()[1]
        tmpl = tw.canonical_template(spec, 0)
        rng = np.random.default_rng(23)
        noise = rng.standard_normal(256)
        confs = []
        for amp in (0.0, 0.3, 0.8, 2.0, 6.0):
            confs.append(tw.template_classify(spec, tmpl + amp * noise)[1])
        assert all(a > b for a, b in zip(confs, confs[1:]))

    def test_wrong_length_rejected(self):
        spec = tw.default_glyph_vocab()[1]
        with pytest.raises(StructuralError):
            tw.template_classify(spec, np.zeros(100))

    def test_jittered_data_recognized(self):
        vocab, spec = tw.default_glyph_vocab()
        ds = tw.gen_glyphs(spec, 40, seed=31)
        hits = sum(tw.template_classify(spec, x)[0] == l
                   for x, l in zip(ds.samples, ds.labels))
        assert hits / len(ds.labels) >= 0.97


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        spec = make_mixture([(1, 0), (-1, 0)])
        ds = tw.gen_points2d(spec, 10, seed=4)
        path = tmp_path / "pts.csv"
        tw.dataset_to_csv(ds, path)
        back = tw.dataset_from_csv(path, mode="points2d", n_concepts=2)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_allclose(back.samples, ds.samples, rtol=0, atol=0)

    @pytest.mark.parametrize("mode", ["points2d", "glyphs16"])
    def test_round_trip_default_worlds(self, tmp_path, mode):
        if mode == "points2d":
            vocab, spec = tw.default_points_vocab()
            ds = tw.gen_points2d(spec, 25, seed=8)
        else:
            vocab, spec = tw.default_glyph_vocab()
            ds = tw.gen_glyphs(spec, 12, seed=8)
        path = tmp_path / "data.csv"
        tw.dataset_to_csv(ds, path)
        back = tw.dataset_from_csv(path, mode=mode, n_concepts=vocab.size)
        assert np.array_equal(back.samples, ds.samples)
        assert np.array_equal(back.labels, ds.labels)
        assert back.samples.flags.c_contiguous

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ConfigError):
            tw.dataset_from_csv(path, mode="points2d", n_concepts=2)

    def test_empty_and_header_only_files_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        for text in ("", "label,x0,x1\n"):
            path.write_text(text)
            with pytest.raises(ConfigError):
                tw.dataset_from_csv(path, mode="points2d", n_concepts=2)


    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"label,x0,x1\n0,1.0,2\xb5.0\n")
        with pytest.raises(ConfigError, match="not a text file"):
            tw.dataset_from_csv(path, mode="points2d", n_concepts=2)


_CELLS = ["", "nan", "inf", "-inf", "1e999", "abc", "0x10", "1,2", " ", "-1",
          "8", "3.5", "1e-320", "\x00", "\u00e9", '"1"', "1_0", "+1", "--1"]


def _mutated_rows(rows, rng, kind):
    """rows (lists of cells, header first) with one seeded mutation."""
    rows = [list(r) for r in rows]
    at = int(rng.integers(len(rows)))
    cell = _CELLS[rng.integers(len(_CELLS))]
    if kind == "cell":
        rows[at][rng.integers(len(rows[at]))] = cell
    elif kind == "row":
        if rng.random() < 0.5:
            del rows[at]
        else:
            rows.insert(at, list(rows[rng.integers(len(rows))]))
    elif kind == "width":
        if rng.random() < 0.5:
            rows[at].pop()
        else:
            rows[at].append(cell)
    else:
        keep = int(rng.integers(1, 4))
        rows = [r[:keep] for r in rows]
    return rows


class TestDatasetCsvFuzz:
    """Seeded mutations of a valid points CSV: the loader raises ConfigError
    and nothing else."""

    KINDS = ("cell", "row", "width", "all-widths", "byte-flips")

    @pytest.mark.parametrize("kind", KINDS)
    def test_only_config_errors_escape(self, tmp_path, kind):
        vocab, spec = tw.default_points_vocab()
        good = tmp_path / "good.csv"
        tw.dataset_to_csv(tw.gen_points2d(spec, 3, seed=0), good)
        rows = [line.split(",") for line in good.read_text().splitlines()]
        rng = np.random.default_rng(self.KINDS.index(kind))
        path = tmp_path / "fuzzed.csv"
        rejected = 0
        for _ in range(300):
            if kind == "byte-flips":
                blob = bytearray(good.read_bytes())
                for _ in range(rng.integers(1, 4)):
                    blob[rng.integers(len(blob))] ^= 1 << int(rng.integers(8))
                path.write_bytes(bytes(blob))
            else:
                path.write_text("\n".join(",".join(r) for r in
                                          _mutated_rows(rows, rng, kind)) + "\n")
            try:
                tw.dataset_from_csv(path, "points2d", vocab.size)
            except ConfigError:
                rejected += 1
        assert rejected > 0


# -- the per-row oracles, kept as the oracle of the batched classifiers ------

def per_row_bayes(spec, x):
    """bayes_classify for one point, as before vectorization."""
    x = np.asarray(x, dtype=np.float64)
    means, var = oracles._noised_params(spec, None)
    diff = x[None, :] - means
    log_w = np.log(np.maximum(np.asarray(spec.weights), 1e-300))
    log_comp = log_w - (diff ** 2).sum(axis=1) / (2.0 * var)
    posterior = np.exp(log_comp - logsumexp(log_comp))
    posterior /= posterior.sum()
    return int(np.argmax(posterior)), posterior


def per_row_template(spec, image):
    """template_classify for one image: 125 rolled templates per call."""
    image = np.asarray(image, dtype=np.float64).reshape(-1)
    centered = image - image.mean()
    norm = np.linalg.norm(centered)
    if norm == 0.0:
        return 0, 0.0
    img2 = centered.reshape(spec.resolution, spec.resolution)
    r = tw.TEMPLATE_SEARCH_RADIUS
    best_id, best_ncc = 0, -np.inf
    for cid in range(spec.n_concepts):
        tmpl = tw.canonical_template(spec, cid).reshape(spec.resolution,
                                                        spec.resolution)
        for sy in range(-r, r + 1):
            for sx in range(-r, r + 1):
                shifted = np.roll(np.roll(tmpl, sy, axis=0), sx, axis=1)
                t_centered = shifted - shifted.mean()
                t_norm = np.linalg.norm(t_centered)
                ncc = float((img2 * t_centered).sum() / (norm * t_norm))
                if ncc > best_ncc:
                    best_id, best_ncc = cid, ncc
    return best_id, (best_ncc + 1.0) / 2.0


class TestBatchedOraclesMatchPerRow:
    def glyph_batch(self):
        _, spec = tw.default_glyph_vocab()
        canon = [tw.canonical_template(spec, cid) for cid in range(spec.n_concepts)]
        jittered = tw.gen_glyphs(spec, 12, seed=5).samples
        noisy = jittered[::4] + 0.4 * np.random.default_rng(6).standard_normal(
            (len(jittered[::4]), 256))
        return spec, np.vstack([canon, jittered, noisy, np.full((1, 256), 0.25)])

    def test_template_batch_matches_per_row(self):
        spec, X = self.glyph_batch()
        labels, confs = tw.template_classify(spec, X)
        for x, label, conf in zip(X, labels, confs):
            want_label, want_conf = per_row_template(spec, x)
            assert label == want_label
            assert abs(conf - want_conf) <= 1e-9
        assert confs[-1] == 0.0 and labels[-1] == 0

    def test_template_single_image_returns_scalars(self):
        spec, X = self.glyph_batch()
        label, conf = tw.template_classify(spec, X[7])
        want_label, want_conf = per_row_template(spec, X[7])
        assert label == want_label and abs(conf - want_conf) <= 1e-9
        assert isinstance(label, int) and isinstance(conf, float)
        assert tw.template_oracle(spec)(X[-1]) == (0, 0.0)

    def test_bayes_batch_matches_per_row(self):
        _, spec = tw.default_points_vocab()
        X = np.vstack([tw.gen_points2d(spec, 20, seed=7).samples,
                       np.random.default_rng(8).uniform(-2, 2, (40, 2)),
                       np.zeros((1, 2))])
        labels, posteriors = tw.bayes_classify(spec, X)
        oracle_labels, oracle_confs = tw.bayes_oracle(spec)(X)
        for x, label, post, o_label, o_conf in zip(X, labels, posteriors,
                                                   oracle_labels, oracle_confs):
            want_label, want_post = per_row_bayes(spec, x)
            assert label == o_label == want_label
            np.testing.assert_allclose(post, want_post, rtol=0, atol=1e-9)
            assert abs(o_conf - want_post[want_label]) <= 1e-9
        label, conf = tw.bayes_oracle(spec)(X[0])
        assert isinstance(label, int) and isinstance(conf, float)

    def test_bayes_softmax_matches_logsumexp(self):
        """The max-shifted softmax against scipy's logsumexp, as the batched
        classifier computed it before, on points near and far from the
        means."""
        _, spec = tw.default_points_vocab()
        rng = np.random.default_rng(9)
        X = np.vstack([tw.gen_points2d(spec, 500, seed=10).samples,
                       rng.uniform(-3, 3, (4000, 2)),
                       rng.uniform(-40, 40, (1000, 2))])
        diff = X[:, None, :] - spec.mean_array()
        log_w = np.log(np.maximum(np.asarray(spec.weights), 1e-300))
        log_comp = log_w - (diff ** 2).sum(axis=2) / (2.0 * spec.sigma ** 2)
        want = np.exp(log_comp - logsumexp(log_comp, axis=1, keepdims=True))
        want /= want.sum(axis=1, keepdims=True)
        labels, posteriors = tw.bayes_classify(spec, X)
        assert np.abs(posteriors - want).max() <= 1e-15
        assert np.array_equal(labels, np.argmax(want, axis=1))
