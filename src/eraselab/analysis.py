"""Evaluation metrics and closed-form verifiers.

Metrics: oracle-based erasure rate, unbiased MMD^2 under the KID kernel
as the distribution-drift measure, 7x7-windowed SSIM for glyph similarity, and
same-seed cross-checkpoint consistency. Verifiers: the timestep loss
weights w/w', the isotropic-Gaussian KL closed form, and the chain that
rewrites a guided reverse-transition KL as a weighted score distance;
theory_checks runs them all as one seeded suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import diffusion as df
from . import guidance as gd
from . import nnet
from .errors import ConfigError, StructuralError

@dataclass
class MetricReport:
    """Per-concept evaluation summary for one erased checkpoint."""

    erasure_rates: dict
    drift: dict
    consistency: dict
    sample_count: int
    seeds: tuple
    threshold: float

    def __post_init__(self):
        if self.sample_count <= 0:
            raise ConfigError(f"sample_count must be > 0, got {self.sample_count}")
        for cid, rate in self.erasure_rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"rate for concept {cid} outside [0,1]: {rate}")

    def to_dict(self) -> dict:
        """The report as JSON-ready data, concept ids as string keys."""
        return {
            "erasure_rates": {str(k): v for k, v in self.erasure_rates.items()},
            "drift": {str(k): v for k, v in self.drift.items()},
            "consistency": {str(k): v for k, v in self.consistency.items()},
            "sample_count": self.sample_count,
            "seeds": list(self.seeds),
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "MetricReport":
        return cls(erasure_rates={int(k): v for k, v in raw["erasure_rates"].items()},
                   drift={int(k): v for k, v in raw["drift"].items()},
                   consistency={int(k): v for k, v in raw["consistency"].items()},
                   sample_count=raw["sample_count"],
                   seeds=tuple(raw["seeds"]),
                   threshold=raw["threshold"])


def erasure_rate(samples: np.ndarray, target: int,
                 oracle: Callable[[np.ndarray], tuple], threshold: float) -> float:
    """Fraction of samples the oracle assigns to target with confidence
    at or above the threshold. The oracle classifies the whole (n, d)
    batch in one call and returns (labels, confidences), one per row."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
    if samples.shape[0] == 0:
        raise StructuralError("erasure_rate of an empty batch")
    labels, confs = oracle(samples)
    hits = np.count_nonzero((np.asarray(labels) == target)
                            & (np.asarray(confs) >= threshold))
    return int(hits) / samples.shape[0]


def mmd2(X: np.ndarray, Y: np.ndarray) -> float:
    """Unbiased MMD^2 estimate between two batches of equal size under the
    KID kernel k(x, y) = (x.y/d + 1)^3 on raw vectors.

    The paired U-statistic's summand cancels exactly when X and Y
    coincide; the estimate may be slightly negative.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if X.shape[1] != Y.shape[1]:
        raise StructuralError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    m = X.shape[0]
    if m != Y.shape[0] or m < 2:
        raise StructuralError(f"need two batches of one size >= 2, got "
                              f"{m} and {Y.shape[0]}")
    d = X.shape[1]
    k_xx, k_yy, k_xy = ((A @ B.T / d + 1.0) ** 3
                        for A, B in ((X, X), (Y, Y), (X, Y)))
    paired = k_xx + k_yy - k_xy - k_xy.T
    np.fill_diagonal(paired, 0.0)
    return float(paired.sum() / (m * (m - 1)))


def ssim(img_a: np.ndarray, img_b: np.ndarray) -> float:
    """Mean structural similarity over all valid 7x7 window positions.

    Dynamic range is taken as 1 (images live in [0, 1]); window moments
    use the biased variance so SSIM(A, A) is exactly 1.
    """
    window = 7
    a = np.asarray(img_a, dtype=np.float64)
    b = np.asarray(img_b, dtype=np.float64)
    if a.shape != b.shape:
        raise StructuralError(f"image shapes differ: {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise StructuralError(f"expected 2-D images, got shape {a.shape}")
    if window > min(a.shape):
        raise ConfigError(f"window {window} does not fit image {a.shape}")
    c1 = 0.01 ** 2
    c2 = 0.03 ** 2
    wins_a = sliding_window_view(a, (window, window))
    wins_b = sliding_window_view(b, (window, window))
    mu_a = wins_a.mean(axis=(2, 3))
    mu_b = wins_b.mean(axis=(2, 3))
    var_a = (wins_a * wins_a).mean(axis=(2, 3)) - mu_a * mu_a
    var_b = (wins_b * wins_b).mean(axis=(2, 3)) - mu_b * mu_b
    cov = (wins_a * wins_b).mean(axis=(2, 3)) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    return float((num / den).mean())


def consistency_endpoints(model: nnet.Parameters, sched: df.NoiseSchedule,
                          sampler: df.SamplerConfig, concepts: Sequence[int],
                          seeds: Sequence[int], gamma: float) -> np.ndarray:
    """Same-seed CFG endpoints, shape (len(concepts), len(seeds), d).

    Each seed fixes the initial latent z_T, so the endpoints of two models
    differ only through the checkpoints. All (concept, seed) rows descend
    together, in one batch.
    """
    concepts = [int(c) for c in concepts]
    d = model.shape.input_dim
    # one row per (concept, seed); each seed fixes its own draw of z_T
    Z = np.array([np.random.default_rng(seed).standard_normal(d)
                  for _ in concepts for seed in seeds]).reshape(-1, d)
    if len(Z):
        Z = df.descend(Z, sampler, sched, np.repeat(concepts, len(seeds)),
                       gd.cfg_guidance(model, gamma))
    return Z.reshape(len(concepts), len(seeds), d)


def seed_consistency(ends_a: np.ndarray, ends_b: np.ndarray,
                     concepts: Sequence[int]) -> dict:
    """Per-concept mean similarity of two models' consistency_endpoints
    over these concepts. Glyph-sized rows (256 wide) compare by SSIM on
    the 16x16 reshape; anything else by negative L2. Higher is always more
    similar.
    """
    if ends_a.shape != ends_b.shape:
        raise StructuralError(f"endpoint shapes differ: {ends_a.shape} vs "
                              f"{ends_b.shape}")
    glyphs = ends_a.shape[-1] == 256
    out = {}
    for c, rows_a, rows_b in zip(concepts, ends_a, ends_b):
        sims = [ssim(a.reshape(16, 16), b.reshape(16, 16)) if glyphs
                else -float(np.linalg.norm(a - b))
                for a, b in zip(rows_a, rows_b)]
        out[int(c)] = float(np.mean(sims))
    return out


def loss_weights(t: int, sched: df.NoiseSchedule) -> tuple[float, float]:
    """(w, w') at schedule timestep t.

    w'(t) = 2(1-abar_t) / ((1-a_t)(1-abar_{t-1})) and
    w(t) = w'(t) (1-a_t)^2 / a_t; both weight the score distance that a
    guided-transition KL reduces to.
    """
    if not 2 <= t <= sched.T_train:
        raise ConfigError(f"t must lie in 2..{sched.T_train}, got {t}")
    a_t = float(sched.alpha[t - 1])
    abar_t = sched.alpha_bar_at(t)
    abar_prev = sched.alpha_bar_at(t - 1)
    w_prime = 2.0 * (1.0 - abar_t) / ((1.0 - a_t) * (1.0 - abar_prev))
    w = w_prime * (1.0 - a_t) ** 2 / a_t
    return w, w_prime


def kl_guided_gaussians(mu1: np.ndarray, mu2: np.ndarray, sigma2: float) -> float:
    """KL between two isotropic Gaussians with shared variance sigma2."""
    if sigma2 <= 0:
        raise ConfigError(f"sigma2 must be > 0, got {sigma2}")
    mu1 = np.asarray(mu1, dtype=np.float64)
    mu2 = np.asarray(mu2, dtype=np.float64)
    if mu1.shape != mu2.shape:
        raise StructuralError(f"mean shapes differ: {mu1.shape} vs {mu2.shape}")
    diff = mu1 - mu2
    return float(diff @ diff) / (2.0 * sigma2)


@dataclass
class KlChainReport:
    """Two-path agreement for the KL-to-score-distance rewrite."""

    max_rel_discrepancy: float
    max_decomposition_err: float


def _guided_score(params: nnet.Parameters, z: np.ndarray, t: int, c: int,
                  sigma_t: float) -> tuple[np.ndarray, np.ndarray]:
    """(unconditional score, class score term) so the guided score is
    uncond + gamma * class."""
    e_u, e_c = nnet.eps_columns(params, z[None], t, [params.null_id, c])[:, 0]
    s_u = -e_u / sigma_t
    s_class = -(e_c - e_u) / sigma_t
    return s_u, s_class


def kl_chain_check(teacher: nnet.Parameters, student: nnet.Parameters,
                   sched: df.NoiseSchedule, probes: Sequence[tuple],
                   gamma1: float, gamma2: float) -> KlChainReport:
    """Verify the guided-transition KL equals the weighted score distance.

    Each probe is (z, t, c_teacher, c_student) with t >= 2. Path one
    builds the two guided transition means mu = z/sqrt(a_t) +
    ((1-a_t)/sqrt(a_t)) * s and evaluates the Gaussian KL closed form at
    the implied shared variance 1/(2 w'(t)); path two evaluates
    w(t) ||s_teacher - s_student||^2 directly. The report carries the
    worst relative gap and the worst error of the residual decomposition
    into unconditional plus conditional terms.
    """
    if teacher.shape != student.shape or teacher.n_concepts != student.n_concepts:
        raise ConfigError("models disagree on shape or concept count")
    worst_gap = 0.0
    worst_decomp = 0.0
    for z, t, c_teacher, c_student in probes:
        z = np.asarray(z, dtype=np.float64)
        w, w_prime = loss_weights(t, sched)
        a_t = float(sched.alpha[t - 1])
        sigma_t = sched.sigma_at(t)
        s_u_t, cls_t = _guided_score(teacher, z, t, c_teacher, sigma_t)
        s_u_s, cls_s = _guided_score(student, z, t, c_student, sigma_t)
        s_teacher = s_u_t + gamma1 * cls_t
        s_student = s_u_s + gamma2 * cls_s

        scale = (1.0 - a_t) / np.sqrt(a_t)
        mu_teacher = z / np.sqrt(a_t) + scale * s_teacher
        mu_student = z / np.sqrt(a_t) + scale * s_student
        kl_closed = kl_guided_gaussians(mu_teacher, mu_student,
                                        1.0 / (2.0 * w_prime))
        diff = s_teacher - s_student
        weighted = w * float(diff @ diff)
        gap = abs(kl_closed - weighted) / max(1e-300, abs(weighted), abs(kl_closed))
        worst_gap = max(worst_gap, gap)

        loss_u = s_u_t - s_u_s
        loss_c = gamma1 * cls_t - gamma2 * cls_s
        worst_decomp = max(worst_decomp,
                           float(np.abs((loss_u + loss_c) - diff).max()))
    return KlChainReport(worst_gap, worst_decomp)


def triangle_bound_holds(residual_u: np.ndarray, residual_c: np.ndarray) -> bool:
    """||u + c|| <= ||u|| + ||c|| up to a rounding slack of 1e-12."""
    residual_u = np.asarray(residual_u, dtype=np.float64)
    residual_c = np.asarray(residual_c, dtype=np.float64)
    lhs = float(np.linalg.norm(residual_u + residual_c))
    rhs = float(np.linalg.norm(residual_u)) + float(np.linalg.norm(residual_c))
    return lhs <= rhs + 1e-12


def theory_checks(sched: df.NoiseSchedule, shape: nnet.NetworkShape,
                  n_concepts: int, seed: int, gamma1: float,
                  gamma2: float) -> list:
    """(name, value, tolerance, passed) per analytic identity check.

    Every random draw comes from one generator seeded with seed: a 3-D
    Monte Carlo KL estimate, a perturbed student of a seed-initialised
    network for 16 KL-chain probes, and 1000 triangle-bound pairs.
    """
    rng = np.random.default_rng(seed)
    checks = []

    gaps = np.diff(sched.alpha_bar)
    checks.append(("alpha_bar_strictly_decreasing", float(gaps.max()), 0.0,
                   bool(np.all(gaps < 0.0))))

    worst = 0.0
    for t in range(2, sched.T_train + 1):
        w, w_prime = loss_weights(t, sched)
        a_t = float(sched.alpha[t - 1])
        implied = w_prime * (1.0 - a_t) ** 2 / a_t
        worst = max(worst, abs(w - implied) / abs(w))
    checks.append(("loss_weight_identity_rel_err", worst, 1e-12,
                   worst <= 1e-12))

    d = 3
    mu1 = rng.standard_normal(d)
    mu2 = rng.standard_normal(d)
    sigma2 = 0.7
    closed = kl_guided_gaussians(mu1, mu2, sigma2)
    draws = mu1 + np.sqrt(sigma2) * rng.standard_normal((1_000_000, d))
    log_ratio = ((draws - mu2) ** 2 - (draws - mu1) ** 2).sum(axis=1) / (2 * sigma2)
    mc = float(log_ratio.mean())
    rel = abs(mc - closed) / closed
    checks.append(("kl_monte_carlo_rel_err", rel, 2e-2, rel <= 2e-2))

    teacher = nnet.init_params(shape, n_concepts, seed=seed)
    student = teacher.copy()
    for name in student.tensor_names():
        arr = student.get_tensor(name)
        student.set_tensor(name, arr + 1e-3 * rng.standard_normal(arr.shape))
    probes = [(rng.standard_normal(shape.input_dim),
               int(rng.integers(2, sched.T_train + 1)),
               int(rng.integers(0, n_concepts)),
               int(rng.integers(0, n_concepts)))
              for _ in range(16)]
    chain = kl_chain_check(teacher, student, sched, probes,
                           gamma1=gamma1, gamma2=gamma2)
    checks.append(("kl_chain_two_path_rel", chain.max_rel_discrepancy, 1e-10,
                   chain.max_rel_discrepancy <= 1e-10))
    checks.append(("kl_chain_decomposition", chain.max_decomposition_err,
                   1e-12, chain.max_decomposition_err <= 1e-12))

    held = all(triangle_bound_holds(rng.standard_normal(4),
                                    rng.standard_normal(4))
               for _ in range(1000))
    checks.append(("triangle_bound_fraction", 1.0 if held else 0.0, 1.0, held))
    return checks
