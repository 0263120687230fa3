"""Fourteen numbered acceptance criteria, one [PASS]/[FAIL] line each.

The lines bypass output capture so they appear in any pytest run. Heavier
criteria reuse the session-scoped trained fixtures from conftest; the
erase fine-tunes are cached per configuration so criteria can share runs.
All thresholds here are frozen contract values.
"""

import numpy as np
import pytest

from eraselab import analysis as an
from eraselab import diffusion as df
from eraselab import erasure as er
from eraselab import guidance as gd
from eraselab import nnet
from eraselab import persistence as ps
from eraselab import toyworld as tw
from eraselab.errors import (ConfigError, CorruptionError, FormatError,
                             UnsupportedVersionError)

import oracles

T_SAMPLE = 35

POINT_INSTRUCTIONS = (gd.InstructionConcept(0, -7.5, 1, 35, 0.5),
                      gd.InstructionConcept(1, 6.5, 1, 35, 0.5))
GLYPH_INSTRUCTIONS = (gd.InstructionConcept(0, -7.5, 12, 35, 0.95),
                      gd.InstructionConcept(1, 6.5, 12, 35, 0.95))


@pytest.fixture
def announce(capsys):
    def _announce(num, name, ok, detail=""):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _announce


def guided_rate(model, spec, sched, sampler, concept, n=250, seed=1234,
                gamma=7.5, threshold=0.7):
    X = df.sample_final_batch(model, sched, sampler, concept,
                              gd.cfg_guidance(model, gamma), n, seed)
    return an.erasure_rate(X, concept, tw.bayes_oracle(spec), threshold)


def mean_consistency(base, model, sched, sampler):
    vals = an.seed_consistency(base, model, sched, sampler,
                               concepts=tuple(range(1, 8)),
                               seeds=tuple(range(8)), gamma=7.5)
    return float(np.mean(list(vals.values())))


@pytest.fixture(scope="module")
def erase_run(points_base, points_world, sched):
    """Memoized erase fine-tunes on the points base model."""
    vocab, _, _ = points_world
    cache = {}

    def get(loss_kind, trainable, lam, seed):
        key = (loss_kind, trainable, lam, seed)
        if key not in cache:
            cfg = er.EraseConfig(erase_set=(0,),
                                 instructions=POINT_INSTRUCTIONS,
                                 lam=lam, n_iters=200, sampler_T=T_SAMPLE,
                                 warmup=gd.WarmupRule(5, "literal"),
                                 loss_kind=loss_kind, trainable=trainable,
                                 lr=2e-3, seed=seed)
            cache[key] = er.erase_finetune(points_base, cfg, sched, vocab)[0]
        return cache[key]

    return get


def test_criterion_01_gradient_exactness(announce):
    rng = np.random.default_rng(6)
    worst = 0.0
    for trial in range(20):
        input_dim = int(rng.integers(1, 4))
        hidden = tuple(int(rng.integers(2, 6))
                       for _ in range(int(rng.integers(1, 3))))
        shape = nnet.NetworkShape(input_dim=input_dim, hidden=hidden,
                                  time_embed_dim=4, concept_embed_dim=3)
        k = int(rng.integers(1, 4))
        params = nnet.init_params(shape, k, seed=100 + trial)
        z = rng.standard_normal(input_dim)
        t = int(rng.integers(1, 50))
        c = int(rng.integers(0, k + 1))
        upstream = rng.standard_normal(input_dim)
        _, tape = nnet.forward(params, z, t, c)
        analytic = nnet.backward(tape, upstream)
        h = 1e-5
        for name in params.tensor_names():
            arr = params.get_tensor(name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                vals = []
                for sign in (1.0, -1.0):
                    bumped = params.copy()
                    v = bumped.get_tensor(name).copy()
                    v[idx] += sign * h
                    bumped.set_tensor(name, v)
                    out, _ = nnet.forward(bumped, z, t, c)
                    vals.append(float(upstream @ out))
                numeric = (vals[0] - vals[1]) / (2 * h)
                got = float(analytic.get_tensor(name)[idx])
                worst = max(worst, abs(got - numeric) / max(1.0, abs(numeric)))
    announce(1, "gradient exactness", worst <= 1e-4,
             f"max rel err {worst:.2e} over 20 configurations (tol 1e-4)")


def test_criterion_02_schedule_and_weight_identities(announce, sched):
    monotone = bool(np.all(np.diff(sched.alpha_bar) < 0))
    worst = 0.0
    for t in range(2, sched.T_train + 1):
        w, w_prime = an.loss_weights(t, sched)
        a_t = float(sched.alpha[t - 1])
        implied = w_prime * (1.0 - a_t) ** 2 / a_t
        worst = max(worst, abs(w - implied) / abs(w))
    worked = df.NoiseSchedule.from_betas(np.array([0.2, 0.1]))
    w2, wp2 = an.loss_weights(2, worked)
    expected_w = 28.0 * 0.01 / 0.9
    worked_ok = abs(wp2 - 28.0) <= 1e-12 * 28.0 \
        and abs(w2 - expected_w) <= 1e-12 * expected_w
    ok = monotone and worst <= 1e-12 and worked_ok
    announce(2, "schedule and loss-weight identities", ok,
             f"alpha_bar strictly decreasing={monotone}, "
             f"identity max rel err {worst:.1e}, "
             f"worked value w'={wp2:g} w={w2:.5f}")


def test_criterion_03_cfg_identities(announce):
    params = nnet.init_params(nnet.NetworkShape(input_dim=2), 8, seed=3)
    rng = np.random.default_rng(4)
    Z = rng.standard_normal((1000, 2))
    t, c = 17, 5
    # the frozen-model path's own conditional and null eps, from the same
    # columns the CFG closure evaluates
    e_c, e_u = nnet.eps_columns(params, Z, t, [c, params.null_id])
    gamma0 = gd.cfg_guidance(params, 0.0)(Z, 9, t, c)
    gamma_m1 = gd.cfg_guidance(params, -1.0)(Z, 9, t, c)
    ok = np.array_equal(gamma0, e_c) and np.array_equal(gamma_m1, e_u)
    announce(3, "guidance scale identities", ok,
             "gamma=0 equals conditional and gamma=-1 equals unconditional "
             "on 1000 vectors, exactly")


def test_criterion_04_erasing_signal_contract(announce):
    shape = nnet.NetworkShape(input_dim=6, hidden=(8,), time_embed_dim=4,
                              concept_embed_dim=4)
    params = nnet.init_params(shape, 3, seed=5)
    rng = np.random.default_rng(6)
    Z = rng.standard_normal((40, 6))
    warmup = gd.WarmupRule(1, "literal")
    ins = gd.InstructionConcept(0, -7.5, 5, 8, 0.5)

    empty_ok = np.array_equal(gd.delta((), Z, 6, 12, params, warmup),
                              np.zeros_like(Z))
    outside = all(np.array_equal(gd.delta((ins,), Z, idx, 12, params, warmup),
                                 np.zeros_like(Z)) for idx in (4, 9))
    warm = gd.WarmupRule(7, "literal")
    warm_ok = np.array_equal(gd.delta((ins,), Z, 6, 12, params, warm),
                             np.zeros_like(Z))

    bound = 6 - (int(np.ceil(0.5 * 6)) - 1)
    inside = gd.delta((ins,), Z, 6, 12, params, warmup)
    counts_ok = bool(np.all((inside != 0).sum(axis=1) <= bound)) \
        and np.abs(inside).max() > 0

    doubled = gd.InstructionConcept(0, -15.0, 5, 8, 0.5)
    homog_ok = np.array_equal(gd.delta((doubled,), Z, 6, 12, params, warmup),
                              2.0 * inside)
    ok = empty_ok and outside and warm_ok and counts_ok and homog_ok
    announce(4, "erasing-signal contract", ok,
             f"empty set zero={empty_ok}, window/warmup gating={outside and warm_ok}, "
             f"kept count <= {bound} of 6={counts_ok}, homogeneity={homog_ok}")


def test_criterion_05_stop_gradient_soundness(announce):
    rng = np.random.default_rng(3)
    shape = nnet.NetworkShape(input_dim=2, hidden=(6,), time_embed_dim=4,
                              concept_embed_dim=4)
    teacher = nnet.init_params(shape, 3, seed=11)
    cfg = er.EraseConfig(erase_set=(0,), sampler_T=10,
                         instructions=(gd.InstructionConcept(0, -7.5, 1, 10, 0.5),
                                       gd.InstructionConcept(1, 6.5, 1, 10, 0.5)))
    sched = df.make_linear_schedule(20, 1e-4, 0.02)
    h = 1e-5
    worst = 0.0
    for rep in range(10):
        student = nnet.init_params(shape, 3, seed=100 + rep)
        z = rng.standard_normal(2)
        t_index = int(rng.integers(1, 11))
        schedule_t = 2 * t_index
        c = int(rng.integers(0, 3))
        e_u_frozen, _ = nnet.forward(student, z, schedule_t, student.null_id)
        teacher_target, _ = er.teacher_targets(teacher, cfg, z, t_index,
                                               schedule_t, c)
        _, grads = er.concept_loss(student, z, schedule_t, c, e_u_frozen,
                                   teacher_target, cfg.gamma2)
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
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                vals = []
                for sign in (1.0, -1.0):
                    bumped = student.copy()
                    v = bumped.get_tensor(name).copy()
                    v[idx] += sign * h
                    bumped.set_tensor(name, v)
                    vals.append(frozen_loss(bumped))
                numeric = (vals[0] - vals[1]) / (2 * h)
                got = float(grads.get_tensor(name)[idx])
                worst = max(worst, abs(got - numeric) / max(1.0, abs(numeric)))
    announce(5, "stop-gradient soundness", worst <= 1e-6,
             f"max rel err vs frozen-branch oracle {worst:.2e} "
             f"over 10 states (tol 1e-6)")


def test_criterion_06_penalty_anchor_and_decomposition(announce):
    shape = nnet.NetworkShape(input_dim=2, hidden=(6,), time_embed_dim=4,
                              concept_embed_dim=4)
    teacher = nnet.init_params(shape, 3, seed=21)
    rng = np.random.default_rng(22)
    cfg = er.EraseConfig(erase_set=(0,), sampler_T=10,
                         instructions=(gd.InstructionConcept(0, -7.5, 1, 10, 0.5),))

    def penalty(student, z, schedule_t):
        _, anchor = er.teacher_targets(teacher, cfg, z, 1, schedule_t, 0)
        _, tape_u = nnet.forward(student, z, schedule_t, student.null_id)
        return er.penalty_loss(tape_u, anchor)

    anchored = all(penalty(teacher, rng.standard_normal(2),
                           int(rng.integers(1, 21)))[0] == 0.0
                   for _ in range(8))

    student = nnet.init_params(shape, 3, seed=23)
    z = rng.standard_normal(2)
    target, _ = er.teacher_targets(teacher, cfg, z, 4, 8, 0)
    e_s_u, _ = nnet.forward(student, z, 8, student.null_id)
    _, g_c = er.concept_loss(student, z, 8, 0, e_s_u, target, cfg.gamma2)
    _, g_p = penalty(student, z, 8)
    decomposed = True
    for lam in (0.0, 1.0, 5.0):
        combined = oracles.zero_like_params(student)
        combined.flat += g_c.flat
        combined.flat += lam * g_p.flat
        for name in student.tensor_names():
            manual = g_c.get_tensor(name) + lam * g_p.get_tensor(name)
            if not np.array_equal(combined.get_tensor(name), manual):
                decomposed = False
    ok = anchored and decomposed
    announce(6, "penalty anchor and gradient decomposition", ok,
             f"penalty at teacher parameters == 0 exactly={anchored}, "
             f"concept + lambda*penalty exact for lambda in 0/1/5={decomposed}")


def test_criterion_07_ddim_determinism_and_inversion(announce, points_world,
                                                     points_base, sched,
                                                     sampler):
    guid = gd.cfg_guidance(points_base, 7.5)
    run_a = oracles.sample(points_base, sched, sampler, 2, guid, seed=77)
    run_b = oracles.sample(points_base, sched, sampler, 2, guid, seed=77)
    deterministic = np.array_equal(run_a.states, run_b.states) \
        and np.array_equal(run_a.eps_hats, run_b.eps_hats)

    _, _, dataset = points_world
    rng = np.random.default_rng(11)
    cond = df.conditional_eps(points_base)
    rels = []
    for idx in rng.integers(0, len(dataset.labels), size=64):
        x0 = dataset.samples[idx]
        c = int(dataset.labels[idx])
        z_T = df.ddim_invert(x0, points_base, sched, sampler, c)
        recon, _, _ = df.descend(z_T[None, :], sampler, sched, c, cond, 0,
                                 record=False)
        rels.append(np.linalg.norm(recon[0] - x0) / np.linalg.norm(x0))
    mean_rel = float(np.mean(rels))
    ok = deterministic and mean_rel <= 0.05
    announce(7, "ddim determinism and inversion", ok,
             f"bit-reproducible={deterministic}, invert/reconstruct mean "
             f"rel L2 {mean_rel:.4f} (tol 0.05)")


def test_criterion_08_base_model_quality(announce, points_world, points_base,
                                         gauss1_base, sched, sampler):
    _, spec, _ = points_world
    accs = []
    for c in range(8):
        X = df.sample_final_batch(points_base, sched, sampler, c,
                                  gd.cfg_guidance(points_base, 7.5),
                                  1000, 7000 + c)
        labels = [tw.bayes_classify(spec, x)[0] for x in X]
        accs.append(float(np.mean([l == c for l in labels])))

    t = 50
    a_bar = sched.alpha_bar_at(t)
    var = a_bar * 0.1 ** 2 + (1.0 - a_bar)
    rng = np.random.default_rng(99)
    Z = np.sqrt(var) * rng.standard_normal((500, 2))
    eps_hat, _ = nnet.forward_batch(gauss1_base, Z, t, 0)
    s_net = -eps_hat / sched.sigma_at(t)
    s_analytic = -Z / var
    rel = float(np.mean(np.linalg.norm(s_net - s_analytic, axis=1)
                        / np.linalg.norm(s_analytic, axis=1)))
    ok = min(accs) >= 0.90 and rel <= 0.10
    announce(8, "base model quality", ok,
             f"per-concept accuracy min {min(accs):.3f} over 1000 samples "
             f"(tol 0.90), single-Gaussian score mean rel err {rel:.4f} "
             f"at t={t} (tol 0.10)")


def test_criterion_09_erasure_reproduction(announce, points_world, points_base,
                                           sched, sampler, erase_run):
    _, spec, _ = points_world
    erased = erase_run("ours", ("embed",), 5.0, 0)
    before = guided_rate(points_base, spec, sched, sampler, 0, n=1000)
    after = guided_rate(erased, spec, sched, sampler, 0, n=1000)
    non_target = {c: guided_rate(erased, spec, sched, sampler, c, n=250)
                  for c in range(1, 8)}

    kernel = an.KernelSpec()
    ratios_ok = True
    for c in range(1, 8):
        guid_b = gd.cfg_guidance(points_base, 7.5)
        guid_e = gd.cfg_guidance(erased, 7.5)
        Xa = df.sample_final_batch(points_base, sched, sampler, c, guid_b,
                                   200, 10_000 + c)
        Xb = df.sample_final_batch(points_base, sched, sampler, c, guid_b,
                                   200, 20_000 + c)
        Xe = df.sample_final_batch(erased, sched, sampler, c, guid_e,
                                   200, 20_000 + c)
        self_drift = max(an.mmd2(Xa, Xb, kernel), 0.0)
        drift = max(an.mmd2(Xa, Xe, kernel), 0.0)
        if drift > 2.0 * self_drift:
            ratios_ok = False
    ok = before >= 0.90 and after <= 0.10 \
        and min(non_target.values()) >= 0.80 and ratios_ok
    announce(9, "erasure reproduction", ok,
             f"target rate {before:.2f} -> {after:.2f} (need >=0.90 -> <=0.10), "
             f"min non-target accuracy {min(non_target.values()):.2f} "
             f"(tol 0.80), drift within 2x self-drift={ratios_ok}")


def test_criterion_10_lambda_tradeoff_ordering(announce, points_world, sched,
                                               sampler, points_base, erase_run):
    _, spec, _ = points_world
    wins = 0
    details = []
    for seed in range(5):
        m5 = erase_run("ours", ("embed", "w3", "b3"), 5.0, seed)
        m0 = erase_run("ours", ("embed", "w3", "b3"), 0.0, seed)
        c5 = mean_consistency(points_base, m5, sched, sampler)
        c0 = mean_consistency(points_base, m0, sched, sampler)
        r5 = guided_rate(m5, spec, sched, sampler, 0, n=200)
        r0 = guided_rate(m0, spec, sched, sampler, 0, n=200)
        win = c5 >= c0 and r5 >= r0
        wins += win
        details.append(f"s{seed}:{'+' if win else '-'}")
    announce(10, "lambda trade-off ordering", wins >= 3,
             f"consistency(5)>=consistency(0) with erasure reversed in "
             f"{wins}/5 seeded runs [{' '.join(details)}] (need >=3)")


def test_criterion_11_concept_purification(announce, glyphs_world, glyphs_base,
                                           sched, sampler):
    vocab, spec, dataset = glyphs_world
    cfg = er.EraseConfig(erase_set=(0,), instructions=GLYPH_INSTRUCTIONS,
                         lam=0.0, n_iters=200, sampler_T=T_SAMPLE,
                         warmup=gd.WarmupRule(5, "literal"),
                         loss_kind="ours", trainable=None, lr=2e-3, seed=0)
    erased, _ = er.erase_finetune(glyphs_base, cfg, sched, vocab)
    oracle = tw.template_oracle(spec)

    def flip_fraction(model):
        cond = df.conditional_eps(model)
        flips = 0
        for x in dataset.samples[dataset.labels == 0][:50]:
            z_T = df.ddim_invert(x, model, sched, sampler, 0)
            out, _, _ = df.descend(z_T[None, :], sampler, sched, 0, cond, 0,
                                   record=False)
            flips += oracle(out[0])[0] != 0
        return flips / 50.0

    flipped = flip_fraction(erased)
    control = flip_fraction(glyphs_base)
    ok = flipped >= 0.70 and control <= 0.30
    announce(11, "concept purification", ok,
             f"invert/re-denoise flips label on {flipped:.0%} of 50 target "
             f"glyphs (need >=70%); base-model control flips {control:.0%}")


def test_criterion_12_baseline_contrast(announce, points_world, sched, sampler,
                                        points_base, erase_run):
    _, spec, _ = points_world
    wins = 0
    details = []
    for seed in range(5):
        ours = erase_run("ours", ("embed",), 5.0, seed)
        esd = erase_run("esd", None, 5.0, seed)
        r_ours = guided_rate(ours, spec, sched, sampler, 0, n=200)
        r_esd = guided_rate(esd, spec, sched, sampler, 0, n=200)
        c_ours = mean_consistency(points_base, ours, sched, sampler)
        c_esd = mean_consistency(points_base, esd, sched, sampler)
        win = r_ours <= 0.10 and r_esd <= 0.10 and c_ours > c_esd
        wins += win
        details.append(f"s{seed}:{'+' if win else '-'}")
    announce(12, "baseline contrast", wins >= 3,
             f"at matched erasure <=0.10, ours consistency strictly higher "
             f"in {wins}/5 seeded runs [{' '.join(details)}] (need >=3)")


def test_criterion_13_theory_verifiers(announce, sched):
    rng = np.random.default_rng(31)
    mu1 = rng.standard_normal(3)
    mu2 = rng.standard_normal(3)
    sigma2 = 0.7
    closed = an.kl_guided_gaussians(mu1, mu2, sigma2)
    draws = mu1 + np.sqrt(sigma2) * rng.standard_normal((1_000_000, 3))
    log_ratio = ((draws - mu2) ** 2
                 - (draws - mu1) ** 2).sum(axis=1) / (2 * sigma2)
    mc_rel = abs(float(log_ratio.mean()) - closed) / closed

    shape = nnet.NetworkShape(input_dim=2, hidden=(6,), time_embed_dim=4,
                              concept_embed_dim=4)
    teacher = nnet.init_params(shape, 3, seed=32)
    student = teacher.copy()
    for name in student.tensor_names():
        arr = student.get_tensor(name)
        student.set_tensor(name, arr + 1e-3 * rng.standard_normal(arr.shape))
    probes = [(rng.standard_normal(2), int(rng.integers(2, sched.T_train + 1)),
               int(rng.integers(0, 3)), int(rng.integers(0, 3)))
              for _ in range(16)]
    chain = an.kl_chain_check(teacher, student, sched, probes)

    triangle = all(an.triangle_bound_holds(rng.standard_normal(4),
                                           rng.standard_normal(4))
                   for _ in range(1000))
    ok = mc_rel <= 0.02 and chain.max_rel_discrepancy <= 1e-10 \
        and chain.max_decomposition_err <= 1e-12 and triangle
    announce(13, "theory verifiers", ok,
             f"kl monte-carlo rel err {mc_rel:.4f} (tol 0.02), chain "
             f"two-path {chain.max_rel_discrepancy:.1e} (tol 1e-10), "
             f"decomposition {chain.max_decomposition_err:.1e} (tol 1e-12), "
             f"triangle bound 1000/1000={triangle}")


def test_criterion_14_persistence_contract(announce, tmp_path):
    shape = nnet.NetworkShape(input_dim=2, hidden=(5,), time_embed_dim=4,
                              concept_embed_dim=3)
    params = nnet.init_params(shape, 3, seed=41)
    path = tmp_path / "model.ssrg"
    ps.write_checkpoint(params, {"kind": "gate"}, path)
    loaded, meta = ps.read_checkpoint(path)
    round_trip = meta == {"kind": "gate"} and all(
        np.array_equal(loaded.get_tensor(n), params.get_tensor(n))
        for n in params.tensor_names())

    raw = bytearray(path.read_bytes())
    bad_magic = tmp_path / "magic.ssrg"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    ahead = tmp_path / "ahead.ssrg"
    ahead.write_bytes(bytes(raw[:4]) + b"\x02\x00" + bytes(raw[6:]))
    clipped = tmp_path / "clipped.ssrg"
    clipped.write_bytes(bytes(raw[:-8]))

    errors_ok = True
    for bad, expected, needle in ((bad_magic, FormatError, "magic"),
                                  (ahead, UnsupportedVersionError, "version"),
                                  (clipped, CorruptionError, "embed")):
        try:
            ps.read_checkpoint(bad)
            errors_ok = False
        except expected as exc:
            if needle not in str(exc):
                errors_ok = False

    config_ok = True
    empty = tmp_path / "empty.ini"
    empty.write_text("")
    cfg = ps.load_config(empty)
    if not (cfg.erase.gamma1 == 7.5 and cfg.erase.lam == 5.0
            and cfg.erase.n_iters == 200 and cfg.sampler_T == 35
            and cfg.erase.warmup.t_warmup == 5
            and cfg.erase.instructions[0].kappa == 0.95):
        config_ok = False
    frac = tmp_path / "frac.ini"
    frac.write_text("[instruction.a]\nname = c0\nt_high = 0.35\n")
    if ps.load_config(frac).erase.instructions[0].t_high != 12:
        config_ok = False
    neg = tmp_path / "neg.ini"
    neg.write_text("[erase]\nlambda = -1\n")
    try:
        ps.load_config(neg)
        config_ok = False
    except ConfigError as exc:
        if "lambda" not in str(exc):
            config_ok = False
    unknown = tmp_path / "unknown.ini"
    unknown.write_text("[erase]\ngamma3 = 1\n")
    try:
        ps.load_config(unknown)
        config_ok = False
    except ConfigError as exc:
        if "[erase] gamma3" not in str(exc):
            config_ok = False

    ok = round_trip and errors_ok and config_ok
    announce(14, "persistence contract", ok,
             f"round-trip bit-exact={round_trip}, keyed format/version/"
             f"corruption errors={errors_ok}, keyed config errors={config_ok}")
