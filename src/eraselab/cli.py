"""Command-line pipeline with reproducible run directories.

Every command but inspect writes its artifacts under --out together with
a manifest.json (command, resolved config snapshot, seeds, version). A
command reads and checks all of its inputs before it creates --out.
Exit codes: 0 ok, 1 config, 2 io, 3 numerical, 4 format.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import shutil
import sys

import numpy as np

from . import __version__
from . import analysis as an
from . import diffusion as df
from . import erasure as er
from . import guidance as gd
from . import persistence as ps
from . import report as rp
from . import toyworld as tw
from .errors import (ConfigError, FormatError, NumericalError,
                     StructuralError)


# Integer flags and the least value each accepts.
_FLAG_MINIMUMS = {"seed": 0, "n": 1, "drift_n": 2, "timeline_n": 1}


def _load(args, *checkpoint_flags):
    """The prologue's reads: (config, vocab, [(params, meta) for each
    checkpoint flag]), every checkpoint checked against the config."""
    cfg = ps.load_config(args.config)
    vocab, _ = cfg.vocab_and_spec()
    return cfg, vocab, [_read_checkpoint(cfg, getattr(args, flag))
                        for flag in checkpoint_flags]


@contextlib.contextmanager
def _out_dir(args, cfg, seeds):
    """The prologue's writes: create --out, which a command enters only
    once every input is read, and write manifest.json (command, config
    snapshot, seeds, version) after the command's artifacts. If the body
    raises, the directories this call created for --out are removed again;
    what existed before is left as it was."""
    created, path = None, os.path.abspath(args.out)
    while not os.path.exists(path):
        created, path = path, os.path.dirname(path)
    os.makedirs(args.out, exist_ok=True)
    try:
        yield args.out
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise
    ps.write_json(os.path.join(args.out, "manifest.json"), {
        "command": args.command,
        "version": f"eraselab-{__version__}",
        "created_utc": ps._utc_stamp(),
        "seeds": seeds,
        "config": cfg.snapshot_dict() if cfg is not None else None,
    })


def _checkpoint_meta(cfg, kind, extra=None) -> dict:
    vocab, _ = cfg.vocab_and_spec()
    return {
        "kind": kind,
        "mode": cfg.mode,
        "schedule": {"t_train": cfg.t_train, "beta_start": cfg.beta_start,
                     "beta_end": cfg.beta_end},
        "vocab": [c.name for c in vocab.concepts],
        **(extra or {}),
    }


def _generate(cfg, n_per_concept, seed):
    _, spec = cfg.vocab_and_spec()
    gen = tw.gen_points2d if cfg.mode == "points2d" else tw.gen_glyphs
    return gen(spec, n_per_concept, seed=seed)


def _check_meta(cfg, path, meta) -> None:
    """ConfigError unless the checkpoint's mode, vocab and schedule are the
    config's."""
    expected = _checkpoint_meta(cfg, None)
    for key in ("mode", "vocab", "schedule"):
        if meta.get(key) != expected[key]:
            raise ConfigError(f"{path}: checkpoint {key} {meta.get(key)!r} "
                              f"does not match the config's {expected[key]!r}")


def _read_checkpoint(cfg, path):
    """Read a checkpoint whose mode, vocab and schedule match the config."""
    params, meta = ps.read_checkpoint(path)
    _check_meta(cfg, path, meta)
    return params, meta


def _oracle(cfg):
    _, spec = cfg.vocab_and_spec()
    oracle = tw.bayes_oracle if cfg.mode == "points2d" else tw.template_oracle
    return oracle(spec)


def _sample_batch(model, cfg, concept, n, seed, gamma):
    return df.sample_final_batch(model, cfg.schedule(), cfg.sampler(),
                                 concept, gd.cfg_guidance(model, gamma),
                                 n, seed)


def cmd_gen_data(args) -> int:
    cfg, _, _ = _load(args)
    seed = cfg.seed if args.seed is None else args.seed
    dataset = _generate(cfg, args.n, seed)
    with _out_dir(args, cfg, {"dataset": seed}) as out:
        tw.dataset_to_csv(dataset, os.path.join(out, "dataset.csv"))
    print(f"wrote {len(dataset.labels)} samples to {out}/dataset.csv")
    return 0


def cmd_train_base(args) -> int:
    cfg, vocab, _ = _load(args)
    data_seed = cfg.seed if args.seed is None else args.seed
    if args.data is not None:
        dataset = tw.dataset_from_csv(args.data, cfg.mode, vocab.size)
    else:
        dataset = _generate(cfg, args.n, data_seed)
    with _out_dir(args, cfg, {"dataset": data_seed,
                              "train": cfg.base_seed}) as out:
        loss_log = []
        model = df.train_base(dataset, cfg.network_shape(), cfg.schedule(),
                              steps=cfg.base_steps, p_uncond=cfg.base_p_uncond,
                              seed=cfg.base_seed, lr=cfg.base_lr,
                              batch_size=cfg.base_batch, loss_log=loss_log)
        meta = _checkpoint_meta(cfg, "base", {"steps": cfg.base_steps,
                                              "seed": cfg.base_seed})
        ps.write_checkpoint(model, meta, os.path.join(out, "base.ssrg"))
        rp.write_csv(os.path.join(out, "train_loss.csv"), ("step", "loss"),
                     [(str(step), loss) for step, loss in loss_log])
    print(f"wrote {out}/base.ssrg after {cfg.base_steps} steps")
    return 0


def cmd_erase(args) -> int:
    cfg, vocab, [(base, _)] = _load(args, "base")
    ecfg = cfg.erase if args.seed is None \
        else dataclasses.replace(cfg.erase, seed=args.seed)
    with _out_dir(args, cfg, {"erase": ecfg.seed}) as out:
        model, log = er.erase_finetune(base, ecfg, cfg.schedule(), vocab)
        meta = _checkpoint_meta(cfg, "erased", {
            "loss_kind": ecfg.loss_kind, "lambda": ecfg.lam, "seed": ecfg.seed,
            "base": os.fspath(args.base)})
        ps.write_checkpoint(model, meta, os.path.join(out, "erased.ssrg"))
        ckpt_dir = os.path.join(out, "checkpoints")
        os.makedirs(ckpt_dir, exist_ok=True)
        for iteration, snapshot in log.snapshots:
            ps.write_checkpoint(snapshot, dict(meta, iteration=iteration),
                                os.path.join(ckpt_dir, f"iter_{iteration:04d}.ssrg"))
        rp.write_csv(os.path.join(out, "loss.csv"),
                     ("iteration", "t_index", "concept", "penalty", "total"),
                     [(str(it), str(t), loss.concept, loss.penalty, loss.total)
                      for it, t, loss in log.iterations])
    print(f"wrote {out}/erased.ssrg, {len(log.snapshots)} checkpoints, "
          f"loss.csv ({ecfg.n_iters} iterations)")
    return 0


def cmd_sample(args) -> int:
    cfg, vocab, [(model, _)] = _load(args, "model")
    concept = vocab.id_of(args.concept)
    seed = cfg.seed if args.seed is None else args.seed
    gamma = cfg.eval_gamma if args.gamma is None else args.gamma
    with _out_dir(args, cfg, {"sample": seed}) as out:
        X = _sample_batch(model, cfg, concept, args.n, seed, gamma)
        dataset = tw.Dataset(X, np.full(args.n, concept), mode=cfg.mode,
                             n_concepts=vocab.size)
        tw.dataset_to_csv(dataset, os.path.join(out, "samples.csv"))
    print(f"wrote {args.n} samples of {args.concept!r} "
          f"(gamma={gamma:g}) to {out}/samples.csv")
    return 0


def cmd_invert(args) -> int:
    cfg, vocab, [(model, _)] = _load(args, "model")
    dataset = tw.dataset_from_csv(args.data, cfg.mode, vocab.size)
    with _out_dir(args, cfg, {}) as out:
        sched, sampler = cfg.schedule(), cfg.sampler()
        X, labels = dataset.samples, dataset.labels
        latents = df.ddim_invert(X, model, sched, sampler, labels)
        recon, _, _ = df.descend(latents, sampler, sched, labels,
                                 df.conditional_eps(model))
        recon_rows = [(str(i), str(c), float(np.linalg.norm(r - x0))
                       / max(float(np.linalg.norm(x0)), 1e-300))
                      for i, (c, r, x0) in enumerate(zip(labels, recon, X))]
        tw.dataset_to_csv(tw.Dataset(latents, labels, mode=cfg.mode,
                                     n_concepts=vocab.size),
                          os.path.join(out, "inverted.csv"))
        rp.write_csv(os.path.join(out, "recon.csv"),
                     ("index", "label", "rel_l2"), recon_rows)
    mean_err = float(np.mean([r[2] for r in recon_rows]))
    print(f"inverted {len(recon_rows)} samples, "
          f"mean reconstruction rel L2 {mean_err:.4g}")
    return 0


def _timeline(cfg, paths, concept, n, seed):
    iterations, rates = [], []
    oracle = _oracle(cfg)
    for path in paths:
        snapshot, meta = _read_checkpoint(cfg, path)
        X = _sample_batch(snapshot, cfg, concept, n, seed, cfg.eval_gamma)
        iterations.append(int(meta.get("iteration", len(iterations))))
        rates.append(an.erasure_rate(X, concept, oracle, cfg.threshold))
    return {"iterations": iterations, "rates": rates}


def cmd_eval(args) -> int:
    cfg, vocab, [(base, _), (model, model_meta)] = _load(args, "base", "model")
    ckpt_dir = args.checkpoints
    if ckpt_dir is None:
        sibling = os.path.join(os.path.dirname(os.path.abspath(args.model)),
                               "checkpoints")
        ckpt_dir = sibling if os.path.isdir(sibling) else None
    snapshots = None if ckpt_dir is None else \
        [os.path.join(ckpt_dir, f) for f in sorted(os.listdir(ckpt_dir))
         if f.endswith(".ssrg")]
    for path in snapshots or ():
        _check_meta(cfg, path, ps.read_checkpoint_header(path)["meta"])
    with _out_dir(args, cfg, {"eval": cfg.seed}) as out:
        method = args.method or model_meta.get("loss_kind", "ours")
        oracle = _oracle(cfg)
        sched, sampler = cfg.schedule(), cfg.sampler()
        n = cfg.n_samples if args.n is None else args.n
        erase_set = cfg.erase.erase_set
        non_targets = tuple(c for c in range(vocab.size) if c not in erase_set)

        rates = {}
        for c in erase_set:
            X = _sample_batch(model, cfg, c, n, cfg.seed, cfg.eval_gamma)
            rates[c] = an.erasure_rate(X, c, oracle, cfg.threshold)
        kernel = an.KernelSpec()
        drift = {}
        for c in non_targets:
            Xb = _sample_batch(base, cfg, c, args.drift_n, cfg.seed + c,
                               cfg.eval_gamma)
            Xm = _sample_batch(model, cfg, c, args.drift_n,
                               cfg.seed + c + 10_000, cfg.eval_gamma)
            drift[c] = an.mmd2(Xb, Xm, kernel)
        consistency = an.seed_consistency(base, model, sched, sampler,
                                          concepts=non_targets,
                                          seeds=cfg.consistency_seeds,
                                          gamma=cfg.eval_gamma)
        metrics = an.MetricReport(erasure_rates=rates, drift=drift,
                                  consistency=consistency, sample_count=n,
                                  seeds=cfg.consistency_seeds,
                                  threshold=cfg.threshold)

        timeline = None
        if snapshots is not None:
            timeline = _timeline(cfg, snapshots, erase_set[0],
                                 args.timeline_n, cfg.seed)

        ps.write_json(os.path.join(out, "metrics.json"),
                      {"method": method,
                       "report": metrics.to_dict(),
                       "timeline": timeline})
    worst = max(rates.values())
    print(f"method={method} max target rate={worst:.3f} over {n} samples; "
          f"metrics.json written to {out}")
    return 0


def cmd_sweep_lambda(args) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from exc
    if not values:
        raise ConfigError("--values: need at least one lambda")
    # Each value names its checkpoint lambda_{:g}.ssrg, so two values with
    # one name would overwrite each other's checkpoint; 0 and -0 are one run.
    names = set()
    for lam in values:
        if not (np.isfinite(lam) and lam >= 0):
            raise ConfigError(f"--values: lambda must be finite and >= 0, "
                              f"got {lam!r}")
        if f"{abs(lam):g}" in names:
            raise ConfigError(f"--values: {lam!r} repeats the checkpoint name "
                              f"lambda_{abs(lam):g}.ssrg")
        names.add(f"{abs(lam):g}")
    cfg, vocab, [(base, _)] = _load(args, "base")
    with _out_dir(args, cfg, {"erase": cfg.erase.seed}) as out:
        sched, sampler = cfg.schedule(), cfg.sampler()
        oracle = _oracle(cfg)
        erase_set = cfg.erase.erase_set
        non_targets = tuple(c for c in range(vocab.size) if c not in erase_set)
        rows = []
        for lam in values:
            ecfg = dataclasses.replace(cfg.erase, lam=lam)
            model, _ = er.erase_finetune(base, ecfg, sched, vocab)
            meta = _checkpoint_meta(cfg, "erased", {
                "loss_kind": ecfg.loss_kind, "lambda": lam, "seed": ecfg.seed})
            ps.write_checkpoint(model, meta, os.path.join(out, f"lambda_{lam:g}.ssrg"))
            X = _sample_batch(model, cfg, erase_set[0], args.n, cfg.seed,
                              cfg.eval_gamma)
            rate = an.erasure_rate(X, erase_set[0], oracle, cfg.threshold)
            cons = an.seed_consistency(base, model, sched, sampler,
                                       concepts=non_targets,
                                       seeds=cfg.consistency_seeds,
                                       gamma=cfg.eval_gamma)
            rows.append((lam, rate, float(np.mean(list(cons.values())))))
            print(f"lambda={lam:g}: erasure rate={rate:.3f} "
                  f"consistency={rows[-1][2]:.4f}")
        rp.write_csv(os.path.join(out, "sweep.csv"),
                     ("lambda", "erasure_rate", "consistency"), rows)
    return 0


def cmd_verify_theory(args) -> int:
    cfg, vocab, _ = _load(args)
    with _out_dir(args, cfg, {"probe": cfg.seed}) as out:
        checks = an.theory_checks(cfg.schedule(), cfg.network_shape(),
                                  vocab.size, cfg.seed, cfg.erase.gamma1,
                                  cfg.erase.gamma2)
        rp.write_csv(os.path.join(out, "theory.csv"),
                     ("check", "value", "tolerance", "status"),
                     [(name, value, tol, "pass" if ok else "fail")
                      for name, value, tol, ok in checks])
    for name, value, tol, ok in checks:
        print(f"{'pass' if ok else 'FAIL'} {name}: {value:.3e} "
              f"(tolerance {tol:g})")
    failed = [name for name, _, _, ok in checks if not ok]
    if failed:
        raise NumericalError(f"theory checks failed: {', '.join(failed)}")
    return 0


def cmd_report(args) -> int:
    records = [rp.load_run(run_dir) for run_dir in args.runs]
    with _out_dir(args, None, {}) as out:
        written = rp.emit_report(records, out)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_inspect(args) -> int:
    header = ps.read_checkpoint_header(args.checkpoint)
    print(json.dumps(header, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eraselab",
        description="Train tiny diffusion models, erase concepts, measure "
                    "the damage.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(handler=handler)
        return p

    p = add("gen-data", cmd_gen_data, "generate a labeled dataset CSV")
    p.add_argument("--n", type=int, default=500, help="samples per concept")

    p = add("train-base", cmd_train_base, "train the base model")
    p.add_argument("--data", default=None, help="dataset CSV (default: generate)")
    p.add_argument("--n", type=int, default=500, help="samples per concept "
                   "when generating")

    p = add("erase", cmd_erase, "fine-tune a concept away from a base model")
    p.add_argument("--base", required=True, help="base checkpoint")

    p = add("sample", cmd_sample, "sample one concept from a checkpoint")
    p.add_argument("--model", required=True, help="model checkpoint")
    p.add_argument("--concept", required=True, help="concept name")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--gamma", type=float, default=None,
                   help="guidance scale (default: config eval_gamma)")

    p = add("invert", cmd_invert, "invert samples to latents and check "
            "reconstruction")
    p.add_argument("--model", required=True, help="model checkpoint")
    p.add_argument("--data", required=True, help="samples CSV to invert")

    p = add("eval", cmd_eval, "metric report for an erased checkpoint")
    p.add_argument("--base", required=True, help="base checkpoint")
    p.add_argument("--model", required=True, help="erased checkpoint")
    p.add_argument("--method", default=None,
                   help="method label (default: checkpoint metadata)")
    p.add_argument("--n", type=int, default=None,
                   help="samples per erased concept (default: config)")
    p.add_argument("--drift-n", type=int, default=200,
                   help="batch size per side for the drift metric")
    p.add_argument("--checkpoints", default=None,
                   help="snapshot directory for the erasure timeline "
                        "(default: 'checkpoints' next to the model)")
    p.add_argument("--timeline-n", type=int, default=100,
                   help="samples per snapshot for the timeline")

    p = add("sweep-lambda", cmd_sweep_lambda, "erase at several lambda values")
    p.add_argument("--base", required=True, help="base checkpoint")
    p.add_argument("--values", default="0,0.5,1,1.5,5",
                   help="comma-separated lambda values")
    p.add_argument("--n", type=int, default=200,
                   help="samples for the per-lambda erasure rate")

    add("verify-theory", cmd_verify_theory,
        "run the analytic identity checks; nonzero exit on failure")

    p = sub.add_parser("report", help="aggregate run directories into CSV + SVG")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--runs", nargs="+", required=True,
                   help="run directories containing metrics.json")
    p.set_defaults(handler=cmd_report)

    for name in ("gen-data", "train-base", "erase", "sample"):
        sub.choices[name].add_argument("--seed", type=int, default=None,
                                       help="override the config seed")

    p = sub.add_parser("inspect", help="print a checkpoint's header (model, "
                       "meta, tensor manifest, created_utc) as JSON")
    p.add_argument("checkpoint", help="checkpoint file")
    p.set_defaults(handler=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, least in _FLAG_MINIMUMS.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                raise ConfigError(f"--{name.replace('_', '-')}: must be >= "
                                  f"{least}, got {value}")
        gamma = getattr(args, "gamma", None)
        if gamma is not None and not np.isfinite(gamma):
            raise ConfigError(f"--gamma: must be finite, got {gamma}")
        return args.handler(args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, StructuralError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"config error: not enough memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
