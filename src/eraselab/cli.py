"""Command-line pipeline with reproducible run directories.

Every command but inspect writes its artifacts under --out together with
a manifest.json (command, resolved config snapshot, seeds, version). A
command reads and checks all of its inputs before it creates --out, and
its files move into --out together, only once all of them are written.
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
    once every input is read, and yield a staging directory in it for the
    command's artifacts. When the body returns, manifest.json (command,
    config snapshot, seeds, version) is written there too, and each staged
    entry replaces the one of its name in --out; a directory is replaced as
    a whole. If the body raises, --out is left as it was, and the
    directories this call created for it are removed again."""
    created, path = None, os.path.abspath(args.out)
    while not os.path.exists(path):
        created, path = path, os.path.dirname(path)
    # only a killed run with this process id can have left a stage here
    stage = os.path.join(args.out, f"staging.{os.getpid()}.tmp")
    shutil.rmtree(stage, ignore_errors=True)
    os.makedirs(stage)
    try:
        yield stage
        ps.write_json(os.path.join(stage, "manifest.json"), {
            "command": args.command,
            "version": f"eraselab-{__version__}",
            "created_utc": ps._utc_stamp(),
            "seeds": seeds,
            "config": cfg.snapshot if cfg is not None else None,
        })
        # manifest.json moves last, after the artifacts it describes
        for name in sorted(os.listdir(stage), key="manifest.json".__eq__):
            target = os.path.join(args.out, name)
            if os.path.isdir(target):
                os.replace(target, os.path.join(stage, f"{name}.old"))
            os.replace(os.path.join(stage, name), target)
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _checkpoint_meta(cfg, kind, extra=None) -> dict:
    vocab, _ = cfg.vocab_and_spec()
    return {
        "kind": kind,
        "mode": cfg.mode,
        "schedule": {"t_train": cfg.t_train, "beta_start": cfg.beta_start,
                     "beta_end": cfg.beta_end},
        "vocab": list(vocab.names),
        **(extra or {}),
    }


def _check_header(cfg, path, meta, model) -> None:
    """ConfigError unless the checkpoint's mode, vocab and schedule are the
    config's and the model it declares takes the mode's width and the
    vocab's concepts."""
    expected = _checkpoint_meta(cfg, None)
    for key in ("mode", "vocab", "schedule"):
        if meta.get(key) != expected[key]:
            raise ConfigError(f"{path}: checkpoint {key} {meta.get(key)!r} "
                              f"does not match the config's {expected[key]!r}")
    for key, want in (("input_dim", cfg.input_dim()),
                      ("n_concepts", len(expected["vocab"]))):
        if model[key] != want:
            raise ConfigError(f"{path}: checkpoint model {key} {model[key]} "
                              f"does not match the config's {want}")


def _read_checkpoint(cfg, path):
    """Read a checkpoint that _check_header accepts for the config."""
    params, meta = ps.read_checkpoint(path)
    _check_header(cfg, path, meta, {"input_dim": params.shape.input_dim,
                                    "n_concepts": params.n_concepts})
    return params, meta


def _oracle(cfg):
    """The mode's oracle: a batch (n, d) -> (labels, confidences)."""
    _, spec = cfg.vocab_and_spec()
    if cfg.mode == "points2d":
        return tw.bayes_oracle(spec)
    return lambda X: tw.template_classify(spec, X)


def _sample_batch(model, cfg, concept, n, seed, gamma):
    return df.sample_final_batch(model, cfg.schedule(), cfg.sampler(),
                                 concept, gd.cfg_guidance(model, gamma),
                                 n, seed)


def _rate(model, cfg, oracle, concept, n):
    """The erasure rate of concept in n of model's samples at the seed."""
    X = _sample_batch(model, cfg, concept, n, cfg.seed, cfg.eval_gamma)
    return an.erasure_rate(X, concept, oracle, cfg.threshold)


def _scorer(cfg, vocab, base):
    """(oracle, non-target concepts, consistency(model) against base), the
    base's consistency endpoints descended here, once for all models."""
    non_targets = tuple(c for c in range(vocab.size)
                        if c not in cfg.erase.erase_set)

    def endpoints(model):
        return an.consistency_endpoints(model, cfg.schedule(), cfg.sampler(),
                                        non_targets, cfg.consistency_seeds,
                                        cfg.eval_gamma)

    base_ends = endpoints(base)
    return _oracle(cfg), non_targets, lambda model: an.seed_consistency(
        base_ends, endpoints(model), non_targets)


def cmd_gen_data(args) -> int:
    cfg, _, _ = _load(args)
    _, spec = cfg.vocab_and_spec()
    seed = cfg.seed if args.seed is None else args.seed
    gen = tw.gen_points2d if cfg.mode == "points2d" else tw.gen_glyphs
    dataset = gen(spec, args.n, seed=seed)
    with _out_dir(args, cfg, {"dataset": seed}) as out:
        tw.dataset_to_csv(dataset, os.path.join(out, "dataset.csv"))
    print(f"wrote {len(dataset.labels)} samples to {args.out}/dataset.csv")
    return 0


def cmd_train_base(args) -> int:
    cfg, vocab, _ = _load(args)
    dataset = tw.dataset_from_csv(args.data, cfg.mode, vocab.size)
    with _out_dir(args, cfg, {"train": cfg.base_seed}) as out:
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
    print(f"wrote {args.out}/base.ssrg after {cfg.base_steps} steps")
    return 0


def cmd_erase(args) -> int:
    cfg, _, [(base, _)] = _load(args, "base")
    ecfg = cfg.erase
    meta = _checkpoint_meta(cfg, "erased", {
        "loss_kind": ecfg.loss_kind, "lambda": ecfg.lam, "seed": ecfg.seed,
        "base": os.fspath(args.base)})
    with _out_dir(args, cfg, {"erase": ecfg.seed}) as out:
        ckpt_dir = os.path.join(out, "checkpoints")
        os.mkdir(ckpt_dir)

        def write_snapshot(iteration, snapshot):
            name = f"iter_{iteration:04d}.ssrg"
            ps.write_checkpoint(snapshot, dict(meta, iteration=iteration),
                                os.path.join(ckpt_dir, name))

        teacher = er.teacher_pass(base, ecfg, cfg.schedule(), cfg.sampler())
        model, log = er.erase_finetune(base, teacher, ecfg, write_snapshot)
        ps.write_checkpoint(model, meta, os.path.join(out, "erased.ssrg"))
        rp.write_csv(os.path.join(out, "loss.csv"),
                     ("iteration", "t_index", "concept", "penalty", "total"),
                     [(str(it), str(t), loss.concept, loss.penalty, loss.total)
                      for it, t, loss in log])
    print(f"wrote {args.out}/erased.ssrg, "
          f"{ecfg.n_iters // ecfg.snapshot_every} checkpoints, "
          f"loss.csv ({ecfg.n_iters} iterations)")
    return 0


def cmd_sample(args) -> int:
    cfg, vocab, [(model, _)] = _load(args, "model")
    concept = vocab.id_of(args.concept)
    seed = cfg.seed if args.seed is None else args.seed
    gamma = cfg.eval_gamma if args.gamma is None else args.gamma
    with _out_dir(args, cfg, {"sample": seed}) as out:
        X = _sample_batch(model, cfg, concept, args.n, seed, gamma)
        dataset = tw.Dataset(X, np.full(args.n, concept), n_concepts=vocab.size)
        tw.dataset_to_csv(dataset, os.path.join(out, "samples.csv"))
    print(f"wrote {args.n} samples of {args.concept!r} "
          f"(gamma={gamma:g}) to {args.out}/samples.csv")
    return 0


def cmd_invert(args) -> int:
    cfg, vocab, [(model, _)] = _load(args, "model")
    dataset = tw.dataset_from_csv(args.data, cfg.mode, vocab.size)
    with _out_dir(args, cfg, {}) as out:
        sched, sampler = cfg.schedule(), cfg.sampler()
        X, labels = dataset.samples, dataset.labels
        latents = df.ddim_invert(X, model, sched, sampler, labels)
        recon = df.descend(latents, sampler, sched, labels,
                           df.conditional_eps(model))
        recon_rows = [(str(i), str(c), float(np.linalg.norm(r - x0))
                       / max(float(np.linalg.norm(x0)), 1e-300))
                      for i, (c, r, x0) in enumerate(zip(labels, recon, X))]
        tw.dataset_to_csv(tw.Dataset(latents, labels, n_concepts=vocab.size),
                          os.path.join(out, "inverted.csv"))
        rp.write_csv(os.path.join(out, "recon.csv"),
                     ("index", "label", "rel_l2"), recon_rows)
    mean_err = float(np.mean([r[2] for r in recon_rows]))
    print(f"inverted {len(recon_rows)} samples, "
          f"mean reconstruction rel L2 {mean_err:.4g}")
    return 0


def _timeline_snapshots(cfg, model_path):
    """(iteration, path) of each snapshot in the checkpoints/ directory that
    erase writes next to model_path, in the order of the iterations their
    metas record, each header checked against the config; None when there
    is no such directory."""
    ckpt_dir = os.path.join(os.path.dirname(os.path.abspath(model_path)),
                            "checkpoints")
    if not os.path.isdir(ckpt_dir):
        return None
    snapshots = []
    for name in sorted(os.listdir(ckpt_dir)):
        if not name.endswith(".ssrg"):
            continue
        path = os.path.join(ckpt_dir, name)
        header = ps.read_checkpoint_header(path)
        _check_header(cfg, path, header["meta"], header["model"])
        try:
            iteration = ps._count(header["meta"].get("iteration"), least=0)
        except ValueError as exc:
            raise ConfigError(f"{path}: snapshot iteration: {exc}") from exc
        snapshots.append((iteration, path))
    return sorted(snapshots)


def cmd_eval(args) -> int:
    cfg, vocab, [(base, _), (model, model_meta)] = _load(args, "base", "model")
    snapshots = _timeline_snapshots(cfg, args.model)
    with _out_dir(args, cfg, {"eval": cfg.seed}) as out:
        method = args.method or model_meta.get("loss_kind", "ours")
        oracle, non_targets, consistency = _scorer(cfg, vocab, base)
        n = cfg.n_samples if args.n is None else args.n
        erase_set = cfg.erase.erase_set
        rates = {c: _rate(model, cfg, oracle, c, n) for c in erase_set}
        drift = {}
        for c in non_targets:
            Xb = _sample_batch(base, cfg, c, args.drift_n, cfg.seed + c,
                               cfg.eval_gamma)
            Xm = _sample_batch(model, cfg, c, args.drift_n,
                               cfg.seed + c + 10_000, cfg.eval_gamma)
            drift[c] = an.mmd2(Xb, Xm)
        metrics = an.MetricReport(erasure_rates=rates, drift=drift,
                                  consistency=consistency(model),
                                  sample_count=n,
                                  seeds=cfg.consistency_seeds,
                                  threshold=cfg.threshold)

        timeline = None
        if snapshots is not None:
            timeline = {"iterations": [it for it, _ in snapshots],
                        "rates": [_rate(ps.read_checkpoint(path)[0], cfg,
                                        oracle, erase_set[0], args.timeline_n)
                                  for _, path in snapshots]}

        ps.write_json(os.path.join(out, "metrics.json"),
                      {"method": method,
                       "report": metrics.to_dict(),
                       "timeline": timeline})
    worst = max(rates.values())
    print(f"method={method} max target rate={worst:.3f} over {n} samples; "
          f"metrics.json written to {args.out}")
    return 0


def cmd_sweep_lambda(args) -> int:
    try:
        values = [float(v) + 0.0 for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from exc
    if not values:
        raise ConfigError("--values: need at least one lambda")
    cfg, vocab, [(base, _)] = _load(args, "base")
    # Each value names its checkpoint lambda_{:g}.ssrg, so two values with
    # one name would overwrite each other's checkpoint; adding 0.0 above
    # turns -0 into 0, so the two are one run.
    runs = {}
    for lam in values:
        try:
            ecfg = dataclasses.replace(cfg.erase, lam=lam)
        except ConfigError as exc:
            raise ConfigError(f"--values: {exc}") from exc
        if f"{lam:g}" in runs:
            raise ConfigError(f"--values: {lam!r} repeats the checkpoint name "
                              f"lambda_{lam:g}.ssrg")
        runs[f"{lam:g}"] = ecfg
    with _out_dir(args, cfg, {"erase": cfg.erase.seed}) as out:
        oracle, _, consistency = _scorer(cfg, vocab, base)
        teacher = er.teacher_pass(base, cfg.erase, cfg.schedule(),
                                  cfg.sampler())
        rows = []
        for name, ecfg in runs.items():
            model, _ = er.erase_finetune(base, teacher, ecfg,
                                         lambda iteration, snapshot: None)
            meta = _checkpoint_meta(cfg, "erased", {
                "loss_kind": ecfg.loss_kind, "lambda": ecfg.lam, "seed": ecfg.seed})
            ps.write_checkpoint(model, meta, os.path.join(out, f"lambda_{name}.ssrg"))
            rate = _rate(model, cfg, oracle, ecfg.erase_set[0], args.n)
            cons = float(np.mean(list(consistency(model).values())))
            rows.append((ecfg.lam, rate, cons))
            print(f"lambda={name}: erasure rate={rate:.3f} "
                  f"consistency={cons:.4f}")
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
        print(f"wrote {os.path.join(args.out, os.path.basename(path))}")
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
    p.add_argument("--data", required=True, help="dataset CSV (from gen-data)")

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
    p.add_argument("--timeline-n", type=int, default=100,
                   help="samples per snapshot for the timeline of the "
                        "'checkpoints' directory next to the model")

    p = add("sweep-lambda", cmd_sweep_lambda, "erase at several lambda values")
    p.add_argument("--base", required=True, help="base checkpoint")
    p.add_argument("--values", default="0,0.5,1,1.5,5",
                   help="comma-separated lambda values; a list that starts "
                        "with '-' needs the --values=-0,5 form")
    p.add_argument("--n", type=int, default=200,
                   help="samples for the per-lambda erasure rate")

    add("verify-theory", cmd_verify_theory,
        "run the analytic identity checks; nonzero exit on failure")

    p = sub.add_parser("report", help="aggregate run directories into CSV + SVG")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--runs", nargs="+", required=True,
                   help="run directories containing metrics.json")
    p.set_defaults(handler=cmd_report)

    for name in ("gen-data", "sample"):
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
        # an overflow surfaces as the package's NumericalError, in one line
        with np.errstate(all="ignore"):
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
