#!/usr/bin/env python3
"""Benchmark of the eraselab CLI: stage timings, output checks, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload points-pipeline --seed 0 --seconds 25 --trace 0

One client drives ``eraselab.cli.main(argv)`` in this process, one stage after
another (a closed loop), repeating the workload until ``--seconds`` have passed.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates untraced
and traced iterations and reports the per-layer metrics and the tracing
overhead. Human-readable lines come first; the last line of standard output is
one JSON object. ``--record`` stores the run's fingerprints as the reference
for its workload and seed instead of checking them. See perfbench/README.md.
"""

import os

BLAS_THREADS = 1            # fixed before NumPy loads; at most nproc anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import workloads as wls

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCES = os.path.join(HERE, "references")
SETUP_REPEATS = 3

# end-to-end metric -> unit; the first four are gated (see BENCHMARK.json)
E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "train_ms_per_step": "ms",
    "peak_rss_mb": "MB", "erase_ms_per_iter": "ms", "eval_s": "s",
    "invert_ms_per_sample": "ms", "error_rate": "ratio",
}
GATED = ("setup_s", "wall_s", "train_ms_per_step", "peak_rss_mb")


def layer_unit(name: str) -> str:
    if name.endswith(".gflop"):
        return "GFLOP-computed"
    if name.endswith(".param_mb"):
        return "MB-computed"
    if name.endswith(".mb"):
        return "MB"
    if name.endswith("rows_per_call"):
        return "rows/call"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def tail(values):
    """(label, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return "tail", None
    return f"p{100 * (n - 10) // n}", sorted(values)[n - 11]


class Run:
    """One benchmark invocation: set-up, the closed loop and the checks."""

    def __init__(self, cli, wl, args):
        self.cli = cli
        self.wl = wl
        self.seed = args.seed
        self.record = args.record
        tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
        self.run_dir = os.path.join(WORK, tag)
        self.results_base = os.path.join(WORK, "results", tag)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_checked = None
        self.samples = {name: [] for name in E2E_UNITS}
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)
        os.makedirs(os.path.dirname(self.results_base), exist_ok=True)
        self.log = open(self.results_base + "-stages.log", "w")
        ref_path = os.path.join(REFERENCES, f"{wl.name}.json")
        self.references = {}
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                self.references = json.load(fh)

    def close(self):
        self.log.close()
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def stage(self, argv):
        """Run one CLI stage; returns its seconds, or None when it failed."""
        self.attempted += 1
        print(f"$ eraselab {' '.join(argv)}", file=self.log, flush=True)
        start = time.perf_counter()
        with contextlib.redirect_stdout(self.log), contextlib.redirect_stderr(self.log):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:           # argparse rejected the argv
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:                   # a traceback is a failed stage
                traceback.print_exc()
                rc = 1
        seconds = time.perf_counter() - start
        if rc != 0:
            self.fail(f"stage {argv[0]} exited {rc} (see {self.log.name})")
            return None
        return seconds

    def fail(self, problem):
        self.failed += 1
        self.problems.append(problem)

    def set_up(self, import_s):
        """Write the seeded inputs (and the short base, if any); False on failure."""
        setup_dir = os.path.join(self.run_dir, "setup")
        shutil.rmtree(setup_dir, ignore_errors=True)
        start = time.perf_counter()
        self.inputs = wls.write_inputs(self.wl, self.seed, setup_dir)
        train_s = None
        if self.wl.base_in_setup:
            train_s = self.stage(wls.stage_argv(self.wl, "train-base", self.inputs,
                                                setup_dir))
            if train_s is None:
                return False
        self.samples["setup_s"].append(import_s + time.perf_counter() - start)
        if train_s is not None:
            self.samples["train_ms_per_step"].append(train_s * 1000 / self.wl.base_steps)
        return True

    def iteration(self, k, tracer=None):
        """One pass over the workload's stages; returns (wall_s, ok)."""
        it_dir = os.path.join(self.run_dir, f"iter{k}")
        shutil.rmtree(it_dir, ignore_errors=True)
        os.makedirs(it_dir)
        argvs = [wls.stage_argv(self.wl, s, self.inputs, it_dir) for s in self.wl.stages]
        stage_s = {}
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            for name, argv in zip(self.wl.stages, argvs):
                seconds = self.stage(argv)
                if seconds is None:
                    break
                stage_s[name] = seconds
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        ok = len(stage_s) == len(self.wl.stages)
        if ok and tracer is None:
            self.pass_samples(wall, stage_s)
        return wall, ok, it_dir

    def pass_samples(self, wall, stage_s):
        wl = self.wl
        per_unit = {"train-base": ("train_ms_per_step", 1000 / wl.base_steps),
                    "erase": ("erase_ms_per_iter", 1000 / wl.erase_iters),
                    "eval": ("eval_s", 1.0),
                    "invert": ("invert_ms_per_sample", 1000 / wl.sample_n)}
        self.samples["wall_s"].append(wall)
        for stage, seconds in stage_s.items():
            if stage in per_unit:
                name, scale = per_unit[stage]
                self.samples[name].append(seconds * scale)

    def check(self, it_dir, traced=False):
        """Output checks of one iteration against the references, the
        invariants and the run's first iteration."""
        self.attempted += 1
        try:
            checked, info = wls.fingerprint(self.wl, self.inputs, it_dir)
            problems = wls.invariant_failures(self.wl, self.inputs, it_dir, checked)
        except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            self.fail(f"stage outputs unreadable: {exc!r}")
            return
        if problems:
            self.fail("; ".join(problems))
        ref = self.references.get(str(self.seed))
        if ref is not None and not self.record:
            self.attempted += 1
            bad = wls.reference_failures(checked, ref)
            if bad:
                self.fail(f"fingerprints differ from the seed-{self.seed} "
                          f"reference: {', '.join(bad)}")
        if self.first_checked is None:
            self.first_checked = (checked, info)
        else:
            self.attempted += 1
            if (checked, info) != self.first_checked:
                self.fail("traced and untraced fingerprints differ" if traced
                          else "a repeated iteration produced different "
                               "fingerprints")

    def save_reference(self):
        path = os.path.join(REFERENCES, f"{self.wl.name}.json")
        self.references[str(self.seed)] = {
            name: value for name, (_, value) in self.first_checked[0].items()}
        seeds = sorted(self.references, key=int)
        with open(path, "w") as fh:
            fh.write("{\n" + ",\n".join(
                f" {json.dumps(seed)}: {json.dumps(self.references[seed])}"
                for seed in seeds) + "\n}\n")


def host_record(import_s):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "src_py_lines": src_lines,
        "import_s": import_s,
    }


def closed_loop(seconds, one_pass):
    """Repeat one_pass() while another pass of median length still fits."""
    start = time.perf_counter()
    durations = []
    while True:
        t = time.perf_counter()
        if not one_pass(len(durations)):
            return
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's fingerprints as the reference")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "eraselab", "cli.py")):
        print(f"perfbench: no eraselab sources at {SRC}; run it from the root "
              f"of a repository checkout", file=sys.stderr)
        return 2
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    from eraselab import cli
    import_s = time.perf_counter() - start
    from tracing import Tracer
    if args.workload not in wls.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wls.WORKLOADS)}", file=sys.stderr)
        return 2

    run = Run(cli, wls.WORKLOADS[args.workload], args)
    set_up = all(run.set_up(import_s) for _ in range(SETUP_REPEATS))

    traced_walls, untraced_walls, layer_runs = [], [], []
    spans_path = run.results_base + "-spans.csv.gz"
    if os.path.exists(spans_path):
        os.remove(spans_path)

    def untraced_pass(k):
        wall, ok, it_dir = run.iteration(k)
        if ok:
            run.check(it_dir)
            untraced_walls.append(wall)
        shutil.rmtree(it_dir, ignore_errors=True)
        return ok

    def traced_pair(k):
        if not untraced_pass(2 * k):
            return False
        tracer = Tracer(run_id=k)
        wall, ok, it_dir = run.iteration(2 * k + 1, tracer)
        if ok:
            run.check(it_dir, traced=True)
            traced_walls.append(wall)
            layer_runs.append(tracer.layer_metrics())
            tracer.write_spans(spans_path)
        shutil.rmtree(it_dir, ignore_errors=True)
        return ok

    if set_up:
        if args.record:
            untraced_pass(0)
        else:
            closed_loop(args.seconds, traced_pair if args.trace else untraced_pass)
    if args.record and run.first_checked is not None and not run.failed:
        run.save_reference()
    run.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.samples["peak_rss_mb"] = [rss_mb]
    run.samples["error_rate"] = [run.failed / max(run.attempted, 1)]

    host = host_record(import_s)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": host, "attempted": run.attempted, "failed": run.failed,
              "problems": run.problems,
              "reference": str(args.seed) in run.references,
              "fingerprints": None, "samples": run.samples}
    if run.first_checked is not None:
        checked, info = run.first_checked
        report["fingerprints"] = {
            "checked": {k: v for k, (_, v) in checked.items()}, "info": info}

    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: attempted {run.attempted}, "
          f"failed {run.failed}; seed reference "
          f"{'checked' if report['reference'] and not args.record else 'absent'}")
    for problem in run.problems:
        print(f"FAILED: {problem}")
    print(f"{'metric':<22}{'unit':<7}{'median':>12}{'tail':>16}{'n':>5}")
    for name, unit in E2E_UNITS.items():
        values = run.samples[name]
        if not values:
            print(f"{name:<22}{unit:<7}{'(not run)':>12}")
            continue
        label, value = tail(values)
        tail_text = f"{label}={value:.4g}" if value is not None else "n<11"
        print(f"{name:<22}{unit:<7}{statistics.median(values):>12.5g}"
              f"{tail_text:>16}{len(values):>5}")

    correct = run.failed == 0 and run.first_checked is not None
    if args.trace:
        metrics = {}
        for name in layer_runs[0] if layer_runs else ():
            metrics[name] = statistics.median(r[name] for r in layer_runs)
        if traced_walls:
            overhead = statistics.median(traced_walls) \
                / statistics.median(untraced_walls) - 1.0
            metrics["trace.overhead_pct"] = 100.0 * overhead
            report["tracing"] = {"traced_wall_s": traced_walls,
                               "untraced_wall_s": untraced_walls,
                               "spans_file": os.path.relpath(spans_path, ROOT)}
            print(f"tracing overhead: {100 * overhead:+.2f}% of wall_s "
                  f"({len(traced_walls)} traced, {len(untraced_walls)} untraced)")
        for name, value in metrics.items():
            print(f"layer {name} = {value:.6g} {layer_unit(name)}")
        out = {name: {"value": value, "unit": layer_unit(name)}
               for name, value in metrics.items()}
        correct = correct and bool(layer_runs)
    else:
        out = {name: {"value": statistics.median(run.samples[name]),
                      "unit": E2E_UNITS[name]}
               for name in GATED if run.samples[name]}
        correct = correct and len(out) == len(GATED)
    report["metrics"] = out
    with open(run.results_base + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
