"""Span tracer that wraps eraselab's public functions from outside the package.

The package calls its functions through module attributes (``nnet.forward_batch``,
``df.descend``) and, inside one module, through the module's globals. Replacing
the module attribute therefore catches every call without editing the package.
The closures returned by the three guidance factories are wrapped by wrapping the
factories. Spans live in memory as ``(name, start, end, parent index, run id)``
and are written out once the run ends.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("nnet", "diffusion", "guidance", "erasure", "analysis",
                  "toyworld", "persistence", "report", "cli")

# factory -> span name of the closure it returns
CLOSURE_SPANS = {
    "diffusion.conditional_eps": "diffusion.conditional",
    "guidance.cfg_guidance": "guidance.cfg",
    "guidance.rollout_guidance": "guidance.rollout",
}

CLI_SUBCOMMANDS = ("gen-data", "train-base", "erase", "eval", "sample",
                   "invert", "report")


def span_name(module: str, attr: str) -> str:
    if module == "cli" and attr.startswith("cmd_"):
        return "cli." + attr[len("cmd_"):].replace("_", "-")
    return f"{module}.{attr}"


def _concept_key(c):
    if np.ndim(c) == 0:
        return int(c)
    return tuple(int(v) for v in np.unique(c))


def _matmul_flops_per_row(shape) -> int:
    return 2 * sum(fan_in * fan_out for fan_in, fan_out in shape.layer_dims())


def _param_bytes(params) -> int:
    return sum(a.nbytes for a in params.weights + params.biases) \
        + params.concept_embed.nbytes


class Tracer:
    """Records spans and counters for one traced workload iteration."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans = []          # open span: its name; closed: the tuple
        self.stack = []          # indices of open spans
        self.counts = defaultdict(float)
        self.gauges = {}
        self.guided = []         # concept keys per open guided_eps evaluation
        self._saved = []
        self._flops = {}
        self._after = {
            "nnet.forward_batch": self._after_forward,
            "nnet.adamw_step": self._after_adamw,
            "diffusion.descend": self._after_descend,
            "analysis.erasure_rate": self._after_erasure_rate,
            "persistence.write_checkpoint": self._after_write,
            "persistence.read_checkpoint": self._after_read,
        }

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        run_id = self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(name)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, run_id)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def _wrap_factory(self, closure_name, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.wrap(closure_name, factory(*args, **kwargs))
        return make

    def _wrap_guided(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.guided.append([])
            try:
                return fn(*args, **kwargs)
            finally:
                keys = self.guided.pop()
                self.counts["guided.forward_calls"] += len(keys)
                self.counts["guided.distinct_concepts"] += len(set(keys))
        return counted

    def install(self, package: str = "eraselab") -> None:
        for module in TRACED_MODULES:
            mod = importlib.import_module(f"{package}.{module}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                name = span_name(module, attr)
                fn = obj
                if name in CLOSURE_SPANS:
                    fn = self._wrap_factory(CLOSURE_SPANS[name], fn)
                fn = self.wrap(name, fn, self._after.get(name))
                if name == "guidance.guided_eps":
                    fn = self._wrap_guided(fn)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, fn)

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, obj = self._saved.pop()
            setattr(mod, attr, obj)

    # -- counters taken at the layer boundary -------------------------------

    @staticmethod
    def _arg(args, kwargs, pos, key, default=None):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(key, default)

    def _after_forward(self, args, kwargs, result):
        params = self._arg(args, kwargs, 0, "params")
        c = self._arg(args, kwargs, 3, "c")
        rows = result[0].shape[0]
        flops = self._flops.get(params.shape)
        if flops is None:
            flops = self._flops[params.shape] = _matmul_flops_per_row(params.shape)
        self.counts["nnet.forward_batch.rows"] += rows
        self.counts["nnet.forward_batch.gflop"] += rows * flops / 1e9
        if self.guided:
            self.guided[-1].append(_concept_key(c))

    def _after_adamw(self, args, kwargs, result):
        self.gauges["nnet.adamw_step.param_mb"] = _param_bytes(result) / 1e6

    def _after_descend(self, args, kwargs, result):
        Z = self._arg(args, kwargs, 0, "Z")
        sampler = self._arg(args, kwargs, 1, "sampler")
        stop = self._arg(args, kwargs, 5, "stop_index", 0)
        steps = sampler.T - stop
        self.counts["diffusion.descend.rows"] += np.atleast_2d(Z).shape[0]
        self.counts["diffusion.descend.steps"] += steps
        if self.stack and self.spans[self.stack[-1]] == "erasure.erase_finetune":
            self.counts["erasure.rollout_steps"] += steps

    def _after_erasure_rate(self, args, kwargs, result):
        samples = self._arg(args, kwargs, 0, "samples")
        self.counts["analysis.erasure_rate.rows"] += np.atleast_2d(samples).shape[0]

    def _after_write(self, args, kwargs, result):
        path = self._arg(args, kwargs, 2, "path")
        self.counts["persistence.write_checkpoint.mb"] += os.path.getsize(path) / 1e6

    def _after_read(self, args, kwargs, result):
        path = self._arg(args, kwargs, 0, "path")
        self.counts["persistence.read_checkpoint.mb"] += os.path.getsize(path) / 1e6

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of this iteration, keyed as in BENCHMARK.json."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        rollout_s = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
            if name == "diffusion.descend" and parent >= 0 \
                    and spans[parent][0] == "erasure.erase_finetune":
                rollout_s += end - start
        counts = self.counts
        fb_calls = calls["nnet.forward_batch"]
        guided_calls = counts["guided.forward_calls"]
        m = {
            "nnet.forward_batch.calls": fb_calls,
            "nnet.forward_batch.rows": counts["nnet.forward_batch.rows"],
            "nnet.forward_batch.rows_per_call":
                counts["nnet.forward_batch.rows"] / fb_calls if fb_calls else 0.0,
            "nnet.forward_batch.self_s": own["nnet.forward_batch"],
            "nnet.forward_batch.gflop": counts["nnet.forward_batch.gflop"],
            "nnet.backward.calls": calls["nnet.backward"],
            "nnet.backward.self_s": own["nnet.backward"],
            "nnet.adamw_step.calls": calls["nnet.adamw_step"],
            "nnet.adamw_step.self_s": own["nnet.adamw_step"],
            "nnet.adamw_step.param_mb": self.gauges.get("nnet.adamw_step.param_mb", 0.0),
            "diffusion.descend.calls": calls["diffusion.descend"],
            "diffusion.descend.rows": counts["diffusion.descend.rows"],
            "diffusion.descend.steps": counts["diffusion.descend.steps"],
            "diffusion.descend.self_s": own["diffusion.descend"],
            "diffusion.train_base.self_s": own["diffusion.train_base"],
            "diffusion.ddim_invert.calls": calls["diffusion.ddim_invert"],
            "diffusion.ddim_invert.self_s": own["diffusion.ddim_invert"],
            "diffusion.sample.calls": calls["diffusion.sample"],
            "diffusion.sample_final_batch.calls": calls["diffusion.sample_final_batch"],
            "guidance.guided_eps.calls": calls["guidance.guided_eps"],
            "guidance.guided_eps.self_s": own["guidance.guided_eps"],
            "guidance.delta.calls": calls["guidance.delta"],
            "guidance.delta.self_s": own["guidance.delta"],
            "guidance.cfg.calls": calls["guidance.cfg"],
            "guidance.cfg.self_s": own["guidance.cfg"],
            "guidance.redundant_forward_frac":
                1.0 - counts["guided.distinct_concepts"] / guided_calls
                if guided_calls else 0.0,
            "erasure.rollout_s": rollout_s,
            "erasure.rollout_steps": counts["erasure.rollout_steps"],
            "erasure.loss_s": total["erasure.concept_loss"]
                + total["erasure.penalty_loss"] + total["erasure.baseline_loss"],
            "erasure.erase_finetune.self_s": own["erasure.erase_finetune"],
            "analysis.erasure_rate.rows": counts["analysis.erasure_rate.rows"],
            "analysis.erasure_rate.s": total["analysis.erasure_rate"],
            "analysis.seed_consistency.s": total["analysis.seed_consistency"],
            "analysis.mmd2.s": total["analysis.mmd2"],
            "analysis.ssim.calls": calls["analysis.ssim"],
            "toyworld.template_classify.calls": calls["toyworld.template_classify"],
            "toyworld.template_classify.self_s": own["toyworld.template_classify"],
            "toyworld.bayes_classify.calls": calls["toyworld.bayes_classify"],
            "toyworld.bayes_classify.self_s": own["toyworld.bayes_classify"],
            "toyworld.gen.s": total["toyworld.gen_points2d"] + total["toyworld.gen_glyphs"],
            "toyworld.csv.s": total["toyworld.dataset_to_csv"]
                + total["toyworld.dataset_from_csv"],
            "persistence.write_checkpoint.calls": calls["persistence.write_checkpoint"],
            "persistence.write_checkpoint.mb": counts["persistence.write_checkpoint.mb"],
            "persistence.write_checkpoint.s": total["persistence.write_checkpoint"],
            "persistence.read_checkpoint.calls": calls["persistence.read_checkpoint"],
            "persistence.read_checkpoint.mb": counts["persistence.read_checkpoint.mb"],
            "persistence.read_checkpoint.s": total["persistence.read_checkpoint"],
            "persistence.load_config.s": total["persistence.load_config"],
            "report.write_csv.calls": calls["report.write_csv"],
            "report.write_csv.s": total["report.write_csv"],
            "report.emit_report.s": total["report.emit_report"],
            "trace.spans": len(spans),
        }
        for sub in CLI_SUBCOMMANDS:
            m[f"cli.{sub}.self_s"] = own[f"cli.{sub}"]
        return m

    def write_spans(self, path) -> None:
        """Append this iteration's spans to a gzip CSV (times in seconds)."""
        new = not os.path.exists(path)
        with gzip.open(path, "at", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if new:
                writer.writerow(("name", "start", "end", "parent", "run_id"))
            for name, start, end, parent, run_id in self.spans:
                writer.writerow((name, repr(start), repr(end), parent, run_id))
