"""Workload inputs, CLI stage lists and output fingerprints.

Each workload is a fixed list of ``eraselab`` CLI stages. The harness writes
the stages' only inputs, an INI run configuration and a dataset CSV, from the
workload seed; everything else the stages read was written by earlier stages.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass

# kind -> (rtol, atol) for fingerprint values. Values that pass through
# report.write_csv carry 6 significant digits, so their rtol sits above that
# rounding; the rates are counts over a sample batch.
TOLERANCES = {
    "exact": (0.0, 0.0),
    "rate": (0.0, 0.02),
    "value": (1e-4, 1e-9),
}


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    stages: tuple
    config: tuple = ()          # (section, key, value) beyond the seeds
    n_per_concept: int = 500
    base_in_setup: bool = False
    eval_args: tuple = ()
    sample_concept: str = ""
    sample_n: int = 100
    base_steps: int = 8000
    erase_iters: int = 200


WORKLOADS = {w.name: w for w in (
    Workload(
        name="points-pipeline", mode="points2d",
        stages=("gen-data", "train-base", "erase", "eval", "sample", "invert",
                "report"),
        sample_concept="c1", sample_n=100),
    Workload(
        name="glyphs-train", mode="glyphs16",
        stages=("gen-data", "train-base"),
        config=(("base", "steps", 150), ("base", "batch_size", 128)),
        n_per_concept=200, base_steps=150),
    Workload(
        name="glyphs-erase-eval", mode="glyphs16",
        stages=("erase", "eval", "sample", "invert"),
        config=(("base", "steps", 50), ("base", "batch_size", 128),
                ("erase", "n_iters", 20), ("erase", "snapshot_every", 5),
                ("metrics", "n_samples", 50), ("metrics", "consistency_seeds", 0)),
        n_per_concept=200, base_in_setup=True, base_steps=50, erase_iters=20,
        eval_args=("--timeline-n", "50", "--drift-n", "25"),
        sample_concept="square", sample_n=25),
)}


def ini_text(workload: Workload, seed: int) -> str:
    """Run configuration: the workload's sections plus seeds from the seed."""
    sections = {"run": [f"mode = {workload.mode}", f"seed = {seed}"],
                "base": [f"seed = {seed + 1}"],
                "erase": [f"seed = {seed + 2}"]}
    for section, key, value in workload.config:
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines)
                   for name, lines in sections.items())


def write_inputs(workload: Workload, seed: int, setup_dir: str) -> dict:
    """Write run.ini and dataset.csv for the seed; returns their paths."""
    from eraselab import toyworld as tw

    os.makedirs(setup_dir, exist_ok=True)
    ini = os.path.join(setup_dir, "run.ini")
    with open(ini, "w") as fh:
        fh.write(ini_text(workload, seed))
    if workload.mode == "points2d":
        _, spec = tw.default_points_vocab()
        dataset = tw.gen_points2d(spec, workload.n_per_concept, seed=seed)
    else:
        _, spec = tw.default_glyph_vocab()
        dataset = tw.gen_glyphs(spec, workload.n_per_concept, seed=seed)
    data = os.path.join(setup_dir, "dataset.csv")
    tw.dataset_to_csv(dataset, data)
    return {"ini": ini, "data": data,
            "base": os.path.join(setup_dir, "train-base", "base.ssrg")}


def stage_argv(workload: Workload, stage: str, inputs: dict, it_dir: str) -> list:
    ini = inputs["ini"]
    out = os.path.join(it_dir, stage)
    base = inputs["base"] if workload.base_in_setup \
        else os.path.join(it_dir, "train-base", "base.ssrg")
    erased = os.path.join(it_dir, "erase", "erased.ssrg")
    if stage == "gen-data":
        return ["gen-data", "--config", ini, "--out", out,
                "--n", str(workload.n_per_concept)]
    if stage == "train-base":
        return ["train-base", "--config", ini, "--data", inputs["data"],
                "--out", out]
    if stage == "erase":
        return ["erase", "--config", ini, "--base", base, "--out", out]
    if stage == "eval":
        return ["eval", "--config", ini, "--base", base, "--model", erased,
                "--out", out, *workload.eval_args]
    if stage == "sample":
        return ["sample", "--config", ini, "--model", erased,
                "--concept", workload.sample_concept,
                "--n", str(workload.sample_n), "--out", out]
    if stage == "invert":
        return ["invert", "--config", ini, "--model", erased,
                "--data", os.path.join(it_dir, "sample", "samples.csv"),
                "--out", out]
    if stage == "report":
        return ["report", "--runs", os.path.join(it_dir, "eval"), "--out", out]
    raise ValueError(f"unknown stage {stage!r}")


# -- fingerprints -------------------------------------------------------------

def payload_sha256(path) -> str:
    """sha256 of a checkpoint's payload; the header holds a timestamp and paths."""
    with open(path, "rb") as fh:
        data = fh.read()
    (header_len,) = struct.unpack_from("<I", data, 6)
    return hashlib.sha256(data[10 + header_len:]).hexdigest()


def _csv_tail(path, n=3) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[float(v) for v in row] for row in (rows[-n:] if n else rows)]


def fingerprint(workload: Workload, inputs: dict, it_dir: str) -> tuple[dict, dict]:
    """(checked fingerprints as name -> (kind, value), informational record)."""
    checked, info = {}, {}
    train_dir = os.path.dirname(inputs["base"]) if workload.base_in_setup \
        else os.path.join(it_dir, "train-base")
    rows = _csv_tail(os.path.join(train_dir, "train_loss.csv"))
    checked["train_loss.step"] = ("exact", [r[0] for r in rows])
    checked["train_loss.loss"] = ("value", [r[1] for r in rows])
    info["base.payload_sha256"] = payload_sha256(os.path.join(train_dir, "base.ssrg"))
    if "erase" in workload.stages:
        rows = _csv_tail(os.path.join(it_dir, "erase", "loss.csv"))
        checked["loss.iteration_t_index"] = ("exact", [r[:2] for r in rows])
        checked["loss.concept_penalty_total"] = ("value", [r[2:] for r in rows])
        erase_dir = os.path.join(it_dir, "erase")
        info["erased.payload_sha256"] = payload_sha256(
            os.path.join(erase_dir, "erased.ssrg"))
        snaps = sorted(os.listdir(os.path.join(erase_dir, "checkpoints")))
        digest = hashlib.sha256()
        for name in snaps:
            digest.update(payload_sha256(
                os.path.join(erase_dir, "checkpoints", name)).encode())
        info["snapshots.payload_sha256"] = digest.hexdigest()
        info["snapshots.count"] = len(snaps)
    if "eval" in workload.stages:
        with open(os.path.join(it_dir, "eval", "metrics.json")) as fh:
            metrics = json.load(fh)
        report = metrics["report"]
        checked["eval.target_rate"] = ("rate", [report["erasure_rates"][k]
                                                for k in sorted(report["erasure_rates"])])
        checked["eval.drift"] = ("value", [report["drift"][k]
                                           for k in sorted(report["drift"], key=int)])
        checked["eval.consistency"] = ("value", [report["consistency"][k]
                                                 for k in sorted(report["consistency"],
                                                                 key=int)])
        checked["eval.timeline_rates"] = ("rate", metrics["timeline"]["rates"])
    if "invert" in workload.stages:
        rows = _csv_tail(os.path.join(it_dir, "invert", "recon.csv"), n=None)
        checked["invert.mean_rel_l2"] = ("value", sum(r[2] for r in rows) / len(rows))
    return checked, info


def _flatten(value):
    if isinstance(value, list):
        for v in value:
            yield from _flatten(v)
    else:
        yield value


def compare(kind: str, ref, got) -> bool:
    """True when got matches ref within the kind's tolerance."""
    rtol, atol = TOLERANCES[kind]
    ref_flat, got_flat = list(_flatten(ref)), list(_flatten(got))
    if len(ref_flat) != len(got_flat):
        return False
    return all(abs(g - r) <= atol + rtol * abs(r)
               for r, g in zip(ref_flat, got_flat))


def all_finite(checked: dict) -> bool:
    return all(math.isfinite(v) for _, value in checked.values()
               for v in _flatten(value))


def invariant_failures(workload: Workload, inputs: dict, it_dir: str,
                       checked: dict) -> list:
    """Checks that hold for every seed, reference or not."""
    problems = []
    if not all_finite(checked):
        problems.append("non-finite fingerprint value")
    if "gen-data" in workload.stages:
        with open(inputs["data"], "rb") as a, \
                open(os.path.join(it_dir, "gen-data", "dataset.csv"), "rb") as b:
            if a.read() != b.read():
                problems.append("gen-data output differs from the seeded dataset")
    if "erase" in workload.stages:
        last_iteration = checked["loss.iteration_t_index"][1][-1][0]
        if last_iteration != workload.erase_iters:
            problems.append(f"loss.csv ends at iteration {last_iteration}")
    if checked["train_loss.step"][1][-1] != workload.base_steps - 1:
        problems.append("train_loss.csv does not end at the last step")
    if "report" in workload.stages:
        with open(os.path.join(it_dir, "report", "report.csv")) as fh:
            if len(fh.read().splitlines()) != 2:
                problems.append("report.csv does not hold one run row")
    return problems


def reference_failures(checked: dict, reference: dict) -> list:
    """Names of fingerprints that differ from the recorded reference."""
    bad = []
    for name, (kind, value) in checked.items():
        if name not in reference or not compare(kind, reference[name], value):
            bad.append(name)
    bad.extend(name for name in reference if name not in checked)
    return bad
