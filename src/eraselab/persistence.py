"""Checkpoint container and run-configuration file format.

Checkpoint layout (little-endian throughout):

    bytes 0..3    magic "SSRG"
    bytes 4..5    format version, unsigned 16-bit
    bytes 6..9    header length in bytes, unsigned 32-bit
    header        UTF-8 JSON, sorted keys: model shape, creation
                  timestamp, caller metadata, and the tensor manifest
                  (name, shape, byte offset into the payload, in order)
    payload       concatenated float64 arrays in manifest order

The header is self-describing and readable without touching the payload;
the payload keeps values bit-exact. Run configuration is a flat INI-style
text file; an empty file resolves to the full default operating point
(gamma1 = gamma2 = 7.5, lambda = 5, N = 200, T = 35, t_warmup = 5,
kappa = 0.95), and every unknown section or key is rejected by name.
"""

from __future__ import annotations

import configparser
import json
import math
import os
import struct
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import erasure as er
from . import guidance as gd
from . import nnet
from . import toyworld as tw
from .errors import (ConfigError, CorruptionError, FormatError,
                     UnsupportedVersionError)

MAGIC = b"SSRG"
VERSION = 1
_FIXED = "<4sHI"


def _utc_stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def write_checkpoint(params: nnet.Parameters, meta: dict, path) -> None:
    """Serialize parameters plus caller metadata; fsync before returning."""
    manifest = []
    offset = 0
    blobs = []
    for name in params.tensor_names():
        arr = np.ascontiguousarray(params.get_tensor(name), dtype="<f8")
        manifest.append({"name": name, "shape": list(arr.shape),
                         "offset": offset})
        blob = arr.tobytes()
        blobs.append(blob)
        offset += len(blob)
    header = {
        "created_utc": _utc_stamp(),
        "meta": meta,
        "model": {
            "input_dim": params.shape.input_dim,
            "hidden": list(params.shape.hidden),
            "time_embed_dim": params.shape.time_embed_dim,
            "concept_embed_dim": params.shape.concept_embed_dim,
            "n_concepts": params.n_concepts,
        },
        "tensors": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack(_FIXED, MAGIC, VERSION, len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())


def _read_header(fh, path) -> dict:
    fixed = fh.read(struct.calcsize(_FIXED))
    if len(fixed) < struct.calcsize(_FIXED):
        raise FormatError(f"{path}: too short for a checkpoint header")
    magic, version, header_len = struct.unpack(_FIXED, fixed)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version > VERSION:
        raise UnsupportedVersionError(
            f"{path}: format version {version} is newer than the "
            f"supported version {VERSION}")
    if version != VERSION:
        raise FormatError(f"{path}: invalid format version {version}")
    raw = fh.read(header_len)
    if len(raw) < header_len:
        raise CorruptionError(f"{path}: header truncated "
                              f"({len(raw)} of {header_len} bytes)")
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: header is not valid JSON: {exc}") from exc


def read_checkpoint_header(path) -> dict:
    """Parse magic, version, and the JSON header; payload untouched."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def read_checkpoint(path) -> tuple[nnet.Parameters, dict]:
    """Reconstruct Parameters bit-exactly; returns (params, caller meta)."""
    with open(path, "rb") as fh:
        header = _read_header(fh, path)
        payload = fh.read()
    model = header["model"]
    shape = nnet.NetworkShape(input_dim=model["input_dim"],
                              hidden=tuple(model["hidden"]),
                              time_embed_dim=model["time_embed_dim"],
                              concept_embed_dim=model["concept_embed_dim"])
    params = nnet.zero_like_params(
        nnet.init_params(shape, model["n_concepts"], seed=0))

    manifest = header["tensors"]
    listed = [entry["name"] for entry in manifest]
    if listed != list(params.tensor_names()):
        raise FormatError(f"{path}: manifest lists tensors {listed}, the "
                          f"declared model needs {list(params.tensor_names())}")
    expected = 0
    for entry in manifest:
        if entry["offset"] != expected:
            raise FormatError(f"{path}: tensor {entry['name']} at offset "
                              f"{entry['offset']}, expected {expected}")
        expected += 8 * int(np.prod(entry["shape"], dtype=np.int64))

    for entry in manifest:
        name, shp, off = entry["name"], tuple(entry["shape"]), entry["offset"]
        nbytes = 8 * int(np.prod(shp, dtype=np.int64))
        blob = payload[off:off + nbytes]
        if len(blob) < nbytes:
            raise CorruptionError(f"{path}: payload truncated in tensor "
                                  f"{name} ({len(blob)} of {nbytes} bytes)")
        arr = np.frombuffer(blob, dtype="<f8").astype(np.float64).reshape(shp)
        try:
            params.set_tensor(name, arr)
        except Exception as exc:
            raise FormatError(f"{path}: manifest tensor {name} does not fit "
                              f"the declared model: {exc}") from exc
    return params, header["meta"]


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

MODES = ("points2d", "glyphs16")

_SECTION_KEYS = {
    "run": {"mode", "seed"},
    "schedule": {"t_train", "beta_start", "beta_end"},
    "sampler": {"t_sample"},
    "base": {"steps", "lr", "batch_size", "p_uncond", "seed", "hidden"},
    "erase": {"concepts", "gamma1", "gamma2", "lambda", "n_iters", "lr",
              "weight_decay", "loss_kind", "trainable", "snapshot_every",
              "seed", "t_warmup", "warmup_style", "replacement_mode",
              "replacement"},
    "metrics": {"threshold", "eval_gamma", "n_samples", "consistency_seeds"},
}

_INSTRUCTION_KEYS = {"name", "g", "t_high", "t_low", "kappa"}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved experiment configuration."""

    mode: str = "points2d"
    seed: int = 0
    t_train: int = 100
    beta_start: float = 1e-4
    beta_end: float = 0.04
    sampler_T: int = 35
    base_steps: int = 8000
    base_lr: float = 1e-3
    base_batch: int = 64
    base_p_uncond: float = 0.1
    base_seed: int = 1
    base_hidden: Optional[tuple] = None
    erase: er.EraseConfig = field(default_factory=lambda: _default_erase())
    threshold: float = 0.7
    eval_gamma: float = 7.5
    n_samples: int = 1000
    consistency_seeds: tuple = tuple(range(16))

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"[run] mode: unknown mode {self.mode!r}")
        if self.sampler_T != self.erase.sampler_T:
            raise ConfigError("[sampler] t_sample: disagrees with the erase "
                              "sampler length")

    def vocab_and_spec(self):
        if self.mode == "points2d":
            return tw.default_points_vocab()
        return tw.default_glyph_vocab()

    def input_dim(self) -> int:
        return 2 if self.mode == "points2d" else 256

    def network_shape(self) -> nnet.NetworkShape:
        if self.base_hidden is not None:
            return nnet.NetworkShape(input_dim=self.input_dim(),
                                     hidden=self.base_hidden)
        if self.mode == "points2d":
            return nnet.NetworkShape(input_dim=2)
        return nnet.NetworkShape(input_dim=256, hidden=(1024,))

    def schedule(self):
        from . import diffusion as df
        return df.make_linear_schedule(self.t_train, self.beta_start,
                                       self.beta_end)

    def sampler(self):
        from . import diffusion as df
        return df.SamplerConfig.uniform(self.sampler_T, self.t_train)

    def snapshot_dict(self) -> dict:
        ins = [{"concept_id": i.concept_id, "g": i.g_c, "t_high": i.t_high,
                "t_low": i.t_low, "kappa": i.kappa}
               for i in self.erase.instructions]
        return {
            "run": {"mode": self.mode, "seed": self.seed},
            "schedule": {"t_train": self.t_train,
                         "beta_start": self.beta_start,
                         "beta_end": self.beta_end},
            "sampler": {"t_sample": self.sampler_T},
            "base": {"steps": self.base_steps, "lr": self.base_lr,
                     "batch_size": self.base_batch,
                     "p_uncond": self.base_p_uncond, "seed": self.base_seed,
                     "hidden": list(self.base_hidden) if self.base_hidden else None},
            "erase": {"erase_set": list(self.erase.erase_set),
                      "instructions": ins,
                      "replacement_mode": self.erase.replacement_mode,
                      "replacement_id": self.erase.replacement_id,
                      "gamma1": self.erase.gamma1, "gamma2": self.erase.gamma2,
                      "lambda": self.erase.lam, "n_iters": self.erase.n_iters,
                      "t_warmup": self.erase.warmup.t_warmup,
                      "warmup_style": self.erase.warmup.style,
                      "loss_kind": self.erase.loss_kind,
                      "trainable": list(self.erase.trainable)
                      if self.erase.trainable else None,
                      "lr": self.erase.lr,
                      "weight_decay": self.erase.weight_decay,
                      "snapshot_every": self.erase.snapshot_every,
                      "seed": self.erase.seed},
            "metrics": {"threshold": self.threshold,
                        "eval_gamma": self.eval_gamma,
                        "n_samples": self.n_samples,
                        "consistency_seeds": list(self.consistency_seeds)},
        }


def _default_instructions(sampler_T: int) -> tuple:
    t_high = int(0.35 * sampler_T)
    return (gd.InstructionConcept(0, -7.5, t_high, sampler_T, 0.95),
            gd.InstructionConcept(1, 6.5, t_high, sampler_T, 0.95))


def _default_erase(sampler_T: int = 35) -> er.EraseConfig:
    return er.EraseConfig(erase_set=(0,),
                          instructions=_default_instructions(sampler_T),
                          sampler_T=sampler_T,
                          warmup=gd.WarmupRule(5, "literal"))


# Range rules checked as a value is parsed: (section, key) -> (rule, test).
_AT_LEAST_ONE = (">= 1", lambda x: x >= 1)
_POSITIVE_FINITE = ("finite and > 0", lambda x: math.isfinite(x) and x > 0)
_RANGE_CHECKS = {
    ("base", "steps"): _AT_LEAST_ONE,
    ("base", "batch_size"): _AT_LEAST_ONE,
    ("base", "lr"): _POSITIVE_FINITE,
    ("base", "p_uncond"): ("in [0, 1]", lambda x: 0.0 <= x <= 1.0),
    ("erase", "lr"): _POSITIVE_FINITE,
    ("erase", "weight_decay"): ("finite and >= 0",
                                lambda x: math.isfinite(x) and x >= 0),
}


def _check_range(section: str, key: str, value):
    rule = _RANGE_CHECKS.get((section, key))
    if rule is not None and not rule[1](value):
        raise ConfigError(f"[{section}] {key}: must be {rule[0]}, got {value}")
    return value


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not an integer: {raw!r}") from exc
    return _check_range(section, key, value)


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc
    return _check_range(section, key, value)


def _parse_window_edge(section: str, key: str, raw: str, sampler_T: int) -> int:
    """Literal sampler index when written as an integer; a fraction of the
    sampler length (floor) when written with a decimal point."""
    raw = raw.strip()
    if "." in raw:
        frac = _parse_float(section, key, raw)
        if not 0.0 < frac <= 1.0:
            raise ConfigError(f"[{section}] {key}: fraction must lie in "
                              f"(0, 1], got {raw}")
        return int(frac * sampler_T)
    value = _parse_int(section, key, raw)
    if not 1 <= value <= sampler_T:
        raise ConfigError(f"[{section}] {key}: index {value} outside "
                          f"1..{sampler_T}")
    return value


def _resolve_concept(section: str, key: str, name: str,
                     vocab: tw.ConceptVocab) -> int:
    try:
        return vocab.id_of(name.strip())
    except ConfigError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def load_config(path) -> RunConfig:
    """Parse and fully resolve a run configuration file.

    Missing keys take defaults; unknown sections or keys are errors named
    by their location. Instruction windows accept either literal sampler
    indices or fractions of the sampler length (decimal point required).
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError:
        raise
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    instruction_sections = []
    for section in parser.sections():
        if section.startswith("instruction"):
            unknown = set(parser[section]) - _INSTRUCTION_KEYS
            if unknown:
                raise ConfigError(f"[{section}] {sorted(unknown)[0]}: unknown key")
            instruction_sections.append(section)
        elif section in _SECTION_KEYS:
            unknown = set(parser[section]) - _SECTION_KEYS[section]
            if unknown:
                raise ConfigError(f"[{section}] {sorted(unknown)[0]}: unknown key")
        else:
            raise ConfigError(f"[{section}]: unknown section")

    def get(section, key, default):
        if parser.has_section(section) and key in parser[section]:
            return parser[section][key]
        return default

    mode = get("run", "mode", "points2d")
    if mode not in MODES:
        raise ConfigError(f"[run] mode: unknown mode {mode!r}")
    vocab, _ = (tw.default_points_vocab() if mode == "points2d"
                else tw.default_glyph_vocab())

    t_train = _parse_int("schedule", "t_train", get("schedule", "t_train", "100"))
    sampler_T = _parse_int("sampler", "t_sample", get("sampler", "t_sample", "35"))

    instructions = []
    for section in instruction_sections:
        sec = parser[section]
        if "name" not in sec:
            raise ConfigError(f"[{section}] name: required")
        cid = _resolve_concept(section, "name", sec["name"], vocab)
        instructions.append(gd.InstructionConcept(
            concept_id=cid,
            g_c=_parse_float(section, "g", sec.get("g", "-7.5")),
            t_high=_parse_window_edge(section, "t_high",
                                      sec.get("t_high", "0.35"), sampler_T),
            t_low=_parse_window_edge(section, "t_low",
                                     sec.get("t_low", "1.0"), sampler_T),
            kappa=_parse_float(section, "kappa", sec.get("kappa", "0.95"))))
    if not instruction_sections:
        instructions = list(_default_instructions(sampler_T))

    erase_names = get("erase", "concepts", None)
    if erase_names is None:
        erase_set = (0,)
    else:
        erase_set = tuple(_resolve_concept("erase", "concepts", n, vocab)
                          for n in erase_names.split(","))

    trainable_raw = get("erase", "trainable", "all").strip()
    trainable = None if trainable_raw == "all" \
        else tuple(t.strip() for t in trainable_raw.split(","))

    replacement_raw = get("erase", "replacement", None)
    replacement_id = None if replacement_raw is None \
        else _resolve_concept("erase", "replacement", replacement_raw, vocab)

    warmup = gd.WarmupRule(
        t_warmup=_parse_int("erase", "t_warmup", get("erase", "t_warmup", "5")),
        style=get("erase", "warmup_style", "literal"),
        sampler_T=sampler_T if get("erase", "warmup_style", "literal") == "sega"
        else None)

    try:
        erase = er.EraseConfig(
            erase_set=erase_set,
            instructions=tuple(instructions),
            replacement_mode=get("erase", "replacement_mode", "delta"),
            replacement_id=replacement_id,
            gamma1=_parse_float("erase", "gamma1", get("erase", "gamma1", "7.5")),
            gamma2=_parse_float("erase", "gamma2", get("erase", "gamma2", "7.5")),
            lam=_parse_float("erase", "lambda", get("erase", "lambda", "5")),
            n_iters=_parse_int("erase", "n_iters", get("erase", "n_iters", "200")),
            sampler_T=sampler_T,
            warmup=warmup,
            loss_kind=get("erase", "loss_kind", "ours"),
            trainable=trainable,
            lr=_parse_float("erase", "lr", get("erase", "lr", "2e-3")),
            weight_decay=_parse_float("erase", "weight_decay",
                                      get("erase", "weight_decay", "0")),
            snapshot_every=_parse_int("erase", "snapshot_every",
                                      get("erase", "snapshot_every", "10")),
            seed=_parse_int("erase", "seed", get("erase", "seed", "0")))
        erase.validate_ids(vocab)
    except ConfigError as exc:
        if str(exc).startswith("["):
            raise
        raise ConfigError(f"[erase]: {exc}") from exc

    hidden_raw = get("base", "hidden", None)
    base_hidden = None if hidden_raw is None \
        else tuple(_parse_int("base", "hidden", h) for h in hidden_raw.split(","))

    seeds_raw = get("metrics", "consistency_seeds", None)
    consistency_seeds = tuple(range(16)) if seeds_raw is None \
        else tuple(_parse_int("metrics", "consistency_seeds", s)
                   for s in seeds_raw.split(","))

    try:
        return RunConfig(
            mode=mode,
            seed=_parse_int("run", "seed", get("run", "seed", "0")),
            t_train=t_train,
            beta_start=_parse_float("schedule", "beta_start",
                                    get("schedule", "beta_start", "1e-4")),
            beta_end=_parse_float("schedule", "beta_end",
                                  get("schedule", "beta_end", "0.04")),
            sampler_T=sampler_T,
            base_steps=_parse_int("base", "steps", get("base", "steps", "8000")),
            base_lr=_parse_float("base", "lr", get("base", "lr", "1e-3")),
            base_batch=_parse_int("base", "batch_size",
                                  get("base", "batch_size", "64")),
            base_p_uncond=_parse_float("base", "p_uncond",
                                       get("base", "p_uncond", "0.1")),
            base_seed=_parse_int("base", "seed", get("base", "seed", "1")),
            base_hidden=base_hidden,
            erase=erase,
            threshold=_parse_float("metrics", "threshold",
                                   get("metrics", "threshold", "0.7")),
            eval_gamma=_parse_float("metrics", "eval_gamma",
                                    get("metrics", "eval_gamma", "7.5")),
            n_samples=_parse_int("metrics", "n_samples",
                                 get("metrics", "n_samples", "1000")),
            consistency_seeds=consistency_seeds)
    except ConfigError as exc:
        if str(exc).startswith("["):
            raise
        raise ConfigError(f"{path}: {exc}") from exc
