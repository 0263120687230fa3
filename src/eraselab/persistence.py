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
text file. One table, _ROWS (and _INSTRUCTION_ROWS), gives each key its
field, parser, default and range rule; it drives parsing, the rejection of
unknown names, validation and snapshot_dict.
"""

from __future__ import annotations

import configparser
import contextlib
import json
import math
import operator
import os
import struct
import time
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diffusion as df
from . import erasure as er
from . import guidance as gd
from . import nnet
from . import toyworld as tw
from .errors import (ConfigError, CorruptionError, FormatError,
                     StructuralError, UnsupportedVersionError)

MAGIC = b"SSRG"
VERSION = 1
_FIXED = "<4sHI"


def _utc_stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@contextlib.contextmanager
def _atomic_open(path, mode: str, newline=None):
    """Write through a temp file in path's directory; when the block ends
    without error, fsync the file and move it over path, else delete it."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path, payload) -> None:
    """Indented, key-sorted JSON plus a newline, written atomically."""
    with _atomic_open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_checkpoint(params: nnet.Parameters, meta: dict, path) -> None:
    """Serialize parameters plus caller metadata atomically: the file is
    written and fsynced under a temp name, then moved over path."""
    layout = nnet.tensor_layout(params.shape, params.n_concepts)
    manifest = [{"name": name, "shape": list(shape), "offset": 8 * offset}
                for name, shape, offset
                in zip(layout.names, layout.shapes, layout.offsets)]
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
    with _atomic_open(path, "wb") as fh:
        fh.write(struct.pack(_FIXED, MAGIC, VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(np.ascontiguousarray(params.flat, dtype="<f8").data)


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
    # the length is checked against the file before a buffer of it is made
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < header_len:
        raise CorruptionError(f"{path}: header truncated "
                              f"({left} of {header_len} bytes)")
    raw = fh.read(header_len)
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError: undecodable bytes, bad JSON or an over-long integer;
        # RecursionError: nesting deeper than the parser's stack
        raise FormatError(f"{path}: header is not valid JSON: {exc}") from exc


def read_checkpoint_header(path) -> dict:
    """Parse magic, version and the JSON header, and check the header as
    read_checkpoint does; the payload is not read."""
    with open(path, "rb") as fh:
        return _checked_header(fh, path)[0]


def _count(value, least: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"expected an integer >= {least}, got {value!r}")
    return value


def _checked_header(fh, path):
    """The header, the NetworkShape and concept count it declares, and that
    model's nnet.TensorLayout. The manifest must list exactly the layout's
    tensors at consecutive offsets."""
    header = _read_header(fh, path)
    try:
        model = header["model"]
        header["meta"] = dict(header["meta"])
        shape = nnet.NetworkShape(
            input_dim=_count(model["input_dim"]),
            hidden=tuple(_count(h) for h in model["hidden"]),
            time_embed_dim=_count(model["time_embed_dim"]),
            concept_embed_dim=_count(model["concept_embed_dim"]))
        n_concepts = _count(model["n_concepts"], least=0)
        manifest = [(entry["name"], tuple(entry["shape"]), entry["offset"])
                    for entry in header["tensors"]]
    except (KeyError, TypeError, ValueError, StructuralError) as exc:
        raise FormatError(f"{path}: malformed header: {exc!r}") from exc
    layout = nnet.tensor_layout(shape, n_concepts)
    listed = [name for name, _, _ in manifest]
    if listed != list(layout.names):
        raise FormatError(f"{path}: manifest lists tensors {listed}, the "
                          f"declared model needs {list(layout.names)}")
    for (name, shape_listed, at), want, offset in zip(manifest, layout.shapes,
                                                      layout.offsets):
        if (at, shape_listed) != (8 * offset, want):
            raise FormatError(f"{path}: tensor {name} at offset {at} with shape "
                              f"{list(shape_listed)}, expected {8 * offset} "
                              f"and {list(want)}")
    return header, shape, n_concepts, layout


def read_checkpoint(path) -> tuple[nnet.Parameters, dict]:
    """Reconstruct Parameters bit-exactly; returns (params, caller meta).

    The tensor shapes follow from the declared model; the manifest must
    list exactly those tensors at consecutive offsets, and the payload must
    hold exactly their bytes, before anything is allocated. The payload is
    then read straight into the model's flat vector.
    """
    with open(path, "rb") as fh:
        header, shape, n_concepts, layout = _checked_header(fh, path)
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        for name, lo, hi in zip(layout.names, layout.offsets, layout.offsets[1:]):
            if size < 8 * hi:
                raise CorruptionError(f"{path}: payload truncated in tensor {name} "
                                      f"({max(size - 8 * lo, 0)} of {8 * (hi - lo)} bytes)")
        if size > 8 * layout.size:
            raise FormatError(f"{path}: {size - 8 * layout.size} payload bytes "
                              f"after the last tensor")
        flat = np.empty(layout.size, dtype="<f8")
        if fh.readinto(memoryview(flat).cast("B")) != flat.nbytes:
            raise CorruptionError(f"{path}: payload shrank while it was read")
    finite = np.isfinite(flat)
    if not finite.all():
        raise FormatError(f"{path}: tensor {layout.name_at(int(np.argmin(finite)))} "
                          f"holds non-finite values")
    return nnet.Parameters(shape, n_concepts, flat.astype(np.float64, copy=False)), \
        header["meta"]


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

_WORLDS = {"points2d": tw.default_points_vocab, "glyphs16": tw.default_glyph_vocab}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved experiment configuration; load_config builds it."""

    mode: str
    seed: int
    t_train: int
    beta_start: float
    beta_end: float
    sampler_T: int
    base_steps: int
    base_lr: float
    base_batch: int
    base_p_uncond: float
    base_seed: int
    base_hidden: Optional[tuple]
    erase: er.EraseConfig
    threshold: float
    eval_gamma: float
    n_samples: int
    consistency_seeds: tuple

    def vocab_and_spec(self):
        return _WORLDS[self.mode]()

    def input_dim(self) -> int:
        return tw.MODE_DIMS[self.mode]

    def network_shape(self) -> nnet.NetworkShape:
        if self.base_hidden is not None:
            return nnet.NetworkShape(input_dim=self.input_dim(),
                                     hidden=self.base_hidden)
        if self.mode == "points2d":
            return nnet.NetworkShape(input_dim=2)
        return nnet.NetworkShape(input_dim=256, hidden=(1024,))

    def schedule(self):
        return df.make_linear_schedule(self.t_train, self.beta_start,
                                       self.beta_end)

    def sampler(self):
        return df.SamplerConfig.uniform(self.sampler_T, self.t_train)

    def snapshot_dict(self) -> dict:
        """Every resolved value under its section and key, for the manifest."""
        snap = {}
        for row in _ROWS:
            snap.setdefault(row.section, {}).update(_snapshot([row], self))
        snap["erase"]["instructions"] = [_snapshot(_INSTRUCTION_ROWS, ins)
                                         for ins in self.erase.instructions]
        return snap


def _number(kind, noun: str):
    def parse(raw, env=None):
        try:
            return kind(raw)
        except ValueError as exc:
            raise ConfigError(f"not {noun}: {raw!r}") from exc
    return parse


def _listed(item):
    return lambda raw, env: tuple(item(part, env) for part in raw.split(","))


def _concept(raw, env) -> int:
    return _WORLDS[env["mode"]]()[0].id_of(raw.strip())


def _tensors(raw, env) -> Optional[tuple]:
    return None if raw.strip() == "all" else tuple(n.strip() for n in raw.split(","))


def _window_edge(raw, env) -> int:
    """A literal sampler index when written as an integer; a fraction of
    the sampler length (floored) when written with a decimal point."""
    sampler_T = env["sampler_T"]
    if "." in raw:
        frac = _float(raw)
        if not 0.0 < frac <= 1.0:
            raise ConfigError(f"fraction must lie in (0, 1], got {raw}")
        return int(frac * sampler_T)
    value = _int(raw)
    if not 1 <= value <= sampler_T:
        raise ConfigError(f"index {value} outside 1..{sampler_T}")
    return value


_int, _float = _number(int, "an integer"), _number(float, "a number")
_ints, _concepts = _listed(_int), _listed(_concept)

# Range rules (text, test) for the values that no constructor checks.
_AT_LEAST_ONE = (">= 1", lambda x: x >= 1)
_NON_NEGATIVE = (">= 0", lambda x: x >= 0)
_FINITE = ("finite", math.isfinite)
_FINITE_POSITIVE = ("finite and > 0", lambda x: math.isfinite(x) and x > 0)
_UNIT = ("in [0, 1]", lambda x: 0.0 <= x <= 1.0)

_Row = namedtuple("_Row", "section key field parser default check")

# The schema. `field` is the path from RunConfig, `parser(text, values so far)`
# (None keeps the text), a string default is parsed like file text, and a row
# without a rule is checked by the constructor that load_config builds from it.
_ROWS = tuple(_Row(*row) for row in (
    ("run", "mode", "mode", None, "points2d",
     ("points2d or glyphs16", _WORLDS.__contains__)),
    ("run", "seed", "seed", _int, 0, _NON_NEGATIVE),
    ("schedule", "t_train", "t_train", _int, 100, None),
    ("schedule", "beta_start", "beta_start", _float, 1e-4, None),
    ("schedule", "beta_end", "beta_end", _float, 0.04, None),
    ("sampler", "t_sample", "sampler_T", _int, 35, None),
    ("base", "steps", "base_steps", _int, 8000, _AT_LEAST_ONE),
    ("base", "lr", "base_lr", _float, 1e-3, _FINITE_POSITIVE),
    ("base", "batch_size", "base_batch", _int, 64, _AT_LEAST_ONE),
    ("base", "p_uncond", "base_p_uncond", _float, 0.1, _UNIT),
    ("base", "seed", "base_seed", _int, 1, _NON_NEGATIVE),
    ("base", "hidden", "base_hidden", _ints, None, None),
    ("erase", "concepts", "erase.erase_set", _concepts, (0,), None),
    ("erase", "gamma1", "erase.gamma1", _float, 7.5, _FINITE),
    ("erase", "gamma2", "erase.gamma2", _float, 7.5, _FINITE),
    ("erase", "lambda", "erase.lam", _float, 5.0, None),
    ("erase", "n_iters", "erase.n_iters", _int, 200, None),
    ("erase", "lr", "erase.lr", _float, 2e-3, _FINITE_POSITIVE),
    ("erase", "weight_decay", "erase.weight_decay", _float, 0.0,
     ("finite and >= 0", lambda x: math.isfinite(x) and x >= 0)),
    ("erase", "loss_kind", "erase.loss_kind", None, "ours", None),
    ("erase", "trainable", "erase.trainable", _tensors, None, None),
    ("erase", "snapshot_every", "erase.snapshot_every", _int, 10, _AT_LEAST_ONE),
    ("erase", "seed", "erase.seed", _int, 0, _NON_NEGATIVE),
    ("erase", "t_warmup", "erase.warmup.t_warmup", _int, 5, None),
    ("erase", "warmup_style", "erase.warmup.style", None, "literal", None),
    ("erase", "replacement_mode", "erase.replacement_mode", None, "delta", None),
    ("erase", "replacement", "erase.replacement_id", _concept, None, None),
    ("metrics", "threshold", "threshold", _float, 0.7, _UNIT),
    ("metrics", "eval_gamma", "eval_gamma", _float, 7.5, _FINITE),
    ("metrics", "n_samples", "n_samples", _int, 1000, _AT_LEAST_ONE),
    ("metrics", "consistency_seeds", "consistency_seeds", _ints,
     tuple(range(16)), _NON_NEGATIVE),
))

# Each [instruction.*] section, by InstructionConcept field. With no such
# section, concept 0 is pushed away (the default g), concept 1 pulled toward.
_INSTRUCTION_ROWS = tuple(_Row("instruction", *row) for row in (
    ("name", "concept_id", _concept, None, ("set", lambda x: x is not None)),
    ("g", "g_c", _float, -7.5, None),
    ("t_high", "t_high", _window_edge, "0.35", None),
    ("t_low", "t_low", _window_edge, "1.0", None),
    ("kappa", "kappa", _float, 0.95, None),
))
_DEFAULT_INSTRUCTIONS = (("default", {"name": 0}), ("default", {"name": 1, "g": 6.5}))


def _snapshot(rows, obj) -> dict:
    """Values by key; a key naming concepts holds the ids, under its field."""
    snap = {}
    for row in rows:
        value = operator.attrgetter(row.field)(obj)
        key = row.field.split(".")[-1] if row.parser in (_concept, _concepts) \
            else row.key
        snap[key] = list(value) if isinstance(value, tuple) else value
    return snap


def _value(section: str, row: _Row, raw, env: dict):
    """Parse and range-check one value; errors are named [section] key."""
    try:
        value = row.parser(raw, env) if row.parser and isinstance(raw, str) else raw
        items = value if isinstance(value, tuple) else (value,)
        if row.check and not all(map(row.check[1], items)):
            raise ConfigError(f"must be {row.check[0]}, got {value}")
    except ConfigError as exc:
        raise ConfigError(f"[{section}] {row.key}: {exc}") from exc
    return value


def _built(keys: list, given: set, build, *args, **kwargs):
    """Construct an object from config values. When its constructor rejects
    them, the error names those of its keys that the file sets."""
    try:
        return build(*args, **kwargs)
    except (ConfigError, StructuralError) as exc:
        named = [key for key in keys if key in given] or keys
        raise ConfigError(", ".join(f"[{s}] {k}" for s, k in named)
                          + f": {exc}") from exc


def _keys(*fields) -> list:
    """The (section, key) of each row whose field starts with one of `fields`."""
    return [(row.section, row.key) for row in _ROWS if row.field.startswith(fields)]


def load_config(path) -> RunConfig:
    """Parse and resolve a run configuration file against _ROWS.

    Missing keys take the row defaults; unknown names, and values that a
    range rule or a constructor rejects, are errors named by [section] key.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    given, instruction_sections, kw = set(), [], {"": {}}
    for section in parser.sections():
        rows = _INSTRUCTION_ROWS if section.startswith("instruction") \
            else [row for row in _ROWS if row.section == section]
        if not rows:
            raise ConfigError(f"[{section}]: unknown section")
        unknown = sorted(set(parser[section]) - {row.key for row in rows})
        if unknown:
            raise ConfigError(f"[{section}] {unknown[0]}: unknown key")
        given.update((section, key) for key in parser[section])
        if rows is _INSTRUCTION_ROWS:
            instruction_sections.append((section, parser[section]))

    for row in _ROWS:   # field "x.y.z" goes to kw["x.y"]["z"]; kw[""] is RunConfig's
        owner, _, name = row.field.rpartition(".")
        raw = parser.get(row.section, row.key, fallback=row.default)
        kw.setdefault(owner, {})[name] = _value(row.section, row, raw, kw[""])
    run = kw[""]
    _built(_keys("t_train", "beta_"), given, df.make_linear_schedule,
           run["t_train"], run["beta_start"], run["beta_end"])
    _built(_keys("sampler_T", "t_train"), given, df.SamplerConfig.uniform,
           run["sampler_T"], run["t_train"])

    instructions = []
    for section, sec in instruction_sections or _DEFAULT_INSTRUCTIONS:
        fields = {row.field: _value(section, row, sec.get(row.key, row.default),
                                    run) for row in _INSTRUCTION_ROWS}
        instructions.append(_built([(section, key) for key in sec if key != "name"],
                                   given, gd.InstructionConcept, **fields))
    warmup = _built(_keys("erase.warmup.", "sampler_T"), given, gd.WarmupRule,
                    sampler_T=run["sampler_T"], **kw["erase.warmup"])
    cfg = RunConfig(erase=_built(
        _keys("erase."), given, er.EraseConfig, instructions=tuple(instructions),
        sampler_T=run["sampler_T"], warmup=warmup, **kw["erase"]), **run)
    _built(_keys("base_hidden"), given, cfg.network_shape)
    return cfg
