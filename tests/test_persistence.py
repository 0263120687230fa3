"""Checkpoint byte format and run-configuration parsing."""

import csv
import hashlib
import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from eraselab import nnet, persistence, report
from eraselab import toyworld as tw
from eraselab.errors import (ConfigError, CorruptionError, FormatError,
                             UnsupportedVersionError)

FIXED_LEN = struct.calcsize("<4sHI")


def small_params(seed=3):
    shape = nnet.NetworkShape(input_dim=2, hidden=(6, 5), time_embed_dim=4,
                              concept_embed_dim=4)
    return nnet.init_params(shape, n_concepts=3, seed=seed)


def repack(src, dst, mutate_header=None, version=None, header=None,
           mutate_payload=None):
    # Rewrites a checkpoint with an edited or replaced header, version stamp
    # or payload so format validation can be exercised without
    # hand-assembling whole files.
    raw = src.read_bytes()
    magic, ver, hlen = struct.unpack_from("<4sHI", raw)
    payload = raw[FIXED_LEN + hlen:]
    if header is None:
        header = json.loads(raw[FIXED_LEN:FIXED_LEN + hlen])
    if mutate_header is not None:
        mutate_header(header)
    if mutate_payload is not None:
        payload = mutate_payload(payload)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    dst.write_bytes(struct.pack("<4sHI", magic,
                                ver if version is None else version,
                                len(blob)) + blob + payload)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = small_params()
        meta = {"stage": "base", "seeds": [1, 2], "schedule": {"t_train": 100}}
        path = tmp_path / "model.ssrg"
        persistence.write_checkpoint(params, meta, path)
        loaded, got_meta = persistence.read_checkpoint(path)
        assert got_meta == meta
        assert loaded.shape == params.shape
        assert loaded.n_concepts == params.n_concepts
        for name in params.tensor_names():
            assert_array_equal(loaded.get_tensor(name), params.get_tensor(name))

    @pytest.mark.parametrize("shape,sha256", [
        (nnet.NetworkShape(input_dim=2),
         "bfc4d5cd53a6eeaa9a868697dd013448991727e46a62b154091c57259c13a9c1"),
        (nnet.NetworkShape(input_dim=256, hidden=(1024,)),
         "feda6fca88a3b23ef9b340dea515500940eb3afa8d61684a807a409143385b4b"),
    ], ids=["points", "glyphs"])
    def test_payload_bytes_golden(self, tmp_path, shape, sha256):
        """The payload of a seeded model, pinned: the tensors in manifest
        order as little-endian f64."""
        path = tmp_path / "model.ssrg"
        persistence.write_checkpoint(nnet.init_params(shape, 4, seed=0), {}, path)
        raw = path.read_bytes()
        _, _, hlen = struct.unpack_from("<4sHI", raw)
        assert hashlib.sha256(raw[FIXED_LEN + hlen:]).hexdigest() == sha256

    def test_header_parseable_without_payload(self, tmp_path):
        path = tmp_path / "model.ssrg"
        persistence.write_checkpoint(small_params(), {"k": 1}, path)
        raw = path.read_bytes()
        _, _, hlen = struct.unpack_from("<4sHI", raw)
        clipped = tmp_path / "header_only.ssrg"
        clipped.write_bytes(raw[:FIXED_LEN + hlen])
        header = persistence.read_checkpoint_header(clipped)
        assert header["meta"] == {"k": 1}
        assert [t["name"] for t in header["tensors"]] == \
            small_params().tensor_names()

    def test_manifest_offsets_cover_payload_exactly(self, tmp_path):
        params = small_params()
        path = tmp_path / "model.ssrg"
        persistence.write_checkpoint(params, {}, path)
        raw = path.read_bytes()
        _, _, hlen = struct.unpack_from("<4sHI", raw)
        header = persistence.read_checkpoint_header(path)
        offsets = [t["offset"] for t in header["tensors"]]
        assert offsets == sorted(offsets) and len(set(offsets)) == len(offsets)
        total = sum(8 * int(np.prod(t["shape"])) for t in header["tensors"])
        assert len(raw) == FIXED_LEN + hlen + total

    def test_rewrites_differ_only_in_timestamp(self, tmp_path):
        params = small_params()
        a, b = tmp_path / "a.ssrg", tmp_path / "b.ssrg"
        persistence.write_checkpoint(params, {"same": True}, a)
        persistence.write_checkpoint(params, {"same": True}, b)
        stamp_a = persistence.read_checkpoint_header(a)["created_utc"]
        stamp_b = persistence.read_checkpoint_header(b)["created_utc"]
        assert len(stamp_a) == len(stamp_b) == 20
        raw_a = a.read_bytes().replace(stamp_a.encode(), b"X" * 20)
        raw_b = b.read_bytes().replace(stamp_b.encode(), b"X" * 20)
        assert raw_a == raw_b

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ssrg"
        persistence.write_checkpoint(small_params(), {}, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        bad = tmp_path / "bad.ssrg"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            persistence.read_checkpoint(bad)

    def test_newer_version_rejected(self, tmp_path):
        path = tmp_path / "model.ssrg"
        persistence.write_checkpoint(small_params(), {}, path)
        ahead = tmp_path / "ahead.ssrg"
        repack(path, ahead, version=persistence.VERSION + 1)
        with pytest.raises(UnsupportedVersionError, match="newer"):
            persistence.read_checkpoint(ahead)

    def test_truncated_payload_names_tensor(self, tmp_path):
        path = tmp_path / "model.ssrg"
        persistence.write_checkpoint(small_params(), {}, path)
        raw = path.read_bytes()
        clipped = tmp_path / "clipped.ssrg"
        clipped.write_bytes(raw[:-8])
        with pytest.raises(CorruptionError, match="embed"):
            persistence.read_checkpoint(clipped)

    def test_manifest_missing_tensor_rejected(self, tmp_path):
        path = tmp_path / "model.ssrg"
        persistence.write_checkpoint(small_params(), {}, path)
        short = tmp_path / "short.ssrg"
        repack(path, short, mutate_header=lambda h: h["tensors"].pop())
        with pytest.raises(FormatError, match="embed"):
            persistence.read_checkpoint(short)

    @pytest.mark.parametrize("edit", [
        {"mutate_header": lambda h: h.pop("model")},
        {"mutate_header": lambda h: h.pop("tensors")},
        {"mutate_header": lambda h: h.pop("meta")},
        {"header": ["model", "tensors", "meta"]},
        {"mutate_header": lambda h: h["model"].update(hidden="abc")},
        {"mutate_header": lambda h: h["tensors"][0].update(shape="ab")},
        {"mutate_payload": lambda p: p + bytes(8)},
        {"mutate_payload": lambda p: struct.pack("<d", float("nan")) + p[8:]},
    ], ids=["no-model", "no-tensors", "no-meta", "list-header",
            "hidden-text", "shape-text", "trailing-bytes", "nan-weight"])
    def test_malformed_checkpoint_is_format_error(self, tmp_path, edit):
        path = tmp_path / "model.ssrg"
        persistence.write_checkpoint(small_params(), {}, path)
        bad = tmp_path / "bad.ssrg"
        repack(path, bad, **edit)
        with pytest.raises(FormatError, match="bad.ssrg"):
            persistence.read_checkpoint(bad)

    def test_reader_does_not_draw_a_model(self, tmp_path, monkeypatch):
        params = small_params()
        path = tmp_path / "model.ssrg"
        persistence.write_checkpoint(params, {}, path)

        def no_draw(*args, **kwargs):
            raise AssertionError("read_checkpoint called init_params")

        monkeypatch.setattr(nnet, "init_params", no_draw)
        loaded, _ = persistence.read_checkpoint(path)
        for name in params.tensor_names():
            assert_array_equal(loaded.get_tensor(name), params.get_tensor(name))

    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ssrg"
        persistence.write_checkpoint(small_params(seed=3), {"v": 1}, path)
        before = path.read_bytes()

        class FailingPayload:
            # passes the fixed header and the JSON header, fails on the payload
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def write(self, data):
                self.writes += 1
                if self.writes > 2:
                    raise OSError("disk full")
                return self.fh.write(data)

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(persistence, "open",
                            lambda *a, **k: FailingPayload(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            persistence.write_checkpoint(small_params(seed=4), {"v": 2}, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ssrg"]

    def test_failed_json_write_keeps_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "metrics.json"
        persistence.write_json(path, {"a": 1})
        def partial_dump(obj, fh, **kwargs):
            fh.write('{"a": ')
            raise OSError("disk full")

        monkeypatch.setattr(persistence.json, "dump", partial_dump)
        with pytest.raises(OSError, match="disk full"):
            persistence.write_json(path, {"a": 2})
        monkeypatch.undo()
        assert json.loads(path.read_text()) == {"a": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]

    @pytest.mark.parametrize("writer", ["write_csv", "dataset_to_csv"])
    def test_failed_csv_write_keeps_earlier_file(self, tmp_path, monkeypatch,
                                                 writer):
        path = tmp_path / "table.csv"
        ds = tw.Dataset(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1],
                        mode="points2d", n_concepts=2)

        def write(fail):
            if writer == "dataset_to_csv":
                tw.dataset_to_csv(ds, path)
                return

            def rows():
                yield ("a", 1.0)
                if fail:
                    raise OSError("disk full")
                yield ("b", 2.0)

            report.write_csv(path, ("name", "value"), rows())

        write(fail=False)
        before = path.read_bytes()
        if writer == "dataset_to_csv":
            real = csv.writer

            class FailingWriter:
                def __init__(self, fh):
                    self.inner, self.rows = real(fh), 0

                def writerow(self, row):
                    if self.rows == 2:
                        raise OSError("disk full")
                    self.rows += 1
                    self.inner.writerow(row)

            monkeypatch.setattr(csv, "writer", FailingWriter)
        with pytest.raises(OSError, match="disk full"):
            write(fail=True)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    def test_nonexistent_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            persistence.read_checkpoint(tmp_path / "missing.ssrg")


# ---------------------------------------------------------------------------
# Seeded fuzzing of the checkpoint readers: whatever the bytes, both readers
# raise FormatError (CorruptionError is one) and nothing else, and neither
# allocates what a mutated header declares before checking it against the
# file.
# ---------------------------------------------------------------------------

_JSON_VALUES = [None, True, -1, 0, 1.5, float("nan"), 10 ** 12, 2 ** 63,
                10 ** 30, "x", [], {}, [1, 2], {"a": 1}, [[[[]]]]]


def _json_paths(value, trail=()):
    yield trail
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _json_paths(child, trail + (key,))


def _mutated_header(header, rng):
    """A deep copy of header with one value replaced or one key deleted."""
    header = json.loads(json.dumps(header))
    paths = list(_json_paths(header))
    trail = paths[rng.integers(len(paths))]
    value = _JSON_VALUES[rng.integers(len(_JSON_VALUES))]
    if not trail:
        return value
    parent = header
    for key in trail[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and rng.random() < 0.2:
        del parent[trail[-1]]
    else:
        parent[trail[-1]] = value
    return header


def _fuzzed_checkpoint(raw, header, rng, kind):
    hlen = struct.unpack_from("<I", raw, 6)[0]
    blob = bytearray(raw)
    if kind == "byte-flips":
        for _ in range(rng.integers(1, 4)):
            blob[rng.integers(len(blob))] ^= 1 << int(rng.integers(8))
    elif kind == "truncation":
        blob = blob[:rng.integers(len(blob))]
    elif kind == "header-length":
        lengths = [0, 1, hlen - 1, hlen + 1, hlen + 8, 2 ** 31, 2 ** 32 - 1,
                   int(rng.integers(0, 2 ** 32))]
        blob[6:10] = struct.pack("<I", lengths[rng.integers(len(lengths))])
    else:
        text = json.dumps(_mutated_header(header, rng), sort_keys=True).encode()
        blob = bytearray(raw[:6] + struct.pack("<I", len(text)) + text
                         + raw[FIXED_LEN + hlen:])
    return bytes(blob)


class TestCheckpointFuzz:
    KINDS = ("byte-flips", "truncation", "header-length", "header-json")

    @pytest.mark.parametrize("kind", KINDS)
    def test_only_format_errors_escape(self, tmp_path, kind):
        good = tmp_path / "good.ssrg"
        persistence.write_checkpoint(small_params(), {"stage": "base"}, good)
        raw = good.read_bytes()
        header = persistence.read_checkpoint_header(good)
        rng = np.random.default_rng(self.KINDS.index(kind))
        path = tmp_path / "fuzzed.ssrg"
        rejected = 0
        for _ in range(250):
            path.write_bytes(_fuzzed_checkpoint(raw, header, rng, kind))
            for reader in (persistence.read_checkpoint,
                           persistence.read_checkpoint_header):
                try:
                    reader(path)
                except FormatError:
                    rejected += 1
        assert rejected > 0

    @pytest.mark.parametrize("text", [b"[" * 100_000, b'{"a": ' + b"1" * 5000 + b"}"],
                             ids=["deep-nesting", "long-integer"])
    def test_header_json_beyond_the_parser(self, tmp_path, text):
        path = tmp_path / "deep.ssrg"
        path.write_bytes(struct.pack("<4sHI", b"SSRG", 1, len(text)) + text)
        for reader in (persistence.read_checkpoint,
                       persistence.read_checkpoint_header):
            with pytest.raises(FormatError, match="not valid JSON"):
                reader(path)

    def test_declared_sizes_checked_before_allocation(self, tmp_path):
        """A header length or model widths far beyond the file are rejected
        from the file's size, before any buffer of that size exists."""
        good = tmp_path / "good.ssrg"
        persistence.write_checkpoint(small_params(), {}, good)
        raw = good.read_bytes()
        long_header = tmp_path / "long_header.ssrg"
        long_header.write_bytes(raw[:6] + struct.pack("<I", 2 ** 32 - 1) + raw[10:])
        tracemalloc.start()
        try:
            with pytest.raises(CorruptionError, match="header truncated"):
                persistence.read_checkpoint(long_header)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

        def widen(header):
            header["model"]["hidden"] = [2 ** 62, 5]
            layout = nnet.tensor_layout(
                nnet.NetworkShape(2, (2 ** 62, 5), 4, 4), 3)
            header["tensors"] = [
                {"name": name, "shape": list(shape), "offset": 8 * offset}
                for name, shape, offset
                in zip(layout.names, layout.shapes, layout.offsets)]
        wide = tmp_path / "wide.ssrg"
        repack(good, wide, mutate_header=widen)
        # w0 alone declares 2**62 * 10 doubles, more than an int64 holds
        with pytest.raises(CorruptionError, match="payload truncated in tensor w0"):
            persistence.read_checkpoint(wide)


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_empty_file_resolves_to_full_defaults(self, tmp_path):
        cfg = persistence.load_config(write_config(tmp_path, ""))
        assert cfg.mode == "points2d"
        assert cfg.t_train == 100 and cfg.sampler_T == 35
        assert cfg.erase.gamma1 == 7.5 and cfg.erase.gamma2 == 7.5
        assert cfg.erase.lam == 5.0
        assert cfg.erase.n_iters == 200
        assert cfg.erase.warmup.t_warmup == 5
        assert cfg.erase.erase_set == (0,)
        ids = [i.concept_id for i in cfg.erase.instructions]
        gs = [i.g_c for i in cfg.erase.instructions]
        assert ids == [0, 1] and gs == [-7.5, 6.5]
        for ins in cfg.erase.instructions:
            assert (ins.t_high, ins.t_low, ins.kappa) == (12, 35, 0.95)

    def test_negative_lambda_rejected(self, tmp_path):
        path = write_config(tmp_path, "[erase]\nlambda = -1\n")
        with pytest.raises(ConfigError, match="lambda"):
            persistence.load_config(path)

    def test_fractional_window_resolves_by_floor(self, tmp_path):
        path = write_config(tmp_path,
                            "[instruction.a]\nname = c2\nt_high = 0.35\n"
                            "t_low = 1.0\n")
        cfg = persistence.load_config(path)
        ins = cfg.erase.instructions[0]
        assert (ins.concept_id, ins.t_high, ins.t_low) == (2, 12, 35)

    def test_integer_window_taken_literally(self, tmp_path):
        path = write_config(tmp_path,
                            "[instruction.a]\nname = c0\nt_high = 1\n"
                            "t_low = 35\n")
        ins = persistence.load_config(path).erase.instructions[0]
        assert (ins.t_high, ins.t_low) == (1, 35)

    def test_fraction_outside_unit_interval_rejected(self, tmp_path):
        path = write_config(tmp_path, "[instruction.a]\nname = c0\n"
                                      "t_high = 1.5\n")
        with pytest.raises(ConfigError, match=r"\[instruction.a\] t_high"):
            persistence.load_config(path)

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = write_config(tmp_path, "[erase]\ngamma3 = 1\n")
        with pytest.raises(ConfigError, match=r"\[erase\] gamma3"):
            persistence.load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[extras]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"\[extras\]"):
            persistence.load_config(path)

    def test_unknown_concept_name_rejected(self, tmp_path):
        path = write_config(tmp_path, "[erase]\nconcepts = c9\n")
        with pytest.raises(ConfigError, match="c9"):
            persistence.load_config(path)

    def test_glyph_mode_switches_vocab(self, tmp_path):
        path = write_config(tmp_path,
                            "[run]\nmode = glyphs16\n"
                            "[erase]\nconcepts = circle\n"
                            "[instruction.a]\nname = circle\n"
                            "[instruction.b]\nname = square\ng = 6.5\n")
        cfg = persistence.load_config(path)
        assert cfg.input_dim() == 256
        assert cfg.erase.erase_set == (0,)
        assert [i.concept_id for i in cfg.erase.instructions] == [0, 1]

    def test_erase_section_fields_parse(self, tmp_path):
        path = write_config(tmp_path,
                            "[erase]\nconcepts = c1,c2\ngamma1 = 3\n"
                            "gamma2 = 4\nlambda = 0\nn_iters = 7\n"
                            "loss_kind = esd\ntrainable = embed,w0\n"
                            "lr = 1e-2\nseed = 9\n")
        cfg = persistence.load_config(path)
        e = cfg.erase
        assert e.erase_set == (1, 2)
        assert (e.gamma1, e.gamma2, e.lam, e.n_iters) == (3.0, 4.0, 0.0, 7)
        assert e.loss_kind == "esd"
        assert e.trainable == ("embed", "w0")
        assert e.lr == 1e-2 and e.seed == 9

    def test_explicit_replacement_resolves_name(self, tmp_path):
        path = write_config(tmp_path,
                            "[erase]\nreplacement_mode = explicit\n"
                            "replacement = c2\n")
        cfg = persistence.load_config(path)
        assert cfg.erase.replacement_mode == "explicit"
        assert cfg.erase.replacement_id == 2

    def test_hyperparameter_range_edges_accepted(self, tmp_path):
        path = write_config(tmp_path, "[base]\nsteps = 1\nbatch_size = 1\n"
                            "p_uncond = 1\n[erase]\nweight_decay = 0\n")
        cfg = persistence.load_config(path)
        assert (cfg.base_steps, cfg.base_batch, cfg.base_p_uncond) == (1, 1, 1.0)
        assert cfg.erase.weight_decay == 0.0

    def test_non_numeric_value_rejected_with_path(self, tmp_path):
        path = write_config(tmp_path, "[metrics]\nthreshold = high\n")
        with pytest.raises(ConfigError, match=r"\[metrics\] threshold"):
            persistence.load_config(path)

    def test_snapshot_dict_is_json_serializable(self, tmp_path):
        cfg = persistence.load_config(write_config(tmp_path, ""))
        snap = json.loads(json.dumps(cfg.snapshot_dict()))
        assert snap["run"]["mode"] == "points2d"
        assert snap["erase"]["lambda"] == 5.0
        assert len(snap["erase"]["instructions"]) == 2

    def test_schedule_and_sampler_construct(self, tmp_path):
        cfg = persistence.load_config(write_config(tmp_path, ""))
        sched = cfg.schedule()
        sampler = cfg.sampler()
        assert sched.T_train == 100
        assert sampler.T == 35 and sampler.tau[-1] == 100

    def test_readme_example_config_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
        cfg = persistence.load_config(write_config(tmp_path, example))
        assert cfg.mode == "points2d" and cfg.base_hidden is None
        assert [i.g_c for i in cfg.erase.instructions] == [-7.5, 6.5]


EVERY_KEY_CONFIG = """\
[run]
mode = glyphs16
seed = 3
[schedule]
t_train = 120
beta_start = 2e-4
beta_end = 0.03
[sampler]
t_sample = 30
[base]
steps = 500
lr = 5e-4
batch_size = 32
p_uncond = 0.2
seed = 4
hidden = 64,32
[erase]
concepts = circle,square
gamma1 = 6
gamma2 = 5.5
lambda = 2.5
n_iters = 50
lr = 1e-3
weight_decay = 0.01
loss_kind = sdd
trainable = embed,w0
snapshot_every = 5
seed = 7
t_warmup = 3
warmup_style = sega
replacement_mode = explicit
replacement = triangle
[metrics]
threshold = 0.8
eval_gamma = 6
n_samples = 100
consistency_seeds = 0,2,4
[instruction.a]
name = cross
g = -5
t_high = 4
t_low = 0.9
kappa = 0.9
"""

# The manifest's config block, pinned as the loader resolved it before the
# config schema became one table.
DEFAULT_SNAPSHOT = {
    "run": {"mode": "points2d", "seed": 0},
    "schedule": {"t_train": 100, "beta_start": 0.0001, "beta_end": 0.04},
    "sampler": {"t_sample": 35},
    "base": {"steps": 8000, "lr": 0.001, "batch_size": 64, "p_uncond": 0.1,
             "seed": 1, "hidden": None},
    "erase": {"erase_set": [0],
              "instructions": [
                  {"concept_id": 0, "g": -7.5, "t_high": 12, "t_low": 35,
                   "kappa": 0.95},
                  {"concept_id": 1, "g": 6.5, "t_high": 12, "t_low": 35,
                   "kappa": 0.95}],
              "replacement_mode": "delta", "replacement_id": None,
              "gamma1": 7.5, "gamma2": 7.5, "lambda": 5.0, "n_iters": 200,
              "t_warmup": 5, "warmup_style": "literal", "loss_kind": "ours",
              "trainable": None, "lr": 0.002, "weight_decay": 0.0,
              "snapshot_every": 10, "seed": 0},
    "metrics": {"threshold": 0.7, "eval_gamma": 7.5, "n_samples": 1000,
                "consistency_seeds": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                      12, 13, 14, 15]},
}

EVERY_KEY_SNAPSHOT = {
    "run": {"mode": "glyphs16", "seed": 3},
    "schedule": {"t_train": 120, "beta_start": 0.0002, "beta_end": 0.03},
    "sampler": {"t_sample": 30},
    "base": {"steps": 500, "lr": 0.0005, "batch_size": 32, "p_uncond": 0.2,
             "seed": 4, "hidden": [64, 32]},
    "erase": {"erase_set": [0, 1],
              "instructions": [
                  {"concept_id": 2, "g": -5.0, "t_high": 4, "t_low": 27,
                   "kappa": 0.9}],
              "replacement_mode": "explicit", "replacement_id": 3,
              "gamma1": 6.0, "gamma2": 5.5, "lambda": 2.5, "n_iters": 50,
              "t_warmup": 3, "warmup_style": "sega", "loss_kind": "sdd",
              "trainable": ["embed", "w0"], "lr": 0.001,
              "weight_decay": 0.01, "snapshot_every": 5, "seed": 7},
    "metrics": {"threshold": 0.8, "eval_gamma": 6.0, "n_samples": 100,
                "consistency_seeds": [0, 2, 4]},
}


@pytest.mark.parametrize("text,expected", [
    ("", DEFAULT_SNAPSHOT),
    (EVERY_KEY_CONFIG, EVERY_KEY_SNAPSHOT),
], ids=["empty", "every-key"])
def test_snapshot_dict_golden(tmp_path, text, expected):
    snap = persistence.load_config(write_config(tmp_path, text)).snapshot_dict()
    assert json.loads(json.dumps(snap)) == expected
    assert all(type(snap["erase"][k]) is float
               for k in ("gamma1", "gamma2", "lambda", "lr", "weight_decay"))
