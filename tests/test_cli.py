"""End-to-end pipeline runs and exit-code mapping for the command line."""

import csv
import json

import numpy as np
import pytest

from eraselab import cli, nnet, persistence
from eraselab import diffusion as df
from eraselab import toyworld as tw
from eraselab.analysis import MetricReport

TINY_CONFIG = """\
[base]
steps = 300
[erase]
n_iters = 8
snapshot_every = 4
[metrics]
n_samples = 30
consistency_seeds = 0,1,2
"""

# Each command that writes --out: its run directory in the pipeline
# fixture and the keys of its manifest's seeds.
MANIFESTS = [
    ("gen-data", "data", {"dataset"}),
    ("train-base", "base", {"dataset", "train"}),
    ("erase", "erased", {"erase"}),
    ("sample", "sample", {"sample"}),
    ("invert", "invert", set()),
    ("eval", "eval", {"eval"}),
    ("sweep-lambda", "sweep", {"erase"}),
    ("verify-theory", "theory", {"probe"}),
    ("report", "report", set()),
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny end-to-end run shared by the assertions below."""
    root = tmp_path_factory.mktemp("pipeline")
    config = root / "run.ini"
    config.write_text(TINY_CONFIG)
    paths = {
        "root": root,
        "config": config,
        "data": root / "data",
        "base": root / "base",
        "erased": root / "erased",
        "eval": root / "eval",
        **{key: root / key for key in ("sample", "invert", "sweep", "theory",
                                       "report")},
    }
    assert cli.main(["gen-data", "--config", str(config),
                     "--out", str(paths["data"]), "--n", "20"]) == 0
    assert cli.main(["train-base", "--config", str(config),
                     "--data", str(paths["data"] / "dataset.csv"),
                     "--out", str(paths["base"])]) == 0
    assert cli.main(["erase", "--config", str(config),
                     "--base", str(paths["base"] / "base.ssrg"),
                     "--out", str(paths["erased"])]) == 0
    assert cli.main(["eval", "--config", str(config),
                     "--base", str(paths["base"] / "base.ssrg"),
                     "--model", str(paths["erased"] / "erased.ssrg"),
                     "--out", str(paths["eval"]),
                     "--n", "30", "--drift-n", "20",
                     "--timeline-n", "20"]) == 0
    assert cli.main(["sample", "--config", str(config),
                     "--model", str(paths["erased"] / "erased.ssrg"),
                     "--concept", "c1", "--n", "4",
                     "--out", str(paths["sample"])]) == 0
    assert cli.main(["invert", "--config", str(config),
                     "--model", str(paths["base"] / "base.ssrg"),
                     "--data", str(paths["sample"] / "samples.csv"),
                     "--out", str(paths["invert"])]) == 0
    assert cli.main(["sweep-lambda", "--config", str(config),
                     "--base", str(paths["base"] / "base.ssrg"),
                     "--values", "5", "--n", "10",
                     "--out", str(paths["sweep"])]) == 0
    assert cli.main(["verify-theory", "--config", str(config),
                     "--out", str(paths["theory"])]) == 0
    assert cli.main(["report", "--runs", str(paths["eval"]),
                     "--out", str(paths["report"])]) == 0
    return paths


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestPipelineArtifacts:
    def test_run_dirs_carry_manifests(self, pipeline):
        for key in ("data", "base", "erased", "eval"):
            manifest = json.loads((pipeline[key] / "manifest.json").read_text())
            assert manifest["version"].startswith("eraselab-")
            assert manifest["config"]["run"]["mode"] == "points2d"
            assert "seeds" in manifest

    @pytest.mark.parametrize("command,key,seeds", MANIFESTS,
                             ids=[command for command, _, _ in MANIFESTS])
    def test_manifest_names_command_and_seeds(self, pipeline, command, key,
                                              seeds):
        manifest = json.loads((pipeline[key] / "manifest.json").read_text())
        assert manifest["command"] == command
        assert set(manifest["seeds"]) == seeds
        assert (manifest["config"] is None) == (command == "report")

    @pytest.mark.parametrize("argv", [
        ["eval", "--config", "c.ini", "--base", "b.ssrg", "--model", "m.ssrg",
         "--out", "o", "--seed", "1"],
        ["invert", "--config", "c.ini", "--model", "m.ssrg", "--data", "d.csv",
         "--out", "o", "--seed", "1"],
        ["sweep-lambda", "--config", "c.ini", "--base", "b.ssrg", "--out", "o",
         "--seed", "1"],
        ["verify-theory", "--config", "c.ini", "--out", "o", "--seed", "1"],
        ["report", "--runs", "r", "--out", "o", "--config", "c.ini"],
        ["report", "--runs", "r", "--out", "o", "--seed", "1"],
    ], ids=["eval-seed", "invert-seed", "sweep-lambda-seed",
            "verify-theory-seed", "report-config", "report-seed"])
    def test_flags_a_command_does_not_read_are_usage_errors(
            self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_dataset_csv_has_labeled_header(self, pipeline):
        rows = read_rows(pipeline["data"] / "dataset.csv")
        assert set(rows[0]) == {"label", "x0", "x1"}
        assert len(rows) == 20 * 8

    def test_erase_writes_loss_and_snapshots(self, pipeline):
        rows = read_rows(pipeline["erased"] / "loss.csv")
        assert len(rows) == 8
        assert [r["iteration"] for r in rows] == [str(i) for i in range(1, 9)]
        for row in rows:
            assert float(row["total"]) >= 0.0
        ckpts = sorted((pipeline["erased"] / "checkpoints").iterdir())
        assert [p.name for p in ckpts] == ["iter_0004.ssrg", "iter_0008.ssrg"]

    def test_eval_metrics_round_trip(self, pipeline):
        payload = json.loads((pipeline["eval"] / "metrics.json").read_text())
        assert payload["method"] == "ours"
        report = MetricReport.from_dict(payload["report"])
        assert set(report.erasure_rates) == {0}
        assert set(report.drift) == set(range(1, 8))
        assert payload["timeline"]["iterations"] == [4, 8]
        assert all(0.0 <= r <= 1.0 for r in payload["timeline"]["rates"])

    def test_eval_reruns_byte_identical(self, pipeline, tmp_path):
        assert cli.main(["eval", "--config", str(pipeline["config"]),
                         "--base", str(pipeline["base"] / "base.ssrg"),
                         "--model", str(pipeline["erased"] / "erased.ssrg"),
                         "--out", str(tmp_path), "--n", "30",
                         "--drift-n", "20", "--timeline-n", "20"]) == 0
        assert (tmp_path / "metrics.json").read_bytes() == \
            (pipeline["eval"] / "metrics.json").read_bytes()

    def test_sample_and_invert(self, pipeline, tmp_path):
        assert cli.main(["sample", "--config", str(pipeline["config"]),
                         "--model", str(pipeline["base"] / "base.ssrg"),
                         "--concept", "c3", "--n", "6",
                         "--out", str(tmp_path / "s")]) == 0
        rows = read_rows(tmp_path / "s" / "samples.csv")
        assert len(rows) == 6 and {r["label"] for r in rows} == {"3"}
        assert cli.main(["invert", "--config", str(pipeline["config"]),
                         "--model", str(pipeline["base"] / "base.ssrg"),
                         "--data", str(tmp_path / "s" / "samples.csv"),
                         "--out", str(tmp_path / "i")]) == 0
        recon = read_rows(tmp_path / "i" / "recon.csv")
        assert len(recon) == 6
        assert all(float(r["rel_l2"]) < 0.5 for r in recon)
        latents = read_rows(tmp_path / "i" / "inverted.csv")
        assert len(latents) == 6

    def test_report_from_eval_run(self, pipeline, tmp_path):
        assert cli.main(["report", "--runs", str(pipeline["eval"]),
                         "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "report.csv")
        assert len(rows) == 1 and rows[0]["method"] == "ours"
        for name in ("loss_vs_iteration.svg", "erasure_vs_iteration.svg",
                     "consistency_vs_lambda.svg"):
            text = (tmp_path / name).read_text()
            assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        assert "polyline" in (tmp_path / "erasure_vs_iteration.svg").read_text()

    def test_report_reruns_byte_identical(self, pipeline, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli.main(["report", "--runs", str(pipeline["eval"]),
                             "--out", str(out)]) == 0
        for name in ("report.csv", "erasure_vs_iteration.svg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_gen_data_deterministic(self, pipeline, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli.main(["gen-data", "--config", str(pipeline["config"]),
                             "--out", str(out), "--n", "5"]) == 0
        assert (out_a / "dataset.csv").read_bytes() == \
            (out_b / "dataset.csv").read_bytes()

    def test_verify_theory_passes_on_defaults(self, pipeline, tmp_path):
        assert cli.main(["verify-theory", "--config", str(pipeline["config"]),
                         "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "theory.csv")
        assert len(rows) >= 5
        assert {r["status"] for r in rows} == {"pass"}

    def test_sweep_lambda_writes_per_value_rows(self, pipeline, tmp_path):
        assert cli.main(["sweep-lambda", "--config", str(pipeline["config"]),
                         "--base", str(pipeline["base"] / "base.ssrg"),
                         "--values", "0,5", "--n", "20",
                         "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "sweep.csv")
        assert [float(r["lambda"]) for r in rows] == [0.0, 5.0]
        assert (tmp_path / "lambda_0.ssrg").exists()
        assert (tmp_path / "lambda_5.ssrg").exists()


class TestExitCodes:
    @pytest.mark.parametrize("command,section,key,value", [
        ("train-base", "base", "batch_size", "0"),
        ("train-base", "base", "lr", "nan"),
        ("train-base", "base", "lr", "inf"),
        ("train-base", "base", "lr", "-1"),
        ("train-base", "base", "steps", "-3"),
        ("train-base", "base", "p_uncond", "2"),
        ("erase", "erase", "lr", "0"),
        ("erase", "erase", "lr", "nan"),
        ("erase", "erase", "weight_decay", "-0.1"),
        ("erase", "erase", "weight_decay", "inf"),
        ("gen-data", "erase", "lambda", "nan"),
        ("gen-data", "erase", "gamma1", "inf"),
        ("gen-data", "erase", "gamma2", "nan"),
        ("gen-data", "metrics", "eval_gamma", "nan"),
        ("gen-data", "metrics", "threshold", "5"),
        ("gen-data", "metrics", "n_samples", "0"),
        ("gen-data", "metrics", "consistency_seeds", "-1"),
        ("gen-data", "erase", "snapshot_every", "-1"),
        ("gen-data", "erase", "seed", "-1"),
        ("gen-data", "erase", "t_warmup", "99"),
        ("gen-data", "erase", "warmup_style", "foo"),
        ("gen-data", "sampler", "t_sample", "1000"),
        ("gen-data", "sampler", "t_sample", "0"),
        ("gen-data", "schedule", "t_train", "0"),
        ("gen-data", "schedule", "beta_end", "2"),
        ("gen-data", "schedule", "beta_start", "0.5"),
        ("gen-data", "base", "hidden", "0"),
        ("gen-data", "run", "seed", "-5"),
        ("gen-data", "base", "seed", "-1"),
        ("gen-data", "instruction.a", "kappa", "nan"),
    ])
    def test_out_of_range_hyperparameter_is_config(self, pipeline, tmp_path,
                                                   capsys, command, section,
                                                   key, value):
        bad = tmp_path / "bad.ini"
        name = "name = c0\n" if section.startswith("instruction") else ""
        bad.write_text(f"[{section}]\n{name}{key} = {value}\n")
        inputs = {"gen-data": [],
                  "train-base": ["--data", str(pipeline["data"] / "dataset.csv")],
                  "erase": ["--base", str(pipeline["base"] / "base.ssrg")]}[command]
        code = cli.main([command, "--config", str(bad), *inputs,
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"[{section}] {key}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_flag_is_config(self, tmp_path, capsys):
        empty = tmp_path / "empty.ini"
        empty.write_text("")
        code = cli.main(["gen-data", "--config", str(empty), "--seed", "-1",
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "--seed:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_flag_is_config(self, pipeline, tmp_path, capsys,
                                             gamma):
        code = cli.main(["sample", "--config", str(pipeline["config"]),
                         "--model", str(pipeline["base"] / "base.ssrg"),
                         "--concept", "c0", "--n", "2", "--gamma", gamma,
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "--gamma:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("values", ["0,-1", "0,nan", "1,1", "1,1.0000001",
                                        "0,-0"])
    def test_bad_lambda_values_fail_before_erasing(
            self, pipeline, tmp_path, monkeypatch, capsys, values):
        def no_erase(*args, **kwargs):
            raise AssertionError("sweep-lambda erased before checking --values")

        monkeypatch.setattr(cli.er, "erase_finetune", no_erase)
        code = cli.main(["sweep-lambda", "--config", str(pipeline["config"]),
                         "--base", str(pipeline["base"] / "base.ssrg"),
                         "--values", values, "--out", str(tmp_path / "o")])
        assert code == 1
        assert "--values:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config,meta_edit,field", [
        ("", {}, "mode"),
        ("[run]\nmode = glyphs16\n", {"vocab": ["circle"]}, "vocab"),
        ("[run]\nmode = glyphs16\n[schedule]\nbeta_end = 0.03\n", {},
         "schedule"),
    ])
    def test_checkpoint_config_mismatch_is_config(self, tmp_path, capsys,
                                                  config, meta_edit, field):
        glyphs = tmp_path / "glyphs.ini"
        glyphs.write_text("[run]\nmode = glyphs16\n")
        glyph_cfg = persistence.load_config(glyphs)
        vocab, _ = glyph_cfg.vocab_and_spec()
        params = nnet.init_params(nnet.NetworkShape(input_dim=256, hidden=(8,)),
                                  vocab.size, seed=0)
        ckpt = tmp_path / "glyph.ssrg"
        meta = dict(cli._checkpoint_meta(glyph_cfg, "base"), **meta_edit)
        persistence.write_checkpoint(params, meta, ckpt)
        run = tmp_path / "run.ini"
        run.write_text(config)
        code = cli.main(["sample", "--config", str(run), "--model", str(ckpt),
                         "--concept", vocab.concepts[0].name if config else "c0",
                         "--n", "2", "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"checkpoint {field} " in capsys.readouterr().err
        assert not (tmp_path / "o" / "samples.csv").exists()

    def test_missing_config_file_is_io(self, tmp_path):
        code = cli.main(["gen-data", "--config", str(tmp_path / "none.ini"),
                         "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unknown_config_key_is_config(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[erase]\ngamma9 = 1\n")
        code = cli.main(["gen-data", "--config", str(bad),
                         "--out", str(tmp_path / "o")])
        assert code == 1

    def test_unknown_concept_is_config(self, pipeline, tmp_path):
        code = cli.main(["sample", "--config", str(pipeline["config"]),
                         "--model", str(pipeline["base"] / "base.ssrg"),
                         "--concept", "dragon", "--n", "2",
                         "--out", str(tmp_path)])
        assert code == 1

    def test_bad_checkpoint_magic_is_format(self, pipeline, tmp_path):
        fake = tmp_path / "fake.ssrg"
        fake.write_bytes(b"JUNKJUNKJUNKJUNK")
        code = cli.main(["sample", "--config", str(pipeline["config"]),
                         "--model", str(fake), "--concept", "c0",
                         "--n", "2", "--out", str(tmp_path / "o")])
        assert code == 4

    def test_report_missing_metrics_is_config(self, tmp_path):
        empty = tmp_path / "empty_run"
        empty.mkdir()
        code = cli.main(["report", "--runs", str(empty),
                         "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("edit", [
        None,
        lambda good: "{not json",
        lambda good: json.dumps({"method": "x"}),
        lambda good: json.dumps(dict(good, report={})),
        lambda good: json.dumps(dict(good, timeline={"iterations": [4, 8]})),
        lambda good: json.dumps(dict(good, timeline={"iterations": [4, 8],
                                                     "rates": [0.5]})),
    ], ids=["no-metrics", "junk-json", "no-report", "empty-report",
            "timeline-without-rates", "timeline-lengths-differ"])
    def test_bad_report_run_leaves_no_out_dir(self, pipeline, tmp_path, capsys,
                                              edit):
        bad = tmp_path / "bad_run"
        bad.mkdir()
        if edit is not None:
            good = json.loads((pipeline["eval"] / "metrics.json").read_text())
            (bad / "metrics.json").write_text(edit(good))
        code = cli.main(["report", "--runs", str(pipeline["eval"]), str(bad),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"run {bad}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("snapshot,code", [("junk", 4), ("glyph-mode", 1)])
    def test_bad_timeline_snapshot_fails_before_sampling(
            self, pipeline, tmp_path, monkeypatch, capsys, snapshot, code):
        snapshots = tmp_path / "checkpoints"
        snapshots.mkdir()
        for path in (pipeline["erased"] / "checkpoints").iterdir():
            (snapshots / path.name).write_bytes(path.read_bytes())
        bad = snapshots / "iter_9999.ssrg"
        if snapshot == "junk":
            bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        else:
            params, meta = persistence.read_checkpoint(snapshots / "iter_0004.ssrg")
            persistence.write_checkpoint(params, dict(meta, mode="glyphs16"), bad)

        def no_sampling(*args, **kwargs):
            raise AssertionError("eval sampled before checking its snapshots")

        monkeypatch.setattr(cli, "_sample_batch", no_sampling)
        monkeypatch.setattr(cli.an, "seed_consistency", no_sampling)
        assert cli.main(["eval", "--config", str(pipeline["config"]),
                         "--base", str(pipeline["base"] / "base.ssrg"),
                         "--model", str(pipeline["erased"] / "erased.ssrg"),
                         "--checkpoints", str(snapshots),
                         "--out", str(tmp_path / "o")]) == code
        assert "iter_9999.ssrg" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train-base", "invert"])
    @pytest.mark.parametrize("text,named", [
        ("label,x0,x1\n0,0.5,1.5\n1,0.5\n", "data row 2"),
        ("label,x0,x1\n0,0.5,1.5\n1,0.5,abc\n", "data row 2"),
        ("label,x0,x1\n0,0.5,1.5\n1.5,0.5,1.5\n", "data row 2"),
        ("label,x0,x1\n0,0.5,1.5\n1,nan,1.5\n", "data row 2"),
        ("label,x0,x1,x2\n0,0.5,1.5,2.5\n", "4 columns"),
        ("label,x0,x1\n0,0.5,1.5\n1,abc,0.3\n", "data row 2"),
        ("label,x0,x1\n0,0.5,1.5\n1,0.3\n", "data row 2"),
    ], ids=["ragged-row", "non-numeric", "non-integer-label", "non-finite",
            "wrong-width", "non-numeric-middle-cell", "short-row"])
    def test_bad_dataset_csv_is_config(self, pipeline, tmp_path, capsys,
                                       command, text, named):
        data = tmp_path / "bad.csv"
        data.write_text(text)
        inputs = {"train-base": [],
                  "invert": ["--model", str(pipeline["base"] / "base.ssrg")]}
        code = cli.main([command, "--config", str(pipeline["config"]),
                         *inputs[command], "--data", str(data),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{data}:" in err and named in err
        assert not (tmp_path / "o").exists()

    def test_allocation_too_large_is_config(self, tmp_path, capsys):
        # 8 concepts x 1e15 points x 2 x 8 bytes = 1.28e17 bytes, more than
        # any 64-bit address space holds, so the request fails at once.
        empty = tmp_path / "empty.ini"
        empty.write_text("")
        code = cli.main(["gen-data", "--config", str(empty),
                         "--n", "1000000000000000",
                         "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    # The first allocation of each case is larger than the 2^57-byte
    # (128 PiB) virtual address space of 5-level paging, so it fails at
    # once, whatever the overcommit setting, inside the command body after
    # --out exists: train-base draws 1e17 int64 row ids (8e17 bytes), eval
    # draws 1e17 two-dimensional starting points (1.6e18 bytes).
    OVERSIZED_BODIES = {
        "train-base": ("[base]\nbatch_size = 100000000000000000\n",
                       ["--data", "DATA"]),
        "eval": ("[metrics]\nn_samples = 100000000000000000\n",
                 ["--base", "BASE", "--model", "ERASED"]),
    }

    def run_oversized(self, pipeline, tmp_path, command, out):
        text, args = self.OVERSIZED_BODIES[command]
        config = tmp_path / "huge.ini"
        config.write_text(text)
        paths = {"DATA": pipeline["data"] / "dataset.csv",
                 "BASE": pipeline["base"] / "base.ssrg",
                 "ERASED": pipeline["erased"] / "erased.ssrg"}
        return cli.main([command, "--config", str(config),
                         *(str(paths.get(a, a)) for a in args),
                         "--out", str(out)])

    @pytest.mark.parametrize("command,out", [("train-base", "o"),
                                             ("eval", "o"),
                                             ("train-base", "o/run")])
    def test_failed_body_removes_the_out_it_created(self, pipeline, tmp_path,
                                                    capsys, command, out):
        code = self.run_oversized(pipeline, tmp_path, command, tmp_path / out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_failed_body_keeps_an_out_that_existed(self, pipeline, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        (out / "keep.txt").write_text("kept")
        assert self.run_oversized(pipeline, tmp_path, "train-base", out) == 1
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
        assert (out / "keep.txt").read_text() == "kept"

    def test_bad_sweep_values_is_config(self, pipeline, tmp_path):
        code = cli.main(["sweep-lambda", "--config", str(pipeline["config"]),
                         "--base", str(pipeline["base"] / "base.ssrg"),
                         "--values", "0,banana",
                         "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("command", ["erase", "sample", "invert", "eval",
                                         "sweep-lambda"])
    def test_junk_checkpoint_leaves_no_out_dir(self, pipeline, tmp_path,
                                               command):
        junk = tmp_path / "junk.ssrg"
        junk.write_bytes(b"JUNKJUNKJUNKJUNK")
        inputs = {"erase": ["--base", junk],
                  "sample": ["--model", junk, "--concept", "c0"],
                  "invert": ["--model", junk,
                             "--data", pipeline["data"] / "dataset.csv"],
                  "eval": ["--base", junk, "--model", junk],
                  "sweep-lambda": ["--base", junk]}[command]
        code = cli.main([command, "--config", str(pipeline["config"]),
                         *map(str, inputs), "--out", str(tmp_path / "o")])
        assert code == 4
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,args,named", [
        ("gen-data", ["--n", "0"], "--n:"),
        ("train-base", ["--n", "0"], "--n:"),
        ("sample", ["--model", "BASE", "--concept", "c0", "--n", "0"], "--n:"),
        ("eval", ["--base", "BASE", "--model", "ERASED", "--n", "0"], "--n:"),
        ("eval", ["--base", "BASE", "--model", "ERASED", "--drift-n", "1"],
         "--drift-n:"),
        ("eval", ["--base", "BASE", "--model", "ERASED", "--timeline-n", "0"],
         "--timeline-n:"),
        ("sweep-lambda", ["--base", "BASE", "--n", "0"], "--n:"),
        ("invert", ["--model", "BASE", "--data", "EMPTY"], "empty.csv:"),
        ("invert", ["--model", "BASE", "--data", "HEADER"], "no rows"),
    ], ids=["gen-data-n", "train-base-n", "sample-n", "eval-n", "eval-drift-n",
            "eval-timeline-n", "sweep-n", "invert-empty-csv",
            "invert-header-only-csv"])
    def test_bad_count_or_empty_data_is_config(self, pipeline, tmp_path, capsys,
                                               command, args, named):
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "header.csv").write_text("label,x0,x1\n")
        paths = {"BASE": pipeline["base"] / "base.ssrg",
                 "ERASED": pipeline["erased"] / "erased.ssrg",
                 "EMPTY": tmp_path / "empty.csv",
                 "HEADER": tmp_path / "header.csv"}
        code = cli.main([command, "--config", str(pipeline["config"]),
                         *(str(paths.get(a, a)) for a in args),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestInvertMatchesPerSample:
    def test_batched_invert_matches_per_sample_loop(self, pipeline, tmp_path):
        base = pipeline["base"] / "base.ssrg"
        data = tmp_path / "data.csv"
        cfg = persistence.load_config(pipeline["config"])
        vocab, _ = cfg.vocab_and_spec()
        full = tw.dataset_from_csv(pipeline["data"] / "dataset.csv", cfg.mode,
                                   vocab.size)
        picked = np.arange(0, len(full.labels), 13)
        tw.dataset_to_csv(tw.Dataset(full.samples[picked], full.labels[picked],
                                     cfg.mode, vocab.size), data)
        assert cli.main(["invert", "--config", str(pipeline["config"]),
                         "--model", str(base), "--data", str(data),
                         "--out", str(tmp_path / "i")]) == 0
        latents = tw.dataset_from_csv(tmp_path / "i" / "inverted.csv",
                                      cfg.mode, vocab.size)
        recon = read_rows(tmp_path / "i" / "recon.csv")

        # the per-sample loop the command ran before batching
        model, _ = persistence.read_checkpoint(base)
        sched, sampler = cfg.schedule(), cfg.sampler()
        guid = df.conditional_eps(model)
        for i in range(len(picked)):
            x0, c = full.samples[picked[i]], int(full.labels[picked[i]])
            z_T = df.ddim_invert(x0, model, sched, sampler, c)
            out, _, _ = df.descend(z_T[None, :], sampler, sched, c, guid, 0)
            rel = float(np.linalg.norm(out[0] - x0)) / float(np.linalg.norm(x0))
            assert latents.labels[i] == c and recon[i]["label"] == str(c)
            assert np.abs(latents.samples[i] - z_T).max() \
                <= 1e-9 * np.abs(z_T).max()
            assert abs(float(recon[i]["rel_l2"]) - rel) <= 5e-6 * rel


class TestInspect:
    def test_prints_the_header_as_json(self, pipeline, capsys):
        path = pipeline["base"] / "base.ssrg"
        assert cli.main(["inspect", str(path)]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert set(shown) == {"created_utc", "meta", "model", "tensors"}
        assert shown == persistence.read_checkpoint_header(path)
        assert shown["meta"]["kind"] == "base"
        assert [t["name"] for t in shown["tensors"]][-1] == "embed"

    @pytest.mark.parametrize("edit", ["junk", "no-model"])
    def test_malformed_checkpoint_is_format(self, pipeline, tmp_path, capsys,
                                            edit):
        bad = tmp_path / "bad.ssrg"
        raw = (pipeline["base"] / "base.ssrg").read_bytes()
        if edit == "junk":
            bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        else:
            bad.write_bytes(raw.replace(b'"model"', b'"MODEL"', 1))
        assert cli.main(["inspect", str(bad)]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "bad.ssrg" in captured.err
