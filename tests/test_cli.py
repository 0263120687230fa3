"""End-to-end pipeline runs and exit-code mapping for the command line."""

import csv
import hashlib
import json
import math
import os
import shutil
import struct
import warnings
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import numpy as np
import pytest

from eraselab import cli, nnet, persistence
from eraselab import diffusion as df
from eraselab import toyworld as tw
from eraselab.analysis import MetricReport
from eraselab.errors import NumericalError
from eraselab.report import fmt6

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

# Erase runs beside the pipeline's own, on TINY_CONFIG with these keys
# added to [erase]: run directory -> keys. They pin what the default erase
# run does not reach: the esd, explicit-replacement and sdd targets, and the
# sega warmup gate with decoupled weight decay on a partial AdamW mask.
ERASE_VARIANTS = {
    "erased-esd": "loss_kind = esd\n",
    "erased-explicit": "replacement = c2\n",
    "erased-sdd": "loss_kind = sdd\n",
    "erased-sega": "warmup_style = sega\nweight_decay = 0.01\n"
                   "trainable = embed,w3,b3\n",
}

# The same pipeline on glyphs16 with a narrow net, run under glyphs/. It
# pins the glyph-only paths: the glyph generator and its 256-column CSV,
# the template oracle, the SSIM branch of seed consistency and glyph
# inversion.
GLYPH_CONFIG = "[run]\nmode = glyphs16\n" + TINY_CONFIG.replace(
    "[base]\n", "[base]\nhidden = 64\n")

# Each command that writes --out: its run directory in the pipeline
# fixture and the keys of its manifest's seeds.
MANIFESTS = [
    ("gen-data", "data", {"dataset"}),
    ("train-base", "base", {"train"}),
    ("erase", "erased", {"erase"}),
    ("sample", "sample", {"sample"}),
    ("invert", "invert", set()),
    ("eval", "eval", {"eval"}),
    ("sweep-lambda", "sweep", {"erase"}),
    ("verify-theory", "theory", {"probe"}),
    ("report", "report", set()),
]
# The run directories of _core_commands.
GLYPH_RUNS = ("data", "base", "erased", "eval", "sample", "invert")


def _core_commands(config, paths, concept):
    """gen-data, train-base, erase, eval, sample (of concept, from the
    erased model) and invert (by the base) on config, each into its run
    directory in paths."""
    base, erased = paths["base"] / "base.ssrg", paths["erased"] / "erased.ssrg"
    conf = ["--config", str(config)]
    return [
        ["gen-data", *conf, "--out", str(paths["data"]), "--n", "20"],
        ["train-base", *conf, "--data", str(paths["data"] / "dataset.csv"),
         "--out", str(paths["base"])],
        ["erase", *conf, "--base", str(base), "--out", str(paths["erased"])],
        ["eval", *conf, "--base", str(base), "--model", str(erased),
         "--out", str(paths["eval"]), "--n", "30", "--drift-n", "20",
         "--timeline-n", "20"],
        ["sample", *conf, "--model", str(erased), "--concept", concept,
         "--n", "4", "--out", str(paths["sample"])],
        ["invert", *conf, "--model", str(base),
         "--data", str(paths["sample"] / "samples.csv"),
         "--out", str(paths["invert"])],
    ]


def _points_commands(paths):
    """Each command of MANIFESTS once, in its order, on paths["config"],
    each into its run directory in paths."""
    config, base = paths["config"], paths["base"] / "base.ssrg"
    return _core_commands(config, paths, "c1") + [
        ["sweep-lambda", "--config", str(config), "--base", str(base),
         "--values", "5", "--n", "10", "--out", str(paths["sweep"])],
        ["verify-theory", "--config", str(config), "--out", str(paths["theory"])],
        ["report", "--runs", str(paths["eval"]), "--out", str(paths["report"])],
    ]


def run_pipeline(root):
    """Write TINY_CONFIG under root and run every command on it once, each
    into its own run directory, then the core commands on GLYPH_CONFIG
    under root/glyphs; returns the paths by key."""
    config = root / "run.ini"
    config.write_text(TINY_CONFIG)
    paths = {"root": root, "config": config,
             **{key: root / key for _, key, _ in MANIFESTS}}
    base = paths["base"] / "base.ssrg"
    commands = _points_commands(paths)
    for key, keys in ERASE_VARIANTS.items():
        variant = root / f"{key}.ini"
        variant.write_text(TINY_CONFIG.replace("[erase]\n", "[erase]\n" + keys))
        paths[key] = root / key
        commands.append(["erase", "--config", str(variant), "--base", str(base),
                         "--out", str(paths[key])])
    glyphs = root / "glyphs"
    glyphs.mkdir()
    (glyphs / "run.ini").write_text(GLYPH_CONFIG)
    commands += _core_commands(glyphs / "run.ini", {
        key: glyphs / key for key in GLYPH_RUNS}, "circle")
    for argv in commands:
        code = cli.main(argv)
        assert code == 0, f"{argv[0]} exited {code}"
    return paths


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny end-to-end run shared by the assertions below."""
    return run_pipeline(tmp_path_factory.mktemp("pipeline"))


# Artifacts of the pipeline whose numbers tests/fingerprints.json pins.
# report.write_csv prints 6 significant digits, so these compare as printed.
PRINTED_CSVS = ("base/train_loss.csv", "erased/loss.csv", "sweep/sweep.csv",
                "invert/recon.csv", "theory/theory.csv",
                *(f"{key}/loss.csv" for key in ERASE_VARIANTS),
                "glyphs/base/train_loss.csv", "glyphs/erased/loss.csv",
                "glyphs/invert/recon.csv")
SAMPLE_CSVS = ("sample/samples.csv", "glyphs/sample/samples.csv")
METRICS = ("eval/metrics.json", "glyphs/eval/metrics.json")
FINGERPRINTED = PRINTED_CSVS + SAMPLE_CSVS + METRICS
CHECKPOINTS = ("base/base.ssrg", "erased/erased.ssrg",
               "erased/checkpoints/iter_0004.ssrg",
               "erased/checkpoints/iter_0008.ssrg", "sweep/lambda_5.ssrg",
               *(f"{key}/erased.ssrg" for key in ERASE_VARIANTS),
               "glyphs/base/base.ssrg", "glyphs/erased/erased.ssrg",
               "glyphs/erased/checkpoints/iter_0004.ssrg",
               "glyphs/erased/checkpoints/iter_0008.ssrg")
FINGERPRINTS = Path(__file__).with_name("fingerprints.json")
# theory.csv checks whose value is the rounding residual of an identity.
# Its printed digits differ between OpenBLAS kernels, so the record keeps
# the value only as within its tolerance, beside the tolerance and status.
ROUNDING_RESIDUALS = ("kl_chain_two_path_rel", "kl_chain_decomposition")


def payload_sha256(path):
    """sha256 of a checkpoint's payload; the header holds paths and times."""
    raw = Path(path).read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 6)
    return hashlib.sha256(raw[10 + header_len:]).hexdigest()


def pipeline_fingerprints(root):
    """The numbers of a run_pipeline run under root, and its payload hashes.

    write_csv files are kept cell for cell as printed (a rounding residual
    of theory.csv as within its tolerance), samples.csv as its labels and
    doubles, metrics.json as parsed. The payload hashes are for
    information only: OpenBLAS picks its kernels per CPU, so they can
    differ across hosts.
    """
    root = Path(root)
    artifacts = {}
    for name in PRINTED_CSVS:
        with open(root / name, newline="") as fh:
            artifacts[name] = list(csv.reader(fh))
    artifacts["theory/theory.csv"] = [
        [check, f"<= {tol}" if check in ROUNDING_RESIDUALS
         and float(value) <= float(tol) else value, tol, status]
        for check, value, tol, status in artifacts["theory/theory.csv"]]
    for name in SAMPLE_CSVS:
        with open(root / name, newline="") as fh:
            header, *rows = csv.reader(fh)
        artifacts[name] = [header] + [
            [int(label)] + [float(v) for v in values] for label, *values in rows]
    for name in METRICS:
        artifacts[name] = json.loads((root / name).read_text())
    return {"artifacts": artifacts,
            "payload_sha256": {name: payload_sha256(root / name)
                               for name in CHECKPOINTS}}


def assert_matches(got, want, where, exact=False):
    """Strings, integers and everything under a key that names a rate must
    match exactly; other floats within 1e-9 relative."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}",
                           exact or "rate" in key)
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: {len(got)} != {len(want)} items"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]", exact)
    elif isinstance(want, float) and not exact:
        assert isinstance(got, float) and \
            math.isclose(got, want, rel_tol=1e-9), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, \
            f"{where}: {got!r} != {want!r}"


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
        assert not [p for p in pipeline[key].iterdir()
                    if p.name.startswith("staging.")]

    @pytest.mark.parametrize("argv", [
        ["train-base", "--config", "c.ini", "--out", "o"],
        ["train-base", "--config", "c.ini", "--data", "d.csv", "--out", "o",
         "--n", "20"],
        ["train-base", "--config", "c.ini", "--data", "d.csv", "--out", "o",
         "--seed", "1"],
        ["eval", "--config", "c.ini", "--base", "b.ssrg", "--model", "m.ssrg",
         "--out", "o", "--checkpoints", "snapshots"],
        ["erase", "--config", "c.ini", "--base", "b.ssrg", "--out", "o",
         "--seed", "1"],
        ["eval", "--config", "c.ini", "--base", "b.ssrg", "--model", "m.ssrg",
         "--out", "o", "--seed", "1"],
        ["invert", "--config", "c.ini", "--model", "m.ssrg", "--data", "d.csv",
         "--out", "o", "--seed", "1"],
        ["sweep-lambda", "--config", "c.ini", "--base", "b.ssrg", "--out", "o",
         "--seed", "1"],
        ["verify-theory", "--config", "c.ini", "--out", "o", "--seed", "1"],
        ["report", "--runs", "r", "--out", "o", "--config", "c.ini"],
        ["report", "--runs", "r", "--out", "o", "--seed", "1"],
    ], ids=["train-base-no-data", "train-base-n", "train-base-seed",
            "eval-checkpoints", "erase-seed", "eval-seed", "invert-seed",
            "sweep-lambda-seed", "verify-theory-seed", "report-config",
            "report-seed"])
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

    def test_erase_rerun_replaces_earlier_snapshots(self, pipeline, tmp_path):
        """A second erase into the same --out leaves only its own snapshots,
        so eval's timeline holds none of the first run's."""
        base = str(pipeline["base"] / "base.ssrg")
        out = tmp_path / "er"

        def erase(every):
            config = tmp_path / f"every{every}.ini"
            config.write_text(TINY_CONFIG.replace(
                "n_iters = 8\nsnapshot_every = 4\n",
                f"n_iters = 20\nsnapshot_every = {every}\n"))
            assert cli.main(["erase", "--config", str(config), "--base", base,
                             "--out", str(out)]) == 0
            return config

        erase(5)
        config = erase(10)
        assert sorted(p.name for p in (out / "checkpoints").iterdir()) == \
            ["iter_0010.ssrg", "iter_0020.ssrg"]
        assert sorted(p.name for p in out.iterdir()) == \
            ["checkpoints", "erased.ssrg", "loss.csv", "manifest.json"]
        assert cli.main(["eval", "--config", str(config), "--base", base,
                         "--model", str(out / "erased.ssrg"),
                         "--out", str(tmp_path / "eval"), "--n", "10",
                         "--drift-n", "4", "--timeline-n", "4"]) == 0
        metrics = json.loads((tmp_path / "eval" / "metrics.json").read_text())
        assert metrics["timeline"]["iterations"] == [10, 20]
        # a run that takes no snapshot leaves checkpoints/ empty
        erase(100)
        assert list((out / "checkpoints").iterdir()) == []

    def test_failed_erase_leaves_an_earlier_run_untouched(
            self, pipeline, tmp_path, monkeypatch, capsys):
        """An erase that fails after its first snapshot was written leaves
        every file of the run already in --out byte for byte as it was."""
        out = tmp_path / "o"
        shutil.copytree(pipeline["erased"], out)
        tree = sorted(out.rglob("*"))
        before = {p: p.read_bytes() for p in tree if p.is_file()}
        steps, written = [], []
        adamw_step = nnet.adamw_step
        write_checkpoint = persistence.write_checkpoint

        def failing_step(*args):
            steps.append(len(steps) + 1)
            if len(steps) == 5:
                raise NumericalError("non-finite parameters")
            return adamw_step(*args)

        def recorded_write(params, meta, path):
            written.append(meta.get("iteration"))
            write_checkpoint(params, meta, path)

        monkeypatch.setattr(nnet, "adamw_step", failing_step)
        monkeypatch.setattr(persistence, "write_checkpoint", recorded_write)
        code = cli.main(["erase", "--config", str(pipeline["config"]),
                         "--base", str(pipeline["base"] / "base.ssrg"),
                         "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: iteration 5: ")
        assert err.count("\n") == 1
        assert written == [4]
        assert sorted(out.rglob("*")) == tree
        assert {p: p.read_bytes() for p in tree if p.is_file()} == before

    @pytest.mark.parametrize("command,key", [(c, k) for c, k, _ in MANIFESTS],
                             ids=[command for command, _, _ in MANIFESTS])
    def test_failed_last_write_leaves_an_earlier_run_untouched(
            self, pipeline, tmp_path, monkeypatch, capsys, command, key):
        """A command whose manifest.json, its last write, fails leaves every
        file of an earlier run in --out as it was, and no staging entry."""
        out = tmp_path / "o"
        for path in pipeline[key].rglob("*"):
            if path.is_file():
                earlier = out / path.relative_to(pipeline[key])
                earlier.parent.mkdir(parents=True, exist_ok=True)
                earlier.write_bytes(b"earlier run")
        tree = sorted(out.rglob("*"))
        argv = next(a for a in _points_commands(pipeline) if a[0] == command)
        argv[argv.index("--out") + 1] = str(out)
        write_json = persistence.write_json

        def failing_write_json(path, payload):
            if Path(path).name == "manifest.json":
                raise OSError(28, "No space left on device", str(path))
            write_json(path, payload)

        monkeypatch.setattr(persistence, "write_json", failing_write_json)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert sorted(out.rglob("*")) == tree
        assert {p.read_bytes() for p in tree if p.is_file()} == {b"earlier run"}

    def test_stage_left_by_a_killed_run_is_not_committed(self, pipeline,
                                                          tmp_path):
        out = tmp_path / "o"
        stale = out / f"staging.{os.getpid()}.tmp"
        stale.mkdir(parents=True)
        (stale / "stale.csv").write_text("stale")
        assert cli.main(["gen-data", "--config", str(pipeline["config"]),
                         "--out", str(out), "--n", "2"]) == 0
        assert sorted(p.name for p in out.iterdir()) == \
            ["dataset.csv", "manifest.json"]

    def test_eval_metrics_round_trip(self, pipeline):
        payload = json.loads((pipeline["eval"] / "metrics.json").read_text())
        assert payload["method"] == "ours"
        report = MetricReport.from_dict(payload["report"])
        assert set(report.erasure_rates) == {0}
        assert set(report.drift) == set(range(1, 8))
        assert payload["timeline"]["iterations"] == [4, 8]
        assert all(0.0 <= r <= 1.0 for r in payload["timeline"]["rates"])

    def test_eval_orders_the_timeline_by_recorded_iteration(self, pipeline,
                                                            tmp_path):
        """Snapshot names sort as text (iter_10000 before iter_2000); the
        timeline follows the iterations their metas record."""
        shutil.copy(pipeline["erased"] / "erased.ssrg", tmp_path)
        (tmp_path / "checkpoints").mkdir()
        # eval reads only the .ssrg files there
        (tmp_path / "checkpoints" / "notes.txt").write_text("not a snapshot")
        for source, iteration in (("iter_0004.ssrg", 2000),
                                  ("iter_0008.ssrg", 10000)):
            params, meta = persistence.read_checkpoint(
                pipeline["erased"] / "checkpoints" / source)
            persistence.write_checkpoint(
                params, dict(meta, iteration=iteration),
                tmp_path / "checkpoints" / f"iter_{iteration:04d}.ssrg")
        assert cli.main(["eval", "--config", str(pipeline["config"]),
                         "--base", str(pipeline["base"] / "base.ssrg"),
                         "--model", str(tmp_path / "erased.ssrg"),
                         "--out", str(tmp_path / "e"), "--n", "10",
                         "--drift-n", "4", "--timeline-n", "20"]) == 0
        timeline = json.loads((tmp_path / "e" / "metrics.json").read_text())[
            "timeline"]
        assert timeline["iterations"] == [2000, 10000]
        # each rate stays with its snapshot: the pipeline's eval scored
        # iter_0004 and iter_0008 at the same --timeline-n
        scored = json.loads((pipeline["eval"] / "metrics.json").read_text())
        assert timeline["rates"] == scored["timeline"]["rates"]

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

    def test_report_escapes_method_labels(self, pipeline, tmp_path):
        """eval --method is free text; the legend of each plot reads it back
        from a well-formed SVG."""
        run = tmp_path / "run"
        run.mkdir()
        metrics = json.loads((pipeline["eval"] / "metrics.json").read_text())
        (run / "metrics.json").write_text(json.dumps(dict(metrics,
                                                          method="a<b & c")))
        shutil.copy(pipeline["erased"] / "loss.csv", run)
        shutil.copy(pipeline["sweep"] / "sweep.csv", run)
        assert cli.main(["report", "--runs", str(run),
                         "--out", str(tmp_path / "r")]) == 0
        for name in ("loss_vs_iteration.svg", "erasure_vs_iteration.svg",
                     "consistency_vs_lambda.svg"):
            svg = ElementTree.parse(tmp_path / "r" / name).getroot()
            texts = [el.text for el
                     in svg.iter("{http://www.w3.org/2000/svg}text")]
            assert "a<b & c" in texts, name

    def test_report_leaves_missing_means_empty(self, pipeline, tmp_path):
        """A run whose report has no drift or consistency values gets empty
        mmd2 and consistency cells."""
        run = tmp_path / "run"
        run.mkdir()
        metrics = json.loads((pipeline["eval"] / "metrics.json").read_text())
        metrics["report"].update(drift={}, consistency={})
        (run / "metrics.json").write_text(json.dumps(metrics))
        assert cli.main(["report", "--runs", str(run),
                         "--out", str(tmp_path / "r")]) == 0
        [row] = read_rows(tmp_path / "r" / "report.csv")
        assert (row["mmd2"], row["consistency"]) == ("", "")
        assert row["erasure_rate"] == fmt6(
            np.mean(list(metrics["report"]["erasure_rates"].values())))

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

    def test_failing_verify_theory_still_writes_its_report(
            self, pipeline, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.an, "theory_checks",
                            lambda *args: [("probe_identity", 0.5, 1e-9, False)])
        code = cli.main(["verify-theory", "--config", str(pipeline["config"]),
                         "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == \
            "numerical error: theory checks failed: probe_identity\n"
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == \
            ["manifest.json", "theory.csv"]
        assert read_rows(tmp_path / "o" / "theory.csv") == [
            {"check": "probe_identity", "value": "0.5", "tolerance": "1e-09",
             "status": "fail"}]

    def test_sweep_lambda_writes_per_value_rows(self, pipeline, tmp_path):
        # -0 is the run of 0: its row, checkpoint name and meta say 0
        for values in ("0,5", "-0,5"):
            out = tmp_path / values
            assert cli.main(["sweep-lambda", "--config", str(pipeline["config"]),
                             "--base", str(pipeline["base"] / "base.ssrg"),
                             f"--values={values}", "--n", "20",
                             "--out", str(out)]) == 0
            rows = read_rows(out / "sweep.csv")
            assert [r["lambda"] for r in rows] == ["0", "5"]
            assert sorted(p.name for p in out.glob("*.ssrg")) == \
                ["lambda_0.ssrg", "lambda_5.ssrg"]
            meta = persistence.read_checkpoint_header(
                out / "lambda_0.ssrg")["meta"]
            assert math.copysign(1.0, meta["lambda"]) == 1.0

    def test_eval_scores_a_sweep_checkpoint_as_the_sweep_did(self, pipeline,
                                                             tmp_path):
        assert cli.main(["eval", "--config", str(pipeline["config"]),
                         "--base", str(pipeline["base"] / "base.ssrg"),
                         "--model", str(pipeline["sweep"] / "lambda_5.ssrg"),
                         "--out", str(tmp_path), "--n", "10",
                         "--drift-n", "2"]) == 0
        report = json.loads((tmp_path / "metrics.json").read_text())["report"]
        [row] = read_rows(pipeline["sweep"] / "sweep.csv")
        assert row["erasure_rate"] == fmt6(report["erasure_rates"]["0"])
        assert row["consistency"] == fmt6(
            float(np.mean(list(report["consistency"].values()))))

    def test_sweep_lambda_descends_the_base_once(self, pipeline, tmp_path,
                                                 monkeypatch):
        calls = []
        endpoints = cli.an.consistency_endpoints

        def counted(*args, **kwargs):
            calls.append(args[0])
            return endpoints(*args, **kwargs)

        monkeypatch.setattr(cli.an, "consistency_endpoints", counted)
        assert cli.main(["sweep-lambda", "--config", str(pipeline["config"]),
                         "--base", str(pipeline["base"] / "base.ssrg"),
                         "--values", "0,1,5", "--n", "10",
                         "--out", str(tmp_path)]) == 0
        # the base once, then each lambda's model
        assert len(calls) == 4
        base, _ = persistence.read_checkpoint(pipeline["base"] / "base.ssrg")
        assert np.array_equal(calls[0].flat, base.flat)

    @pytest.mark.parametrize("argv", [
        ["erase"], ["sweep-lambda", "--values", "0,1,5", "--n", "10"]],
        ids=["erase", "sweep-lambda"])
    def test_one_teacher_pass_per_command(self, pipeline, tmp_path,
                                          monkeypatch, argv):
        calls = []
        teacher_pass = cli.er.teacher_pass

        def counted(*args, **kwargs):
            calls.append(args[1])
            return teacher_pass(*args, **kwargs)

        monkeypatch.setattr(cli.er, "teacher_pass", counted)
        assert cli.main([*argv, "--config", str(pipeline["config"]),
                         "--base", str(pipeline["base"] / "base.ssrg"),
                         "--out", str(tmp_path)]) == 0
        # built from the config's own [erase], whatever lambdas a sweep runs
        config = persistence.load_config(pipeline["config"])
        assert calls == [config.erase]

    def test_sweep_lambda_checkpoints_equal_erase_runs(self, pipeline,
                                                       tmp_path):
        """Each lambda of a sweep, sharing one teacher pass, erases the base
        exactly as an erase run with that [erase] lambda does."""
        base = str(pipeline["base"] / "base.ssrg")
        assert cli.main(["sweep-lambda", "--config", str(pipeline["config"]),
                         "--base", base, "--values", "0,5", "--n", "10",
                         "--out", str(tmp_path / "sweep")]) == 0
        for lam in ("0", "5"):
            config = tmp_path / f"lambda_{lam}.ini"
            config.write_text(TINY_CONFIG.replace(
                "[erase]\n", f"[erase]\nlambda = {lam}\n"))
            out = tmp_path / f"erase_{lam}"
            assert cli.main(["erase", "--config", str(config), "--base", base,
                             "--out", str(out)]) == 0
            assert payload_sha256(tmp_path / "sweep" / f"lambda_{lam}.ssrg") \
                == payload_sha256(out / "erased.ssrg"), lam


class TestFingerprints:
    """The pipeline's numbers, recorded in tests/fingerprints.json by
    tools/record_fingerprints.py. A change that alters the arithmetic
    re-records the file and says by how much each value moved."""

    @pytest.mark.parametrize("name", FINGERPRINTED)
    def test_artifact_matches_recorded(self, pipeline, name):
        want = json.loads(FINGERPRINTS.read_text())["artifacts"][name]
        got = pipeline_fingerprints(pipeline["root"])["artifacts"][name]
        assert_matches(got, want, name)


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
        ("gen-data", "erase", "t_warmup", "-1"),
        ("gen-data", "erase", "warmup_style", "foo"),
        ("gen-data", "erase", "trainable", "w9"),
        ("gen-data", "erase", "trainable", ""),
        ("gen-data", "sampler", "t_sample", "1000"),
        ("gen-data", "sampler", "t_sample", "0"),
        ("gen-data", "schedule", "t_train", "0"),
        ("gen-data", "schedule", "beta_end", "2"),
        ("gen-data", "schedule", "beta_start", "0.5"),
        ("gen-data", "base", "hidden", "0"),
        ("gen-data", "run", "seed", "-5"),
        ("gen-data", "base", "seed", "-1"),
        ("gen-data", "instruction.a", "kappa", "nan"),
        ("gen-data", "instruction.a", "g", "inf"),
        ("gen-data", "instruction.a", "t_low", "99"),
        ("gen-data", "erase", "replacement", "c3"),
    ])
    def test_out_of_range_hyperparameter_is_config(self, pipeline, tmp_path,
                                                   capsys, command, section,
                                                   key, value):
        bad = tmp_path / "bad.ini"
        # the line each case needs beside its key: an instruction's name, a
        # loss that takes no replacement
        beside = {("instruction.a", "kappa"): "name = c0\n",
                  ("instruction.a", "g"): "name = c0\n",
                  ("instruction.a", "t_low"): "name = c0\n",
                  ("erase", "replacement"): "loss_kind = esd\n"}
        bad.write_text(f"[{section}]\n{beside.get((section, key), '')}"
                       f"{key} = {value}\n")
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
                                        "0,-0", ","])
    def test_bad_lambda_values_fail_before_erasing(
            self, pipeline, tmp_path, monkeypatch, capsys, values):
        def no_erase(*args, **kwargs):
            raise AssertionError("sweep-lambda erased before checking --values")

        monkeypatch.setattr(cli.er, "teacher_pass", no_erase)
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
                         "--concept", vocab.names[0] if config else "c0",
                         "--n", "2", "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"checkpoint {field} " in capsys.readouterr().err
        assert not (tmp_path / "o" / "samples.csv").exists()

    # Each way a command reads a checkpoint: the flag's command and its
    # arguments, BAD standing for the checkpoint under test. BAD lies in a
    # checkpoints/ directory next to SIBLING, a copy of the pipeline's
    # erased model, so eval of SIBLING reads BAD as a timeline snapshot.
    CHECKPOINT_READS = {
        "sample": ["sample", "--model", "BAD", "--concept", "c0", "--n", "2"],
        "invert": ["invert", "--model", "BAD", "--data", "DATA"],
        "erase": ["erase", "--base", "BAD"],
        "sweep-lambda": ["sweep-lambda", "--base", "BAD", "--values", "5"],
        "eval-base": ["eval", "--base", "BAD", "--model", "ERASED"],
        "eval-model": ["eval", "--base", "BASE", "--model", "BAD"],
        "eval-snapshot": ["eval", "--base", "BASE", "--model", "SIBLING"],
    }

    @pytest.mark.parametrize("field,input_dim,n_concepts,want", [
        ("n_concepts", 2, 5, 8), ("input_dim", 3, 8, 2)],
        ids=["n_concepts", "input_dim"])
    @pytest.mark.parametrize("read", sorted(CHECKPOINT_READS))
    def test_checkpoint_model_config_mismatch_is_config(
            self, pipeline, tmp_path, capsys, read, field, input_dim,
            n_concepts, want):
        """A checkpoint whose meta is the config's but whose header declares
        another width or concept count fails before --out is made."""
        cfg = persistence.load_config(pipeline["config"])
        snapshots = tmp_path / "checkpoints"
        snapshots.mkdir()
        bad = snapshots / "iter_0004.ssrg"
        params = nnet.init_params(
            nnet.NetworkShape(input_dim=input_dim, hidden=(8,)), n_concepts,
            seed=0)
        persistence.write_checkpoint(params, cli._checkpoint_meta(cfg, "base"),
                                     bad)
        shutil.copy(pipeline["erased"] / "erased.ssrg", tmp_path)
        paths = {"BAD": bad, "SIBLING": tmp_path / "erased.ssrg",
                 "DATA": pipeline["data"] / "dataset.csv",
                 "BASE": pipeline["base"] / "base.ssrg",
                 "ERASED": pipeline["erased"] / "erased.ssrg"}
        command, *args = self.CHECKPOINT_READS[read]
        code = cli.main([command, "--config", str(pipeline["config"]),
                         *(str(paths.get(a, a)) for a in args),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        got = {"n_concepts": n_concepts, "input_dim": input_dim}[field]
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {bad}: checkpoint model {field} {got} does not "
            f"match the config's {want}"]
        assert not (tmp_path / "o").exists()

    def test_missing_config_file_is_io(self, tmp_path):
        code = cli.main(["gen-data", "--config", str(tmp_path / "none.ini"),
                         "--out", str(tmp_path / "o")])
        assert code == 2

    def test_non_utf8_config_is_config(self, tmp_path, capsys):
        # configparser's own message for a file without a section header
        # spans three lines
        bad = tmp_path / "bad.ini"
        for text in (b"[run]\nmode = points2d\n# \xff\n", b"mode = points2d\n"):
            bad.write_bytes(text)
            code = cli.main(["gen-data", "--config", str(bad),
                             "--out", str(tmp_path / "o")])
            assert code == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error: "), err
            assert str(bad) in err[0]
            assert not (tmp_path / "o").exists()

    def test_unknown_config_key_is_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        # an instruction's section is named [instruction.<label>]
        for text, named in (("[erase]\ngamma9 = 1\n", "[erase] gamma9: "),
                            ("[instructions]\nname = c0\n", "[instructions]: "),
                            ("[instruction]\nname = c0\n", "[instruction]: ")):
            bad.write_text(text)
            code = cli.main(["gen-data", "--config", str(bad),
                             "--out", str(tmp_path / "o")])
            assert code == 1
            assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command,base_keys,args", [
        ("sample", "", ["--model", "BASE", "--concept", "c0", "--n", "2",
                        "--gamma", "1e300"]),
        ("train-base", "lr = 1e300\n", ["--data", "DATA"]),
    ], ids=["sample-gamma", "train-base-lr"])
    def test_overflow_is_one_numerical_error_line(self, pipeline, tmp_path,
                                                  capsys, command, base_keys,
                                                  args):
        """An overflow in the arithmetic gives NumPy no warning to print;
        the package's finiteness check reports it, in one line."""
        run = tmp_path / "run.ini"
        run.write_text(TINY_CONFIG.replace("[base]\n", "[base]\n" + base_keys))
        paths = {"BASE": pipeline["base"] / "base.ssrg",
                 "DATA": pipeline["data"] / "dataset.csv"}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([command, "--config", str(run),
                             *(str(paths.get(a, a)) for a in args),
                             "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical error: "), err
        assert [str(w.message) for w in caught] == []

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

    # Each edit gives the bad run's files, by name, from the good run's
    # parsed metrics.json.
    @pytest.mark.parametrize("edit", [
        None,
        lambda good: {"metrics.json": "{not json"},
        lambda good: {"metrics.json": json.dumps({"method": "x"})},
        lambda good: {"metrics.json": json.dumps(dict(good, report={}))},
        lambda good: {"metrics.json": json.dumps(dict(
            good, timeline={"iterations": [4, 8]}))},
        lambda good: {"metrics.json": json.dumps(dict(
            good, timeline={"iterations": [4, 8], "rates": [0.5]}))},
        lambda good: {"metrics.json": json.dumps(dict(good, method=5))},
        lambda good: {"metrics.json": json.dumps(good),
                      "loss.csv": "iteration,total\n1,abc\n"},
    ], ids=["no-metrics", "junk-json", "no-report", "empty-report",
            "timeline-without-rates", "timeline-lengths-differ",
            "non-string-method", "unreadable-loss-csv"])
    def test_bad_report_run_leaves_no_out_dir(self, pipeline, tmp_path, capsys,
                                              edit):
        bad = tmp_path / "bad_run"
        bad.mkdir()
        if edit is not None:
            good = json.loads((pipeline["eval"] / "metrics.json").read_text())
            for name, text in edit(good).items():
                (bad / name).write_text(text)
        code = cli.main(["report", "--runs", str(pipeline["eval"]), str(bad),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"run {bad}:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("snapshot,code", [("junk", 4), ("glyph-mode", 1),
                                               ("bad-iteration", 1)])
    def test_bad_timeline_snapshot_fails_before_sampling(
            self, pipeline, tmp_path, monkeypatch, capsys, snapshot, code):
        shutil.copytree(pipeline["erased"], tmp_path / "erased")
        bad = tmp_path / "erased" / "checkpoints" / "iter_9999.ssrg"
        if snapshot == "junk":
            bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        else:
            params, meta = persistence.read_checkpoint(bad.with_name(
                "iter_0004.ssrg"))
            edit = {"glyph-mode": {"mode": "glyphs16"},
                    "bad-iteration": {"iteration": "ten"}}[snapshot]
            persistence.write_checkpoint(params, dict(meta, **edit), bad)

        def no_sampling(*args, **kwargs):
            raise AssertionError("eval sampled before checking its snapshots")

        monkeypatch.setattr(cli, "_sample_batch", no_sampling)
        monkeypatch.setattr(cli.an, "consistency_endpoints", no_sampling)
        assert cli.main(["eval", "--config", str(pipeline["config"]),
                         "--base", str(pipeline["base"] / "base.ssrg"),
                         "--model", str(tmp_path / "erased" / "erased.ssrg"),
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
        ("sample", ["--model", "BASE", "--concept", "c0", "--n", "0"], "--n:"),
        ("eval", ["--base", "BASE", "--model", "ERASED", "--n", "0"], "--n:"),
        ("eval", ["--base", "BASE", "--model", "ERASED", "--drift-n", "1"],
         "--drift-n:"),
        ("eval", ["--base", "BASE", "--model", "ERASED", "--timeline-n", "0"],
         "--timeline-n:"),
        ("sweep-lambda", ["--base", "BASE", "--n", "0"], "--n:"),
        ("invert", ["--model", "BASE", "--data", "EMPTY"], "empty.csv:"),
        ("invert", ["--model", "BASE", "--data", "HEADER"], "no rows"),
    ], ids=["gen-data-n", "sample-n", "eval-n", "eval-drift-n",
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
                                     vocab.size), data)
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
            z_T = df.ddim_invert(x0[None], model, sched, sampler, c)[0]
            out = df.descend(z_T[None], sampler, sched, c, guid, 0)
            rel = float(np.linalg.norm(out[0] - x0)) / float(np.linalg.norm(x0))
            assert latents.labels[i] == c and recon[i]["label"] == str(c)
            assert np.abs(latents.samples[i] - z_T).max() \
                <= 1e-9 * np.abs(z_T).max()
            assert abs(float(recon[i]["rel_l2"]) - rel) <= 5e-6 * rel


def readme_command_lines():
    """The arguments of each `eraselab` line in the README's command-line
    section (its usage block and its typical pipeline): brackets dropped,
    S read as 0, lines continued with a backslash joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    blocks = "\n".join(section.split("```")[1::2]).replace("\\\n", " ")
    return [["0" if word == "S" else word
             for word in line.replace("[", "").replace("]", "").split()[1:]]
            for line in blocks.splitlines() if line.startswith("eraselab ")]


def test_readme_command_lines_parse():
    """The command-line counterpart of test_readme_example_config_loads:
    every command line the README shows is one the parser takes."""
    argvs = readme_command_lines()
    parser = cli.build_parser()
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README shows a line the parser rejects: "
                        f"eraselab {' '.join(argv)}")
    assert {argv[0] for argv in argvs} == \
        {command for command, _, _ in MANIFESTS} | {"inspect"}


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
