"""tools/bench_record.py: pairing, medians, quartiles and pairs won."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BENCHMARK = {
    "workloads": [{"name": "w"}, {"name": "unrun"}],
    "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower"}],
}


def write_runs(directory, walls, lines):
    directory.mkdir()
    for seed, wall in enumerate(walls):
        record = {"workload": "w", "seed": seed, "failed": 0,
                  "host": {"src_py_lines": lines},
                  "fingerprints": {"info": {"base.payload_sha256": f"h{seed}"}},
                  "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
        (directory / f"w-seed{seed}-trace0.json").write_text(json.dumps(record))
    # traced runs are not end-to-end measurements and are left out
    (directory / "w-seed0-trace1.json").write_text("not read")


def test_pairs_medians_and_wins(tmp_path):
    write_runs(tmp_path / "p", [10.0, 12.0, 11.0, 13.0, 9.0], 100)
    write_runs(tmp_path / "c", [9.0, 12.0, 10.0, 14.0, 8.0], 90)
    out = bench_record.build(tmp_path / "p", tmp_path / "c", BENCHMARK)
    assert out["parent_src_py_lines"] == 100 and out["change_src_py_lines"] == 90
    assert list(out["workloads"]) == ["w"]
    wl = out["workloads"]["w"]
    assert wl["seeds"] == [0, 1, 2, 3, 4]
    assert wl["correct"] == {"parent": True, "change": True}
    m = wl["metrics"]["wall_s"]
    assert m["parent_median"] == 11.0 and m["parent_quartiles"] == [10.0, 12.0]
    assert m["change_median"] == 10.0 and m["change_quartiles"] == [9.0, 12.0]
    assert (m["pairs"], m["pairs_won"], m["pairs_lost"]) == (5, 3, 1)
    assert not m["median_gap_exceeds_parent_iqr"]
    assert wl["payload_sha256"]["change"]["4"] == {"base.payload_sha256": "h4"}
    assert [r["seed"] for r in wl["records"]["parent"]] == [0, 1, 2, 3, 4]


def test_mixed_line_counts_are_refused(tmp_path):
    write_runs(tmp_path / "p", [1.0], 100)
    write_runs(tmp_path / "c", [1.0], 90)
    record = json.loads((tmp_path / "c" / "w-seed0-trace0.json").read_text())
    record["seed"], record["host"]["src_py_lines"] = 1, 91
    (tmp_path / "c" / "w-seed1-trace0.json").write_text(json.dumps(record))
    with pytest.raises(ValueError, match="src_py_lines"):
        bench_record.build(tmp_path / "p", tmp_path / "c", BENCHMARK)
