"""tools/record_fingerprints.py: the lists of what moved between records."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "record_fingerprints.py"
_spec = importlib.util.spec_from_file_location("record_fingerprints", TOOL)
record_fingerprints = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_fingerprints)

OLD = {"artifacts": {"a.csv": [["x", "y"], ["1", "2.0"], ["3", "4.0"]],
                     "b.csv": [["label", "v"], ["c0", "0.5"]],
                     "m.json": {"rate": 0.25, "method": "ours"}},
       "payload_sha256": {"base.ssrg": "h1", "erased.ssrg": "h2"}}


def edited(*edits):
    """A copy of OLD with each (artifact, key, ..., value) edit applied."""
    new = json.loads(json.dumps(OLD))
    for name, *keys, value in edits:
        node = new["artifacts"][name]
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return new


def test_kernel_noise_counts_values_and_their_largest_shift():
    new = edited(("a.csv", 1, 1, "2.000002"), ("a.csv", 2, 1, "3.9"),
                 ("b.csv", 1, 0, "c1"))
    new["payload_sha256"]["erased.ssrg"] = "h3"
    assert record_fingerprints.kernel_noise(OLD, new) == [
        "3 values differ in 2 artifacts:",
        "  a.csv: 2 values, largest relative shift 0.025",
        "  b.csv: 1 values, none a number",
        "1 payload hashes changed: erased.ssrg"]


def test_kernel_noise_of_equal_records():
    assert record_fingerprints.kernel_noise(OLD, edited()) == [
        "0 values differ in 0 artifacts", "0 payload hashes changed"]


def test_changes_lists_every_value():
    new = edited(("m.json", "rate", 0.5))
    assert record_fingerprints.changes(OLD, new) == [
        "1 artifact changes:", "  m.json.rate: 0.25 -> 0.5 (+1)",
        "0 payload hashes changed"]
