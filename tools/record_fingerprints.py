"""Re-record tests/fingerprints.json from a fresh run of the test pipeline.

Runs the tiny seeded pipeline of tests/test_cli.py (run_pipeline) in
a temporary directory and writes the numbers that
TestFingerprints compares, plus each checkpoint's payload sha256 for
information. Besides its default erase run, the pipeline erases the same
base four more times (test_cli.ERASE_VARIANTS): with the esd loss, with an
explicit replacement concept, with the sdd loss, and with the sega warmup,
weight decay and only embed, w3 and b3 trainable, so their loss.csv and
payloads are recorded too. It then runs gen-data through invert once more
on glyphs16 with a narrow net (test_cli.GLYPH_CONFIG), under glyphs/.

Before it overwrites the output file, it compares the new record against
the old one and prints every value that moved (old -> new, with the
relative shift when both are numbers) and every payload hash that moved.
Run it from the repository root after a change that alters the arithmetic
on purpose, and quote that table in the change's notes:

    python3 tools/record_fingerprints.py [--out tests/fingerprints.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import test_cli  # noqa: E402


def _leaves(tree, where=""):
    """(path, value) for every scalar of a parsed JSON tree, in file order."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaves(value, f"{where}.{key}" if where else key)
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from _leaves(value, f"{where}[{i}]")
    else:
        yield where, tree


def _shift(old, new) -> str:
    """' (+1.2e-05)': the relative shift of two numbers, or '' if either
    is not a number or old is zero."""
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return ""
    return f" ({(b - a) / abs(a):+.3g})" if a != 0.0 else ""


def changes(old: dict, new: dict) -> list:
    """Report lines for every artifact value and payload hash that differs
    between two fingerprint records; an artifact new or gone as a whole
    takes one line."""
    lines = []
    for name, artifact in new["artifacts"].items():
        if name not in old["artifacts"]:
            lines.append(f"  {name}: added")
            continue
        before = dict(_leaves(old["artifacts"][name], name))
        after = dict(_leaves(artifact, name))
        for where, value in after.items():
            was = before.get(where, "(none)")
            if was != value or type(was) is not type(value):
                lines.append(f"  {where}: {was!r} -> {value!r}"
                             f"{_shift(was, value)}")
        lines += [f"  {where}: {value!r} -> (none)"
                  for where, value in before.items() if where not in after]
    lines += [f"  {name}: removed" for name in old["artifacts"]
              if name not in new["artifacts"]]
    lines.insert(0, f"{len(lines)} artifact changes"
                 + (":" if lines else ""))
    old_hashes, new_hashes = old["payload_sha256"], new["payload_sha256"]
    moved = [name for name in {**old_hashes, **new_hashes}
             if old_hashes.get(name) != new_hashes.get(name)]
    lines.append(f"{len(moved)} payload hashes changed"
                 + (": " + ", ".join(moved) if moved else ""))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(test_cli.FINGERPRINTS))
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        paths = test_cli.run_pipeline(Path(tmp))
        fingerprints = test_cli.pipeline_fingerprints(paths["root"])
    if os.path.exists(args.out):
        with open(args.out) as fh:
            old = json.load(fh)
        print(f"against the previous {args.out}:")
        print("\n".join(changes(old, fingerprints)))
    with open(args.out, "w") as fh:
        json.dump(fingerprints, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
