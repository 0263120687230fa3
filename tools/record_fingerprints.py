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

OpenBLAS picks its kernels per CPU, and some values move with the kernel.
With --kernel NAME it also reruns the pipeline in a child process under
OPENBLAS_CORETYPE=NAME, prints for each artifact how many values differ
from this process's run and their largest relative shift, and the payload
hashes that differ, and writes nothing. A rounding change can then tell
that noise from its own effect:

    python3 tools/record_fingerprints.py --kernel Haswell
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
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


def _relative(old, new):
    """The relative shift of two numbers, or None if either is not a
    number or old is zero."""
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return None
    return (b - a) / abs(a) if a != 0.0 else None


def _shift(old, new) -> str:
    """' (+1.2e-05)': the relative shift of two numbers, or ''."""
    shift = _relative(old, new)
    return "" if shift is None else f" ({shift:+.3g})"


def _moved(old_artifact, new_artifact, name):
    """(where, old value, new value) for every value of one artifact that
    differs between two records; '(none)' stands for a value one lacks."""
    before = dict(_leaves(old_artifact, name))
    after = dict(_leaves(new_artifact, name))
    for where in {**after, **before}:
        was, value = before.get(where, "(none)"), after.get(where, "(none)")
        if was != value or type(was) is not type(value):
            yield where, was, value


def _hashes_changed(old: dict, new: dict) -> str:
    old_hashes, new_hashes = old["payload_sha256"], new["payload_sha256"]
    moved = [name for name in {**old_hashes, **new_hashes}
             if old_hashes.get(name) != new_hashes.get(name)]
    return f"{len(moved)} payload hashes changed" \
        + (": " + ", ".join(moved) if moved else "")


def changes(old: dict, new: dict) -> list:
    """Report lines for every artifact value and payload hash that differs
    between two fingerprint records; an artifact new or gone as a whole
    takes one line."""
    lines = []
    for name, artifact in new["artifacts"].items():
        if name not in old["artifacts"]:
            lines.append(f"  {name}: added")
            continue
        lines += [f"  {where}: {was!r} -> {value!r}{_shift(was, value)}"
                  for where, was, value
                  in _moved(old["artifacts"][name], artifact, name)]
    lines += [f"  {name}: removed" for name in old["artifacts"]
              if name not in new["artifacts"]]
    lines.insert(0, f"{len(lines)} artifact changes"
                 + (":" if lines else ""))
    return lines + [_hashes_changed(old, new)]


def kernel_noise(old: dict, new: dict) -> list:
    """Report lines for two records of the same code under two OpenBLAS
    kernels: per artifact, how many values differ and the largest relative
    shift among them, then the payload hashes that differ."""
    lines, total = [], 0
    for name, artifact in new["artifacts"].items():
        moved = list(_moved(old["artifacts"][name], artifact, name))
        if moved:
            total += len(moved)
            shifts = [abs(s) for s in (_relative(was, value)
                                       for _, was, value in moved)
                      if s is not None]
            lines.append(f"  {name}: {len(moved)} values, largest relative "
                         f"shift {max(shifts):.2g}" if shifts else
                         f"  {name}: {len(moved)} values, none a number")
    return [f"{total} values differ in {len(lines)} artifacts"
            + (":" if lines else "")] + lines + [_hashes_changed(old, new)]


def _record_under(kernel: str) -> dict:
    """The record of a run of this script in a child process whose OpenBLAS
    uses kernel."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "fingerprints.json")
        subprocess.run([sys.executable, os.path.abspath(__file__), "--out", out],
                       env=dict(os.environ, OPENBLAS_CORETYPE=kernel),
                       check=True, stdout=subprocess.DEVNULL)
        with open(out) as fh:
            return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(test_cli.FINGERPRINTS))
    ap.add_argument("--kernel", help="rerun the pipeline under this OpenBLAS "
                    "kernel, list what moved, and write nothing")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        paths = test_cli.run_pipeline(Path(tmp))
        fingerprints = test_cli.pipeline_fingerprints(paths["root"])
    if args.kernel:
        print(f"under {args.kernel}, against this process's kernel:")
        print("\n".join(kernel_noise(fingerprints,
                                     _record_under(args.kernel))))
        return 0
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
