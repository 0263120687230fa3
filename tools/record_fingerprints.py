"""Re-record tests/fingerprints.json from a fresh run of the test pipeline.

Runs the tiny seeded points pipeline of tests/test_cli.py (run_pipeline) in
a temporary directory and writes the numbers that
TestFingerprints compares, plus each checkpoint's payload sha256 for
information. Besides its default erase run, the pipeline erases the same
base four more times (test_cli.ERASE_VARIANTS): with the esd loss, with an
explicit replacement concept, with the sdd loss, and with the sega warmup,
weight decay and only embed, w3 and b3 trainable, so their loss.csv and
payloads are recorded too. Run it from the repository root after a change that alters
the arithmetic on purpose, and say in the change's notes how far each
value moved:

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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(test_cli.FINGERPRINTS))
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        paths = test_cli.run_pipeline(Path(tmp))
        fingerprints = test_cli.pipeline_fingerprints(paths["root"])
    with open(args.out, "w") as fh:
        json.dump(fingerprints, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
