#!/usr/bin/env python3
"""Rewrite tests/golden.json, the byte-identity digests of a short fixed run.

Run from anywhere in a checkout, after a change that moves output bits on
purpose, and log the change with its reason:

    python3 scripts/update_golden.py
"""

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import golden  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        record = golden.write(work)
    print(f"wrote {len(record['files'])} file digests and the tape counts {record['tape']} to {golden.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
