#!/usr/bin/env python3
"""Rewrite tests/golden.json, the byte-identity digests of a short fixed run.

Run from anywhere in a checkout, after a change that moves output bits on
purpose, and log the change with its reason:

    python3 scripts/update_golden.py

It prints every recorded value it changes (environment, file digests, tape
counts, objective values) as ``key: old -> new``, the lines to log.
"""

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import golden  # noqa: E402


def flatten(record, prefix="") -> dict:
    """Dotted key -> leaf value of a nested record (list items keyed by index)."""
    if isinstance(record, (dict, list)):
        items = record.items() if isinstance(record, dict) else enumerate(record)
        return {key: value for k, v in items for key, value in flatten(v, f"{prefix}{k}.").items()}
    return {prefix.rstrip("."): record}


def changes(old: dict, new: dict) -> list:
    """``key: old -> new`` for every value that differs, a missing side shown as (none)."""
    before, after = flatten(old), flatten(new)
    return [
        f"{key}: {before.get(key, '(none)')} -> {after.get(key, '(none)')}"
        for key in sorted(before.keys() | after.keys())
        if before.get(key) != after.get(key)
    ]


def main() -> int:
    old = json.loads(golden.GOLDEN.read_text()) if golden.GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        record = golden.write(work)
    lines = changes(old, json.loads(golden.GOLDEN.read_text()))
    for line in lines:
        print(line)
    print(f"wrote {len(record['files'])} file digests and the tape counts {record['tape']} to {golden.GOLDEN}: {len(lines)} values changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
