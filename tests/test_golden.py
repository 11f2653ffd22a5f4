"""Byte identity of a short fixed run against the digests in tests/golden.json."""

import importlib.util
import json
from pathlib import Path

import golden


def test_outputs_match_golden_digests(tmp_path):
    want = json.loads(golden.GOLDEN.read_text())
    got = golden.digests(tmp_path)
    changed = sorted(name for name in want["files"].keys() | got["files"].keys() if want["files"].get(name) != got["files"].get(name))
    for key in ("tape", "counts", "objectives"):
        if got[key] != want[key]:
            changed.append(f"{key} {got[key]} (recorded {want[key]})")
    if changed:
        env = golden.environment()
        cause = (
            "the code changed output bits or the work a step does"
            if env == want["environment"]
            else f"recorded under {want['environment']}, running under {env}: numpy, the BLAS or Python may account for it"
        )
        raise AssertionError(
            f"{len(changed)} outputs differ from tests/golden.json ({cause}): {', '.join(changed)}. "
            "If the change is meant, rerun scripts/update_golden.py and log it."
        )


def test_update_script_lists_each_changed_value():
    spec = importlib.util.spec_from_file_location("update_golden", Path(__file__).parents[1] / "scripts" / "update_golden.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    old = {"files": {"a.bin": "11", "b.bin": "22"}, "tape": {"full": {"nodes": 231}}, "counts": {"full": {"python_calls": 6905, "c_calls": 8062}}, "objectives": ["0x1p+0"]}
    new = {"files": {"a.bin": "11", "c.bin": "33"}, "tape": {"full": {"nodes": 230}}, "counts": {"full": {"python_calls": 3448, "c_calls": 8062}}, "objectives": ["0x1p+0", "0x1p+1"]}
    assert script.changes(old, new) == [
        "counts.full.python_calls: 6905 -> 3448",
        "files.b.bin: 22 -> (none)",
        "files.c.bin: (none) -> 33",
        "objectives.1: (none) -> 0x1p+1",
        "tape.full.nodes: 231 -> 230",
    ]
    assert script.changes(new, new) == []
