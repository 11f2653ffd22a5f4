"""Byte identity of a short fixed run against the digests in tests/golden.json."""

import json

import golden


def test_outputs_match_golden_digests(tmp_path):
    want = json.loads(golden.GOLDEN.read_text())
    got = golden.digests(tmp_path)
    changed = sorted(name for name in want["files"].keys() | got["files"].keys() if want["files"].get(name) != got["files"].get(name))
    for key in ("tape", "objectives"):
        if got[key] != want[key]:
            changed.append(f"{key} {got[key]} (recorded {want[key]})")
    if changed:
        env = golden.environment()
        cause = (
            "the code changed output bits"
            if env == want["environment"]
            else f"recorded under {want['environment']}, running under {env}: numpy or the BLAS may account for it"
        )
        raise AssertionError(
            f"{len(changed)} outputs differ from tests/golden.json ({cause}): {', '.join(changed)}. "
            "If the change is meant, rerun scripts/update_golden.py and log it."
        )
