#!/usr/bin/env python3
"""Checks that a merged sharded run equals the unsharded run.

Usage: check_shard_union.py FULL.json --merged MERGED.json

MERGED.json is a document merged from shard runs (by
`sweep_orchestrator`, or by `sweep_orchestrator --merge-only` over
--shard/--cells documents); FULL.json is the unsharded --json run.
The documents must be bit-identical in canonical form (sorted keys)
after stripping timing keys.

Timing keys — the only fields allowed to differ — are "runs_per_sec",
"orchestration" (the elastic orchestrator's lease/straggler report:
pure scheduling facts), and any key containing "wall", "seconds", or
"speedup". This mirrors core::is_timing_key in src/core/report.cpp;
keep the two in sync.
"""
import difflib
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def is_timing_key(key):
    return (key == "runs_per_sec" or key == "orchestration"
            or "wall" in key or "seconds" in key or "speedup" in key)


def strip_timing(obj):
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items()
                if not is_timing_key(k)}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def canonical(doc):
    return json.dumps(strip_timing(doc), sort_keys=True, indent=1)


def check_merged(full_path, merged_path):
    want = canonical(load(full_path))
    got = canonical(load(merged_path))
    if want == got:
        print(f"{merged_path} is bit-identical to {full_path} "
              f"modulo timing keys")
        return
    diff = difflib.unified_diff(
        want.splitlines(), got.splitlines(),
        fromfile=full_path, tofile=merged_path, lineterm="")
    shown = list(diff)[:60]
    print("\n".join(shown))
    raise SystemExit(
        f"FAIL: {merged_path} differs from {full_path} "
        f"(timing keys already excluded)")


def main():
    if len(sys.argv) != 4 or sys.argv[2] != "--merged":
        raise SystemExit(__doc__)
    check_merged(sys.argv[1], sys.argv[3])


if __name__ == "__main__":
    main()
