#!/usr/bin/env python3
"""Compares a bench JSON document's row schedule hashes with a golden list.

Usage: check_schedule_hashes.py BENCH.json GOLDEN [--update]

GOLDEN holds one line per row, "<section> <index> <schedule_hash>". Every row's schedule_hash is the hash of the step stream
that cell executed, so any difference — a changed, missing or extra row —
means the executed schedules moved. Exits 1 on any difference and names
each one. --update rewrites GOLDEN from the document instead (for a
change that is meant to move the step stream; say so in its review).
"""
import json
import sys


def rows(doc):
    """(section, index, schedule_hash) for every row, in document order."""
    out = []
    for section in doc.get("sections", []):
        for row in section.get("rows", []):
            if "schedule_hash" in row:
                out.append((section["name"], str(row["index"]),
                            row["schedule_hash"]))
    return out


def main():
    args = [a for a in sys.argv[1:] if a != "--update"]
    if len(args) != 2:
        raise SystemExit(__doc__)
    bench_path, golden_path = args
    with open(bench_path) as handle:
        actual = rows(json.load(handle))
    if not actual:
        raise SystemExit(f"FAIL {bench_path}: no rows carry a schedule_hash")
    if "--update" in sys.argv:
        with open(golden_path, "w") as handle:
            handle.writelines(" ".join(r) + "\n" for r in actual)
        print(f"wrote {len(actual)} schedule hashes to {golden_path}")
        return

    with open(golden_path) as handle:
        golden = [tuple(line.split()) for line in handle if line.strip()]
    want = {r[:2]: r[2] for r in golden}
    got = {r[:2]: r[2] for r in actual}
    failures = []
    for key, value in want.items():
        if key not in got:
            failures.append(f"missing row {key[0]} #{key[1]}")
        elif got[key] != value:
            failures.append(f"row {key[0]} #{key[1]}: schedule_hash "
                            f"{got[key]}, golden {value}")
    failures += [f"extra row {k[0]} #{k[1]}" for k in got if k not in want]
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"schedule hashes: {len(actual)} rows checked against "
          f"{len(golden)} golden, {len(failures)} differences")
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
