#!/usr/bin/env python3
"""Artifact reproduction gate.

Compares a freshly generated artifacts directory against the committed one:
every committed spec artifact (<spec>.json with its <spec>.csv) must have a
fresh counterpart, each JSON must be equal with only the provenance
`source` field ignored, and each CSV must be byte-identical.  Files that
only a traced run writes (*.trace_summary.json) are skipped.

  usage: tools/check_artifacts.py FRESH_DIR [COMMITTED_DIR]

Regenerate the fresh side with
  mcs_exp --figure all --trials 2000 --seed 1 --out FRESH_DIR --quiet
"""
import json
import pathlib
import sys


def main() -> int:
    if len(sys.argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fresh = pathlib.Path(sys.argv[1])
    committed = pathlib.Path(sys.argv[2] if len(sys.argv) == 3 else "artifacts")
    specs = sorted(p.stem for p in committed.glob("*.json")
                   if not p.name.endswith(".trace_summary.json"))
    if not specs:
        print(f"check_artifacts: no artifacts in {committed}", file=sys.stderr)
        return 2
    bad = []
    for spec in specs:
        json_name, csv_name = f"{spec}.json", f"{spec}.csv"
        if not (fresh / json_name).is_file():
            bad.append(f"{json_name}: not regenerated")
            continue
        want = json.loads((committed / json_name).read_text())
        got = json.loads((fresh / json_name).read_text())
        want.pop("source", None)
        got.pop("source", None)
        if want != got:
            bad.append(f"{json_name}: differs from the regenerated artifact")
        if (committed / csv_name).is_file() and (
                not (fresh / csv_name).is_file()
                or (committed / csv_name).read_bytes()
                != (fresh / csv_name).read_bytes()):
            bad.append(f"{csv_name}: differs from the regenerated artifact")
    for line in bad:
        print(f"check_artifacts: {line}", file=sys.stderr)
    if bad:
        return 1
    print(f"check_artifacts: {len(specs)} spec(s) reproduce")
    return 0


if __name__ == "__main__":
    sys.exit(main())
