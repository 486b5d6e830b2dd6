#!/usr/bin/env python3
"""Build the atlas of all T-strings up to a length, with summary statistics.

Writes one validated JSON record per string (parameters, entries, exact
discrepancies, determinant) and prints per-length counts alongside the
extremes of the singularity parameter p.

Usage:
    python scripts/build_atlas.py --max-len 10 --out atlas.jsonl
"""

import argparse
import json
import sys
from collections import Counter

from wahlkit import DEFAULT_LENGTH_CAP, atlas_record, enumerate_tstrings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-len", type=int, default=10)
    parser.add_argument("--out", default=None, help="JSONL target (default stdout)")
    args = parser.parse_args(argv)
    if not 1 <= args.max_len <= DEFAULT_LENGTH_CAP:
        parser.error(f"--max-len must be in 1..{DEFAULT_LENGTH_CAP}, got {args.max_len}")

    levels = enumerate_tstrings(args.max_len)
    lines = []
    counts = Counter()
    p_extremes = {}
    for ell in sorted(levels):
        for b in sorted(tuple(t) for t in levels[ell]):
            record = atlas_record(b)
            lines.append(json.dumps(record, separators=(",", ":")))
            counts[ell] += 1
            p = record["p"]
            lo, hi = p_extremes.get(ell, (p, p))
            p_extremes[ell] = (min(lo, p), max(hi, p))

    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    print(f"# {len(lines)} strings through length {args.max_len}", file=sys.stderr)
    for ell in sorted(counts):
        lo, hi = p_extremes[ell]
        print(
            f"#   ell={ell:2d}: {counts[ell]:5d} strings, p in [{lo}, {hi}]",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
