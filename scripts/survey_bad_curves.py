#!/usr/bin/env python3
"""Survey every candidate bad curve for chains up to a length.

Runs the exhaustive case oracle, prints the verdict and check tallies, lists
the surviving bad curves, and optionally dumps every examined candidate as
JSONL for downstream analysis.

Usage:
    python scripts/survey_bad_curves.py --max-len 6 --out outcomes.jsonl
"""

import argparse
import sys
import time
from collections import Counter

from wahlkit import case_oracle
from wahlkit.badcurves import ORACLE_LENGTH_CAP, SURVIVES_BAD, oracle_jsonl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-len", type=int, default=6)
    parser.add_argument("--out", default=None, help="write per-candidate JSONL here")
    args = parser.parse_args(argv)
    if not 1 <= args.max_len <= ORACLE_LENGTH_CAP:
        parser.error(f"--max-len must be in 1..{ORACLE_LENGTH_CAP}, got {args.max_len}")

    start = time.perf_counter()
    report = case_oracle(args.max_len)
    elapsed = time.perf_counter() - start

    print(f"examined {len(report.outcomes)} candidates in {elapsed:.2f} s")
    print(f"verdicts: {dict(Counter(o.verdict for o in report.outcomes))}")
    checks = Counter(c for o in report.outcomes for c in o.checks)
    for name, n in checks.most_common():
        print(f"  {name:<20} {n}")

    survivors = report.survivors_bad
    print(f"\n{len(survivors)} surviving bad curves:")
    by_ell = Counter(len(o.t) for o in survivors)
    for ell in sorted(by_ell):
        print(f"  ell={ell}: {by_ell[ell]}")
    for o in survivors:
        print(
            f"  {list(o.t)} {o.kind} internal={list(o.internal)} "
            f"e_hits={list(o.e_hits)} case={o.case}"
        )

    print(f"\nfamily [2,..,2,ell+3] survivors by length:")
    for fam in report.family_results:
        print(
            f"  ell={fam.ell}: corrected={fam.corrected_bad_survivors} "
            f"reversed={fam.reversed_bad_survivors}"
        )

    print(f"\noracle passed: {report.passed}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(oracle_jsonl(report)) + "\n")
        print(f"wrote {len(report.outcomes)} records to {args.out}")

    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
