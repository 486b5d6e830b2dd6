"""Command-line front end: expand, atlas, oracle, blowdown, verify.

  expand P Q        print the T-string and discrepancies of one singularity
  atlas             enumerate all T-strings up to a length and emit JSONL
  oracle            survey every candidate bad curve up to a length
  blowdown FILE     contract a curve configuration and print the trace
  verify            run the built-in regression checks

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
All output is deterministic; JSONL is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from typing import Callable

from . import bounds
from .badcurves import (
    ORACLE_LENGTH_CAP,
    CandidateOutcome,
    JointRecord,
    OracleFailure,
    case_oracle,
    forbidden_patterns,
    interior_hit_contradiction,
    oracle_jsonl,
    unbroken_checks,
)
from .curveconfig import (
    CONTRACTED_TO_POINT,
    SW_VIOLATION,
    Curve,
    CurveConfig,
    Edge,
    GenericOn,
    Intersection,
    blow_down,
    blow_up,
    chain_config,
    contract_all,
    iterated_blowdown_trace,
    load_config,
    random_blowup,
    trace_jsonl_lines,
    validate_zariski,
)
from .discrepancy import (
    atlas_line,
    chain_determinant,
    discrepancies,
    validate_discrepancies,
)
from .tstring import (
    DEFAULT_LENGTH_CAP,
    WahlParams,
    _wahl_length,
    enumerate_tstrings,
    tstring_to_params,
    wahl_tstring,
)


def _emit(lines: list[str], out_path: str | None) -> bool:
    """Write lines to out_path, or stdout when it is None; False if the file cannot be written."""
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
        return True
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return False
    return True


def _max_len_ok(max_len: int, cap: int) -> bool:
    if 1 <= max_len <= cap:
        return True
    print(f"error: --max-len must be in 1..{cap}, got {max_len}", file=sys.stderr)
    return False


# The longest T-string `expand` builds: the q = 1 string of p has p - 1
# entries, so without a cap a large P would exhaust memory.
EXPAND_LENGTH_CAP = 100_000


def cmd_expand(args: argparse.Namespace) -> int:
    try:
        params = WahlParams(args.p, args.q)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ell = _wahl_length(params.p, params.q)
    if ell > EXPAND_LENGTH_CAP:
        print(f"error: the T-string of ({params.p}, {params.q}) has length {ell}, "
              f"above the cap of {EXPAND_LENGTH_CAP}", file=sys.stderr)
        return 2
    # |det| = p^2 is the largest integer printed; str() and json.loads refuse
    # one longer than the interpreter's limit (0: none), which main() must not
    # change because it runs in-process in tests and the benchmark
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and params.p * params.p >= 10**limit:
        print(f"error: p^2 has more than {limit} digits, Python's limit for printing "
              "an integer", file=sys.stderr)
        return 2
    line = atlas_line(wahl_tstring(params))
    if args.json:
        print(line)
        return 0
    record = json.loads(line)
    print(f"T-string: {record['b']}")
    print(f"p = {record['p']}, q = {record['q']}, ell = {record['ell']}")
    print(f"discrepancies: {', '.join(record['discrepancies'])}")
    print(f"|det| = {record['det']} = p^2")
    print(f"checksum ok: {record['checksum_ok']}")
    return 0


def cmd_atlas(args: argparse.Namespace) -> int:
    if not _max_len_ok(args.max_len, DEFAULT_LENGTH_CAP):
        return 2
    levels = enumerate_tstrings(args.max_len).values()
    lines = [atlas_line(b) for level in levels for b in sorted(level)]
    if not _emit(lines, args.out):
        return 1
    if args.out is not None:
        print(f"wrote {len(lines)} records to {args.out}")
    return 0


def _row(o: CandidateOutcome) -> str:
    return f"{list(o.t)} {o.kind} internal={list(o.internal)} e_hits={list(o.e_hits)}"


def _failure_line(failure: OracleFailure) -> str:
    """One failed oracle cross-check: its name, what it is about, and why."""
    check, subject, reason = failure
    if isinstance(subject, CandidateOutcome):
        what = _row(subject)
    elif isinstance(subject, JointRecord):
        what = (f"{list(subject.t)} B1 internal={list(subject.b1_internal)} "
                f"B2 internal={list(subject.b2_internal)} product={subject.product}")
    else:
        what = f"ell={subject.ell}"
    return f"{check} {what}: {reason}"


def cmd_oracle(args: argparse.Namespace) -> int:
    if not _max_len_ok(args.max_len, ORACLE_LENGTH_CAP):
        return 2
    report = case_oracle(args.max_len)
    print(f"examined {len(report.outcomes)} candidates")
    print(f"verdicts: {dict(Counter(o.verdict for o in report.outcomes))}")
    for name, n in Counter(c for o in report.outcomes for c in o.checks).most_common():
        print(f"  {name:<20} {n}")
    survivors = report.survivors_bad
    print(f"\n{len(survivors)} surviving bad curves:")
    for ell, n in sorted(Counter(len(o.t) for o in survivors).items()):
        print(f"  ell={ell}: {n}")
    for o in survivors:
        print(f"  {_row(o)} case={o.case}")
    print("\nfamily [2,..,2,ell+3] survivors by length:")
    for fam in report.family_results:
        print(f"  ell={fam.ell}: corrected={fam.corrected_bad_survivors} "
              f"reversed={fam.reversed_bad_survivors}")
    print()
    for failure in report.failures:
        print(_failure_line(failure))
    print(f"oracle passed: {report.passed}")
    if args.out is not None:
        if not _emit(oracle_jsonl(report), args.out):
            return 1
        print(f"wrote {len(report.outcomes)} records to {args.out}")
    return 0 if report.passed else 1


def cmd_blowdown(args: argparse.Namespace) -> int:
    if args.out is not None and not args.json:
        print("error: --out writes the JSONL trace and needs --json", file=sys.stderr)
        return 2
    try:
        config = load_config(args.config)
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"error: {args.config}: line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(f"error: {args.config}: invalid configuration: {exc}", file=sys.stderr)
        return 2
    trace = contract_all(config)
    if args.json:
        return 0 if _emit(trace_jsonl_lines(trace), args.out) else 1
    stages = trace.stages()
    next(stages)  # the initial config
    for k, (step, (curves, _)) in enumerate(zip(trace.steps, stages), start=1):
        remaining = ", ".join(
            f"{v.label or v.id}({v.self_int},{v.k_degree})" for _, v in sorted(curves.items())
        )
        print(f"step {k}: blow down {step.vertex}; remaining: {remaining or '(none)'}")
        for w in step.violations:
            print(f"  violation at {w.vertex}: ({w.self_int}, {w.k_degree}) {w.rule}")
    print(f"status: {trace.status} after {len(trace.steps)} steps")
    return 0


# ----- verify: named regression checks -----


def _check_expand_base(rng: random.Random) -> list[str]:
    fails = []
    if wahl_tstring(2, 1) != (4,):
        fails.append(f"wahl_tstring(2,1) = {list(wahl_tstring(2, 1))}, expected [4]")
    if discrepancies((4,)) != (Fraction(-1, 2),):
        fails.append(f"discrepancies([4]) = {discrepancies((4,))}")
    return fails


def _check_expand_values(rng: random.Random) -> list[str]:
    expected = {
        (3, 1): (5, 2),
        (3, 2): (2, 5),
        (5, 2): (3, 5, 2),
        (5, 3): (2, 5, 3),
        (4, 1): (6, 2, 2),
        (4, 3): (2, 2, 6),
    }
    fails = []
    for (p, q), b in expected.items():
        got = wahl_tstring(p, q)
        if got != b:
            fails.append(f"wahl_tstring({p},{q}) = {list(got)}, expected {list(b)}")
        back = tstring_to_params(b)
        if (back.p, back.q) != (p, q):
            fails.append(f"tstring_to_params({list(b)}) = {back}, expected ({p},{q})")
    return fails


def _check_q1_family(rng: random.Random) -> list[str]:
    fails = []
    for n in range(2, 8):
        got = wahl_tstring(n, 1)
        want = tuple([n + 2] + [2] * (n - 2))
        if got != want:
            fails.append(f"wahl_tstring({n},1) = {list(got)}, expected {list(want)}")
    return fails


def _check_kawamata(rng: random.Random) -> list[str]:
    fails = []
    for ell, strings in enumerate_tstrings(10).items():
        for t in strings:
            a = discrepancies(t)
            problems = validate_discrepancies(t, a)
            if problems:
                fails.append(f"{list(t)}: {problems}")
    return fails


def _check_determinant(rng: random.Random) -> list[str]:
    fails = []
    for ell, strings in enumerate_tstrings(10).items():
        for t in strings:
            p = tstring_to_params(t).p
            if abs(chain_determinant(t)) != p * p:
                fails.append(f"{list(t)}: |det| != p^2")
    return fails


def _reference_configs() -> dict[str, CurveConfig]:
    base = CurveConfig.make(
        [Curve(1, -1, -1, 1, "F1"), Curve(2, -2, 0, 1, "F2")], [Edge(1, 2, 1)]
    )
    return {
        "base": base,
        "generic_on_minus_one": blow_up(base, GenericOn(1), label="F3"),
        "generic_on_minus_two": blow_up(base, GenericOn(2), label="F3"),
        "intersection": blow_up(base, Intersection(1, 2), label="F3"),
    }


def _check_references(rng: random.Random) -> list[str]:
    figs = _reference_configs()
    fails = []
    expected = {
        "base": [(1, -1, -1, 1), (2, -2, 0, 1)],
        "generic_on_minus_one": [(1, -2, 0, 1), (2, -2, 0, 1), (3, -1, -1, 1)],
        "generic_on_minus_two": [(1, -1, -1, 1), (2, -3, 1, 1), (3, -1, -1, 1)],
        "intersection": [(1, -2, 0, 1), (2, -3, 1, 1), (3, -1, -1, 2)],
    }
    for name, rows in expected.items():
        got = [(v.id, v.self_int, v.k_degree, v.mult) for v in figs[name].vertices]
        if got != rows:
            fails.append(f"{name}: {got} != {rows}")
        if not validate_zariski(figs[name]).passed:
            fails.append(f"{name}: divisor validation failed")
    if blow_down(figs["intersection"], 3) != figs["base"]:
        fails.append("blowing the intersection point back down does not restore base")
    return fails


def _check_sw(rng: random.Random) -> list[str]:
    fails = []
    trace = contract_all(chain_config([-2, -1, -2]))
    if trace.status != SW_VIOLATION:
        fails.append(f"chain (-2,-1,-2): {trace.status}, expected SW_VIOLATION")
    trace = contract_all(chain_config([-3, -1, -2]))
    if trace.status != CONTRACTED_TO_POINT:
        fails.append(f"chain (-3,-1,-2): {trace.status}, expected CONTRACTED_TO_POINT")
    return fails


def _check_iterated(rng: random.Random) -> list[str]:
    fails = []
    for n in range(3, 7):
        chain = [-n, -1] + [-2] * (n - 2)
        out = iterated_blowdown_trace(chain, kS=0)
        if out.reduction != 2 * (n - 1):
            fails.append(f"special chain n={n}: reduction {out.reduction}")
    return fails


def _check_random_divisors(rng: random.Random) -> list[str]:
    fails = []
    for k in range(50):
        c = random_blowup(rng, rng.randint(1, 6))
        report = validate_zariski(c)
        if not report.passed:
            fails.append(f"sequence {k}: {report.failures}")
    return fails


def _check_patterns(rng: random.Random) -> list[str]:
    fails = []
    if "PATTERN_SINGLE" not in forbidden_patterns((4,), [1]).failures:
        fails.append("single hit on [4] not flagged")
    if "PATTERN_ENDPOINTS" not in forbidden_patterns((3, 5, 2), [1, 0, 1]).failures:
        fails.append("endpoints on [3,5,2] not flagged")
    rep = forbidden_patterns((5, 2), [1, 1])
    if rep.failures != ("PATTERN_ENDPOINTS", "MAGIC_E"):
        fails.append(f"[5,2] v=(1,1): failures={rep.failures}")
    clean = forbidden_patterns((3, 5, 2), [1, 1, 0])
    if clean.failures:
        fails.append(f"[3,5,2] v=(1,1,0): failures={clean.failures}")
    if not unbroken_checks((5, 2), [1, 1]).passed:
        fails.append("[5,2] v=(1,1) should pass the budget checks")
    if unbroken_checks((4,), [3]).passed:
        fails.append("[4] v=(3,) should fail the equality clause")
    return fails


def _check_oracle(rng: random.Random) -> list[str]:
    return [_failure_line(f) for f in case_oracle(4).failures]


def _check_interior_hits(rng: random.Random) -> list[str]:
    fails = []
    for n in range(3, 7):
        for i in range(2, n):
            if interior_hit_contradiction(n, i).status != SW_VIOLATION:
                fails.append(f"interior hit n={n} i={i} not contradicted")
    return fails


def _check_headline(rng: random.Random) -> list[str]:
    fails = []
    if bounds.max_p_B_p1(5) != 12:
        fails.append(f"max_p_B_p1(5) = {bounds.max_p_B_p1(5)}, expected 12")
    if bounds.general_bound(5) != 27 or bounds.general_bound(1) != 11:
        fails.append("general bound values wrong")
    if bounds.special_bound(5) != 11:
        fails.append("special bound value wrong")
    ex = bounds.surface_examples(bounds.DEGREE_D_IN_P3, 5)
    if (ex.ksq, ex.p_g) != (5, 4):
        fails.append(f"degree-5 example: ksq={ex.ksq} p_g={ex.p_g}")
    h3 = bounds.surface_examples(bounds.HORIKAWA, 3)
    if (h3.ksq, h3.b_plus, h3.ell) != (6, 5, 2):
        fails.append(f"H(3) example: {h3}")
    return fails


def _check_chain(rng: random.Random) -> list[str]:
    fails = []
    tight = bounds.inequality_chain(5, 27, 16)
    if not tight.feasible:
        fails.append("ksq=5, ell=27, p=16 should be feasible (tight)")
    if bounds.length_feasible(5, 28):
        fails.append("ksq=5, ell=28 should be infeasible for every p")
    if not bounds.inequality_chain(1, 0, 0).feasible:
        fails.append("ell=0 should be trivially feasible")
    return fails


VERIFY_CHECKS: list[tuple[str, Callable[[random.Random], list[str]]]] = [
    ("tstring.expand.base", _check_expand_base),
    ("tstring.expand.values", _check_expand_values),
    ("tstring.family.q1", _check_q1_family),
    ("discrepancy.kawamata", _check_kawamata),
    ("discrepancy.determinant", _check_determinant),
    ("curveconfig.reference", _check_references),
    ("curveconfig.sw", _check_sw),
    ("curveconfig.iterated_blowdown", _check_iterated),
    ("curveconfig.random_divisors", _check_random_divisors),
    ("badcurves.patterns", _check_patterns),
    ("badcurves.oracle", _check_oracle),
    ("badcurves.interior_hits", _check_interior_hits),
    ("bounds.headline", _check_headline),
    ("bounds.chain", _check_chain),
]


def cmd_verify(args: argparse.Namespace) -> int:
    selected = [
        (name, fn) for name, fn in VERIFY_CHECKS if args.filter in name
    ]
    if not selected:
        print(f"error: no checks match filter {args.filter!r}", file=sys.stderr)
        return 2
    results = []
    for name, fn in selected:
        failures = fn(random.Random(args.seed))
        results.append({"check": name, "ok": not failures, "failures": failures})
    if args.json:
        for row in results:
            print(json.dumps(row, separators=(",", ":")))
    else:
        width = max(len(r["check"]) for r in results)
        for row in results:
            print(f"{row['check']:<{width}}  {'ok' if row['ok'] else 'FAIL'}")
            for msg in row["failures"]:
                print(f"  - {msg}")
        bad = sum(1 for r in results if not r["ok"])
        print(f"{len(results) - bad}/{len(results)} checks passed")
    return 0 if all(r["ok"] for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wahlkit",
        description="Combinatorics of Wahl singularity resolution chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="T-string and discrepancies of 1/p^2(pq-1,1)")
    p_expand.add_argument("p", type=int)
    p_expand.add_argument("q", type=int)
    p_expand.add_argument("--json", action="store_true", help="emit one JSON record")
    p_expand.set_defaults(func=cmd_expand)

    p_atlas = sub.add_parser("atlas", help="enumerate all T-strings up to a length")
    p_atlas.add_argument("--max-len", type=int, default=6, help="largest length (<= %d)" % DEFAULT_LENGTH_CAP)
    p_atlas.add_argument("--out", default=None, help="write JSONL here instead of stdout")
    p_atlas.set_defaults(func=cmd_atlas)

    p_oracle = sub.add_parser("oracle", help="survey every candidate bad curve up to a length")
    p_oracle.add_argument("--max-len", type=int, default=6, help="largest length (<= %d)" % ORACLE_LENGTH_CAP)
    p_oracle.add_argument("--out", default=None, help="also write one JSONL record per candidate here")
    p_oracle.set_defaults(func=cmd_oracle)

    p_blow = sub.add_parser("blowdown", help="contract a configuration file")
    p_blow.add_argument("config", help="configuration JSON file")
    p_blow.add_argument("--json", action="store_true", help="emit the trace as JSONL")
    p_blow.add_argument(
        "--out", default=None, help="with --json, write JSONL here instead of stdout"
    )
    p_blow.set_defaults(func=cmd_blowdown)

    p_verify = sub.add_parser("verify", help="run the built-in regression checks")
    p_verify.add_argument("--filter", default="", help="run only checks whose name contains this")
    p_verify.add_argument("--json", action="store_true", help="emit one JSON record per check")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for the randomized checks")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
