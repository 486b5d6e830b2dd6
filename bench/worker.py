"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED REP TRACE OUTDIR

Prints one JSON line: set-up time, the wall time of the timed part, the
items completed, the output check against bench/reference.json, peak RSS and,
with TRACE=1, calls and self time per traced function.  bench/run.py starts
one of these per repetition, so nothing memoised in one repetition can serve
the next.
"""

import time

_T0 = time.perf_counter()

import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, SRC)

import wahlkit
import wahlkit.cli

# setup_s: importing the package and its command-line module, nothing else.
SETUP_S = time.perf_counter() - _T0

import hashlib
import json
import random
import resource

from spans import Tracer

ORACLE_ELL_MAX = 6
ATLAS_MAX_LEN = 12
# Every depth appears equally often, so a seed moves which points are blown
# up but not how much work a repetition holds.
DIVISOR_DEPTHS = tuple(range(8, 41))
DIVISORS_PER_DEPTH = 12


def load_reference() -> dict:
    """The output values pinned from commit 0dd340e."""
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ----- oracle -----


def oracle_digests(outcomes) -> tuple[dict[str, list], str]:
    """Per-string [candidate count, sha256] and the digest over all outcomes.

    Built from (t, kind, internal, e_hits, checks, verdict) only, so fields
    added to CandidateOutcome.to_json() later do not change it.
    """
    lines: list[str] = []
    groups: dict[str, list[str]] = {}
    for o in outcomes:
        line = _compact([list(o.t), o.kind, list(o.internal), list(o.e_hits),
                         list(o.checks), o.verdict])
        lines.append(line)
        groups.setdefault(",".join(map(str, o.t)), []).append(line)
    per_string = {key: [len(rows), sha256("\n".join(rows))] for key, rows in groups.items()}
    return per_string, sha256("\n".join(lines))


def check_oracle(report, ref: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): a candidate fails when its string's digest differs."""
    per_string, digest = oracle_digests(report.outcomes)
    attempted = ref["candidates"]
    failed = 0
    for key, (count, want) in ref["strings"].items():
        if per_string.get(key, [0, None])[1] != want:
            failed += count
    failed += sum(n for key, (n, _) in per_string.items() if key not in ref["strings"])
    problems = []
    if not report.passed:
        problems.append("report.passed is False")
        failed = attempted
    bad = {str(ell): 0 for ell in range(1, ORACLE_ELL_MAX + 1)}
    for o in report.survivors_bad:
        bad[str(len(o.t))] += 1
    if bad != ref["survives_bad_by_length"]:
        problems.append(f"SURVIVES_BAD by length {bad} != {ref['survives_bad_by_length']}")
    if len(report.outcomes) != ref["candidates"]:
        problems.append(f"{len(report.outcomes)} candidates, expected {ref['candidates']}")
    if digest != ref["digest"]:
        problems.append("outcome digest differs from the reference")
    return attempted, min(failed, attempted), problems


def run_oracle(ref: dict) -> dict:
    start = time.perf_counter()
    report = wahlkit.badcurves.case_oracle(ORACLE_ELL_MAX)
    wall = time.perf_counter() - start
    attempted, failed, problems = check_oracle(report, ref)
    return {"wall_s": wall, "items": len(report.outcomes), "attempted": attempted,
            "failed": failed, "problems": problems,
            "sizes": {"ell_max": ORACLE_ELL_MAX, "strings": 2 ** ORACLE_ELL_MAX - 1,
                      "candidates": attempted}}


# ----- atlas -----


def atlas_digests(text: str) -> dict[str, list]:
    """Per-length [record count, sha256 of its lines]."""
    groups: dict[str, list[str]] = {}
    for line in text.splitlines():
        groups.setdefault(str(json.loads(line)["ell"]), []).append(line)
    return {ell: [len(rows), sha256("\n".join(rows))] for ell, rows in groups.items()}


def check_atlas(status: int, text: str, ref: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): a record fails when its length's digest differs."""
    attempted = ref["records"]
    if status != 0:
        return attempted, attempted, [f"atlas exited with status {status}"]
    per_length = atlas_digests(text)
    failed = sum(count for ell, (count, want) in ref["lengths"].items()
                 if per_length.get(ell, [0, None])[1] != want)
    failed += sum(n for ell, (n, _) in per_length.items() if ell not in ref["lengths"])
    problems = [] if sha256(text) == ref["sha256"] else ["JSONL sha256 differs from the reference"]
    return attempted, min(failed, attempted), problems


def run_atlas(outdir: str, ref: dict) -> dict:
    path = os.path.join(outdir, f"atlas-{os.getpid()}.jsonl")
    argv = ["atlas", "--max-len", str(ATLAS_MAX_LEN), "--out", path]
    try:
        start = time.perf_counter()
        status = wahlkit.cli.main(argv)
        wall = time.perf_counter() - start
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    finally:
        if os.path.exists(path):
            os.remove(path)
    attempted, failed, problems = check_atlas(status, text, ref)
    return {"wall_s": wall, "items": len(text.splitlines()), "attempted": attempted,
            "failed": failed, "problems": problems,
            "sizes": {"max_len": ATLAS_MAX_LEN, "strings": attempted, "records": attempted}}


# ----- divisors -----


def blowup_sequence(rng: random.Random, depth: int) -> tuple[list, dict]:
    """Blow-up points chosen over sorted vertex ids and sorted edge pairs.

    Returns the points ([v] for a generic point of v, [v, w] for the
    intersection of v and w) and the divisor they must produce, tracked here
    independently of wahlkit: each point lowers C**2 and raises K.C of the
    curves through it, and the new (-1)-curve takes the sum of their
    multiplicities.  Every edge stays simple, so the divisor is a tree.
    """
    curves = {1: [-1, -1, 1]}  # id -> [self_int, k_degree, mult]
    edges: set[tuple[int, int]] = set()
    points = []
    for _ in range(depth):
        ids, pairs = sorted(curves), sorted(edges)
        pick = rng.randrange(len(ids) + len(pairs))
        new = ids[-1] + 1
        if pick < len(ids):
            through = (ids[pick],)
        else:
            through = pairs[pick - len(ids)]
            edges.remove(through)
        for u in through:
            curves[u][0] -= 1
            curves[u][1] += 1
            edges.add((u, new))
        curves[new] = [-1, -1, sum(curves[u][2] for u in through)]
        points.append(list(through))
    expected = {
        "vertices": [[vid, *curves[vid]] for vid in sorted(curves)],
        "edges": [[a, b, 1] for a, b in sorted(edges)],
    }
    return points, expected


def divisor_inputs(seed: int) -> list[tuple[list, dict]]:
    rng = random.Random(seed)
    depths = [d for d in DIVISOR_DEPTHS for _ in range(DIVISORS_PER_DEPTH)]
    rng.shuffle(depths)
    return [blowup_sequence(rng, depth) for depth in depths]


def inputs_digest(inputs) -> str:
    return sha256(_compact([points for points, _ in inputs]))


def build_and_check_divisor(points: list):
    """The timed item: build the divisor, validate it, contract it highest-first."""
    cc = wahlkit.curveconfig
    c = cc.single_curve()
    for p in points:
        c = cc.blow_up(c, cc.GenericOn(p[0]) if len(p) == 1 else cc.Intersection(p[0], p[1]))
    report = cc.validate_zariski(c)
    trace = cc.contract_all(c, tie_break="highest")
    mults = (cc.derived_multiplicities(trace)
             if trace.status == cc.CONTRACTED_TO_POINT else None)
    return c, report, trace, mults


def check_divisor(c, report, trace, mults, expected: dict) -> list[str]:
    cc = wahlkit.curveconfig
    problems = []
    data = cc.config_to_json(c)
    got = {
        "vertices": sorted([v["id"], v["self_int"], v["k_degree"], v["mult"]]
                           for v in data["vertices"]),
        "edges": sorted([e["a"], e["b"], e["m"]] for e in data["edges"]),
    }
    if got != expected:
        problems.append("built divisor differs from the blow-up bookkeeping")
    if not report.passed:
        problems.append(f"validate_zariski failed: {report.failures}")
    # Every component has multiplicity >= 1, so validate_zariski freezes
    # nothing: its lowest-first contraction reaches a point only by
    # contracting every vertex, one per step, as the highest-first one must.
    n = len(expected["vertices"])
    if report.contraction_status != cc.CONTRACTED_TO_POINT:
        problems.append(f"lowest-first contraction: {report.contraction_status}")
    if trace.status != cc.CONTRACTED_TO_POINT or len(trace.steps) != n:
        problems.append(f"highest-first contraction: {trace.status} in {len(trace.steps)} steps")
    stored = {vid: mult for vid, _, _, mult in expected["vertices"]}
    if mults != stored:
        problems.append("derived multiplicities differ from the stored ones")
    return problems


def run_divisors(seed: int, ref: dict) -> dict:
    inputs = divisor_inputs(seed)
    latencies = []
    failed = 0
    problems: list[str] = []
    for points, expected in inputs:
        start = time.perf_counter()
        result = build_and_check_divisor(points)
        latencies.append(time.perf_counter() - start)
        item_problems = check_divisor(*result, expected)
        if item_problems:
            failed += 1
            problems += item_problems
    digest = inputs_digest(inputs)
    pinned = ref["input_digests"].get(str(seed))
    if pinned is not None and pinned != digest:
        problems.append(f"input digest for seed {seed} differs from the pinned one")
    return {"wall_s": sum(latencies), "items": len(inputs), "attempted": len(inputs),
            "failed": failed, "problems": problems[:10], "item_s": latencies,
            "input_digest": digest,
            "sizes": {"items": len(inputs), "depths": [DIVISOR_DEPTHS[0], DIVISOR_DEPTHS[-1]],
                      "per_depth": DIVISORS_PER_DEPTH}}


WORKLOADS = {
    "oracle": lambda seed, outdir, ref: run_oracle(ref),
    "atlas": lambda seed, outdir, ref: run_atlas(outdir, ref),
    "divisors": lambda seed, outdir, ref: run_divisors(seed, ref),
}


def main(argv: list[str]) -> int:
    workload, seed, rep, traced, outdir = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1", argv[4]
    if not os.path.abspath(wahlkit.__file__).startswith(SRC + os.sep):
        print(f"error: imported wahlkit from {wahlkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    ref = load_reference()[workload]
    tracer = None
    if traced:
        tracer = Tracer(f"{workload}-seed{seed}-rep{rep}")
        tracer.install()
    result = WORKLOADS[workload](seed, outdir, ref)
    result["setup_s"] = SETUP_S
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        result["bindings"] = tracer.bindings
        sizes = tracer.blow_down_vertices
        result["blow_down_vertices"] = [sum(sizes), len(sizes)]
        result["spans"] = len(tracer.spans)
        result["spans_file"] = os.path.join(outdir, f"spans-{workload}-rep{rep}.jsonl")
        tracer.write(result["spans_file"])
    print(_compact(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
