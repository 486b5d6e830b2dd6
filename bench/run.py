"""wahlkit benchmark: one workload, closed loop, one client.

    python3 bench/run.py --workload oracle|atlas|divisors --seed N --seconds S --trace 0|1

Each repetition runs in a fresh interpreter (bench/worker.py), one after
another, for about S seconds and at least MIN_REPS repetitions.  With
--trace 0 the last line of output reports the end-to-end metrics; with
--trace 1 untraced and traced repetitions alternate and it reports calls and
self time per layer, the ratios and the tracing overhead.  Every output is
checked against bench/reference.json; the exit code is 1 when a check fails
and 2 when the wahlkit sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"

MIN_REPS = 3
REP_TIMEOUT_S = 150

ABOUT = {
    "oracle": "case_oracle over every candidate bad curve; exhaustive, the seed does not change the inputs",
    "atlas": "wahlkit atlas writing one JSONL record per T-string; exhaustive, the seed does not change the inputs",
    "divisors": "exceptional divisors from seeded blow-up sequences, each validated and contracted",
}

# Layers that must read zero calls on a workload; a nonzero count means the
# wrapping or the workload is not what the benchmark claims.
PREDICTED_ZERO = {
    "atlas": ("curveconfig.", "badcurves."),
    "divisors": ("discrepancy.", "badcurves."),
}

TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 97.0, 96.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def tail(values: list[float]) -> tuple[str, float]:
    """The highest ladder percentile with at least ten samples beyond it (nearest rank).

    With ten samples or fewer no percentile qualifies, and the maximum is reported.
    """
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return f"p{p:g}", xs[rank - 1]
    return "max", xs[-1]


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class RepFailed(RuntimeError):
    pass


def run_rep(workload: str, seed: int, rep: int, traced: bool) -> dict:
    cmd = [sys.executable, str(WORKER), workload, str(seed), str(rep),
           "1" if traced else "0", str(OUT.relative_to(ROOT))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"repetition {rep} timed out after {REP_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RepFailed(f"repetition {rep} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def slow_end(values: list[float]) -> float:
    """p95 of a run's per-repetition times, interpolated between samples.

    On a shared host, repetitions switch between a contended and an
    uncontended speed for tens of seconds at a time.  The contended level
    recurs in every run, so runs agree on the slow end; their medians flip
    between the two levels.  p95 rather than the maximum keeps one stalled
    repetition from setting the figure.
    """
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(workload: str, reps: list[dict]) -> tuple[dict, dict]:
    """(metrics, notes) from the untraced repetitions."""
    over = f"p95 of {len(reps)} repetitions"
    items = reps[0]["items"]
    wall = slow_end([r["wall_s"] for r in reps])
    if workload == "divisors":
        # items are timed one by one: per-repetition p50 and tail
        count = len(reps[0]["item_s"])
        label = tail(reps[0]["item_s"])[0]
        p50 = slow_end([statistics.median(r["item_s"]) for r in reps]) * 1e3
        tail_ms = slow_end([tail(r["item_s"])[1] for r in reps]) * 1e3
        p50_note = f"p50 of {count} items per repetition, {over}"
        tail_note = f"{label} of {count} items per repetition, {over}"
    else:
        # The job is one call, so from outside only each repetition's mean
        # item time is seen.  Too few repetitions leave ten beyond any
        # percentile, so the tail is their maximum.
        p50 = wall / items * 1e3
        tail_ms = max(r["wall_s"] for r in reps) / items * 1e3
        p50_note = f"mean item time per repetition, {over}"
        tail_note = f"mean item time per repetition, max of {len(reps)} repetitions"
    metrics = {
        "wall_s": (wall, "s"),
        "items_per_s": (items / wall, "1/s"),
        "item_p50_ms": (p50, "ms"),
        "item_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }
    notes = {
        "wall_s": over,
        "items_per_s": f"{items} items per repetition / wall_s",
        "item_p50_ms": p50_note,
        "item_tail_ms": tail_note,
        "setup_s": f"import of wahlkit in each fresh interpreter, median of {len(reps)}",
        "peak_rss_mb": f"ru_maxrss of each repetition's process, median of {len(reps)}",
    }
    return metrics, notes


def per_layer(workload: str, plain: list[dict], traced: list[dict]) -> tuple[dict, dict, list[str]]:
    """(metrics, notes, problems) from the traced repetitions."""
    problems = []
    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    first = traced[0]["layers"]
    for name, row in first.items():
        if any(r["layers"][name]["calls"] != row["calls"] for r in traced):
            problems.append(f"{name}: call count differs between repetitions")
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(r["layers"][name]["self_s"] for r in traced), "s")
        if traced[0]["bindings"][name] < 1:
            problems.append(f"{name}: no binding was wrapped")
    for prefix in PREDICTED_ZERO.get(workload, ()):
        for name, row in first.items():
            if name.startswith(prefix) and row["calls"]:
                problems.append(f"{name}: {row['calls']} calls, predicted 0 on {workload}")

    def ratio(label: str, num: float, den: float, unit: str, base: str) -> None:
        metrics[label] = (num / den if den else 0.0, unit)
        notes[label] = f"{num:g} / {den:g} {base}"

    sizes = traced[0]["sizes"]
    ratio("discrepancy.discrepancies.per_string", first["discrepancy.discrepancies"]["calls"],
          sizes.get("strings", 0), "calls/string", "distinct T-strings")
    ratio("tstring.tstring_to_params.per_record", first["tstring.tstring_to_params"]["calls"],
          sizes.get("records", 0), "calls/record", "JSONL records")
    ratio("curveconfig.make.per_blow_down", first["curveconfig.CurveConfig.make"]["calls"],
          first["curveconfig.blow_down"]["calls"], "calls/call", "blow_down calls")
    total, count = traced[0]["blow_down_vertices"]
    ratio("curveconfig.blow_down.vertices_mean", total, count, "vertices",
          "configs passed to blow_down")

    traced_wall = slow_end([r["wall_s"] for r in traced])
    plain_wall = slow_end([r["wall_s"] for r in plain])
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    notes["trace.overhead_s"] = (f"p95 of traced minus p95 of untraced walls, "
                                 f"{len(traced)} + {len(plain)} repetitions "
                                 f"({(traced_wall / plain_wall - 1) * 100:.1f}%)")
    if workload == "oracle":
        notes["badcurves.pair_product.calls"] = (
            "coverage fact: no compatible B1+B2 survivor pair exists at this length")
    return metrics, notes, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ABOUT))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wahlkit" / "__init__.py").is_file():
        print(f"error: no wahlkit sources at {ROOT / 'src' / 'wahlkit'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for old in OUT.glob(f"spans-{args.workload}-rep*.jsonl"):
        old.unlink()

    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    rounds: list[float] = []
    try:
        # Stop before a round that would, at the median pace so far, end past
        # the deadline, so a run lasts about --seconds however long a round is.
        while len(plain) < MIN_REPS or (
                time.perf_counter() + statistics.median(rounds) <= start + args.seconds):
            round_start = time.perf_counter()
            plain.append(run_rep(args.workload, args.seed, len(plain), False))
            if args.trace:
                traced.append(run_rep(args.workload, args.seed, len(traced), True))
            rounds.append(time.perf_counter() - round_start)
    except RepFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = sorted({p for r in reps for p in r["problems"]})
    if args.trace:
        metrics, notes, trace_problems = per_layer(args.workload, plain, traced)
        problems += trace_problems
    else:
        metrics, notes = end_to_end(args.workload, plain)
    correct = failed == 0 and not problems

    print(f"workload {args.workload}: {ABOUT[args.workload]}")
    print(f"closed loop, one client: {len(plain)} untraced and {len(traced)} traced "
          f"repetitions, each in a fresh interpreter, one after another; seed {args.seed}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<42} {value:>14.6g} {unit}{note}")
    print(f"  {'error_rate':<42} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} items failed their output check)")
    for p in problems:
        print(f"  check failed: {p}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_changes_inputs": args.workload == "divisors",
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "sizes": plain[0]["sizes"],
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "rep_wall_s": {"untraced": [r["wall_s"] for r in plain],
                       "traced": [r["wall_s"] for r in traced]},
        "rep_setup_s": [r["setup_s"] for r in plain],
        "error_rate": failed / attempted,
        "notes": notes,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if args.workload == "divisors":
        record["input_digest"] = plain[0]["input_digest"]
    if traced:
        record["spans_files"] = [r["spans_file"] for r in traced]
    print(json.dumps({"record": record}, separators=(",", ":")))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
