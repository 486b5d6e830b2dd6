"""Tests of the benchmark itself: span arithmetic, wrapping and output checks.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import shutil
import subprocess
import sys

import pytest

import run
import worker
from spans import SPAN_NAMES, Tracer, self_times

import wahlkit
import wahlkit.badcurves
import wahlkit.cli
import wahlkit.curveconfig

REFERENCE = worker.load_reference()


def test_self_time_subtracts_children_on_a_synthetic_nest():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9] > d [6, 7], e [6.5, 8]
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 5.0, 9.0, 0),
        ("d", 6.0, 7.0, 3),
        ("e", 6.5, 8.0, 3),  # overlaps d: the covered part is [6, 8], counted once
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(1, 397)]
    assert run.tail(values) == ("p97", 385.0)
    assert run.tail(values[:10]) == ("max", 10.0)


def test_wrapping_reaches_every_importing_namespace():
    tracer = Tracer("test")
    tracer.install()
    try:
        for mod, attr in [(wahlkit.curveconfig, "contract_all"), (wahlkit.badcurves, "contract_all"),
                          (wahlkit.cli, "contract_all"), (wahlkit.cli, "discrepancies"),
                          (wahlkit, "discrepancies"), (wahlkit.badcurves, "canonical_pairing")]:
            assert hasattr(getattr(mod, attr), "__wrapped__"), f"{mod.__name__}.{attr}"
        assert all(tracer.bindings[name] >= 1 for name in SPAN_NAMES)
        wahlkit.badcurves.case_oracle(3)
    finally:
        tracer.uninstall()
    assert not hasattr(wahlkit.badcurves.contract_all, "__wrapped__")
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    # contract_all is called from badcurves through its own binding
    assert calls["curveconfig.contract_all"] == calls["badcurves.examine_candidate"] > 0
    assert calls["discrepancy.canonical_pairing"] == calls["badcurves.examine_candidate"]


def test_atlas_under_tracing_calls_no_curveconfig_or_badcurves(tmp_path):
    tracer = Tracer("test")
    tracer.install()
    try:
        assert wahlkit.cli.main(["atlas", "--max-len", "4", "--out", str(tmp_path / "a.jsonl")]) == 0
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["tstring.tstring_to_params"]["calls"] == 2 * 15
    assert all(row["calls"] == 0 for name, row in summary.items()
               if name.startswith(("curveconfig.", "badcurves.")))


@pytest.fixture(scope="module")
def oracle_report():
    return wahlkit.badcurves.case_oracle(worker.ORACLE_ELL_MAX)


def test_oracle_check_passes_on_this_commit(oracle_report):
    attempted, failed, problems = worker.check_oracle(oracle_report, REFERENCE["oracle"])
    assert (attempted, failed, problems) == (8960, 0, [])


def test_flipping_one_oracle_verdict_makes_the_error_rate_nonzero(oracle_report):
    outcomes = list(oracle_report.outcomes)
    k = next(i for i, o in enumerate(outcomes) if o.verdict == "SURVIVES_BAD")
    outcomes[k] = dataclasses.replace(outcomes[k], verdict="DIES")
    corrupted = dataclasses.replace(oracle_report, outcomes=tuple(outcomes))
    attempted, failed, problems = worker.check_oracle(corrupted, REFERENCE["oracle"])
    assert failed / attempted > 0
    assert problems


def test_atlas_check_counts_a_corrupted_record(tmp_path):
    path = tmp_path / "atlas.jsonl"
    assert wahlkit.cli.main(["atlas", "--max-len", str(worker.ATLAS_MAX_LEN), "--out", str(path)]) == 0
    text = path.read_text()
    assert worker.check_atlas(0, text, REFERENCE["atlas"]) == (4095, 0, [])
    corrupted = text.replace('"det":25,', '"det":26,', 1)
    assert corrupted != text
    attempted, failed, problems = worker.check_atlas(0, corrupted, REFERENCE["atlas"])
    assert 0 < failed < attempted and problems


def test_divisor_inputs_are_pinned_and_match_the_blow_up_bookkeeping():
    inputs = worker.divisor_inputs(1)
    assert worker.inputs_digest(inputs) == REFERENCE["divisors"]["input_digests"]["1"]
    assert sorted(len(points) for points, _ in inputs) == sorted(
        d for d in worker.DIVISOR_DEPTHS for _ in range(worker.DIVISORS_PER_DEPTH))
    for points, expected in inputs[:20]:
        assert worker.check_divisor(*worker.build_and_check_divisor(points), expected) == []


def test_a_wrong_multiplicity_fails_the_divisor_check():
    points, expected = worker.divisor_inputs(1)[0]
    c, report, trace, mults = worker.build_and_check_divisor(points)
    mults = dict(mults)
    mults[max(mults)] += 1
    assert worker.check_divisor(c, report, trace, mults, expected)


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "atlas", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
