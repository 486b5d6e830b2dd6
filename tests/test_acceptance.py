"""End-to-end acceptance checks: the headline facts the package must deliver.

Each test is self-contained: it states the fact, computes it from scratch
through the public API, and (where relevant) enforces a wall-clock budget.
"""

import hashlib
import random
import time
from collections import Counter
from fractions import Fraction

from helpers import all_pairs_self, census_blowdown_inputs, tstrings_to
from wahlkit import (
    CONTRACTED_TO_POINT,
    Curve,
    CurveConfig,
    Edge,
    GenericOn,
    Intersection,
    blow_down,
    blow_up,
    case_oracle,
    chain_determinant,
    checksum_ok,
    contract_all,
    derived_multiplicities,
    discrepancies,
    divisor_k,
    divisor_pairing,
    forbidden_patterns,
    hj_expand,
    iterated_blowdown_trace,
    max_p_B_p1,
    random_blowup,
    surface_examples,
    tstring_to_params,
    wahl_tstring,
)
from wahlkit.badcurves import oracle_jsonl
from wahlkit.bounds import HORIKAWA
from wahlkit.cli import main


def test_smallest_singularity_discrepancy_is_exact_and_fast():
    # 1/4(1,1) resolves to a single -4-sphere with discrepancy exactly -1/2
    assert discrepancies(wahl_tstring(2, 1)) == (Fraction(-1, 2),)
    best = min(
        _timed(lambda: discrepancies((4,)))[1] for _ in range(5)
    )
    assert best < 0.001, f"took {best * 1000:.3f} ms, budget 1 ms"


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def test_end_discrepancies_sum_to_minus_one_through_length_twelve():
    start = time.perf_counter()
    strings = list(tstrings_to(12))
    assert len(strings) == 4095
    for t in strings:
        a = discrepancies(t)
        assert a[0] + a[-1] == Fraction(-1)
        assert all(Fraction(-1) < x < Fraction(0) for x in a)
    elapsed = time.perf_counter() - start
    assert elapsed < 10, f"took {elapsed:.1f} s, budget 10 s"


def test_checksum_holds_for_every_string_through_length_twelve():
    count = 0
    for t in tstrings_to(12):
        assert checksum_ok(t)
        assert sum(x - 2 for x in t) == len(t) + 1
        count += 1
    assert count == 4095


def test_determinant_is_p_squared_and_parameters_roundtrip():
    for t in tstrings_to(12):
        params = tstring_to_params(t)
        assert abs(chain_determinant(t)) == params.p**2
        assert hj_expand(params.p**2, params.p * params.q - 1) == tuple(t)


def test_blowup_bookkeeping_reproduces_the_reference_configurations():
    base = CurveConfig.make(
        [Curve(1, -1, -1, 1, "F1"), Curve(2, -2, 0, 1, "F2")], [Edge(1, 2, 1)]
    )

    def rows(c):
        return [(v.id, v.self_int, v.k_degree, v.mult) for v in c.vertices]

    assert rows(blow_up(base, GenericOn(1))) == [
        (1, -2, 0, 1), (2, -2, 0, 1), (3, -1, -1, 1),
    ]
    assert rows(blow_up(base, GenericOn(2))) == [
        (1, -1, -1, 1), (2, -3, 1, 1), (3, -1, -1, 1),
    ]
    double = blow_up(base, Intersection(1, 2))
    assert rows(double) == [(1, -2, 0, 1), (2, -3, 1, 1), (3, -1, -1, 2)]
    assert blow_down(double, 3) == base


def test_thousand_random_exceptional_divisors_have_unimodular_invariants():
    rng = random.Random(20260816)
    for _ in range(1000):
        c = random_blowup(rng, rng.randint(1, 6))
        trace = contract_all(c)
        assert trace.status == CONTRACTED_TO_POINT
        mults = derived_multiplicities(trace)
        assert mults == {v.id: v.mult for v in c.vertices}
        final = trace.order[-1]
        for v in c.vertices:
            expected = -1 if v.id == final else 0
            assert divisor_pairing(c, mults, v.id) == expected
        assert all_pairs_self(c, mults) == -1
        assert divisor_k(c, mults) == -1


def test_iterated_blowdown_bound_with_equality_in_the_special_shape():
    # equality family: (-n, -1, -2, .., -2) contracted under a transverse curve
    for n in range(3, 9):
        out = iterated_blowdown_trace([-n, -1] + [-2] * (n - 2), kS=0)
        assert out.reduction == 2 * (n - 1)
    # the bound holds for every contractible chain on at most 8 spheres
    rows = census_blowdown_inputs(8)
    assert len(rows) > 100
    equality_shapes = 0
    for n, i, chain in rows:
        out = iterated_blowdown_trace(chain, kS=0)
        assert out.reduction >= 2 * (n - 1), (n, i, chain)
        if i == 2 and all(x == -2 for x in chain[2:]):
            equality_shapes += 1
            assert out.reduction == 2 * (n - 1)
    assert equality_shapes >= 6


def test_forbidden_patterns_are_flagged_for_every_string_through_length_ten():
    for t in tstrings_to(10):
        ell = len(t)
        for j in range(ell):
            v = [0] * ell
            v[j] = 1
            rep = forbidden_patterns(t, v)
            assert "PATTERN_SINGLE" in rep.failures
            assert "MAGIC_E" in rep.failures  # one hit never reaches -1
        if ell >= 2:
            v = [1] + [0] * (ell - 2) + [1]
            rep = forbidden_patterns(t, v)
            assert "PATTERN_ENDPOINTS" in rep.failures
            assert rep.pairing == Fraction(-1)
            assert "MAGIC_E" in rep.failures


def test_case_oracle_passes_at_length_six_with_no_family_survivors():
    report, elapsed = _timed(lambda: case_oracle(6))
    assert elapsed < 60, f"took {elapsed:.1f} s, budget 60 s"
    assert report.passed
    assert len(report.outcomes) == 8960
    survivors = report.survivors_bad
    by_ell = {}
    for o in survivors:
        by_ell[len(o.t)] = by_ell.get(len(o.t), 0) + 1
    assert by_ell == {3: 2, 4: 8, 5: 32, 6: 90}
    # every surviving bad curve respects 2n <= ell + 4
    assert [f for f in report.failures if f[0] == "SURVIVOR_BOUND"] == []
    assert max(
        (o.n_internal for o in survivors if len(o.t) == 6), default=0
    ) == 4
    # the no-bad-curve family and its reversal never carry a survivor
    for fam in report.family_results:
        assert fam.corrected_bad_survivors == 0
        assert fam.reversed_bad_survivors == 0


def test_case_oracle_regression_data_at_length_seven():
    # about 5 s on a 2-vCPU host; the budget only catches a blow-up in cost
    report, elapsed = _timed(lambda: case_oracle(7))
    assert elapsed < 120, f"took {elapsed:.1f} s, budget 120 s"
    assert report.passed
    assert len(report.outcomes) == 30464
    by_ell = Counter(len(o.t) for o in report.survivors_bad)
    assert by_ell == {3: 2, 4: 8, 5: 32, 6: 90, 7: 226}
    # the JSONL digest through length 7, in the same form as the length-five one below
    text = "\n".join(oracle_jsonl(report)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "32af8444c0c656b55781644056af641e9ece3c628132becb2e6348dff9da6594")


def test_case_oracle_regression_data_at_length_eight():
    # about 8 s on a 2-vCPU host; the budget only catches a blow-up in cost
    report, elapsed = _timed(lambda: case_oracle(8))
    assert elapsed < 120, f"took {elapsed:.1f} s, budget 120 s"
    assert report.passed
    assert len(report.outcomes) == 96768
    by_ell = Counter(len(o.t) for o in report.survivors_bad)
    assert by_ell == {3: 2, 4: 8, 5: 32, 6: 90, 7: 226, 8: 546}
    assert sum(o.verdict == "SURVIVES_GOOD" for o in report.outcomes) == 24
    lines = oracle_jsonl(report)
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3a0442319af28b7661b7815a9995eaafd5eb05a5051a7829fb93b04f043bad08")
    # the outcomes with ell <= 7 come first and are those of case_oracle(7)
    head = "\n".join(lines[:30464]) + "\n"
    assert hashlib.sha256(head.encode()).hexdigest() == (
        "32af8444c0c656b55781644056af641e9ece3c628132becb2e6348dff9da6594")


def test_case_oracle_jsonl_is_byte_identical_at_length_five():
    # "same behaviour" means byte-identical JSONL, not only equal counts; the
    # digest is of the oracle's JSONL output through length 5 as first pinned
    text = "\n".join(oracle_jsonl(case_oracle(5))) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "78ce31bfc36412a037443e365d584026239d6bc96ad33a24e33157e18e042481")


def test_atlas_output_is_byte_identical_through_length_twelve(capsys):
    # the digest of `wahlkit atlas --max-len 12` stdout, 4 095 records
    assert main(["atlas", "--max-len", "12"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1bb300438799e2d7579c71105761043987849b0c0d9deda0e7da475c24f3f62c")


def test_homology_ball_parameter_bound_and_horikawa_lengths():
    assert max_p_B_p1(5) == 12
    for n in range(2, 51):
        ex = surface_examples(HORIKAWA, n)
        assert 4 * ex.ell == ex.ksq + 2
        assert ex.ell <= 4 * ex.ksq + 7
