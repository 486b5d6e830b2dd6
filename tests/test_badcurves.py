"""Bad-curve classification, the forbidden patterns, and the case oracle."""

import dataclasses
import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    eager_contract_all,
    eager_examine_candidate,
    reference_case,
    reference_classify,
    scan_staged_checks,
)
from wahlkit import (
    BadCurveClass,
    CandidateOutcome,
    ChainIncidence,
    Curve,
    CurveConfig,
    Edge,
    TString,
    case_oracle,
    classify,
    enumerate_candidates,
    enumerate_tstrings,
    examine_candidate,
    forbidden_patterns,
    interior_hit_contradiction,
    max_bad_curves,
    pair_product,
    type_bounds,
    unbroken_checks,
)
from wahlkit import badcurves
from wahlkit.badcurves import (
    CYCLE,
    DIES,
    DISCONNECTED_STAGE,
    MAGIC_E,
    MAGIC_FULL,
    MULTI_EDGE,
    NO_MINUS_ONE,
    PATTERN_ENDPOINTS,
    PATTERN_SINGLE,
    SURVIVES_BAD,
    SURVIVES_GOOD,
    THREE_NEIGHBOR,
    _candidate_parts,
    _e_parts,
    _shape,
    _tracked_shape_checks,
    build_candidate_config,
    staged_structure_checks,
)
from wahlkit.curveconfig import (
    SW_VIOLATION,
    _shape_scan,
    connects,
    contract_all,
    random_blowup,
    shape_faults,
)


class TestForbiddenPatterns:
    def test_single_hit(self):
        rep = forbidden_patterns((4,), [1])
        assert rep.patterns == (PATTERN_SINGLE,)
        assert not rep.pairing_ok and not rep.ok

    def test_endpoint_hits(self):
        rep = forbidden_patterns((3, 5, 2), [1, 0, 1])
        assert rep.patterns == (PATTERN_ENDPOINTS,)
        assert rep.pairing == Fraction(-1)
        assert not rep.pairing_ok

    def test_both_patterns_at_length_two(self):
        # at ell = 2 a single endpoint hit is just a single hit; two endpoint
        # hits are the endpoint pattern
        assert forbidden_patterns((2, 5), [1, 0]).patterns == (PATTERN_SINGLE,)
        assert forbidden_patterns((2, 5), [1, 1]).patterns == (PATTERN_ENDPOINTS,)

    def test_clean_incidence(self):
        rep = forbidden_patterns((3, 5, 2), [1, 1, 0])
        assert rep.patterns == ()
        assert rep.pairing == Fraction(-7, 5)
        assert rep.pairing_ok and rep.ok

    def test_double_hit_on_one_sphere_is_not_the_single_pattern(self):
        rep = forbidden_patterns((3, 5, 2), [2, 0, 0])
        assert rep.patterns == ()
        assert rep.pairing == Fraction(-6, 5)
        assert rep.pairing_ok

    def test_rejects_malformed_vectors(self):
        with pytest.raises(ValueError):
            forbidden_patterns((3, 5, 2), [1, 0])
        with pytest.raises(ValueError):
            forbidden_patterns((3, 5, 2), [1, -1, 1])


class TestUnbrokenChecks:
    def test_passing_vector(self):
        rep = unbroken_checks((5, 2), [1, 1])
        assert rep.passed
        assert rep.total == 2 and rep.total_ok
        assert rep.entry_failures == ()

    def test_budget_per_entry(self):
        rep = unbroken_checks((4,), [3])  # only v <= b - 2 = 2 allowed
        assert not rep.passed
        assert rep.entry_failures == (1,)

    def test_the_minus_two_equality_clause(self):
        # on a -2-sphere the budget b - 2 = 0 still allows exactly one hit
        assert unbroken_checks((2, 5), [1, 1]).passed
        assert not unbroken_checks((2, 5), [2, 0]).passed

    def test_total_must_be_at_least_two(self):
        rep = unbroken_checks((4,), [1])
        assert not rep.passed
        assert not rep.total_ok


class TestChainIncidence:
    def test_valid(self):
        t = TString((3, 5, 2))
        inc = ChainIncidence(t, (0, 1, 0), frozenset({1}), (1,))
        assert inc.total == 1

    def test_rejects_bad_shapes(self):
        t = TString((3, 5, 2))
        with pytest.raises(ValueError):
            ChainIncidence(t, (0, 1), frozenset(), ())
        with pytest.raises(ValueError):
            ChainIncidence(t, (0, 1, 0), frozenset({4}), ())
        with pytest.raises(ValueError):
            ChainIncidence(t, (0, 1, 0), frozenset(), (1, 2, 3))
        with pytest.raises(ValueError):
            ChainIncidence(t, (0, 1, 0), frozenset(), (2, 1))


def _string_of_length(ell):
    return TString(tuple([2] * (ell - 1) + [ell + 3]))


class TestClassify:
    def test_good(self):
        t = TString((3, 5, 2))
        assert classify(ChainIncidence(t, (1, 1, 0), frozenset(), ())).kind == "GOOD"

    def test_type_a(self):
        t = _string_of_length(5)
        inc = ChainIncidence(t, (0, 0, 1, 0, 0), frozenset({1, 4, 5}), (1, 4))
        got = classify(inc)
        assert got == BadCurveClass("A", x_prime=1, x=1, y=4, y_prime=4)

    def test_type_b1(self):
        t = _string_of_length(5)
        inc = ChainIncidence(t, (0, 0, 1, 0, 0), frozenset({1, 2}), (2, 4))
        assert classify(inc) == BadCurveClass("B1", x_prime=2, x=2, y_prime=4)
        inc2 = ChainIncidence(t, (0, 0, 1, 0, 0), frozenset({1, 2}), (2,))
        assert classify(inc2) == BadCurveClass("B1", x_prime=2, x=2, y_prime=None)

    def test_type_b2(self):
        t = _string_of_length(5)
        inc = ChainIncidence(t, (0, 0, 1, 0, 0), frozenset({4, 5}), (2, 5))
        assert classify(inc) == BadCurveClass("B2", x_prime=2, y=4, y_prime=5)

    def test_rejects_impossible_incidences(self):
        t = _string_of_length(5)
        with pytest.raises(ValueError):
            classify(ChainIncidence(t, (0, 0, 0, 0, 0), frozenset({1}), (1,)))
        with pytest.raises(ValueError):  # internal not an end-interval
            classify(ChainIncidence(t, (0, 0, 1, 0, 0), frozenset({2, 3}), (2,)))
        with pytest.raises(ValueError):  # total 1 with no internal spheres
            classify(ChainIncidence(t, (0, 1, 0, 0, 0), frozenset(), (2,)))
        with pytest.raises(ValueError):  # A-shape with both hits on one side
            classify(ChainIncidence(t, (0, 0, 1, 0, 0), frozenset({1, 5}), (1, 1)))

    def test_rejects_the_whole_chain(self):
        # a bad curve leaves at least one chain sphere external
        for ell in range(1, 6):
            t = _string_of_length(ell)
            v = (1,) + (0,) * (ell - 1)
            whole = frozenset(range(1, ell + 1))
            with pytest.raises(ValueError, match="internal .* is not the end-intervals"):
                classify(ChainIncidence(t, v, whole, (1,)))
        with pytest.raises(ValueError, match="not the end-intervals"):
            classify(ChainIncidence(TString((3, 5, 2)), (0, 0, 1), frozenset({1, 2, 3}), (1,)))

    def test_matches_the_reference_on_every_enumerated_shape(self):
        for ell in range(1, 8):
            t = _string_of_length(ell)
            v = (0,) * (ell - 1) + (1,)
            for kind, internal, hits in enumerate_candidates(ell):
                inc = ChainIncidence(t, v, frozenset(internal), hits)
                got = classify(inc)
                assert got == reference_classify(inc), (kind, internal, hits)
                assert got.kind == kind

    def test_type_a_index_validation(self):
        with pytest.raises(ValueError):
            BadCurveClass("A", x_prime=2, x=1, y=4, y_prime=4)
        with pytest.raises(ValueError):
            BadCurveClass("A", x_prime=1, x=3, y=4, y_prime=5)  # gap too small
        with pytest.raises(ValueError):
            BadCurveClass("WEIRD")


class TestTypeBounds:
    def test_single_type_budget(self):
        assert type_bounds(4, n_a=4).a_ok
        assert not type_bounds(4, n_a=5).a_ok
        assert type_bounds(4, n_b1=4).b1_ok
        assert not type_bounds(4, n_b2=5).b2_ok

    def test_joint_budget(self):
        assert type_bounds(5, n_b1=3, n_b2=2).joint_ok
        assert not type_bounds(5, n_b1=3, n_b2=3).joint_ok

    def test_p_max_prefers_type_a(self):
        rep = type_bounds(9, n_a=3, n_b1=2, n_b2=1)
        assert rep.p_max == 3
        assert type_bounds(9, n_b1=2, n_b2=1).p_max == 3

    def test_max_bad_curves(self):
        assert max_bad_curves(1) == 3
        assert max_bad_curves(3) == 4
        assert max_bad_curves(6) == 5
        assert max_bad_curves(27) == 16

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            type_bounds(0)
        with pytest.raises(ValueError):
            type_bounds(3, n_a=-1)
        with pytest.raises(ValueError):
            max_bad_curves(0)


class TestEnumerateCandidates:
    def test_internal_intervals_are_proper(self):
        # a bad curve leaves at least one chain sphere external, so a
        # single-sphere chain admits no candidates at all
        assert enumerate_candidates(1) == []
        rows = enumerate_candidates(2)
        assert ("B1", (1,), (1,)) in rows
        assert ("B1", (1,), (1, 1)) in rows
        assert ("B2", (2,), (2,)) in rows
        assert all(internal != (1, 2) for _, internal, _ in rows)
        assert all(kind != "A" for kind, _, _ in rows)

    def test_type_a_needs_a_gap(self):
        rows = enumerate_candidates(3)
        a_rows = [r for r in rows if r[0] == "A"]
        assert a_rows == [("A", (1, 3), (1, 3))]

    def test_all_internals_are_end_intervals(self):
        for kind, internal, hits in enumerate_candidates(5):
            assert internal == tuple(sorted(internal))
            if kind == "B1":
                assert internal[0] == 1
            if kind == "B2":
                assert internal[-1] == 5


class TestExamineCandidate:
    def test_endpoint_joiner_dies_by_pattern(self):
        out = examine_candidate((3, 5, 2), "A", (1, 3), (1, 3))
        assert out.case == "A5"
        assert out.verdict == DIES
        assert PATTERN_ENDPOINTS in out.checks

    def test_known_survivor_length_three(self):
        out = examine_candidate((2, 5, 3), "B1", (1,), (1, 2))
        assert out.verdict == SURVIVES_BAD
        assert out.case == "B1.1"
        assert out.badness == 1
        assert out.checks == ()

    def test_known_survivor_length_four(self):
        out = examine_candidate((2, 3, 5, 3), "B1", (1,), (1, 3))
        assert out.verdict == SURVIVES_BAD
        assert out.badness == 1

    def test_single_hit_always_dies(self):
        for t in enumerate_tstrings(4)[4]:
            out = examine_candidate(tuple(t), "B1", (1,), (1,))
            assert out.verdict == DIES
            assert PATTERN_SINGLE in out.checks

    def test_magic_full_on_a_contracted_candidate(self):
        # contracts to a point, but the discrepancy pairing of the whole
        # divisor lands exactly on -1, which is not strictly below it
        out = examine_candidate((2, 5, 3), "B1", (1,), (1, 3))
        assert out.verdict == DIES
        assert MAGIC_FULL in out.checks
        assert out.mults is not None and out.badness == 1

    def test_strictly_interior_joiners_die_with_certificate(self):
        # the first length admitting hits strictly inside both intervals is 7:
        # internal {1,2,3} + {5,6,7}, e meeting C_2 and C_6
        for t in enumerate_tstrings(7)[7]:
            out = examine_candidate(tuple(t), "A", (1, 2, 3, 5, 6, 7), (2, 6))
            assert out.case == "A1"
            assert out.verdict == DIES
            assert {THREE_NEIGHBOR, NO_MINUS_ONE} & set(out.checks), out

    def test_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="kind must be 'A', 'B1' or 'B2', got 'Q'"):
            examine_candidate((2, 5, 3), "Q", (1,), (1, 2))

    @pytest.mark.parametrize("internal, e_hits, name", [
        ((9,), (1, 2), "internal"),
        ((0,), (1, 2), "internal"),
        ((1,), (7,), "e_hits"),
        ((1,), (0, 1), "e_hits"),
    ])
    def test_rejects_indices_off_the_chain(self, internal, e_hits, name):
        with pytest.raises(ValueError, match=rf"{name} indices must lie in 1\.\.3"):
            examine_candidate((2, 5, 3), "B1", internal, e_hits)

    @pytest.mark.parametrize("kind, internal", [
        ("A", (1,)),  # a B1 shape
        ("A", (1, 2, 3)),  # no gap
        ("B1", (3,)),  # a B2 shape
        ("B2", (1,)),
        ("B1", (1, 2, 3)),  # the whole chain
        ("B1", (2,)),  # not an end-interval
        ("B2", ()),
        ("B1", (1, 1)),
    ])
    def test_rejects_an_internal_shape_that_contradicts_kind(self, kind, internal):
        with pytest.raises(ValueError, match=f"not the end-intervals of a type {kind}"):
            examine_candidate((2, 5, 3), kind, internal, (1, 3))

    @pytest.mark.parametrize("e_hits", [(1,), (1, 1), (3, 3), (1, 2, 3)])
    def test_rejects_a_type_a_e_that_does_not_join_the_intervals(self, e_hits):
        with pytest.raises(ValueError, match="must join the two end-intervals"):
            examine_candidate((3, 5, 2), "A", (1, 3), e_hits)

    @pytest.mark.parametrize("kind, internal, e_hits", [
        ("B1", (1,), (3,)),  # e misses the internal interval
        ("B2", (3,), (1,)),
        ("B1", (1,), ()),  # e has no hits
        ("B2", (3,), ()),
        ("B1", (1,), (1, 1, 1)),  # three hits
        ("B2", (3,), (3, 3, 3)),
        ("B2", (3,), (1, 2)),  # both hits outside the interval
        ("B1", (1,), (2, 3)),
    ])
    def test_rejects_a_type_b_e_that_does_not_meet_its_interval(self, kind, internal, e_hits):
        with pytest.raises(ValueError, match="e_hits"):
            examine_candidate((3, 5, 2), kind, internal, e_hits)


class TestShape:
    """_shape, the one parser of bad-curve shapes, against enumerate_candidates."""

    def test_accepts_exactly_the_enumerated_shapes(self):
        for ell in range(1, 8):
            enumerated = set(enumerate_candidates(ell))
            subsets = [
                tuple(j for j in range(1, ell + 1) if mask >> (j - 1) & 1)
                for mask in range(1 << ell)
            ]
            hit_sets = [()] + [
                hits
                for size in (1, 2, 3)
                for hits in itertools.combinations_with_replacement(range(1, ell + 1), size)
            ]
            accepted = 0
            for internal in subsets:
                for hits in hit_sets:
                    kinds = {k for k in ("A", "B1", "B2") if (k, internal, hits) in enumerated}
                    for kind in ("A", "B1", "B2"):
                        if kind in kinds:
                            assert _shape(internal, hits, ell, kind)[0] == kind
                            accepted += 1
                        else:
                            with pytest.raises(ValueError, match="internal|e_hits"):
                                _shape(internal, hits, ell, kind)
                    if kinds:
                        assert {_shape(internal, hits, ell)[0]} == kinds
                    else:
                        with pytest.raises(ValueError, match="internal|e_hits"):
                            _shape(internal, hits, ell)
            assert accepted == len(enumerated)

    def test_case_matches_the_reference(self):
        for ell in range(1, 8):
            for kind, internal, hits in enumerate_candidates(ell):
                case = reference_case(kind, internal, hits, ell)
                assert _shape(internal, hits, ell, kind)[5] == case, (kind, internal, hits)
        assert examine_candidate((2, 5, 3), "B1", (1,), (1,)).case == "B1.1"

    def test_every_shape_is_connected_before_any_blow_down(self):
        for ell in range(1, 9):
            b = tuple([2] * (ell - 1) + [ell + 3])
            for _, internal, hits in enumerate_candidates(ell):
                config, e_id = build_candidate_config(b, hits)
                adj = {v: config.neighbors(v) for v in [*internal, e_id]}
                assert connects(adj, {*internal, e_id}), (internal, hits)


class TestCachedEParts:
    """examine_candidate with e's parts cached against the eager examination."""

    def test_cache_is_bounded_and_hands_out_immutable_checks(self):
        config, checks, first, minus_ones, curves, adj = _e_parts((2, 5, 3), (1, 3))
        assert (config, 4) == build_candidate_config((2, 5, 3), (1, 3))
        assert type(checks) is frozenset  # a caller cannot add to the cached entry
        assert type(minus_ones) is frozenset
        assert _e_parts((2, 5, 3), (1, 3)) is _e_parts((2, 5, 3), (1, 3))
        assert _e_parts.cache_info().maxsize is not None

    def test_the_shared_first_step_is_every_candidates_first_step(self):
        # e is the only (-1, -1) curve before any blow-down, so the group's step
        # and stage are those of each candidate's own contraction
        for t in [(2, 5, 3), (3, 5, 2), (2, 2, 6, 2, 4)]:
            ell = len(t)
            for kind, internal, hits in enumerate_candidates(ell):
                config, _, first, minus_ones, curves, adj = _e_parts(t, hits)
                externals = [j for j in range(1, ell + 1) if j not in internal]
                trace = contract_all(config, frozen=externals)
                assert trace.steps[0] == first
                _, steps = eager_contract_all(config, externals)
                stage = steps[0][2]
                assert curves == {v.id: v for v in stage.vertices}
                assert adj == {v.id: stage.neighbors(v.id) for v in stage.vertices}
                assert minus_ones == {
                    v.id for v in stage.vertices if (v.self_int, v.k_degree) == (-1, -1)
                }

    def test_every_candidate_to_six_in_shuffled_order(self):
        rows = [
            (t, kind, internal, hits)
            for ell, strings in sorted(enumerate_tstrings(6).items())
            for t in strings
            for kind, internal, hits in enumerate_candidates(ell)
        ]
        assert len(rows) == 8960
        rng = random.Random(20261018)
        rng.shuffle(rows)  # the fill order of the cache must not matter
        hits_before = _e_parts.cache_info().hits
        for k, (t, kind, internal, hits) in enumerate(rows):
            form = (t, list(t.b), t.b)[k % 3]
            e_hits = hits[::-1] if k % 2 else hits  # two distinct hits arrive unsorted
            expected = eager_examine_candidate(t.b, kind, internal, hits)
            got = examine_candidate(form, kind, internal, e_hits)
            assert got == expected, (t, kind, internal, hits)
        # the comparison read cached entries, not only fresh ones
        assert _e_parts.cache_info().hits > hits_before


ORACLE4 = case_oracle(4)

# every reason recorded across all 560 candidates at lengths <= 4
EXPECTED_CHECK_TALLY = {
    "NO_MINUS_ONE": 310,
    "MAGIC_E": 306,
    "MULTI_EDGE": 192,
    "SW": 178,
    "PATTERN_SINGLE": 124,
    "PATTERN_ENDPOINTS": 96,
    "CYCLE": 72,
    "MAGIC_FULL": 62,
    "ZERO_INCIDENCE": 28,
    "THREE_NEIGHBOR": 16,
}


def staged_checks(comps, config, **kw):
    """The faults staged_structure_checks collects while contract_all runs, and the trace."""
    fired = set()
    trace = contract_all(config, on_stage=staged_structure_checks(comps, fired), **kw)
    return fired, trace


class TestStagedChecksAgainstEagerStages:
    """The stage callback fires what a scan of every full stage config fires."""

    def test_every_small_candidate(self):
        for ell, strings in sorted(enumerate_tstrings(5).items()):
            for t in sorted(tuple(s) for s in strings):
                for _, internal, hits in enumerate_candidates(ell):
                    config, e_id = build_candidate_config(t, hits)
                    comps = set(internal) | {e_id}
                    externals = [j for j in range(1, ell + 1) if j not in internal]
                    fired, trace = staged_checks(comps, config, frozen=externals)
                    assert trace == contract_all(config, frozen=externals)
                    _, steps = eager_contract_all(config, externals)
                    assert fired == scan_staged_checks(config, comps, steps), (t, internal, hits)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 12), st.data())
    def test_traces_that_contract_non_components(self, seed, depth, data):
        # every vertex is contracted, but only some are components, so
        # blowing down the others changes the pairs between components
        c = random_blowup(random.Random(seed), depth)
        comps = data.draw(st.sets(st.sampled_from(c.ids())))
        fired, _ = staged_checks(comps, c, sw_exempt=c.ids())
        _, steps = eager_contract_all(c, sw_exempt=c.ids())
        assert fired == scan_staged_checks(c, comps, steps)

    def test_a_contracted_non_component_makes_a_double_edge(self):
        # components 1 and 3 meet once and both meet the non-component 2;
        # blowing 2 down leaves them meeting twice
        c = CurveConfig.make(
            [Curve(1, -3, 1), Curve(2, -1, -1), Curve(3, -3, 1)],
            [Edge(1, 2), Edge(2, 3), Edge(1, 3)],
        )
        fired, trace = staged_checks({1, 3}, c, sw_exempt=c.ids())
        assert trace.order == (2,)
        _, steps = eager_contract_all(c, sw_exempt=c.ids())
        assert fired == {MULTI_EDGE}
        assert scan_staged_checks(c, {1, 3}, steps) == {MULTI_EDGE}


def scanned_stages(config, comps, **kw):
    """contract_all's trace, and the faults staged_structure_checks holds after each stage."""
    fired, seen = set(), []
    scan = staged_structure_checks(comps, fired)

    def record(curves, adj, vertex):
        scan(curves, adj, vertex)
        seen.append(frozenset(fired))

    return contract_all(config, on_stage=record, **kw), seen


def tracked_stages(trace, comps):
    """The faults the oracle's step callback holds after each stage of trace.

    Stage 0 is scanned as the oracle's per-length cache scans it; the
    callback takes every later stage from the step's hits.
    """
    stages = trace.stages()
    curves, adj = next(stages)
    faults, edges = _shape_scan(curves, adj, set(comps)) if len(comps) > 1 else (set(), 0)
    fired = set(faults)
    seen = [frozenset(fired)]
    track = _tracked_shape_checks(
        set(comps), None if DISCONNECTED_STAGE in faults else edges, fired
    )
    for step, (curves, adj) in zip(trace.steps, stages):
        track(curves, adj, step.vertex, step.hits)
        seen.append(frozenset(fired))
    return seen


class TestIncrementalTreeShape:
    """The per-length stage-0 scan and the step-by-step tree shape against full scans."""

    def test_stage_zero_per_length_matches_each_candidates_own_config(self):
        for ell, strings in sorted(enumerate_tstrings(7).items()):
            for t in strings:
                for kind, internal, hits in enumerate_candidates(ell):
                    _, externals, faults, edges = _candidate_parts(ell, kind, internal, hits)
                    config, e_id = build_candidate_config(t, hits)
                    comps = {*internal, e_id}
                    curves = {v.id: v for v in config.vertices}
                    adj = {v.id: config.neighbors(v.id) for v in config.vertices}
                    assert set(faults) == shape_faults(curves, adj, comps), (t, internal, hits)
                    assert edges == sum(1 for e in config.edges if {e.a, e.b} <= comps)
                    assert externals == set(range(1, ell + 1)) - set(internal)
                    # every enumerated shape is connected, so the oracle never
                    # takes the fallback and never fires DISCONNECTED_STAGE
                    assert DISCONNECTED_STAGE not in faults

    def test_every_stage_of_every_candidate_to_six_matches_the_full_scan(self):
        stages = 0
        for ell, strings in sorted(enumerate_tstrings(6).items()):
            for t in sorted(s.b for s in strings):
                for _, internal, hits in enumerate_candidates(ell):
                    config, e_id = build_candidate_config(t, hits)
                    comps = {*internal, e_id}
                    externals = [j for j in range(1, ell + 1) if j not in internal]
                    trace, scanned = scanned_stages(config, comps, frozen=externals)
                    assert tracked_stages(trace, comps) == scanned, (t, internal, hits)
                    stages += len(scanned)
        assert stages == 8960 + 16328  # stage 0 of each candidate, then one per step

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 12), st.data())
    def test_random_divisors_and_component_sets(self, seed, depth, data):
        # every vertex is contracted, components or not, and the component
        # set is connected at stage 0 or not
        c = random_blowup(random.Random(seed), depth)
        comps = data.draw(st.sets(st.sampled_from(c.ids())))
        trace, scanned = scanned_stages(c, comps, sw_exempt=c.ids())
        assert tracked_stages(trace, comps) == scanned

    def test_a_pair_that_met_before_is_not_a_new_edge(self):
        # components 1 and 3 meet once and both meet the non-component 2;
        # blowing 2 down leaves them meeting twice: a double edge, still
        # one edge between two components, so no cycle
        c = CurveConfig.make(
            [Curve(1, -3, 1), Curve(2, -1, -1), Curve(3, -3, 1)],
            [Edge(1, 2), Edge(2, 3), Edge(1, 3)],
        )
        trace, scanned = scanned_stages(c, {1, 3}, sw_exempt=c.ids())
        assert trace.order == (2,)
        assert scanned == [set(), {MULTI_EDGE}]
        assert tracked_stages(trace, {1, 3}) == scanned

    def test_a_disconnected_stage_zero_takes_the_fallback(self):
        # components 1..4 and 6: a triangle 1-2-3, 3-4, and 6 alone; blowing
        # down the non-component 5 joins 1 and 4, so the five components have
        # five edges but are still not connected.  The edge count alone would
        # call that a cycle; the full scan of the fallback does not.
        c = CurveConfig.make(
            [Curve(j, -3, 1) for j in (1, 2, 3, 4, 6)] + [Curve(5, -1, -1)],
            [Edge(1, 2), Edge(2, 3), Edge(1, 3), Edge(3, 4), Edge(1, 5), Edge(4, 5)],
        )
        comps = {1, 2, 3, 4, 6}
        trace, scanned = scanned_stages(c, comps, frozen=comps, sw_exempt=c.ids())
        assert trace.order == (5,)
        assert scanned == [{DISCONNECTED_STAGE}] * 2
        assert tracked_stages(trace, comps) == scanned
        # what the step-by-step rule, wrongly started here, would have said
        fired = set()
        _, after = trace.stages()
        step = trace.steps[0]
        _tracked_shape_checks(set(comps), 4, fired)(*after, 5, step.hits)
        assert fired == {CYCLE}

    def test_per_length_cache_is_bounded_and_holds_one_length_to_ten(self):
        info = _candidate_parts.cache_info()
        candidates = enumerate_candidates(10)
        assert len(candidates) == 1080
        assert info.maxsize is not None and info.maxsize >= len(candidates)
        for kind, internal, hits in candidates:
            _candidate_parts(10, kind, internal, hits)
        hits_before = _candidate_parts.cache_info().hits
        for kind, internal, hits in candidates:
            _candidate_parts(10, kind, internal, hits)
        assert _candidate_parts.cache_info().hits == hits_before + len(candidates)

    def test_a_bad_shape_is_refused_on_every_call(self):
        misses = _candidate_parts.cache_info().misses
        for _ in range(2):
            with pytest.raises(ValueError, match="e_hits"):
                examine_candidate((3, 5, 2), "B1", (1,), (2, 3))
        assert _candidate_parts.cache_info().misses == misses + 2


class TestStrictString:
    """examine_candidate takes any t with entries >= 2 and refuses one below 2, on every call."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(2, 7), min_size=1, max_size=7), st.data())
    def test_any_string_with_entries_from_two_matches_the_eager_examination(self, b, data):
        # the lemma behind the shared first step needs entries >= 2, not a T-string
        candidates = enumerate_candidates(len(b))
        if candidates:
            kind, internal, hits = data.draw(st.sampled_from(candidates))
            got = examine_candidate(b, kind, internal, hits)
            assert got == eager_examine_candidate(tuple(b), kind, internal, hits)

    @pytest.mark.parametrize("b,kind,internal,hits", [
        ((0, 0, 1), "B2", (2, 3), (3, 3)),
        ((1, 3, 4), "B1", (1,), (1, 2)),
        ((2, 1, 5, 3), "A", (1, 4), (1, 4)),
    ])
    def test_an_entry_below_two_raises_naming_t(self, b, kind, internal, hits):
        forged = object.__new__(TString)  # TString's constructor refuses these entries
        object.__setattr__(forged, "b", b)
        info = _e_parts.cache_info()
        for form in (b, list(b), forged, b):
            with pytest.raises(ValueError, match=re.escape(f"t entries must all be >= 2, got {list(b)}")):
                examine_candidate(form, kind, internal, hits)
        # each call missed the cache and stored nothing
        assert _e_parts.cache_info().hits == info.hits
        assert _e_parts.cache_info().misses == info.misses + 4

    def test_a_tstring_cannot_hold_such_an_entry(self):
        with pytest.raises(ValueError, match="entries must be >= 2"):
            TString((1, 3, 4))

    def test_the_shape_is_checked_first(self):
        with pytest.raises(ValueError, match="internal"):
            examine_candidate((0, 0, 1), "B1", (2,), (2,))


class TestCaseOracle:
    def test_passes(self):
        assert ORACLE4.passed

    def test_candidate_count(self):
        assert len(ORACLE4.outcomes) == 560

    def test_verdict_tally(self):
        tally = Counter(o.verdict for o in ORACLE4.outcomes)
        assert tally == {DIES: 550, SURVIVES_BAD: 10}
        assert SURVIVES_GOOD not in tally

    def test_check_tally(self):
        tally = Counter(c for o in ORACLE4.outcomes for c in o.checks)
        assert dict(tally) == EXPECTED_CHECK_TALLY

    def test_known_survivors_present(self):
        keys = {(o.t, o.kind, o.internal, o.e_hits) for o in ORACLE4.survivors_bad}
        assert ((2, 5, 3), "B1", (1,), (1, 2)) in keys
        assert ((2, 3, 5, 3), "B1", (1,), (1, 3)) in keys

    def test_survivors_close_under_reversal(self):
        assert ORACLE4.reversal_failures == ()
        survivors = {(o.t, o.kind, o.internal, o.e_hits) for o in ORACLE4.survivors_bad}
        for t, kind, internal, hits in survivors:
            ell = len(t)
            m_kind = {"B1": "B2", "B2": "B1", "A": "A"}[kind]
            m_internal = tuple(sorted(ell + 1 - j for j in internal))
            m_hits = tuple(sorted(ell + 1 - j for j in hits))
            assert (tuple(reversed(t)), m_kind, m_internal, m_hits) in survivors

    def test_reversal_closure_names_a_flipped_verdict_and_its_mirror(self, monkeypatch):
        examine = badcurves.examine_candidate
        flipped = ((2, 3, 5, 3), "B1", (1,), (1, 3))
        mirror = ((3, 5, 3, 2), "B2", (4,), (2, 4))

        def flip_one(t, kind, internal, e_hits):
            o = examine(t, kind, internal, e_hits)
            if (o.t, o.kind, o.internal, o.e_hits) == flipped:
                assert o.verdict == SURVIVES_BAD
                return dataclasses.replace(o, verdict=DIES)
            return o

        monkeypatch.setattr(badcurves, "examine_candidate", flip_one)
        report = case_oracle(4)
        assert not report.passed
        assert {(o.t, o.kind, o.internal, o.e_hits): why
                for o, why in report.reversal_failures} == {
            flipped: f"mirror verdict {SURVIVES_BAD} != {DIES}",
            mirror: f"mirror verdict {DIES} != {SURVIVES_BAD}",
        }

    def test_reversal_closure_names_rows_whose_mirror_string_is_missing(self, monkeypatch):
        enumerate_all = badcurves.enumerate_tstrings
        dropped = (3, 5, 2)

        def without_one(ell_max):
            levels = enumerate_all(ell_max)
            return {ell: tuple(s for s in strings if s.b != dropped)
                    for ell, strings in levels.items()}

        monkeypatch.setattr(badcurves, "enumerate_tstrings", without_one)
        report = case_oracle(3)
        assert not report.passed
        assert [(o.t, why) for o, why in report.reversal_failures] == [
            ((2, 5, 3), "mirror candidate missing")
        ] * len(enumerate_candidates(3))

    def test_survivor_budget(self):
        assert ORACLE4.bound_failures == ()
        for o in ORACLE4.survivors_bad:
            assert 2 * o.n_internal <= len(o.t) + 4

    def test_no_bad_type_a_survivors(self):
        assert all(o.kind != "A" for o in ORACLE4.survivors_bad)

    def test_no_coexisting_b1_b2_survivors(self):
        # B1 survivors need the string to start with 2, B2 survivors need it
        # to end with 2, and no T-string does both, so the joint budget is
        # never even exercised
        assert ORACLE4.joint_records == ()
        by_string = {}
        for o in ORACLE4.survivors_bad:
            by_string.setdefault(o.t, set()).add(o.kind)
        assert all(kinds in ({"B1"}, {"B2"}) for kinds in by_string.values())

    def test_interior_certificates(self):
        assert ORACLE4.a1_unkilled == () and ORACLE4.a1_off_certificate == ()
        assert ORACLE4.a5_unkilled == () and ORACLE4.a5_off_certificate == ()

    def test_family_results(self):
        assert [f.ell for f in ORACLE4.family_results] == [1, 2, 3, 4]
        for f in ORACLE4.family_results:
            assert f.corrected == tuple([2] * (f.ell - 1) + [f.ell + 3])
            assert f.corrected_bad_survivors == 0
            assert f.reversed_bad_survivors == 0

    def test_family_short_case_dies_by_pairing(self):
        out = examine_candidate((2, 5), "B1", (1,), (1, 2))
        assert out.verdict == DIES
        assert MAGIC_E in out.checks

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            case_oracle(0)
        with pytest.raises(ValueError):
            case_oracle(9)


class TestPairProduct:
    @staticmethod
    def _outcome(kind, internal, hits, mults):
        return CandidateOutcome(
            t=(2, 3, 2),
            kind=kind,
            internal=internal,
            e_hits=hits,
            case=None,
            checks=(),
            verdict=SURVIVES_BAD,
            badness=1,
            v=None,
            mults=mults,
        )

    def test_touching_divisors(self):
        s1 = self._outcome("B1", (1,), (1, 2), ((1, 1), (4, 1)))
        s2 = self._outcome("B2", (2, 3), (2, 3), ((2, 1), (3, 1), (4, 1)))
        # E1 = C1 + e1, E2 = C2 + C3 + e2: C1.C2 = 1 and e1.C2 = 1
        assert pair_product((2, 3, 2), s1, s2) == 2

    def test_far_apart_divisors(self):
        s1 = self._outcome("B1", (1,), (1,), ((1, 1), (4, 1)))
        s2 = self._outcome("B2", (3,), (3,), ((3, 1), (4, 1)))
        assert pair_product((2, 3, 2), s1, s2) == 0

    def test_rejects_an_outcome_without_multiplicities(self):
        dead = examine_candidate((3, 5, 2), "B1", (1,), (1,))
        assert dead.verdict == DIES and dead.mults is None
        alive = examine_candidate((3, 5, 2), "B2", (3,), (2, 3))
        assert alive.mults is not None
        with pytest.raises(ValueError, match="s1 has no multiplicities"):
            pair_product((3, 5, 2), dead, alive)
        with pytest.raises(ValueError, match="s2 has no multiplicities"):
            pair_product((3, 5, 2), alive, dead)

    def test_rejects_an_outcome_of_another_string(self):
        s1 = self._outcome("B1", (1,), (1,), ((1, 1), (4, 1)))
        s2 = self._outcome("B2", (3,), (3,), ((3, 1), (4, 1)))
        with pytest.raises(ValueError, match=r"s1 was examined on \[2, 3, 2\]"):
            pair_product((2, 5, 3), s1, s2)
        other = examine_candidate((2, 5, 3), "B1", (1,), (1, 2))
        with pytest.raises(ValueError, match=r"s2 was examined on \[2, 5, 3\]"):
            pair_product((2, 3, 2), s1, other)


class TestInteriorHitContradiction:
    def test_always_sw_violation(self):
        for n in range(3, 7):
            for i in range(2, n):
                assert interior_hit_contradiction(n, i).status == SW_VIOLATION

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            interior_hit_contradiction(2, 1)
        with pytest.raises(ValueError):
            interior_hit_contradiction(4, 1)
        with pytest.raises(ValueError):
            interior_hit_contradiction(4, 4)
