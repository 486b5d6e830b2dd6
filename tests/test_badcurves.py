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
    scan_staged_checks,
)
from wahlkit import (
    BlowDownTrace,
    CandidateOutcome,
    Curve,
    CurveConfig,
    Edge,
    TString,
    case_oracle,
    enumerate_candidates,
    enumerate_tstrings,
    examine_candidate,
    forbidden_patterns,
    interior_hit_contradiction,
    pair_product,
    type_bounds,
    unbroken_checks,
)
from wahlkit import badcurves, curveconfig
from wahlkit.badcurves import (
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
    SW,
    THREE_NEIGHBOR,
    FamilyResult,
    JointRecord,
    OracleReport,
    _candidate_parts,
    _e_checks,
    _examine,
    _facts,
    _shape,
    build_candidate_config,
    staged_structure_checks,
)
from wahlkit.curveconfig import (
    SW_VIOLATION,
    ContractionStep,
    _sw_violation,
    _shape_scan,
    _shape_step,
    connects,
    contract_all,
    random_blowup,
    shape_faults,
)


class TestForbiddenPatterns:
    def test_single_hit(self):
        rep = forbidden_patterns((4,), [1])
        assert rep.failures == (PATTERN_SINGLE, MAGIC_E)
        assert not rep.ok

    def test_endpoint_hits(self):
        rep = forbidden_patterns((3, 5, 2), [1, 0, 1])
        assert rep.failures == (PATTERN_ENDPOINTS, MAGIC_E)
        assert rep.pairing == Fraction(-1)
        assert not rep.ok

    def test_both_patterns_at_length_two(self):
        # at ell = 2 a single endpoint hit is just a single hit; two endpoint
        # hits are the endpoint pattern
        assert forbidden_patterns((2, 5), [1, 0]).failures == (PATTERN_SINGLE, MAGIC_E)
        assert forbidden_patterns((2, 5), [1, 1]).failures == (PATTERN_ENDPOINTS, MAGIC_E)

    def test_clean_incidence(self):
        rep = forbidden_patterns((3, 5, 2), [1, 1, 0])
        assert rep.failures == ()
        assert rep.pairing == Fraction(-7, 5)
        assert rep.ok

    def test_double_hit_on_one_sphere_is_not_the_single_pattern(self):
        rep = forbidden_patterns((3, 5, 2), [2, 0, 0])
        assert rep.failures == ()
        assert rep.pairing == Fraction(-6, 5)
        assert rep.ok

    def test_rejects_malformed_vectors(self):
        with pytest.raises(ValueError):
            forbidden_patterns((3, 5, 2), [1, 0])
        with pytest.raises(ValueError):
            forbidden_patterns((3, 5, 2), [1, -1, 1])

    def test_magic_e_is_the_pairing_check_and_failures_keep_their_order(self):
        order = (PATTERN_SINGLE, PATTERN_ENDPOINTS, MAGIC_E)
        for t in enumerate_tstrings(5)[5]:
            for v in itertools.product(range(3), repeat=5):
                rep = forbidden_patterns(t, v)
                assert (MAGIC_E in rep.failures) == (rep.pairing >= -1)
                assert list(rep.failures) == [c for c in order if c in rep.failures]
                assert rep.ok == (rep.failures == ())


class TestUnbrokenChecks:
    def test_passing_vector(self):
        rep = unbroken_checks((5, 2), [1, 1])
        assert rep.passed
        assert rep.total == 2
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
        assert rep.total == 1 and rep.entry_failures == ()

    @pytest.mark.parametrize("check", [unbroken_checks, forbidden_patterns])
    def test_a_negative_or_misfit_incidence_is_refused(self, check):
        with pytest.raises(ValueError, match=re.escape("must be nonnegative, got [3, -1]")):
            check((5, 2), [3, -1])
        with pytest.raises(ValueError, match=re.escape("length 1 != ell = 2")):
            check((5, 2), [3])


class TestTypeBounds:
    def test_single_type_budget(self):
        assert type_bounds(4, n_a=4).failures == ()
        assert type_bounds(4, n_a=5).failures == ("a",)
        assert type_bounds(4, n_b1=4).failures == ()
        assert type_bounds(4, n_b2=5).failures == ("b2", "joint")

    def test_joint_budget(self):
        assert "joint" not in type_bounds(5, n_b1=3, n_b2=2).failures
        assert type_bounds(5, n_b1=3, n_b2=3).failures == ("joint",)

    @given(st.integers(1, 39), st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
    def test_the_total_bound_never_fails_alone(self, ell, n_a, n_b1, n_b2):
        # 2 p_max <= ell + 5 follows from "a" when n_a > 0 and is "joint"
        # when n_a = 0, so it is no check of its own
        rep = type_bounds(ell, n_a, n_b1, n_b2)
        if 2 * rep.p_max > ell + 5:
            assert {"a", "joint"} & set(rep.failures)
        assert rep.passed == (rep.failures == ())

    def test_p_max_prefers_type_a(self):
        rep = type_bounds(9, n_a=3, n_b1=2, n_b2=1)
        assert rep.p_max == 3
        assert type_bounds(9, n_b1=2, n_b2=1).p_max == 3

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            type_bounds(0)
        with pytest.raises(ValueError):
            type_bounds(3, n_a=-1)


@pytest.mark.parametrize("call, named", [
    (lambda: type_bounds(5, 1.5), "1.5"),
    (lambda: type_bounds(5.5), "5.5"),
    (lambda: type_bounds(5, n_b2=None), "None"),
    (lambda: unbroken_checks((2, 5, 3), [1, 0.5, 0]), "0.5"),
    (lambda: forbidden_patterns((2, 5, 3), [1, 0.5, 0]), "0.5"),
    (lambda: examine_candidate((2, 5, 3), "B1", (1,), (1, 2.5)), "2.5"),
    (lambda: examine_candidate((2, 5, 3), "B1", (1.5,), (1, 2)), "1.5"),
])
def test_a_lossy_input_raises_naming_it(call, named):
    with pytest.raises(ValueError, match=f"entry {re.escape(named)} is not an integer"):
        call()


def test_an_exact_non_int_input_is_read_as_its_int():
    assert type_bounds(5, 1.0) == type_bounds(5, 1)
    assert unbroken_checks((2, 5, 3), [1, 1.0, 0]) == unbroken_checks((2, 5, 3), [1, 1, 0])
    assert forbidden_patterns((2, 5, 3), [1, 1.0, 0]) == forbidden_patterns((2, 5, 3), [1, 1, 0])
    assert examine_candidate((2, 5, 3), "B1", (1,), (1, 2.0)) == examine_candidate(
        (2, 5, 3), "B1", (1,), (1, 2))


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
                    for kind in ("A", "B1", "B2"):
                        if (kind, internal, hits) in enumerated:
                            _shape(internal, hits, ell, kind)  # accepted: no ValueError
                            accepted += 1
                        else:
                            with pytest.raises(ValueError, match="internal|e_hits"):
                                _shape(internal, hits, ell, kind)
            assert accepted == len(enumerated)

    def test_case_matches_the_reference(self):
        for ell in range(1, 8):
            for kind, internal, hits in enumerate_candidates(ell):
                case = reference_case(kind, internal, hits, ell)
                assert _shape(internal, hits, ell, kind) == case, (kind, internal, hits)
        assert examine_candidate((2, 5, 3), "B1", (1,), (1,)).case == "B1.1"

    def test_every_shape_is_connected_before_any_blow_down(self):
        for ell in range(1, 9):
            b = tuple([2] * (ell - 1) + [ell + 3])
            for _, internal, hits in enumerate_candidates(ell):
                config, e_id = build_candidate_config(b, hits)
                adj = {v: config.neighbors(v) for v in [*internal, e_id]}
                assert connects(adj, {*internal, e_id}), (internal, hits)

    def test_a_type_a_shape(self):
        # e joins the left interval {1} at its end and the right one {4, 5} at its start
        assert _shape((1, 4, 5), (1, 4), 5, "A") == "A4"

    def test_b1_shapes_with_and_without_a_second_hit(self):
        assert _shape((1, 2), (2, 4), 5, "B1") == "B1.3"
        assert _shape((1, 2), (2,), 5, "B1") == "B1.3"

    def test_a_b2_shape_with_a_hit_before_its_interval(self):
        assert _shape((4, 5), (2, 5), 5, "B2") == "B2.1"

    def test_a_b_curve_meeting_its_interval_twice_has_no_case(self):
        assert _shape((1, 2), (1, 2), 5, "B1") is None
        assert _shape((1, 2), (2, 2), 5, "B1") is None
        assert _shape((4, 5), (4, 5), 5, "B2") is None

    @pytest.mark.parametrize("internal, hits, kind, message", [
        ((2, 3), (2,), "B1", "internal"),  # not an end-interval
        ((), (1,), "B1", "internal"),  # no internal spheres
        ((), (1,), "B2", "internal"),
        ((1, 5), (1, 1), "A", "e_hits"),  # both hits on one side
        ((1, 4, 5), (2, 4), "A", "e_hits"),  # x' past the left interval
    ])
    def test_rejects_impossible_shapes(self, internal, hits, kind, message):
        with pytest.raises(ValueError, match=message):
            _shape(internal, hits, 5, kind)

    def test_rejects_the_whole_chain(self):
        # a bad curve leaves at least one chain sphere external
        for ell in range(1, 6):
            whole = tuple(range(1, ell + 1))
            for kind in ("A", "B1", "B2"):
                with pytest.raises(ValueError, match="internal .* is not the end-intervals"):
                    _shape(whole, (1,), ell, kind)


def trie_nodes(node):
    """node and every stage built below it so far."""
    yield node
    for child in node.children.values():
        yield from trie_nodes(child)


def on_string(node, b):
    """A stage's curves on the chain b: each -2-chain curve shifted by d = b_u - 2."""
    return {
        u: c._replace(self_int=c.self_int - (b[u - 1] - 2), k_degree=c.k_degree + (b[u - 1] - 2))
        for u, c in node.curves.items()
    }


def walk_all(strings, ell):
    """Every candidate of length ell on each string, through one shared trie.

    Returns the trie, each string's facts (the stages its walks reached)
    and the rows, by string then candidate.
    """
    candidates = sorted(enumerate_candidates(ell))
    trie, sets = {}, {}
    parts = [_candidate_parts(ell, *c, trie, sets) for c in candidates]
    facts, rows = {}, {}
    for b in strings:
        facts[b] = {}
        rows[b] = [
            _examine(b, kind, internal, hits, part, trie[hits], facts[b])
            for (kind, internal, hits), part in zip(candidates, parts)
        ]
    return trie, facts, rows


def contraction_prefixes(b, hits, members):
    """The paths from chain plus e that the contractions of members take on b.

    members are (kind, internal) pairs.
    """
    config, _ = build_candidate_config(b, hits)
    prefixes = set()
    for _, internal in members:
        externals = [j for j in range(1, len(b) + 1) if j not in internal]
        order = contract_all(config, frozen=externals).order
        prefixes.update(order[:k] for k in range(1, len(order) + 1))
    return prefixes


# the stages below the roots of each length's trie after case_oracle(7)
TRIE_NODES_TO_7 = {2: 9, 3: 28, 4: 66, 5: 147, 6: 286, 7: 550}


class TestSharedParts:
    """The parts candidates share against the single and eager examinations."""

    def test_hands_out_immutable_checks(self):
        trie = {}
        case, start, shapes, _ = _candidate_parts(3, "B1", (1,), (1, 3), trie, {})
        # a candidate cannot add to the shared entry
        assert type(_e_checks((2, 5, 3), (1, 3))) is tuple
        assert type(start[0]) is type(start[3]) is frozenset and shapes == {}
        assert start[3] == {1, 4}
        root = trie[(1, 3)]
        assert CurveConfig(root.curves, root.adj) == build_candidate_config((2, 2, 2), (1, 3))[0]
        assert (root.vertex, root.path, root.children) == (None, (), {})

    @pytest.mark.parametrize("hits, off", [((0,), 0), ((4,), 4), ((-1,), -1), ((1, 4), 4)])
    def test_a_hit_off_the_chain_is_refused_naming_it(self, hits, off):
        with pytest.raises(ValueError, match=rf"e_hits entry {off} lies off the chain 1\.\.3"):
            build_candidate_config((3, 5, 2), hits)

    def test_e_checks_are_those_of_forbidden_patterns(self):
        groups = 0
        for ell, strings in sorted(enumerate_tstrings(7).items()):
            for hits in {h for _, _, h in enumerate_candidates(ell)}:
                v_e = [hits.count(j) for j in range(1, ell + 1)]
                for t in strings:
                    assert _e_checks(t.b, hits) == forbidden_patterns(t, v_e).failures, (t, hits)
                    groups += 1
        assert groups == 3582

    def test_the_shared_first_step_is_every_candidates_first_step(self):
        # e is the only (-1, -1) curve before any blow-down, so the trie's
        # first stage, shifted by the string, is that of each candidate's
        # own contraction
        for t in [(2, 5, 3), (3, 5, 2), (2, 2, 6, 2, 4)]:
            ell = len(t)
            trie = {}
            for kind, internal, hits in enumerate_candidates(ell):
                _candidate_parts(ell, kind, internal, hits, trie, {})
                after_e = trie[hits].child(ell + 1)
                config, _ = build_candidate_config(t, hits)
                externals = [j for j in range(1, ell + 1) if j not in internal]
                trace = contract_all(config, frozen=externals)
                first = trace.steps[0]
                assert (first.vertex, first.hits) == (after_e.vertex, after_e.hits)
                assert after_e.path == ((ell + 1, after_e.hits),)
                _, steps = eager_contract_all(config, externals)
                stage = steps[0][2]
                assert on_string(after_e, t) == {v.id: v for v in stage.vertices}
                assert after_e.adj == {v.id: stage.neighbors(v.id) for v in stage.vertices}
                sw, ones = _facts(t, after_e, None)
                assert sw == bool(first.violations)
                assert ones == {
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
        rng.shuffle(rows)  # no call may depend on the one before
        for k, (t, kind, internal, hits) in enumerate(rows):
            form = (t, list(t.b), t.b)[k % 3]
            e_hits = hits[::-1] if k % 2 else hits  # two distinct hits arrive unsorted
            expected = eager_examine_candidate(t.b, kind, internal, hits)
            got = examine_candidate(form, kind, internal, e_hits)
            assert got == expected, (t, kind, internal, hits)

    def test_the_grouped_oracle_matches_examine_candidate_row_by_row(self):
        rows = [
            examine_candidate(t, kind, internal, hits)
            for ell, strings in sorted(enumerate_tstrings(6).items())
            for t in sorted(s.b for s in strings)
            for kind, internal, hits in sorted(enumerate_candidates(ell))
        ]
        outcomes = case_oracle(6).outcomes
        assert len(outcomes) == len(rows) == 8960
        for got, want in zip(outcomes, rows):
            assert got == want, (want.t, want.kind, want.internal, want.e_hits)

    def test_the_oracle_builds_one_trie_per_length(self, monkeypatch):
        # one root per (ell, e_hits), built from the -2-chain, and no config
        # per string; every stage below the roots is a node of one trie
        tries, builds = {}, Counter()
        parts, build = badcurves._candidate_parts, badcurves.build_candidate_config

        def kept(ell, kind, internal, e_hits, trie, sets):
            tries[ell] = trie
            return parts(ell, kind, internal, e_hits, trie, sets)

        def counted(t, e_hits):
            t = tuple(t)
            assert set(t) == {2}, t
            builds[len(t)] += 1
            return build(t, e_hits)

        monkeypatch.setattr(badcurves, "_candidate_parts", kept)
        monkeypatch.setattr(badcurves, "build_candidate_config", counted)
        case_oracle(7)
        assert builds == {ell: len(trie) for ell, trie in tries.items()}
        assert {ell: len(trie) for ell, trie in tries.items()} == {
            2: 5, 3: 9, 4: 14, 5: 20, 6: 27, 7: 35}
        nodes = {
            ell: sum(len(list(trie_nodes(root))) - 1 for root in trie.values())
            for ell, trie in tries.items()
        }
        assert nodes == TRIE_NODES_TO_7

    def test_each_remaining_component_set_of_a_length_is_one_object(self):
        # every shape state of a length that holds an equal set holds the
        # same object, the one _candidate_parts first stored for it
        for ell, strings in sorted(enumerate_tstrings(7).items()):
            candidates = sorted(enumerate_candidates(ell))
            trie, sets = {}, {}
            parts = [_candidate_parts(ell, *c, trie, sets) for c in candidates]
            for t in strings:
                facts = {}  # one string's
                for (kind, internal, hits), part in zip(candidates, parts):
                    _examine(t.b, kind, internal, hits, part, trie[hits], facts)
            held = [start[3] for _, start, _, _ in parts]
            held += [state[3] for _, _, shapes, _ in parts for state in shapes.values()]
            assert len({id(comp) for comp in held}) == len(set(held)) == len(sets), ell
            assert all(sets[comp] is comp for comp in held)

    def test_every_stage_on_a_string_that_reaches_it_is_the_stage_its_path_replays(self):
        # children copy the rows a blow-down changes and share the rest, so
        # building one stage must leave its parent and siblings as they
        # were; the trie holds exactly the stages of the strings' own
        # contractions, and a stage's curves shifted by a string that
        # reaches it are the replayed stage's curves
        nodes = 0
        for strings in [((2, 5, 3), (3, 5, 2)), ((2, 2, 6, 2, 4), (4, 2, 6, 2, 2)),
                        ((2, 2, 2, 2, 2, 9), (2, 3, 2, 3, 7, 2), (5, 2, 2, 3, 2, 3))]:
            ell = len(strings[0])
            trie, facts, rows = walk_all(strings, ell)
            candidates = sorted(enumerate_candidates(ell))
            for b in strings:
                assert rows[b] == [eager_examine_candidate(b, *c) for c in candidates]
            for hits, root in trie.items():
                members = [(kind, internal) for kind, internal, h in candidates if h == hits]
                prefixes = set().union(*(contraction_prefixes(b, hits, members) for b in strings))
                tree = list(trie_nodes(root))[1:]
                assert {tuple(v for v, _ in node.path) for node in tree} == prefixes
                assert root.adj == build_candidate_config((2,) * ell, hits)[0]._adj
                for node in tree:
                    steps = [ContractionStep(v, h, ()) for v, h in node.path]
                    reached = [b for b in strings if node in facts[b]]
                    assert reached, node.path
                    for b in reached:
                        config, _ = build_candidate_config(b, hits)
                        *_, (curves, adj) = BlowDownTrace(config, steps, "").stages()
                        assert (on_string(node, b), node.adj) == (curves, adj), (b, node.path)
                        sw, ones = facts[b][node]
                        look = curves if len(steps) == 1 else node.hits
                        assert sw == any(_sw_violation(curves[u]) for u in look)
                        assert ones == {
                            u for u, v in curves.items() if (v.self_int, v.k_degree) == (-1, -1)}
                nodes += len(tree)
        assert nodes == 183

    def test_the_oracle_blows_each_stage_of_a_length_down_once(self, monkeypatch):
        # every candidate must reach each stage on its own path, so the
        # blow-downs can match the distinct paths of every (ell, e_hits),
        # over all strings, as contract_all takes them one candidate at a
        # time, only when no stage is built twice
        paths = Counter()
        for ell, strings in enumerate_tstrings(6).items():
            candidates = enumerate_candidates(ell)
            for hits in {h for _, _, h in candidates}:
                members = [(kind, internal) for kind, internal, h in candidates if h == hits]
                prefixes = set().union(
                    *(contraction_prefixes(t.b, hits, members) for t in strings))
                for prefix in prefixes:
                    paths["e" if len(prefix) == 1 else "later"] += 1
        assert paths == {"e": 75, "later": 461}

        blow_downs = 0
        formula = curveconfig._total_transform

        def counted(*args):
            nonlocal blow_downs
            blow_downs += 1
            return formula(*args)

        monkeypatch.setattr(badcurves, "_total_transform", counted)
        case_oracle(6)
        assert blow_downs == 75 + 461 == 536

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 7).flatmap(
        lambda ell: st.lists(st.lists(st.integers(2, 7), min_size=ell, max_size=ell),
                             min_size=1, max_size=3)))
    def test_any_strings_through_one_shared_trie(self, strings):
        # the lemma behind the shared stages needs entries >= 2, not a T-string
        strings = [tuple(b) for b in strings]
        ell = len(strings[0])
        if ell > 1:
            _, _, rows = walk_all(strings, ell)
            for b in strings:
                for got, c in zip(rows[b], sorted(enumerate_candidates(ell))):
                    assert got == eager_examine_candidate(b, *c), (b, c)

    def test_the_oracle_refuses_a_disconnected_start_naming_the_candidate(self, monkeypatch):
        # the per-length parts assert what examine_candidate asserts
        monkeypatch.setattr(badcurves, "_shape_scan", lambda *_: ({DISCONNECTED_STAGE}, 0))
        message = "candidate B1 (1,) (1,) is disconnected"
        with pytest.raises(AssertionError, match=re.escape(message)):
            case_oracle(2)


def rows_by_string(report, ell):
    """The report's rows of length ell, by string."""
    rows = {}
    for o in report.outcomes:
        if len(o.t) == ell:
            rows.setdefault(o.t, []).append(o)
    return rows


def assert_eager(rows):
    """Each row equals what the eager examination, one contraction per candidate, makes of it."""
    for o in rows:
        assert o == eager_examine_candidate(o.t, o.kind, o.internal, o.e_hits), (
            o.t, o.kind, o.internal, o.e_hits)


@pytest.fixture(scope="module")
def oracle8():
    return case_oracle(8)


class TestAgainstTheEagerReference:
    """The oracle's rows against tests/helpers.eager_examine_candidate, the slow reference."""

    def test_every_row_to_seven(self):
        outcomes = case_oracle(7).outcomes
        assert len(outcomes) == 30464
        assert_eager(outcomes)

    def test_a_seeded_sample_of_sixteen_strings_at_eight(self, oracle8):
        rows = rows_by_string(oracle8, 8)
        assert len(rows) == 128
        for t in random.Random(20261020).sample(sorted(rows), 16):
            assert len(rows[t]) == 518
            assert_eager(rows[t])

    @pytest.mark.slow
    def test_every_row_at_eight(self, oracle8):
        rows = rows_by_string(oracle8, 8)
        assert sum(map(len, rows.values())) == 128 * 518
        for t in sorted(rows):
            assert_eager(rows[t])


@pytest.mark.parametrize("call, message", [
    (lambda: case_oracle(True), "entry True is a bool, not an integer"),
    (lambda: case_oracle("3"), "entry '3' is not an integer"),
    (lambda: case_oracle(2.5), "entry 2.5 is not an integer"),
    (lambda: enumerate_tstrings("3"), "entry '3' is not an integer"),
    (lambda: enumerate_tstrings(4, cap=True), "entry True is a bool, not an integer"),
    (lambda: enumerate_tstrings(2.5), "entry 2.5 is not an integer"),
    (lambda: enumerate_candidates(2.5), "entry 2.5 is not an integer"),
    (lambda: enumerate_candidates("3"), "entry '3' is not an integer"),
    (lambda: enumerate_candidates(0), "need ell >= 1, got 0"),
    (lambda: enumerate_candidates(-1), "need ell >= 1, got -1"),
], ids=[
    "oracle-bool", "oracle-text", "oracle-float", "tstrings-text", "tstrings-cap-bool",
    "tstrings-float", "candidates-float", "candidates-text", "candidates-zero", "candidates-negative",
])
def test_a_length_that_is_not_a_positive_integer_is_refused(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


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
    """The faults staged_structure_checks finds on contract_all's trace, and the trace."""
    trace = contract_all(config, **kw)
    return staged_structure_checks(comps, trace), trace


class TestStagedChecksAgainstEagerStages:
    """The replay's scan fires what a scan of every full stage config fires."""

    def test_every_small_candidate(self):
        for ell, strings in sorted(enumerate_tstrings(5).items()):
            for t in sorted(tuple(s) for s in strings):
                for _, internal, hits in enumerate_candidates(ell):
                    config, e_id = build_candidate_config(t, hits)
                    comps = set(internal) | {e_id}
                    externals = [j for j in range(1, ell + 1) if j not in internal]
                    fired, _ = staged_checks(comps, config, frozen=externals)
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
    """contract_all's trace, and the faults staged_structure_checks finds up to each stage.

    The faults up to stage k are those of the replay of the trace's first k steps.
    """
    trace = contract_all(config, **kw)
    seen = [
        staged_structure_checks(comps, BlowDownTrace(config, trace.steps[:k], trace.status))
        for k in range(len(trace.steps) + 1)
    ]
    return trace, seen


def tracked_stages(trace, comps):
    """The faults _shape_step has found after each stage of trace, as the oracle keeps them.

    Stage 0 is scanned as _candidate_parts scans it, and must be connected;
    every later stage is taken from the step's hits, and THREE_NEIGHBOR
    fires when a member _shape_step names is a (-1, -1) curve there.
    """
    stages = trace.stages()
    curves, adj = next(stages)
    faults, edges = _shape_scan(curves, adj, set(comps)) if len(comps) > 1 else (set(), 0)
    assert DISCONNECTED_STAGE not in faults, comps
    fired = set(faults)
    seen = [frozenset(fired)]
    remaining = set(comps)
    for step, (curves, adj) in zip(trace.steps, stages):
        faults, edges, heavy = _shape_step(adj, remaining, step.vertex, step.hits, edges)
        if any((curves[u].self_int, curves[u].k_degree) == (-1, -1) for u in heavy):
            faults.add(THREE_NEIGHBOR)
        remaining.discard(step.vertex)
        fired |= faults
        seen.append(frozenset(fired))
    return seen


class TestIncrementalTreeShape:
    """The per-length stage-0 scan and the step-by-step tree shape against full scans."""

    def test_stage_zero_per_length_matches_each_candidates_own_config(self):
        for ell, strings in sorted(enumerate_tstrings(7).items()):
            candidates = enumerate_candidates(ell)
            # _candidate_parts raises on a disconnected start, so each of
            # these is connected and never fires DISCONNECTED_STAGE
            trie = {}
            parts = [_candidate_parts(ell, *c, trie, {}) for c in candidates]
            for t in strings:
                for (_, internal, hits), (_, (faults, _, edges, _), _, _) in zip(candidates, parts):
                    config, e_id = build_candidate_config(t, hits)
                    comps = {*internal, e_id}
                    curves = {v.id: v for v in config.vertices}
                    adj = {v.id: config.neighbors(v.id) for v in config.vertices}
                    assert set(faults) == shape_faults(curves, adj, comps), (t, internal, hits)
                    assert edges == sum(1 for e in config.edges if {e.a, e.b} <= comps)

    def test_the_full_scan_still_flags_a_disconnected_stage(self):
        # components 1..4 and 6: a triangle 1-2-3, 3-4, and 6 alone; blowing
        # down the non-component 5 joins 1 and 4, so the five components have
        # five edges but are still not connected.  The edge count alone would
        # call that a cycle; the full scan does not.
        c = CurveConfig.make(
            [Curve(j, -3, 1) for j in (1, 2, 3, 4, 6)] + [Curve(5, -1, -1)],
            [Edge(1, 2), Edge(2, 3), Edge(1, 3), Edge(3, 4), Edge(1, 5), Edge(4, 5)],
        )
        comps = {1, 2, 3, 4, 6}
        trace, scanned = scanned_stages(c, comps, frozen=comps, sw_exempt=c.ids())
        assert trace.order == (5,)
        assert scanned == [{DISCONNECTED_STAGE}] * 2

    def test_a_disconnected_start_is_refused_naming_the_candidate(self, monkeypatch):
        # no enumerated shape is disconnected; a scan that says otherwise
        # must stop the examination, not start the step-by-step rule on it
        monkeypatch.setattr(badcurves, "_shape_scan", lambda *_: ({DISCONNECTED_STAGE}, 0))
        message = "candidate B1 (1,) (1, 2) is disconnected"
        with pytest.raises(AssertionError, match=re.escape(message)):
            examine_candidate((2, 5, 3), "B1", (1,), (1, 2))

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
        # every vertex is contracted, components or not; the component set
        # is connected at stage 0, as every enumerated shape is, grown from a
        # drawn vertex one drawn neighbour at a time
        c = random_blowup(random.Random(seed), depth)
        comps = {data.draw(st.sampled_from(c.ids()))}
        while True:
            frontier = sorted({u for v in comps for u in c.neighbors(v)} - comps)
            if not frontier or not data.draw(st.booleans()):
                break
            comps.add(data.draw(st.sampled_from(frontier)))
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

    def test_a_bad_shape_is_refused_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="e_hits"):
                examine_candidate((3, 5, 2), "B1", (1,), (2, 3))


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
        for form in (b, list(b), forged, b):
            with pytest.raises(ValueError, match=re.escape(f"t entries must all be >= 2, got {list(b)}")):
                examine_candidate(form, kind, internal, hits)

    def test_a_tstring_cannot_hold_such_an_entry(self):
        with pytest.raises(ValueError, match="entries must be >= 2"):
            TString((1, 3, 4))

    def test_the_shape_is_checked_first(self):
        with pytest.raises(ValueError, match="internal"):
            examine_candidate((0, 0, 1), "B1", (2,), (2,))


def failed(report, check):
    """{subject key: reason} for each failure of check in report, each subject named once."""
    def key(s):
        if isinstance(s, CandidateOutcome):
            return (s.t, s.kind, s.internal, s.e_hits)
        return dataclasses.astuple(s)

    named = [(key(s), why) for c, s, why in report.failures if c == check]
    assert len(dict(named)) == len(named), named
    return dict(named)


def forged_oracle(monkeypatch, strings, forged):
    """case_oracle over strings alone, with the fields of each row keyed in forged replaced.

    forged maps (t, kind, internal, e_hits) to dataclasses.replace keywords.
    """
    examine = badcurves._examine

    def forge(*args):
        o = examine(*args)
        fields = forged.get((o.t, o.kind, o.internal, o.e_hits))
        return o if fields is None else dataclasses.replace(o, **fields)

    levels = {}
    for t in strings:
        levels.setdefault(len(t), []).append(t)
    monkeypatch.setattr(badcurves, "_examine", forge)
    monkeypatch.setattr(badcurves, "enumerate_tstrings", lambda ell_max: levels)
    return case_oracle(max(levels))


# the q = 1 family strings, the only strings of length 6 or 7 with no bad
# survivor on them or on their reversal
FAMILY_6 = ((2, 2, 2, 2, 2, 9), (9, 2, 2, 2, 2, 2))
FAMILY_7 = ((2, 2, 2, 2, 2, 2, 10), (10, 2, 2, 2, 2, 2, 2))
FORGED_BAD = {"verdict": SURVIVES_BAD, "checks": ()}


class TestCaseOracle:
    def test_passes(self):
        assert ORACLE4.passed
        assert ORACLE4.failures == ()

    def test_report_fields(self):
        assert [f.name for f in dataclasses.fields(OracleReport)] == [
            "ell_max", "outcomes", "joint_records", "family_results", "failures"]
        assert [f.name for f in dataclasses.fields(JointRecord)] == [
            "t", "b1_internal", "b2_internal", "product"]
        assert [f.name for f in dataclasses.fields(FamilyResult)] == [
            "ell", "corrected_bad_survivors", "reversed_bad_survivors"]

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
        assert failed(ORACLE4, "REVERSAL") == {}
        survivors = {(o.t, o.kind, o.internal, o.e_hits) for o in ORACLE4.survivors_bad}
        for t, kind, internal, hits in survivors:
            ell = len(t)
            m_kind = {"B1": "B2", "B2": "B1", "A": "A"}[kind]
            m_internal = tuple(sorted(ell + 1 - j for j in internal))
            m_hits = tuple(sorted(ell + 1 - j for j in hits))
            assert (tuple(reversed(t)), m_kind, m_internal, m_hits) in survivors

    def test_reversal_closure_names_a_flipped_verdict_and_its_mirror(self, monkeypatch):
        examine = badcurves._examine
        flipped = ((2, 3, 5, 3), "B1", (1,), (1, 3))
        mirror = ((3, 5, 3, 2), "B2", (4,), (2, 4))

        def flip_one(*args):
            o = examine(*args)
            if (o.t, o.kind, o.internal, o.e_hits) == flipped:
                assert o.verdict == SURVIVES_BAD
                return dataclasses.replace(o, verdict=DIES)
            return o

        monkeypatch.setattr(badcurves, "_examine", flip_one)
        report = case_oracle(4)
        assert not report.passed
        assert {c for c, _, _ in report.failures} == {"REVERSAL"}
        assert failed(report, "REVERSAL") == {
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
        assert {c for c, _, _ in report.failures} == {"REVERSAL"}
        assert failed(report, "REVERSAL") == {
            ((2, 5, 3), *c): "mirror candidate missing" for c in enumerate_candidates(3)
        }

    def test_survivor_budget(self):
        assert failed(ORACLE4, "SURVIVOR_BOUND") == {}
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
        for check in ("A1_UNKILLED", "A1_CERTIFICATE", "A5_UNKILLED", "A5_CERTIFICATE"):
            assert failed(ORACLE4, check) == {}

    def test_family_results(self):
        assert [f.ell for f in ORACLE4.family_results] == [1, 2, 3, 4]
        for f in ORACLE4.family_results:
            assert f.corrected_bad_survivors == 0
            assert f.reversed_bad_survivors == 0
        assert failed(ORACLE4, "FAMILY") == {}

    def test_a_survivor_over_its_bound_is_named(self, monkeypatch):
        t, r = FAMILY_7
        b1 = (t, "B1", (1, 2, 3, 4, 5, 6), (1,))
        b2 = (r, "B2", (2, 3, 4, 5, 6, 7), (7,))  # b1's mirror
        report = forged_oracle(monkeypatch, FAMILY_7, {b1: FORGED_BAD, b2: FORGED_BAD})
        assert {c for c, _, _ in report.failures} == {"SURVIVOR_BOUND", "FAMILY"}
        assert failed(report, "SURVIVOR_BOUND") == {
            b1: "2n = 12 > ell + 4 = 11", b2: "2n = 12 > ell + 4 = 11"}
        assert failed(report, "FAMILY") == {
            (7, 1, 1): "bad survivors: 1 on [2, 2, 2, 2, 2, 2, 10], 1 on its reversal"}

    def test_a_compatible_b1_b2_pair_over_the_joint_bound_is_named(self, monkeypatch):
        # e alone, of multiplicity 1: the forged divisors E1 = e1 and E2 = e2 meet nowhere
        bad = {**FORGED_BAD, "mults": ((7, 1),)}
        forged = {(t, kind, internal, hits): bad
                  for t in FAMILY_6
                  for kind, internal, hits in (("B1", (1, 2, 3), (1,)), ("B2", (4, 5, 6), (6,)))}
        report = forged_oracle(monkeypatch, FAMILY_6, forged)
        assert {c for c, _, _ in report.failures} == {"JOINT_BOUND", "FAMILY"}
        assert failed(report, "JOINT_BOUND") == {
            (t, (1, 2, 3), (4, 5, 6), 0): "2(n1 + n2) = 12 > ell + 5 = 11" for t in FAMILY_6}
        assert report.joint_records == tuple(
            JointRecord(t, (1, 2, 3), (4, 5, 6), 0) for t in sorted(FAMILY_6))
        assert failed(report, "FAMILY") == {
            (6, 2, 2): "bad survivors: 2 on [2, 2, 2, 2, 2, 9], 2 on its reversal"}

    @pytest.mark.parametrize("strings, row, fields, check, why", [
        (FAMILY_7, ("A", (1, 2, 3, 5, 6, 7), (2, 6)), {"verdict": SURVIVES_GOOD},
         "A1_UNKILLED", f"verdict {SURVIVES_GOOD}, not {DIES}"),
        (FAMILY_7, ("A", (1, 2, 3, 5, 6, 7), (2, 6)), {"checks": (SW,)},
         "A1_CERTIFICATE", f"dies without {NO_MINUS_ONE} or {THREE_NEIGHBOR}"),
        (((2, 5, 3), (3, 5, 2)), ("A", (1, 3), (1, 3)), {"verdict": SURVIVES_GOOD},
         "A5_UNKILLED", f"verdict {SURVIVES_GOOD}, not {DIES}"),
        (((2, 5, 3), (3, 5, 2)), ("A", (1, 3), (1, 3)), {"checks": (SW,)},
         "A5_CERTIFICATE", f"dies without {PATTERN_ENDPOINTS}"),
    ])
    def test_an_a1_or_a5_row_off_its_certificate_is_named(
        self, monkeypatch, strings, row, fields, check, why
    ):
        # row is its own mirror image, so forging it on both strings keeps reversal closed
        report = forged_oracle(monkeypatch, strings, {(t, *row): fields for t in strings})
        assert {c for c, _, _ in report.failures} == {check}
        assert failed(report, check) == {(t, *row): why for t in strings}

    def test_a_bad_survivor_on_the_family_is_named(self, monkeypatch):
        strings = ((2, 2, 6), (6, 2, 2))
        row = ((2, 2, 6), "B1", (1,), (1,))
        report = forged_oracle(monkeypatch, strings, {row: FORGED_BAD})
        assert {c for c, _, _ in report.failures} == {"FAMILY", "REVERSAL"}
        assert failed(report, "FAMILY") == {
            (3, 1, 0): "bad survivors: 1 on [2, 2, 6], 0 on its reversal"}
        assert failed(report, "REVERSAL") == {
            row: f"mirror verdict {DIES} != {SURVIVES_BAD}",
            ((6, 2, 2), "B2", (3,), (3,)): f"mirror verdict {SURVIVES_BAD} != {DIES}",
        }

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
