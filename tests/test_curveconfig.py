"""Blow-up/blow-down bookkeeping, contraction traces, and divisor validation."""

import copy
import inspect
import json
import pickle
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_pairs_pairing,
    all_pairs_self,
    census_blowdown_inputs,
    choice_random_blowup,
    eager_contract_all,
    eager_jsonl_lines,
    explicit_random_blowup,
    path_census,
    rebuild_blow_up,
    scan_shape_faults,
    stage_pair_multiplicities,
)
from wahlkit.badcurves import build_candidate_config, enumerate_candidates
from wahlkit.curveconfig import connects, shape_faults
from wahlkit import (
    CONTRACTED_TO_POINT,
    STUCK,
    SW_VIOLATION,
    Curve,
    CurveConfig,
    Edge,
    FreePoint,
    GenericOn,
    Intersection,
    blow_down,
    blow_up,
    chain_config,
    config_from_json,
    config_to_json,
    contract_all,
    derived_multiplicities,
    divisor_k,
    divisor_pairing,
    divisor_product,
    divisor_self,
    enumerate_tstrings,
    is_nested,
    iterated_blowdown_trace,
    nesting_conflicts,
    random_blowup,
    single_curve,
    sw_check,
    trace_jsonl_lines,
    validate_zariski,
)


def base_pair() -> CurveConfig:
    """A (-1)-curve meeting a (-2)-curve once, both of multiplicity one."""
    return CurveConfig.make(
        [Curve(1, -1, -1, 1, "F1"), Curve(2, -2, 0, 1, "F2")], [Edge(1, 2, 1)]
    )


def rows(c: CurveConfig):
    return [(v.id, v.self_int, v.k_degree, v.mult) for v in c.vertices]


class TestConstruction:
    def test_chain_config_uses_adjunction(self):
        c = chain_config([-2, -1, -3])
        assert rows(c) == [(1, -2, 0, 0), (2, -1, -1, 0), (3, -3, 1, 0)]
        assert [(e.a, e.b, e.m) for e in c.edges] == [(1, 2, 1), (2, 3, 1)]

    def test_rejects_self_edges(self):
        with pytest.raises(ValueError):
            CurveConfig.make([Curve(1, -1, -1)], [Edge(1, 1, 1)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError):
            CurveConfig.make(
                [Curve(1, -1, -1), Curve(2, -2, 0)],
                [Edge(1, 2, 1), Edge(2, 1, 1)],
            )

    def test_rejects_dangling_edges(self):
        with pytest.raises(ValueError):
            CurveConfig.make([Curve(1, -1, -1)], [Edge(1, 2, 1)])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            CurveConfig.make([Curve(1, -1, -1), Curve(1, -2, 0)], [])

    def test_rejects_nonpositive_edge_weight(self):
        with pytest.raises(ValueError):
            CurveConfig.make(
                [Curve(1, -1, -1), Curve(2, -2, 0)], [Edge(1, 2, 0)]
            )

    @pytest.mark.parametrize("vertices, edges, named", [
        ([Curve(1, -1.5, -1, 1), Curve(2, -1, -1, 0.5)], [Edge(1, 2, 1.5)],
         "Curve (1, -1.5, -1, 1, ''): entry -1.5"),
        ([Curve(1, -1, -1, 1), Curve(2, -1, -1, 0.5)], [], "Curve (2, -1, -1, 0.5, ''): entry 0.5"),
        ([Curve(1, -1, -1, 1), Curve(2, -1, -1)], [Edge(1, 2, 1.5)], "Edge (1, 2, 1.5): entry 1.5"),
        ([Curve("a", -1, -1, 1)], [], "Curve ('a', -1, -1, 1, ''): entry 'a'"),
        ([Curve("1", -1, -1, 1)], [], "Curve ('1', -1, -1, 1, ''): entry '1'"),
        ([Curve(1, -1, None)], [], "Curve (1, -1, None, 0, ''): entry None"),
        ([Curve(1, -1, -1), Curve(2, -2, 0)], [Edge(1, 2.5, 1)], "Edge (1, 2.5, 1): entry 2.5"),
    ])
    def test_rejects_a_field_that_is_not_an_integer(self, vertices, edges, named):
        with pytest.raises(ValueError, match=re.escape(f"{named} is not an integer")):
            CurveConfig.make(vertices, edges)

    @pytest.mark.parametrize("vertices, edges, named", [
        ([Curve(True, -1, -1, 1)], [], "Curve (True, -1, -1, 1, ''): entry True"),
        ([Curve(1, -1, -1, True)], [], "Curve (1, -1, -1, True, ''): entry True"),
        ([Curve(1, -1, -1), Curve(2, -2, 0)], [Edge(1, 2, True)], "Edge (1, 2, True): entry True"),
    ])
    def test_refuses_a_bool_field_as_config_from_json_does(self, vertices, edges, named):
        with pytest.raises(ValueError, match=re.escape(f"{named} is a bool, not an integer")):
            CurveConfig.make(vertices, edges)

    def test_reads_an_exact_non_int_field_as_its_int(self):
        c = CurveConfig.make([Curve(1.0, -1, -1, 1.0), Curve(2, -2.0, 0)], [Edge(2.0, 1, 1)])
        assert c == CurveConfig.make([Curve(1, -1, -1, 1), Curve(2, -2, 0)], [Edge(1, 2, 1)])
        assert all(type(x) is int for v in c.vertices for x in v[:4])
        assert all(type(x) is int for e in c.edges for x in e)


class TestRecords:
    """Curve and Edge are tuple records; a config is read-only and keeps its public face."""

    @pytest.mark.parametrize("record, name", [
        (Curve(1, -1, -1, 1, "E1"), "self_int"),
        (Edge(1, 2, 1), "m"),
        (base_pair(), "vertices"),
        (base_pair(), "edges"),
        (base_pair(), "_by_id"),
        (base_pair(), "_adj"),
        (base_pair(), "extra"),
    ])
    def test_fields_cannot_be_assigned(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, None)

    def test_reprs(self):
        assert repr(Curve(1, -1, -1, 1, "E1")) == (
            "Curve(id=1, self_int=-1, k_degree=-1, mult=1, label='E1')"
        )
        assert repr(Edge(1, 2)) == "Edge(a=1, b=2, m=1)"

    def test_records_equal_plain_tuples_with_the_same_fields(self):
        assert Curve(1, -1, -1) == (1, -1, -1, 0, "")
        assert Edge(1, 2) == (1, 2, 1)
        assert sorted([Edge(2, 3), Edge(1, 4)]) == [Edge(1, 4), Edge(2, 3)]

    def test_a_trace_stays_hashable(self):
        trace = contract_all(random_blowup(random.Random(5), 8))
        assert hash(trace) == hash(contract_all(random_blowup(random.Random(5), 8)))

    def test_copy_and_pickle_rebuild_an_equal_config(self):
        c = blow_up(random_blowup(random.Random(3), 6), FreePoint())
        for other in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert other == c and index_view(other) == index_view(c)


def scan_pair(edges, u: int, w: int) -> int:
    a, b = min(u, w), max(u, w)
    return next((e.m for e in edges if (e.a, e.b) == (a, b)), 0)


def scan_neighbors(edges, vid: int) -> dict[int, int]:
    out = {e.b: e.m for e in edges if e.a == vid}
    out.update({e.a: e.m for e in edges if e.b == vid})
    return out


SMALL_CANDIDATES = [
    (t, internal, hits)
    for ell, strings in sorted(enumerate_tstrings(5).items())
    for t in sorted(tuple(s) for s in strings)
    for _, internal, hits in enumerate_candidates(ell)
]


class TestIndex:
    """The id and adjacency maps agree with a scan of the curves and edges behind a config."""

    @staticmethod
    def assert_matches_scan(c: CurveConfig, vertices: list[Curve], edges: list[Edge]):
        ids = sorted(v.id for v in vertices)
        probe = ids + [min(ids) - 1, max(ids) + 1]
        for u in probe:
            assert c.has_vertex(u) == (u in ids)
            assert c.neighbors(u) == scan_neighbors(edges, u)
            if u in ids:
                assert c.curve(u) == next(v for v in vertices if v.id == u)
            else:
                with pytest.raises(KeyError):
                    c.curve(u)
            for w in probe:
                if w != u:
                    assert c.pair(u, w) == scan_pair(edges, u, w)
        assert c.ids() == tuple(ids)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 12))
    def test_random_blowups(self, seed, depth):
        vertices, edges = explicit_random_blowup(random.Random(seed), depth)
        self.assert_matches_scan(random_blowup(random.Random(seed), depth), vertices, edges)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SMALL_CANDIDATES))
    def test_candidate_configs(self, candidate):
        t, _, hits = candidate
        config, e_id = build_candidate_config(t, hits)
        vertices = [Curve(j + 1, -bj, bj - 2, 0, f"C{j + 1}") for j, bj in enumerate(t)]
        vertices.append(Curve(e_id, -1, -1, 0, "e"))
        edges = [Edge(j, j + 1) for j in range(1, len(t))]
        edges += [Edge(h, e_id, m) for h, m in Counter(hits).items()]
        self.assert_matches_scan(config, vertices, edges)

    @pytest.mark.parametrize("seed", range(10))
    def test_derived_tuples_are_the_sorted_curves_and_edges(self, seed):
        rng = random.Random(seed)
        depth = rng.randrange(1, 25)
        vertices, edges = explicit_random_blowup(random.Random(seed), depth)
        c = random_blowup(random.Random(seed), depth)
        vid = rng.choice([v.id for v in vertices if (v.self_int, v.k_degree) == (-1, -1)])
        for cfg in (c, CurveConfig.make(vertices, edges), blow_down(c, vid)):
            curves = list(cfg._by_id.values())
            pairs = [Edge(a, b, m) for a, row in cfg._adj.items() for b, m in row.items() if a < b]
            rng.shuffle(curves)
            rng.shuffle(pairs)
            assert cfg.vertices == tuple(sorted(curves, key=lambda v: v.id))
            assert cfg.edges == tuple(sorted(pairs, key=lambda e: (e.a, e.b)))
            assert list(cfg._by_id) == sorted(cfg._by_id)
            assert all(list(row) == sorted(row) for row in cfg._adj.values())
        assert c.vertices == tuple(sorted(vertices, key=lambda v: v.id))
        assert c.edges == tuple(sorted(edges, key=lambda e: (e.a, e.b)))

    def test_pair_of_a_curve_with_itself_is_refused(self):
        with pytest.raises(ValueError):
            base_pair().pair(1, 1)

    def test_neighbors_is_a_copy(self):
        c = base_pair()
        c.neighbors(1)[2] = 5
        assert c.pair(1, 2) == 1

    def test_index_is_not_part_of_equality(self):
        c = base_pair()
        other = CurveConfig.make(c.vertices[::-1], [Edge(2, 1, 1)])
        assert other == c and hash(other) == hash(c)
        assert repr(c) == f"CurveConfig(vertices={c.vertices!r}, edges={c.edges!r})"

    def test_attached_curve_with_a_double_point(self):
        b = (3, 5, 2)
        config, e_id = build_candidate_config(b, (1, 1))
        hand_built = CurveConfig.make(
            [Curve(j + 1, -bj, bj - 2, 0, f"C{j + 1}") for j, bj in enumerate(b)]
            + [Curve(4, -1, -1, 0, "e")],
            [Edge(1, 2, 1), Edge(2, 3, 1), Edge(1, 4, 2)],
        )
        assert e_id == 4
        assert config == hand_built
        attached = chain_config([-3, -5, -2], attached=[(Curve(4, -1, -1, 0, "e"), (1, 1))])
        assert attached == hand_built
        assert attached.pair(1, 4) == 2


class TestBlowUp:
    def test_generic_point_on_minus_one(self):
        c = blow_up(base_pair(), GenericOn(1))
        assert rows(c) == [(1, -2, 0, 1), (2, -2, 0, 1), (3, -1, -1, 1)]
        assert c.pair(1, 3) == 1 and c.pair(2, 3) == 0

    def test_generic_point_on_minus_two(self):
        c = blow_up(base_pair(), GenericOn(2))
        assert rows(c) == [(1, -1, -1, 1), (2, -3, 1, 1), (3, -1, -1, 1)]

    def test_intersection_point(self):
        c = blow_up(base_pair(), Intersection(1, 2))
        assert rows(c) == [(1, -2, 0, 1), (2, -3, 1, 1), (3, -1, -1, 2)]
        assert c.pair(1, 2) == 0
        assert c.pair(1, 3) == 1 and c.pair(2, 3) == 1

    def test_free_point(self):
        c = blow_up(base_pair(), FreePoint())
        assert rows(c) == [(1, -1, -1, 1), (2, -2, 0, 1), (3, -1, -1, 0)]
        assert not c.neighbors(3)

    def test_intersection_requires_an_edge(self):
        c = blow_up(base_pair(), GenericOn(1))  # curves 2 and 3 are disjoint
        with pytest.raises(ValueError):
            blow_up(c, Intersection(2, 3))

    def test_intersection_consumes_one_branch(self):
        c = CurveConfig.make(
            [Curve(1, -1, -1, 1), Curve(2, -2, 0, 1)], [Edge(1, 2, 2)]
        )
        c2 = blow_up(c, Intersection(1, 2))
        assert c2.pair(1, 2) == 1  # tangency split: one branch remains

    def test_labels(self):
        c = blow_up(base_pair(), GenericOn(1), label="exc")
        assert c.curve(3).label == "exc"
        assert blow_up(base_pair(), GenericOn(1)).curve(3).label == "E3"

    def test_intersection_of_a_curve_with_itself_names_both_ids(self):
        with pytest.raises(ValueError, match=r"Intersection\(2, 2\) names one curve twice"):
            blow_up(base_pair(), Intersection(2, 2))
        with pytest.raises(KeyError, match="no vertex 7"):
            blow_up(base_pair(), Intersection(7, 7))

    def test_random_blowup_builds_only_its_seed_through_make(self, monkeypatch):
        made = []
        make = CurveConfig.make

        def counted(vertices, edges):
            made.append(1)
            return make(vertices, edges)

        monkeypatch.setattr(CurveConfig, "make", staticmethod(counted))
        c = random_blowup(random.Random(0), 30)
        assert len(made) == 1  # single_curve
        assert len(c.vertices) == 31


    @pytest.mark.parametrize("depth", [0, 1, 5, 20, 40])
    def test_random_blowup_draws_what_the_choice_list_drew(self, depth):
        for seed in range(40):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got, want = random_blowup(rng, depth), choice_random_blowup(ref_rng, depth)
            assert index_view(got) == index_view(want), (seed, depth)
            assert rng.getstate() == ref_rng.getstate()


def index_view(c: CurveConfig):
    """Everything a config's tuples and index show, the order of each row included."""
    return c.vertices, c.edges, c.ids(), [list(c.neighbors(u).items()) for u in c.ids()]


class TestBlowUpAgainstRebuild:
    """blow_up edits a copy of its input's index; rebuilding through make is the reference."""

    STARTS = {
        "single": single_curve,
        "empty": lambda: CurveConfig.make([], []),
        "tangency": lambda: CurveConfig.make(
            [Curve(1, -1, -1, 1), Curve(2, -2, 0, 1), Curve(3, -2, 0, 0)],
            [Edge(2, 1, 2), Edge(3, 2, 1)],
        ),
        "after_blow_down": lambda: blow_down(chain_config([-2, -1, -3, -2]), 2),
        "from_json": lambda: config_from_json({
            "vertices": [{"id": i, "self_int": -2, "k_degree": 0, "mult": i % 3}
                         for i in (12, 3, 7, 40)],
            "edges": [{"a": 12, "b": 3}, {"a": 40, "b": 7, "m": 2}, {"a": 7, "b": 3}],
        }),
    }

    @pytest.mark.parametrize("start", sorted(STARTS))
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_sequences(self, start, seed):
        rng = random.Random(seed)
        c = self.STARTS[start]()
        for step in range(14):
            points = [FreePoint()] + [GenericOn(u) for u in c.ids()]
            for e in c.edges:  # both orders, so Intersection(w, v) with w > v
                points += [Intersection(e.a, e.b), Intersection(e.b, e.a)]
            point = rng.choice(points)
            label = rng.choice([None, f"x{step}"])
            before = index_view(c)
            got = blow_up(c, point, label)
            want = rebuild_blow_up(c, point, label)
            assert index_view(got) == index_view(want), (start, seed, step, point)
            assert index_view(c) == before
            contract_all(got, tie_break=rng.choice(["lowest", "highest"]))
            assert index_view(c) == before
            assert index_view(got) == index_view(want)
            c = got

    def test_a_tangency_loses_one_branch_then_its_edge(self):
        c = self.STARTS["tangency"]()
        for _ in range(2):
            got, want = blow_up(c, Intersection(2, 1)), rebuild_blow_up(c, Intersection(2, 1))
            assert index_view(got) == index_view(want)
            c = got
        assert c.pair(1, 2) == 0 and c.neighbors(1) == {4: 1, 5: 1}

    @pytest.mark.parametrize("point", [
        GenericOn(9), Intersection(1, 9), Intersection(9, 1), Intersection(2, 3), "not a point",
    ])
    def test_errors_match_the_rebuild(self, point):
        c = blow_up(base_pair(), GenericOn(1))  # curves 2 and 3 are disjoint
        with pytest.raises(Exception) as want:
            rebuild_blow_up(c, point)
        with pytest.raises(want.type) as got:
            blow_up(c, point)
        assert str(got.value) == str(want.value)


class TestBlowDown:
    def test_requires_minus_one_minus_one(self):
        with pytest.raises(ValueError):
            blow_down(base_pair(), 2)

    def test_inverts_intersection_blowup(self):
        c = blow_up(base_pair(), Intersection(1, 2))
        assert blow_down(c, 3) == base_pair()

    def test_inverts_generic_blowup(self):
        c = blow_up(base_pair(), GenericOn(2))
        assert blow_down(c, 3) == base_pair()

    def test_inverts_free_blowup(self):
        c = blow_up(base_pair(), FreePoint())
        assert blow_down(c, 3) == base_pair()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 5))
    def test_inverts_any_blowup(self, seed, depth):
        rng = random.Random(seed)
        c = random_blowup(rng, depth)
        new_id = max(v.id for v in c.vertices) + 1
        choices = [GenericOn(v.id) for v in c.vertices]
        choices += [Intersection(e.a, e.b) for e in c.edges]
        choices.append(FreePoint())
        point = rng.choice(choices)
        assert blow_down(blow_up(c, point), new_id) == c


class TestSWRule:
    def test_flags_low_k_degree(self):
        c = CurveConfig.make([Curve(1, -3, -2, 0)], [])
        (v,) = sw_check(c)
        assert v.vertex == 1 and "k_degree" in v.rule

    def test_flags_minus_one_k_with_wrong_self(self):
        c = CurveConfig.make([Curve(1, -3, -1, 0)], [])
        (v,) = sw_check(c)
        assert v.vertex == 1

    def test_passes_legal_curves(self):
        c = CurveConfig.make([Curve(1, -1, -1, 0), Curve(2, -2, 0, 0)], [])
        assert sw_check(c) == ()

    def test_exemption(self):
        c = CurveConfig.make([Curve(1, -3, -2, 0)], [])
        assert sw_check(c, exempt=(1,)) == ()


class TestContraction:
    def test_single_exceptional_curve(self):
        trace = contract_all(single_curve())
        assert trace.status == CONTRACTED_TO_POINT
        assert trace.order == (1,)
        assert trace.final_config.vertices == ()

    def test_single_minus_two_is_stuck(self):
        trace = contract_all(chain_config([-2]))
        assert trace.status == STUCK
        assert trace.steps == ()

    def test_sw_violation_chain(self):
        trace = contract_all(chain_config([-2, -1, -2]))
        assert trace.status == SW_VIOLATION
        assert trace.order == (2, 1)
        final = trace.final_config
        assert rows(final) == [(3, 0, -2, 0)]
        last = trace.steps[-1]
        assert [w.vertex for w in last.violations] == [3]

    def test_sw_exempt_lets_it_finish(self):
        c = chain_config([-2, -1, -2])
        trace = contract_all(c, sw_exempt=c.ids())
        assert trace.status == STUCK  # ends at a single (0, -2) curve
        assert rows(trace.final_config) == [(3, 0, -2, 0)]

    def test_longer_chain_contracts(self):
        trace = contract_all(chain_config([-3, -1, -2]))
        assert trace.status == CONTRACTED_TO_POINT
        assert trace.order == (2, 3, 1)

    def test_frozen_vertices_are_not_contracted(self):
        c = blow_up(base_pair(), GenericOn(1))
        trace = contract_all(c, frozen=(1, 2))
        # every non-frozen vertex is gone, the frozen ones ride along
        assert trace.status == CONTRACTED_TO_POINT
        assert trace.order == (3,)
        assert {v.id for v in trace.final_config.vertices} == {1, 2}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 6))
    def test_tie_break_order_does_not_change_the_outcome(self, seed, depth):
        c = random_blowup(random.Random(seed), depth)
        lo = contract_all(c, tie_break="lowest")
        hi = contract_all(c, tie_break="highest")
        assert lo.status == hi.status == CONTRACTED_TO_POINT
        assert len(lo.steps) == len(hi.steps)


def config_maps(c):
    """(id -> curve, id -> neighbours) of a config, read through its public fields."""
    return {v.id: v for v in c.vertices}, {v.id: c.neighbors(v.id) for v in c.vertices}


def stage_snapshots(trace):
    """A copy of every (id map, adjacency map) the trace's stage walk yields."""
    return [(dict(curves), {u: dict(row) for u, row in adj.items()})
            for curves, adj in trace.stages()]


def candidate_contractions():
    """Every candidate config with ell <= 5, its externals frozen, under both tie-breaks."""
    for t, internal, hits in SMALL_CANDIDATES:
        config, _ = build_candidate_config(t, hits)
        externals = [j for j in range(1, len(t) + 1) if j not in internal]
        for tie_break in ("lowest", "highest"):
            yield config, externals, tie_break


class TestInPlaceContraction:
    """contract_all on one working copy agrees with the eager chain of full configs."""

    @staticmethod
    def assert_matches_eager(c, frozen=(), sw_exempt=(), tie_break="lowest"):
        trace = contract_all(c, frozen=frozen, sw_exempt=sw_exempt, tie_break=tie_break)
        status, steps = eager_contract_all(c, frozen, sw_exempt, tie_break)
        assert trace.status == status
        assert trace.order == tuple(vid for vid, _, _, _ in steps)
        for step, (_, hits, cfg, violations) in zip(trace.steps, steps):
            assert dict(step.hits) == hits
            assert [(w.vertex, w.rule) for w in step.violations] == violations
        assert stage_snapshots(trace) == [config_maps(c)] + [
            config_maps(cfg) for _, _, cfg, _ in steps]
        assert trace_jsonl_lines(trace) == eager_jsonl_lines(status, steps)
        assert trace.final_config == (steps[-1][2] if steps else c)
        if status == CONTRACTED_TO_POINT:
            assert derived_multiplicities(trace) == stage_pair_multiplicities(c, steps)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 14), st.sampled_from(["lowest", "highest"]))
    def test_random_divisors(self, seed, depth, tie_break):
        self.assert_matches_eager(random_blowup(random.Random(seed), depth), tie_break=tie_break)

    def test_every_small_candidate_with_externals_frozen(self):
        for config, externals, tie_break in candidate_contractions():
            self.assert_matches_eager(config, frozen=externals, tie_break=tie_break)

    def test_sw_exempt_and_stuck_chains(self):
        for chain in ([-2, -1, -2], [-3, -1, -2], [-2, -1, -3, -2], [-2, -2, -1, -2]):
            c = chain_config(chain)
            self.assert_matches_eager(c)
            self.assert_matches_eager(c, sw_exempt=c.ids())

    def test_violation_present_in_the_input_shows_at_step_one(self):
        # curves 2 and 3 break the SW rule from the start and no step touches them
        c = CurveConfig.make(
            [Curve(1, -1, -1), Curve(2, -3, -1), Curve(3, -4, -2), Curve(4, -2, 0)],
            [Edge(1, 4, 1)],
        )
        trace = contract_all(c)
        assert trace.status == SW_VIOLATION
        assert trace.order == (1,)
        assert [w.vertex for w in trace.steps[0].violations] == [2, 3]
        exempt = contract_all(c, sw_exempt=(2, 3))
        assert (exempt.status, exempt.order) == (STUCK, (1, 4))
        self.assert_matches_eager(c)

    def test_later_steps_report_only_touched_curves_in_id_order(self):
        # blowing down 4 makes both of its neighbours illegal at once
        c = chain_config([-1, -2, -1], attached=[(Curve(4, -1, -1), [1, 3])])
        trace = contract_all(c, frozen=(1, 2, 3))
        assert [w.vertex for w in trace.steps[-1].violations] == [1, 3]
        self.assert_matches_eager(c, frozen=(1, 2, 3))

    def test_a_double_point_weighs_the_multiplicity(self):
        # 2 meets 1 twice; once 2 is blown down 1 is a (-1, -1)-curve
        c = CurveConfig.make([Curve(1, -5, 1), Curve(2, -1, -1)], [Edge(1, 2, 2)])
        trace = contract_all(c, sw_exempt=c.ids())
        assert (trace.status, trace.order) == (CONTRACTED_TO_POINT, (2, 1))
        assert dict(trace.steps[0].hits) == {1: 2}
        assert derived_multiplicities(trace) == {1: 1, 2: 2}
        self.assert_matches_eager(c, sw_exempt=c.ids())

    def test_hits_are_read_only(self):
        c = random_blowup(random.Random(5), 8)
        trace = contract_all(c)
        step = trace.steps[0]
        with pytest.raises(TypeError):
            step.hits[step.vertex] = 7
        with pytest.raises(AttributeError):
            step.hits.clear()
        status, steps = eager_contract_all(c)
        assert derived_multiplicities(trace) == {v.id: v.mult for v in c.vertices}
        assert dict(step.hits) == steps[0][1]

    def test_every_stage_walk_starts_again_from_the_initial_config(self):
        c = random_blowup(random.Random(3), 6)
        before = config_maps(c)
        trace = contract_all(c)
        first = stage_snapshots(trace)
        assert len(first) == len(trace.steps) + 1
        assert first[0] == before and first[-1] == ({}, {})
        assert stage_snapshots(trace) == first
        assert config_maps(c) == before

    def test_reading_the_last_stage_first_does_not_recurse_per_stage(self):
        trace = contract_all(chain_config([-2] * 199 + [-1]))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            final = trace.final_config
        finally:
            sys.setrecursionlimit(limit)
        assert (trace.status, final.vertices) == (CONTRACTED_TO_POINT, ())

    def test_blow_down_leaves_its_input_alone(self):
        c = blow_up(base_pair(), Intersection(1, 2))
        before = (c.vertices, c.edges, c.neighbors(1), c.neighbors(3))
        blow_down(c, 3)
        assert (c.vertices, c.edges, c.neighbors(1), c.neighbors(3)) == before


class TestDivisorArithmeticAgainstAllPairs:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 12), st.data())
    def test_pairing_and_self_match_the_all_pairs_scan(self, seed, depth, data):
        c = random_blowup(random.Random(seed), depth)
        ids = list(c.ids())
        mults = data.draw(st.dictionaries(st.sampled_from(ids + [max(ids) + 1]),
                                          st.integers(-3, 4), max_size=len(ids) + 1))
        for target in ids:
            assert divisor_pairing(c, mults, target) == all_pairs_pairing(c, mults, target)
        if mults.get(max(ids) + 1):  # a nonzero multiplicity on a curve c lacks
            for square in (divisor_self, all_pairs_self):
                with pytest.raises(KeyError):
                    square(c, mults)
        else:
            assert divisor_self(c, mults) == all_pairs_self(c, mults)

    def test_candidate_configs_with_derived_multiplicities(self):
        for config, externals, tie_break in candidate_contractions():
            trace = contract_all(config, frozen=externals, tie_break=tie_break)
            if trace.status != CONTRACTED_TO_POINT:
                continue
            mults = derived_multiplicities(trace)
            for target in config.ids():
                assert divisor_pairing(config, mults, target) == all_pairs_pairing(
                    config, mults, target)
            assert divisor_self(config, mults) == all_pairs_self(config, mults)


class TestDerivedMultiplicities:
    def test_double_point_configuration(self):
        c = blow_up(base_pair(), Intersection(1, 2))
        trace = contract_all(c)
        assert trace.order == (3, 1, 2)
        assert derived_multiplicities(trace) == {1: 1, 2: 1, 3: 2}

    def test_matches_stored_multiplicities(self):
        for seed in range(30):
            c = random_blowup(random.Random(seed), 5)
            trace = contract_all(c)
            derived = derived_multiplicities(trace)
            assert derived == {v.id: v.mult for v in c.vertices}

    def test_requires_full_contraction(self):
        trace = contract_all(chain_config([-2]))
        with pytest.raises(ValueError):
            derived_multiplicities(trace)


class TestDivisorArithmetic:
    def test_double_point_divisor_numbers(self):
        c = blow_up(base_pair(), Intersection(1, 2))
        mults = {1: 1, 2: 1, 3: 2}
        assert divisor_self(c, mults) == -1
        assert divisor_k(c, mults) == -1
        assert divisor_pairing(c, mults, 1) == 0
        assert divisor_pairing(c, mults, 2) == -1  # contracted last
        assert divisor_pairing(c, mults, 3) == 0

    def test_product_of_disjoint_supports(self):
        c = CurveConfig.make(
            [Curve(1, -1, -1), Curve(2, -2, 0), Curve(3, -1, -1)],
            [Edge(1, 2, 1), Edge(2, 3, 1)],
        )
        assert divisor_product(c, {1: 1}, {3: 1}) == 0
        assert divisor_product(c, {1: 1}, {2: 2}) == 2

    def test_product_rejects_shared_components(self):
        c = base_pair()
        with pytest.raises(ValueError):
            divisor_product(c, {1: 1}, {1: 1, 2: 1})


class TestZariskiValidation:
    def test_double_point_validates(self):
        c = blow_up(base_pair(), Intersection(1, 2))
        report = validate_zariski(c)
        assert report.passed
        assert report.contraction_status == CONTRACTED_TO_POINT  # so every pairing check ran
        trace = contract_all(c, sw_exempt=c.ids())
        assert derived_multiplicities(trace) == {v.id: v.mult for v in c.vertices}

    def test_rejects_non_contractible(self):
        report = validate_zariski(chain_config([-2, -1, -2]), {1: 1, 2: 1, 3: 1})
        assert not report.passed

    def test_refuses_a_negative_multiplicity_naming_the_vertex(self):
        # components have m >= 1; a negative entry is not a bystander either
        c = blow_up(base_pair(), Intersection(1, 2))
        with pytest.raises(ValueError, match=r"vertex 1 has multiplicity -1 < 0"):
            validate_zariski(c, {1: -1, 2: 1})

    @pytest.mark.parametrize("m", [0, 1])
    def test_refuses_a_key_that_is_not_a_vertex(self, m):
        c = blow_up(base_pair(), Intersection(1, 2))
        with pytest.raises(ValueError, match=r"vertex 99 is not in the configuration"):
            validate_zariski(c, {1: 1, 2: 1, 3: 2, 99: m})

    @pytest.mark.parametrize("m", [1.5, float("inf"), None, "x"])
    def test_refuses_a_non_integral_multiplicity_naming_the_vertex(self, m):
        c = blow_up(base_pair(), Intersection(1, 2))
        with pytest.raises(ValueError, match=r"vertex 1 has multiplicity .*, not an integer"):
            validate_zariski(c, {1: m, 2: 1, 3: 2})

    def test_reads_an_exact_float_multiplicity_as_its_integer(self):
        c = blow_up(base_pair(), Intersection(1, 2))
        assert validate_zariski(c, {1: 1.0, 2: 1, 3: 2.0}) == validate_zariski(c)

    def test_connects(self):
        _, adj = config_maps(chain_config([-2, -1, -2, -3]))
        assert connects(adj, {1, 2, 3})
        assert not connects(adj, {1, 3, 4})
        assert connects(adj, {4})
        assert not connects(adj, set())  # the empty set has no component to reach

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**9), st.integers(1, 6))
    def test_random_blowups_always_validate(self, seed, depth):
        c = random_blowup(random.Random(seed), depth)
        report = validate_zariski(c)
        assert report.passed, report.failures
        trace = contract_all(c, sw_exempt=c.ids())
        assert derived_multiplicities(trace) == {v.id: v.mult for v in c.vertices}

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 8), st.data())
    def test_pairing_checks_hold_exactly_for_the_derived_multiplicities(self, seed, depth, data):
        # Components that contract have a negative definite intersection
        # matrix, so E.A_i = 0 (i not last) and E.A_last = -1 pin E down.
        c = random_blowup(random.Random(seed), depth)
        ids = c.ids()
        comp = ids if data.draw(st.booleans()) else sorted(
            data.draw(st.sets(st.sampled_from(ids), min_size=1)))
        if data.draw(st.booleans()):
            mults = {v: c.curve(v).mult for v in comp}
            for v in data.draw(st.lists(st.sampled_from(comp), max_size=2)):
                mults[v] = max(1, mults[v] + data.draw(st.sampled_from((-1, 1, 2))))
        else:
            mults = {v: data.draw(st.integers(1, 4)) for v in comp}
        report = validate_zariski(c, mults)
        # the trace validate_zariski builds: bystanders frozen, no SW rule
        trace = contract_all(c, frozen=[v for v in ids if v not in mults], sw_exempt=ids)
        assert report.contraction_status == trace.status
        if trace.status == CONTRACTED_TO_POINT:
            pinned = not {"pairing_zero_nonfinal", "pairing_final"} & set(report.failures)
            assert (derived_multiplicities(trace) == mults) == pinned


def expected_structure(c, comp):
    """validate_zariski's structural fields from the edge-scan reference, in failure order."""
    faults = scan_shape_faults(c, comp)
    members = [v for v in c.vertices if v.id in comp]
    return {
        "negative_self_ints": all(v.self_int < 0 for v in members),
        "simple_edges": "MULTI_EDGE" not in faults,
        "connected_tree": not {"DISCONNECTED_STAGE", "CYCLE"} & faults,
        "has_minus_one": any((v.self_int, v.k_degree) == (-1, -1) for v in members),
        "minus_one_neighbors_ok": "THREE_NEIGHBOR" not in faults,
    }


def with_extra_edges(c, extra):
    """c with each (a, b, m) of extra added to the intersection of a and b."""
    pairs = {(e.a, e.b): e.m for e in c.edges}
    for a, b, m in extra:
        key = (min(a, b), max(a, b))
        pairs[key] = pairs.get(key, 0) + m
    return CurveConfig.make(c.vertices, [Edge(a, b, m) for (a, b), m in pairs.items()])


class TestZariskiStructure:
    """validate_zariski's tree-shape fields agree with an edge scan of the components."""

    @staticmethod
    def assert_structure(c, mults):
        report = validate_zariski(c, mults)
        expected = expected_structure(c, {v for v, m in mults.items() if m})
        assert {name: name not in report.failures for name in expected} == expected
        failed = tuple(name for name, ok in expected.items() if not ok)
        assert report.failures[:len(failed)] == failed
        assert not set(report.failures[len(failed):]) & set(expected)
        return report

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10**9), st.integers(0, 10), st.data())
    def test_random_divisors_with_random_components(self, seed, depth, data):
        c = random_blowup(random.Random(seed), depth)
        ids = c.ids()
        if len(ids) >= 2:
            pairs = st.tuples(st.sampled_from(ids), st.sampled_from(ids), st.integers(1, 2))
            extra = data.draw(st.lists(pairs.filter(lambda p: p[0] != p[1]), max_size=3))
            c = with_extra_edges(c, extra)
        comp = data.draw(st.sets(st.sampled_from(ids), min_size=1))
        assert shape_faults(*config_maps(c), comp) == scan_shape_faults(c, comp)
        self.assert_structure(c, {v: c.curve(v).mult for v in comp})

    def test_a_double_edge(self):
        c = CurveConfig.make([Curve(1, -1, -1, 1), Curve(2, -3, 1, 2)], [Edge(1, 2, 2)])
        report = self.assert_structure(c, {1: 1, 2: 2})
        assert report.failures[0] == "simple_edges"
        assert "connected_tree" not in report.failures
        assert "minus_one_neighbors_ok" not in report.failures

    def test_a_cycle(self):
        c = CurveConfig.make(
            [Curve(1, -2, 0, 1), Curve(2, -1, -1, 1), Curve(3, -2, 0, 1)],
            [Edge(1, 2), Edge(2, 3), Edge(1, 3)],
        )
        report = self.assert_structure(c, {1: 1, 2: 1, 3: 1})
        assert report.failures[0] == "connected_tree"
        assert "simple_edges" not in report.failures
        assert "minus_one_neighbors_ok" not in report.failures

    def test_disconnected_components(self):
        c = CurveConfig.make([Curve(1, -1, -1, 1), Curve(2, -2, 0, 1)], [])
        report = self.assert_structure(c, {1: 1, 2: 1})
        assert report.failures[0] == "connected_tree"
        assert "simple_edges" not in report.failures
        assert "has_minus_one" not in report.failures

    def test_a_minus_one_curve_with_three_neighbours(self):
        c = chain_config([-2, -2, -2], attached=[(Curve(4, -1, -1, 1), [1, 2, 3])])
        report = self.assert_structure(c, {1: 1, 2: 1, 3: 1, 4: 1})
        assert report.failures[:2] == ("connected_tree", "minus_one_neighbors_ok")
        # the same curve on the star alone is a tree, and still fails
        star = CurveConfig.make(
            [Curve(1, -2, 0, 1), Curve(2, -2, 0, 1), Curve(3, -2, 0, 1), Curve(4, -1, -1, 1)],
            [Edge(1, 4), Edge(2, 4), Edge(3, 4)],
        )
        report = self.assert_structure(star, {1: 1, 2: 1, 3: 1, 4: 1})
        assert report.failures[0] == "minus_one_neighbors_ok"
        assert "simple_edges" not in report.failures
        assert "connected_tree" not in report.failures

    def test_a_double_edge_counts_twice_towards_three_neighbours(self):
        c = CurveConfig.make(
            [Curve(1, -1, -1, 1), Curve(2, -3, 1, 1), Curve(3, -2, 0, 1)],
            [Edge(1, 2, 2), Edge(1, 3)],
        )
        report = self.assert_structure(c, {1: 1, 2: 1, 3: 1})
        assert report.failures[:2] == ("simple_edges", "minus_one_neighbors_ok")

    def test_structural_failures_keep_their_order(self):
        # a 0-curve, a double edge, a curve off the rest and no (-1)-curve
        c = CurveConfig.make(
            [Curve(1, 0, -2, 1), Curve(2, -2, 0, 1), Curve(3, -2, 0, 1)], [Edge(1, 2, 2)]
        )
        report = self.assert_structure(c, {1: 1, 2: 1, 3: 1})
        assert report.failures[:4] == (
            "negative_self_ints", "simple_edges", "connected_tree", "has_minus_one")


class TestNesting:
    def test_is_nested(self):
        assert is_nested({1, 2}, {1, 2, 3})
        assert not is_nested({1, 2}, {3, 4})  # disjoint, neither contains
        assert not is_nested({1, 2}, {2, 3})

    def test_conflicts(self):
        # overlap without containment is the only conflict; disjointness is fine
        assert nesting_conflicts([{1, 2}, {1, 2, 3}, {3, 4}]) == [(1, 2)]
        assert nesting_conflicts([{1, 2}, {3, 4}]) == []
        assert nesting_conflicts([{1}, {1, 2}, {1, 2, 3}]) == []


class TestIteratedBlowdown:
    def test_special_shape_gives_equality(self):
        for n in range(3, 9):
            chain = [-n, -1] + [-2] * (n - 2)
            out = iterated_blowdown_trace(n, 2, chain, kS=0)
            assert out.reduction == 2 * (n - 1)

    def test_three_curve_chain(self):
        out = iterated_blowdown_trace(3, 2, [-3, -1, -2], kS=0)
        assert out.reduction == 4
        assert out.k_final == -4

    def test_equality_beyond_the_special_shape(self):
        # Valid chain where, mid-contraction, the transverse curve meets only
        # ONE remaining sphere; the final reduction still equals 2(n-1).
        out = iterated_blowdown_trace(4, 2, [-2, -1, -3, -2], kS=0)
        assert out.reduction == 6
        assert out.profile == ((2, 1, (1, 3)), (1, 1, (3,)), (3, 2, (4,)), (4, 2, ()))
        assert any(len(remaining) == 1 for _, _, remaining in out.profile[:-1])

    def test_strict_inequality_case(self):
        out = iterated_blowdown_trace(4, 2, [-3, -1, -2, -3], kS=0)
        assert out.reduction == 7 > 2 * (4 - 1)

    def test_kS_offsets_shift_k_final(self):
        base = iterated_blowdown_trace(3, 2, [-3, -1, -2], kS=0)
        shifted = iterated_blowdown_trace(3, 2, [-3, -1, -2], kS=5)
        assert shifted.k_final == base.k_final + 5
        assert shifted.reduction == base.reduction

    def test_rejects_bad_chains(self):
        with pytest.raises(ValueError):
            iterated_blowdown_trace(3, 2, [-2, -1, -2], kS=0)  # not contractible
        with pytest.raises(ValueError):
            iterated_blowdown_trace(4, 2, [-3, -1, -2, -2], kS=0)  # not contractible
        with pytest.raises(ValueError):
            iterated_blowdown_trace(3, 1, [-1, -2, -3], kS=0)  # -1 not interior
        with pytest.raises(ValueError):
            iterated_blowdown_trace(3, 2, [-3, -1, -1], kS=0)  # two -1 curves
        with pytest.raises(ValueError):
            iterated_blowdown_trace(3, 2, [-3, 0, -2], kS=0)  # entry > -1

    @pytest.mark.parametrize("n, i, kS", [
        (3, 2, 0.5), (3, 2, "x"), (3, 2, None), (3.5, 2, 0), (3, 2.5, 0), (None, 2, 0),
    ])
    def test_refuses_a_non_integral_n_i_or_kS(self, n, i, kS):
        with pytest.raises(ValueError, match="is not an integer"):
            iterated_blowdown_trace(n, i, [-3, -1, -2], kS)

    def test_reads_exact_floats_as_integers(self):
        out = iterated_blowdown_trace(3.0, 2.0, [-3, -1, -2], 5.0)
        assert (out.n, out.i, out.k_start) == (3, 2, 5)
        assert all(type(x) is int for x in (out.n, out.i, out.k_start, out.k_final))

    def test_bound_on_every_small_census_chain(self):
        for n, i, chain in census_blowdown_inputs(6):
            out = iterated_blowdown_trace(n, i, chain, kS=0)
            assert out.reduction >= 2 * (n - 1), (n, i, chain)


class TestPathCensus:
    def test_small_counts(self):
        census = path_census(3)
        assert (-1,) in census
        assert min((-2, -1), (-1, -2)) in census
        assert min((-3, -1, -2), (-2, -1, -3)) in census
        assert min((-1, -3, -1), (-1, -3, -1)) in census

    def test_census_equals_contractible_chains(self):
        # Independent characterization: a chain is in the census exactly when
        # blowing down (-1)-curves contracts it to a point (SW aside).
        census = {t for t in path_census(5)}
        brute = set()
        for n in range(1, 6):
            for t in _all_chains(n, low=-6):
                key = min(t, tuple(reversed(t)))
                if key in brute:
                    continue
                c = chain_config(list(t))
                if contract_all(c, sw_exempt=c.ids()).status == CONTRACTED_TO_POINT:
                    brute.add(key)
        assert census == brute


def _all_chains(n, low):
    if n == 0:
        yield ()
        return
    for rest in _all_chains(n - 1, low):
        for x in range(low, 0):
            yield rest + (x,)


class TestSerialization:
    def test_json_roundtrip(self):
        c = blow_up(base_pair(), Intersection(1, 2))
        assert config_from_json(config_to_json(c)) == c

    def test_json_roundtrip_through_text(self):
        c = random_blowup(random.Random(7), 5)
        text = json.dumps(config_to_json(c))
        assert config_from_json(json.loads(text)) == c

    def test_trace_lines_shape(self):
        trace = contract_all(chain_config([-2, -1, -2]))
        lines = trace_jsonl_lines(trace)
        records = [json.loads(x) for x in lines]
        assert records[-1] == {"status": SW_VIOLATION, "steps": 2}
        assert records[0]["step"] == 1
        assert all("remaining" in r for r in records[:-1])
