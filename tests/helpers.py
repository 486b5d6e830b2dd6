"""Shared brute-force generators and slow reference implementations for the tests."""

import json
from fractions import Fraction

import wahlkit.badcurves as bc
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
    TString,
    apply_L,
    apply_R,
    as_entries,
    blow_up,
    canonical_pairing,
    chain_determinant,
    checksum_ok,
    contract_all,
    derived_multiplicities,
    discrepancies,
    divisor_k,
    divisor_pairing,
    enumerate_tstrings,
    single_curve,
    tstring_to_params,
    validate_discrepancies,
)


def tstrings_to(ell_max: int) -> list[TString]:
    """Every T-string of length <= ell_max, shortest first, in enumerate_tstrings' order."""
    return [t for level in enumerate_tstrings(ell_max).values() for t in level]


def breadth_first_tstrings(ell_max: int) -> dict[int, tuple[TString, ...]]:
    """The slow reference for enumerate_tstrings: each level from the last by apply_L, apply_R."""
    levels = {1: (TString((4,)),)}
    for ell in range(2, ell_max + 1):
        level = []
        for parent in levels[ell - 1]:
            level.append(apply_L(parent))
            level.append(apply_R(parent))
        levels[ell] = tuple(level)
    return levels


def path_census(max_n: int) -> set[tuple[int, ...]]:
    """Self-intersection tuples of all contractible chain configurations.

    Breadth-first search over blow-up sequences that start from a single
    (-1)-curve and keep the configuration a path: blowing up a generic point
    of an end curve appends a fresh (-1), blowing up an intersection point
    inserts one between its two branches.  Results are deduplicated up to
    reversal (the moves commute with it) and capped at max_n vertices.
    """
    seed = (-1,)
    frontier = {seed}
    seen = {seed}
    out = {seed}
    while frontier:
        nxt = set()
        for t in frontier:
            if len(t) >= max_n:
                continue
            children = [
                t[:-1] + (t[-1] - 1, -1),
                (-1, t[0] - 1) + t[1:],
            ]
            for j in range(len(t) - 1):
                children.append(t[:j] + (t[j] - 1, -1, t[j + 1] - 1) + t[j + 2 :])
            for ch in children:
                key = min(ch, tuple(reversed(ch)))
                if key not in seen:
                    seen.add(key)
                    nxt.add(ch)
                    out.add(key)
        frontier = nxt
    return out


def census_blowdown_inputs(max_n: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """(n, i, chain) triples with a unique interior (-1), up to reversal."""
    rows = []
    for t in sorted(path_census(max_n)):
        n = len(t)
        if n < 3 or t.count(-1) != 1:
            continue
        i = t.index(-1) + 1
        if 2 <= i <= n - 1:
            rows.append((n, i, t))
    return rows


# ----- Rebuilding blow-up: the slow oracle for blow_up -----


def rebuild_blow_up(c, point, label=None):
    """Blow up a point by rebuilding the whole config through CurveConfig.make.

    The implementation blow_up had before it edited a copy of its input's
    index: every vertex and edge is rewritten, then sorted, validated and
    indexed again.
    """
    match point:  # the ids of the 0, 1 or 2 curves through the point
        case FreePoint():
            through: tuple[int, ...] = ()
        case GenericOn():
            through = (point.v,)
        case Intersection():
            through = (point.v, point.w)
        case _:
            raise TypeError(f"unknown point kind: {point!r}")
    for u in through:
        c.curve(u)
    if len(through) == 2 and c.pair(*through) < 1:
        raise ValueError(f"curves {through[0]} and {through[1]} do not intersect")
    return CurveConfig.make(*blow_up_lists(c.vertices, c.edges, through, label))


def blow_up_lists(vertices, edges, through, label=None):
    """The curves and edges after blowing up the point on the curves through.

    A plain rewrite of explicit lists, in any order, with no config and no
    check: through names the 0, 1 or 2 curves through the point, and the
    new curve takes the id after the largest.
    """
    new_id = max((u.id for u in vertices), default=0) + 1
    hit = [u for u in vertices if u.id in through]
    vertices = [Curve(u.id, u.self_int - 1, u.k_degree + 1, u.mult, u.label)
                if u.id in through else u for u in vertices]
    vertices.append(Curve(new_id, -1, -1, sum(u.mult for u in hit),
                          label if label is not None else f"E{new_id}"))
    edges = [Edge(ed.a, ed.b, ed.m - 1) if ed.a in through and ed.b in through else ed
             for ed in edges]
    edges = [ed for ed in edges if ed.m] + [Edge(u, new_id, 1) for u in through]
    return vertices, edges


def explicit_random_blowup(rng, depth):
    """random_blowup's draws, replayed on explicit curve and edge lists.

    Each step sorts the lists with sorted() and draws one index over the
    vertices, then the edges, as random_blowup does over a config's tuples.
    Returns the final (vertices, edges), read from no config.
    """
    vertices, edges = [Curve(1, -1, -1, 1, "E1")], []
    for _ in range(depth):
        vs = sorted(vertices, key=lambda v: v.id)
        es = sorted(edges, key=lambda e: (e.a, e.b))
        i = rng.randrange(len(vs) + len(es))
        through = (vs[i].id,) if i < len(vs) else (es[i - len(vs)].a, es[i - len(vs)].b)
        vertices, edges = blow_up_lists(vertices, edges, through)
    return vertices, edges


def choice_random_blowup(rng, depth):
    """random_blowup drawing its point with rng.choice over every point of every step.

    The implementation random_blowup had before it drew one index: the list
    holds a GenericOn per vertex, then an Intersection per edge.
    """
    c = single_curve()
    for _ in range(depth):
        choices = [GenericOn(v.id) for v in c.vertices]
        choices += [Intersection(e.a, e.b) for e in c.edges]
        c = blow_up(c, rng.choice(choices))
    return c


# ----- Eager contraction: the slow oracle for in-place contraction -----
#
# These are the implementations contract_all, blow_down, derived_multiplicities,
# staged_structure_checks and the divisor arithmetic had before contraction
# ran in place: every stage is a full config built from a scan of the edge
# tuple, and every pairing is an all-pairs sum.


def scan_blow_down(c, vid):
    """Blow down vid by rescanning c's vertex and edge tuples."""
    v = next(u for u in c.vertices if u.id == vid)
    assert (v.self_int, v.k_degree) == (-1, -1)
    hits = {e.b if e.a == vid else e.a: e.m for e in c.edges if vid in (e.a, e.b)}
    vertices = [
        Curve(u.id, u.self_int + hits[u.id] ** 2, u.k_degree - hits[u.id], u.mult, u.label)
        if u.id in hits else u
        for u in c.vertices if u.id != vid
    ]
    edges = [e for e in c.edges
             if vid not in (e.a, e.b) and not (e.a in hits and e.b in hits)]
    pairs = {(e.a, e.b): e.m for e in c.edges}
    touched = sorted(hits)
    for i, a in enumerate(touched):
        for b in touched[i + 1:]:
            edges.append(Edge(a, b, pairs.get((a, b), 0) + hits[a] * hits[b]))
    return CurveConfig.make(vertices, edges), hits


def scan_sw(c, exempt):
    """(vertex, rule) of every SW violation of c, by id."""
    out = []
    for v in c.vertices:
        if v.id in exempt:
            continue
        if v.k_degree <= -2:
            out.append((v.id, "k_degree <= -2"))
        elif v.k_degree == -1 and v.self_int != -1:
            out.append((v.id, "k_degree = -1 but self_int != -1"))
    return out


def eager_contract_all(c, frozen=(), sw_exempt=(), tie_break="lowest"):
    """(status, [(vertex, hits, config after, violations), ...]), one full config per stage."""
    steps = []
    cur = c
    while True:
        candidates = [v.id for v in cur.vertices
                      if v.id not in frozen and (v.self_int, v.k_degree) == (-1, -1)]
        if not candidates:
            stuck = any(v.id not in frozen for v in cur.vertices)
            return ("STUCK" if stuck else "CONTRACTED_TO_POINT"), steps
        vid = min(candidates) if tie_break == "lowest" else max(candidates)
        cur, hits = scan_blow_down(cur, vid)
        violations = scan_sw(cur, sw_exempt)
        steps.append((vid, hits, cur, violations))
        if violations:
            return "SW_VIOLATION", steps


def eager_jsonl_lines(status, steps):
    """trace_jsonl_lines, written out from the eager stages."""
    lines = [
        json.dumps({"step": k, "contracted": vid,
                    "remaining": [[v.id, v.self_int, v.k_degree] for v in cfg.vertices],
                    "violations": [{"vertex": w, "rule": r} for w, r in violations]},
                   separators=(",", ":"))
        for k, (vid, _, cfg, violations) in enumerate(steps, start=1)
    ]
    lines.append(json.dumps({"status": status, "steps": len(steps)}, separators=(",", ":")))
    return lines


def stage_pair_multiplicities(initial, steps):
    """derived_multiplicities by the creation-order recursion over stage pairs."""
    configs = [initial] + [cfg for _, _, cfg, _ in steps]
    creation = [vid for vid, _, _, _ in steps][::-1]
    n = len(creation)
    mult = {}
    for i in range(1, n + 1):
        stage = configs[n - i]  # the stage in which creation[i - 1] is newest
        mult[creation[i - 1]] = 1 if i == 1 else sum(
            mult[creation[j - 1]] * stage.pair(creation[j - 1], creation[i - 1])
            for j in range(1, i)
        )
    return mult


def scan_shape_faults(cfg, comp):
    """The tree-shape rule on comp from a scan of cfg's edge tuple and a BFS over it."""
    comp = set(comp)
    edges = [e for e in cfg.edges if e.a in comp and e.b in comp]
    fired = set()
    if any(e.m >= 2 for e in edges):
        fired.add("MULTI_EDGE")
    seen = {min(comp)} if comp else set()
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for e in edges:
            u = e.b if e.a == v else e.a if e.b == v else None
            if u is not None and u not in seen:
                seen.add(u)
                frontier.append(u)
    if not comp or seen != comp:
        fired.add("DISCONNECTED_STAGE")
    elif len(edges) >= len(comp):
        fired.add("CYCLE")
    for v in cfg.vertices:
        if v.id in comp and (v.self_int, v.k_degree) == (-1, -1):
            if sum(e.m for e in edges if v.id in (e.a, e.b)) >= 3:
                fired.add("THREE_NEIGHBOR")
    return fired


def scan_staged_checks(initial, components, steps):
    """staged_structure_checks by scan_shape_faults on every eager stage."""
    fired = set()
    remaining = set(components)
    stages = [(None, initial)] + [(vid, cfg) for vid, _, cfg, _ in steps]
    for vid, cfg in stages:
        remaining.discard(vid)
        if len(remaining) > 1:
            fired |= scan_shape_faults(cfg, remaining)
    return fired


def all_pairs_pairing(c, mults, target):
    """(sum m_i A_i) . C_target as a sum over every component."""
    total = mults.get(target, 0) * c.curve(target).self_int
    for vid, m in mults.items():
        if vid != target and m:
            total += m * c.pair(vid, target)
    return total


def all_pairs_self(c, mults):
    """(sum m_i A_i)**2 as a sum over every pair of components."""
    items = [(vid, m) for vid, m in sorted(mults.items()) if m]
    total = sum(m * m * c.curve(vid).self_int for vid, m in items)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            total += 2 * items[i][1] * items[j][1] * c.pair(items[i][0], items[j][0])
    return total


# ----- Eager discrepancies: the slow oracle for the cached continuant numerators -----


def eliminate_discrepancies(b):
    """Solve M a = (b_j - 2)_j by Fraction forward elimination and back substitution."""
    b = [int(x) for x in b]
    ell = len(b)
    rhs = [Fraction(x - 2) for x in b]
    diag = [Fraction(-x) for x in b]
    for i in range(1, ell):  # eliminate the subdiagonal, all of whose entries are 1
        factor = 1 / diag[i - 1]
        diag[i] -= factor
        rhs[i] -= factor * rhs[i - 1]
    a = [Fraction(0)] * ell
    a[-1] = rhs[-1] / diag[-1]
    for i in range(ell - 2, -1, -1):
        a[i] = (rhs[i] - a[i + 1]) / diag[i]
    return tuple(a)


def eager_pairing(b, v, kF):
    """canonical_pairing as a Fraction sum over eliminate_discrepancies."""
    value = sum((aj * vj for aj, vj in zip(eliminate_discrepancies(b), v)), Fraction(0))
    return value, value < kF


# ----- Fraction validation: the slow oracle for the integer validator -----


def fraction_validate_discrepancies(t, a):
    """validate_discrepancies in Fraction arithmetic, one entry at a time."""
    b = as_entries(t)
    if not b:
        raise ValueError("empty string")
    problems = []
    if len(a) != len(b):
        return [f"length mismatch: {len(a)} != {len(b)}"]
    if not all(Fraction(-1) < x < 0 for x in a):
        problems.append(f"some a_j outside (-1, 0): {a}")
    if a[0] + a[-1] != -1:
        problems.append(f"a_1 + a_ell = {a[0] + a[-1]} != -1")
    p2 = abs(chain_determinant(b))
    if any(x.denominator > 0 and p2 % x.denominator != 0 for x in a):
        problems.append(f"denominator does not divide p**2 = {p2}")
    ell = len(b)
    for j in range(ell):
        lhs = -b[j] * a[j]
        if j > 0:
            lhs += a[j - 1]
        if j < ell - 1:
            lhs += a[j + 1]
        if lhs != b[j] - 2:
            problems.append(f"row {j + 1} residual: {lhs} != {b[j] - 2}")
    return problems


# ----- Fraction atlas record: the slow oracle for the integer record -----


def fraction_atlas_record(t):
    """atlas_record through discrepancies(), validate_discrepancies and Fraction's terms."""
    b = as_entries(t)
    params = tstring_to_params(b)
    a = discrepancies(b)
    problems = validate_discrepancies(b, a)
    if problems:
        raise AssertionError(f"discrepancy invariants failed for {list(b)}: {problems}")
    det = abs(chain_determinant(b))
    if det != params.p**2:
        raise AssertionError(f"|det| = {det} != p^2 = {params.p ** 2} for {list(b)}")
    return {
        "p": params.p,
        "q": params.q,
        "ell": len(b),
        "b": list(b),
        "discrepancies": [f"{x.numerator}/{x.denominator}" for x in a],
        "det": det,
        "checksum_ok": checksum_ok(b),
    }


# ----- Bad-curve shapes: the slow reference for badcurves._shape -----


def end_intervals(internal, ell):
    """(x, y): internal = {1..x} union {y..ell} with x = 0 / y = ell+1 for empty sides."""
    x = 0
    while x + 1 in internal:
        x += 1
    y = ell + 1
    while y - 1 in internal and y - 1 > x:
        y -= 1
    if internal != set(range(1, x + 1)) | set(range(y, ell + 1)):
        raise ValueError(
            f"internal spheres {sorted(internal)} are not end-intervals of 1..{ell}"
        )
    return x, y


def reference_case(kind, internal, e_hits, ell):
    """The A or B subcase of an enumerated candidate, from end_intervals and hit filters."""
    if kind == "A":
        x, y = end_intervals(frozenset(internal), ell)
        return bc._a_case(e_hits[0], x, y, e_hits[1], ell)
    if len(set(e_hits)) == len(e_hits):
        lo, hi = min(internal), max(internal)
        inside = [h for h in e_hits if lo <= h <= hi]
        outside = [h for h in e_hits if not lo <= h <= hi]
        if len(inside) == 1 and len(outside) <= 1:
            return bc._b_case(kind, inside[0], lo, hi)
    return None


# ----- Eager candidate examination: the slow oracle for the shared parts -----


def eager_examine_candidate(t, kind, internal, e_hits):
    """examine_candidate building e's config and pattern checks for every candidate."""
    b = as_entries(t)
    ell = len(b)
    internal = tuple(sorted(internal))
    e_hits = tuple(sorted(e_hits))

    config, e_id = bc.build_candidate_config(b, e_hits)
    comps = set(internal) | {e_id}
    externals = [j for j in range(1, ell + 1) if j not in internal]

    checks = set()

    v_e = [0] * ell
    for h in e_hits:
        v_e[h - 1] += 1
    pat = bc.forbidden_patterns(b, v_e)
    checks.update(pat.failures)

    trace = contract_all(config, frozen=externals)
    checks |= bc.staged_structure_checks(comps, trace)
    if trace.status == SW_VIOLATION:
        checks.add(bc.SW)
    elif trace.status == STUCK:
        checks.add(bc.NO_MINUS_ONE)

    badness = v_full = mult_items = None
    if trace.status == CONTRACTED_TO_POINT:
        mults = derived_multiplicities(trace)
        mult_items = tuple(sorted(mults.items()))
        if any(m <= 0 for m in mults.values()):
            checks.add(bc.MULT_NONPOSITIVE)
        else:
            v_full = tuple(divisor_pairing(config, mults, j) for j in range(1, ell + 1))
            badness = sum(v_full)
            k_e = divisor_k(config, mults)
            assert k_e == -1, k_e
            if badness <= 0:
                checks.add(bc.ZERO_INCIDENCE)
            if not canonical_pairing(b, v_full, k_e)[1]:
                checks.add(bc.MAGIC_FULL)

    if checks:
        verdict = bc.DIES
    else:
        verdict = bc.SURVIVES_BAD if badness == 1 else bc.SURVIVES_GOOD

    return bc.CandidateOutcome(
        t=b, kind=kind, internal=internal, e_hits=e_hits,
        case=reference_case(kind, internal, e_hits, ell),
        checks=tuple(sorted(checks)), verdict=verdict, badness=badness,
        v=v_full, mults=mult_items,
    )
