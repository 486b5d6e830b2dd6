"""Blow-up / blow-down calculus on configurations of rational curves.

A configuration is a weighted intersection graph: each vertex is an
irreducible rational curve carrying its self-intersection C**2, its K-degree
K.C, and a nonnegative multiplicity in a tracked divisor class; each edge
carries a positive intersection multiplicity.  Only this homological data is
tracked — genus and singularities of images are out of scope because every
argument in the package needs nothing else.

The central notion is an *exceptional curve of the first kind*: the total
transform of a (-1)-curve under a sequence of blow-ups, i.e. a configuration
that can be contracted step by step, each step blowing down a curve with
C**2 = K.C = -1.  Such divisors E satisfy a rigid list of structural
properties (checked by :func:`validate_zariski`):

  (1) every component has negative self-intersection;
  (2) distinct components meet at most once, transversely;
  (3) the dual graph is a connected tree;
  (5) the component multiplicities are those derived_multiplicities reads
      off the contraction; the pairing checks of (6) test them;
  (6) E.A_i = 0 for every component contracted before the last and
      E.A_last = -1; consequently E**2 = -1 and K.E = -1;
  (7) some component is a (-1)-curve and every (-1)-component has at most
      two neighbours.

The "SW rule" encodes the smooth-rational-curve obstruction available in the
ambient manifolds we care about: a rational curve with K.A <= -1 must be a
(-1)-curve (K.A = -1, A**2 = -1).  Anything else with K.A <= -1 cannot
exist, and sw_check flags it.

Configs are immutable; every operation returns a new value.  Curves and
edges are tuple records.  A config holds one index, an id map and an
adjacency map, so looking up a curve, a pair or a neighbourhood does not scan
the graph; its sorted vertex and edge tuples are built from the index only
when something reads them.  blow_up derives its result from copies of its
input's two maps with the blow-up's local edits, at the cost of two C-level
dict copies; CurveConfig.make, which sorts, validates and indexes, builds
every other config, fresh ones and those read from outside input alike.
validate_zariski and the divisor arithmetic read the maps, so validating a
blown-up divisor never builds its tuples.  chain_config builds a chain with
adjunction K-degrees plus any curves attached to it, the shape the bad-curve
analysis works with.

One private helper, _total_transform, holds the blow-down formula and
applies it in place to an id map and an adjacency map; _blow_down_in_place
checks first that the curve is a (-1, -1) one.  blow_down runs it on a copy
of a config's maps, and contract_all's loop on its working copy, where a
step also checks the SW rule on the curves it hits (on every curve for a
first step).  A ContractionStep is plain data: the contracted vertex,
its neighbourhood ``hits`` (read-only) and its SW violations.
derived_multiplicities reads the ``hits``.  Readers of the stages walk them
with BlowDownTrace.stages, which replays the trace on one copy of the maps.

contract_all handles its arguments, then runs the one contraction loop,
_contract, on one working copy of the maps for the whole contraction, so a
step costs O(degree**2) instead of a rebuild.  The bad-curve oracle keeps
one trie of stages per chain length instead (see badcurves): the formula
never reads a chain's self-intersections except to add to them, so it runs
_total_transform on the stages of the -2-chain, each built once from its
parent, and shifts them per string.  It reads the SW rule through
_sw_rule, which _sw_violation applies, and the multiplicities through
_multiplicities, which derived_multiplicities applies.

shape_faults is the one tree-shape rule of an exceptional curve, applied
once by validate_zariski and, on a replay of every stage, by
badcurves.staged_structure_checks; _shape_step keeps the same rule up across
a blow-down from the step's hits, which is how the bad-curve oracle applies it.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .tstring import _entry, as_entries

# Terminal states of contract_all.
CONTRACTED_TO_POINT = "CONTRACTED_TO_POINT"
STUCK = "STUCK"
SW_VIOLATION = "SW_VIOLATION"

# Tree-shape faults reported by shape_faults.
MULTI_EDGE = "MULTI_EDGE"
CYCLE = "CYCLE"
THREE_NEIGHBOR = "THREE_NEIGHBOR"
DISCONNECTED_STAGE = "DISCONNECTED_STAGE"


class Curve(NamedTuple):
    id: int
    self_int: int
    k_degree: int
    mult: int = 0
    label: str = ""


class Edge(NamedTuple):
    """Unordered pair a < b with intersection multiplicity m >= 1."""

    a: int
    b: int
    m: int = 1


_set = object.__setattr__  # CurveConfig's own writes, past its read-only __setattr__


def _exact(rec: Curve | Edge) -> Curve | Edge:
    """rec with each field but a label read through _entry; ValueError naming a lossy one."""
    try:
        return rec._replace(**{f: _entry(x) for f, x in zip(rec._fields, rec) if f != "label"})
    except ValueError as exc:
        raise ValueError(f"{type(rec).__name__} {tuple(rec)}: {exc}") from None


class CurveConfig:
    """A configuration held as two maps, with its sorted tuples derived on demand.

    ``_by_id`` maps id -> Curve and ``_adj`` maps id -> {neighbour: m}; both
    list ids in increasing order, and so does every row of ``_adj``.
    ``vertices`` (ids ascending) and ``edges`` (pairs (a, b) with a < b,
    ascending) are built from them on first read and then kept.  Equality,
    hashing and repr are those of (vertices, edges).  A config is read-only;
    configs may share rows of ``_adj``, so no row is ever changed in place.
    The constructor takes the two maps as they are: :meth:`make` is the one
    that sorts and validates.
    """

    __slots__ = ("_by_id", "_adj", "_vertices", "_edges")

    def __init__(self, by_id: dict[int, Curve], adj: dict[int, dict[int, int]]):
        _set(self, "_by_id", by_id)
        _set(self, "_adj", adj)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"CurveConfig is read-only: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"CurveConfig is read-only: cannot delete {name!r}")

    @property
    def vertices(self) -> tuple[Curve, ...]:
        try:
            return self._vertices
        except AttributeError:
            _set(self, "_vertices", tuple(self._by_id.values()))
            return self._vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        try:
            return self._edges
        except AttributeError:
            _set(self, "_edges", tuple(
                Edge(a, b, m) for a, row in self._adj.items() for b, m in row.items() if a < b
            ))
            return self._edges

    def __eq__(self, other):
        if other.__class__ is not CurveConfig:
            return NotImplemented
        return (self.vertices, self.edges) == (other.vertices, other.edges)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"CurveConfig(vertices={self.vertices!r}, edges={self.edges!r})"

    def __reduce__(self):  # copy and pickle rebuild through make, past __setattr__
        return CurveConfig.make, (self.vertices, self.edges)

    @staticmethod
    def make(vertices: Iterable[Curve], edges: Iterable[Edge]) -> "CurveConfig":
        """Canonicalize (sort), validate and index a configuration.

        Every field but a curve's label must be an int; one that is not is
        read through tstring's _entry, so a lossy value such as 1.5 or 'a'
        raises ValueError naming it.
        """
        # the chained test holds when all four fields are ints
        vs = sorted((
            v if type(v.id) is type(v.self_int) is type(v.k_degree) is type(v.mult) is int
            else _exact(v) for v in vertices
        ), key=lambda v: v.id)
        by_id = {v.id: v for v in vs}
        if len(by_id) != len(vs):
            raise ValueError(f"duplicate vertex ids: {[v.id for v in vs]}")
        for v in vs:
            if v.mult < 0:
                raise ValueError(f"vertex {v.id} has multiplicity {v.mult} < 0")
        norm = []
        for e in edges:
            if not (type(e.a) is type(e.b) is type(e.m) is int):
                e = _exact(e)
            a, b = (e.a, e.b) if e.a < e.b else (e.b, e.a)
            if a == b:
                raise ValueError(f"self-edge at vertex {a}")
            if a not in by_id or b not in by_id:
                raise ValueError(f"edge ({e.a},{e.b}) references missing vertex")
            if e.m < 1:
                raise ValueError(f"edge ({a},{b}) has multiplicity {e.m} < 1")
            norm.append((a, b, e.m))
        norm.sort()
        adj: dict[int, dict[int, int]] = {vid: {} for vid in by_id}
        for a, b, m in norm:
            if b in adj[a]:
                raise ValueError(f"duplicate edges: {[(a, b) for a, b, _ in norm]}")
            adj[a][b] = adj[b][a] = m
        return CurveConfig(by_id, adj)

    def ids(self) -> tuple[int, ...]:
        return tuple(self._by_id)

    def curve(self, vid: int) -> Curve:
        try:
            return self._by_id[vid]
        except KeyError:
            raise KeyError(f"no vertex {vid}") from None

    def has_vertex(self, vid: int) -> bool:
        return vid in self._by_id

    def pair(self, u: int, w: int) -> int:
        """Intersection number of two distinct curves (0 when no edge)."""
        if u == w:
            raise ValueError("pair() is for distinct curves; use self_int")
        return self._adj.get(u, {}).get(w, 0)

    def neighbors(self, vid: int) -> dict[int, int]:
        """Map neighbour id -> intersection multiplicity."""
        return dict(self._adj.get(vid, {}))


def single_curve() -> CurveConfig:
    """One (-1)-curve E1 of multiplicity 1, the usual seed for blow-up experiments."""
    return CurveConfig.make([Curve(1, -1, -1, 1, "E1")], [])


def chain_config(
    self_ints: Sequence[int],
    attached: Iterable[tuple[Curve, Iterable[int]]] = (),
) -> CurveConfig:
    """A chain of embedded rational curves with the given self-intersections.

    K-degrees are filled in by adjunction (K.C = -2 - C**2); ids run 1..n.
    Each ``(curve, hits)`` in ``attached`` adds a curve off the chain that
    meets chain curve h once per occurrence of h in hits (so a repeated h is
    a double point, an edge of multiplicity 2).
    """
    vertices = [Curve(i, s, -2 - s, 0, f"C{i}") for i, s in enumerate(self_ints, start=1)]
    edges = [Edge(i, i + 1, 1) for i in range(1, len(vertices))]
    for curve, hits in attached:
        vertices.append(curve)
        edges += [Edge(h, curve.id, m) for h, m in Counter(hits).items()]
    return CurveConfig.make(vertices, edges)


# ----- Point specifications for blow-up -----


@dataclass(frozen=True)
class GenericOn:
    """A generic point on curve v (away from all other curves)."""

    v: int


@dataclass(frozen=True)
class Intersection:
    """One of the intersection points of curves v and w."""

    v: int
    w: int


@dataclass(frozen=True)
class FreePoint:
    """A point on no tracked curve."""


PointSpec = GenericOn | Intersection | FreePoint


# ----- Blow-up / blow-down -----


def blow_up(c: CurveConfig, point: PointSpec, label: str | None = None) -> CurveConfig:
    """Blow up a point, replacing every curve through it by its total transform.

    The new exceptional curve e has e**2 = K.e = -1 and meets each curve
    through the point once.  A curve through the point loses 1 from its
    self-intersection and gains 1 of K-degree; two curves through it meet
    once less; e inherits the sum of the multiplicities of the curves
    through the point (so the tracked divisor class is replaced by its total
    transform).

    The result is c's two maps with these local edits, not a rebuild through
    make: c is a validated config and the edits keep it one, so a blow-up
    costs two C-level dict copies.  Rows of the adjacency map that the point
    does not touch are shared with c.  e takes the id after c's largest, the
    last key of c's id map (1 in an empty config).
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
    hit = [c.curve(u) for u in through]
    if len(through) == 2:
        if through[0] == through[1]:
            raise ValueError(
                f"Intersection({through[0]}, {through[1]}) names one curve twice; "
                "an intersection point needs two distinct curves"
            )
        if c.pair(*through) < 1:
            raise ValueError(f"curves {through[0]} and {through[1]} do not intersect")
    through = tuple(sorted(through))
    curves = dict(c._by_id)
    adj = dict(c._adj)
    new_id = next(reversed(curves), 0) + 1
    for u in hit:
        curves[u.id] = Curve(u.id, u.self_int - 1, u.k_degree + 1, u.mult, u.label)
        adj[u.id] = dict(adj[u.id])
    if len(through) == 2:  # the two curves meet once less
        a, b = through
        m = adj[a][b] - 1
        if m:
            adj[a][b] = adj[b][a] = m
        else:
            del adj[a][b], adj[b][a]
    curves[new_id] = Curve(new_id, -1, -1, sum(u.mult for u in hit),
                           label if label is not None else f"E{new_id}")
    # new_id is the largest id, so it goes last in each row, as make orders them
    for u in through:
        adj[u][new_id] = 1
    adj[new_id] = dict.fromkeys(through, 1)
    return CurveConfig(curves, adj)


def _blow_down_in_place(
    curves: dict[int, Curve], adj: dict[int, dict[int, int]], vid: int
) -> dict[int, int]:
    """Blow down vid, a (-1, -1) curve, on an id map and an adjacency map; return its hits.

    A missing vid raises KeyError and any other curve ValueError; the maps
    are then as they were.  The bookkeeping is _total_transform's.
    """
    v = curves.get(vid)
    if v is None:
        raise KeyError(f"no vertex {vid}")
    if v.self_int != -1 or v.k_degree != -1:
        raise ValueError(
            f"vertex {vid} has (self, K) = ({v.self_int}, {v.k_degree}), need (-1, -1)"
        )
    return _total_transform(curves, adj, vid)


def _total_transform(
    curves: dict[int, Curve], adj: dict[int, dict[int, int]], vid: int
) -> dict[int, int]:
    """The blow-down formula, applied in place to vid whatever its (self, K); return its hits.

    Standard total-transform bookkeeping: for curves C, D meeting the
    contracted curve e with multiplicities (C.e), (D.e), the images satisfy
    C.D += (C.e)(D.e), C**2 += (C.e)**2 and K.C -= C.e.  Multiplicities are
    unchanged.  Only e and its neighbours are touched, so a step costs
    O(degree**2).  The returned map (neighbour -> C.e) is no longer part of
    ``adj``.  The adjacency part never reads a curve, and the curve part
    adds to C**2 and K.C, so applied to the -2-chain's curves it gives every
    chain's stage up to a shift per curve: the bad-curve oracle's trie
    (badcurves._Node) applies it there, where vid is a (-1, -1) curve only
    once a string's shift is added.
    """
    del curves[vid]
    hits = adj.pop(vid)
    touched = list(hits.items())
    for i, (a, ma) in enumerate(touched):
        u = curves[a]
        curves[a] = Curve(a, u.self_int + ma * ma, u.k_degree - ma, u.mult, u.label)
        row = adj[a]
        del row[vid]
        for b, mb in touched[i + 1:]:
            row[b] = adj[b][a] = row.get(b, 0) + ma * mb
    return hits


def _maps(c: CurveConfig) -> tuple[dict[int, Curve], dict[int, dict[int, int]]]:
    """A private, mutable copy of c's id map and adjacency map."""
    return dict(c._by_id), {u: dict(row) for u, row in c._adj.items()}


def _from_maps(curves: Mapping[int, Curve], adj: Mapping[int, Mapping[int, int]]) -> CurveConfig:
    """The config with the given id map and adjacency map, built by make."""
    edges = [Edge(a, b, m) for a, row in adj.items() for b, m in row.items() if a < b]
    return CurveConfig.make(curves.values(), edges)


def blow_down(c: CurveConfig, vid: int) -> CurveConfig:
    """Blow down a curve with self-intersection -1 and K-degree -1.

    Returns a new config and leaves c as it is.  The total-transform
    bookkeeping (C.D += (C.e)(D.e), C**2 += (C.e)**2, K.C -= C.e, the
    multiplicities unchanged) is the formula of _blow_down_in_place, which
    contract_all applies to its working copy.
    """
    curves, adj = _maps(c)
    _blow_down_in_place(curves, adj, vid)
    return _from_maps(curves, adj)


# ----- SW obstruction rule -----


@dataclass(frozen=True)
class SWViolation:
    vertex: int
    self_int: int
    k_degree: int
    rule: str


def _sw_violation(v: Curve) -> SWViolation | None:
    """The SW rule on one curve, as an SWViolation when it breaks it."""
    rule = _sw_rule(v.self_int, v.k_degree)
    return None if rule is None else SWViolation(v.id, v.self_int, v.k_degree, rule)


def _sw_rule(self_int: int, k_degree: int) -> str | None:
    """The SW rule that A**2 and K.A break: K.A <= -2, or K.A = -1 with A**2 != -1."""
    if k_degree <= -2:
        return "k_degree <= -2"
    if k_degree == -1 and self_int != -1:
        return "k_degree = -1 but self_int != -1"
    return None


def sw_check(c: CurveConfig, exempt: Iterable[int] = ()) -> tuple[SWViolation, ...]:
    """Flag curves that cannot exist: K.A <= -2, or K.A = -1 with A**2 != -1."""
    skip = set(exempt)
    found = (_sw_violation(v) for vid, v in c._by_id.items() if vid not in skip)
    return tuple(w for w in found if w is not None)


# ----- Full contraction -----


@dataclass(frozen=True)
class ContractionStep:
    """One blow-down: the contracted vertex, its neighbourhood and the violations found.

    ``hits`` maps each curve the contracted one met, at that stage, to the
    intersection multiplicity; it is read-only.
    """

    vertex: int
    hits: Mapping[int, int] = field(hash=False)
    violations: tuple[SWViolation, ...]


@dataclass(frozen=True)
class BlowDownTrace:
    initial: CurveConfig
    steps: tuple[ContractionStep, ...]
    status: str

    def stages(self) -> Iterator[tuple[dict[int, Curve], dict[int, dict[int, int]]]]:
        """The id map and adjacency map of initial, then of the stage after each step.

        One working copy is blown down in place between yields, so each yield
        replaces the one before: read it before advancing, never keep or alter it.
        """
        curves, adj = _maps(self.initial)
        yield curves, adj
        for step in self.steps:
            _blow_down_in_place(curves, adj, step.vertex)
            yield curves, adj

    @property
    def final_config(self) -> CurveConfig:
        for curves, adj in self.stages():
            pass
        return _from_maps(curves, adj)

    @property
    def order(self) -> tuple[int, ...]:
        return tuple(s.vertex for s in self.steps)


def contract_all(
    c: CurveConfig,
    frozen: Iterable[int] = (),
    sw_exempt: Iterable[int] = (),
    tie_break: str = "lowest",
) -> BlowDownTrace:
    """Blow down (-1,-1)-curves until none are left, checking the SW rule each step.

    Vertices in ``frozen`` are never contracted (they ride along and absorb
    bookkeeping); vertices in ``sw_exempt`` are excluded from the SW rule.
    Ties are broken by lowest id (or highest, for the order-independence
    check).  Terminal status:

    - CONTRACTED_TO_POINT: every non-frozen vertex was contracted;
    - STUCK: non-frozen vertices remain but none is a (-1,-1)-curve;
    - SW_VIOLATION: a step produced a curve violating the SW rule.

    The contraction runs on one private working copy of c's maps, so a step
    costs O(degree**2); the trace's stages() replays it for readers after
    the fact.  The first step checks every remaining vertex against the SW
    rule; after a clean step only the curves a step touches can change, so
    later steps check those alone.
    """
    if tie_break not in ("lowest", "highest"):
        raise ValueError(f"tie_break must be 'lowest' or 'highest', got {tie_break!r}")
    status, steps = _contract(
        *_maps(c), frozenset(frozen), frozenset(sw_exempt),
        min if tie_break == "lowest" else max,
    )
    return BlowDownTrace(c, tuple(steps), status)


def _minus_ones(curves: Mapping[int, Curve]) -> set[int]:
    """The ids of the (-1, -1) curves, the ones a contraction may blow down."""
    return {vid for vid, v in curves.items() if v.self_int == -1 and v.k_degree == -1}


def _contract(
    curves: dict[int, Curve],
    adj: dict[int, dict[int, int]],
    hold: frozenset[int],
    skip: frozenset[int],
    pick: Callable[[Iterable[int]], int],
) -> tuple[str, list[ContractionStep]]:
    """contract_all's loop on working maps, blown down in place; returns the status and steps.

    The first step checks the SW rule on every curve but those in skip;
    after a clean step only the curves a step hits can change, so a later
    step checks those alone.  A step's hits are the row of its vertex that
    the blow-down took out of adj.
    """
    candidates = _minus_ones(curves) - hold
    steps: list[ContractionStep] = []
    while candidates:
        vid = pick(candidates)
        candidates.remove(vid)
        hits = _blow_down_in_place(curves, adj, vid)
        found = []
        for u in (hits if steps else curves):
            if u not in skip:
                w = _sw_violation(curves[u])
                if w is not None:
                    found.append(w)
        if found:
            found.sort(key=lambda w: w.vertex)
        steps.append(ContractionStep(vid, MappingProxyType(hits), tuple(found)))
        if found:
            return SW_VIOLATION, steps
        for u in hits:
            v = curves[u]
            if v.self_int == -1 and v.k_degree == -1 and u not in hold:
                candidates.add(u)
            else:
                candidates.discard(u)
    return (CONTRACTED_TO_POINT if hold.issuperset(curves) else STUCK), steps


def derived_multiplicities(trace: BlowDownTrace) -> dict[int, int]:
    """Component multiplicities of the contracted divisor, from the trace.

    Reading the contraction backwards as a creation history, the first-created
    component (contracted last) has multiplicity 1, and each later component
    inherits the multiplicity-weighted sum of its intersections with the
    components already present at its creation stage.  Those intersections
    are the step's ``hits``.  This reproduces the total-transform bookkeeping
    of blow_up exactly.
    """
    if trace.status != CONTRACTED_TO_POINT:
        raise ValueError(f"trace did not contract to a point: {trace.status}")
    return _multiplicities([(step.vertex, step.hits) for step in trace.steps])


def _multiplicities(steps: Sequence[tuple[int, Mapping[int, int]]]) -> dict[int, int]:
    """derived_multiplicities of a contraction to a point, from its (vertex, hits) steps in order.

    The bad-curve oracle's trie keeps each stage's path in this form.
    """
    mult: dict[int, int] = {}
    for vertex, hits in reversed(steps):
        mult[vertex] = sum(mult[u] * m for u, m in hits.items() if u in mult) if mult else 1
    return mult


# ----- Divisor-class arithmetic -----


def divisor_pairing(c: CurveConfig, mults: Mapping[int, int], target: int) -> int:
    """(sum m_i A_i) . C_target, including the self-term when target is a component."""
    total = mults.get(target, 0) * c.curve(target).self_int
    for u, m in c._adj[target].items():
        total += mults.get(u, 0) * m
    return total


def divisor_self(c: CurveConfig, mults: Mapping[int, int]) -> int:
    """(sum m_i A_i)**2, as sum m_i (sum m_j A_j) . A_i."""
    return sum(m * divisor_pairing(c, mults, vid) for vid, m in mults.items() if m)


def divisor_k(c: CurveConfig, mults: Mapping[int, int]) -> int:
    """K . (sum m_i A_i)."""
    return sum(m * c.curve(vid).k_degree for vid, m in mults.items())


def divisor_product(c: CurveConfig, m1: Mapping[int, int], m2: Mapping[int, int]) -> int:
    """(sum m1_i A_i) . (sum m2_j B_j) for divisors with disjoint components."""
    shared = {v for v, m in m1.items() if m} & {v for v, m in m2.items() if m}
    if shared:
        raise ValueError(f"divisors share components: {sorted(shared)}")
    total = 0
    for v1, a in m1.items():
        if not a:
            continue
        for v2, b in m2.items():
            if b:
                total += a * b * c.pair(v1, v2)
    return total


# ----- Structural validation -----


def connects(adj: Mapping[int, Mapping[int, int]], comp: set[int]) -> bool:
    """Whether the edges of adj between members of comp connect comp.

    The empty set counts as not connected: it has no component to reach.
    """
    if not comp:
        return False
    seen = {min(comp)}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for u in adj.get(v, ()):
            if u in comp and u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen == comp


def shape_faults(
    curves: Mapping[int, Curve], adj: Mapping[int, Mapping[int, int]], comp: set[int]
) -> set[str]:
    """The tree-shape rules of an exceptional curve that the components comp break.

    The edges between members of comp must be simple (else MULTI_EDGE) and
    form a connected tree (else DISCONNECTED_STAGE, or CYCLE when they do
    connect comp), and each (-1, -1) member must meet the others at most
    twice in total (else THREE_NEIGHBOR).  _shape_step keeps the same rule
    up across a contraction without scanning each stage.
    """
    return _shape_scan(curves, adj, comp)[0]


def _shape_scan(
    curves: Mapping[int, Curve], adj: Mapping[int, Mapping[int, int]], comp: set[int]
) -> tuple[set[str], int]:
    """shape_faults of comp, and the number of pairs of members that meet."""
    fired: set[str] = set()
    ends = 0  # each edge inside comp is seen from both of its ends
    for vid in comp:
        weight = 0
        for u, m in adj[vid].items():
            if u in comp:
                weight += m
                ends += 1
                if m >= 2:
                    fired.add(MULTI_EDGE)
        v = curves[vid]
        if weight >= 3 and v.self_int == -1 and v.k_degree == -1:
            fired.add(THREE_NEIGHBOR)
    if not connects(adj, comp):
        fired.add(DISCONNECTED_STAGE)
    elif ends >= 2 * len(comp):
        fired.add(CYCLE)
    return fired, ends // 2


def _shape_step(
    adj: Mapping[int, Mapping[int, int]],
    comp: AbstractSet[int],
    vid: int,
    hits: Mapping[int, int],
    edges: int,
) -> tuple[set[str], int, tuple[int, ...]]:
    """shape_faults across one blow-down, kept up from the stage before.

    comp is a connected set of components at the stage before the step that
    blows vid down, and edges the number of pairs of its members that meet
    there (as _shape_scan counts them); adj is the stage after, and hits
    the step's hits.  Returns the faults but THREE_NEIGHBOR, the pair count
    of comp - {vid} at the stage after, and the members that meet the
    others of comp three times or more there: THREE_NEIGHBOR fires when one
    of those is a (-1, -1) curve at the stage after.  The faults, joined
    with those of the stages before, are what shape_faults finds at this
    stage and the stages before.  Only that last test reads a curve, so the
    bad-curve oracle runs the rest once per candidate and stage, whatever
    the string.

    Why this is enough.  A step changes only the rows and curves of vid's
    neighbours (its hits): the pair of two of them gains m_u * m_w >= 1, and
    every other pair and curve is as before.
    - Connected stays connected.  A path through vid becomes a direct edge
      between two of its neighbours, and removing a leaf keeps the rest
      connected, so DISCONNECTED_STAGE never fires after a connected stage.
    - CYCLE.  A connected graph on n vertices is a tree exactly when it has
      n - 1 edges, so comp - {vid} has a cycle iff its edge count is >= n.
      That count is edges, less vid's edges to the others when vid was in
      comp, plus each pair of neighbours in comp that did not meet before
      (its multiplicity now equals m_u * m_w).
    - MULTI_EDGE.  A pair that did not change had the same multiplicity at
      the stage before, where comp held both its ends, so only the changed
      pairs can bring a new one.
    - THREE_NEIGHBOR.  A curve that is no neighbour of vid keeps its
      self-intersection, K-degree and row, and its weight inside comp can
      only shrink with comp, so only vid's neighbours can bring a new one.
    With one member or none left no rule applies, as in the callers of
    shape_faults, and no fault is returned.
    """
    inside = list(comp.intersection(hits))
    left = len(comp)
    if vid in comp:
        left -= 1
        edges -= len(inside)
    fired: set[str] = set()
    if left <= 1:
        return fired, edges, ()
    heavy = []
    for i, u in enumerate(inside):
        row = adj[u]
        mu = hits[u]
        for w in inside[i + 1:]:
            m = row[w]
            if m == mu * hits[w]:  # the pair did not meet before the step
                edges += 1
            if m >= 2:
                fired.add(MULTI_EDGE)
        if sum(m for w, m in row.items() if w in comp) >= 3:
            heavy.append(u)
    if edges >= left:
        fired.add(CYCLE)
    return fired, edges, tuple(heavy)


@dataclass(frozen=True)
class ZariskiReport:
    """Property report for a candidate exceptional curve of the first kind.

    ``failures`` names the checks that did not hold, in this order:
    negative_self_ints, simple_edges, connected_tree, has_minus_one,
    minus_one_neighbors_ok and contraction; once the components contract to
    a point, pairing_zero_nonfinal, pairing_final, pairing_total,
    self_pairing and k_pairing follow.  ``passed`` is ``not failures``.
    """

    contraction_status: str
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def validate_zariski(
    c: CurveConfig, mults: Mapping[int, int] | None = None
) -> ZariskiReport:
    """Check the structural properties of an exceptional curve of the first kind.

    ``mults`` assigns the divisor multiplicities; by default the stored
    per-vertex multiplicities are used.  Components are the keys with m >= 1;
    all other vertices are frozen bystanders during the contraction.  A key
    that is not a vertex of c, or a value that is not a nonnegative integer,
    raises ValueError naming its vertex.
    """
    curves = c._by_id
    given = {vid: v.mult for vid, v in curves.items()} if mults is None else mults
    mults = {}
    for vid, m in given.items():
        if vid not in curves:
            raise ValueError(f"vertex {vid!r} is not in the configuration")
        try:
            m = _entry(m)
        except ValueError:
            raise ValueError(f"vertex {vid} has multiplicity {m!r}, not an integer") from None
        if m < 0:
            raise ValueError(f"vertex {vid} has multiplicity {m} < 0")
        if m:
            mults[vid] = m
    comp = set(mults)
    if not comp:
        raise ValueError("no components: empty multiplicity assignment")
    # Contractibility is an abstract property of the divisor; the SW rule is a
    # separate ambient obstruction, applied by callers when it is in force.
    trace = contract_all(c, frozen=[vid for vid in curves if vid not in comp], sw_exempt=curves)
    contracted = trace.status == CONTRACTED_TO_POINT
    faults = shape_faults(curves, c._adj, comp)
    members = [curves[v] for v in comp]
    checks = [
        ("negative_self_ints", all(v.self_int < 0 for v in members)),
        ("simple_edges", MULTI_EDGE not in faults),
        ("connected_tree", not {DISCONNECTED_STAGE, CYCLE} & faults),
        ("has_minus_one", any(v.self_int == -1 and v.k_degree == -1 for v in members)),
        ("minus_one_neighbors_ok", THREE_NEIGHBOR not in faults),
        ("contraction", contracted),
    ]
    if contracted:
        last = trace.steps[-1].vertex
        pairing = {v: divisor_pairing(c, mults, v) for v in comp}
        checks += [
            ("pairing_zero_nonfinal", all(p == 0 for v, p in pairing.items() if v != last)),
            ("pairing_final", pairing[last] == -1),
            ("pairing_total", sum(pairing.values()) == -1),
            # E**2 = sum m_v (E.A_v), divisor_self's sum, from the pairings above
            ("self_pairing", sum(mults[v] * p for v, p in pairing.items()) == -1),
            ("k_pairing", divisor_k(c, mults) == -1),
        ]
    return ZariskiReport(trace.status, tuple(name for name, ok in checks if not ok))


def is_nested(e1: Iterable[int], e2: Iterable[int]) -> bool:
    """Whether one component set contains the other."""
    s1, s2 = set(e1), set(e2)
    return s1 <= s2 or s2 <= s1


def nesting_conflicts(divisors: Sequence[Iterable[int]]) -> list[tuple[int, int]]:
    """Index pairs of divisors that share components without being nested.

    Exceptional curves of the first kind appearing in one ambient limit must
    be nested as soon as they share a component, so any pair returned here
    signals an impossible combination.
    """
    sets = [set(d) for d in divisors]
    bad = []
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j] and not is_nested(sets[i], sets[j]):
                bad.append((i, j))
    return bad


# ----- Iterated blow-down of a chain against a transverse curve -----


@dataclass(frozen=True)
class IteratedBlowdown:
    """Outcome of contracting a chain away from a transverse rational curve S.

    ``k_final`` is the K-degree of the image T of S; the bound
    k_final <= k_start - 2(n-1) holds for every valid chain, with equality in
    particular when i = 2 and the trailing spheres are all -2-curves.
    ``profile`` records, per step, (contracted id, S.contracted, remaining
    chain ids S meets afterwards).
    """

    n: int
    i: int
    chain: tuple[int, ...]
    k_start: int
    k_final: int
    trace: BlowDownTrace
    profile: tuple[tuple[int, int, tuple[int, ...]], ...]

    @property
    def reduction(self) -> int:
        return self.k_start - self.k_final


def iterated_blowdown_trace(
    n: int, i: int, chain_self_ints: Sequence[int], kS: int
) -> IteratedBlowdown:
    """Contract a chain F_1..F_n (unique (-1)-curve F_i, i interior) under S.

    S meets F_i once transversely and nothing else.  The chain must be an
    exceptional curve of the first kind (checked by contracting it alone).
    Returns the trace with S frozen and the K-degree of the image of S.
    n, i, kS and the chain entries are read as integers first, and a value
    that is not one raises ValueError; so does other invalid input.  A
    violation of the invariants the contraction is guaranteed to satisfy
    (each step meets S, the contracted set stays an interval, and the final
    bound K.T <= K.S - 2(n-1)) raises AssertionError.
    """
    n, i, kS = _entry(n), _entry(i), _entry(kS)
    chain = as_entries(chain_self_ints)
    if len(chain) != n:
        raise ValueError(f"chain has {len(chain)} entries, expected n={n}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 2 <= i <= n - 1:
        raise ValueError(f"the (-1)-curve must be interior: i={i} not in [2, {n - 1}]")
    if any(x > -1 for x in chain):
        raise ValueError(f"chain entries must be <= -1: {list(chain)}")
    if chain[i - 1] != -1:
        raise ValueError(f"chain[{i}] = {chain[i - 1]}, expected -1")
    if chain.count(-1) != 1:
        raise ValueError(f"chain must contain exactly one -1, got {list(chain)}")

    bare = chain_config(chain)
    bare_trace = contract_all(bare, sw_exempt=bare.ids())
    if bare_trace.status != CONTRACTED_TO_POINT:
        raise ValueError(
            f"chain {list(chain)} is not an exceptional curve of the first kind "
            f"({bare_trace.status})"
        )

    s_id = n + 1
    full = chain_config(chain, attached=[(Curve(s_id, 0, kS, 0, "S"), [i])])
    trace = contract_all(full, frozen=[s_id], sw_exempt=full.ids())
    if trace.status != CONTRACTED_TO_POINT:
        raise AssertionError(f"chain stopped contracting under S: {trace.status}")

    profile = []
    contracted: set[int] = set()
    stages = trace.stages()
    next(stages)  # the initial config
    for step, (curves, adj) in zip(trace.steps, stages):
        s_hit = step.hits.get(s_id, 0)
        if s_hit < 1:
            raise AssertionError(f"contracted curve {step.vertex} missed S")
        contracted.add(step.vertex)
        span = range(min(contracted), max(contracted) + 1)
        if set(span) - contracted:
            raise AssertionError(f"contracted set {sorted(contracted)} is not an interval")
        meets = tuple(sorted(adj[s_id]))
        boundary = {j for j in (min(contracted) - 1, max(contracted) + 1) if 1 <= j <= n}
        if set(meets) != boundary:
            raise AssertionError(
                f"S meets {meets}, expected the interval boundary {sorted(boundary)}"
            )
        profile.append((step.vertex, s_hit, meets))

    k_final = curves[s_id].k_degree  # the last stage, S alone
    if k_final > kS - 2 * (n - 1):
        raise AssertionError(
            f"K.T = {k_final} exceeds K.S - 2(n-1) = {kS - 2 * (n - 1)}"
        )
    return IteratedBlowdown(
        n=n, i=i, chain=chain, k_start=kS, k_final=k_final,
        trace=trace, profile=tuple(profile),
    )


def random_blowup(rng: random.Random, depth: int) -> CurveConfig:
    """Total transform of a (-1)-curve under `depth` random blow-ups.

    Starts from a single (-1, -1) curve of multiplicity 1 and repeatedly
    blows up either a generic point of a random component or a random
    intersection point, so the tracked divisor stays an exceptional curve of
    the first kind.  Deterministic for a given rng state.
    """
    c = single_curve()
    for _ in range(depth):
        # one draw over the ids, then the pairs (a, b) of the edges, both in
        # the order of the config's tuples, as rng.choice on that list makes
        ids = c.ids()
        pairs = [(a, b) for a, row in c._adj.items() for b in row if a < b]
        i = rng.randrange(len(ids) + len(pairs))
        point = GenericOn(ids[i]) if i < len(ids) else Intersection(*pairs[i - len(ids)])
        c = blow_up(c, point)
    return c


# ----- Serialization -----


def config_to_json(c: CurveConfig) -> dict:
    return {
        "vertices": [
            {
                "id": v.id,
                "self_int": v.self_int,
                "k_degree": v.k_degree,
                "mult": v.mult,
                "label": v.label,
            }
            for v in c.vertices
        ],
        "edges": [{"a": e.a, "b": e.b, "m": e.m} for e in c.edges],
    }


_JSON_TYPES = {int: "an integer", str: "a valid Unicode string", list: "a JSON array"}
_SHOWN_CHARS = 80


def _shown(value) -> str:
    """repr(value) for an error message, cut to its first 80 characters plus "..."."""
    text = repr(value)
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."


def _field(obj: dict, kind: str, name: str, typ: type, default=None):
    """obj[name], required unless a default is given, of JSON type typ.

    A bool is no integer, and a string must be printable (``str.isprintable``):
    a control character such as a newline could forge lines of the text
    output, and a lone surrogate could not be printed at all.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"each {kind} must be a JSON object, got {_shown(obj)}")
    if name not in obj and default is None:
        raise ValueError(f"{kind} field {name!r} is missing")
    value = obj.get(name, default)
    if isinstance(value, bool) or not isinstance(value, typ):
        raise ValueError(f"{kind} field {name!r} must be {_JSON_TYPES[typ]}, got {_shown(value)}")
    if typ is str and not value.isprintable():
        raise ValueError(f"{kind} field {name!r} must be printable, got {_shown(value)}")
    return value


def config_from_json(data: dict) -> CurveConfig:
    """Inverse of config_to_json; a malformed field raises ValueError naming it."""
    if not isinstance(data, dict):
        raise ValueError(f"configuration must be a JSON object, got {_shown(data)}")
    vertices = [
        Curve(
            _field(v, "vertex", "id", int),
            _field(v, "vertex", "self_int", int),
            _field(v, "vertex", "k_degree", int),
            _field(v, "vertex", "mult", int, 0),
            _field(v, "vertex", "label", str, ""),
        )
        for v in _field(data, "configuration", "vertices", list)
    ]
    edges = [
        Edge(
            _field(e, "edge", "a", int),
            _field(e, "edge", "b", int),
            _field(e, "edge", "m", int, 1),
        )
        for e in _field(data, "configuration", "edges", list)
    ]
    return CurveConfig.make(vertices, edges)


def load_config(path: str) -> CurveConfig:
    """config_from_json of a JSON file; nesting too deep to parse raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return config_from_json(json.load(fh))
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None


def trace_jsonl_lines(trace: BlowDownTrace) -> list[str]:
    """One line per step plus a terminal status line (byte-stable)."""
    lines = []
    stages = trace.stages()
    next(stages)  # the initial config
    for k, (step, (curves, _)) in enumerate(zip(trace.steps, stages), start=1):
        record = {
            "step": k,
            "contracted": step.vertex,
            "remaining": [[v.id, v.self_int, v.k_degree] for _, v in sorted(curves.items())],
            "violations": [{"vertex": w.vertex, "rule": w.rule} for w in step.violations],
        }
        lines.append(json.dumps(record, separators=(",", ":")))
    lines.append(
        json.dumps(
            {"status": trace.status, "steps": len(trace.steps)}, separators=(",", ":")
        )
    )
    return lines
