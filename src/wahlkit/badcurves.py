"""Classification and bounding of exceptional curves relative to a resolution chain.

Setting: the minimal resolution of a Wahl singularity has exceptional chain
C_1, .., C_ell with self-intersections -b_j given by the T-string.  An
exceptional curve of the first kind E in a blow-up can degenerate against
this chain; its components then split into the unique (-1)-sphere e,
"internal" chain spheres swallowed as components of E, and untouched
external spheres.  The incidence budget makes curves with
E . sum(C_j) = 1 ("bad" curves) the only obstruction to good length bounds,
so this module classifies them and bounds how many can coexist.

Shapes of bad curves (by the end-intervals of internal spheres):

  type A : internal = C_1..C_x and C_y..C_ell (both ends), e joins the two
           intervals, hitting C_{x'} (x' <= x) and C_{y'} (y' >= y);
  type B1: internal = C_1..C_x only, x <= ell - 1; e's first hit C_{x'}
           lies inside, and e meets at most one more point (an external
           chain sphere C_{y'}, a second internal sphere, or somewhere off
           the chain);
  type B2: the mirror image of B1 at the right-hand end: internal =
           C_y..C_ell, y >= 2, and e's last hit C_{y'} lies inside.

One parser, _shape, decides these shapes and returns their case, accepting
exactly what enumerate_candidates yields.

The case oracle rebuilds each syntactically possible configuration as an
explicit curve configuration and lets the blow-down engine decide its fate,
recording every independent reason the candidate dies:

  PATTERN_SINGLE / PATTERN_ENDPOINTS - forbidden incidence patterns of e;
  MAGIC_E / MAGIC_FULL - the discrepancy pairing inequality fails for e or
      for the whole divisor E;
  MULTI_EDGE / CYCLE / THREE_NEIGHBOR / DISCONNECTED_STAGE - structural
      violations of the exceptional-divisor tree shape at some stage of the
      contraction;
  NO_MINUS_ONE - the contraction gets stuck (E is not an exceptional curve
      of the first kind);
  SW - a contraction step produces a rational curve with K-degree <= -2, or
      = -1 without being a (-1)-sphere;
  MULT_NONPOSITIVE / ZERO_INCIDENCE - degenerate multiplicity bookkeeping.

case_oracle does each piece of work once, in the loop over the inputs it
depends on.  It rests on one lemma: every chain sphere has
C**2 = -b_j <= -2 (examine_candidate refuses a t with an entry below 2), so
before any blow-down e is the only (-1, -1) curve, and every candidate's
contraction blows e down first, whatever it freezes.

  per length ell: one trie of contraction stages (_Node), keyed by e_hits
      and then by the vertices blown down so far.  A blow-down never reads
      b: the adjacency of chain plus e and of every stage after it depends
      on (ell, e_hits, path) alone, and b enters only through each chain
      curve's C**2 = -b_u + S_u and K.C = b_u - 2 - K_u, whose offsets S_u
      and K_u the stage holds as its curves on the -2-chain.  A stage is
      built from its parent the first time a walk reaches it, and the trie
      is dropped when the length is done; through ell <= 6 the oracle
      blows down 536 times, once per stage.  Also per length
      (_candidate_parts): each candidate's case, and its tree-shape faults
      and pair count before any blow-down, from one scan of its root,
      which by the lemma answers for every string; and the mirror index.
  per (T-string, stage), the stage's facts: at a root, e's own checks
      (_e_checks: PATTERN_SINGLE, PATTERN_ENDPOINTS, and MAGIC_E decided on the
      string's integer discrepancy numerators by discrepancy._pairing, as
      canonical_pairing decides it); below it (_facts), whether the step
      breaks the SW rule (on every chain curve at the stage after e, on
      the step's hits later) and the stage's (-1, -1) curves.  Every
      candidate that reaches the stage on that string shares them.
  per (candidate, stage), the candidate's shape state: the tree shape kept
      up step by step from each step's hits (curveconfig._shape_step),
      since it depends on the candidate's own component set.  It holds the
      faults so far, the pair count, the remaining components (one shared
      object per distinct set of the length), and the components that fire
      THREE_NEIGHBOR if they are (-1, -1) curves at the stage, the one part
      of the rule that reads b.  The state is the same on every string.  A contraction to a point reads its
      multiplicities and its pairings on the -2-chain once per final stage
      (_tail); on b, v_j = w_j - (b_j - 2) m_j.
  per (T-string, candidate) (_examine): the walk down the trie from the
      stage after e, taking at each stage the smallest (-1, -1) curve among
      the candidate's remaining internal spheres, and the row.
  per T-string, once its rows are built: the cross-checks that read one
      string's rows alone, the A1 and A5 certificates and the counting bounds.
  after the loop: reversal closure, which compares each row with the
      mirrored row of the reversed string, and the family check.

examine_candidate computes the parts for its one candidate and runs the same
_examine, down a trie that only it walks.  Every enumerated shape has e
meeting every internal interval, so the components are connected before any
blow-down (_candidate_parts asserts it), and blowing a component down keeps
the rest connected (see curveconfig._shape_step).  So DISCONNECTED_STAGE
cannot fire in the oracle.  staged_structure_checks, the slow reference,
replays a finished contraction through BlowDownTrace.stages and scans every
stage in full.

Survivors are the configurations no combinatorial argument excludes; the
counting bounds they obey feed the final length bound.  Each failed
cross-check is one (check, subject, reason) entry of OracleReport.failures,
and `wahlkit oracle` prints them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .curveconfig import (
    CONTRACTED_TO_POINT,
    CYCLE,
    DISCONNECTED_STAGE,
    MULTI_EDGE,
    STUCK,
    SW_VIOLATION,
    THREE_NEIGHBOR,
    BlowDownTrace,
    Curve,
    CurveConfig,
    _multiplicities,
    _shape_scan,
    _shape_step,
    _sw_rule,
    _total_transform,
    chain_config,
    contract_all,
    divisor_k,
    divisor_pairing,
    divisor_product,
    shape_faults,
)
from .discrepancy import _pairing, canonical_pairing
from .tstring import _entry, as_entries, enumerate_tstrings, is_tstring

ORACLE_LENGTH_CAP = 8

# check names recorded by the oracle, beside the tree-shape ones of curveconfig
PATTERN_SINGLE = "PATTERN_SINGLE"
PATTERN_ENDPOINTS = "PATTERN_ENDPOINTS"
MAGIC_E = "MAGIC_E"
MAGIC_FULL = "MAGIC_FULL"
NO_MINUS_ONE = "NO_MINUS_ONE"
SW = "SW"
MULT_NONPOSITIVE = "MULT_NONPOSITIVE"
ZERO_INCIDENCE = "ZERO_INCIDENCE"

DIES = "DIES"
SURVIVES_BAD = "SURVIVES_BAD"
SURVIVES_GOOD = "SURVIVES_GOOD"


# ----- Incidence patterns of a single curve against the chain -----


@dataclass(frozen=True)
class PatternReport:
    """Forbidden-pattern scan for a (-1)-curve, of K-degree -1, meeting the chain."""

    failures: tuple[str, ...]
    pairing: Fraction

    @property
    def ok(self) -> bool:
        return not self.failures


def _incidence(
    t: Iterable[int], v: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(as_entries(t), as_entries(v)); ValueError when v has the wrong length or an entry < 0."""
    b, v = as_entries(t), as_entries(v)
    if len(v) != len(b):
        raise ValueError(f"incidence vector length {len(v)} != ell = {len(b)}")
    if any(x < 0 for x in v):
        raise ValueError(f"incidence vector must be nonnegative, got {list(v)}")
    return b, v


def forbidden_patterns(t: Iterable[int], v: Sequence[int]) -> PatternReport:
    """Scan an incidence vector for e's forbidden patterns and its pairing.

    Pattern SINGLE: the curve meets exactly one chain sphere, once.  Pattern
    ENDPOINTS: it meets C_1 and C_ell once each and nothing in between.
    Both kill the curve outright.  MAGIC_E: the general necessary condition
    sum a_j v_j < -1 fails (every flagged pattern fails it too).  failures
    lists these in that order; pairing is sum a_j v_j.
    """
    b, v = _incidence(t, v)
    value, ok = canonical_pairing(b, v, -1)
    return PatternReport(_patterns(v) + (() if ok else (MAGIC_E,)), value)


def _patterns(v: Sequence[int]) -> tuple[str, ...]:
    """PATTERN_SINGLE and PATTERN_ENDPOINTS, those that e's incidence vector v fires, in order."""
    single = (PATTERN_SINGLE,) if sum(v) == 1 else ()
    if len(v) >= 2 and v[0] == 1 and v[-1] == 1 and not any(v[1:-1]):
        return (*single, PATTERN_ENDPOINTS)
    return single


@dataclass(frozen=True)
class UnbrokenReport:
    """Budget constraints on a curve none of whose pieces broke off into the chain."""

    total: int
    entry_failures: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return self.total >= 2 and not self.entry_failures


def unbroken_checks(t: Iterable[int], v: Sequence[int]) -> UnbrokenReport:
    """Check sum v_j >= 2 and v_j <= b_j - 1, equality only for b_j = 2.

    Equivalently v_j <= b_j - 2 unless b_j = 2, where v_j = 1 is allowed.
    Returns the total and the 1-based indices of failing entries.
    """
    b, v = _incidence(t, v)
    failures = tuple(j for j, (bj, vj) in enumerate(zip(b, v), 1)
                     if not (vj <= bj - 2 or (bj == 2 and vj == 1)))
    return UnbrokenReport(sum(v), failures)


# ----- Counting bounds -----


@dataclass(frozen=True)
class TypeBoundReport:
    """The per-type and joint counting bounds for maximal bad curves."""

    ell: int
    n_a: int
    n_b1: int
    n_b2: int
    p_max: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def type_bounds(ell: int, n_a: int = 0, n_b1: int = 0, n_b2: int = 0) -> TypeBoundReport:
    """Check the internal-sphere counts of maximal bad curves against ell.

    A maximal type-A curve with n internal spheres needs 2n <= ell + 4 ("a"),
    the same for each of B1 and B2 alone ("b1", "b2"), and coexisting B1 + B2
    curves need 2(n1 + n2) <= ell + 5 ("joint"); failures lists those that
    fail.  The number of bad curves is at most p_max: n if a type-A curve
    exists, else n1 + n2.  2 p_max <= ell + 5 follows from "a" or is "joint".
    """
    ell, n_a, n_b1, n_b2 = map(_entry, (ell, n_a, n_b1, n_b2))
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    if min(n_a, n_b1, n_b2) < 0:
        raise ValueError("internal counts must be nonnegative")
    counts = (("a", n_a, 4), ("b1", n_b1, 4), ("b2", n_b2, 4), ("joint", n_b1 + n_b2, 5))
    failures = tuple(name for name, n, slack in counts if 2 * n > ell + slack)
    return TypeBoundReport(ell, n_a, n_b1, n_b2, n_a if n_a else n_b1 + n_b2, failures)


# ----- The contradiction machine on one candidate -----


@dataclass(frozen=True, slots=True)
class CandidateOutcome:
    """One examined configuration: what it was and every reason it died."""

    t: tuple[int, ...]
    kind: str
    internal: tuple[int, ...]
    e_hits: tuple[int, ...]
    case: str | None
    checks: tuple[str, ...]
    verdict: str
    badness: int | None
    v: tuple[int, ...] | None
    mults: tuple[tuple[int, int], ...] | None

    @property
    def n_internal(self) -> int:
        return len(self.internal)

    def to_json(self) -> dict:
        return {
            "t": list(self.t),
            "kind": self.kind,
            "internal": list(self.internal),
            "e_hits": list(self.e_hits),
            "case": self.case,
            "checks": list(self.checks),
            "verdict": self.verdict,
            "badness": self.badness,
            "v": list(self.v) if self.v is not None else None,
            "mults": [list(m) for m in self.mults] if self.mults is not None else None,
        }


def build_candidate_config(
    t: Iterable[int], e_hits: Sequence[int]
) -> tuple[CurveConfig, int]:
    """Chain plus the (-1)-sphere e wired to its hit points; returns (config, e id).

    chain_config with e attached: the config does not depend on which chain
    spheres are internal to E, e takes the largest id, and a repeated hit is
    a double point.  A hit off 1..ell raises ValueError naming it.
    """
    b = as_entries(t)
    e_hits = as_entries(e_hits)
    ell = len(b)
    for h in e_hits:
        if not 1 <= h <= ell:
            raise ValueError(f"e_hits entry {h} lies off the chain 1..{ell}")
    e_id = ell + 1
    return chain_config([-bj for bj in b], [(Curve(e_id, -1, -1, 0, "e"), e_hits)]), e_id


class _Node:
    """One stage of a length's contraction trie, built the first time a walk reaches it.

    A trie's root is chain plus e for one e_hits, and a child is the stage
    after blowing one more vertex down: vertex and hits are that step (None
    and {} at the root), path the (vertex, hits) steps from the root, adj
    the adjacency map after it and children the stages built from it so
    far, by the vertex blown down.  A blow-down never reads b, so the
    adjacency of every stage depends on (ell, e_hits, path) alone; b enters
    only through C**2 and K.C, and the blow-down adds the same amount to
    those on any chain.  So curves are the stage's curves on the -2-chain,
    and on a chain b curve u is shifted by d = b_u - 2:
    C**2 = c.self_int - d and K.C = c.k_degree + d.  tail caches _tail of a
    contraction that ends here.  No stage's maps change once it is built: a
    child copies the id map and the rows its blow-down changes, and shares
    the other rows.  No stage refers to its parent, so refcounting frees a
    trie as soon as its length is done.
    """

    __slots__ = ("vertex", "hits", "path", "curves", "adj", "children", "tail")

    def __init__(
        self, vertex: int | None, hits: Mapping[int, int],
        path: tuple[tuple[int, Mapping[int, int]], ...],
        curves: dict[int, Curve], adj: dict[int, dict[int, int]],
    ):
        self.vertex, self.hits, self.path = vertex, hits, path
        self.curves, self.adj = curves, adj
        self.children: dict[int, _Node] = {}
        self.tail: _Tail | None = None

    def child(self, vid: int) -> _Node:
        """The stage after blowing vid down, built on the first call."""
        node = self.children.get(vid)
        if node is None:
            curves = dict(self.curves)
            adj = dict(self.adj)
            for u in adj[vid]:
                adj[u] = dict(adj[u])
            hits = _total_transform(curves, adj, vid)
            node = self.children[vid] = _Node(vid, hits, (*self.path, (vid, hits)), curves, adj)
        return node


# what a candidate's tree-shape state holds at a stage: the faults found so
# far but THREE_NEIGHBOR, the vertices that fire THREE_NEIGHBOR there if they
# are (-1, -1) curves, the pair count and the components not yet blown down
_Shape = tuple[frozenset[str], tuple[int, ...], int, frozenset[int]]
# what _candidate_parts returns: the case, the shape state before any
# blow-down, the candidate's shape states by stage, filled as it walks, and
# the length's remaining-component sets, each kept as one object that every
# shape state holding it shares
_CandidateParts = tuple[
    str | None, _Shape, dict[_Node, _Shape], dict[frozenset[int], frozenset[int]]
]
# a stage's facts on one string: at a root, e's own checks (_e_checks);
# below it, whether its step breaks the SW rule, and its (-1, -1) curves
_Facts = tuple[str, ...] | tuple[bool, frozenset[int]]
# what _tail returns: the multiplicities by id, and on the -2-chain the
# multiplicity of and the divisor's pairing with each chain curve, and its K-degree
_Tail = tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...], int]


def _candidate_parts(
    ell: int, kind: str, internal: tuple[int, ...], e_hits: tuple[int, ...],
    trie: dict[tuple[int, ...], _Node], sets: dict[frozenset[int], frozenset[int]],
) -> _CandidateParts:
    """What a candidate's examination needs beyond its string, on the length's trie.

    trie maps e_hits to its root, and gains the root on first use; sets
    maps each remaining-component set of the length to its one copy, and
    gains the candidate's.  Returns the case, the shape state before any
    blow-down from one scan of the root (the -2-chain with e attached,
    where by the lemma of the module docstring only e is a (-1, -1) curve,
    as on every string), an empty cache of the candidate's shape states and
    sets.  Raises _shape's ValueError for a shape enumerate_candidates does
    not yield, and AssertionError naming the candidate if its components
    are disconnected, which no such shape is.  case_oracle computes it once
    per length.
    """
    case = _shape(internal, e_hits, ell, kind)
    root = trie.get(e_hits)
    if root is None:
        config, _ = build_candidate_config((2,) * ell, e_hits)
        root = trie[e_hits] = _Node(None, {}, (), config._by_id, config._adj)
    comp = frozenset({*internal, ell + 1})
    comp = sets.setdefault(comp, comp)
    faults, edges = _shape_scan(root.curves, root.adj, comp)
    if DISCONNECTED_STAGE in faults:
        raise AssertionError(
            f"candidate {kind} {internal} {e_hits} is disconnected before any blow-down"
        )
    return case, (frozenset(faults), (), edges, comp), {}, sets


def _e_checks(b: tuple[int, ...], e_hits: tuple[int, ...]) -> tuple[str, ...]:
    """e's own checks on b: its patterns, then MAGIC_E when its pairing fails.

    A t with an entry below 2, where the lemma of the module docstring
    fails, raises ValueError naming it.  _examine computes them once per
    (T-string, e_hits), as the facts of the root.
    """
    if min(b) < 2:
        raise ValueError(f"t entries must all be >= 2, got {list(b)}")
    v_e = tuple(map(e_hits.count, range(1, len(b) + 1)))
    checks = _patterns(v_e)
    if not _pairing(b, v_e, -1)[2]:
        checks += (MAGIC_E,)
    return checks


def _facts(b: tuple[int, ...], node: _Node, before: _Facts | None) -> _Facts:
    """node's facts on the chain b, from before, its parent's facts on b.

    before is None at the stage after e, whose step checks the SW rule on
    every curve, as the first step of contract_all does; a later step
    changes only the curves it hits, so it checks those and updates its
    parent's (-1, -1) set with them.
    """
    curves = node.curves
    if before is None:
        look, ones = curves, set()
    else:
        look, ones = node.hits, set(before[1])
        ones.discard(node.vertex)
    sw = False
    for u in look:
        c = curves[u]
        d = b[u - 1] - 2
        self_int, k_degree = c.self_int - d, c.k_degree + d
        if self_int == -1 and k_degree == -1:
            ones.add(u)
        else:
            ones.discard(u)
            sw = sw or _sw_rule(self_int, k_degree) is not None
    return sw, frozenset(ones)


def _tail(root: _Node, node: _Node, ell: int) -> _Tail:
    """The string-free part of a contraction to a point that ends at node, below root.

    The multiplicities are read off the path's hits, which no string
    changes.  On a chain b the divisor's pairing with C_j is
    w_j - (b_j - 2) m_j and its K-degree k + sum (b_j - 2) m_j, where w, m
    and k are those on the -2-chain that this returns.
    """
    mults = _multiplicities(node.path)
    config = CurveConfig(root.curves, root.adj)
    chain = range(1, ell + 1)
    return (
        tuple(sorted(mults.items())),
        tuple(mults.get(j, 0) for j in chain),
        tuple(divisor_pairing(config, mults, j) for j in chain),
        divisor_k(config, mults),
    )


def staged_structure_checks(components: Iterable[int], trace: BlowDownTrace) -> set[str]:
    """The divisor's tree-shape faults at every stage of trace, each stage scanned in full.

    On a replay of the trace (trace.stages()), shape_faults runs at each
    stage on the components not yet contracted, in the stage's maps with
    every curve included: blowing down a non-component still changes the
    pairs between components.  A single remaining component is a tree by
    itself.  This is the slow reference for the oracle's step-by-step rule.
    """
    remaining = set(components)
    fired: set[str] = set()
    for contracted, (curves, adj) in zip((None, *trace.order), trace.stages()):
        remaining.discard(contracted)
        if len(remaining) > 1:
            fired |= shape_faults(curves, adj, remaining)
    return fired


def _a_case(x_prime: int, x: int, y: int, y_prime: int, ell: int) -> str:
    left = "1" if x_prime == 1 else ("x" if x_prime == x else "mid")
    right = "ell" if y_prime == ell else ("y" if y_prime == y else "mid")
    if (left, right) == ("1", "ell"):
        return "A5"
    if (left, right) == ("mid", "mid"):
        return "A1"
    if "mid" in (left, right):
        return "A2"
    if (left, right) == ("x", "y"):
        return "A3"
    return "A4"  # ("1", "y") or ("x", "ell")


def _b_case(kind: str, hit: int, lo: int, hi: int) -> str:
    """Subcase of a B-type by where e meets the internal interval [lo, hi]."""
    if kind == "B1":
        if hit == lo:
            return "B1.1"
        return "B1.3" if hit == hi else "B1.2"
    if hit == hi:
        return "B2.1"
    return "B2.3" if hit == lo else "B2.2"


def _shape(
    internal: tuple[int, ...], e_hits: tuple[int, ...], ell: int, kind: str
) -> str | None:
    """The case of a shape enumerate_candidates yields; raises otherwise.

    internal and e_hits are sorted tuples.  internal must be {1..x} union
    {y..ell} with at least one chain sphere left external (y >= x + 2): both
    intervals make type A, the left one alone B1, the right one alone B2.
    Type A: e meets each interval once, at x' <= x and y' >= y.  B1: e meets
    the chain once or twice, first at x' <= x.  B2 mirrors B1: e's last hit
    y' >= y.  The case is None when e meets the internal interval of a B
    kind twice.

    Raises ValueError naming internal or e_hits when an index lies off
    1..ell or the shape is not one of these, and naming internal when the
    internal shape is another kind.
    """
    for name, idx in (("internal", internal), ("e_hits", e_hits)):
        if idx and not (1 <= idx[0] and idx[-1] <= ell):
            raise ValueError(f"{name} indices must lie in 1..{ell}, got {idx}")
    x = 0
    while x < len(internal) and internal[x] == x + 1:
        x += 1
    y = ell + 1 - (len(internal) - x)
    ends = y > x + 1 and internal[x:] == tuple(range(y, ell + 1))
    shape = ("A" if y <= ell else "B1") if x else ("B2" if y <= ell else None)
    if not ends or shape != kind:
        raise ValueError(
            f"internal {internal} is not the end-intervals of a type {kind} candidate on 1..{ell}"
        )
    if shape == "A":
        if not (len(e_hits) == 2 and e_hits[0] <= x and e_hits[1] >= y):
            raise ValueError(f"type A e_hits must join the two end-intervals, got {e_hits}")
        return _a_case(e_hits[0], x, y, e_hits[1], ell)
    if not 1 <= len(e_hits) <= 2 or (e_hits[0] > x if shape == "B1" else e_hits[-1] < y):
        side = "first" if shape == "B1" else "last"
        raise ValueError(
            f"type {shape} e_hits must be one or two hits, the {side} inside the "
            f"internal interval, got {e_hits}"
        )
    if len(e_hits) == 2 and (e_hits[-1] <= x if shape == "B1" else e_hits[0] >= y):
        return None  # e meets the internal interval twice
    if shape == "B1":
        return _b_case(shape, e_hits[0], 1, x)
    return _b_case(shape, e_hits[-1], y, ell)


def examine_candidate(
    t: Iterable[int],
    kind: str,
    internal: Iterable[int],
    e_hits: Sequence[int],
) -> CandidateOutcome:
    """Run every combinatorial obstruction against one candidate bad curve.

    Computes the candidate's parts (_candidate_parts) and e's checks
    (_e_checks) for this one candidate, then examines it as case_oracle
    does, down a trie that no other candidate walks.  Raises ValueError,
    checked in this order, for a kind other than A, B1 or B2, for a
    (kind, internal, e_hits) of a shape enumerate_candidates does not yield
    (naming the argument), and for a t with an entry below 2.
    """
    b = as_entries(t)
    internal = tuple(sorted(as_entries(internal)))
    e_hits = tuple(sorted(as_entries(e_hits)))
    if kind not in ("A", "B1", "B2"):
        raise ValueError(f"kind must be 'A', 'B1' or 'B2', got {kind!r}")
    trie: dict[tuple[int, ...], _Node] = {}
    parts = _candidate_parts(len(b), kind, internal, e_hits, trie, {})
    return _examine(b, kind, internal, e_hits, parts, trie[e_hits], {})


def _examine(
    b: tuple[int, ...],
    kind: str,
    internal: tuple[int, ...],
    e_hits: tuple[int, ...],
    parts: _CandidateParts,
    root: _Node,
    facts: dict[_Node, _Facts],
) -> CandidateOutcome:
    """One candidate's outcome on b, walking down from root, its e_hits' root.

    internal and e_hits are sorted tuples, and facts holds b's facts of the
    stages walked so far on b.  By the lemma of the module docstring the
    walk blows e down first; then at each stage it blows down the smallest
    (-1, -1) curve among the candidate's remaining internal spheres, the
    external chain frozen, and the SW rule applies to every image, external
    or not.  It builds a stage only where no walk has been before, computes
    a stage's facts once per string (_e_checks at the root, _facts below
    it), a shape state once per candidate and stage (_shape_step), and a
    contraction's multiplicities once per final stage (_tail).
    """
    ell = len(b)
    case, shape, shapes, sets = parts
    e_checks = facts.get(root)
    if e_checks is None:
        e_checks = facts[root] = _e_checks(b, e_hits)
    node, state = root, None
    vid = ell + 1  # e
    three = False
    while True:
        node = node.child(vid)
        known = facts.get(node)
        if known is None:
            known = facts[node] = _facts(b, node, state)
        state = known
        known = shapes.get(node)
        if known is None:
            faults, _, edges, comp = shape
            fired, edges, heavy = _shape_step(node.adj, comp, node.vertex, node.hits, edges)
            if fired:
                faults |= fired
            comp = comp - {node.vertex}
            known = shapes[node] = (faults, heavy, edges, sets.setdefault(comp, comp))
        shape = known
        sw, ones = state
        _, heavy, _, remaining = shape
        if heavy and not ones.isdisjoint(heavy):
            three = True
        if sw:
            status = SW_VIOLATION
            break
        ones = ones.intersection(remaining)
        if not ones:
            # every curve left is a frozen external one exactly when no component is
            status = STUCK if remaining else CONTRACTED_TO_POINT
            break
        vid = min(ones)

    checks = {*e_checks, *shape[0]}
    if three:
        checks.add(THREE_NEIGHBOR)
    if status == SW_VIOLATION:
        checks.add(SW)
    elif status == STUCK:
        checks.add(NO_MINUS_ONE)

    badness: int | None = None
    v_full: tuple[int, ...] | None = None
    mult_items: tuple[tuple[int, int], ...] | None = None
    if status == CONTRACTED_TO_POINT:
        if node.tail is None:
            node.tail = _tail(root, node, ell)
        mult_items, m, w, k_e = node.tail
        if any(x <= 0 for _, x in mult_items):
            checks.add(MULT_NONPOSITIVE)
        else:
            v_full = tuple(wj - (bj - 2) * mj for bj, mj, wj in zip(b, m, w))
            badness = sum(v_full)
            k_e += sum((bj - 2) * mj for bj, mj in zip(b, m))
            if k_e != -1:
                raise AssertionError(f"contracted divisor has K-degree {k_e}, not -1")
            if badness <= 0:
                checks.add(ZERO_INCIDENCE)
            if not _pairing(b, v_full, k_e)[2]:
                checks.add(MAGIC_FULL)

    if checks:
        verdict = DIES
    else:
        verdict = SURVIVES_BAD if badness == 1 else SURVIVES_GOOD

    return CandidateOutcome(
        b, kind, internal, e_hits, case, tuple(sorted(checks)), verdict, badness, v_full,
        mult_items,
    )


def enumerate_candidates(ell: int) -> list[tuple[str, tuple[int, ...], tuple[int, ...]]]:
    """All syntactically admissible (kind, internal, e_hits) for a chain of length ell.

    Type A: internal end-intervals {1..x}, {y..ell} with a nonempty gap, e
    joining them at (x', y').  Types B1/B2: one end-interval, e meeting it
    at one point and at most one more point anywhere (including the same
    point twice, another internal point, an external sphere, or nothing --
    the last standing in for a hit somewhere off the chain).  ell is read
    through tstring's _entry, so text, a bool or 2.5 raises ValueError, and
    so does ell < 1.
    """
    ell = _entry(ell)
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    out: list[tuple[str, tuple[int, ...], tuple[int, ...]]] = []
    for x in range(1, ell - 1):
        for y in range(x + 2, ell + 1):
            internal = tuple(range(1, x + 1)) + tuple(range(y, ell + 1))
            for xp in range(1, x + 1):
                for yp in range(y, ell + 1):
                    out.append(("A", internal, (xp, yp)))
    for x in range(1, ell):
        internal = tuple(range(1, x + 1))
        for xp in range(1, x + 1):
            out.append(("B1", internal, (xp,)))
            for h in range(xp, ell + 1):
                out.append(("B1", internal, (xp, h)))
    for y in range(2, ell + 1):
        internal = tuple(range(y, ell + 1))
        for yp in range(y, ell + 1):
            out.append(("B2", internal, (yp,)))
            for h in range(1, yp + 1):
                out.append(("B2", internal, (h, yp)))
    return out


# ----- Pair compatibility -----


def pair_product(
    t: Iterable[int], s1: CandidateOutcome, s2: CandidateOutcome
) -> int:
    """E1 . E2 for two candidates over the same chain, each with its own e.

    Raises ValueError naming s1 or s2 when it was examined on another string
    than t or has no multiplicities (it did not contract to a point).
    """
    b = as_entries(t)
    ell = len(b)
    for name, s in (("s1", s1), ("s2", s2)):
        if tuple(s.t) != b:
            raise ValueError(f"{name} was examined on {list(s.t)}, not on {list(b)}")
        if s.mults is None:
            raise ValueError(f"{name} has no multiplicities: verdict {s.verdict}")
    e1, e2 = ell + 1, ell + 2
    combined = chain_config(
        [-bj for bj in b],
        attached=[
            (Curve(e1, -1, -1, 0, "e1"), s1.e_hits),
            (Curve(e2, -1, -1, 0, "e2"), s2.e_hits),
        ],
    )
    # both were examined with e as vertex ell + 1 = e1; s2's moves to e2
    m2 = {(e2 if vid == e1 else vid): m for vid, m in s2.mults}
    return divisor_product(combined, dict(s1.mults), m2)


# ----- The oracle -----


_CERTIFICATES = {
    "A1": ("A1_UNKILLED", "A1_CERTIFICATE", frozenset({THREE_NEIGHBOR, NO_MINUS_ONE})),
    "A5": ("A5_UNKILLED", "A5_CERTIFICATE", frozenset({PATTERN_ENDPOINTS})),
}


@dataclass(frozen=True)
class FamilyResult:
    """Bad survivors on [2, .., 2, ell + 3] (corrected) and on its reversal."""

    ell: int
    corrected_bad_survivors: int
    reversed_bad_survivors: int


@dataclass(frozen=True)
class JointRecord:
    """A B1 and a B2 bad survivor on t with disjoint internal spheres, and E1 . E2."""

    t: tuple[int, ...]
    b1_internal: tuple[int, ...]
    b2_internal: tuple[int, ...]
    product: int


# (check, the row, pair or family result it is about, a one-line reason)
OracleFailure = tuple[str, "CandidateOutcome | JointRecord | FamilyResult", str]


@dataclass(frozen=True)
class OracleReport:
    ell_max: int
    outcomes: tuple[CandidateOutcome, ...]
    joint_records: tuple[JointRecord, ...]
    family_results: tuple[FamilyResult, ...]
    failures: tuple[OracleFailure, ...]

    @property
    def survivors_bad(self) -> tuple[CandidateOutcome, ...]:
        return tuple(o for o in self.outcomes if o.verdict == SURVIVES_BAD)

    @property
    def passed(self) -> bool:
        return not self.failures


def _mirror_index(
    candidates: Sequence[tuple[str, tuple[int, ...], tuple[int, ...]]], ell: int
) -> list[int | None]:
    """Where each candidate's mirror image lies in candidates, None when it is absent.

    The mirror image reads the chain backwards: j becomes ell + 1 - j, and
    B1 and B2 swap.
    """
    at = {c: i for i, c in enumerate(candidates)}
    kinds = {"A": "A", "B1": "B2", "B2": "B1"}
    return [
        at.get((
            kinds[kind],
            tuple(sorted(ell + 1 - j for j in internal)),
            tuple(sorted(ell + 1 - j for j in hits)),
        ))
        for kind, internal, hits in candidates
    ]


def case_oracle(ell_max: int) -> OracleReport:
    """Exhaustively examine every candidate bad curve for chains of length <= ell_max.

    Beside the per-candidate verdicts it checks that the A1 and A5 cases die
    (A1_UNKILLED, A5_UNKILLED) with their certificates (A1_CERTIFICATE,
    A5_CERTIFICATE), that bad survivors obey 2n <= ell + 4 (SURVIVOR_BOUND),
    that compatible B1 + B2 survivor pairs obey 2(n1 + n2) <= ell + 5
    (JOINT_BOUND), that the surviving set is closed under string reversal
    with B1 and B2 swapped (REVERSAL), and that the family [2, .., 2, ell + 3]
    and its reversal have no bad survivor (FAMILY).  Each failure is one
    (check, subject, reason) entry of report.failures.  ell_max is read
    through tstring's _entry, so text, a bool or 2.5 raises ValueError.
    """
    ell_max = _entry(ell_max)
    if not 1 <= ell_max <= ORACLE_LENGTH_CAP:
        raise ValueError(f"ell_max must be in 1..{ORACLE_LENGTH_CAP}, got {ell_max}")

    outcomes: list[CandidateOutcome] = []
    by_string: dict[tuple[int, ...], list[CandidateOutcome]] = {}
    mirrors: dict[int, list[int | None]] = {}
    joint_records: list[JointRecord] = []
    failures: list[OracleFailure] = []
    for ell, strings in sorted(enumerate_tstrings(ell_max).items()):
        # each string's rows in (kind, internal, e_hits) order
        candidates = sorted(enumerate_candidates(ell))
        mirrors[ell] = _mirror_index(candidates, ell)
        trie: dict[tuple[int, ...], _Node] = {}  # this length's, by e_hits then path
        sets: dict[frozenset[int], frozenset[int]] = {}  # this length's component sets
        parts = [_candidate_parts(ell, *c, trie, sets) for c in candidates]
        for t in sorted(strings):
            facts: dict[_Node, _Facts] = {}
            rows = [
                _examine(t, kind, internal, hits, part, trie[hits], facts)
                for (kind, internal, hits), part in zip(candidates, parts)
            ]
            outcomes.extend(rows)
            by_string[t] = rows

            for o in rows:
                if o.case in _CERTIFICATES:
                    unkilled, off, certificate = _CERTIFICATES[o.case]
                    if o.verdict != DIES:
                        failures.append((unkilled, o, f"verdict {o.verdict}, not {DIES}"))
                    elif not certificate.intersection(o.checks):
                        why = " or ".join(sorted(certificate))
                        failures.append((off, o, f"dies without {why}"))
            bad = [o for o in rows if o.verdict == SURVIVES_BAD]
            failures += [
                ("SURVIVOR_BOUND", o, f"2n = {2 * o.n_internal} > ell + 4 = {ell + 4}")
                for o in bad if 2 * o.n_internal > ell + 4
            ]
            b2 = [o for o in bad if o.kind == "B2"]
            for s1 in (o for o in bad if o.kind == "B1"):
                for s2 in b2:
                    if set(s1.internal) & set(s2.internal):
                        continue  # shared components across types cannot coexist
                    rec = JointRecord(t, s1.internal, s2.internal, pair_product(t, s1, s2))
                    joint_records.append(rec)
                    n12 = s1.n_internal + s2.n_internal
                    if rec.product == 0 and 2 * n12 > ell + 5:
                        failures.append(
                            ("JOINT_BOUND", rec, f"2(n1 + n2) = {2 * n12} > ell + 5 = {ell + 5}")
                        )

    for t, rows in by_string.items():
        mirrored = by_string.get(t[::-1])
        for o, j in zip(rows, mirrors[len(t)]):
            if mirrored is None or j is None:
                failures.append(("REVERSAL", o, "mirror candidate missing"))
            elif mirrored[j].verdict != o.verdict:
                why = f"mirror verdict {mirrored[j].verdict} != {o.verdict}"
                failures.append(("REVERSAL", o, why))

    def count_bad(s: tuple[int, ...]) -> int:
        return sum(1 for o in by_string.get(s, ()) if o.verdict == SURVIVES_BAD)

    family_results = []
    for ell in range(1, ell_max + 1):
        corrected = (2,) * (ell - 1) + (ell + 3,)
        assert is_tstring(corrected).accepted, corrected
        fam = FamilyResult(ell, count_bad(corrected), count_bad(corrected[::-1]))
        family_results.append(fam)
        if fam.corrected_bad_survivors or fam.reversed_bad_survivors:
            failures.append(("FAMILY", fam, (
                f"bad survivors: {fam.corrected_bad_survivors} on {list(corrected)}, "
                f"{fam.reversed_bad_survivors} on its reversal"
            )))

    return OracleReport(
        ell_max, tuple(outcomes), tuple(joint_records), tuple(family_results), tuple(failures)
    )


def oracle_jsonl(report: OracleReport) -> list[str]:
    """One byte-stable line per examined candidate, in enumeration order."""
    return [
        json.dumps(o.to_json(), separators=(",", ":")) for o in report.outcomes
    ]


# ----- The interior-hit contradiction on -2-chains -----


def interior_hit_contradiction(n: int, i: int) -> BlowDownTrace:
    """A (-1)-sphere meeting an interior sphere of a -2-chain, contracted.

    For a chain of n >= 3 spheres of self-intersection -2 and e meeting C_i
    once (2 <= i <= n-1), repeatedly blowing down (-1)-spheres always
    produces a rational curve violating the K-degree rule, proving e cannot
    exist.  Returns the trace; callers assert the SW_VIOLATION status.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if not 2 <= i <= n - 1:
        raise ValueError(f"interior index required: i={i} not in [2, {n - 1}]")
    return contract_all(build_candidate_config((2,) * n, (i,))[0])
