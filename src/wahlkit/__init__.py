"""Combinatorics of Wahl singularities on rational surfaces.

The package covers five layers, each in its own module:

- :mod:`wahlkit.tstring` — the resolution strings of the cyclic quotient
  singularities 1/p^2(pq-1, 1), held as tuples of ints, their recognition,
  and the two moves that generate all of them from [4].
- :mod:`wahlkit.discrepancy` — exact discrepancy vectors over the rationals,
  the determinant of the intersection chain, the pairing test that rules
  curves in or out, and the atlas JSON line of one T-string.
- :mod:`wahlkit.curveconfig` — blow-up/blow-down bookkeeping for
  configurations of rational curves, contraction traces, and the structural
  validation of exceptional curves of the first kind.
- :mod:`wahlkit.badcurves` — the shapes of curves of low degree against a
  resolution chain, the forbidden incidence patterns, the counting bounds,
  and a brute-force oracle over all small cases.
- :mod:`wahlkit.bounds` — the inequality chain bounding the chain length in
  terms of K^2, with classical surface families as stress tests.
"""

from .badcurves import (
    CandidateOutcome,
    OracleReport,
    PatternReport,
    TypeBoundReport,
    UnbrokenReport,
    case_oracle,
    enumerate_candidates,
    examine_candidate,
    forbidden_patterns,
    interior_hit_contradiction,
    pair_product,
    type_bounds,
    unbroken_checks,
)
from .bounds import (
    BoundReport,
    SurfaceExample,
    general_bound,
    inequality_chain,
    length_feasible,
    max_p_B_p1,
    special_bound,
    surface_examples,
)
from .curveconfig import (
    CONTRACTED_TO_POINT,
    STUCK,
    SW_VIOLATION,
    BlowDownTrace,
    ContractionStep,
    Curve,
    CurveConfig,
    Edge,
    FreePoint,
    GenericOn,
    Intersection,
    IteratedBlowdown,
    SWViolation,
    ZariskiReport,
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
    is_nested,
    iterated_blowdown_trace,
    load_config,
    nesting_conflicts,
    random_blowup,
    single_curve,
    sw_check,
    trace_jsonl_lines,
    validate_zariski,
)
from .discrepancy import (
    atlas_line,
    canonical_pairing,
    chain_determinant,
    discrepancies,
    intersection_matrix,
    validate_discrepancies,
)
from .tstring import (
    DEFAULT_LENGTH_CAP,
    Recognition,
    WahlParams,
    apply_L,
    apply_R,
    as_entries,
    checksum_ok,
    continuants,
    enumerate_tstrings,
    eval_cf,
    hj_expand,
    is_tstring,
    tstring_to_params,
    wahl_tstring,
)

__version__ = "0.1.0"

__all__ = [
    # tstring
    "DEFAULT_LENGTH_CAP",
    "Recognition",
    "WahlParams",
    "apply_L",
    "apply_R",
    "as_entries",
    "checksum_ok",
    "continuants",
    "enumerate_tstrings",
    "eval_cf",
    "hj_expand",
    "is_tstring",
    "tstring_to_params",
    "wahl_tstring",
    # discrepancy
    "atlas_line",
    "canonical_pairing",
    "chain_determinant",
    "discrepancies",
    "intersection_matrix",
    "validate_discrepancies",
    # curveconfig
    "CONTRACTED_TO_POINT",
    "STUCK",
    "SW_VIOLATION",
    "BlowDownTrace",
    "ContractionStep",
    "Curve",
    "CurveConfig",
    "Edge",
    "FreePoint",
    "GenericOn",
    "Intersection",
    "IteratedBlowdown",
    "SWViolation",
    "ZariskiReport",
    "blow_down",
    "blow_up",
    "chain_config",
    "config_from_json",
    "config_to_json",
    "contract_all",
    "derived_multiplicities",
    "divisor_k",
    "divisor_pairing",
    "divisor_product",
    "is_nested",
    "iterated_blowdown_trace",
    "load_config",
    "nesting_conflicts",
    "random_blowup",
    "single_curve",
    "sw_check",
    "trace_jsonl_lines",
    "validate_zariski",
    # badcurves
    "CandidateOutcome",
    "OracleReport",
    "PatternReport",
    "TypeBoundReport",
    "UnbrokenReport",
    "case_oracle",
    "enumerate_candidates",
    "examine_candidate",
    "forbidden_patterns",
    "interior_hit_contradiction",
    "pair_product",
    "type_bounds",
    "unbroken_checks",
    # bounds
    "BoundReport",
    "SurfaceExample",
    "general_bound",
    "inequality_chain",
    "length_feasible",
    "max_p_B_p1",
    "special_bound",
    "surface_examples",
]
