"""The length-bound inequality chain and worked surface examples.

For a Wahl degeneration against a chain of length ell on a surface with
K^2 = ksq, the pieces proved elsewhere in the package assemble into:

    k >= ell - ksq                (blow-up count lower bound)
    sum_i sum_j E_i.C_j <= ell+1  (total incidence budget)
    good curves spend >= 2 of the budget, bad curves exactly 1
        =>  ell <= 2*ksq + p + 1  for p bad curves
    p <= (ell + 5) / 2            (bad-curve counting bounds)
        =>  ell <= 4*ksq + 7.

At k = k_min the spending condition 2(k - p) + p <= ell + 1 is ell <= 2*ksq + p + 1
rearranged, so inequality_chain checks the two as one, "budget", beside "p".

When the T-string is [ell+3, 2, .., 2] (the q = 1 family) there are no bad
curves at all, giving ell <= 2*ksq + 1 and hence p <= 2*ksq + 2 for the
singularity parameter p = ell + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .tstring import _entry

DEGREE_D_IN_P3 = "DEGREE_D_IN_P3"
HORIKAWA = "HORIKAWA"


def general_bound(ksq: int) -> int:
    """Largest chain length possible on a surface with K^2 = ksq."""
    ksq = _entry(ksq)
    if ksq < 1:
        raise ValueError(f"need ksq >= 1 (general type), got {ksq}")
    return 4 * ksq + 7


def special_bound(ksq: int) -> int:
    """The sharper length bound when the T-string has q = 1 (no bad curves)."""
    ksq = _entry(ksq)
    if ksq < 1:
        raise ValueError(f"need ksq >= 1 (general type), got {ksq}")
    return 2 * ksq + 1


def max_p_B_p1(ksq: int) -> int:
    """Largest p for a B_{p,1} rational homology ball; ell = p - 1 there."""
    return special_bound(ksq) + 1


@dataclass(frozen=True)
class BoundReport:
    """One evaluation of the inequality chain at (ksq, ell, p_bad)."""

    ksq: int
    ell: int
    p_bad: int
    k_min: int
    rana_budget: int
    p_max: Fraction
    bound_general: int
    bound_special: int
    failures: tuple[str, ...]

    @property
    def feasible(self) -> bool:
        return not self.failures


def inequality_chain(ksq: int, ell: int, p_bad: int) -> BoundReport:
    """Evaluate every inequality in the chain for the given parameters.

    k_min = ell - ksq blow-ups are forced; the incidence budget ell + 1 must
    cover two units for each of the >= k_min - p_bad good curves and one for
    each bad curve ("budget", which is ell <= 2*ksq + p_bad + 1); and p_bad may
    not exceed (ell + 5)/2 ("p").  failures lists those that fail; infeasibility
    of every p_bad <= (ell+5)/2 is exactly how a length is proved impossible.
    Each argument is read as an exact int: a value such as 5.5 or None raises
    ValueError naming it.  ksq below 1 raises ValueError, as in general_bound.
    """
    ksq, ell, p_bad = map(_entry, (ksq, ell, p_bad))
    if ksq < 1:
        raise ValueError(f"need ksq >= 1 (general type), got {ksq}")
    if min(ell, p_bad) < 0:
        raise ValueError("ell and p_bad must be nonnegative")
    k_min = ell - ksq
    rana_budget = ell + 1
    p_max = Fraction(ell + 5, 2)
    failures = []
    if 2 * (k_min - p_bad) + p_bad > rana_budget:
        failures.append("budget")
    if p_bad > p_max:
        failures.append("p")
    return BoundReport(
        ksq=ksq,
        ell=ell,
        p_bad=p_bad,
        k_min=k_min,
        rana_budget=rana_budget,
        p_max=p_max,
        bound_general=4 * ksq + 7,
        bound_special=2 * ksq + 1,
        failures=tuple(failures),
    )


def length_feasible(ksq: int, ell: int) -> bool:
    """Whether any admissible bad-curve count makes the chain feasible; ksq >= 1."""
    ksq, ell = _entry(ksq), _entry(ell)
    if ksq < 1:
        raise ValueError(f"need ksq >= 1 (general type), got {ksq}")
    return any(
        inequality_chain(ksq, ell, p).feasible for p in range((ell + 5) // 2 + 1)
    )


@dataclass(frozen=True)
class SurfaceExample:
    """Numerical invariants of a worked example surface."""

    kind: str
    param: int
    ksq: int
    p_g: int | None
    b_plus: int | None
    ell: int | None
    bound_general: int
    bound_special: int


def surface_examples(kind: str, n_or_d: int) -> SurfaceExample:
    """Invariants for the two worked families.

    DEGREE_D_IN_P3 (d >= 5): a smooth surface of degree d in projective
    3-space has K^2 = d(d-4)^2 and p_g = d(d^2-6d+11)/6 - 1; no specific
    chain length is attached.  HORIKAWA (n >= 2): the Horikawa surface H(n)
    has K^2 = 4n-6, b+ = 2n-1, and carries a Wahl chain of length
    ell = n-1 = (K^2+2)/4, comfortably inside both bounds (its T-string has
    q = 1, so the special bound applies too).  n_or_d is read as an exact
    int: a value such as 3.5 raises ValueError naming it.
    """
    n_or_d = _entry(n_or_d)
    if kind == DEGREE_D_IN_P3:
        d = n_or_d
        if d < 5:
            raise ValueError(f"need degree d >= 5 for general type, got {d}")
        ksq = d * (d - 4) ** 2
        p_g_num = d * (d * d - 6 * d + 11)
        if p_g_num % 6:
            raise AssertionError(f"d(d^2-6d+11) = {p_g_num} not divisible by 6")
        return SurfaceExample(
            kind=kind,
            param=d,
            ksq=ksq,
            p_g=p_g_num // 6 - 1,
            b_plus=None,
            ell=None,
            bound_general=general_bound(ksq),
            bound_special=special_bound(ksq),
        )
    if kind == HORIKAWA:
        n = n_or_d
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        ksq = 4 * n - 6
        ell = n - 1
        if 4 * ell != ksq + 2:
            raise AssertionError(f"H({n}): ell = {ell} is not (K^2+2)/4")
        if ell > general_bound(ksq) or ell > special_bound(ksq):
            raise AssertionError(f"H({n}): ell = {ell} violates a length bound")
        return SurfaceExample(
            kind=kind,
            param=n,
            ksq=ksq,
            p_g=None,
            b_plus=2 * n - 1,
            ell=ell,
            bound_general=general_bound(ksq),
            bound_special=special_bound(ksq),
        )
    raise ValueError(f"unknown example kind {kind!r}")
