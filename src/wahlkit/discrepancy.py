"""Discrepancies of Wahl singularities, exactly.

Writing K for the canonical class of the minimal resolution of the
singularity with T-string [b_1..b_ell], the discrepancies a_1..a_ell are
defined by K = sum a_j C_j against the resolution chain, i.e. by the linear
system

    M a = (b_1 - 2, ..., b_ell - 2)^T,

where M is the tridiagonal intersection matrix (M_jj = -b_j, off-diagonal 1).
M is negative definite, so the solution is unique; in the integer
continuants K of :func:`wahlkit.tstring.continuants` it reads

    a_j = -1 + (K(b_1..b_{j-1}) + K(b_{j+1}..b_ell)) / p**2,

with p**2 = K(b_1..b_ell) = |det M|.  Key facts checked throughout the
suite: a_j in (-1, 0), a_1 + a_ell = -1, and denominators divide p**2.
validate_discrepancies checks them and the system itself in exact integer
arithmetic over the vector's common denominator.

atlas_line writes the canonical JSON line of one T-string, the one
`wahlkit atlas` and `wahlkit expand --json` print, and whose fields plain
`wahlkit expand` prints.  It reads them from _atlas_fields, which takes them
from two integer sweeps, continuants(b) forward and continuants(b[::-1])
backward.  The backward sweep's K(b) and K(b_2..b_ell) give (p, q); the two
sweeps give the numerators through the same code as discrepancies; and
|det M| is the forward sweep's K(b), so |det| = p**2 compares two
independent sweeps (K(b) is unchanged by reversing b).  The
checks of validate_discrepancies run on the numerators directly, and each
"num/den" string is printed from a gcd, so no Fraction is built unless a
check fails and its message needs one.  atlas_line formats the line from
those fields directly, with no dict and no json.dumps.

canonical_pairing evaluates sum a_j v_j against a K-degree threshold: a curve
class F with incidences v_j = F.C_j must satisfy sum a_j v_j < K.F, which is
the workhorse necessary condition for the bad-curve analysis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .tstring import _cf_entries, _entry, _params_from_continuants, as_entries, continuants


def intersection_matrix(t: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Tridiagonal matrix of the resolution chain: diag -b_j, off-diagonal 1."""
    b = as_entries(t)
    ell = len(b)
    return tuple(
        tuple(-b[i] if i == j else (1 if abs(i - j) == 1 else 0) for j in range(ell))
        for i in range(ell)
    )


def chain_determinant(t: Iterable[int]) -> int:
    """det of intersection_matrix(t): (-1)**ell K(b_1..b_ell), = +-p**2 for T-strings."""
    b = as_entries(t)
    return (-1) ** len(b) * continuants(b)[-1]


@lru_cache(maxsize=64)
def _numerators(b: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(numerators, p**2) with a_j = numerators[j] / p**2; cached, so immutable.

    The bad-curve oracle pairs all candidates of one string against it before
    it moves to the next string, so a small cache serves nearly every call.
    Raises ValueError for a singular chain, whose K(b) is 0.
    """
    nums, p2 = _numerators_of(continuants(b), continuants(b[::-1]))
    if p2 == 0:
        raise ValueError(f"singular chain {list(b)}: K(b) = 0, so M a = b - 2 has no unique "
                         "solution")
    return nums, p2


def _numerators_of(prefix: list[int], back: list[int]) -> tuple[tuple[int, ...], int]:
    """_numerators from the sweeps prefix = continuants(b) and back = continuants(b[::-1]).

    prefix[j] = K(b_1..b_j) and back[-2 - j] = K(b_{j+2}..b_ell), so the
    numerator of a_{j+1} is prefix[j] + back[-2 - j] - p**2, with p**2 =
    back[-1] = K(b) read from the backward sweep.
    """
    p2 = back[-1]
    return tuple(x + y - p2 for x, y in zip(prefix, back[-2::-1])), p2


def discrepancies(t: Iterable[int]) -> tuple[Fraction, ...]:
    """Exact solution a of M a = (b_1 - 2, ..., b_ell - 2).

    For T-strings every a_j lies strictly in (-1, 0) and a_1 + a_ell = -1.
    """
    nums, p2 = _numerators(as_entries(t))
    return tuple(Fraction(x, p2) for x in nums)


def validate_discrepancies(t: Iterable[int], a: Sequence[Fraction]) -> list[str]:
    """Return a list of violated invariants (empty when all hold).

    The checks run in exact integer arithmetic over the vector's common
    denominator: with D the lcm of the entries' denominators and
    n_j = a_j * D, they read -D < n_j < 0, n_1 + n_ell = -D, p**2 % D == 0
    (p**2 from the chain determinant, not from a) and
    -b_j n_j + n_{j-1} + n_{j+1} = (b_j - 2) D.  A Fraction is built only to
    show the value of a check that fails.  An empty string raises ValueError.
    """
    b = as_entries(t)
    if not b:
        raise ValueError("empty string")
    if len(a) != len(b):
        return [f"length mismatch: {len(a)} != {len(b)}"]
    d = math.lcm(*(x.denominator for x in a))
    n = [x.numerator * (d // x.denominator) for x in a]
    return _problems(b, n, d, abs(chain_determinant(b)), shown=a)


def _problems(
    b: tuple[int, ...], n: Sequence[int], d: int, p2: int, shown: object = None
) -> list[str]:
    """The checks of validate_discrepancies on a_j = n[j] / d (n not empty), with p**2 = p2.

    ``shown`` is the vector as the caller holds it, printed when an entry
    falls outside (-1, 0); by default it is rebuilt from n and d.
    """
    problems: list[str] = []
    if not -d < min(n) <= max(n) < 0:
        if shown is None:
            shown = tuple(Fraction(x, d) for x in n)
        problems.append(f"some a_j outside (-1, 0): {shown}")
    if n[0] + n[-1] != -d:
        problems.append(f"a_1 + a_ell = {Fraction(n[0] + n[-1], d)} != -1")
    # |det M| = K(b) is p**2 for every T-string, and each denominator divides
    # it exactly when their lcm D does
    if p2 % d:
        problems.append(f"denominator does not divide p**2 = {p2}")
    # residual check M a = b - 2, scaled by D
    padded = [0, *n, 0]
    for j, bj in enumerate(b):
        lhs = padded[j] - bj * padded[j + 1] + padded[j + 2]
        if lhs != (bj - 2) * d:
            problems.append(f"row {j + 1} residual: {Fraction(lhs, d)} != {bj - 2}")
    return problems


def atlas_line(t: Iterable[int]) -> str:
    """The canonical JSON record of one T-string as one compact line; validates its invariants.

    The keys are p, q, ell, b, discrepancies (as "num/den" strings), det
    and checksum_ok.  The line is formatted straight from _atlas_fields,
    byte for byte what json.dumps(record, separators=(",", ":")) writes,
    since every field is an int, a list of ints, a bool or a "num/den"
    string, which JSON writes as Python prints it.  Raises ValueError when
    t is not a T-string, and AssertionError when a discrepancy check or
    |det| = p**2 fails.
    """
    b, p, q, fractions, det, checksum = _atlas_fields(t)
    entries = ",".join(map(str, b))
    values = '","'.join(fractions)
    return (f'{{"p":{p},"q":{q},"ell":{len(b)},"b":[{entries}],"discrepancies":["{values}"],'
            f'"det":{det},"checksum_ok":{"true" if checksum else "false"}}}')


def _atlas_fields(
    t: Iterable[int],
) -> tuple[tuple[int, ...], int, int, list[str], int, bool]:
    """(b, p, q, the discrepancies as "num/den" strings, |det|, checksum_ok) of one T-string.

    Raises ValueError when t is not a T-string, and AssertionError when a
    discrepancy check or |det| = p**2 fails.  The discrepancies are checked
    as the reduced numerators over D = p**2 / gcd(p**2, n_1, ..., n_ell),
    which is the common denominator validate_discrepancies would derive from
    the Fractions, and each is printed as "num/den" in lowest terms.  Every
    field comes from one forward and one backward continuant sweep: p and q
    from the backward one, |det| = K(b) from the forward one.
    """
    b = _cf_entries(t)
    prefix = continuants(b)
    back = continuants(b[::-1])
    params = _params_from_continuants(b, back[-1], back[-2])
    nums, p2 = _numerators_of(prefix, back)
    det = prefix[-1]
    g = math.gcd(p2, *nums)
    problems = _problems(b, [x // g for x in nums], p2 // g, det)
    if problems:
        raise AssertionError(f"discrepancy invariants failed for {list(b)}: {problems}")
    p, q = params.p, params.q
    if det != p * p:
        raise AssertionError(f"|det| = {det} != p^2 = {p ** 2} for {list(b)}")
    fractions = [f"{x // (k := math.gcd(x, p2))}/{p2 // k}" for x in nums]
    return b, p, q, fractions, det, sum(b) == 3 * len(b) + 1  # sum(b_j - 2) == ell + 1


def canonical_pairing(
    t: Iterable[int], v: Sequence[int], kF: int
) -> tuple[Fraction, bool]:
    """(sum a_j v_j, whether the strict inequality sum a_j v_j < kF holds).

    The boolean is the necessary condition for a curve with K-degree kF and
    chain incidences v to exist; False means the incidence pattern is
    impossible.  v and kF are read as exact ints (1.5 raises ValueError); v may
    be negative: E.C_j = -1 on a divisor's last-contracted internal sphere.
    """
    b, v, kF = as_entries(t), as_entries(v), _entry(kF)
    if len(v) != len(b):
        raise ValueError(f"incidence vector length {len(v)} != ell = {len(b)}")
    s, d, ok = _pairing(b, v, kF)
    return Fraction(s, d), ok


def _pairing(b: tuple[int, ...], v: Sequence[int], kF: int) -> tuple[int, int, bool]:
    """(s, d, s < kF * d) with sum a_j v_j = s / d and d > 0, on b's integer numerators.

    The one place the pairing inequality of canonical_pairing is decided.  b,
    v and kF are exact ints with len(v) == len(b), unchecked; the bad-curve
    oracle calls it directly, so no Fraction is built there.
    """
    nums, d = _numerators(b)
    s = sum(x * vj for x, vj in zip(nums, v))
    if d < 0:  # K(b) is negative on some strings with an entry below 2
        s, d = -s, -d
    return s, d, s < kF * d
