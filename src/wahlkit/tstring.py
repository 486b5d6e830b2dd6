"""T-strings: the resolution chains of Wahl singularities.

A Wahl singularity is the cyclic quotient singularity 1/p**2 (pq-1, 1) for
coprime 0 < q < p.  Its minimal resolution is a chain of rational curves
C_1, ..., C_ell whose negative self-intersections b_j = -C_j**2 are read off
the minus (Hirzebruch-Jung) continued fraction

    p**2 / (pq - 1) = b_1 - 1/(b_2 - 1/(b_3 - ...)).

We call the sequence [b_1, ..., b_ell] a T-string, and hold it as a tuple of
ints; as_entries reads any other sequence of integers into that form.  This
module provides the expansion and its inverse, the two length-increasing
moves

    L[b_1..b_ell] = [2, b_1, ..., b_{ell-1}, b_ell + 1]
    R[b_1..b_ell] = [b_1 + 1, b_2, ..., b_ell, 2]

which generate every T-string from [4], deterministic enumeration by length,
recognition by reverse reduction, and the (p, q) <-> string correspondence.

Everything here is exact integer / Fraction arithmetic; p grows like 2**ell,
so floats are never acceptable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Iterator, Sequence

# Enumeration is capped because the census doubles per length.
DEFAULT_LENGTH_CAP = 16


@dataclass(frozen=True)
class WahlParams:
    """Coprime pair (p, q), 0 < q < p, labelling the singularity 1/p**2(pq-1,1).

    p and q are read as as_entries reads a T-string's entries: a field that
    int() would change in value, or that is not a number, raises ValueError
    naming it.
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _entry(self.p))
        object.__setattr__(self, "q", _entry(self.q))
        if self.p <= 0 or self.q <= 0:
            raise ValueError(f"p and q must be positive, got ({self.p}, {self.q})")
        if self.q >= self.p:
            raise ValueError(f"need 0 < q < p, got ({self.p}, {self.q})")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"p and q must be coprime, got ({self.p}, {self.q})")

    def reversed(self) -> "WahlParams":
        # the reversed string corresponds to q -> p - q
        return WahlParams(self.p, self.p - self.q)


def as_entries(t: Iterable[int]) -> tuple[int, ...]:
    """Normalize a sequence of entries to a tuple of ints, the one form of a T-string.

    A tuple of exact ints is returned as it is; anything else (a list, a
    generator, an int subclass or an exact float entry) is coerced entry by
    entry.  An entry that int() would change in value, such as 3.5 truncated
    to 3, a str such as "4", or a bool, raises ValueError naming it.
    A str or bytes passed as the whole sequence raises ValueError too: read
    one character at a time, "352" would pass for (3, 5, 2).
    """
    if type(t) is tuple and set(map(type, t)) <= {int}:
        return t
    if isinstance(t, (str, bytes, bytearray)):
        raise ValueError(
            f"entries must be a sequence of integers, not the {type(t).__name__} {t!r}")
    return tuple(map(_entry, t))


def _entry(x) -> int:
    """int(x), or ValueError naming x when that loses part of its value, or x is text or a bool.

    A bool is refused as config_from_json refuses it: True is a flag, not
    the number 1.
    """
    if type(x) is int:
        return x
    if isinstance(x, bool):
        raise ValueError(f"entry {x!r} is a bool, not an integer")
    try:
        n = int(x)
    except (OverflowError, TypeError, ValueError):  # inf or NaN, None, a non-numeric str
        raise ValueError(f"entry {x!r} is not an integer") from None
    if n != x:  # also refuses text that int() reads, such as "4" or b"4"
        raise ValueError(f"entry {x!r} is not an integer")
    return n


# ----- Continued fractions -----


def hj_expand(n: int, m: int) -> tuple[int, ...]:
    """Minus continued fraction of n/m: the unique [b_1..b_k] with all b_i >= 2.

    Requires coprime integers 0 < m < n.  Division steps: b = ceil(n/m), then
    recurse on m / (b*m - n).
    """
    if not (0 < m < n):
        raise ValueError(f"need 0 < m < n, got n={n}, m={m}")
    if gcd(n, m) != 1:
        raise ValueError(f"n and m must be coprime, got n={n}, m={m}")
    out: list[int] = []
    while m > 0:
        b = -(-n // m)  # ceil division
        out.append(b)
        n, m = m, b * m - n
    return tuple(out)


def continuants(b: Iterable[int]) -> list[int]:
    """Prefix continuants [K(), K(b_1), K(b_1, b_2), ..., K(b_1..b_k)].

    K() = 1 and K(b_1..b_i) = b_i K(b_1..b_{i-1}) - K(b_1..b_{i-2}).  K(b) is
    the numerator of [b_1..b_k], unchanged by reversing b, and the
    tridiagonal chain matrix of b has determinant (-1)**k K(b).
    """
    prev, cur = 0, 1
    out = [cur]
    for x in b:
        prev, cur = cur, x * cur - prev
        out.append(cur)
    return out


def eval_cf(b: Iterable[int]) -> Fraction:
    """Value of b_1 - 1/(b_2 - 1/(... - 1/b_k)), i.e. K(b_1..b_k) / K(b_2..b_k)."""
    back = continuants(_cf_entries(b)[::-1])
    return Fraction(back[-1], back[-2])


def _cf_entries(t: Iterable[int]) -> tuple[int, ...]:
    """as_entries(t), refused with eval_cf's errors when empty or an entry is below 2."""
    entries = as_entries(t)
    if not entries:
        raise ValueError("empty continued fraction")
    if min(entries) < 2:
        raise ValueError(f"entries must be >= 2: {list(entries)}")
    return entries


def wahl_tstring(p: int | WahlParams, q: int | None = None) -> tuple[int, ...]:
    """T-string of the Wahl singularity with parameters (p, q).

    Accepts either a WahlParams or the two integers; a p or q that int()
    would change in value raises ValueError naming it.  gcd(p**2, pq-1) = 1
    automatically, so the expansion always exists.
    """
    params = p if isinstance(p, WahlParams) else WahlParams(p, q)
    return hj_expand(params.p**2, params.p * params.q - 1)


def _wahl_length(p: int, q: int) -> int:
    """len(wahl_tstring(p, q)) in O(log p) steps, without building the string.

    It is the sum of the partial quotients of p/q, minus 1: at [4], (2, 1),
    the sum is 2, and each L or R move adds one to the length and one to the
    sum.  R takes p/q to p/q + 1.  L takes it to 1 + 1/(p/(p - q)), and
    p/(p - q) has the same sum as p/q.  p and q are a WahlParams' fields.
    """
    total = 0
    while q:
        a, r = divmod(p, q)
        total += a
        p, q = q, r
    return total - 1


# ----- Generation -----


def apply_L(t: Iterable[int]) -> tuple[int, ...]:
    """Left move: [b_1..b_ell] -> [2, b_1, ..., b_{ell-1}, b_ell + 1].

    On parameters this acts as (p, q) -> (2p - q, p).  Raises ValueError
    with is_tstring's reason when t is not a T-string.
    """
    return _left(_checked(t))


def apply_R(t: Iterable[int]) -> tuple[int, ...]:
    """Right move: [b_1..b_ell] -> [b_1 + 1, b_2, ..., b_ell, 2].

    On parameters this acts as (p, q) -> (p + q, q).  Raises ValueError
    with is_tstring's reason when t is not a T-string.
    """
    return _right(_checked(t))


def _checked(t: Iterable[int]) -> tuple[int, ...]:
    """as_entries(t), or ValueError carrying is_tstring's reason when t is not a T-string.

    A move maps T-strings to T-strings, so checking its input is enough.
    """
    b = as_entries(t)
    reason = is_tstring(b).reason
    if reason is not None:
        raise ValueError(f"not a T-string: {reason}")
    return b


def _left(b: tuple[int, ...]) -> tuple[int, ...]:
    return (2,) + b[:-1] + (b[-1] + 1,)


def _right(b: tuple[int, ...]) -> tuple[int, ...]:
    return (b[0] + 1,) + b[1:] + (2,)


def enumerate_tstrings(ell_max: int) -> dict[int, tuple[tuple[int, ...], ...]]:
    """All T-strings of length <= ell_max, grouped by length.

    Breadth-first over the generation tree rooted at [4]; within a level each
    parent contributes its L-child then its R-child, so the order is fully
    deterministic.  Every length-ell level holds exactly 2**(ell-1) strings,
    so ell_max above DEFAULT_LENGTH_CAP raises ValueError.  ell_max is read
    through _entry, so text, a bool or 2.5 raises ValueError.
    """
    ell_max = _entry(ell_max)
    if ell_max < 1:
        raise ValueError(f"ell_max must be >= 1, got {ell_max}")
    if ell_max > DEFAULT_LENGTH_CAP:
        raise ValueError(f"ell_max={ell_max} exceeds the length cap {DEFAULT_LENGTH_CAP}")
    return dict(enumerate(_levels(ell_max), start=1))


def _levels(ell_max: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The levels of the generation tree through length ell_max, shortest first.

    Every tuple is a T-string by construction, so none is checked here.
    ell_max is an int >= 1, unchecked.
    """
    level: tuple[tuple[int, ...], ...] = ((4,),)
    yield level
    for _ in range(ell_max - 1):
        level = tuple(child for b in level for child in (_left(b), _right(b)))
        yield level


# ----- Recognition -----


@dataclass(frozen=True)
class Recognition:
    """Verdict of the reverse-reduction membership test.

    ``word`` lists the letters peeled outermost-first; applying them to [4]
    innermost-last rebuilds the input (e.g. word "RL" means the input is
    R(L([4]))).  ``reason`` says why the input was rejected; None means accepted.
    """

    word: str = ""
    reason: str | None = None

    @property
    def accepted(self) -> bool:
        return self.reason is None


def is_tstring(seq: Iterable[int]) -> Recognition:
    """Decide membership by peeling L/R moves down to [4].

    A sequence produced by L starts with 2 and ends >= 3 (strip the leading 2,
    decrement the last entry); R is the mirror image.  A sequence starting
    AND ending with 2 can never occur for T-strings of length >= 2, so it is
    rejected outright.  The checksum is only a necessary condition — e.g.
    [3, 4] passes it and is still rejected here.
    """
    entries = list(as_entries(seq))
    if not entries:
        return Recognition(reason="empty sequence")
    if any(x < 2 for x in entries):
        return Recognition(reason=f"entry < 2 in {entries}")
    if sum(x - 2 for x in entries) != len(entries) + 1:
        return Recognition(
            reason=f"checksum sum(b_j - 2) = {sum(x - 2 for x in entries)} != ell + 1 = {len(entries) + 1}",
        )
    word: list[str] = []
    while entries != [4]:
        starts2 = entries[0] == 2
        ends2 = entries[-1] == 2
        if starts2 and ends2:
            return Recognition(reason=f"stuck at {entries}: starts and ends with 2")
        if starts2:
            word.append("L")
            entries = entries[1:]
            entries[-1] -= 1
        elif ends2:
            word.append("R")
            entries = entries[:-1]
            entries[0] -= 1
        else:
            return Recognition(reason=f"stuck at {entries}: no leading or trailing 2")
        if any(x < 2 for x in entries):
            return Recognition(reason=f"reduction produced entry < 2: {entries}")
    return Recognition("".join(word))


def tstring_to_params(t: Iterable[int]) -> WahlParams:
    """Recover (p, q) from a T-string: eval_cf gives p**2/(pq-1) in lowest terms.

    Raises ValueError when the input is not a T-string.  The result
    satisfies p <= 2**ell.
    """
    b = _cf_entries(t)
    back = continuants(b[::-1])
    return _params_from_continuants(b, back[-1], back[-2])


def _params_from_continuants(b: tuple[int, ...], n: int, m: int) -> WahlParams:
    """tstring_to_params(b) from n = K(b_1..b_ell) and m = K(b_2..b_ell).

    n/m is eval_cf(b), already in lowest terms: K(b_1..b_ell) =
    b_1 K(b_2..b_ell) - K(b_3..b_ell), so gcd(n, m) = gcd(K(b_2..b_ell),
    K(b_3..b_ell)) = ... = gcd(K(b_ell), K()) = 1.  Every entry of b is
    >= 2 (_cf_entries checked it), so 0 < m < n and b is the one minus
    continued fraction of n/m: b = hj_expand(n, m).  So once n = p**2 and
    m = pq - 1 pass WahlParams' checks, b is the T-string of (p, q).
    """
    assert gcd(n, m) == 1, (b, n, m)
    p = isqrt(n)
    if p * p != n:
        raise ValueError(f"not a T-string: eval_cf={n}/{m} has non-square numerator")
    if (m + 1) % p != 0:
        raise ValueError(f"not a T-string: denominator {m} is not pq-1 for p={p}")
    return WahlParams(p, (m + 1) // p)


def checksum_ok(t: Iterable[int]) -> bool:
    """Necessary condition sum(b_j - 2) == ell + 1."""
    b = as_entries(t)
    return sum(x - 2 for x in b) == len(b) + 1
