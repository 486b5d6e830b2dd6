"""Exact discrepancies, chain determinants, and the pairing test."""

import json
import math
import random
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from helpers import (
    eager_pairing,
    eliminate_discrepancies,
    fraction_atlas_record,
    fraction_validate_discrepancies,
    tstrings_to,
)
from wahlkit import (
    TString,
    atlas_line,
    atlas_record,
    canonical_pairing,
    chain_determinant,
    checksum_ok,
    discrepancies,
    intersection_matrix,
    is_tstring,
    tstring_to_params,
    validate_discrepancies,
    wahl_tstring,
)
from wahlkit import discrepancy, tstring
from wahlkit.discrepancy import _numerators

F = Fraction
STRINGS_TO_7 = list(tstrings_to(7))

# Solved by hand from the adjunction system M a = (2 - b_j)_j.
KNOWN_DISCREPANCIES = {
    (4,): (F(-1, 2),),
    (5, 2): (F(-2, 3), F(-1, 3)),
    (2, 5): (F(-1, 3), F(-2, 3)),
    (3, 5, 2): (F(-3, 5), F(-4, 5), F(-2, 5)),
    (2, 3, 5, 3): (F(-3, 8), F(-3, 4), F(-7, 8), F(-5, 8)),
    (2, 2, 6): (F(-1, 4), F(-1, 2), F(-3, 4)),
}


def _det_laplace(m):
    """Cofactor expansion along the first column; independent of the library."""
    n = len(m)
    if n == 0:
        return F(1)
    if n == 1:
        return F(m[0][0])
    total = F(0)
    for i in range(n):
        if m[i][0] == 0:
            continue
        minor = [row[1:] for k, row in enumerate(m) if k != i]
        total += (-1) ** i * m[i][0] * _det_laplace(minor)
    return total


@lru_cache(maxsize=None)
def _discrepancies_cramer(b):
    """Solve the adjunction system M a = (b_j - 2)_j by Cramer's rule."""
    n = len(b)
    m = [[F(x) for x in row] for row in intersection_matrix(b)]
    rhs = [F(x - 2) for x in b]
    det = _det_laplace(m)
    out = []
    for j in range(n):
        mj = [row[:j] + [rhs[i]] + row[j + 1 :] for i, row in enumerate(m)]
        out.append(_det_laplace(mj) / det)
    return tuple(out)


class TestIntersectionMatrix:
    def test_shape_and_entries(self):
        m = intersection_matrix((3, 5, 2))
        assert m == ((-3, 1, 0), (1, -5, 1), (0, 1, -2))

    def test_single_entry(self):
        assert intersection_matrix((4,)) == ((-4,),)


class TestDeterminant:
    def test_signed_value(self):
        assert chain_determinant((3, 5, 2)) == -25
        assert chain_determinant((4,)) == -4
        assert chain_determinant((5, 2)) == 9

    def test_matches_laplace_expansion(self):
        for t in tstrings_to(6):
            m = [list(row) for row in intersection_matrix(t)]
            assert chain_determinant(t) == _det_laplace(m)

    def test_absolute_value_is_p_squared(self):
        for t in tstrings_to(8):
            p = tstring_to_params(t).p
            assert abs(chain_determinant(t)) == p * p


class TestDiscrepancies:
    @pytest.mark.parametrize("b,expected", sorted(KNOWN_DISCREPANCIES.items()))
    def test_known_values(self, b, expected):
        assert discrepancies(b) == expected

    def test_matches_cramer_oracle_exactly(self):
        for t in tstrings_to(6):
            assert discrepancies(t) == _discrepancies_cramer(tuple(t))

    def test_all_strictly_between_minus_one_and_zero(self):
        for t in tstrings_to(8):
            assert all(F(-1) < a < F(0) for a in discrepancies(t))

    def test_ends_sum_to_minus_one(self):
        for t in tstrings_to(8):
            a = discrepancies(t)
            assert a[0] + a[-1] == F(-1)

    def test_validation_passes_on_real_strings(self):
        for t in tstrings_to(6):
            assert validate_discrepancies(t, discrepancies(t)) == []

    def test_validation_catches_corruption(self):
        a = list(discrepancies((3, 5, 2)))
        a[1] += F(1, 7)
        assert validate_discrepancies((3, 5, 2), tuple(a)) == [
            "denominator does not divide p**2 = 25",
            "row 1 residual: 8/7 != 1",
            "row 2 residual: 16/7 != 3",
            "row 3 residual: 1/7 != 0",
        ]

    def test_validation_reports_a_non_tstring_instead_of_raising(self):
        b = (3, 4)  # passes the checksum sum(b) = 3 ell + 1, but is no T-string
        assert checksum_ok(b) and not is_tstring(b).accepted
        problems = validate_discrepancies(b, discrepancies(b))
        assert problems == ["a_1 + a_ell = -13/11 != -1"]

    @pytest.mark.parametrize("call, chain", [
        (discrepancies, (1, 1)),
        (discrepancies, [2, 1, 2]),
        (lambda b: canonical_pairing(b, [1, 1], -1), (1, 1)),
    ])
    def test_a_singular_chain_raises_naming_it(self, call, chain):
        with pytest.raises(ValueError, match=re.escape(f"singular chain {list(chain)}: K(b) = 0")):
            call(chain)

    @pytest.mark.parametrize("validate", [validate_discrepancies, fraction_validate_discrepancies])
    def test_validation_refuses_the_empty_string(self, validate):
        with pytest.raises(ValueError, match="^empty string$"):
            validate((), [])

    def test_reversal_reverses_the_vector(self):
        for t in tstrings_to(7):
            assert discrepancies(t.reversed()) == discrepancies(t)[::-1]

    @given(st.integers(2, 40), st.integers(1, 39))
    def test_denominators_divide_p(self, p, q):
        if q >= p or __import__("math").gcd(p, q) != 1:
            return
        t = wahl_tstring(p, q)
        for a in discrepancies(t):
            assert p % a.denominator == 0


class TestPairing:
    def test_single_hit_never_passes(self):
        # every discrepancy is > -1, so one transverse hit cannot reach -1
        for t in tstrings_to(6):
            for j in range(t.ell):
                v = [0] * t.ell
                v[j] = 1
                value, ok = canonical_pairing(t, v, -1)
                assert value > F(-1)
                assert not ok

    def test_endpoint_hits_land_exactly_on_minus_one(self):
        for t in tstrings_to(6):
            if t.ell < 2:
                continue
            v = [0] * t.ell
            v[0] = v[-1] = 1
            value, ok = canonical_pairing(t, v, -1)
            assert value == F(-1)
            assert not ok

    def test_strict_pass_example(self):
        value, ok = canonical_pairing((3, 5, 2), (1, 1, 0), -1)
        assert value == F(-7, 5)
        assert ok

    @given(st.data())
    def test_matches_cramer_sum_and_is_strict(self, data):
        t = tuple(data.draw(st.sampled_from(STRINGS_TO_7)))
        v = data.draw(st.lists(st.integers(0, 6), min_size=len(t), max_size=len(t)))
        value = sum((a * vj for a, vj in zip(_discrepancies_cramer(t), v)), F(0))
        # a K-degree is an integer: at ceil(value) the inequality is strict
        # exactly when value is not an integer itself
        kF = data.draw(st.sampled_from([math.ceil(value), math.floor(value)])
                       | st.integers(-12, 2))
        assert canonical_pairing(t, v, kF) == (value, value < kF)
        if value.denominator > 1:
            with pytest.raises(ValueError, match=re.escape(f"entry {value!r} is not an integer")):
                canonical_pairing(t, v, value)

    @pytest.mark.parametrize("v, kF, named", [
        ([1.5, 0], -1, "entry 1.5 is not an integer"),
        ([1, None], -1, "entry None is not an integer"),
        ([1, "1"], -1, "entry '1' is not an integer"),
        ("ab", -1, "not the str 'ab'"),
        ([1, 1], -1.5, "entry -1.5 is not an integer"),
        ([1, 1], "-1", "entry '-1' is not an integer"),
        ([1.0, True], -1, "entry True is a bool, not an integer"),
        ([1, 1], False, "entry False is a bool, not an integer"),
    ])
    def test_a_lossy_incidence_or_degree_raises_naming_it(self, v, kF, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            canonical_pairing((5, 2), v, kF)

    def test_exact_and_negative_incidences_are_read_as_ints(self):
        assert canonical_pairing((5, 2), [1.0, F(1)], F(-1)) == canonical_pairing((5, 2), (1, 1), -1)
        # a contracted divisor can meet its last-contracted internal sphere with E.C_j = -1
        value, ok = canonical_pairing((3, 5, 2), (1, -1, 0), 0)
        a = discrepancies((3, 5, 2))
        assert value == a[0] - a[1]
        assert ok == (value < 0)

    def test_a_negative_determinant_does_not_flip_the_inequality(self):
        # K(1, 1, 1) = -1, so the integer test must not multiply by it as it is
        a = discrepancies((1, 1, 1))
        for v, kF in [((1, 0, 2), -6), ((1, 0, 2), -5), ((0, 1, 0), 0), ((0, 1, 0), 1)]:
            value = sum(x * vj for x, vj in zip(a, v))
            assert canonical_pairing((1, 1, 1), v, kF) == (value, value < kF), (v, kF)


class TestCachedNumerators:
    """The cached continuant numerators against Fraction elimination, in every input form."""

    def test_numerators_are_an_immutable_bounded_cache_entry(self):
        nums, p2 = _numerators((2, 3, 5, 3))
        assert (nums, p2) == ((-24, -48, -56, -40), 64)
        assert type(nums) is tuple  # the cached entry cannot be changed by a caller
        assert _numerators((2, 3, 5, 3)) is _numerators((2, 3, 5, 3))
        assert _numerators.cache_info().maxsize is not None

    def test_every_string_to_ten_in_every_form(self):
        strings = list(tstrings_to(10))
        assert len(strings) == 1023  # far more than the cache holds, so entries are evicted
        for t in strings:
            a = eliminate_discrepancies(t.b)
            vectors = [(1,) + (0,) * (t.ell - 1), tuple(range(1, t.ell + 1))]
            expected = [eager_pairing(t.b, v, kF) for v in vectors for kF in (-1, 0)]
            for form in (t, list(t.b), t.b):
                assert discrepancies(form) == a
                assert [canonical_pairing(form, v, kF)
                        for v in vectors for kF in (-1, 0)] == expected


def corrupted_case(rng, strings):
    """A (t, a) pair for the validator: a real vector spoiled in one of several ways."""
    kind = rng.choice(["perturb", "ints", "random", "non_tstring", "length", "shift", "reverse"])
    t = rng.choice(strings)
    a = list(discrepancies(t))
    if kind == "perturb":  # one or more entries moved by a small fraction
        for _ in range(rng.randint(1, 3)):
            a[rng.randrange(len(a))] += F(rng.randint(-3, 3), rng.randint(1, 9))
    elif kind == "ints":  # plain int entries, alone or mixed with Fractions
        for j in range(len(a)):
            if rng.random() < 0.5:
                a[j] = rng.randint(-2, 1)
    elif kind == "random":
        a = [F(rng.randint(-12, 2), rng.randint(1, 12)) for _ in a]
    elif kind == "non_tstring":  # any chain with K(b) != 0, such as (3, 4)
        b = rng.choice([(3, 4), (1, 3), (2, 2), (4, 4)]) if rng.random() < 0.3 else tuple(
            rng.randint(1, 6) for _ in range(rng.randint(1, 6)))
        if chain_determinant(b) == 0:
            return b, [F(-1, 2)] * len(b)
        t, a = b, list(discrepancies(b))
    elif kind == "length":
        a = a[:-1] if len(a) > 1 and rng.random() < 0.5 else a + [F(-1, 2)]
    elif kind == "shift":  # a multiple of 1/p**2: the denominators still divide p**2
        p2 = abs(chain_determinant(t))
        a[rng.randrange(len(a))] += F(rng.choice([-1, 1]) * rng.randint(1, 3), p2)
    else:  # the mirror image's vector, right only for palindromes
        a = a[::-1]
    if rng.random() < 0.5:
        t = list(t) if rng.random() < 0.5 else tuple(t)
    return t, (a if rng.random() < 0.5 else tuple(a))


class TestIntegerValidation:
    """The integer validator against the Fraction reference, problem list for problem list."""

    def test_every_string_to_ten_passes_in_both(self):
        for t in tstrings_to(10):
            a = discrepancies(t)
            assert validate_discrepancies(t, a) == fraction_validate_discrepancies(t, a) == []

    def test_corrupted_vectors_match_the_reference(self):
        rng = random.Random(7)
        strings = list(tstrings_to(8))
        seen = set()
        for _ in range(20_000):
            t, a = corrupted_case(rng, strings)
            problems = validate_discrepancies(t, a)
            assert problems == fraction_validate_discrepancies(t, a), (t, a)
            seen.update(p.split(":")[0].split(" = ")[0] for p in problems)
            seen.add(bool(problems))
        # the sample has passing vectors, and every check fires on some vector
        rows = {f"row {j} residual" for j in range(1, 9)}
        assert seen == {True, False, "length mismatch", "some a_j outside (-1, 0)",
                        "a_1 + a_ell", "denominator does not divide p**2", *rows}

    def test_builds_no_fraction_when_every_check_passes(self, monkeypatch):
        cases = [(t, discrepancies(t)) for t in tstrings_to(8)]
        monkeypatch.setattr(discrepancy, "Fraction", None)  # calling it would raise
        for t, a in cases:
            assert validate_discrepancies(t, a) == []


class TestAtlasRecord:
    """The integer record against the Fraction reference, on every string and on corrupted data."""

    def test_every_string_to_twelve_matches_the_reference(self):
        for t in tstrings_to(12):
            want = fraction_atlas_record(t.b)
            for given_as in (t.b, list(t.b), t):
                assert atlas_record(given_as) == want, given_as

    def test_builds_no_fraction_for_a_valid_record(self, monkeypatch):
        strings = list(tstrings_to(10))
        for module in (discrepancy, tstring):  # tstring_to_params builds none either
            monkeypatch.setattr(module, "Fraction", None)  # calling it would raise
        for t in strings:
            assert atlas_record(t)["det"] == tstring_to_params(t).p ** 2

    def test_two_continuant_sweeps_per_record(self, monkeypatch):
        sweep = tstring.continuants
        calls = []

        def counted(b):
            calls.append(b)
            return sweep(b)

        for module in (discrepancy, tstring):
            monkeypatch.setattr(module, "continuants", counted)
        for t in tstrings_to(8):
            calls.clear()
            atlas_record(t)
            assert calls == [t.b, t.b[::-1]]  # one forward sweep, then one backward

    @staticmethod
    def corrupted_numerators(rng, nums, p2):
        """(nums, p2) spoiled in one of several ways; some spoilings keep the vector valid."""
        nums = list(nums)
        kind = rng.choice(["nudge", "whole", "shift", "reverse", "scale", "denominator"])
        j = rng.randrange(len(nums))
        if kind == "nudge":  # off the vector by a small amount
            nums[j] += rng.choice([-1, 1]) * rng.randint(1, 3)
        elif kind == "whole":  # a_j moved by one, out of (-1, 0)
            nums[j] += rng.choice([-1, 1]) * p2
        elif kind == "shift":  # a multiple of the reduced denominator's step
            nums[j] += rng.choice([-2, 2]) * (p2 // math.gcd(p2, *nums))
        elif kind == "reverse":  # the mirror image's vector
            nums.reverse()
        elif kind == "scale":  # the same vector over twice the denominator: still valid
            nums, p2 = [2 * x for x in nums], 2 * p2
        else:  # a denominator that need not divide p**2
            p2 += rng.randint(1, 3)
        return tuple(nums), p2

    def test_corrupted_numerators_fail_with_the_reference_message(self, monkeypatch):
        rng = random.Random(11)
        strings = list(tstrings_to(8))
        kinds = ["some a_j outside (-1, 0)", "a_1 + a_ell", "denominator does not divide p**2",
                 *(f"row {j} residual" for j in range(1, 9))]
        outcomes = set()
        for _ in range(1_500):
            b = rng.choice(strings).b
            bad = self.corrupted_numerators(rng, _numerators(b)[0], _numerators(b)[1])
            with monkeypatch.context() as m:
                # discrepancies() reads _numerators, the record reads _numerators_of
                m.setattr(discrepancy, "_numerators", lambda _b: bad)
                m.setattr(discrepancy, "_numerators_of", lambda _prefix, _back: bad)
                try:
                    want = fraction_atlas_record(b)
                except AssertionError as exc:
                    with pytest.raises(AssertionError) as got:
                        atlas_record(b)
                    assert str(got.value) == str(exc), (b, bad)
                    outcomes.update(k for k in kinds if k in str(exc))
                else:
                    assert atlas_record(b) == want, (b, bad)
                    outcomes.add("valid")
        assert outcomes == {"valid", *kinds}  # every check fires on some vector

    def test_a_wrong_determinant_fails_with_the_reference_message(self, monkeypatch):
        sweep = tstring.continuants
        for wrong in (lambda det: 2 * det, lambda det: det + 1):
            for t in tstrings_to(5):
                with monkeypatch.context() as m:
                    for module in (discrepancy, helpers):
                        m.setattr(module, "chain_determinant",
                                  lambda b: wrong(chain_determinant(b)))
                    with pytest.raises(AssertionError) as want:
                        fraction_atlas_record(t)
                calls = []

                def forward_spoiled(b):
                    """The record's |det| is the last entry of its first, forward sweep."""
                    out = sweep(b)
                    if not calls:
                        out[-1] = abs(wrong((-1) ** len(b) * out[-1]))
                    calls.append(b)
                    return out

                with monkeypatch.context() as m:
                    m.setattr(discrepancy, "continuants", forward_spoiled)
                    with pytest.raises(AssertionError) as got:
                        atlas_record(t)
                assert calls == [t.b, t.b[::-1]]
                assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("b", [(3, 4), (2, 2), (4, 4), (5,), (2, 5, 3, 2), (), (1, 5), (4, 1)])
    def test_a_non_tstring_raises_the_reference_error(self, b):
        with pytest.raises(ValueError) as want:
            fraction_atlas_record(b)
        for record in (atlas_record, atlas_line):
            with pytest.raises(ValueError) as got:
                record(b)
            assert str(got.value) == str(want.value)


def reference_line(t):
    """The canonical atlas line as json writes it from the record."""
    return json.dumps(atlas_record(t), separators=(",", ":"))


class TestAtlasLine:
    """atlas_line against json.dumps of atlas_record, its reference."""

    def test_every_string_to_ten_matches_the_json_reference(self):
        for t in tstrings_to(10):
            want = reference_line(t)
            for given_as in (t.b, list(t.b), t):
                assert atlas_line(given_as) == want, given_as

    @pytest.mark.slow
    def test_every_string_to_sixteen_matches_the_json_reference(self):
        strings = tstrings_to(16)
        assert len(strings) == 2**16 - 1
        for t in strings:
            assert atlas_line(t.b) == reference_line(t.b), t.b

    @pytest.mark.parametrize("b, message", [
        ((2,), "not a T-string: eval_cf=2/1 has non-square numerator"),
        ((2, 5, 2), "not a T-string: denominator 9 is not pq-1 for p=4"),
        ((2, 2, 2), "need 0 < q < p, got (2, 2)"),
        ((3, 2, 2, 3), "p and q must be coprime, got (4, 2)"),
    ])
    def test_a_non_tstring_raises_what_the_record_raises(self, b, message):
        for record in (atlas_record, atlas_line):
            with pytest.raises(ValueError, match=re.escape(message)):
                record(b)

    def test_a_failed_check_raises_what_the_record_raises(self, monkeypatch):
        b = (3, 5, 2)
        nums, p2 = _numerators(b)
        monkeypatch.setattr(discrepancy, "_numerators_of", lambda _prefix, _back: (nums[::-1], p2))
        errors = []
        for record in (atlas_record, atlas_line):
            with pytest.raises(AssertionError) as got:
                record(b)
            errors.append(str(got.value))
        assert errors[0] == errors[1]
        assert "a_1 + a_ell" not in errors[0] and "row 1 residual" in errors[0]
