"""T-string generation, recognition, and parameter arithmetic."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import breadth_first_tstrings, tstrings_to
from wahlkit import (
    Recognition,
    TString,
    WahlParams,
    apply_L,
    apply_R,
    as_entries,
    checksum_ok,
    continuants,
    discrepancies,
    enumerate_tstrings,
    eval_cf,
    general_bound,
    hj_expand,
    is_tstring,
    iterated_blowdown_trace,
    tstring_to_params,
    wahl_tstring,
)
from wahlkit.tstring import _wahl_length

# Expansions of n/m as minus continued fractions, checked by hand.
HJ_EXPANSIONS = {
    (4, 1): (4,),
    (9, 2): (5, 2),
    (4, 3): (2, 2, 2),
    (25, 9): (3, 5, 2),
    (16, 3): (6, 2, 2),
    (16, 11): (2, 2, 6),
    (25, 14): (2, 5, 3),
}

# (p, q) -> resolution string, checked by hand against p^2/(pq-1).
WAHL_STRINGS = {
    (2, 1): (4,),
    (3, 1): (5, 2),
    (3, 2): (2, 5),
    (5, 2): (3, 5, 2),
    (5, 3): (2, 5, 3),
    (4, 1): (6, 2, 2),
    (4, 3): (2, 2, 6),
}

LENGTH_3_STRINGS = {(2, 2, 6), (2, 5, 3), (3, 5, 2), (6, 2, 2)}
LENGTH_4_STRINGS = {
    (2, 2, 2, 7),
    (3, 2, 6, 2),
    (2, 2, 5, 4),
    (3, 5, 3, 2),
    (2, 3, 5, 3),
    (4, 5, 2, 2),
    (2, 6, 2, 3),
    (7, 2, 2, 2),
}


def _level_entries(levels, ell):
    return {as_entries(t) for t in levels[ell]}


class IntEntry(int):
    """An int subclass: as_entries must hand back plain ints, not these."""


class TestAsEntries:
    def test_a_tuple_of_exact_ints_is_returned_as_it_is(self):
        for t in [(), (4,), (2, 5), (3, 5, 2), tuple(range(2, 40))]:
            assert as_entries(t) is t

    def test_every_other_input_is_coerced_entry_by_entry(self):
        for raw, expected in [
            ((IntEntry(3), 5, 2), (3, 5, 2)),
            ((2, 5, IntEntry(2)), (2, 5, 2)),
            ([2, 5], (2, 5)),
            ((x for x in (3, 5, 2)), (3, 5, 2)),
            ((2.0, 5), (2, 5)),
            ((3, 5, 2.0), (3, 5, 2)),
        ]:
            out = as_entries(raw)
            assert out == expected and type(out) is tuple
            assert all(type(x) is int for x in out)

    def test_a_tstring_gives_its_entries(self):
        t = TString((3, 5, 2))
        assert as_entries(t) is t.b

    @pytest.mark.parametrize("raw, shown", [
        ((3.9, 5, 2), "3.9"),
        ([3.5, 5.2, 2], "3.5"),
        ((3, Fraction(11, 2), 2), "Fraction(11, 2)"),
        ((x for x in (3, 5, 2.5)), "2.5"),
        ((float("inf"), 5, 2), "inf"),
        ((3, float("-inf")), "-inf"),
        ((float("nan"),), "nan"),
        (("4",), "'4'"),
        ((3, b"5", 2), "b'5'"),
        ((bytearray(b"4"),), "bytearray(b'4')"),
    ])
    def test_a_lossy_entry_raises_naming_it(self, raw, shown):
        with pytest.raises(ValueError, match=re.escape(f"entry {shown} is not an integer")):
            as_entries(raw)

    @pytest.mark.parametrize("call, raw, shown", [
        (as_entries, (True, 3), "True"),
        (as_entries, (2, False), "False"),
        (TString, (True, 3), "True"),
        (general_bound, True, "True"),
        (lambda x: WahlParams(x, 1), True, "True"),
    ])
    def test_a_bool_is_refused_naming_it(self, call, raw, shown):
        # config_from_json refuses a bool for an integer field; so does every reader here
        with pytest.raises(ValueError, match=re.escape(f"entry {shown} is a bool, not an integer")):
            call(raw)

    @pytest.mark.parametrize("call, raw", [
        (as_entries, "352"),
        (as_entries, b"\x04"),
        (as_entries, bytearray(b"\x04")),
        (TString, "352"),
        (tstring_to_params, "352"),
        (discrepancies, "352"),
    ])
    def test_a_str_or_bytes_sequence_is_refused(self, call, raw):
        # read one character at a time, "352" would pass for (3, 5, 2)
        with pytest.raises(ValueError, match=re.escape(f"not the {type(raw).__name__} {raw!r}")):
            call(raw)

    @pytest.mark.parametrize("call, raw", [
        (discrepancies, [3.9, 5, 2]),
        (is_tstring, [3.5, 5.2, 2]),
        (TString, (3.7, 5, 2)),
        (TString, ("4",)),
        (lambda b: iterated_blowdown_trace(3, 2, b, 0), [-2, -1, -2.5]),
        (as_entries, [None, 5, 2]),
    ])
    def test_callers_refuse_a_lossy_entry(self, call, raw):
        with pytest.raises(ValueError, match="is not an integer"):
            call(raw)


class TestHJExpansion:
    @pytest.mark.parametrize("nm,expected", sorted(HJ_EXPANSIONS.items()))
    def test_known_expansions(self, nm, expected):
        assert hj_expand(*nm) == expected

    def test_eval_cf_inverts_expansion(self):
        for (n, m), b in HJ_EXPANSIONS.items():
            assert eval_cf(b) == Fraction(n, m)

    def test_continuants_are_the_numerators_of_the_prefixes(self):
        assert continuants(()) == [1]
        assert continuants((3, 5, 2)) == [1, 3, 14, 25]
        for (n, m), b in HJ_EXPANSIONS.items():
            assert continuants(b)[-1] == continuants(b[::-1])[-1] == n

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hj_expand(4, 0)
        with pytest.raises(ValueError):
            hj_expand(4, 4)
        with pytest.raises(ValueError):
            hj_expand(9, 6)

    @given(st.integers(2, 400))
    def test_every_ratio_expands_with_entries_at_least_two(self, n):
        for m in range(1, n):
            if math.gcd(n, m) == 1:
                b = hj_expand(n, m)
                assert all(x >= 2 for x in b)
                assert eval_cf(b) == Fraction(n, m)
                break


class TestWahlStrings:
    @pytest.mark.parametrize("pq,expected", sorted(WAHL_STRINGS.items()))
    def test_known_strings(self, pq, expected):
        assert as_entries(wahl_tstring(*pq)) == expected

    @pytest.mark.parametrize("pq,expected", sorted(WAHL_STRINGS.items()))
    def test_params_roundtrip(self, pq, expected):
        params = tstring_to_params(expected)
        assert (params.p, params.q) == pq

    def test_rejects_invalid_params(self):
        with pytest.raises(ValueError):
            wahl_tstring(4, 2)  # not coprime
        with pytest.raises(ValueError):
            wahl_tstring(3, 3)  # q must be < p
        with pytest.raises(ValueError):
            wahl_tstring(2, 0)

    @pytest.mark.parametrize("p, q, shown", [
        (5, 2.5, "2.5"),
        (5.5, 2, "5.5"),
        (5, float("inf"), "inf"),
    ])
    def test_a_lossy_parameter_raises_naming_it(self, p, q, shown):
        with pytest.raises(ValueError, match=re.escape(f"entry {shown} is not an integer")):
            wahl_tstring(p, q)

    @pytest.mark.parametrize("p, q", [(5, 2.0), (5.0, 2), (5, Fraction(2))])
    def test_an_exact_parameter_is_read_as_its_integer(self, p, q):
        params = WahlParams(p, q)
        assert params == WahlParams(5, 2)
        assert (type(params.p), type(params.q)) == (int, int)

    @pytest.mark.parametrize("p, q, shown", [
        (5, 2.5, "2.5"),
        (5.5, 2, "5.5"),
        (5, float("nan"), "nan"),
        ("five", 2, "'five'"),
        (5, "2.0", "'2.0'"),
        ("5", 2, "'5'"),
        ("3", "1", "'3'"),
    ])
    def test_a_lossy_or_non_numeric_field_of_wahl_params_raises_naming_it(self, p, q, shown):
        with pytest.raises(ValueError, match=re.escape(f"entry {shown} is not an integer")):
            WahlParams(p, q)

    def test_reversal_swaps_q_and_p_minus_q(self):
        for (p, q), b in WAHL_STRINGS.items():
            assert as_entries(wahl_tstring(p, p - q)) == b[::-1]
            assert WahlParams(p, q).reversed() == WahlParams(p, p - q)


class TestChecksum:
    def test_holds_on_known_strings(self):
        for b in WAHL_STRINGS.values():
            assert checksum_ok(b)

    def test_is_not_sufficient(self):
        # [3, 4] has sum(b_j - 2) = 3 = ell + 1 yet is not a T-string.
        assert checksum_ok((3, 4))
        assert not is_tstring((3, 4)).accepted
        with pytest.raises(ValueError):
            tstring_to_params((3, 4))

    def test_tstring_constructor_enforces_it(self):
        with pytest.raises(ValueError):
            TString((2, 2))
        with pytest.raises(ValueError):
            TString(())
        with pytest.raises(ValueError):
            TString((4, 1))


class TestEnumeration:
    def test_level_sizes_are_powers_of_two(self):
        levels = enumerate_tstrings(8)
        for ell in range(1, 9):
            assert len(levels[ell]) == 2 ** (ell - 1)
            assert len(_level_entries(levels, ell)) == 2 ** (ell - 1)

    def test_small_levels_exactly(self):
        levels = enumerate_tstrings(4)
        assert _level_entries(levels, 1) == {(4,)}
        assert _level_entries(levels, 2) == {(2, 5), (5, 2)}
        assert _level_entries(levels, 3) == LENGTH_3_STRINGS
        assert _level_entries(levels, 4) == LENGTH_4_STRINGS

    def test_matches_brute_force_parameter_sweep(self):
        # Independent generation: expand p^2/(pq-1) for every coprime pair
        # with p small enough to cover all strings of length <= 6, and
        # compare the bucketed results with the L/R generation tree.
        by_length = {ell: set() for ell in range(1, 7)}
        for p in range(2, 40):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                b = hj_expand(p * p, p * q - 1)
                if len(b) <= 6:
                    by_length[len(b)].add(b)
        levels = enumerate_tstrings(6)
        for ell in range(1, 7):
            assert _level_entries(levels, ell) == by_length[ell]
        # the sweep cap of 40 really covers everything: p <= 2^ell
        assert max(tstring_to_params(t).p for t in levels[6]) < 40

    def test_levels_are_keyed_by_length_shortest_first(self):
        levels = enumerate_tstrings(5)
        assert list(levels) == [1, 2, 3, 4, 5]
        assert all(t.ell == ell for ell, level in levels.items() for t in level)
        assert [len(level) for level in levels.values()] == [2 ** (ell - 1) for ell in levels]

    def test_levels_are_the_breadth_first_moves_to_twelve(self):
        # each parent's L-child, then its R-child, as TStrings with the moves' entries
        levels = enumerate_tstrings(12)
        assert levels == breadth_first_tstrings(12)
        assert all(type(t) is TString for level in levels.values() for t in level)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_tstrings(0)
        with pytest.raises(ValueError):
            enumerate_tstrings(17)  # above the default cap
        assert len(enumerate_tstrings(17, cap=17)[17]) == 2**16


class TestMoves:
    def test_left_move(self):
        assert as_entries(apply_L((4,))) == (2, 5)
        assert as_entries(apply_L((3, 5, 2))) == (2, 3, 5, 3)

    def test_right_move(self):
        assert as_entries(apply_R((4,))) == (5, 2)
        assert as_entries(apply_R((2, 5))) == (3, 5, 2)

    def test_parameter_actions(self):
        # L acts as (p, q) -> (2p - q, p), R as (p, q) -> (p + q, q)
        assert tstring_to_params(apply_L(wahl_tstring(2, 1))) == WahlParams(3, 2)
        assert tstring_to_params(apply_R(wahl_tstring(2, 1))) == WahlParams(3, 1)
        assert tstring_to_params(apply_L(wahl_tstring(5, 2))) == WahlParams(8, 5)
        assert tstring_to_params(apply_R(wahl_tstring(5, 2))) == WahlParams(7, 2)

    @given(st.lists(st.booleans(), max_size=9))
    def test_moves_track_parameters(self, word):
        t, params = TString((4,)), WahlParams(2, 1)
        for left in word:
            t = apply_L(t) if left else apply_R(t)
            p, q = params.p, params.q
            params = WahlParams(2 * p - q, p) if left else WahlParams(p + q, q)
        assert tstring_to_params(t) == params
        assert as_entries(wahl_tstring(params)) == as_entries(t)


class TestRecognition:
    def test_base_case(self):
        rec = is_tstring((4,))
        assert rec.accepted and rec.word == ""

    def test_word_is_outermost_first(self):
        # [3,5,2] = R(L([4])): peel R first, then L.
        rec = is_tstring((3, 5, 2))
        assert rec.accepted and rec.word == "RL"
        assert as_entries(apply_R(apply_L((4,)))) == (3, 5, 2)

    def test_rejections_carry_reasons(self):
        assert not is_tstring(()).accepted
        assert not is_tstring((3, 1)).accepted
        assert "checksum" in is_tstring((2, 2)).reason
        assert "checksum" not in is_tstring((3, 4)).reason

    def test_a_verdict_is_accepted_exactly_when_it_has_no_reason(self):
        assert is_tstring((3, 4)) == Recognition(reason="stuck at [3, 4]: no leading or trailing 2")
        assert is_tstring((3, 5, 2)) == Recognition("RL")
        assert Recognition().accepted and not Recognition(reason="").accepted
        for seq in [(), (1,), (2, 2), (3, 4), (2, 5, 2), (4,), (2, 5), (3, 5, 2)]:
            rec = is_tstring(seq)
            assert rec.accepted == (rec.reason is None)
            assert rec.accepted or rec.word == ""

    def test_accepts_every_generated_string(self):
        for t in tstrings_to(7):
            rec = is_tstring(t)
            assert rec.accepted
            assert len(rec.word) == t.ell - 1

    @given(st.lists(st.booleans(), max_size=9))
    def test_word_rebuilds_input(self, word):
        t = TString((4,))
        for left in word:
            t = apply_L(t) if left else apply_R(t)
        rec = is_tstring(t)
        assert rec.accepted
        rebuilt = TString((4,))
        for letter in reversed(rec.word):
            rebuilt = apply_L(rebuilt) if letter == "L" else apply_R(rebuilt)
        assert as_entries(rebuilt) == as_entries(t)


class TestParameterRecovery:
    def test_all_small_strings_roundtrip(self):
        for t in tstrings_to(6):
            params = tstring_to_params(t)
            assert as_entries(wahl_tstring(params)) == as_entries(t)
            assert eval_cf(t) == Fraction(params.p**2, params.p * params.q - 1)

    def test_p_bounded_by_power_of_two(self):
        for t in tstrings_to(6):
            assert tstring_to_params(t).p <= 2**t.ell

    @settings(max_examples=40)
    @given(st.integers(2, 60), st.integers(1, 59))
    def test_random_params_roundtrip(self, p, q):
        if q >= p or math.gcd(p, q) != 1:
            return
        t = wahl_tstring(p, q)
        assert tstring_to_params(t) == WahlParams(p, q)
        assert checksum_ok(t)
        assert is_tstring(t).accepted

    @given(st.lists(st.integers(2, 9), min_size=1, max_size=12))
    def test_every_chain_of_entries_from_two_up_is_the_expansion_of_its_continuants(self, b):
        # the minus continued fraction with every entry >= 2 is unique, so
        # tstring_to_params needs no re-expansion to confirm its input
        b = tuple(b)
        assert hj_expand(continuants(b)[-1], continuants(b[:0:-1])[-1]) == b

    # each rejection tstring_to_params can still reach, with its message
    REJECTIONS = [
        ((2,), "not a T-string: eval_cf=2/1 has non-square numerator"),
        ((2, 5, 2), "not a T-string: denominator 9 is not pq-1 for p=4"),
        ((2, 2, 2), "need 0 < q < p, got (2, 2)"),
        ((3, 2, 2, 3), "p and q must be coprime, got (4, 2)"),
    ]

    @pytest.mark.parametrize("b, message", REJECTIONS)
    def test_a_non_tstring_is_refused_with_its_reason(self, b, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            tstring_to_params(b)


class TestWahlLength:
    def test_is_the_length_of_every_string_to_sixty(self):
        pairs = [(p, q) for p in range(2, 61) for q in range(1, p) if math.gcd(p, q) == 1]
        assert len(pairs) == 1101
        for p, q in pairs:
            assert _wahl_length(p, q) == len(wahl_tstring(p, q)), (p, q)

    def test_reads_a_huge_string_without_building_it(self):
        p = 10**21
        assert _wahl_length(p, 1) == _wahl_length(p, p - 1) == p - 1

