"""The inequality chain bounding chain length by K^2, and surface families."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wahlkit import (
    general_bound,
    inequality_chain,
    length_feasible,
    max_p_B_p1,
    special_bound,
    surface_examples,
)
from wahlkit.bounds import DEGREE_D_IN_P3, HORIKAWA


class TestHeadlineBounds:
    def test_general(self):
        assert general_bound(1) == 11
        assert general_bound(2) == 15
        assert general_bound(5) == 27

    def test_special(self):
        assert special_bound(1) == 3
        assert special_bound(5) == 11

    def test_max_p_budget(self):
        assert max_p_B_p1(5) == 12
        assert max_p_B_p1(1) == 4

    def test_rejects_nonpositive_ksq(self):
        for fn in (general_bound, special_bound, max_p_B_p1):
            with pytest.raises(ValueError):
                fn(0)

    @pytest.mark.parametrize("ksq", [0, -1])
    def test_the_chain_refuses_a_ksq_general_bound_refuses(self, ksq):
        message = re.escape(f"need ksq >= 1 (general type), got {ksq}")
        for call in (general_bound, lambda k: inequality_chain(k, 3, 0),
                     lambda k: length_feasible(k, 1)):
            with pytest.raises(ValueError, match=message):
                call(ksq)


@pytest.mark.parametrize("call, named", [
    (lambda: general_bound(5.5), "5.5"),
    (lambda: special_bound(2.5), "2.5"),
    (lambda: max_p_B_p1(2.5), "2.5"),
    (lambda: inequality_chain(5, 10, None), "None"),
    (lambda: inequality_chain(5, 10.5, 3), "10.5"),
    (lambda: inequality_chain(4.5, 10, 3), "4.5"),
    (lambda: length_feasible(5, 5.5), "5.5"),
    (lambda: length_feasible(5.5, 5), "5.5"),
    (lambda: surface_examples(HORIKAWA, 3.5), "3.5"),
    (lambda: surface_examples(DEGREE_D_IN_P3, 5.5), "5.5"),
    (lambda: general_bound("5"), "'5'"),
    (lambda: inequality_chain(5, b"10", 3), "b'10'"),
])
def test_a_lossy_input_raises_naming_it(call, named):
    with pytest.raises(ValueError, match=f"entry {re.escape(named)} is not an integer"):
        call()


@pytest.mark.parametrize("call", [
    lambda: general_bound(True),
    lambda: inequality_chain(5, 10, True),
    lambda: length_feasible(True, 5),
])
def test_a_bool_input_is_refused(call):
    with pytest.raises(ValueError, match="entry True is a bool, not an integer"):
        call()


def test_an_exact_non_int_input_is_read_as_its_int():
    assert general_bound(5.0) == 27 and type(general_bound(5.0)) is int
    assert surface_examples(HORIKAWA, 3.0) == surface_examples(HORIKAWA, 3)
    assert inequality_chain(5.0, 10, 1.0) == inequality_chain(5, 10, 1)
    assert length_feasible(5, 27.0) and not length_feasible(5, 28.0)


class TestInequalityChain:
    def test_tight_at_the_general_bound(self):
        rep = inequality_chain(5, 27, 16)
        assert rep.k_min == 22
        assert rep.rana_budget == 28  # == ell + 1, exactly saturated
        assert rep.p_max == Fraction(32, 2)
        assert rep.failures == ()
        assert rep.feasible

    def test_infeasible_past_the_bound(self):
        assert not length_feasible(5, 28)
        for p in range(0, 17):
            assert inequality_chain(5, 28, p).failures == ("budget",)
        # p = 17 pays the budget but breaks p <= (ell + 5) / 2 = 33/2
        assert inequality_chain(5, 28, 17).failures == ("p",)

    def test_feasible_at_the_bound(self):
        assert length_feasible(5, 27)
        assert length_feasible(1, 11)
        assert not length_feasible(1, 12)

    def test_budget_arithmetic(self):
        rep = inequality_chain(2, 10, 3)
        assert rep.k_min == 10 - 2
        assert rep.rana_budget == 10 + 1
        # spend: two budget units per good curve, one per bad curve
        assert ("budget" not in rep.failures) == (2 * (rep.k_min - 3) + 3 <= rep.rana_budget)
        assert "budget" in rep.failures

    @given(st.integers(1, 20))
    def test_bound_is_exactly_the_feasibility_frontier(self, ksq):
        assert length_feasible(ksq, general_bound(ksq))
        assert not length_feasible(ksq, general_bound(ksq) + 1)

    @given(st.integers(1, 15), st.integers(0, 80))
    def test_feasibility_is_monotone(self, ksq, ell):
        if length_feasible(ksq, ell):
            assert length_feasible(ksq + 1, ell)
            if ell > 0:
                assert length_feasible(ksq, ell - 1)

    @given(st.integers(1, 15), st.integers(0, 80), st.integers(0, 45))
    def test_report_internal_consistency(self, ksq, ell, p):
        rep = inequality_chain(ksq, ell, p)
        assert rep.feasible == (rep.failures == ())
        assert set(rep.failures) <= {"budget", "p"}
        assert rep.bound_general == 4 * ksq + 7
        assert ("p" not in rep.failures) == (p <= Fraction(ell + 5, 2))

    @given(st.integers(1, 14), st.integers(0, 79), st.integers(0, 59))
    def test_the_budget_is_the_combined_length_inequality(self, ksq, ell, p):
        # 2(k_min - p) + p <= ell + 1 with k_min = ell - ksq rearranges to
        # ell <= 2 ksq + p + 1, so one check stands for both
        rep = inequality_chain(ksq, ell, p)
        assert ("budget" not in rep.failures) == (ell <= 2 * ksq + p + 1)


class TestSurfaceExamples:
    def test_degree_five(self):
        ex = surface_examples(DEGREE_D_IN_P3, 5)
        assert (ex.ksq, ex.p_g) == (5, 4)
        assert ex.bound_general == 27

    def test_degree_six(self):
        ex = surface_examples(DEGREE_D_IN_P3, 6)
        assert ex.ksq == 6 * 4  # d(d-4)^2
        assert ex.p_g == 6 * 11 // 6 - 1

    def test_horikawa(self):
        ex = surface_examples(HORIKAWA, 3)
        assert (ex.ksq, ex.b_plus, ex.ell) == (6, 5, 2)

    def test_horikawa_lengths_sit_far_below_the_bound(self):
        for n in range(2, 51):
            ex = surface_examples(HORIKAWA, n)
            assert ex.ksq == 4 * n - 6
            assert 4 * ex.ell == ex.ksq + 2
            assert ex.ell <= ex.bound_general
            assert ex.ell <= ex.bound_special

    def test_rejects_small_parameters(self):
        with pytest.raises(ValueError):
            surface_examples(DEGREE_D_IN_P3, 4)
        with pytest.raises(ValueError):
            surface_examples(HORIKAWA, 1)
        with pytest.raises(ValueError):
            surface_examples("nonsense", 5)
