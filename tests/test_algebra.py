import json
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from ppgf import algebra
from ppgf.algebra import (DenominatorCollapse, MonomialOverflow, ParseError,
                          Polynomial, RationalFunction, dense_div_one_minus,
                          dense_eval, dense_mul, dense_mul_one_minus,
                          dense_normalize, dense_product, dense_sum,
                          dense_to_rf, exact_div, keeps_normal_form, mono,
                          mono_deg, mono_mul, mono_subst, mono_var, one_minus,
                          parse_polynomial, parse_rational, rf_eq, rf_sum)

P = parse_polynomial
R = parse_rational


# -- polynomial arithmetic ---------------------------------------------------

def test_poly_add_cancels():
    assert P("1 + x1") + P("-x1") == P("1")


def test_poly_add_identity():
    p = P("1 - x1*x2 + 3*x3")
    assert Polynomial.zero() + p == p


def test_poly_add_diamond_numerator():
    assert P("1 - x1*x2") + P("x1*x2 - x1^2*x2*x3") == P("1 - x1^2*x2*x3")


def test_poly_mul_difference_of_squares():
    assert P("1-q") * P("1+q") == P("1 - q^2")


def test_poly_mul_identity():
    p = P("2 - 5*x1^3*x2")
    assert p * Polynomial.one() == p


def test_poly_mul_chain_factors():
    assert P("1-x1") * P("1-x1*x2") == P("1 - x1 - x1*x2 + x1^2*x2")


# -- exact division by (1 - m) -----------------------------------------------

def test_exact_div_difference_of_powers():
    q = exact_div(P("1 - x2^2"), mono_var("x2"))
    assert q == P("1 + x2")


def test_exact_div_indivisible():
    assert exact_div(P("1 - x1^2*x2*x3"), mono_var("x1")) is None


def test_exact_div_multivariate_factor():
    # coefficient sum 0 in both cases, so only the sums along the chains
    # of m can tell them apart
    m = mono({"x1": 2, "x2": 1})
    assert exact_div(P("1 - x1^4*x2^2"), m) == P("1 + x1^2*x2")
    assert exact_div(P("x1 - x2"), m) is None


def test_exact_div_zero():
    assert exact_div(Polynomial.zero(), mono_var("x1")) == Polynomial.zero()


def test_exact_div_one_variable_zero_sum_inexact():
    # coefficient sum 0, but a residue class of the exponent does not sum to 0
    assert exact_div(P("1 - q^3"), mono_var("q", 2)) is None
    assert exact_div(P("x1 - x1^2*x2"), mono_var("x2", 2)) is None


def test_exact_div_one_variable_with_free_part():
    p = P("(x1 + x3)*(1 - x2^3)")
    assert exact_div(p, mono_var("x2", 3)) == P("x1 + x3")


def _pairs(m):
    """A monomial as its sorted tuple of (name, exponent) pairs."""
    return next(iter(Polynomial.term(m).terms))


def _split(m, v):
    """(the rest of monomial m without v, the exponent of v in m)."""
    rest = tuple((u, e) for u, e in m if u != v)
    return rest, sum(e for u, e in m if u == v)


def _join(rest, v, e):
    return tuple(sorted(rest + ((v, e),))) if e else rest


def _long_div_one_minus(terms, v, k):
    """(quotient, remainder) of a {monomial: coefficient} dict by 1 - v^k,
    from the highest power of v down, as polynomials in v."""
    rem = dict(terms)
    quot = {}
    while True:
        top = max((_split(m, v)[1] for m in rem), default=-1)
        if top < k:
            return quot, rem
        for m in [m for m in rem if _split(m, v)[1] == top]:
            c = rem.pop(m)
            rest, _ = _split(m, v)
            low = _join(rest, v, top - k)
            quot[low] = quot.get(low, 0) - c
            rem[low] = rem.get(low, 0) + c
            if not rem[low]:
                del rem[low]


@settings(max_examples=300)
@given(st.data())
def test_exact_div_one_variable_matches_long_division(data):
    v = data.draw(st.sampled_from(VARS))
    k = data.draw(st.integers(min_value=1, max_value=5))
    m = mono_var(v, k)
    p = data.draw(polynomials())
    if data.draw(st.booleans()):
        p = p * one_minus(m)
        # c*(v^i - v^j)*rest keeps the coefficient sum 0; it stays
        # divisible only when i and j share a residue class mod k
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            rest, _ = _split(_pairs(data.draw(monomials())), v)
            i, j = data.draw(st.lists(st.integers(min_value=0, max_value=7),
                                      min_size=2, max_size=2))
            c = data.draw(st.integers(min_value=-3, max_value=3))
            p = (p + Polynomial.term(_join(rest, v, i), c)
                 - Polynomial.term(_join(rest, v, j), c))
    quot, rem = _long_div_one_minus(p.terms, v, k)
    got = exact_div(p, m)
    if rem:
        assert got is None
    else:
        assert got is not None and got.terms == quot


@settings(max_examples=100)
@given(st.data())
def test_exact_div_soundness(data):
    p = data.draw(polynomials())
    m = data.draw(monomials(nonempty=True))
    q = exact_div(p, m)
    if q is not None:
        assert q * one_minus(m) == p
    # products are always divisible by construction
    prod = p * one_minus(m)
    q2 = exact_div(prod, m)
    assert q2 == p
    # so are c*(r - r*s) when s is a power of m, and no other zero-sum
    # perturbation is: (1 - m) divides (1 - s) only for s = m^k, and a
    # drawn s, of exponents at most 3, is at most m^3
    powers = [mono()]
    for _ in range(3):
        powers.append(mono_mul(powers[-1], m))
    r = data.draw(monomials())
    s = data.draw(st.sampled_from(powers) | monomials())
    c = data.draw(st.integers(min_value=1, max_value=4))
    got = exact_div(prod + Polynomial.term(r, c)
                    - Polynomial.term(mono_mul(r, s), c), m)
    if s in powers:
        k = powers.index(s)
        assert got == sum((Polynomial.term(mono_mul(r, mk), c)
                           for mk in powers[:k]), p)
    else:
        assert got is None


# -- substitution ------------------------------------------------------------

def chain3():
    return R("1/((1-x1)(1-x1*x2)(1-x1*x2*x3))")


def test_substitute_g_term():
    f = chain3().substitute({"x2": mono_var("x3"),
                             "x3": mono({"x2": 1, "x4": 1})})
    assert f == R("1/((1-x1)(1-x1*x3)(1-x1*x2*x3*x4))")


def test_substitute_identity():
    f = chain3()
    assert f.substitute({}) == f


def test_substitute_h_term():
    # chain on elements 1 < 3 < 4, bottom variable multiplied by x2
    f = R("1/((1-x1)(1-x1*x3)(1-x1*x3*x4))")
    f = f.substitute({"x1": mono({"x1": 1, "x2": 1})})
    assert f == R("1/((1-x1*x2)(1-x1*x2*x3)(1-x1*x2*x3*x4))")


def test_substitute_collapse_raises():
    with pytest.raises(DenominatorCollapse):
        unnormalized(Polynomial.one(), (mono_var("x1"),)).substitute(
            {"x1": mono()})


@settings(max_examples=60)
@given(st.data())
def test_substitution_composes(data):
    f = data.draw(rationals())
    s1 = data.draw(substitutions())
    s2 = data.draw(substitutions())
    from ppgf.algebra import mono_subst
    composed = {v: mono_subst(m, s2) for v, m in s1.items()}
    for v, m in s2.items():
        composed.setdefault(v, m)
    try:
        lhs = f.substitute(s1).substitute(s2)
        rhs = f.substitute(composed)
    except DenominatorCollapse:
        return
    assert rf_eq(lhs, rhs)


@settings(max_examples=60)
@given(st.data())
def test_substitution_distributes_over_sum(data):
    a = data.draw(rationals())
    b = data.draw(rationals())
    s = data.draw(substitutions())
    try:
        lhs = (a + b).substitute(s)
        rhs = a.substitute(s) + b.substitute(s)
    except DenominatorCollapse:
        return
    assert rf_eq(lhs, rhs)


# -- rational sums -----------------------------------------------------------

def test_rf_add_zero():
    f = R("(1+q)/((1-q^2)(1-q^3))")
    assert rf_eq(f + RationalFunction.zero(), f)


def test_rf_add_telescopes():
    a = R("1/(1-x1)")
    b = RationalFunction(P("-x1"), (mono_var("x1"),))
    assert (a + b) == RationalFunction.one()


def test_rf_add_diamond_combination():
    g = R("1/((1-x1)(1-x1*x3)(1-x1*x2*x3*x4))")
    h = R("x2/((1-x1*x2)(1-x1*x2*x3)(1-x1*x2*x3*x4))")
    total = (g - h).over(mono_var("x2"))
    assert total == R("(1-x1^2*x2*x3)/"
                      "((1-x1)(1-x1*x2)(1-x1*x3)(1-x1*x2*x3)(1-x1*x2*x3*x4))")


def test_rf_scale_by_one():
    f = R("1/((1-x2)(1-x1*x2))")
    assert f * Polynomial.one() == f


def test_rf_scale_by_signed_monomial():
    f = R("1/(1-x2)")
    assert f * Polynomial.term(mono_var("x2"), -1) == R("(-x2)/(1-x2)")


def test_rf_scale_monomial_product():
    f = R("1/((1-x1)(1-x2))")
    scaled = f * Polynomial.term(mono({"x2": 1, "x3": 1}))
    assert scaled.num == P("x2*x3")
    assert scaled.den == f.den


# -- q-specialization --------------------------------------------------------

def to_q(f):
    """f with every variable sent to q."""
    return f.substitute({v: mono_var("q") for v in f.variables()})


def test_specialize_q_chain():
    assert to_q(chain3()) == R("1/((1-q)(1-q^2)(1-q^3))")


def test_specialize_q_diamond_matches_pochhammer():
    f_d = R("(1-x1^2*x2*x3)/"
            "((1-x1)(1-x1*x2)(1-x1*x3)(1-x1*x2*x3)(1-x1*x2*x3*x4))")
    lhs = to_q(f_d)
    rhs = R("(1+q^2)/((1-q)(1-q^2)(1-q^3)(1-q^4))")
    assert rf_eq(lhs, rhs)


# -- series ------------------------------------------------------------------

def test_series_geometric():
    assert R("1/(1-q)").series(3) == P("1 + q + q^2 + q^3")


def test_series_constant():
    assert RationalFunction.one().series(7) == P("1")


def test_series_diamond_q():
    f = R("(1+q^2)/((1-q)(1-q^2)(1-q^3)(1-q^4))")
    assert f.series(3) == P("1 + q + 3*q^2 + 4*q^3")


def _series_by_long_division(f, bound):
    """Independent series oracle: expand the denominator fully and divide
    layer by layer in total degree."""
    den = Polynomial.one()
    for m in f.den:
        den = den * one_minus(m)
    num = f.num
    series = Polynomial.zero()
    for d in range(bound + 1):
        layer = {m: c for m, c in num.terms.items()
                 if sum(e for _, e in m) == d}
        residual = Polynomial(layer)
        prod = series * den
        residual = residual - Polynomial(
            {m: c for m, c in prod.terms.items()
             if sum(e for _, e in m) == d})
        # den has constant term 1, so the layer itself is the coefficient
        series = series + residual
    return series


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_series_agrees_with_long_division(data):
    f = data.draw(rationals())
    bound = data.draw(st.integers(min_value=0, max_value=8))
    assert f.series(bound) == _series_by_long_division(f, bound)


@st.composite
def repeated_factor_quotients(draw):
    """(num, den) with den's factors repeated up to three times and num
    a polynomial times some of them, so that num / den is not reduced
    and the running sums meet coefficients that cancel."""
    den = []
    for m in draw(st.lists(monomials(nonempty=True), min_size=1, max_size=3)):
        den += [m] * draw(st.integers(min_value=1, max_value=3))
    num = draw(polynomials())
    for m in den:
        if draw(st.booleans()):
            num = num * one_minus(m)
    return num, tuple(sorted(den))


@settings(max_examples=30, deadline=None)
@given(repeated_factor_quotients(), st.integers(min_value=0, max_value=12))
def test_series_with_repeated_factors_agrees_with_long_division(quotient, bound):
    num, den = quotient
    f = algebra._normal(num, den)
    expected = _series_by_long_division(f, bound)
    assert f.series(bound) == expected
    assert RationalFunction(num, den).series(bound) == expected


def test_series_past_the_degree_field_raises():
    f = R("1/(1-q)")
    assert f.series(3) == P("1 + q + q^2 + q^3")
    with pytest.raises(MonomialOverflow):
        f.series(algebra._LIMIT)
    # with no factor left the series is the numerator, at any bound
    assert R("1 + q").series(algebra._LIMIT) == P("1 + q")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_specialize_q_commutes_with_series(data):
    f = data.draw(rationals())
    bound = data.draw(st.integers(min_value=0, max_value=8))
    lhs = to_q(f).series(bound)
    p = f.series(bound)
    rhs = p.substitute({v: mono_var("q") for v in p.variables()})
    assert lhs == rhs


# -- equality ----------------------------------------------------------------

def test_rf_eq_normal_form():
    f = RationalFunction(P("1 - x1"), (mono_var("x1"), mono_var("x2")))
    g = R("1/(1-x2)")
    assert f == g and rf_eq(f, g)


def test_rf_eq_shared_polynomial_factor():
    assert rf_eq(R("1/(1-q)"), R("(1+q)/(1-q^2)"))


def test_rf_eq_distinguishes():
    assert not rf_eq(R("1/(1-q)"), R("1/(1-q^2)"))


# -- normal form -------------------------------------------------------------

def test_normalize_idempotent():
    f = RationalFunction(P("1 - x1^2"), (mono_var("x1"), mono_var("x2")))
    again = RationalFunction(f.num, f.den)
    assert f == again
    assert f.num == P("1 + x1") and f.den == (mono_var("x2"),)


def test_zero_has_empty_denominator():
    f = RationalFunction(Polynomial.zero(), (mono_var("x1"),))
    assert f.is_zero() and f.den == ()


def recording_exact_div(monkeypatch):
    """Patch exact_div to record the factor of every attempt."""
    tried = []
    div = algebra.exact_div
    monkeypatch.setattr(algebra, "exact_div",
                        lambda p, m: tried.append(m) or div(p, m))
    return tried


def test_normalize_skips_copies_of_a_failed_factor(monkeypatch):
    tried = recording_exact_div(monkeypatch)
    x1, x2 = mono_var("x1"), mono_var("x2")
    f = RationalFunction(P("(1 - x2)*(x1 - x2)"), (x1, x1, x1, x2, x2))
    # den's order follows interning, so x1's copies may come first or last
    assert f.num == P("x1 - x2")
    assert Counter(f.den) == Counter({x1: 3, x2: 1})
    assert Counter(tried) == Counter({x1: 1, x2: 2})


def test_over_tries_only_the_new_factor(monkeypatch):
    f = R("(1 - x1*x2)/((1-x1)(1-x2))")
    tried = recording_exact_div(monkeypatch)
    assert f.over(mono({"x1": 1, "x2": 1})) == R("1/((1-x1)(1-x2))")
    assert tried == [mono({"x1": 1, "x2": 1})]


def test_over_zero_keeps_empty_denominator():
    f = RationalFunction.zero().over(mono_var("x1"))
    assert f.is_zero() and f.den == ()
    with pytest.raises(DenominatorCollapse):
        RationalFunction.zero().over(())
    with pytest.raises(DenominatorCollapse):
        RationalFunction.one().over(())


def test_scale_by_zero_is_the_zero_normal_form():
    f = R("1/((1-x1)(1-x2))")
    for zero in (f * 0, 0 * f, f * Polynomial.zero()):
        assert zero.is_zero() and zero.den == ()


def test_rf_sum_skips_factors_its_owner_rules_out(monkeypatch):
    # each factor has one owner, whose numerator 1 it does not divide
    a, b = R("1/(1-x1)"), R("1/(1-x2)")
    tried = recording_exact_div(monkeypatch)
    total = a + b
    assert tried == []
    assert total == R("(2 - x1 - x2)/((1-x1)(1-x2))")


def test_rf_sum_tries_a_factor_that_shares_a_root():
    # (1 + x1)/(1 - x1^2) is a normal form: the owner's numerator is not
    # divisible by (1 - x1^2), but the sum is, through (1 - x1)
    a = RationalFunction(P("1 + x1"), (mono_var("x1", 2),))
    b = R("(-x1)/(1-x1)")
    assert a.den == (mono_var("x1", 2),)
    assert a + b == RationalFunction.one()


def test_rf_sum_skips_a_factor_ruled_out_on_its_parts(monkeypatch):
    # both parts hold (1 - x1*x2), so neither decides it alone; the
    # lifted sum 2 - x3 - x4 is nonzero at the point where x1*x2 = 1
    a, b = R("1/((1-x1*x2)(1-x3))"), R("1/((1-x1*x2)(1-x4))")
    tried = recording_exact_div(monkeypatch)
    total = a + b
    assert tried == []
    assert total == R("(2 - x3 - x4)/((1-x1*x2)(1-x3)(1-x4))")


def test_rf_sum_cancels_a_factor_whose_parts_value_is_zero(monkeypatch):
    # 1/((1-x1)(1-x2)) = (1/(1-x2) + x1/(1-x1))/(1-x1*x2); the third part
    # makes the lifted sum (8 terms) longer than the parts (3 terms)
    parts = [R("1/((1-x2)(1-x1*x2))"), R("x1/((1-x1)(1-x1*x2))"),
             R("x4/(1-x4)")]
    tried = recording_exact_div(monkeypatch)
    total = rf_sum(parts)
    assert tried == [mono({"x1": 1, "x2": 1})]
    assert total == R("(1 - x1*x4 - x2*x4 + x1*x2*x4)/((1-x1)(1-x2)(1-x4))")


def test_rf_sum_never_runs_the_parts_test_on_an_all_q_sum(monkeypatch):
    # an all-q sum runs dense: neither the parts test nor a sparse division
    a, b, c = R("1/(1-q)"), R("1/(1-q^3)"), R("x1/(1-q^3)")
    expected = R("(2 + q + q^2)/(1-q^3)")
    calls = []
    value = algebra._lifted_value
    monkeypatch.setattr(algebra, "_lifted_value",
                        lambda parts, point, *cache: calls.append(point)
                        or value(parts, point, *cache))
    tried = recording_exact_div(monkeypatch)
    assert a + b == expected
    assert calls == [] and tried == []
    # another variable moves the point off the all-ones point
    assert a + c == RationalFunction(P("1 + q + q^2 + x1"), (mono_var("q", 3),))
    assert len(calls) == 1


def test_rf_sum_stays_sparse_where_the_dense_form_does_not_fit(monkeypatch):
    # the lifted sum 1 - q^2 + x1 - x1*q is divided by (1 - q) sparsely
    a, b = R("1/(1-q)"), R("x1/(1-q^2)")
    tried = recording_exact_div(monkeypatch)
    assert a + b == RationalFunction(P("1 + q + x1"), (mono_var("q", 2),))
    assert tried == [mono_var("q")]


def test_rf_sum_multiplies_a_factor_its_parts_share_once(monkeypatch):
    # the three parts over (1 - x1) lack (1 - x4): their sum is multiplied
    # by it once, and the last part by (1 - x1)
    parts = [R("1/(1-x1)"), R("x2/(1-x1)"), R("x3/(1-x1)"), R("1/(1-x4)")]
    calls = []
    times = algebra._times_one_minus
    monkeypatch.setattr(algebra, "_times_one_minus",
                        lambda p, m: calls.append(m) or times(p, m))
    total = rf_sum(parts)
    assert calls == [mono_var("x4"), mono_var("x1")]
    assert total == fully_normalized_sum(parts)


def test_keeps_normal_form():
    x = {v: mono_var(v) for v in ("x1", "x2", "y1", "y2")}
    assert keeps_normal_form([x["y1"], x["y2"]])
    assert keeps_normal_form([x["x2"]])
    # a shared variable is fine beside a private one of exponent 1
    assert keeps_normal_form([mono({"y1": 1, "y2": 2}),
                              mono({"x2": 1, "y2": 1})])
    # x2 stays itself, so x1 -> x1*x2 leaves x1's image its own x1 but
    # x2's image nothing of its own
    assert not keeps_normal_form([mono({"x1": 1, "x2": 1}), x["x2"]])
    assert not keeps_normal_form([mono_var("y1", 2)])
    assert not keeps_normal_form([x["y1"], x["y1"]])


# denominator factors with shared primitive roots (x1, x1^2, x1^3 and
# x1*x2, x1^2*x2^2), non-primitive factors alone among their root, and
# numerator factors that are cyclotomic parts of them
FACTORS = tuple(mono(d) for d in (
    {"x1": 1}, {"x1": 2}, {"x1": 3}, {"x2": 2}, {"x1": 1, "x2": 1},
    {"x1": 2, "x2": 2}, {"x2": 1, "x3": 2}, {"x3": 2}))
CYCLOTOMIC = ("1 + x1", "1 + x1 + x1^2", "1 + x2", "1 + x1*x2", "1 + x3")


@st.composite
def factored(draw, den=None):
    """(numerator, denominator factors), the numerator a multiple of a
    few (1 - m) of FACTORS and of cyclotomic parts of them, so that
    factors divide it, some of them only in part."""
    num = draw(polynomials())
    for m in draw(st.lists(st.sampled_from(FACTORS), max_size=3)):
        num = num * one_minus(m)
    for c in draw(st.lists(st.sampled_from(CYCLOTOMIC), max_size=2)):
        num = num * P(c)
    if den is None:
        den = draw(st.lists(st.sampled_from(FACTORS), max_size=4))
    return num, den


def lacked(den, common):
    """The factors of the multiset common that den lacks."""
    return [m for m in set(common)
            for _ in range(common.count(m) - den.count(m))]


def lifted(num, den, common):
    """num times the factors that den lacks of the multiset common."""
    for m in lacked(den, common):
        num = num * one_minus(m)
    return num


def least_common(dens):
    return sorted(m for m in set().union(*dens)
                  for _ in range(max(den.count(m) for den in dens)))


def unnormalized(num, den):
    """num / den with no factor cancelled, den sorted as a normal form's."""
    return algebra._normal(num, tuple(sorted(den)))


@settings(max_examples=500, deadline=None)
@given(factored())
def test_normal_form_does_not_depend_on_the_order_of_primitive_roots(drawn):
    # the old order, each factor's sorted (name, exponent) tuple, tries
    # factors on different primitive roots in another order than the ints
    # do (x1*x2 before x1^2, the ints the other way once x1 is interned
    # before x2), and the powers of one root in the same ascending order
    num, den = drawn
    reference = algebra._normal(num, tuple(sorted(den, key=algebra._mono_key)))
    reference._normalize()
    f = RationalFunction(num, den)
    assert f.num == reference.num
    assert f.den == tuple(sorted(reference.den))


def test_normalize_tries_powers_of_one_root_in_ascending_order():
    # the sparse twin of test_dense_normalize_keeps_factor_order
    x1, x1sq = mono_var("x1"), mono_var("x1", 2)
    for den in ((x1, x1sq), (x1sq, x1)):
        f = RationalFunction(P("1 - x1^2"), den)
        assert f.num == P("1 + x1") and f.den == (x1sq,)


def some_normalized(data, drawn):
    """The (num, den) pairs of drawn as rational functions, some of them
    normalized and the others left unnormalized."""
    return [RationalFunction(num, den) if data.draw(st.booleans())
            else unnormalized(num, den) for num, den in drawn]


def fully_normalized_sum(parts):
    """The sum of parts by full sparse normalization of the lifted sum."""
    common = least_common([f.den for f in parts])
    total = sum((lifted(f.num, f.den, common) for f in parts),
                Polynomial.zero())
    return RationalFunction(total, common)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rf_sum_matches_full_normalization(data):
    # the parts share a few denominators, so that factors tie at the top
    # multiplicity; a last part may bring the lifted sum to a multiple of
    # some factors, as the identities' sums are; some parts are left
    # unnormalized
    dens = data.draw(st.lists(st.lists(st.sampled_from(FACTORS), max_size=4),
                              min_size=1, max_size=3))
    drawn = [data.draw(factored(den=data.draw(st.sampled_from(dens))))
             for _ in range(data.draw(st.integers(min_value=1, max_value=3)))]
    common = least_common([den for _, den in drawn])
    if data.draw(st.booleans()):
        target, _ = data.draw(factored(den=()))
        rest = sum((lifted(num, den, common) for num, den in drawn),
                   Polynomial.zero())
        drawn.append((target - rest, common))
    else:
        drawn.append(data.draw(factored(den=data.draw(st.sampled_from(dens)))))
    parts = some_normalized(data, drawn)
    common = least_common([f.den for f in parts])
    total = sum((lifted(f.num, f.den, common) for f in parts),
                Polynomial.zero())
    assert rf_sum(parts) == RationalFunction(total, common)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lifted_value_is_the_lifted_sum_at_the_point(data):
    # FACTORS repeat and share roots, some are not primitive, and a part
    # may have a zero numerator
    part = st.one_of(factored(), factored().map(
        lambda drawn: (Polynomial.zero(), drawn[1])))
    drawn = data.draw(st.lists(part, min_size=1, max_size=4))
    common = least_common([den for _, den in drawn])
    parts = [(num, lacked(den, common)) for num, den in drawn]
    total = sum((lifted(num, den, common) for num, den in drawn),
                Polynomial.zero())
    for m in set(common):
        point = algebra._point_where_one(m)
        assert algebra._value_at(((m, 1),), point, {}) == 1
        assert (algebra._lifted_value(parts, point)
                == algebra._value_at(total._terms.items(), point, {}))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sparse_lift_matches_lifting_each_part(data):
    # 2-6 parts over a few shared denominators of FACTORS, which repeat
    # and share roots, so that parts lack the same factors and are lifted
    # together, recursively; a numerator may be 0
    dens = data.draw(st.lists(st.lists(st.sampled_from(FACTORS), max_size=4),
                              min_size=1, max_size=3))
    part = st.tuples(st.one_of(st.just(Polynomial.zero()), polynomials()),
                     st.sampled_from(dens))
    drawn = data.draw(st.lists(part, min_size=2, max_size=6))
    common = least_common([den for _, den in drawn])
    parts = [(num, lacked(den, common)) for num, den in drawn]
    before = [(dict(num.terms), list(lack)) for num, lack in parts]
    total = sum((lifted(num, den, common) for num, den in drawn),
                Polynomial.zero())
    assert algebra._lift(parts) == total
    assert [(num.terms, lack) for num, lack in parts] == before


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_over_matches_full_normalization(data):
    # m may be a factor f holds already, and f may be 0; exact_div is
    # tried on (1 - m) alone, as _normalize tries it, where m is new and
    # the coefficient sum is 0
    num, den = data.draw(factored())
    if data.draw(st.booleans()):
        num = Polynomial.zero()
    f = RationalFunction(num, den)
    m = data.draw(st.sampled_from(f.den + FACTORS))
    expected = RationalFunction(f.num, f.den + (m,))
    with pytest.MonkeyPatch.context() as mp:
        tried = recording_exact_div(mp)
        assert f.over(m) == expected
    new = f.num and m not in f.den and not sum(f.num.terms.values())
    assert tried == ([m] if new else [])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scaling_matches_full_normalization(data):
    f = RationalFunction(*data.draw(factored()))
    c = data.draw(st.integers(min_value=-3, max_value=3))
    term = Polynomial.term(data.draw(monomials()), c)
    assert f * term == RationalFunction(f.num * term, f.den)
    assert f * c == c * f == RationalFunction(f.num * c, f.den)


@st.composite
def private_substitutions(draw):
    """Each mapped variable, x1 always, goes to a variable of its own times
    a monomial in shared variables; the unmapped ones stay themselves."""
    sub = {}
    for i, v in enumerate(VARS):
        if v == "x1" or draw(st.booleans()):
            shared = draw(st.dictionaries(
                st.sampled_from(("z1", "z2")),
                st.integers(min_value=1, max_value=3), max_size=2))
            sub[v] = mono({"y%d" % i: 1, **shared})
    return sub


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_substitutions_that_keep_the_normal_form_need_no_division(data):
    den = data.draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=4))
    f = RationalFunction(*data.draw(factored(den=den)))
    sub = data.draw(st.one_of(private_substitutions(), substitutions()))
    full = RationalFunction(f.num.substitute(sub),
                            [mono_subst(m, sub) for m in f.den])
    with pytest.MonkeyPatch.context() as mp:
        tried = recording_exact_div(mp)
        assert f.substitute(sub) == full
    if keeps_normal_form([sub.get(v, mono_var(v)) for v in f.variables()]):
        assert tried == []


@settings(max_examples=60)
@given(st.data())
def test_rf_eq_after_denominator_inflation(data):
    f = data.draw(rationals())
    m = data.draw(monomials(nonempty=True))
    inflated = RationalFunction(f.num * one_minus(m), f.den + (m,))
    assert rf_eq(f, inflated)


# -- rendering and parsing ---------------------------------------------------

def test_render_single_factor():
    assert str(R("1/(1-q)")) == "1/(1-q)"


def test_render_multi_factor():
    text = "(1 - x1^2*x2*x3)/((1-x1)(1-x1*x2)(1-x1*x3))"
    assert str(R(text)) == text


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_rational("1/(2-q)")
    with pytest.raises(ParseError):
        parse_rational("1 +")


# edge inputs with the results parse_rational has always given them
PARSE_EDGES = [
    ("1/(1-x)(1-x)", "1/((1-x)(1-x))"),
    ("1/((1-x))", "1/(1-x)"),
    ("x^0", "1"),
    ("-(1-x)/(1-x)", "-1"),
    # the outer parentheses of a denominator are those of its first "("
    # only when that one closes at the end
    ("1/((1-x))(1-y)", "1/((1-x)(1-y))"),
    ("1/((1-x)(1+x))(1-y)", "1/((1-y)(1-x^2))"),
    ("1/((1-x)(1+x))", ParseError),
    ("1/((1-x)+0)", ParseError),
    ("1/((1+x)(x^99999999))", ParseError),
    ("1/((1-x^2000000)(1-x^2000000))", "1/((1-x^2000000)(1-x^2000000))"),
    ("", ParseError),
    ("1/", ParseError),
    ("1/()", ParseError),
    ("1/(1-x)/(1-y)", ParseError),
    ("2^3", ParseError),
    ("1/(1 - x^0)", ParseError),
    ("x^99999999", MonomialOverflow),
]


@pytest.mark.parametrize("text, expected", PARSE_EDGES)
def test_parse_edge_inputs(text, expected):
    # parse_polynomial reads no "/"; on the rest it agrees with parse_rational
    for parse, want in ((parse_rational, expected),
                        (parse_polynomial, ParseError if "/" in text else expected)):
        if isinstance(want, str):
            assert str(parse(text)) == want
        else:
            with pytest.raises(want):
                parse(text)


PARSE_SYMBOLS = ("1", "2", "0", "x", "y1", "q", "(", ")", "+", "-", "*", "/",
                 "^", " ")


def test_parsers_raise_only_their_own_errors_on_random_text(monkeypatch):
    # intern the random names into copies of the name table, so that the
    # tests after this one do not pack their names past them
    monkeypatch.setattr(algebra, "_NAMES", list(algebra._NAMES))
    monkeypatch.setattr(algebra, "_INDEX", dict(algebra._INDEX))
    rng = random.Random(32)
    for _ in range(20000):
        text = "".join(rng.choice(PARSE_SYMBOLS)
                       for _ in range(rng.randrange(25)))
        for parse in (parse_polynomial, parse_rational):
            try:
                parse(text)
            except (ParseError, MonomialOverflow):
                pass


def test_a_failed_parse_interns_no_name():
    # each text meets fresh names before it fails: on a bad character,
    # trailing input, a factor not of the form (1 - m), a (1 - 1) factor
    # or an exponent past its field
    endings = ["1 + {a}*{b} $", "{a}*{b} )", "1/((1-{a})(1+{b}))",
               "{a}/(1 - {b}^0)", "{a} + {b}^16777216", "{a}/(1-{b}^-1)"]
    rng = random.Random(33)
    names = len(algebra._NAMES), len(algebra._INDEX)
    for i in range(2000):
        text = rng.choice(endings).format(a="fa%d" % i, b="fb%d" % rng.randrange(10 ** 6))
        with pytest.raises((ParseError, MonomialOverflow, DenominatorCollapse)):
            (parse_rational if i % 2 else parse_polynomial)(text)
        assert (len(algebra._NAMES), len(algebra._INDEX)) == names
    with pytest.raises(MonomialOverflow):
        mono_var("fc", -1)
    assert "fc" not in algebra._INDEX


@settings(max_examples=80)
@given(st.data())
def test_text_round_trip(data):
    f = data.draw(rationals())
    again = parse_rational(str(f))
    assert again == f


@settings(max_examples=80)
@given(st.data())
def test_json_round_trip(data):
    f = data.draw(rationals())
    assert RationalFunction.loads(f.dumps()) == f


# -- dense univariate kernel, against the sparse algebra ---------------------

def q_coeffs(p):
    """Coefficient list of a polynomial in q alone, no trailing zeros."""
    out = [0] * (p.degree() + 1)
    for m, c in p.terms.items():
        out[sum(e for _, e in m)] = c
    return out


def q_den(ks):
    return [mono_var("q", k) for k in ks]


@settings(max_examples=200)
@given(st.data())
def test_dense_polynomial_ops_match_sparse(data):
    pa = data.draw(q_polynomials())
    pb = data.draw(q_polynomials())
    k = data.draw(st.integers(min_value=1, max_value=12))
    a, b, m = q_coeffs(pa), q_coeffs(pb), mono_var("q", k)
    assert dense_mul(a, b) == q_coeffs(pa * pb)
    assert dense_mul_one_minus(a, k) == q_coeffs(pa * one_minus(m))
    quot = exact_div(pa, m)
    assert dense_div_one_minus(a, k) == (None if quot is None
                                         else q_coeffs(quot))
    assert dense_div_one_minus(dense_mul_one_minus(a, k), k) == a


def test_dense_div_edge_cases():
    assert dense_div_one_minus([], 3) == []
    assert dense_div_one_minus([1, 0, -1], 3) is None  # k above the degree
    assert dense_div_one_minus([1, 0, -1], 2) == [1]
    assert dense_div_one_minus([1, -1, 1, -1], 2) is None  # sum 0, inexact
    assert dense_div_one_minus([1, -1, 1, -1], 1) == [1, 0, 1]


@settings(max_examples=150)
@given(st.data())
def test_dense_rationals_match_sparse(data):
    drawn = data.draw(st.lists(q_rational_parts(), max_size=4))
    dense = [dense_normalize(q_coeffs(p), sorted(ks)) for p, ks in drawn]
    sparse = [RationalFunction(p, q_den(ks)) for p, ks in drawn]
    for d, f in zip(dense, sparse):
        assert dense_to_rf(d) == f
    assert dense_to_rf(dense_sum(dense)) == fully_normalized_sum(sparse)
    if len(drawn) >= 2:
        assert (dense_to_rf(dense_product(dense[0], dense[1]))
                == sparse[0] * sparse[1])


def test_dense_normalize_keeps_factor_order():
    # the normal form depends on the order factors are tried in: ascending
    # k, as the sparse normalization sorts (1 - q) before (1 - q^2)
    value = dense_normalize([1, 0, -1], (1, 2))
    assert value == ([1, 1], (2,))
    assert dense_to_rf(value) == RationalFunction(P("1 - q^2"), q_den([1, 2]))


# k closed under divisors, so that denominators hold multiples of each other
DIVISOR_KS = (1, 2, 3, 4, 6, 8, 12)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dense_sum_lifts_shared_factors_as_rf_sum(data):
    # a few denominators shared among 3-8 parts, so that parts lack the
    # same (1 - q^k) and are lifted together, recursively
    dens = data.draw(st.lists(st.lists(st.sampled_from(DIVISOR_KS), max_size=5),
                              min_size=1, max_size=3))
    drawn = data.draw(st.lists(st.tuples(q_polynomials(), st.sampled_from(dens)),
                               min_size=3, max_size=8))
    dense = [(q_coeffs(p), tuple(sorted(ks))) for p, ks in drawn]
    sparse = [unnormalized(p, q_den(ks)) for p, ks in drawn]
    assert dense_to_rf(dense_sum(dense)) == fully_normalized_sum(sparse)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packed_dense_sum_matches_sparse(data):
    # 2-4 parts of 129 coefficients or more, so that the sum is lifted as
    # packed ints, with coefficients up to 2^200 and a few zero numerators
    # over shared denominators of DIVISOR_KS; the negation of one part or
    # of all of them may follow, so that the sum cancels in part or to 0
    dens = data.draw(st.lists(st.lists(st.sampled_from(DIVISOR_KS), max_size=5),
                              min_size=1, max_size=3))
    drawn = data.draw(st.lists(st.tuples(long_q_polynomials(),
                                         st.sampled_from(dens)),
                               min_size=2, max_size=4))
    drawn += data.draw(st.lists(st.tuples(st.just(Polynomial.zero()),
                                          st.sampled_from(dens)), max_size=2))
    cancel = data.draw(st.sampled_from(("none", "one", "all")))
    if cancel == "one":
        drawn.append((-drawn[0][0], drawn[0][1]))
    elif cancel == "all":
        drawn += [(-p, ks) for p, ks in drawn]
    dense = [(q_coeffs(p), tuple(sorted(ks))) for p, ks in drawn]
    assert sum(len(num) for num, _ in dense) >= algebra._PACKED_AT
    sparse = [unnormalized(p, q_den(ks)) for p, ks in drawn]
    assert dense_to_rf(dense_sum(dense)) == fully_normalized_sum(sparse)
    if cancel == "all":
        assert dense_sum(dense) == ([], ())


# B.bit_length() + 1 = 8, 9, 16, 17, 32, 33, 64, 65: each bound B needs one
# bit more than a lane of 1, 2, 4 or 8 bytes holds as a signed digit, or
# all of one
@pytest.mark.parametrize("bound", (2**7 - 1, 2**7, 2**15 - 1, 2**15,
                                   2**31 - 1, 2**31, 2**63 - 1, 2**63))
def test_packed_dense_sum_at_the_digit_width_edges(bound):
    # the sum's coefficient of q is -sign * B exactly: p + 2r with the
    # second part lacking (1 - q); 258 coefficients in all
    r = bound // 4
    p = bound - 2 * r
    for sign in (1, -1):
        first = ([sign * p, -sign * p] + [0] * 253 + [sign], (1,))
        second = ([sign * r, -sign * r], ())
        expected = ([sign * (p + r), -sign * bound, sign * r] + [0] * 252
                    + [sign])
        assert dense_sum([first, second]) == (expected, (1,))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(("q", "x1")))
def test_one_variable_sums_run_dense(data, v):
    # two or more parts over a few shared denominators of DIVISOR_KS, which
    # repeat and divide each other; numerators may be 0; the last part may
    # bring the lifted sum to a multiple of some factors, or to 0
    to_v = {"q": mono_var(v)}
    dens = data.draw(st.lists(st.lists(st.sampled_from(DIVISOR_KS), max_size=5),
                              min_size=1, max_size=3))
    numerators = st.one_of(st.just(Polynomial.zero()), q_polynomials())
    drawn = [(data.draw(numerators).substitute(to_v),
              [mono_var(v, k) for k in data.draw(st.sampled_from(dens))])
             for _ in range(data.draw(st.integers(min_value=1, max_value=4)))]
    common = least_common([den for _, den in drawn])
    target = data.draw(numerators).substitute(to_v)
    for k in data.draw(st.lists(st.sampled_from(DIVISOR_KS), max_size=3)):
        target = target * one_minus(mono_var(v, k))
    if data.draw(st.booleans()):
        rest = sum((lifted(num, den, common) for num, den in drawn),
                   Polynomial.zero())
        drawn.append((target - rest, common))
    else:
        drawn.append((target, [mono_var(v, k)
                               for k in data.draw(st.sampled_from(dens))]))
    parts = some_normalized(data, drawn)
    expected = fully_normalized_sum(parts)
    with mock.patch.object(algebra, "exact_div", wraps=algebra.exact_div) as div:
        assert rf_sum(parts) == expected
    # only a sum in q runs on the dense kernel, which calls no exact_div
    if v == "q":
        assert not div.called


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(("q", "x1")))
def test_rf_sum_matches_full_normalization_in_and_out_of_one_variable(
        data, v):
    # parts in v over DIVISOR_KS, constants, and now and then a part that
    # brings in a second variable, which keeps the sum on the sparse
    # kernel; some parts are left unnormalized
    to_v = {"q": mono_var(v)}
    one_variable = st.tuples(
        q_polynomials().map(lambda p: p.substitute(to_v)),
        st.lists(st.sampled_from(DIVISOR_KS), max_size=4).map(
            lambda ks: [mono_var(v, k) for k in ks]))
    constant = st.tuples(st.integers(min_value=-3, max_value=3).map(
        Polynomial.constant), st.just([]))
    other = mono_var("x2" if v == "q" else "q", 2)
    mixed = one_variable.map(
        lambda part: (part[0] + Polynomial.term(other), part[1]))
    kind = data.draw(st.sampled_from(("one", "constants", "mixed")))
    part = {"one": st.one_of(one_variable, constant),
            "constants": constant,
            "mixed": st.one_of(one_variable, constant, mixed)}[kind]
    drawn = data.draw(st.lists(part, min_size=2, max_size=5))
    parts = some_normalized(data, drawn)
    assert rf_sum(parts) == fully_normalized_sum(parts)


@given(st.lists(st.integers(min_value=1, max_value=6), max_size=8),
       st.lists(st.integers(min_value=1, max_value=6), max_size=8))
def test_join_is_the_multiset_maximum(a, b):
    a, b = tuple(sorted(a)), sorted(b)
    assert algebra._join(a, b) == sorted((Counter(a) | Counter(b)).elements())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dense_normalize_with_multiples_matches_sparse(data):
    num = data.draw(q_polynomials())
    for k in data.draw(st.lists(st.sampled_from(DIVISOR_KS), max_size=4)):
        num = num * one_minus(mono_var("q", k))
    ks = sorted(data.draw(st.lists(st.sampled_from(DIVISOR_KS), max_size=6)))
    assert (dense_to_rf(dense_normalize(q_coeffs(num), ks))
            == RationalFunction(num, q_den(ks)))
    assert (dense_to_rf(dense_normalize(q_coeffs(num), (2, 4, 4, 6, 12)))
            == RationalFunction(num, q_den((2, 4, 4, 6, 12))))


def test_dense_normalize_skips_multiples_of_failed_factors(monkeypatch):
    tried = []
    div = algebra.dense_div_one_minus
    monkeypatch.setattr(algebra, "dense_div_one_minus",
                        lambda a, k: tried.append(k) or div(a, k))
    # (1 - q^2) does not divide (1 - q)(1 - q^3), so neither can (1 - q^4)
    # nor (1 - q^6); (1 - q^3) does
    num = q_coeffs(P("1 - q") * P("1 - q^3"))
    assert dense_normalize(num, (2, 3, 4, 6)) == ([1, -1], (2, 4, 6))
    assert tried == [2, 3]


@settings(max_examples=150)
@given(st.data())
def test_dense_eval_matches_substitution(data):
    # the numerator's (1 - m) factors survive normalization of f, and
    # cancel against the denominator once q merges the variables
    num = data.draw(polynomials())
    den = data.draw(st.lists(monomials(nonempty=True), max_size=3))
    for m in data.draw(st.lists(monomials(nonempty=True), max_size=2)):
        num = num * one_minus(m)
    f = RationalFunction(num, den)
    # a variable left out of exps is q itself
    exps = {v: data.draw(st.integers(min_value=0, max_value=3))
            for v in data.draw(st.sets(st.sampled_from(VARS)))}
    sub = {v: mono_var("q", exps.get(v, 1)) for v in VARS}
    try:
        expected = RationalFunction(f.num.substitute(sub),
                                    [mono_subst(m, sub) for m in f.den])
    except DenominatorCollapse:
        with pytest.raises(DenominatorCollapse):
            dense_eval(f, exps)
        return
    assert dense_to_rf(dense_eval(f, exps)) == expected


# -- strategies --------------------------------------------------------------

VARS = ("x1", "x2", "x3", "q")


def monomials(nonempty=False):
    pair = st.tuples(st.sampled_from(VARS), st.integers(min_value=1, max_value=3))
    return st.lists(pair, min_size=1 if nonempty else 0, max_size=3).map(
        lambda ps: mono({v: e for v, e in ps}))


def polynomials():
    term = st.tuples(monomials(), st.integers(min_value=-4, max_value=4))
    return st.lists(term, max_size=4).map(
        lambda ts: sum((Polynomial.term(m, c) for m, c in ts),
                       Polynomial.zero()))


def rationals():
    return st.tuples(polynomials(), st.lists(monomials(nonempty=True), max_size=3)).map(
        lambda t: RationalFunction(t[0], tuple(t[1])))


def substitutions():
    return st.dictionaries(st.sampled_from(VARS), monomials(nonempty=True),
                           max_size=2)


def q_polynomials():
    """Polynomials in q with negative coefficients, times a few (1 - q^k)
    so that exact divisions occur."""
    term = st.tuples(st.integers(min_value=0, max_value=6),
                     st.integers(min_value=-4, max_value=4))
    return st.tuples(st.lists(term, max_size=5),
                     st.lists(st.integers(min_value=1, max_value=4),
                              max_size=3)).map(_q_polynomial)


def _q_polynomial(drawn):
    terms, ks = drawn
    p = sum((Polynomial.term(mono_var("q", d), c) for d, c in terms),
            Polynomial.zero())
    for k in ks:
        p = p * one_minus(mono_var("q", k))
    return p


def long_q_polynomials():
    """Polynomials in q of degree 128 to 300, a few terms below q^128
    and one at the top, coefficients small or up to 2^200, times a few
    (1 - q^k)."""
    coefficient = st.one_of(st.integers(min_value=-4, max_value=4),
                            st.integers(min_value=-2**200, max_value=2**200))
    top = st.tuples(st.integers(min_value=128, max_value=300),
                    coefficient.filter(bool))
    term = st.tuples(st.integers(min_value=0, max_value=127), coefficient)
    return st.tuples(top, st.lists(term, max_size=5),
                     st.lists(st.integers(min_value=1, max_value=4),
                              max_size=3)).map(
        lambda drawn: _q_polynomial(([drawn[0]] + drawn[1], drawn[2])))


def q_rational_parts():
    """(numerator in q, list of the k of its (1 - q^k) factors)."""
    return st.tuples(q_polynomials(),
                     st.lists(st.integers(min_value=1, max_value=4),
                              max_size=4))


# -- packed monomials ---------------------------------------------------------

def test_rendering_breaks_natural_order_ties_on_the_name():
    # x1 and x01 share stem and number; the name decides, whatever the
    # order the terms were met in
    a, b = parse_polynomial("x1 + x01"), parse_polynomial("x01 + x1")
    assert str(a) == str(b) == "x01 + x1"
    f, g = RationalFunction(a, ()), RationalFunction(b, ())
    assert f.dumps() == g.dumps()
    assert f.to_json()["num"] == [[1, {"x01": 1}], [1, {"x1": 1}]]


def reference_rendered(monos):
    """(m, pairs) for each m of monos in rendering order, pairs its
    (name, exponent) pairs in natural variable order: the rendering
    before the one-key layout, kept as the reference it must match.
    Each term is decoded and its pairs sorted by rank unless the natural
    order of the variables is their interning order."""
    decoded = [(m, algebra._items(m)) for m in monos]
    used = sorted({i for _, items in decoded for i, _ in items})
    natural = sorted(used, key=lambda i: algebra._varkey(algebra._NAMES[i]))
    if natural == used:
        names = algebra._NAMES
    else:
        rank = {i: r for r, i in enumerate(natural)}
        names = [algebra._NAMES[i] for i in natural]
        decoded = [(m, sorted([(rank[i], e) for i, e in items]))
                   for m, items in decoded]
    keyed = sorted([((mono_deg(m), items), m) for m, items in decoded])
    for (_, items), m in keyed:
        yield m, [(names[r], e) for r, e in items]


def reference_text(pairs):
    return "*".join(v if e == 1 else "%s^%d" % (v, e) for v, e in pairs) or "1"


def reference_poly_str(terms):
    parts = []
    for m, pairs in reference_rendered(terms):
        c = terms[m]
        if not pairs:
            body = str(abs(c))
        elif abs(c) == 1:
            body = reference_text(pairs)
        else:
            body = "%d*%s" % (abs(c), reference_text(pairs))
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts) or "0"


def reference_json(f):
    terms = f.num._terms
    return {"num": [[terms[m], dict(sorted(pairs))]
                    for m, pairs in reference_rendered(terms)],
            "den": [dict(sorted(pairs))
                    for _, pairs in reference_rendered(f.den)]}


# names whose natural order ties on stem and number (x1, x01), orders a
# number past its text (x2, x10), and differs from any interning order
RENDER_NAMES = ("x1", "x01", "x2", "x10", "q", "p2_3", "c1")


def render_monomials(nonempty=False):
    pair = st.tuples(st.sampled_from(RENDER_NAMES),
                     st.integers(min_value=1, max_value=4))
    return st.lists(pair, min_size=1 if nonempty else 0, max_size=4).map(mono)


@settings(max_examples=300)
@given(st.data())
def test_layout_renders_as_the_reference(data):
    terms = data.draw(st.dictionaries(
        render_monomials(), st.integers(min_value=-3, max_value=3).filter(bool),
        max_size=8))
    if data.draw(st.booleans()):
        terms[mono()] = data.draw(st.sampled_from((-2, -1, 1, 5)))
    factors = data.draw(st.lists(render_monomials(nonempty=True), max_size=3))
    den = [m for m in factors for _ in range(data.draw(
        st.integers(min_value=1, max_value=3)))]
    f = unnormalized(Polynomial(terms), den)
    _, order = algebra._layout(terms)
    assert order == [m for m, _ in reference_rendered(terms)]
    _, order = algebra._layout(f.den)
    assert order == [m for m, _ in reference_rendered(f.den)]
    for m in list(terms) + den:
        (_, pairs), = reference_rendered([m])
        assert algebra.mono_str(m) == reference_text(pairs)
        assert algebra.mono_json(m) == dict(sorted(pairs))
    assert str(f.num) == reference_poly_str(terms)
    factors = "".join("(1-%s)" % reference_text(pairs)
                      for _, pairs in reference_rendered(f.den))
    assert str(f).endswith(factors if len(f.den) < 2 else factors + ")")
    # the same dicts, their keys in the same order
    assert f.to_json() == reference_json(f)
    assert f.dumps() == json.dumps(reference_json(f))


def test_mono_sums_a_repeated_variable():
    m = mono([("x", 1), ("x", 2)])
    assert m == mono_var("x", 3)
    assert mono_mul(m, mono_var("x")) == mono_var("x", 4)
    assert Polynomial.term(m).terms == {(("x", 3),): 1}


def test_an_exponent_or_degree_past_its_field_raises():
    limit = algebra._LIMIT
    assert mono_deg(mono_var("x", limit - 1)) == limit - 1
    assert mono_deg(mono({"x": limit - 2, "y": 1})) == limit - 1
    # an exponent past its field or a negative one, wherever a monomial is
    # made
    for exp in (limit, -1, -limit):
        with pytest.raises(MonomialOverflow):
            mono_var("x", exp)
        with pytest.raises(MonomialOverflow):
            mono({"x": exp})
    with pytest.raises(MonomialOverflow):
        mono([("x", 2), ("x", -1)])
    with pytest.raises(MonomialOverflow):
        Polynomial({(("x", 1), ("y", -1)): 1})
    for obj in ({"num": [[1, {"x": -1}]], "den": []},
                {"num": [[1, {}]], "den": [{"x": 1, "y": -1}]}):
        with pytest.raises(MonomialOverflow):
            RationalFunction.from_json(obj)
    # a degree past the field, though each exponent fits
    with pytest.raises(MonomialOverflow):
        mono({"x": limit // 2, "y": limit // 2})
    with pytest.raises(MonomialOverflow):
        mono({"x": 1 << algebra._W, "y": 1})
    half = mono_var("x", limit // 2)
    with pytest.raises(MonomialOverflow):
        mono_mul(half, half)
    with pytest.raises(MonomialOverflow):
        mono_mul(half, mono({"y": limit // 2}))
    with pytest.raises(MonomialOverflow):
        algebra.mono_pow(half, 2)
    assert algebra.mono_pow(mono_var("x", 3), 5) == mono_var("x", 15)
    p = P("x^%d + 1" % (limit // 2))
    with pytest.raises(MonomialOverflow):
        p * p
    with pytest.raises(MonomialOverflow):
        algebra._times_one_minus(p, half)


NAMES = VARS + ("y1", "y2")


def kernel_monomials():
    """Monomials in NAMES with exponents from 0 to 3."""
    pair = st.tuples(st.sampled_from(NAMES),
                     st.integers(min_value=0, max_value=3))
    return st.lists(pair, max_size=3).map(mono)


@st.composite
def kernel_substitutions(draw):
    """Up to six names, each sent to itself, to 1 or to a monomial with
    exponents from 0 to 3."""
    sub = {}
    for v in draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=6)):
        kind = draw(st.sampled_from(("itself", "one", "image", "image")))
        sub[v] = (mono_var(v) if kind == "itself" else
                  mono() if kind == "one" else draw(kernel_monomials()))
    return sub


def _repacked(m, sub):
    """m under sub, decoded and packed again by mono."""
    pairs = []
    for i, e in algebra._items(m):
        v = algebra._NAMES[i]
        image = sub.get(v, mono_var(v))
        pairs += [(algebra._NAMES[j], f * e) for j, f in algebra._items(image)]
    return mono(pairs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_substitution_matches_decoding_and_repacking(data):
    sub = data.draw(kernel_substitutions())
    terms = data.draw(st.lists(
        st.tuples(kernel_monomials(), st.integers(min_value=-3, max_value=3)),
        max_size=4))
    poly = {}
    expected = {}
    for m, c in terms:
        assert mono_subst(m, sub) == _repacked(m, sub)
        poly[m] = poly.get(m, 0) + c
    for m, c in poly.items():
        key = _repacked(m, sub)
        expected[key] = expected.get(key, 0) + c
    assert Polynomial(poly).substitute(sub) == Polynomial(expected)


def test_substitution_raises_exactly_past_a_field():
    limit = algebra._LIMIT
    z2 = {"x": mono_var("z", 2)}
    # the cap for an image of degree 2 is limit // 2: both sides of it
    for k in (limit // 2 - 2, limit // 2 - 1):
        m = mono({"x": k, "y": 1})
        want = mono({"z": 2 * k, "y": 1})
        assert mono_subst(m, z2) == want
        assert Polynomial.term(m, 3).substitute(z2) == Polynomial.term(want, 3)
    # degree limit - 1 fits, limit does not
    assert mono_deg(mono_subst(mono({"x": limit // 2 - 1, "y": 1}), z2)) == limit - 1
    too_big = mono({"x": limit // 2 - 1, "y": 2})
    with pytest.raises(MonomialOverflow):
        mono_subst(too_big, z2)
    with pytest.raises(MonomialOverflow):
        Polynomial.term(too_big).substitute(z2)
    # the result, not a partial product, is what must fit, whichever entry
    # the dict lists first
    m = mono({"x": limit // 4, "y": limit // 2})
    for sub in ({"x": mono_var("a", 2), "y": mono()},
                {"y": mono(), "x": mono_var("a", 2)}):
        assert mono_subst(m, sub) == mono_var("a", limit // 2)


def test_identity_substitution_copies_the_terms():
    p = P("x1*x2^2 - 3*x3 + 2")
    same = p.substitute({v: mono_var(v) for v in ("x1", "x2", "x3", "y1")})
    assert same == p
    assert same._terms is not p._terms


@st.composite
def positional_images(draw):
    """Images of v0, v1, ..., each the position's own variable, 1, a
    kernel monomial, or a power of y1 of degree up to 2^(W-3) - 1, so
    that the degree cap reaches 1."""
    images = []
    for i in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(("itself", "one", "image", "image", "high")))
        images.append(
            mono_var("v%d" % i) if kind == "itself" else
            mono() if kind == "one" else
            mono_var("y1", draw(st.integers(min_value=1,
                                            max_value=algebra._LIMIT - 1)))
            if kind == "high" else draw(kernel_monomials()))
    return images


@settings(max_examples=300, deadline=None)
@example(images=[], pairs=[(0, 1)])
@example(images=[mono_var("v0"), mono_var("y1", algebra._LIMIT - 1)],
         pairs=[(0, 3), (1, 1)])
@example(images=[mono_var("v0"), mono_var("y1", algebra._LIMIT - 1)],
         pairs=[(1, 2)])
@given(positional_images(), st.lists(
    st.tuples(st.integers(min_value=0, max_value=7),
              st.integers(min_value=0, max_value=3)), max_size=4))
def test_positional_substitution_equals_the_named_one(images, pairs):
    prepared = algebra._positional_substitution(images)
    sub = {"v%d" % i: m for i, m in enumerate(images)}
    assert prepared == algebra._substitution(sub)
    assert algebra._substitution(prepared) is prepared
    m = mono([("v%d" % i, e) for i, e in pairs])
    try:
        expected = mono_subst(m, sub)
    except MonomialOverflow:
        with pytest.raises(MonomialOverflow):
            algebra._subst(m, prepared)
    else:
        assert algebra._subst(m, prepared) == expected
        assert (Polynomial.term(m, 2).substitute(prepared)
                == Polynomial.term(expected, 2))


def test_positional_substitution_raises_exactly_past_a_field():
    limit = algebra._LIMIT
    z2 = algebra._positional_substitution([mono_var("z", 2)])
    for k in (limit // 2 - 2, limit // 2 - 1):
        m = mono({"v0": k, "y": 1})
        want = mono({"z": 2 * k, "y": 1})
        assert algebra._subst(m, z2) == want
        assert Polynomial.term(m, 3).substitute(z2) == Polynomial.term(want, 3)
    too_big = mono({"v0": limit // 2 - 1, "y": 2})
    with pytest.raises(MonomialOverflow):
        algebra._subst(too_big, z2)
    with pytest.raises(MonomialOverflow):
        Polynomial.term(too_big).substitute(z2)
    # v1 sent to 1 after v0 is doubled: the result must fit, not a
    # partial product
    m = mono({"v0": limit // 4, "v1": limit // 2})
    sub = algebra._positional_substitution([mono_var("a", 2), mono()])
    assert algebra._subst(m, sub) == mono_var("a", limit // 2)


def test_substituted_prepares_each_substitution_once(monkeypatch):
    f = R("(1 + x1*x2)/((1-x1)(1-x1*x2)(1-x2^2))")
    sub = {"x1": mono_var("y"), "x2": mono({"y": 1, "z": 1})}
    expected = f.substitute(sub)
    calls = []
    substitution = algebra._substitution

    def spy(s):
        out = substitution(s)
        calls.append((s, out))
        return out

    monkeypatch.setattr(algebra, "_substitution", spy)
    assert algebra._substituted(f, sub) == expected
    assert [s for s, _ in calls if isinstance(s, dict)] == [sub]
    prepared = calls[0][1]
    assert all(s is prepared and out is prepared for s, out in calls[1:])


def test_rational_substitute_rejects_a_prepared_pair():
    # substitute reads keeps_normal_form's images off the names, which a
    # prepared pair has lost
    f = R("1/((1-x1)(1-x2))")
    prepared = algebra._substitution({"x1": mono_var("y"), "x2": mono_var("y")})
    with pytest.raises(TypeError):
        f.substitute(prepared)
    assert f.num.substitute(prepared) == f.num


_INTERNING_SCRIPT = """
import sys
from ppgf import algebra, engine, families, recurrence
if sys.argv[1] == "reversed":
    names = ["x%d" % i for i in range(40, 0, -1)]
    names += ["v%d" % i for i in range(12, -1, -1)]
    names += ["%s%d" % (s, i) for s in "pncab" for i in range(8, 0, -1)]
    names += ["p%d_%d" % (j, e) for j in range(6, 1, -1) for e in range(6, 0, -1)]
    for name in names + ["q"]:
        algebra.mono_var(name)
for p in (families.diamond(), families.zigzag(3), families.three_rowed(2)):
    print(engine.gfun(p).dumps())
    print(engine.gfun(p, strategy=engine.ple_first_strategy).dumps())
    print(engine.gfun_q(p).dumps())
for name, n in (("zigzag", 3), ("three_rowed", 2)):
    deco, copies = families.family_decomposition(name)
    system = recurrence.discover_states(deco)
    print(system.evaluate(copies(n), q_only=False).dumps())
    # renormalized: elements share variables, and factors share roots
    p = getattr(families, name)(n)
    shared = {e: algebra.mono_var("x%d" % ((e + 1) // 2)) for e in p.elements}
    print(engine.gfun(p, shared).dumps())
"""


def test_outputs_do_not_depend_on_the_order_names_are_interned():
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src] + ([path] if path else [])))
    outputs = [subprocess.run([sys.executable, "-c", _INTERNING_SCRIPT, order],
                              env=env, capture_output=True, text=True,
                              timeout=120)
               for order in ("first use", "reversed")]
    for done in outputs:
        assert done.returncode == 0, done.stderr
    assert outputs[0].stdout.count("\n") == 13
    assert outputs[0].stdout == outputs[1].stdout
