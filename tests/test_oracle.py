from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from ppgf.algebra import (Polynomial, mono, mono_var, parse_polynomial,
                          parse_rational)
from ppgf.engine import gfun
from ppgf.families import antichain, chain, diamond, zigzag
from ppgf.oracle import enumerate_ppartitions, truncated_gf, verify

from strategies import posets


def test_enumerate_antichain_pair():
    got = list(enumerate_ppartitions(antichain(2), 1))
    assert len(got) == 4


def test_enumerate_chain_pair():
    got = sorted(tuple(sorted(s.items())) for s in enumerate_ppartitions(chain(2), 1))
    assert got == [((1, 0), (2, 0)), ((1, 1), (2, 0)), ((1, 1), (2, 1))]


def test_enumerate_diamond():
    assert len(list(enumerate_ppartitions(diamond(), 1))) == 6


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=4))
def test_enumerate_chain_counts_stars_and_bars(n, bound):
    got = len(list(enumerate_ppartitions(chain(n), bound)))
    assert got == comb(n + bound, n)


@settings(max_examples=40, deadline=None)
@given(posets(max_size=6), st.integers(min_value=0, max_value=4))
def test_enumerate_is_sound_and_duplicate_free(p, bound):
    seen = set()
    for sigma in enumerate_ppartitions(p, bound):
        key = tuple(sorted(sigma.items()))
        assert key not in seen
        seen.add(key)
        assert all(0 <= v <= bound for v in sigma.values())
        for x in p.elements:
            for y in p.above(x):
                assert sigma[x] >= sigma[y]


@settings(max_examples=40, deadline=None)
@given(posets(max_size=6), st.integers(min_value=0, max_value=4))
def test_truncation_matches_enumeration(p, bound):
    # the two enumerators check each other: every map of total degree
    # <= bound has all its values <= bound
    terms = {}
    for sigma in enumerate_ppartitions(p, bound):
        if sum(sigma.values()) <= bound:
            m = mono({"x%d" % e: v for e, v in sigma.items()})
            terms[m] = terms.get(m, 0) + 1
    assert truncated_gf(p, bound) == Polynomial(terms)


def test_truncated_gf_antichain():
    assert truncated_gf(antichain(2), 1) == parse_polynomial("1 + x1 + x2")


def test_truncated_gf_empty():
    from ppgf.poset import Poset
    assert truncated_gf(Poset.empty(), 5) == parse_polynomial("1")


def test_truncated_gf_diamond_q():
    p = truncated_gf(diamond(), 2)
    gf = p.substitute({v: mono_var("q") for v in p.variables()})
    assert gf == parse_polynomial("1 + q + 3*q^2")


def test_negative_bound_raises():
    # a negative bound is bad input, not an empty truncation
    p = zigzag(3)
    with pytest.raises(ValueError):
        enumerate_ppartitions(p, -1)
    with pytest.raises(ValueError):
        truncated_gf(p, -1)
    with pytest.raises(ValueError):
        parse_rational("1/(1-q)").series(-1)
    assert truncated_gf(p, 0) == parse_polynomial("1")
    assert list(enumerate_ppartitions(p, 0)) == [{e: 0 for e in p.elements}]


def test_verify_diamond_closed_form():
    f = parse_rational("(1-x1^2*x2*x3)/"
                       "((1-x1)(1-x1*x2)(1-x1*x3)(1-x1*x2*x3)(1-x1*x2*x3*x4))")
    assert verify(diamond(), f, 8).ok


def test_verify_reports_first_discrepancy():
    wrong = parse_rational("1/((1-x1)(1-x1*x2)(1-x1*x2*x3)(1-x1*x2*x3*x4))")
    result = verify(diamond(), wrong, 3)
    assert not result.ok
    # the chain's series lacks x1*x3, diamond's first term it lacks
    assert result.monomial == mono({"x1": 1, "x3": 1})
    assert (result.expected, result.actual) == (1, 0)
    assert str(result) == "mismatch at x1*x3: enumeration gives 1, series gives 0"


def test_verify_reports_the_first_discrepancy_in_rendering_order():
    # three wrong terms: x1*x3 before x1^2 (graded, then x1 to the lower
    # power first), both before x2*x3^2
    wrong = gfun(diamond()) - parse_rational("x1^2 + 2*x1*x3 + x2*x3^2")
    result = verify(diamond(), wrong, 3)
    assert result.monomial == mono({"x1": 1, "x3": 1})
    assert (result.expected, result.actual) == (1, -1)


def test_truncated_gf_terms_are_keyed_as_the_benchmark_reads_them():
    # the benchmark compares truncated_gf(...).terms, as it is, with its
    # own series of the --json rendering, keyed by sorted (name, exp) tuples
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "perfbench" / "checker.py"
    spec = importlib.util.spec_from_file_location("perfbench_checker", path)
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    for p in (diamond(), zigzag(3), chain(3), antichain(2)):
        got = truncated_gf(p, 5).terms
        assert all(isinstance(m, tuple) for m in got)
        assert got == checker.series(gfun(p).to_json(), 5)
