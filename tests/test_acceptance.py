"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every comparison is
exact (integer coefficients, rational-function equality by cross
multiplication); the stated wall-clock budgets are asserted too.
"""

import random
import time

import pytest

from ppgf.algebra import (Polynomial, RationalFunction, mono_var, one_minus,
                          exact_div, parse_rational, rf_eq)
from ppgf.cli import main as cli_main
from ppgf.engine import (apply_deletion, apply_ple, default_binding, gfun,
                         gfun_q, ple_first_strategy, reversed_strategy)
from ppgf.families import (diamond, multicube_block, three_rowed_block,
                           two_rowed_dd_block, zigzag_block)
from ppgf.oracle import truncated_gf
from ppgf.poset import Poset
from ppgf.recurrence import FrontierState, discover_states

CORPUS_SEED = 20250810


def corpus(count=200, max_size=7, seed=CORPUS_SEED, min_size=1, prob=0.5):
    """Random acyclic cover sets on min_size to max_size elements, each
    pair a cover candidate with probability prob, seeded."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(min_size, max_size)
        covers = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                  if rng.random() < prob]
        out.append(Poset.build(range(1, n + 1), covers))
    return out


@pytest.fixture(scope="module")
def poset_corpus():
    return corpus()


def report(number, ok, elapsed, detail):
    print("ACCEPTANCE %d: %s (%.1fs) %s" %
          (number, "PASS" if ok else "FAIL", elapsed, detail))


def q_pochhammer(a_coef, a_exp, step, count):
    """(a; q^step)_count as a polynomial, for a = a_coef * q^a_exp."""
    out = Polynomial.one()
    for k in range(count):
        out = out * Polynomial({(): 1,
                                mono_var("q", a_exp + step * k): -a_coef})
    return out


def q_factorial_denominator(n):
    """(q; q)_n as a denominator multiset."""
    return tuple(mono_var("q", i) for i in range(1, n + 1))


def test_criterion_1_diamond_closed_form(capsys):
    start = time.perf_counter()
    assert cli_main(["gfun", "--family", "diamond"]) == 0
    out = capsys.readouterr().out
    got = parse_rational(out.strip())
    expected = parse_rational(
        "(1-x1^2*x2*x3)/"
        "((1-x1)(1-x1*x2)(1-x1*x3)(1-x1*x2*x3)(1-x1*x2*x3*x4))")
    ok = rf_eq(got, expected)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(1, ok and elapsed < 1.0, elapsed, "diamond closed form via CLI")
    assert ok
    assert elapsed < 1.0


def test_criterion_2_two_rowed_double_diagonals(capsys):
    start = time.perf_counter()
    ok = True
    for n in (2, 3, 4, 5):
        assert cli_main(["qgfun", "--family", "two_rowed_dd", "--n", str(n)]) == 0
        got = parse_rational(capsys.readouterr().out.splitlines()[0])
        expected = RationalFunction(q_pochhammer(-1, 2, 2, n - 1),
                                    q_factorial_denominator(2 * n))
        ok = ok and rf_eq(got, expected)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(2, ok and elapsed < 10.0, elapsed,
               "(-q^2;q^2)_{n-1}/(q;q)_{2n} for n=2..5")
    assert ok
    assert elapsed < 10.0


def _numerator_over_q_factorial(f, n):
    """Numerator of f rewritten over exactly (q;q)_n."""
    num = f.num
    remaining = list(f.den)
    for i in range(1, n + 1):
        m = mono_var("q", i)
        if m in remaining:
            remaining.remove(m)
        else:
            num = num * one_minus(m)
    for m in remaining:
        num = exact_div(num, m)
        assert num is not None, "denominator does not divide (q;q)_%d" % n
    return num


def _linear_extension_count(p):
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def count(remaining):
        if not remaining:
            return 1
        total = 0
        for e in remaining:
            if not (p.below(e) & remaining):
                total += count(remaining - {e})
        return total

    return count(frozenset(p.elements))


def _stacked_diamonds_maj_numerator(n):
    """Sum of q^maj(w) over the linear extensions w of diamond x chain_n.

    Plain integers only, sharing no code with the engine, the recurrences
    or the algebra.  Corner i of copy k lies below corner j of copy k' iff
    k <= k' and i <= j in the diamond 1 < 2, 3 < 4.  Listing the elements
    copy by copy labels them naturally, so by Stanley's fundamental lemma
    (Ordered structures and partitions, 1972; EC1 3.15) the result is the
    numerator of the q-generating function over (q;q)_{4n}.  Dynamic
    programme over (down-set bitmask, last element); index = exponent.
    """
    diamond_le = {(1, 1), (2, 2), (3, 3), (4, 4), (1, 2), (1, 3), (1, 4),
                  (2, 4), (3, 4)}
    elements = [(k, i) for k in range(n) for i in (1, 2, 3, 4)]
    below = [sum(1 << b for b, (kb, j) in enumerate(elements)
                 if b != a and kb <= k and (j, i) in diamond_le)
             for a, (k, i) in enumerate(elements)]
    layer = {(0, -1): [1]}
    for placed in range(len(elements)):
        nxt = {}
        for (mask, last), poly in layer.items():
            for e in range(len(elements)):
                if mask >> e & 1 or below[e] & ~mask:
                    continue
                shift = placed if last > e else 0  # descent at position placed
                acc = nxt.setdefault((mask | 1 << e, e), [])
                acc.extend([0] * (len(poly) + shift - len(acc)))
                for d, c in enumerate(poly):
                    acc[d + shift] += c
        layer = nxt
    total = [0] * max(len(poly) for poly in layer.values())
    for poly in layer.values():
        for d, c in enumerate(poly):
            total[d] += c
    return total


def test_criterion_3_multicube_level_6():
    start = time.perf_counter()
    deco = multicube_block()
    system = discover_states(deco)
    f = system.evaluate(6)
    num = _numerator_over_q_factorial(f, 24)
    coef = {m[0][1] if m else 0: c for m, c in num.terms.items()}
    degree = max(coef)
    numerator = [coef.get(k, 0) for k in range(degree + 1)]
    elapsed = time.perf_counter() - start

    maj = _stacked_diamonds_maj_numerator(6)
    x6, _ = deco.assemble(6)
    extensions = _linear_extension_count(x6)
    # The quoted middle coefficient 40660110 is a misprint for 40660100.
    # Stanley's lemma gives the whole numerator independently (above), and
    # it agrees with the recurrence's at all 193 coefficients; its sum is
    # the number of linear extensions counted over down-sets.  The
    # numerator is palindromic and diamond x chain_6 is self-dual, so the
    # middle coefficient is the same for weak or strict and for
    # order-reversing or order-preserving P-partitions.
    checks = {
        "constant term 1": coef.get(0) == 1,
        "coefficient 2 at q^2": coef.get(2) == 2,
        "coefficient 2 at q^190": coef.get(190) == 2,
        "leading term q^192": degree == 192 and coef.get(192) == 1,
        "coefficient 40660100 at q^96": coef.get(96) == 40660100,
        "numerator equals the linear-extension maj numerator":
            numerator == maj,
        "palindromic numerator": numerator == numerator[::-1],
        "coefficient sum equals the linear-extension count":
            sum(numerator) == extensions,
    }
    ok = all(checks.values())
    report(3, ok and elapsed < 600, elapsed,
           "multicube n=6 numerator over (q;q)_24")
    for name, passed in checks.items():
        if not passed:
            print("  failed: %s" % name)
    assert elapsed < 600
    assert checks["constant term 1"]
    assert checks["coefficient 2 at q^2"]
    assert checks["coefficient 2 at q^190"]
    assert checks["leading term q^192"]
    assert coef.get(96) == 40660100, (
        "computed q^96 coefficient %r; the linear-extension maj numerator "
        "has %d there" % (coef.get(96), maj[96]))
    assert numerator == maj
    assert numerator == numerator[::-1]
    assert sum(numerator) == extensions


def test_multicube_level_7_numerator():
    # one level past criterion 3, checked the same independent way
    deco = multicube_block()
    system = discover_states(deco)
    num = _numerator_over_q_factorial(system.evaluate(7), 28)
    coef = {m[0][1] if m else 0: c for m, c in num.terms.items()}
    numerator = [coef.get(k, 0) for k in range(max(coef) + 1)]
    assert numerator == _stacked_diamonds_maj_numerator(7)


def test_criterion_4_three_rowed_recurrence_fidelity():
    start = time.perf_counter()
    deco = three_rowed_block()
    system = discover_states(deco)
    q_state = FrontierState(1, frozenset({(1, 2), (1, 3)}))
    four_terms = (q_state in system.transitions
                  and len(system.transitions[q_state]) == 4)
    base = system.base_value(q_state).substitute(
        {"c1": mono_var("x1"), "p1": mono_var("x2"),
         "p2": mono_var("x3"), "p3": mono_var("x4")})
    expected = parse_rational(
        "(1-x1^2*x2^2*x3*x4)/"
        "((1-x1)(1-x2)(1-x1*x2*x3)(1-x1*x2*x4)(1-x1*x2*x3*x4))")
    base_ok = base == expected
    elapsed = time.perf_counter() - start
    report(4, four_terms and base_ok and elapsed < 5.0, elapsed,
           "3-rowed system: 4-term transition and exact initial condition")
    assert four_terms
    assert base_ok
    assert elapsed < 5.0


def test_criterion_5_oracle_equivalence_sweep(poset_corpus):
    start = time.perf_counter()
    failures = 0
    for p in poset_corpus:
        if gfun(p).series(8) != truncated_gf(p, 8):
            failures += 1
    elapsed = time.perf_counter() - start
    report(5, failures == 0 and elapsed < 120, elapsed,
           "multivariate series vs enumeration, degree 8, 200 posets")
    assert failures == 0
    assert elapsed < 120


def test_criterion_6_strategy_independence(poset_corpus):
    start = time.perf_counter()
    failures = 0
    for p in poset_corpus:
        base = gfun(p)
        for strategy in (reversed_strategy, ple_first_strategy):
            if not rf_eq(base, gfun(p, strategy=strategy)):
                failures += 1
    elapsed = time.perf_counter() - start
    report(6, failures == 0 and elapsed < 300, elapsed,
           "three strategies agree on 200 posets")
    assert failures == 0
    assert elapsed < 300


def test_criterion_7_recurrence_engine_consistency():
    start = time.perf_counter()
    failures = []
    cases = [(zigzag_block(), (1, 2, 3, 4)),
             (three_rowed_block(), (1, 2, 3, 4)),
             (two_rowed_dd_block(), (1, 2, 3, 4)),
             (multicube_block(), (1, 2, 3))]
    for deco, ns in cases:
        system = discover_states(deco)
        for n in ns:
            x, _ = deco.assemble(n)
            lhs = system.evaluate(n)
            if not rf_eq(lhs, gfun_q(x)):
                failures.append((deco.block.name, n))
    elapsed = time.perf_counter() - start
    report(7, not failures and elapsed < 300, elapsed,
           "evaluate(sys, n) vs direct engine on all four families")
    assert not failures
    assert elapsed < 300


def test_criterion_8_transformation_identities(poset_corpus):
    start = time.perf_counter()
    figures = [
        diamond(),
        Poset.build({1, 2, 3, 4, 5},
                    {(1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)}),
        Poset.build({1, 2, 3, 4}, {(1, 3), (1, 4), (2, 3), (2, 4)}),
    ]
    failures = 0

    def recur(q, at):
        return gfun(q, dict(zip(q.elements, at)))

    for p in figures + poset_corpus[:50]:
        base = gfun(p)
        bind = default_binding(p)
        at = tuple(bind[e] for e in p.elements)
        for b in sorted(p.removable_elements()):
            if not rf_eq(base, apply_deletion(p, b, at, recur)):
                failures += 1
        for k in (1, 2, 3):
            for a in p.antichains_of_size(k):
                if not rf_eq(base, apply_ple(p, sorted(a), at, recur)):
                    failures += 1
    elapsed = time.perf_counter() - start
    report(8, failures == 0 and elapsed < 120, elapsed,
           "deletion and gluing identities on figures + 50 posets")
    assert failures == 0
    assert elapsed < 120


def test_criterion_9_termination_metric(poset_corpus):
    # imported here: perfbench loads this module for its corpus, without
    # the tests directory on the path
    from strategies import recursion_edges
    start = time.perf_counter()
    violations = 0
    edges = 0
    for p in poset_corpus:
        trace = recursion_edges(p)
        edges += len(trace)
        violations += sum(1 for parent, child in trace if child >= parent)
    elapsed = time.perf_counter() - start
    report(9, violations == 0, elapsed,
           "antichain count strictly decreases on %d recursion edges" % edges)
    assert violations == 0
    assert edges > 0