"""Brute-force ground truth for every other module.

A P-partition is an order-reversing map sigma from the poset to the
non-negative integers.  Enumerating them directly from the definition and
summing the monomials x_a^sigma(a) gives a truncation of the generating
function that is independent of the transformation engine, so it can
verify the engine, the recurrence systems and the algebra layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Polynomial, _layout, mono_pow, mono_var


def _linear_extension(p):
    order = []
    placed = set()
    remaining = set(p.elements)
    while remaining:
        nxt = min(e for e in remaining if p.below(e) <= placed)
        order.append(nxt)
        placed.add(nxt)
        remaining.remove(nxt)
    return order


def enumerate_ppartitions(p, bound):
    """Iterator over every order-reversing map with all values <= bound,
    once each.  A negative bound raises ValueError.

    Backtracks along a linear extension; since every smaller element is
    assigned first, the value of e is capped by the minimum over e's lower
    covers, which already enforces the full order-reversal constraint.
    """
    if bound < 0:
        raise ValueError("negative truncation bound %d" % bound)
    order = _linear_extension(p)
    lowers = {e: p.lower_covers(e) for e in order}
    sigma = {}

    def assign(i):
        if i == len(order):
            yield dict(sigma)
            return
        e = order[i]
        ub = min((sigma[a] for a in lowers[e]), default=bound)
        for v in range(min(ub, bound) + 1):
            sigma[e] = v
            yield from assign(i + 1)
        del sigma[e]

    return assign(0)


def truncated_gf(p, bound):
    """Sum of prod x_a^sigma(a) over the enumerated maps, keeping the terms
    of total degree <= bound.  A negative bound raises ValueError.

    The same backtracking as enumerate_ppartitions, with each element's
    powers x_e^0 ... x_e^bound made once.  Making x_e^bound checks that
    the degree bound fits its packed field, so every product below, of
    degree at most bound, is a plain sum of packed monomials."""
    if bound < 0:
        raise ValueError("negative truncation bound %d" % bound)
    order = _linear_extension(p)
    lowers = {e: p.lower_covers(e) for e in order}
    powers = {}
    for e in order:
        x = mono_var("x%d" % e)
        powers[e] = [mono_pow(x, v) for v in range(bound + 1)]
    terms = {}
    sigma = {}

    def assign(i, total, m):
        if i == len(order):
            terms[m] = terms.get(m, 0) + 1
            return
        e = order[i]
        ub = min((sigma[a] for a in lowers[e]), default=bound)
        for v in range(min(ub, bound - total) + 1):
            sigma[e] = v
            assign(i + 1, total + v, m + powers[e][v])
        del sigma[e]

    assign(0, 0, 0)
    return Polynomial(terms)


@dataclass
class VerifyResult:
    ok: bool
    monomial: int = 0
    expected: int = 0
    actual: int = 0

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "ok"
        from .algebra import mono_str
        return ("mismatch at %s: enumeration gives %d, series gives %d"
                % (mono_str(self.monomial), self.expected, self.actual))


def verify(p, f, bound):
    """Compare the series of f against the enumerated truncation.

    Returns a VerifyResult; on failure it carries the first differing
    monomial (in graded order) with both coefficients.
    """
    expected = truncated_gf(p, bound)
    actual = f.series(bound)
    if expected == actual:
        return VerifyResult(True)
    want, got = expected._terms, actual._terms
    diff = {m for m in want.keys() | got.keys() if want.get(m, 0) != got.get(m, 0)}
    first = _layout(diff)[1][0]
    return VerifyResult(False, first, want.get(first, 0), got.get(first, 0))
