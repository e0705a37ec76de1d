"""Brute-force ground truth for every other module.

A P-partition is an order-reversing map sigma from the poset to the
non-negative integers.  Enumerating them directly from the definition and
summing the monomials x_a^sigma(a) gives a truncation of the generating
function that is independent of the transformation engine, so it can
verify the engine, the recurrence systems and the algebra layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Polynomial


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
    of total degree <= bound.  A negative bound raises ValueError."""
    if bound < 0:
        raise ValueError("negative truncation bound %d" % bound)
    order = _linear_extension(p)
    lowers = {e: p.lower_covers(e) for e in order}
    terms = {}
    sigma = {}

    def assign(i, total):
        if i == len(order):
            m = tuple(sorted(("x%d" % e, v) for e, v in sigma.items() if v))
            terms[m] = terms.get(m, 0) + 1
            return
        e = order[i]
        ub = min((sigma[a] for a in lowers[e]), default=bound)
        for v in range(min(ub, bound - total) + 1):
            sigma[e] = v
            assign(i + 1, total + v)
        del sigma[e]

    assign(0, 0)
    return Polynomial(terms)


@dataclass
class VerifyResult:
    ok: bool
    monomial: tuple = None
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
    diff = {m for m, c in expected.terms.items() if actual.terms.get(m, 0) != c}
    diff |= {m for m, c in actual.terms.items() if expected.terms.get(m, 0) != c}
    from .algebra import _mono_sortkey
    first = min(diff, key=_mono_sortkey)
    return VerifyResult(False, first, expected.terms.get(first, 0),
                        actual.terms.get(first, 0))
