"""Output checks that share no code with ppgf's engine, recurrence or algebra.

Stanley's fundamental lemma for P-partitions (Ordered structures and
partitions, 1972; EC1 3.15): under a natural labelling of a poset P with
p elements,

    sum over P-partitions sigma of q^|sigma|
        = (sum over linear extensions w of q^maj(w)) / (q;q)_p.

``maj_numerator`` computes that numerator by a dynamic programme over
(down-set, last element).  ``q_image`` reads the program's ``--json``
rendering of a rational function directly and sends every monomial to
q^(total degree); ``matches_maj`` cross-multiplies the two, so a result
passes only when its full numerator over (q;q)_p equals the maj
numerator.  Polynomials here are plain lists of Python ints, index =
exponent of q.
"""

from __future__ import annotations


def _add_shifted(acc, poly, shift):
    need = len(poly) + shift
    if len(acc) < need:
        acc.extend([0] * (need - len(acc)))
    for i, c in enumerate(poly):
        acc[i + shift] += c


def _trim(poly):
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def maj_numerator(elements, below):
    """Sum of q^maj(w) over the linear extensions w of the poset.

    elements: the elements in any order that extends the poset (a natural
    labelling: position in this sequence is the label).  below: element ->
    set of the elements strictly below it.
    """
    label = {e: i for i, e in enumerate(elements)}
    need = [0] * len(elements)
    for e in elements:
        for b in below[e]:
            if label[b] > label[e]:
                raise ValueError("element order does not extend the poset")
            need[label[e]] |= 1 << label[b]
    layer = {(0, -1): [1]}
    for placed in range(len(elements)):
        nxt = {}
        for (mask, last), poly in layer.items():
            for e in range(len(elements)):
                if mask >> e & 1 or need[e] & ~mask:
                    continue
                # a descent between positions placed and placed + 1
                shift = placed if last > e else 0
                _add_shifted(nxt.setdefault((mask | 1 << e, e), []), poly, shift)
        layer = nxt
    total = [0]
    for poly in layer.values():
        _add_shifted(total, poly, 0)
    return _trim(total)


def poset_maj_numerator(poset):
    """maj_numerator of a ppgf Poset, read through its public relations."""
    below = {e: set(poset.below(e)) for e in poset.elements}
    order = sorted(poset.elements, key=lambda e: (len(below[e]), e))
    return maj_numerator(order, below)


def q_image(rf_json):
    """(numerator, denominator exponents) of the --json rendering of a
    rational function, with every monomial sent to q^(total degree)."""
    num = []
    for coef, mono in rf_json["num"]:
        _add_shifted(num, [int(coef)], sum(mono.values()))
    den = [sum(mono.values()) for mono in rf_json["den"]]
    if any(k <= 0 for k in den):
        raise ValueError("denominator factor of degree %r" % (den,))
    return _trim(num), den


def _times_one_minus(poly, k):
    """poly * (1 - q^k)."""
    out = poly + [0] * k
    for i, c in enumerate(poly):
        out[i + k] -= c
    return out


def matches_maj(rf_json, size, maj):
    """True iff the rational function equals maj / (q;q)_size."""
    num, den = q_image(rf_json)
    for k in range(1, size + 1):
        num = _times_one_minus(num, k)
    rhs = list(maj)
    for k in den:
        rhs = _times_one_minus(rhs, k)
    return _trim(num) == _trim(rhs)


def series(rf_json, bound):
    """Taylor expansion to total degree <= bound of the --json rendering,
    as {sorted tuple of (variable, exponent): coefficient}."""
    def mono(d):
        return tuple(sorted((v, int(e)) for v, e in d.items() if e))

    def deg(m):
        return sum(e for _, e in m)

    def mul(a, b):
        out = dict(a)
        for v, e in b:
            out[v] = out.get(v, 0) + e
        return tuple(sorted(out.items()))

    acc = {}
    for coef, m in rf_json["num"]:
        m = mono(m)
        if deg(m) <= bound:
            acc[m] = acc.get(m, 0) + int(coef)
    for factor in rf_json["den"]:
        f = mono(factor)
        step = deg(f)
        nxt = {}
        for m, c in acc.items():
            power, d = m, deg(m)
            while d <= bound:
                nxt[power] = nxt.get(power, 0) + c
                power, d = mul(power, f), d + step
        acc = nxt
    return {m: c for m, c in acc.items() if c}
