"""Exact sparse arithmetic for the generating functions of P-partitions.

Everything here is built from three layers:

  * monomials   -- exponent maps over named variables, stored as sorted
                   tuples of (name, exponent) pairs; the empty tuple is 1;
  * Polynomial  -- finitely supported map monomial -> integer coefficient
                   (arbitrary precision, no zero coefficients stored);
  * RationalFunction -- a Polynomial numerator over a *multiset* of
                   monomials, each monomial m standing for a factor (1 - m).

The denominator is never expanded: every generating function produced by
the poset transformations is a polynomial over a product of (1 - monomial)
factors, and keeping the factored form preserves both sparsity and the
cancellations that the transformation identities create.

The only substitutions ever needed are multiplicative (variable -> monomial),
so a substitution is a plain dict {name: monomial}.  The variable name "q"
is reserved for the one-variable specialization.

Rational functions in q alone also have a dense form, a coefficient list
over a tuple of exponents, with its own arithmetic (the dense_* functions);
the recurrence's q-iteration runs on it, and so does every rf_sum whose
parts are all in one variable (gfun_q's sums), read in that variable.
Such a sum crosses between the kernels once each way: the pass that
checks that its parts share one variable also reads them as dense
values, and the dense result is written back as a normal form with
its keys and sorted denominator built directly.  Both kernels bring a
sum's parts to the common denominator with the one routine _lift, given
the kernel's own "times (1 - m)" and addition.
"""

from __future__ import annotations

import json
import operator
import random
import re
from bisect import bisect_right
from functools import reduce
from itertools import accumulate, repeat

Q = "q"


# ---------------------------------------------------------------------------
# monomials

def mono(items=()):
    """Canonical monomial from a dict or iterable of (name, exp) pairs."""
    if isinstance(items, dict):
        items = items.items()
    return tuple(sorted((v, e) for v, e in items if e))


def mono_var(name, exp=1):
    return ((name, exp),) if exp else ()


def mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = a[i]
        vb, eb = b[j]
        if va < vb:
            out.append(a[i])
            i += 1
        elif va > vb:
            out.append(b[j])
            j += 1
        else:
            e = ea + eb
            if e:
                out.append((va, e))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_deg(a):
    return sum(e for _, e in a)


def mono_subst(a, sub):
    """Apply a multiplicative substitution {name: monomial} to a monomial."""
    d = {}
    for v, e in a:
        img = sub.get(v)
        if img is None:
            d[v] = d.get(v, 0) + e
        else:
            for w, f in img:
                d[w] = d.get(w, 0) + f * e
    return tuple(sorted((v, e) for v, e in d.items() if e))


_VARKEY = {}


def _varkey(name):
    # natural order: alphabetic stem, then numeric suffix ("x2" before "x10")
    k = _VARKEY.get(name)
    if k is None:
        m = re.fullmatch(r"(.*?)(\d*)", name)
        k = (m.group(1), int(m.group(2)) if m.group(2) else -1)
        _VARKEY[name] = k
    return k


def _mono_sortkey(a):
    return (mono_deg(a), tuple((_varkey(v), e) for v, e in sorted(a, key=lambda p: _varkey(p[0]))))


def keeps_normal_form(sub, variables):
    """Whether substituting sub into any normal form in the given
    variables gives a normal form, with no factor left to cancel.

    True when every image (an unmapped variable is its own image) has a
    variable of exponent 1 that no other image contains.  Sending that
    variable back to its source and every other variable to 1 undoes the
    substitution, so a factor that divided the image would divide the
    original.  A renaming onto distinct variables is the simplest case.
    """
    images = [sub.get(v, ((v, 1),)) for v in variables]
    seen = {}
    for img in images:
        for w, _ in img:
            seen[w] = seen.get(w, 0) + 1
    return all(any(e == 1 and seen[w] == 1 for w, e in img) for img in images)


def mono_str(a):
    if not a:
        return "1"
    parts = []
    for v, e in sorted(a, key=lambda p: _varkey(p[0])):
        parts.append(v if e == 1 else "%s^%d" % (v, e))
    return "*".join(parts)


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """Sparse multivariate polynomial with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): 1})

    @classmethod
    def constant(cls, c):
        return cls({(): c})

    @classmethod
    def term(cls, m, c=1):
        return cls({m: c})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(other)
        return isinstance(other, Polynomial) and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                del out[m]
        p = Polynomial.__new__(Polynomial)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = Polynomial.__new__(Polynomial)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Polynomial.zero()
            p = Polynomial.__new__(Polynomial)
            p.terms = {m: c * other for m, c in self.terms.items()}
            return p
        out = {}
        if len(self.terms) > len(other.terms):
            a, b = self.terms, other.terms
        else:
            a, b = other.terms, self.terms
        for mb, cb in b.items():
            if not mb:
                for ma, ca in a.items():
                    s = out.get(ma, 0) + ca * cb
                    if s:
                        out[ma] = s
                    else:
                        del out[ma]
                continue
            for ma, ca in a.items():
                m = mono_mul(ma, mb)
                s = out.get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
        p = Polynomial.__new__(Polynomial)
        p.terms = out
        return p

    __rmul__ = __mul__

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((mono_deg(m) for m in self.terms), default=-1)

    def variables(self):
        vs = set()
        for m in self.terms:
            for v, _ in m:
                vs.add(v)
        return vs

    def substitute(self, sub):
        out = {}
        for m, c in self.terms.items():
            m2 = mono_subst(m, sub)
            s = out.get(m2, 0) + c
            if s:
                out[m2] = s
            else:
                del out[m2]
        p = Polynomial.__new__(Polynomial)
        p.terms = out
        return p

    def truncate(self, bound):
        """Drop every term of total degree above bound."""
        p = Polynomial.__new__(Polynomial)
        p.terms = {m: c for m, c in self.terms.items() if mono_deg(m) <= bound}
        return p

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _mono_sortkey(t[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            if m == ():
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono_str(m)
            else:
                body = "%d*%s" % (abs(c), mono_str(m))
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    __repr__ = __str__


def one_minus(m):
    """The polynomial 1 - m for a non-constant monomial m."""
    return Polynomial({(): 1, m: -1})


def _times_one_minus(p, m):
    """p * (1 - m) for a non-constant monomial m: p's terms, each minus
    its product with m, without the generic product's pass over 1."""
    out = dict(p.terms)
    for mo, c in p.terms.items():
        mo = mono_mul(mo, m)
        s = out.get(mo, 0) - c
        if s:
            out[mo] = s
        else:
            del out[mo]
    prod = Polynomial.__new__(Polynomial)
    prod.terms = out
    return prod


_PRIME = (1 << 61) - 1
_RESIDUE = {}


def _residue(name):
    """A fixed residue in [2, _PRIME - 2] for a variable, drawn from its name."""
    r = _RESIDUE.get(name)
    if r is None:
        r = _RESIDUE[name] = random.Random(name).randrange(2, _PRIME - 1)
    return r


def _point_where_one(m):
    """A fixed point mod _PRIME where m = 1, by its coordinates on m's
    variables; every variable u outside m is at its residue r_u.

    With (v, e) the first item of m, every other variable u of m takes
    r_u^e and v takes the inverse of prod r_u^e_u, so that
    m = (v * prod r_u^e_u)^e = 1.  For m = v^k that is v = 1.  Every
    multiple of (1 - m) vanishes there.
    """
    (v, e), rest = m[0], m[1:]
    point = {}
    inverse = 1
    for u, eu in rest:
        r = _residue(u)
        point[u] = pow(r, e, _PRIME)
        inverse = inverse * pow(r, eu, _PRIME) % _PRIME
    point[v] = pow(inverse, -1, _PRIME)
    return point


def _value_at(terms, point, powers):
    """The value mod _PRIME at point (see _point_where_one) of the sum of
    c * mo over the (mo, c) pairs in terms.  powers caches the value
    there of each item (u, k), for the calls at one point to share."""
    total = 0
    for mo, c in terms:
        for item in mo:
            x = powers.get(item)
            if x is None:
                u, k = item
                x = powers[item] = pow(point.get(u) or _residue(u), k, _PRIME)
            c *= x
        total += c
    return total % _PRIME


def _div_one_variable(p, v, k):
    """Quotient of a nonzero p by (1 - v^k) when exact, else None.

    Write p = sum_j v^j * c_j with each c_j free of v.  The quotient b
    satisfies b_j = c_j + b_(j-k), so within each residue class of j mod
    k it is a running sum of the c_j, and the division is exact iff, for
    every v-free monomial, the coefficients of each class sum to 0: the
    sparse, multivariate form of dense_div_one_minus.
    """
    classes = {}
    for mo, c in p.terms.items():
        j = 0
        for i, (u, e) in enumerate(mo):
            if u == v:
                j = e
                mo = mo[:i] + mo[i + 1:]
                break
        classes.setdefault((mo, j % k), []).append((j, c))
    for items in classes.values():
        if sum(c for _, c in items):
            return None
    out = {}
    for (rest, _), items in classes.items():
        items.sort()
        at = 0
        while at < len(rest) and rest[at][0] < v:
            at += 1
        head, tail = rest[:at], rest[at:]
        acc = 0
        for (j, c), (nxt, _) in zip(items, items[1:]):
            acc += c
            if acc:
                for e in range(j, nxt, k):
                    out[head + ((v, e),) + tail if e else rest] = acc
    quot = Polynomial.__new__(Polynomial)
    quot.terms = out
    return quot


def exact_div(p, m):
    """Quotient of p by (1 - m) when the division is exact, else None.

    For m = v^k in one variable, the test and the quotient are exact
    running sums over the residue classes of v's exponent mod k (see
    _div_one_variable).

    For m in two or more variables, two filters run first.  Each evaluates
    p at a point where m = 1, where (1 - m) and hence every multiple of it
    vanishes, so each can only reject a non-divisor and the result is the
    same as without them:

      * every variable at 1: p's coefficient sum must be 0;
      * a point modulo the prime 2^61 - 1 whose other coordinates are
        fixed pseudo-random residues (see _point_where_one), the point
        at which rf_sum reads a lifted numerator off its parts.

    The division then works degree layer by degree layer using
    q = p + m*q: the lowest remaining layer of the work pile is forced to
    be part of the quotient, and each accepted term pushes its product
    with m one layer up.  A nonzero layer above degree(p) - degree(m)
    certifies inexactness.
    """
    if not m:
        raise ValueError("division by (1 - 1)")
    if p.is_zero():
        return Polynomial.zero()
    if len(m) == 1:
        return _div_one_variable(p, *m[0])
    if sum(p.terms.values()):
        return None
    if _value_at(p.terms.items(), _point_where_one(m), {}):
        return None
    dm = mono_deg(m)
    maxd = p.degree()
    target = maxd - dm
    if target < 0:
        return None
    buckets = {}
    for mo, c in p.terms.items():
        buckets.setdefault(mono_deg(mo), {})[mo] = c
    out = {}
    d = 0
    while buckets:
        layer = buckets.pop(d, None)
        d += 1
        if not layer:
            continue
        live = {mo: c for mo, c in layer.items() if c}
        if not live:
            continue
        if d - 1 > target:
            return None
        nd = d - 1 + dm
        nxt = buckets.setdefault(nd, {})
        for mo, c in live.items():
            out[mo] = c
            mo2 = mono_mul(mo, m)
            nxt[mo2] = nxt.get(mo2, 0) + c
        if not nxt:
            del buckets[nd]
    return Polynomial(out)


# ---------------------------------------------------------------------------
# rational functions

class DenominatorCollapse(ValueError):
    """A substitution mapped a denominator monomial to 1."""


class RationalFunction:
    """numerator / product of (1 - m) over the denominator multiset.

    Normal form: zero numerator has an empty denominator, and no remaining
    denominator factor divides the numerator exactly.  Integer content of
    the numerator is preserved as-is.  Structural equality (==) compares
    normal forms; use rf_eq for equality as functions.  normalize=False
    may only wrap a normal form: the arithmetic below trusts its operands
    to be normal and tries only the factors that can still cancel.
    """

    __slots__ = ("num", "den", "_variables")

    def __init__(self, num, den=(), normalize=True):
        if isinstance(num, int):
            num = Polynomial.constant(num)
        den = tuple(sorted(den))
        for m in den:
            if not m:
                raise DenominatorCollapse("denominator factor (1 - 1)")
        self.num = num
        self.den = den
        self._variables = None
        if normalize:
            self._normalize()

    def _normalize(self, skip=None):
        """Cancel denominator factors against the numerator in one pass.

        Each factor is tried once, in order.  A factor that fails never
        needs a retry: if (1 - m) does not divide N, it does not divide
        N / (1 - m') either, so the copies of a failed factor, side by
        side in the sorted denominator, are not tried, and neither is a
        factor m for which skip(m) holds, the caller's proof that (1 - m)
        does not divide the given numerator; skip is asked only when m is
        about to be tried, and a skipped factor counts as failed.  Once
        the numerator's coefficient sum is nonzero no factor can divide
        it, since every multiple of (1 - m) vanishes where all variables
        are 1, so the pass stops.  Most factors of the deletion identity
        are one-variable (1 - x_b), and exact_div settles those by
        residue-class sums without a polynomial division.
        """
        if self.num.is_zero():
            self.den = ()
            return
        num = self.num
        kept = []
        failed = None
        divisible = not sum(num.terms.values())
        for m in self.den:
            if divisible and m != failed:
                if skip is None or not skip(m):
                    q = exact_div(num, m)
                    if q is not None:
                        num = q
                        divisible = not sum(num.terms.values())
                        continue
                failed = m
            kept.append(m)
        self.num = num
        self.den = tuple(kept)

    @classmethod
    def zero(cls):
        return cls(Polynomial.zero(), ())

    @classmethod
    def one(cls):
        return cls(Polynomial.one(), ())

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        return (isinstance(other, RationalFunction)
                and self.num == other.num and self.den == other.den)

    __hash__ = None

    def __neg__(self):
        return _normal(-self.num, self.den)

    def __add__(self, other):
        return rf_sum([self, other])

    def __sub__(self, other):
        return rf_sum([self, -other])

    def __mul__(self, other):
        if isinstance(other, int) or (isinstance(other, Polynomial)
                                      and len(other.terms) == 1):
            # 1 - m has content 1 and no monomial factor, so by Gauss's
            # lemma it divides c * x^a * N only if it divides N
            num = self.num * other
            return _normal(num, self.den if num else ())
        if isinstance(other, Polynomial):
            return RationalFunction(self.num * other, self.den)
        return RationalFunction(self.num * other.num, self.den + other.den)

    __rmul__ = __mul__

    def over(self, m):
        """Divide by (1 - m).  No factor of a normal form divides its
        numerator, nor the numerator over (1 - m), so only (1 - m) is
        tried, and only as _normalize would: when m is not in den already
        and the numerator's coefficient sum is 0.  Otherwise, or when the
        division is inexact, m joins the sorted denominator."""
        if not m:
            raise DenominatorCollapse("denominator factor (1 - 1)")
        num, den = self.num, self.den
        if not num.terms:
            return _normal(num, ())
        if m not in den and not sum(num.terms.values()):
            quot = exact_div(num, m)
            if quot is not None:
                return _normal(quot, den)
        at = bisect_right(den, m)
        return _normal(num, den[:at] + (m,) + den[at:])

    def substitute(self, sub):
        """Simultaneous multiplicative substitution of variables by monomials.

        The result is renormalized unless keeps_normal_form(sub, variables)
        holds, in which case it is already a normal form.
        """
        num = self.num.substitute(sub)
        den = []
        for m in self.den:
            m2 = mono_subst(m, sub)
            if not m2:
                raise DenominatorCollapse("factor (1 - %s) collapsed" % mono_str(m))
            den.append(m2)
        return RationalFunction(
            num, den, not keeps_normal_form(sub, self.variables()))

    def series(self, bound):
        """Taylor expansion at 0 truncated to total degree <= bound.
        A negative bound, or a denominator factor (1 - m) with m of total
        degree <= 0, whose geometric series no bound truncates, raises
        ValueError."""
        if bound < 0:
            raise ValueError("negative truncation bound %d" % bound)
        out = self.num.truncate(bound)
        for m in self.den:
            dm = mono_deg(m)
            if dm <= 0:
                raise ValueError("factor (1 - %s) of total degree %d has no "
                                 "series" % (mono_str(m), dm))
            geo = {(): 1}
            mk = m
            k = dm
            while k <= bound:
                geo[mk] = 1
                mk = mono_mul(mk, m)
                k += dm
            out = _trunc_mul(out, Polynomial(geo), bound)
        return out

    def variables(self):
        """The variables of the numerator and the denominator, as a
        frozenset found on the first call: engine.gfun substitutes into
        each stored value on every memo hit."""
        if self._variables is None:
            vs = self.num.variables()
            for m in self.den:
                for v, _ in m:
                    vs.add(v)
            self._variables = frozenset(vs)
        return self._variables

    def __str__(self):
        num = str(self.num)
        if not self.den:
            return num
        if len(self.num.terms) > 1 or num.startswith("-"):
            num = "(%s)" % num
        factors = "".join("(1-%s)" % mono_str(m)
                          for m in sorted(self.den, key=_mono_sortkey))
        if len(self.den) > 1:
            return "%s/(%s)" % (num, factors)
        return "%s/%s" % (num, factors)

    __repr__ = __str__

    def to_json(self):
        num = [[c, {v: e for v, e in m}] for m, c in self.num.sorted_terms()]
        den = [{v: e for v, e in m} for m in sorted(self.den, key=_mono_sortkey)]
        return {"num": num, "den": den}

    @classmethod
    def from_json(cls, obj):
        num = {}
        for c, m in obj["num"]:
            num[mono(m)] = num.get(mono(m), 0) + int(c)
        den = [mono(m) for m in obj["den"]]
        return cls(Polynomial(num), den)

    def dumps(self):
        return json.dumps(self.to_json())

    @classmethod
    def loads(cls, text):
        return cls.from_json(json.loads(text))


def _normal(num, den):
    """The RationalFunction num / den, den a sorted tuple of non-constant
    monomials already, built without __init__'s sort and checks.  It is
    a normal form if the caller knows it is one, or once the caller has
    run _normalize on it (rf_sum's lifted sum)."""
    f = RationalFunction.__new__(RationalFunction)
    f.num = num
    f.den = den
    f._variables = None
    return f


def _trunc_mul(a, b, bound):
    out = {}
    for ma, ca in a.terms.items():
        da = mono_deg(ma)
        for mb, cb in b.terms.items():
            if da + mono_deg(mb) > bound:
                continue
            m = mono_mul(ma, mb)
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                del out[m]
    p = Polynomial.__new__(Polynomial)
    p.terms = out
    return p


def rf_sum(terms):
    """Sum of rational functions over the least common factored denominator.

    When every part is in one variable v, with no negative exponent, the
    parts are read as dense values in v (_dense_parts) and the sum runs
    on the dense kernel (dense_sum), whose normalization follows
    _normalize rule for rule, so the result is the same.

    Otherwise the sorted denominators are joined into the common one as
    dense_sum joins them (_join), each part's numerator N_i is lifted by
    the factors (1 - m) its denominator lacks (_minus), the parts
    together (_lift, which multiplies a factor that several parts lack
    into their partial sum once), and the lifted sum L is normalized.  Where the parts hold fewer terms than L,
    a factor m is first tested on them: L's value mod 2^61 - 1 at the
    point where m = 1 (_point_where_one) is the sum of the N_i there
    times their lacked factors there.  A nonzero value proves that
    (1 - m) divides neither L nor any quotient of it, so m is not tried
    (see _lifted_value); the result is the same.
    """
    terms = list(terms)
    if not terms:
        return RationalFunction.zero()
    if len(terms) == 1:
        return terms[0]
    dense = _dense_parts(terms)
    if dense is not None:
        values, v = dense
        return dense_to_rf(dense_sum(values), v)
    common = reduce(_join, [f.den for f in terms])
    parts = [(f.num, _minus(common, f.den)) for f in terms]
    f = _normal(_lift(parts, _times_one_minus, operator.add), tuple(common))
    small = sum(len(p.terms) for p, _ in parts) < len(f.num.terms)
    f._normalize(_ruled_out_on(parts) if small else None)
    return f


def _lift(parts, times, add):
    """Sum of num * prod of (1 - m) over m in lack, for (num, lack) pairs,
    on either kernel: times(num, m) is num * (1 - m) and add(a, b) is
    a + b (dense_mul_one_minus and _dense_add for dense values,
    _times_one_minus and + for Polynomials).  No argument is changed.

    The factor lacked by the most parts multiplies their partial sum once,
    with one copy taken out of what each of them lacks; that repeats on
    the other parts until no factor is shared, and the rest are multiplied
    one by one.  Ties go to the factor met first in the parts' order,
    each part's lacked factors read in their sorted order (both callers
    take them from _minus), so the arithmetic done does not depend on
    hash order.
    """
    pieces = []
    while len(parts) > 1:
        shared = {}
        for _, lack in parts:
            for m in dict.fromkeys(lack):
                shared[m] = shared.get(m, 0) + 1
        m = max(shared, key=shared.get, default=None)
        if m is None or shared[m] < 2:
            break
        inner, rest = [], []
        for num, lack in parts:
            if m in lack:
                i = lack.index(m)
                inner.append((num, lack[:i] + lack[i + 1:]))
            else:
                rest.append((num, lack))
        pieces.append(times(_lift(inner, times, add), m))
        parts = rest
    for num, lack in parts:
        for m in lack:
            num = times(num, m)
        pieces.append(num)
    return reduce(add, pieces)


def _lifted_value(parts, point):
    """The value mod _PRIME at point of the sum of num * prod (1 - m) over
    m in lack, for the (num, lack) pairs in parts, read off the parts."""
    powers = {}
    total = 0
    for num, lack in parts:
        x = 1
        for m in lack:
            x = x * (1 - _value_at(((m, 1),), point, powers)) % _PRIME
        if x:
            total += x * _value_at(num.terms.items(), point, powers)
    return total % _PRIME


def _dense_parts(terms):
    """(values, v): rational functions in the one variable v as dense
    values in v, read in one pass over their terms (v is Q when they have
    no variable).  None at the first monomial in two variables, in a
    second variable or with a negative exponent.

    A RationalFunction keeps its denominator sorted, which in one
    variable is ascending k, so each part's k are read in order.
    """
    v = None
    values = []
    for f in terms:
        coeffs = []
        for mo, c in f.num.terms.items():
            d = 0
            if mo:
                if len(mo) > 1:
                    return None
                (u, d), = mo
                if u != v:
                    if v is not None:
                        return None
                    v = u
                if d < 0:
                    return None
            if d >= len(coeffs):
                coeffs.extend(repeat(0, d + 1 - len(coeffs)))
            coeffs[d] = c
        den = []
        for m in f.den:
            if len(m) > 1:
                return None
            (u, k), = m
            if u != v:
                if v is not None:
                    return None
                v = u
            if k < 0:
                return None
            den.append(k)
        values.append((coeffs, tuple(den)))
    return values, v or Q


def _ruled_out_on(parts):
    """The test by which rf_sum's normalization skips a factor m: the
    lifted sum of parts is nonzero at the point where m = 1.

    rf_sum sums one-variable parts dense, so m's point is the all-ones
    point, whose value the normalization has already found to be 0, only
    in a one-variable sum with a negative exponent; there the test is
    wasted, never wrong.
    """
    def ruled_out(m):
        # a part lacking (1 - m) itself adds 0 at m's point
        return bool(_lifted_value([part for part in parts if m not in part[1]],
                                  _point_where_one(m)))
    return ruled_out


def rf_eq(a, b):
    """True iff a and b are equal as functions: each numerator times the
    denominator factors the other side has beyond its own."""
    if a.num == b.num and a.den == b.den:
        return True
    left = reduce(_times_one_minus, _minus(b.den, a.den), a.num)
    right = reduce(_times_one_minus, _minus(a.den, b.den), b.num)
    return left == right


# ---------------------------------------------------------------------------
# dense univariate values
#
# A rational function in q alone is kept as a pair (coeffs, den): coeffs is
# a list of ints indexed by the power of q with no trailing zeros (the
# empty list is 0), and den is the sorted tuple of the k of its (1 - q^k)
# factors.  The functions below follow the sparse ones rule for rule, so
# dense_to_rf of a result equals what the sparse algebra gives, byte for
# byte when rendered.  None of them mutates its arguments.

def dense_mul(a, b):
    """Product of two coefficient lists.

    Schoolbook: at the degrees the q-iteration reaches (a few hundred),
    Kronecker substitution into one Python int measured slower.
    """
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    la = len(a)
    out = [0] * (la + len(b) - 1)
    for j, cb in enumerate(b):
        if cb:
            out[j:j + la] = map(operator.add, out[j:j + la],
                                map(operator.mul, a, repeat(cb, la)))
    return out


def dense_mul_one_minus(a, k):
    """a * (1 - q^k), for k >= 1."""
    if not a:
        return []
    out = a + [0] * k
    out[k:] = map(operator.sub, out[k:], a)
    return out


def dense_div_one_minus(a, k):
    """Quotient of a by (1 - q^k) when the division is exact, else None.

    The quotient b satisfies b_i = a_i + b_(i-k), so each residue class
    of indices mod k is a running sum of a's; the division is exact iff
    every class sums to 0, that is iff the last k running sums vanish.
    """
    if not a:
        return []
    top = len(a) - k
    if top <= 0:
        return None
    for r in range(k):
        if sum(a[r::k]):
            return None
    b = a[:top]
    for r in range(k):
        b[r::k] = accumulate(b[r::k])
    return b


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def dense_normalize(num, den):
    """Cancel (1 - q^k) factors against num, as RationalFunction._normalize:
    one pass in ascending k, stopping once the coefficient sum is nonzero.

    A k that is a multiple of a k that failed is not tried: (1 - q^d)
    divides (1 - q^k) when d divides k, and a factor that does not divide
    the numerator does not divide its quotients either.
    """
    if not num:
        return [], ()
    kept = []
    failed = []
    divisible = not sum(num)
    for k in den:
        if divisible and all(k % d for d in failed):
            quot = dense_div_one_minus(num, k)
            if quot is not None:
                num = quot
                divisible = not sum(num)
                continue
            failed.append(k)
        kept.append(k)
    return num, tuple(kept)


def to_dense(f, exps):
    """f at the point where each variable v is q^exps[v], as a dense value
    before normalization.

    A variable with no entry in exps is q itself (exponent 1).  Every
    exponent of the result must be non-negative.
    """
    num = {}
    for m, c in f.num.terms.items():
        d = 0
        for v, e in m:
            d += e * exps.get(v, 1)
        num[d] = num.get(d, 0) + c
    den = []
    for m in f.den:
        k = 0
        for v, e in m:
            k += e * exps.get(v, 1)
        if not k:
            raise DenominatorCollapse("factor (1 - %s) collapsed" % mono_str(m))
        den.append(k)
    if min(num, default=0) < 0 or min(den, default=1) < 0:
        raise ValueError("negative exponent of q")
    coeffs = [0] * (max(num, default=-1) + 1)
    for d, c in num.items():
        coeffs[d] = c
    return _trim(coeffs), tuple(sorted(den))


def dense_eval(f, exps):
    """f at the point where each variable v is q^exps[v], normalized
    (see to_dense)."""
    return dense_normalize(*to_dense(f, exps))


def dense_product(f, g):
    """Product of two dense values, normalized."""
    return dense_normalize(dense_mul(f[0], g[0]), sorted(f[1] + g[1]))


def _dense_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return list(map(operator.add, a, b)) + a[len(b):]


def _minus(a, b):
    """The multiset difference a - b of two sorted sequences."""
    out = []
    j = 0
    for k in a:
        while j < len(b) and b[j] < k:
            j += 1
        if j < len(b) and b[j] == k:
            j += 1
        else:
            out.append(k)
    return out


def _join(a, b):
    """The multiset maximum of two sorted sequences, as a sorted list: each
    item as many times as the more of a and b holds it."""
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x < y:
            out.append(x)
            i += 1
        elif y < x:
            out.append(y)
            j += 1
        else:
            out.append(x)
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def dense_sum(values):
    """Sum of dense values over the least common denominator, as rf_sum:
    the denominators are joined by one sorted merge each (_join), the
    parts are lifted together by _lift on the dense operations, and the
    sum is normalized by dense_normalize."""
    values = list(values)
    if not values:
        return [], ()
    if len(values) == 1:
        return values[0]
    common = reduce(_join, [den for _, den in values])
    total = _lift([(num, _minus(common, den)) for num, den in values],
                  dense_mul_one_minus, _dense_add)
    return dense_normalize(_trim(total), common)


def dense_to_rf(value, v=Q):
    """The RationalFunction in v of a dense value (already normalized):
    the keys ((v, d),) and the denominator, sorted as its k are, are
    written directly."""
    num, den = value
    p = Polynomial.__new__(Polynomial)
    p.terms = {((v, d),) if d else (): c for d, c in enumerate(num) if c}
    return _normal(p, tuple([((v, k),) for k in den]))


# ---------------------------------------------------------------------------
# text format
#
# rf     := poly [ "/" den ]
# den    := factor+ | "(" factor+ ")"
# factor := "(" poly ")"        where the poly must have the shape 1 - monomial
# poly   := ["-"] term (("+"|"-") term)*
# term   := INT ["*" monopart] | monopart
# monopart := var ["^" INT] ("*" var ["^" INT])*
# with the usual parenthesized sub-expressions allowed inside poly.

class ParseError(ValueError):
    pass


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError("bad character at %r" % text[pos:pos + 10])
            break
        if m.group(1):
            out.append(("int", int(m.group(1))))
        elif m.group(2):
            out.append(("name", m.group(2)))
        else:
            out.append((m.group(3), None))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError("expected %r, got %r" % (kind, t[0]))
        return t

    def parse_poly(self):
        sign = 1
        if self.peek()[0] == "-":
            self.next()
            sign = -1
        p = self.parse_product() * sign
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            t = self.parse_product()
            p = p + t if op == "+" else p - t
        return p

    def parse_product(self):
        p = self.parse_atom()
        while True:
            k = self.peek()[0]
            if k == "*":
                self.next()
                p = p * self.parse_atom()
            elif k == "(":
                p = p * self.parse_atom()
            else:
                return p

    def parse_atom(self):
        kind, val = self.next()
        if kind == "int":
            return Polynomial.constant(val)
        if kind == "name":
            exp = 1
            if self.peek()[0] == "^":
                self.next()
                exp = self.expect("int")[1]
            return Polynomial.term(mono_var(val, exp))
        if kind == "(":
            p = self.parse_poly()
            self.expect(")")
            return p
        raise ParseError("unexpected token %r" % kind)


def parse_polynomial(text):
    p = _Parser(_tokenize(text))
    out = p.parse_poly()
    if p.peek()[0] is not None:
        raise ParseError("trailing input")
    return out


def _as_den_factor(p):
    terms = dict(p.terms)
    if terms.pop((), None) != 1:
        raise ParseError("denominator factor is not of the form (1 - monomial)")
    if len(terms) != 1:
        raise ParseError("denominator factor is not of the form (1 - monomial)")
    (m, c), = terms.items()
    if c != -1:
        raise ParseError("denominator factor is not of the form (1 - monomial)")
    return m


def parse_rational(text):
    """Parse the canonical rendering of a RationalFunction."""
    toks = _tokenize(text)
    split = None
    depth = 0
    for i, (k, _) in enumerate(toks):
        if k == "(":
            depth += 1
        elif k == ")":
            depth -= 1
        elif k == "/" and depth == 0:
            split = i
            break
    if split is None:
        return RationalFunction(parse_polynomial(text), ())
    left = _Parser(toks[:split])
    num = left.parse_poly()
    if left.peek()[0] is not None:
        raise ParseError("trailing input before /")
    rest = toks[split + 1:]
    if not rest or rest[0][0] != "(":
        raise ParseError("expected denominator factors after /")
    # strip one optional layer of outer parentheses wrapping the factor list
    depth = 0
    close = None
    for i, (k, _) in enumerate(rest):
        if k == "(":
            depth += 1
        elif k == ")":
            depth -= 1
            if depth == 0:
                close = i
                break
    if close == len(rest) - 1 and rest[1][0] == "(":
        rest = rest[1:-1]
    parser = _Parser(rest)
    den = []
    while parser.peek()[0] is not None:
        parser.expect("(")
        den.append(_as_den_factor(parser.parse_poly()))
        parser.expect(")")
    if not den:
        raise ParseError("empty denominator")
    return RationalFunction(num, den)
