"""Exact sparse arithmetic for the generating functions of P-partitions.

Everything here is built from three layers:

  * monomials   -- exponent maps over named variables, each packed into
                   one Python int (below); 0 is the monomial 1;
  * Polynomial  -- finitely supported map monomial -> integer coefficient
                   (arbitrary precision, no zero coefficients stored);
  * RationalFunction -- a Polynomial numerator over a *multiset* of
                   monomials, each monomial m standing for a factor (1 - m).

A monomial is packed in graded fixed-width fields (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  Each variable name is interned to an index i the
first time the process meets it; field i + 1, W = 24 bits wide, holds
its exponent and field 0 the total degree.  Every exponent is
non-negative and the degree below 2^(W-3), which is checked where a
monomial is made and raises MonomialOverflow otherwise; no field can
then exceed the degree, and the sum of two monomials carries nothing
from one field into the next.  A product of monomials is the sum of
their ints plus one check of its degree, the total degree is a mask,
and term dicts hash ints.  Decoding reads only the nonzero fields.

RationalFunction.den is sorted as plain ints.  The normal form tries
factors in den's order, but only the order among the powers of each
primitive monomial m0 (one whose exponents have gcd 1) can change it:
1 - m0^g is the product of the cyclotomic Phi_d(m0) over d | g, each
irreducible, and factors on different primitive monomials share no
irreducible factor, so dividing by a factor on one primitive monomial
leaves unchanged whether a factor on another one divides.  Packing is
linear in the exponents (m0^a packs to a * m0), so the int order lists
the powers of m0 in ascending a, as the sorted tuples of (name,
exponent) pairs (_mono_key) do, whatever the order names were interned
in.  Polynomial.terms is a read view keyed by those tuples.  Rendering
(_layout) reads each term's exponents from its fields through one table
of the object's variables in natural order (x2 before x10, ties on the
name), and sorts the terms by one int key each: the degree, then one
W-bit field per variable of the table holding its exponent, or 2^(W-3)
where it is absent.  That is the graded order, then by the (rank,
exponent) pair lists, a rank a variable's place in the table: within one
degree neither list is a prefix of the other, so at the first differing
field the exponents differ or one side lacks the lower rank, and 2^(W-3)
is above every exponent.

The denominator is never expanded: every generating function produced by
the poset transformations is a polynomial over a product of (1 - monomial)
factors, and keeping the factored form preserves both sparsity and the
cancellations that the transformation identities create.

The only substitutions ever needed are multiplicative (variable -> monomial),
so a substitution is a plain dict {name: monomial}.  The variable name "q"
is reserved for the one-variable specialization.  A substitution is
prepared once per call (_substitution) as a linear map on packed ints:
for each variable x not sent to itself, its field's shift and the
difference image - x, and a degree cap, 2^(W-3) over the largest image
degree.  A monomial maps to itself plus each of its exponents times its
variable's difference, one shift and mask per entry.  Below the cap no
field can leave its range, since the result's degree is at most the
monomial's times the largest image's; at or above it the result's
degree is summed exactly, which raises MonomialOverflow exactly where
the result leaves a field.  RationalFunction.substitute
renormalizes unless keeps_normal_form shows that the substitution
keeps every normal form; engine.gfun's inner lookups, whose bindings
always keep it, use _substituted, the same substitution without the
check.  _substituted prepares the substitution once, for the
numerator (through Polynomial.substitute) and the denominator alike:
a pair already prepared passes through _substitution unchanged.
gfun's inner lookups arrive prepared by position
(_positional_substitution): the images of v0, v1, ... in order, each
variable's shift and monomial read from a table of the positional
variables rather than from its name.

Rational functions in q alone also have a dense form, a coefficient list
over a tuple of exponents, with its own arithmetic (the dense_* functions);
the recurrence's q-iteration runs on it, and so does every rf_sum whose
parts are all in q alone (gfun_q's sums).  A sum in one other variable
takes the sparse kernel, which gives the same normal form.  A dense sum
crosses between the kernels once each way: the pass that checks that
its parts are in q alone also reads them as dense values, and the dense
result is written back as a normal form with its keys and sorted
denominator built directly.  The sparse kernel
brings a sum's parts to the common denominator with _lift, which
multiplies a factor several parts lack into their partial sum once.
The dense kernel lifts each part on its own: a large sum packs each
coefficient list into one int (Kronecker substitution; D. Harvey,
J. Symbolic Comput. 44, 2009), where a product by (1 - q^k) is one
shift and subtraction and sharing factors would save next to nothing,
and a small one multiplies the lists.
"""

from __future__ import annotations

import json
import operator
import random
import re
import sys
from array import array
from bisect import bisect_right
from functools import lru_cache, reduce
from itertools import accumulate, chain, repeat

Q = "q"


# ---------------------------------------------------------------------------
# monomials

_W = 24
_MASK = (1 << _W) - 1
_LIMIT = 1 << (_W - 3)
_NAMES = []
_INDEX = {}


class MonomialOverflow(ValueError):
    """A negative exponent, or a total degree past its packed field."""


def _overflow(deg):
    return MonomialOverflow("total degree %d leaves its %d-bit field"
                            % (deg, _W))


def _index(name):
    i = _INDEX.get(name)
    if i is None:
        i = _INDEX[name] = len(_NAMES)
        _NAMES.append(name)
    return i


def _pack(items):
    """The monomial of (index, exponent) pairs, a repeated index's
    exponents summed.  The degree is summed as an int, since an exponent
    past its field would carry out of it in the packed sum."""
    m = deg = 0
    for i, e in items:
        if e < 0:
            raise MonomialOverflow("negative exponent %d of %s"
                                   % (e, _NAMES[i]))
        m += e << (_W * (i + 1))
        deg += e
    if deg >= _LIMIT:
        raise _overflow(deg)
    return m + deg


def _items(m):
    """The (index, exponent) pairs of m's variables, in index order.

    Each step reads one nonzero field or skips a run of zero fields to
    the next one, so the cost is per variable m holds."""
    v = m >> _W
    out = []
    i = 0
    while v:
        e = v & _MASK
        if e:
            out.append((i, e))
            v >>= _W
            i += 1
        else:
            k = ((v & -v).bit_length() - 1) // _W
            v >>= k * _W
            i += k
    return out


def mono(items=()):
    """The monomial of a dict or iterable of (name, exp) pairs; the
    exponents of a repeated name are summed."""
    if isinstance(items, dict):
        items = items.items()
    return _pack([(_index(v), e) for v, e in items])


def mono_var(name, exp=1):
    if exp < 0:
        raise MonomialOverflow("negative exponent %d of %s" % (exp, name))
    if exp >= _LIMIT:
        raise _overflow(exp)
    return exp + (exp << (_W * (_index(name) + 1)))


# the packed q, whose multiples are the powers of q
_QUNIT = mono_var(Q)


def mono_mul(a, b):
    m = a + b
    if m & _MASK >= _LIMIT:
        raise _overflow(m & _MASK)
    return m


def mono_pow(m, k):
    """m^k for an integer k >= 0."""
    d = (m & _MASK) * k
    if not 0 <= d < _LIMIT:
        raise _overflow(d)
    return m * k


def mono_deg(m):
    return m & _MASK


def _mono_key(m):
    """m as the sorted tuple of its (name, exponent) pairs: the key of
    Polynomial.terms."""
    return tuple(sorted([(_NAMES[i], e) for i, e in _items(m)]))


def _indices(monos):
    """The set of the indices of the variables of the given monomials,
    OR-ed together and decoded once."""
    return {i for i, _ in _items(reduce(operator.or_, monos, 0))}


def _substitution(sub):
    """A substitution {name: monomial} prepared for _subst, as a list of
    (shift, image - x_i) for each interned name i (no monomial holds any
    other) not mapped to itself, x_i the name's own monomial, and a
    degree cap: _LIMIT // the largest image degree.  Replacing e copies
    of x_i by e copies of its image adds e times its difference, and
    below the cap no field of the result can leave its range, since the
    result's degree is at most the monomial's times the largest
    image's.  A pair already prepared is returned unchanged."""
    if type(sub) is tuple:
        return sub
    return _prepared((_field(i), img) for v, img in sub.items()
                     if (i := _INDEX.get(v)) is not None)


def _field(i):
    """(shift, monomial) of the variable of index i."""
    s = _W * (i + 1)
    return s, (1 << s) + 1


def _prepared(pairs):
    """The (deltas, cap) pair of _substitution from ((shift, x_i), image)
    pairs, one for each variable x_i the substitution names."""
    deltas = []
    top = 1
    for (s, x), img in pairs:
        d = img - x
        if d:
            deltas.append((s, d))
            if img & _MASK > top:
                top = img & _MASK
    return deltas, _LIMIT // top


# _field of each positional variable v0, v1, ..., interned in that order
# the first time a binding or a substitution reaches its position
_POSITIONS = []


def _positions(n):
    """_POSITIONS, grown to at least n entries."""
    while len(_POSITIONS) < n:
        _POSITIONS.append(_field(_index("v%d" % len(_POSITIONS))))
    return _POSITIONS


def _positional_substitution(images):
    """_substitution({"v0": images[0], "v1": images[1], ...}), read off
    the table of the positional variables' fields instead of formatting
    and looking up each name."""
    return _prepared(zip(_positions(len(images)), images))


def _positional_variables(n):
    """The monomials of v0, ..., v<n-1> as a tuple, read off the same
    table: the binding by position of a poset of n elements."""
    return tuple([x for _, x in _positions(n)[:n]])


def _subst(m, sub):
    """m under a substitution prepared by _substitution: m plus each
    field's exponent times its difference, the packing being linear in
    the exponents.  At or above the degree cap the result's degree is
    summed exactly, each copy of x_i adding its image's degree minus 1,
    and MonomialOverflow raised where it leaves its field."""
    deltas, cap = sub
    out = m
    for s, d in deltas:
        e = (m >> s) & _MASK
        if e:
            out += e * d
    if m & _MASK >= cap:
        deg = m & _MASK
        for s, d in deltas:
            # d + 1 is the image minus 1 << s, which has no bit in field
            # 0, so field 0 of d + 1 (as two's complement if negative)
            # is the image's degree
            deg += ((m >> s) & _MASK) * (((d + 1) & _MASK) - 1)
        if deg >= _LIMIT:
            raise _overflow(deg)
    return out


def mono_subst(a, sub):
    """Apply a multiplicative substitution {name: monomial} to a monomial."""
    return _subst(a, _substitution(sub))


def keeps_normal_form(sub, variables):
    """Whether substituting sub into any normal form in the given
    variables gives a normal form, with no factor left to cancel.

    True when every image (an unmapped variable is its own image) has a
    variable of exponent 1 that no other image contains.  Sending that
    variable back to its source and every other variable to 1 undoes the
    substitution, so a factor that divided the image would divide the
    original.  A renaming onto distinct variables is the simplest case.
    """
    images = []
    for v in variables:
        img = sub[v] if v in sub else mono_var(v)
        if img & _MASK == 1:
            # one variable to the power 1, read off its highest bit
            images.append((((img.bit_length() - 1) // _W - 1, 1),))
        else:
            images.append(_items(img))
    seen = {}
    for img in images:
        for i, _ in img:
            seen[i] = seen.get(i, 0) + 1
    return all(any(e == 1 and seen[i] == 1 for i, e in img) for img in images)


@lru_cache(maxsize=None)
def _varkey(name):
    # natural order: alphabetic stem, then numeric suffix ("x2" before
    # "x10"), then the name itself ("x1" before "x01")
    m = re.fullmatch(r"(.*?)(\d*)", name)
    return m.group(1), int(m.group(2)) if m.group(2) else -1, name


def _layout(monos):
    """The field table of monos, the (name, shift) pair of each of their
    variables in natural order (_varkey), and monos in rendering order,
    sorted by one int key each (see the module docstring)."""
    table = sorted([(_NAMES[i], _W * (i + 1)) for i in _indices(monos)],
                   key=lambda field: _varkey(field[0]))
    shifts = [s for _, s in table]

    def key(m):
        k = m & _MASK
        for s in shifts:
            k = k << _W | ((m >> s) & _MASK or _LIMIT)
        return k

    return table, sorted(monos, key=key)


def _pairs(m, table):
    """m's (name, exponent) pairs in the table's order."""
    return [(v, e) for v, s in table if (e := (m >> s) & _MASK)]


def _text(pairs):
    return "*".join(v if e == 1 else "%s^%d" % (v, e) for v, e in pairs) or "1"


def mono_str(a):
    return _text(_pairs(a, _layout((a,))[0]))


def mono_json(a):
    """a as a dict {name: exponent} in name order, as to_json writes it."""
    return dict(_pairs(a, sorted(_layout((a,))[0])))


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """Sparse multivariate polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """terms maps monomials, packed or in any form mono reads (such
        as the keys of .terms), to coefficients."""
        self._terms = {m if type(m) is int else mono(m): c
                       for m, c in (terms or {}).items() if c}

    @property
    def terms(self):
        """A fresh read view {sorted tuple of (name, exp): coefficient}."""
        return {_mono_key(m): c for m, c in self._terms.items()}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return _poly({0: 1})

    @classmethod
    def constant(cls, c):
        return cls({0: c})

    @classmethod
    def term(cls, m, c=1):
        return cls({m: c})

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(other)
        return isinstance(other, Polynomial) and self._terms == other._terms

    __hash__ = None

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                del out[m]
        return _poly(out)

    __radd__ = __add__

    def __neg__(self):
        return _poly({m: -c for m, c in self._terms.items()})

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
            return _poly({m: c * other for m, c in self._terms.items()})
        out = {}
        if len(self._terms) > len(other._terms):
            a, b = self._terms, other._terms
        else:
            a, b = other._terms, self._terms
        for mb, cb in b.items():
            for ma, ca in a.items():
                m = ma + mb
                if m & _MASK >= _LIMIT:
                    raise _overflow(m & _MASK)
                s = out.get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
        return _poly(out)

    __rmul__ = __mul__

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max(map(mono_deg, self._terms), default=-1)

    def variables(self):
        return {_NAMES[i] for i in _indices(self._terms)}

    def substitute(self, sub):
        sub = _substitution(sub)
        out = {}
        for m, c in self._terms.items():
            m2 = _subst(m, sub)
            s = out.get(m2, 0) + c
            if s:
                out[m2] = s
            else:
                del out[m2]
        return _poly(out)

    def truncate(self, bound):
        """Drop every term of total degree above bound."""
        return _poly({m: c for m, c in self._terms.items()
                      if mono_deg(m) <= bound})

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        table, order = _layout(self._terms)
        for m in order:
            c = self._terms[m]
            body = _text(_pairs(m, table))
            if abs(c) != 1:
                body = "%d*%s" % (abs(c), body) if m else str(abs(c))
            parts.append((" + " if c > 0 else " - ") + body)
        text = "".join(parts)  # the first sign is written bare
        return text[3:] if text[1] == "+" else "-" + text[3:]

    __repr__ = __str__


def _poly(terms):
    """The Polynomial of a dict {packed monomial: nonzero coefficient},
    which it takes over."""
    p = Polynomial.__new__(Polynomial)
    p._terms = terms
    return p


def one_minus(m):
    """The polynomial 1 - m for a non-constant monomial m."""
    return Polynomial({0: 1, m: -1})


def _times_one_minus(p, m):
    """p * (1 - m) for a non-constant monomial m: p's terms, each minus
    its product with m, without the generic product's pass over 1."""
    out = dict(p._terms)
    for mo, c in p._terms.items():
        mo += m
        if mo & _MASK >= _LIMIT:
            raise _overflow(mo & _MASK)
        s = out.get(mo, 0) - c
        if s:
            out[mo] = s
        else:
            del out[mo]
    return _poly(out)


_PRIME = (1 << 61) - 1
_RESIDUE = {}


def _residue(u, k=1):
    """r_u^k mod _PRIME, r_u a fixed residue in [2, _PRIME - 2] for the
    variable of index u, drawn from its name."""
    r = _RESIDUE.get((u, k))
    if r is None:
        if k == 1:
            r = random.Random(_NAMES[u]).randrange(2, _PRIME - 1)
        else:
            r = pow(_residue(u), k, _PRIME)
        _RESIDUE[u, k] = r
    return r


@lru_cache(maxsize=1 << 11)
def _point_where_one(m):
    """A fixed point mod _PRIME where m = 1, every variable u outside m
    at its residue r_u, given as {u: coordinate of u / r_u} over m's
    variables (by index); not to be changed, as calls share it.

    With (v, e) the item of m whose name comes first, every other
    variable u of m takes r_u^e and v takes the inverse of prod r_u^e_u,
    so that m = (v * prod r_u^e_u)^e = 1.  For m = v^k that is v = 1.
    Every multiple of (1 - m) vanishes there.
    """
    (v, e), *rest = sorted(_items(m), key=lambda item: _NAMES[item[0]])
    point = {}
    inverse = _residue(v)
    for u, eu in rest:
        point[u] = _residue(u, e - 1)
        inverse = inverse * _residue(u, eu) % _PRIME
    point[v] = pow(inverse, -1, _PRIME)
    return point


def _value_at(terms, point, cache):
    """The value mod _PRIME at point (see _point_where_one) of the sum of
    c * mo over the (mo, c) pairs in terms.

    A monomial's value there is its value with every variable at its
    residue, which cache keeps for calls at other points to share, times
    point[u]^e for each variable u of the point that it holds with
    exponent e.  A monomial met before costs a read of the point's
    fields; another is decoded for both factors."""
    ratios = [(_W * (u + 1), ratio) for u, ratio in point.items()]
    residues = _RESIDUE
    total = 0
    for mo, c in terms:
        x = cache.get(mo)
        if x is not None:
            for s, ratio in ratios:
                e = (mo >> s) & _MASK
                if e:
                    c *= ratio if e == 1 else pow(ratio, e, _PRIME)
            total += c * x
            continue
        x = 1
        for item in _items(mo):
            r = residues.get(item)
            x *= _residue(*item) if r is None else r
            u, e = item
            if u in point:
                c *= point[u] if e == 1 else pow(point[u], e, _PRIME)
        x = cache[mo] = x % _PRIME
        total += c * x
    return total % _PRIME


def exact_div(p, m):
    """Quotient of p by (1 - m) when the division is exact, else None.

    Multiplying by m splits the monomials into chains r, r*m, r*m^2, ...,
    one per label r, a monomial m does not divide: the chain's first.  A
    monomial mo sits at position t, the least over m's variables u of
    e_u(mo) // e_u(m), on the chain labelled mo - t*m (packing is linear
    in the exponents, and the least quotient keeps every field of the
    label in range).  Along a chain the quotient b = p + m*b has the
    running sums of p's coefficients, so the division is exact iff p's
    coefficients on every chain sum to 0; each nonzero running sum fills
    the positions up to the chain's next term of p.  For m = q^k that is
    dense_div_one_minus.  The callers that try many factors (_normalize,
    over) first ask for p's coefficient sum, the sum of every chain's, to
    be 0.
    """
    if not m:
        raise ValueError("division by (1 - 1)")
    (i, k), *rest = [(_W * (u + 1), e) for u, e in _items(m)]
    chains = {}
    for mo, c in p._terms.items():
        t = ((mo >> i) & _MASK) // k
        for s, e in rest:
            j = ((mo >> s) & _MASK) // e
            if j < t:
                t = j
        chains.setdefault(mo - t * m, []).append((t, c))
    for items in chains.values():
        if sum(c for _, c in items):
            return None
    out = {}
    for r, items in chains.items():
        items.sort()
        acc = 0
        for (t, c), (nxt, _) in zip(items, items[1:]):
            acc += c
            if acc:
                for u in range(t, nxt):
                    out[r + u * m] = acc
    return _poly(out)


# ---------------------------------------------------------------------------
# rational functions

class DenominatorCollapse(ValueError):
    """A substitution mapped a denominator monomial to 1."""


class RationalFunction:
    """numerator / product of (1 - m) over the denominator multiset.

    Normal form: zero numerator has an empty denominator, and no remaining
    denominator factor divides the numerator exactly.  The denominator is
    a tuple of packed ints in ascending order.  Integer content of the
    numerator is preserved as-is.  Structural equality (==) compares
    normal forms; use rf_eq for equality as functions.  The arithmetic
    below trusts its operands to be normal and tries only the factors
    that can still cancel.
    """

    __slots__ = ("num", "den", "_variables", "_decoded")

    def __init__(self, num, den=()):
        if isinstance(num, int):
            num = Polynomial.constant(num)
        den = tuple(sorted(den))
        for m in den:
            if not m:
                raise DenominatorCollapse("denominator factor (1 - 1)")
        self.num = num
        self.den = den
        self._variables = self._decoded = None
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
        are 1, so the pass stops.  exact_div settles each factor tried by
        running sums along the chains of m, without a polynomial long
        division.
        """
        if self.num.is_zero():
            self.den = ()
            return
        num = self.num
        kept = []
        failed = None
        divisible = not sum(num._terms.values())
        for m in self.den:
            if divisible and m != failed:
                if skip is None or not skip(m):
                    q = exact_div(num, m)
                    if q is not None:
                        num = q
                        divisible = not sum(num._terms.values())
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
                                      and len(other._terms) == 1):
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
        if not num._terms:
            return _normal(num, ())
        if m not in den and not sum(num._terms.values()):
            quot = exact_div(num, m)
            if quot is not None:
                return _normal(quot, den)
        at = bisect_right(den, m)
        return _normal(num, den[:at] + (m,) + den[at:])

    def substitute(self, sub):
        """Simultaneous multiplicative substitution of variables by monomials.

        The result is renormalized unless keeps_normal_form(sub, variables)
        holds, in which case it is already a normal form.  sub must be a
        dict: keeps_normal_form reads its names, so a pair prepared by
        _substitution raises TypeError.
        """
        if type(sub) is tuple:
            raise TypeError("RationalFunction.substitute takes a dict "
                            "{name: monomial}, not a prepared substitution")
        f = _substituted(self, sub)
        if not keeps_normal_form(sub, self.variables()):
            f._normalize()
        return f

    def series(self, bound):
        """Taylor expansion at 0 truncated to total degree <= bound.
        A negative bound raises ValueError, and one of 2^(W-3) or more,
        past every degree a monomial can hold, MonomialOverflow unless
        den is empty.

        The numerator's terms of degree <= bound are bucketed by degree,
        and each factor (1 - m) is divided out by one pass of running
        sums, s_d += m * s_(d - deg m) for d ascending: every term of
        degree d, times m, is added into degree d + deg(m), so each
        degree is complete before it is read.  Zero coefficients are
        dropped once, at the end."""
        if bound < 0:
            raise ValueError("negative truncation bound %d" % bound)
        if not self.den:
            return self.num.truncate(bound)
        if bound >= _LIMIT:
            raise _overflow(bound)
        layers = [{} for _ in range(bound + 1)]
        for m, c in self.num._terms.items():
            d = m & _MASK
            if d <= bound:
                layers[d][m] = c
        for m in self.den:
            dm = m & _MASK
            for d in range(bound + 1 - dm):
                # degree d + dm <= bound, so m adds without leaving a field
                up = layers[d + dm]
                for t, c in layers[d].items():
                    t += m
                    up[t] = up.get(t, 0) + c
        return _poly({t: c for layer in layers for t, c in layer.items() if c})

    def variables(self):
        """The variables of the numerator and the denominator, as a
        frozenset found on the first call: the recurrence substitutes
        into a level's value once for each term that reads it."""
        if self._variables is None:
            self._variables = frozenset(
                _NAMES[i] for i in _indices(chain(self.num._terms, self.den)))
        return self._variables

    def __str__(self):
        num = str(self.num)
        if not self.den:
            return num
        if len(self.num._terms) > 1 or num.startswith("-"):
            num = "(%s)" % num
        table, order = _layout(self.den)
        factors = "".join("(1-%s)" % _text(_pairs(m, table)) for m in order)
        if len(self.den) > 1:
            return "%s/(%s)" % (num, factors)
        return "%s/%s" % (num, factors)

    __repr__ = __str__

    def to_json(self):
        # each monomial as a dict in name order
        terms = self.num._terms
        table, order = _layout(terms)
        table.sort()
        num = [[terms[m], dict(_pairs(m, table))] for m in order]
        table, order = _layout(self.den)
        table.sort()
        return {"num": num, "den": [dict(_pairs(m, table)) for m in order]}

    @classmethod
    def from_json(cls, obj):
        num = {}
        for c, m in obj["num"]:
            m = mono(m)
            num[m] = num.get(m, 0) + int(c)
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
    f._variables = f._decoded = None
    return f


def _substituted(f, sub):
    """f under sub, not renormalized: a normal form where sub keeps it
    (keeps_normal_form), as every binding engine.gfun builds inside its
    recursion does.  sub, a dict or a pair already prepared, is prepared
    once for the numerator, which goes through Polynomial.substitute, and
    the denominator."""
    prepared = _substitution(sub)
    num = f.num.substitute(prepared)
    den = []
    for m in f.den:
        m2 = _subst(m, prepared)
        if not m2:
            raise DenominatorCollapse("factor (1 - %s) collapsed" % mono_str(m))
        den.append(m2)
    den.sort()
    return _normal(num, tuple(den))


def rf_sum(terms):
    """Sum of rational functions over the least common factored denominator.

    When every part is in q alone, the parts are read as dense values
    in q (_dense_parts) and the sum runs on the dense kernel
    (dense_sum), whose normalization follows _normalize rule for rule,
    so the result is the same.

    Otherwise the sorted denominators are joined into the common one as
    dense_sum joins them (_join, one merge of the packed ints), each
    part's numerator N_i is lifted by the factors (1 - m) its denominator
    lacks (_minus), the parts together (_lift, which multiplies a factor
    that several parts lack into their partial sum once), and the lifted
    sum L is normalized.  Where the parts hold fewer terms than L,
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
        return dense_to_rf(dense_sum(dense))
    common = reduce(_join, [f.den for f in terms])
    parts = [(f.num, _minus(common, f.den)) for f in terms]
    f = _normal(_lift(parts), tuple(common))
    small = sum(len(p._terms) for p, _ in parts) < len(f.num._terms)
    f._normalize(_ruled_out_on(parts) if small else None)
    return f


def _lift(parts):
    """Sum of num * prod of (1 - m) over m in lack, for (num, lack) pairs
    of Polynomials and sorted lacked factors (from _minus).  No argument
    is changed.

    The factor lacked by the most parts multiplies their partial sum once,
    with one copy taken out of what each of them lacks; that repeats on
    the other parts until no factor is shared, and the rest are multiplied
    one by one.  Ties go to the factor met first in the parts' order,
    each part's lacked factors read in their sorted order, so the
    arithmetic done does not depend on hash order.
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
        pieces.append(_times_one_minus(_lift(inner), m))
        parts = rest
    for num, lack in parts:
        for m in lack:
            num = _times_one_minus(num, m)
        pieces.append(num)
    return reduce(operator.add, pieces)


def _lifted_value(parts, point, cache=None):
    """The value mod _PRIME at point of the sum of num * prod (1 - m) over
    m in lack, for the (num, lack) pairs in parts, read off the parts;
    cache is _value_at's, for calls at several points to share."""
    if cache is None:
        cache = {}
    total = 0
    for num, lack in parts:
        x = 1
        for m in lack:
            x = x * (1 - _value_at(((m, 1),), point, cache)) % _PRIME
        if x:
            total += x * _value_at(num._terms.items(), point, cache)
    return total % _PRIME


def _dense_parts(terms):
    """Rational functions in q alone as dense values in q, read in one
    pass over their terms; None at the first monomial that is not a
    power of q.

    A monomial is q^d exactly when it equals d times the packed q, d its
    degree field.  A RationalFunction keeps its denominator sorted, which
    in q is ascending k, so each part's k are read in order.
    """
    values = []
    for f in terms:
        coeffs = []
        for mo, c in f.num._terms.items():
            d = mo & _MASK
            if mo != d * _QUNIT:
                return None
            if d >= len(coeffs):
                coeffs.extend(repeat(0, d + 1 - len(coeffs)))
            coeffs[d] = c
        den = []
        for m in f.den:
            k = m & _MASK
            if m != k * _QUNIT:
                return None
            den.append(k)
        values.append((coeffs, tuple(den)))
    return values


def _ruled_out_on(parts):
    """The test by which rf_sum's normalization skips a factor m: the
    lifted sum of parts is nonzero at the point where m = 1.  The parts'
    monomials keep their values at the residues (_value_at's cache) from
    one m's point to the next."""
    cache = {}

    def ruled_out(m):
        # a part lacking (1 - m) itself adds 0 at m's point
        return bool(_lifted_value([part for part in parts if m not in part[1]],
                                  _point_where_one(m), cache))
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

    exact_div's rule at m = q^k: the chains of q^k are the residue
    classes of the indices mod k, and along each the quotient b_i =
    a_i + b_(i-k) is a running sum of a's, so the division is exact iff
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
    exponent of the result must be non-negative.  f's monomials are
    decoded on its first call and kept with it: the q-iteration reads each
    coefficient and base value at many points.
    """
    if f._decoded is None:
        f._decoded = ([(_mono_key(m), c) for m, c in f.num._terms.items()],
                      [(_mono_key(m), m) for m in f.den])
    terms, factors = f._decoded
    num = {}
    for pairs, c in terms:
        d = 0
        for v, e in pairs:
            d += e * exps.get(v, 1)
        num[d] = num.get(d, 0) + c
    den = []
    for pairs, m in factors:
        k = 0
        for v, e in pairs:
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
    the denominators are joined by one sorted merge each (_join), each
    part's numerator is lifted by the factors its denominator lacks
    (_minus), and the sum of the lifted numerators is normalized by
    dense_normalize.

    Parts holding _PACKED_AT coefficients or more in all are lifted as
    packed ints (_packed_lift); smaller ones one factor at a time, where
    the packing costs more than it saves.  Both give the same list.
    """
    values = list(values)
    if not values:
        return [], ()
    if len(values) == 1:
        return values[0]
    common = reduce(_join, [den for _, den in values])
    parts = [(num, _minus(common, den)) for num, den in values]
    if sum(len(num) for num, _ in parts) >= _PACKED_AT:
        total = _packed_lift(parts)
    else:
        total = []
        for num, lack in parts:
            for k in lack:
                num = dense_mul_one_minus(num, k)
            total = _dense_add(total, num)
    return dense_normalize(_trim(total), common)


_PACKED_AT = 256
# array typecodes of signed lanes by their width in bytes
_LANES = {array(code).itemsize: code for code in "bhilq"}


def _packed_lift(parts):
    """The sum of num * prod of (1 - q^k) over k in lack, for dense (num,
    lack) parts, by Kronecker substitution: a coefficient list a is read
    as the int a(X) at X = 2^(8 nb), each coefficient one nb-byte digit,
    so a * (1 - q^k) is x - (x << 8 nb k) and the sum is the ints' sum.

    Every coefficient of the sum is at most B = sum of max|num| *
    2^len(lack) in absolute value, since each (1 - q^k) at most doubles
    the largest coefficient; 8 nb >= B.bit_length() + 1 holds every one
    as a signed digit, so no digit carries into the next.  nb is rounded
    up to an array lane width (1, 2, 4 or 8) where one fits.
    """
    bound = sum(max(map(abs, num)) << len(lack) for num, lack in parts if num)
    nb = bound.bit_length() // 8 + 1
    if nb <= 8:
        nb = 1 << (nb - 1).bit_length()
    bits = 8 * nb
    size = max(len(num) + sum(lack) for num, lack in parts)
    total = 0
    for num, lack in parts:
        if num:
            x = _kron_pack(num, nb)
            for k in lack:
                x -= x << (bits * k)
            total += x
    return _kron_unpack(total, nb, size)


def _signs(nb, n):
    """The int of n nb-byte digits, each holding only its sign bit."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")


def _kron_pack(a, nb):
    """The coefficient list a as the int a(2^(8 nb)), every |a_i| below
    2^(8 nb - 1).  Each digit is written in two's complement; flipping its
    sign bit adds 2^(8 nb - 1) to it, which the subtraction takes out
    again with its borrows."""
    code = _LANES.get(nb)
    if code is None:
        data = b"".join([c.to_bytes(nb, "little", signed=True) for c in a])
    else:
        lanes = array(code, a)
        if sys.byteorder != "little":
            lanes.byteswap()
        data = lanes.tobytes()
    signs = _signs(nb, len(a))
    return (int.from_bytes(data, "little") ^ signs) - signs


def _kron_unpack(x, nb, size):
    """The size coefficients of x = a(2^(8 nb)), the inverse of _kron_pack:
    adding 2^(8 nb - 1) to every digit makes each one non-negative, so
    none borrows from the next, and flipping the sign bits leaves each
    digit in two's complement."""
    signs = _signs(nb, size)
    data = ((x + signs) ^ signs).to_bytes(nb * size, "little")
    code = _LANES.get(nb)
    if code is None:
        return [int.from_bytes(data[i:i + nb], "little", signed=True)
                for i in range(0, len(data), nb)]
    lanes = array(code)
    lanes.frombytes(data)
    if sys.byteorder != "little":
        lanes.byteswap()
    return lanes.tolist()


def dense_to_rf(value):
    """The RationalFunction in q of a dense value (already normalized):
    the keys d * q and the denominator, sorted as its k are, are written
    directly."""
    num, den = value
    if len(num) > _LIMIT or den and den[-1] >= _LIMIT:
        raise MonomialOverflow("exponent of %s leaves its %d-bit field"
                               % (Q, _W))
    p = _poly({d * _QUNIT: c for d, c in enumerate(num) if c})
    return _normal(p, tuple([k * _QUNIT for k in den]))


# ---------------------------------------------------------------------------
# text format, read by the one recursive descent in _parse:
#
# rf      := poly ["/" den]
# den     := "(" factor+ ")" | factor+
# factor  := "(" poly ")"                   where the poly is 1 - monomial
# poly    := ["-"] product (("+" | "-") product)*
# product := atom ("*" atom | "(" poly ")")*
# atom    := INT | NAME ["^" INT] | "(" poly ")"
#
# den takes its first form exactly when it opens with "((" and its first
# "(" closes at the last token.  So "1/((1-x)(1+x))" fails on the factor
# (1+x), while "1/((1-x)(1+x))(1-y)" reads (1-x)(1+x) = 1-x^2 as a factor.

class ParseError(ValueError):
    pass


_TOKEN = re.compile(
    r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^])|(\S))")


def _tokenize(text):
    """The (kind, value) tokens of text, then the end marker (None, None)."""
    out = []
    for m in _TOKEN.finditer(text):
        number, name, op, bad = m.groups()
        if bad:
            raise ParseError("bad character at %r" % text[m.start(4):][:10])
        if number:
            out.append(("int", int(number)))
        elif name:
            out.append(("name", name))
        else:
            out.append((op, None))
    out.append((None, None))
    return out


def _parse(text, rational):
    """text read by the grammar above: a RationalFunction if rational,
    else a Polynomial, which has no "/" part."""
    toks = _tokenize(text)
    i = 0

    def peek():
        return toks[i][0]

    def take(kind):
        nonlocal i
        got, value = toks[i]
        if got != kind:
            raise ParseError("expected %r, got %r" % (kind, got))
        i += 1
        return value

    def poly():
        sign = 1
        if peek() == "-":
            take("-")
            sign = -1
        p = product() * sign
        while peek() in ("+", "-"):
            op = peek()
            take(op)
            t = product()
            p = p + t if op == "+" else p - t
        return p

    def product():
        p = atom()
        while peek() in ("*", "("):
            if peek() == "*":
                take("*")
            p = p * atom()
        return p

    def atom():
        if peek() == "int":
            return Polynomial.constant(take("int"))
        if peek() == "name":
            name = take("name")
            exp = 1
            if peek() == "^":
                take("^")
                exp = take("int")
            return Polynomial.term(mono_var(name, exp))
        return parens()

    def parens():
        take("(")
        p = poly()
        take(")")
        return p

    def factor():
        # the poly is 1 - m exactly when 1 - poly is the single term m
        terms = list((1 - parens())._terms.items())
        if len(terms) != 1 or terms[0][0] == 0 or terms[0][1] != 1:
            raise ParseError("denominator factor is not of the form "
                             "(1 - monomial)")
        return terms[0][0]

    def factors(end):
        out = [factor()]
        while peek() != end:
            out.append(factor())
        return out

    def den():
        if peek() == "(" and toks[i + 1][0] == "(":
            # the depth after each token from the first "(" to the last
            depth = list(accumulate((k == "(") - (k == ")")
                                    for k, _ in toks[i:-1]))
            if 0 not in depth[:-1] and depth[-1] == 0:
                take("(")
                out = factors(")")
                take(")")
                return out
        return factors(None)

    # A failed parse leaves no name interned, so that text that does not
    # parse cannot grow the packed monomials of the process: the names
    # interned past the mark are dropped before the error propagates.
    # Dropping an index is safe because parsing reaches only Polynomial
    # arithmetic and exact_div, never _residue, _point_where_one or
    # _positions, the tables that keep a name's index.
    mark = len(_NAMES)
    try:
        num = poly()
        if rational and peek() == "/":
            take("/")
            return RationalFunction(num, den())
        if peek() is not None:
            raise ParseError("trailing input")
        return RationalFunction(num, ()) if rational else num
    except BaseException:
        for name in _NAMES[mark:]:
            del _INDEX[name]
        del _NAMES[mark:]
        raise


def parse_polynomial(text):
    return _parse(text, False)


def parse_rational(text):
    """Parse the canonical rendering of a RationalFunction."""
    return _parse(text, True)
