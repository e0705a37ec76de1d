"""Recursive computation of the multivariate generating function f_P.

Two exact identities drive the recursion, and each exists once, by
position: a binding is the tuple of monomials aligned with p.elements,
the one at position i standing for x of the element p.elements[i].
deletion_rhs(p, b) and gluing_rhs(p, antichain) read the identity's
right-hand side off the poset alone, as a denominator position (None for
gluing) and terms (sign, multiplier position or None, child poset,
picks, joins), where the child binding's j-th monomial is the one at
position picks[j] times the one at i for each (j, i) in joins.  Bound at
a binding (_bound), so that every position stands for its monomial and
each multiplier is 1 where there is none, f_P is the sum of
sign * multiplier * f_child(child binding), over (1 - m) for the
denominator's monomial m:

  * deleting an element b with at most one lower cover a and at most one
    upper cover c gives f_P = (g - m_b * h) / (1 - m_b), where g is f of
    the deleted poset with m_c replaced by m_b*m_c (or unchanged if b has
    no upper cover) and h the same with m_a replaced by m_a*m_b (no term
    if b has no lower cover);

  * gluing, for an antichain A, every nonempty subset M of A into a single
    element that covers A minus M and is bound to the product of the
    monomials of M, with inclusion-exclusion signs; the glued element is
    the child's last.

Every poset reaches the empty poset (f = 1) this way: a deletion removes
an element and a gluing strictly decreases the number of nonempty
antichains.  The choice of which step to take is a Strategy; all
strategies give the same function, which the test suite checks.

_bound is the one binder of a right-hand side and _evaluate the one sum
of its bound terms.  apply_deletion(p, b, at, recur) and apply_ple(p,
antichain, at, recur) take the binding at as a tuple and evaluate the
right-hand side through recur(child, child_at), child_at a tuple aligned
with child.elements; gfun and gfun_at are that recursion under two memo
policies, and the recurrence module's prefix elimination binds the same
right-hand sides with a coefficient.  The public entry points gfun,
gfun_at and default_binding take and give dicts by element.  gfun
keys on Poset.key, the up-set bitmasks over the ranks of the element ids,
which is equal for two posets exactly when relabeling one by rank gives
the other; so branches that build one structure under different
bindings share the work.  It stores each value in positional variables
v0, v1, ..., the identity bound at their monomials
(algebra._positional_variables), and substitutes the binding into it on
every lookup.  An inner lookup prepares its substitution once, from the
child's tuple (algebra._positional_substitution), with no variable name
formatted or looked up.  The normal-form check (algebra.keeps_normal_form)
runs once per gfun call, at the caller's binding, in
RationalFunction.substitute, which renormalizes where it fails.  Every
inner lookup's binding is bound from the distinct positional variables
of the poset above, and both identities only multiply disjoint sets of
them together, so each image keeps a variable of exponent 1 that no
other image holds and the check always holds; inner lookups substitute
through algebra._substituted, which does not ask it.
gfun_at keys on Poset.key plus monomials and keeps every value in the
target variables, which is exponentially smaller when elements share a
variable (gfun_q's all-q input).  Each is the faster one somewhere: on
the first 100 posets of the acceptance corpus under all three
strategies, keying on the values at distinct variables took 4.3-4.6 s
against 2.9-3.5 s keyed on structure (2-core Xeon), while structure keys
would build the full multivariate value of every subposet of an all-q
input.  gfun_at still meets one structure under many bindings (27,655
steps over 2,386 keys on the benchmark's 100 wide posets), so it plans
each structure once: its plan is the strategy's right-hand side, which
holds positions only, and each binding binds it.  Both memos thus rely
on a strategy's choice depending only on the rank order of the ids.
"""

from __future__ import annotations

from .algebra import (RationalFunction, Polynomial, _positional_substitution,
                      _positional_variables, _substituted, mono_var, mono_mul,
                      rf_sum)


class NotRemovable(ValueError):
    pass


def default_binding(p):
    return {e: mono_var("x%d" % e) for e in p.elements}


def _check_binding(monos):
    for e, m in monos.items():
        if not m:
            raise ValueError("element %r bound to the constant monomial" % (e,))


# -- strategies: poset -> ("delete", element) | ("ple", antichain) | None --
# A strategy's choice may depend only on the order of the ids, never on
# their values: gfun and gfun_at reuse it for every poset with the same
# Poset.key, mapped rank for rank.

def _smallest_pair(p, reverse=False):
    """The lexicographically first 2-antichain as a sorted pair (the last
    with reverse), or None: antichains_of_size yields them in that order."""
    pair = None
    for pair in p.antichains_of_size(2):
        if not reverse:
            break
    return tuple(sorted(pair)) if pair else None


def default_strategy(p):
    """Delete the smallest removable element with no lower cover, else
    the smallest removable element; otherwise glue along the
    lexicographically smallest incomparable pair (3 branches only).

    A removable element with no lower cover is deleted with one term,
    f_P = g / (1 - m_b), where any other deletion has two and a gluing
    three, so taking it first sums fewer parts and meets fewer
    subposets: on the benchmark's 100 wide posets under gfun_q, 27,655
    steps of which 12,728 sum two terms or more, against 33,146 and
    21,673 deleting the smallest removable element first."""
    if not p.elements:
        return None
    removable = p.removable_elements()
    if removable:
        return ("delete", min([e for e in removable
                               if not p._lower[p._rank(e)]] or removable))
    return ("ple", _smallest_pair(p))


def reversed_strategy(p):
    """Delete the largest removable element; otherwise glue along the
    lexicographically last incomparable pair."""
    if not p.elements:
        return None
    removable = p.removable_elements()
    if removable:
        return ("delete", max(removable))
    return ("ple", _smallest_pair(p, reverse=True))


def ple_first_strategy(p):
    """Glue along a maximum antichain whenever one of size >= 2 exists,
    deleting only when the poset is a chain.  The wide inclusion-exclusion
    costs 2^|A| - 1 branches and is slower than the pairwise default (on
    the 200-poset acceptance corpus, 2.8 s against 0.5 s on a 2-core
    Xeon); it is kept as a third path, independent of the other two, for
    the cross-checks that every strategy gives the same function.

    The search keeps the first antichain of each size 2, 3, ... and stops
    at the first size with none, since every subset of an antichain is
    one: the last kept is the lexicographically first of maximum size,
    and no size past the width but one is searched."""
    if not p.elements:
        return None
    widest = None
    for k in range(2, len(p.elements) + 1):
        a = next(p.antichains_of_size(k), None)
        if a is None:
            break
        widest = a
    if widest is None:
        return ("delete", min(p.removable_elements()))
    return ("ple", tuple(sorted(widest)))


# -- the two identities --------------------------------------------------

def deletion_rhs(p, b):
    """Right-hand side of the deletion identity at the removable element
    b, by position in p.elements (see the module docstring): b's position
    is the denominator and the lower term's multiplier, and b's monomial
    joins its upper cover's in g and its lower cover's in h."""
    lowers = p.lower_covers(b)
    uppers = p.upper_covers(b)
    if len(lowers) > 1 or len(uppers) > 1:
        raise NotRemovable("%r has covers %r / %r" % (b, lowers, uppers))
    r = p._rank(b)
    child = p.delete(b)
    picks = tuple(i for i in range(len(p.elements)) if i != r)
    terms = [(1, None, child, picks,
              tuple((child._rank(c), r) for c in uppers))]
    if lowers:
        terms.append((-1, r, child, picks, ((child._rank(lowers[0]), r),)))
    return r, terms


def gluing_rhs(p, antichain):
    """Right-hand side of the gluing identity, by position in p.elements:
    one term per nonempty subset of the antichain, signed by
    inclusion-exclusion, whose child keeps the other elements in order
    and ends with the glued one, bound to the product of the subset's
    monomials."""
    members = sorted(antichain)
    ranks = [p._rank(e) for e in members]
    terms = []
    for mask in range(1, 1 << len(members)):
        glued = [r for i, r in enumerate(ranks) if mask >> i & 1]
        child, _ = p.ple([p.elements[r] for r in glued], members)
        picks = tuple(i for i in range(len(p.elements)) if i not in glued)
        joins = tuple((len(picks), r) for r in glued[1:])
        terms.append((1 if len(glued) % 2 else -1, None, child,
                      picks + (glued[0],), joins))
    return None, terms


def _bound(rhs, at):
    """The right-hand side rhs at the binding at, the tuple of monomials
    aligned with the poset's elements: the denominator's monomial (None
    for gluing), then per term (sign, multiplier monomial or 0, child,
    child binding)."""
    den, terms = rhs
    bound = []
    for sign, mult, child, picks, joins in terms:
        images = [at[i] for i in picks]
        for j, i in joins:
            images[j] = mono_mul(images[j], at[i])
        bound.append((sign, 0 if mult is None else at[mult], child,
                      tuple(images)))
    return (None if den is None else at[den]), bound


def _evaluate(bound, recur):
    """sign * multiplier * recur(child, child binding) summed over the
    bound terms, over (1 - denominator)."""
    den, terms = bound
    parts = []
    for sign, mult, child, child_at in terms:
        f = recur(child, child_at)
        if mult:
            f = f * Polynomial.term(mult)
        parts.append(f if sign > 0 else -f)
    f = rf_sum(parts)
    return f if den is None else f.over(den)


def apply_deletion(p, b, at, recur):
    """f_P at the binding at (monomials aligned with p.elements) from f of
    the poset without the removable element b, through recur(child,
    child binding)."""
    return _evaluate(_bound(deletion_rhs(p, b), at), recur)


def apply_ple(p, antichain, at, recur):
    """f_P at the binding at (monomials aligned with p.elements) by
    inclusion-exclusion over the antichain's subsets, through
    recur(child, child binding)."""
    return _evaluate(_bound(gluing_rhs(p, antichain), at), recur)


# -- the two recursions ----------------------------------------------------

def gfun(p, monos=None, strategy=default_strategy, memo=None):
    """Generating function of the P-partitions of p at x_a := monos[a]
    (by default the variable x<a>), memoized on Poset.key.

    The memo stores, per key, the value in positional
    variables v0, v1, ... (the identity applied at
    algebra._positional_variables); the caller's monomials are
    substituted into it on return.  This is sound because every identity
    used is a multiplicative substitution.  Only this outermost
    substitution, at the caller's binding, goes through
    RationalFunction.substitute and its check of
    algebra.keeps_normal_form, renormalizing where the check fails
    (elements that share a variable).  The bindings of the recursion's
    own lookups are products of disjoint sets of distinct variables,
    which always keep the normal form, so those lookups substitute
    without the check (see the module docstring).
    """
    if monos is None:
        monos = default_binding(p)
    _check_binding(monos)
    if memo is None:
        memo = {}

    def go(q, at):
        if not q.elements:
            return RationalFunction.one()
        return _substituted(template(q), _positional_substitution(at))

    def template(q):
        f = memo.get(q.key)
        if f is None:
            kind, arg = strategy(q)
            apply = apply_deletion if kind == "delete" else apply_ple
            f = memo[q.key] = apply(q, arg,
                                    _positional_variables(len(q.elements)), go)
        return f

    if not p.elements:
        return RationalFunction.one()
    return template(p).substitute(_positional(p, monos))


def _positional(q, monos):
    """The substitution from the positional variables of q's stored value
    to monos."""
    return {"v%d" % i: monos[e] for i, e in enumerate(q.elements)}


def gfun_at(p, monos, strategy=default_strategy):
    """f_P evaluated at x_a := monos[a], each value a non-constant monomial,
    memoized on Poset.key plus monomials.

    Equal to gfun(p, monos), but keeps every intermediate value in the
    target variables, which is exponentially smaller when many elements
    share a variable (the all-q case).  Inside the recursion a binding is
    the tuple of monomials aligned with the poset's elements.

    The strategy and the identity run once per structure (Poset.key):
    the first time a structure is met, its plan is the strategy's
    right-hand side, which is by position, with each child the first
    poset met with its structure (shapes), so the plans hold one poset
    per structure; every binding of that structure binds the plan
    (_bound).  This relies on the strategy's choice depending only on
    the rank order of the ids, as gfun's memo does and every strategy
    here satisfies.
    """
    _check_binding(monos)
    memo = {}
    plans = {}
    shapes = {}

    def go(q, at):
        if not q.elements:
            return RationalFunction.one()
        key = (q.key, at)
        f = memo.get(key)
        if f is None:
            plan = plans.get(q.key)
            if plan is None:
                kind, arg = strategy(q)
                rhs = deletion_rhs if kind == "delete" else gluing_rhs
                den, terms = rhs(q, arg)
                plan = plans[q.key] = den, [
                    (sign, mult, shapes.setdefault(child.key, child), picks,
                     joins) for sign, mult, child, picks, joins in terms]
            f = memo[key] = _evaluate(_bound(plan, at), go)
        return f

    return go(p, tuple(monos[e] for e in p.elements))


def gfun_q(p, strategy=default_strategy):
    """One-variable specialization: every x_a becomes q."""
    q = mono_var("q")
    return gfun_at(p, {e: q for e in p.elements}, strategy=strategy)
