"""Recursive computation of the multivariate generating function f_P.

Two exact identities drive the recursion:

  * deleting an element b with at most one lower cover a and at most one
    upper cover c:

        f_P = (g - h) / (1 - x_b)

    where g is f of the deleted poset with x_c replaced by x_b*x_c (or
    unchanged if b has no upper cover) and h is x_b times f of the deleted
    poset with x_a replaced by x_a*x_b (or 0 if b has no lower cover);

  * gluing, for an antichain A, every nonempty subset M of A into a single
    element that covers A minus M, with inclusion-exclusion signs and the
    glued variable finally replaced by the product of the variables of M.

Every poset reaches the empty poset (f = 1) this way: a deletion removes
an element and a gluing strictly decreases the number of nonempty
antichains.  The choice of which step to take is a Strategy; all
strategies give the same function, which the test suite checks.

Substitutions are applied to the rational function returned by each
recursive call, never pushed into the variable binding, so recursion
arguments stay purely structural and memoization can key on the cover
structure plus the binding alone.
"""

from __future__ import annotations

from .algebra import RationalFunction, Polynomial, mono_var, mono_mul, rf_sum
from .poset import Poset


class NotRemovable(ValueError):
    pass


def default_binding(p):
    return {e: "x%d" % e for e in p.elements}


# -- strategies: poset -> ("delete", element) | ("ple", antichain) | None --

def _smallest_pair(p, reverse=False):
    pairs = sorted(map(sorted, p.antichains_of_size(2)), reverse=reverse)
    return tuple(pairs[0]) if pairs else None


def default_strategy(p):
    """Delete the smallest removable element; otherwise glue along the
    lexicographically smallest incomparable pair (3 branches only)."""
    if not p.elements:
        return None
    removable = p.removable_elements()
    if removable:
        return ("delete", min(removable))
    return ("ple", _smallest_pair(p))


def reversed_strategy(p):
    """Tie-breaking mirror of the default strategy."""
    if not p.elements:
        return None
    removable = p.removable_elements()
    if removable:
        return ("delete", max(removable))
    return ("ple", _smallest_pair(p, reverse=True))


def ple_first_strategy(p):
    """Glue along a maximum antichain whenever one of size >= 2 exists,
    deleting only when the poset is a chain.  The wide inclusion-exclusion
    costs 2^|A| - 1 branches but collapses the poset much faster than the
    pairwise default, and branches of equal subset size share structure."""
    if not p.elements:
        return None
    for k in range(len(p.elements), 1, -1):
        for a in p.antichains_of_size(k):
            return ("ple", tuple(sorted(a)))
    return ("delete", min(p.removable_elements()))


def apply_deletion(p, b, bind, recur):
    """f_P from f of the poset without the removable element b."""
    lowers = p.lower_covers(b)
    uppers = p.upper_covers(b)
    if len(lowers) > 1 or len(uppers) > 1:
        raise NotRemovable("%r has covers %r / %r" % (b, lowers, uppers))
    xb = mono_var(bind[b])
    sub_poset = p.delete(b)
    sub_bind = {e: bind[e] for e in sub_poset.elements}
    f_sub = recur(sub_poset, sub_bind)
    if uppers:
        c = bind[uppers[0]]
        g = f_sub.substitute({c: mono_mul(xb, mono_var(c))})
    else:
        g = f_sub
    if lowers:
        a = bind[lowers[0]]
        h = f_sub.substitute({a: mono_mul(mono_var(a), xb)}) * Polynomial.term(xb)
        return (g - h).over(xb)
    return g.over(xb)


def apply_ple(p, antichain, bind, recur):
    """Inclusion-exclusion over all nonempty subsets of the antichain."""
    members = sorted(antichain)
    parts = []
    for mask in range(1, 1 << len(members)):
        m_set = frozenset(members[i] for i in range(len(members)) if mask >> i & 1)
        glued_poset, glued = p.ple(m_set, members)
        fresh = "g%d" % glued
        sub_bind = {e: bind[e] for e in glued_poset.elements if e != glued}
        sub_bind[glued] = fresh
        f_sub = recur(glued_poset, sub_bind)
        prod = ()
        for e in m_set:
            prod = mono_mul(prod, mono_var(bind[e]))
        f_sub = f_sub.substitute({fresh: prod})
        parts.append(f_sub if len(m_set) % 2 else -f_sub)
    return rf_sum(parts)


def gfun(p, bind=None, strategy=default_strategy, memo=None, trace=None):
    """Generating function of the P-partitions of p, memoized.

    The memo stores, per cover structure (elements relabeled by rank), the
    value in positional variables; a hit is renamed into the caller's
    binding.  Renaming is sound because every identity used is a
    multiplicative substitution, and it lets recursion branches that build
    equal structures with different labels share work.

    trace, when given, is a list collecting (parent_antichain_count,
    child_antichain_count) for every recursion edge; the count strictly
    decreases along every path, which is also asserted.  Tracing is meant
    for small posets since the count is computed by brute force.
    """
    if bind is None:
        bind = default_binding(p)
    if memo is None:
        memo = {}

    def go(q, qbind):
        if not q.elements:
            return RationalFunction.one()
        template = go_canonical(q)
        names = [qbind[e] for e in q.elements]
        ren = {"v%d" % i: mono_var(name) for i, name in enumerate(names)}
        # onto distinct names the renaming keeps the normal form; a caller's
        # binding may repeat a name, and then the result is renormalized
        return template.substitute(ren, normalize=len(set(names)) < len(names))

    def go_canonical(q):
        index = {e: i for i, e in enumerate(q.elements)}
        key = (len(q.elements),
               tuple(sorted((index[x], index[y]) for x, y in q.covers)))
        hit = memo.get(key)
        if hit is not None:
            return hit
        canon = {e: "v%d" % i for i, e in enumerate(q.elements)}
        if trace is None:
            recur = go
        else:
            parent_ac = q.antichain_count()

            def recur(child, child_bind):
                child_ac = child.antichain_count()
                trace.append((parent_ac, child_ac))
                assert child_ac < parent_ac, "antichain count failed to decrease"
                return go(child, child_bind)

        kind, arg = strategy(q)
        if kind == "delete":
            f = apply_deletion(q, arg, canon, recur)
        else:
            f = apply_ple(q, arg, canon, recur)
        memo[key] = f
        return f

    return go(p, dict(bind))


def gfun_at(p, monos, strategy=default_strategy, memo=None):
    """f_P evaluated at x_a := monos[a], each value a non-constant monomial.

    Equal to gfun(p) followed by the substitution, but keeps every
    intermediate value in the target variables, which is exponentially
    smaller when many elements share a variable (the all-q case).  The
    deletion and gluing identities specialize verbatim because their
    substitutions are multiplicative.
    """
    if memo is None:
        memo = {}

    def key(q, qmonos):
        index = {e: i for i, e in enumerate(q.elements)}
        covers = tuple(sorted((index[x], index[y]) for x, y in q.covers))
        vals = tuple(qmonos[e] for e in q.elements)
        return (len(q.elements), covers, vals)

    def go(q, qmonos):
        if not q.elements:
            return RationalFunction.one()
        k = key(q, qmonos)
        hit = memo.get(k)
        if hit is not None:
            return hit
        kind, arg = strategy(q)
        if kind == "delete":
            b = arg
            mb = qmonos[b]
            lowers = q.lower_covers(b)
            uppers = q.upper_covers(b)
            sub_poset = q.delete(b)
            monos_g = {e: qmonos[e] for e in sub_poset.elements}
            if uppers:
                c = uppers[0]
                monos_g[c] = mono_mul(mb, monos_g[c])
            f = go(sub_poset, monos_g)
            if lowers:
                a = lowers[0]
                monos_h = {e: qmonos[e] for e in sub_poset.elements}
                monos_h[a] = mono_mul(monos_h[a], mb)
                h = go(sub_poset, monos_h) * Polynomial.term(mb)
                f = (f - h).over(mb)
            else:
                f = f.over(mb)
        else:
            members = sorted(arg)
            parts = []
            for mask in range(1, 1 << len(members)):
                m_set = frozenset(members[i] for i in range(len(members))
                                  if mask >> i & 1)
                glued_poset, glued = q.ple(m_set, members)
                sub_monos = {e: qmonos[e] for e in glued_poset.elements
                             if e != glued}
                prod = ()
                for e in m_set:
                    prod = mono_mul(prod, qmonos[e])
                sub_monos[glued] = prod
                f_sub = go(glued_poset, sub_monos)
                parts.append(f_sub if len(m_set) % 2 else -f_sub)
            f = rf_sum(parts)
        memo[k] = f
        return f

    for e, m in monos.items():
        if not m:
            raise ValueError("element %r bound to the constant monomial" % (e,))
    return go(p, dict(monos))


def gfun_q(p, strategy=default_strategy):
    """One-variable specialization: every x_a becomes q."""
    q = mono_var("q")
    return gfun_at(p, {e: q for e in p.elements}, strategy=strategy)
