"""Finite posets as cover DAGs, plus the structural constructions the
generating-function engine needs: deletion of an element, gluing an
antichain subset (partially linear extension), and the partially ordinal
sum of two posets along a relation, with n-fold powers.

A poset is immutable after construction and stores its strict order as
up-sets.  Only Poset.build validates and closes a relation, so any
acyclic relation is accepted as input; deletion, gluing and the ordinal
sums write the up-sets of their result directly.  Every poset derives its
covers from its up-sets: the upper covers of x are the elements above x
that are above nothing else above x.
"""

from __future__ import annotations

from itertools import combinations


class PosetError(ValueError):
    pass


class CycleDetected(PosetError):
    pass


class UnknownElement(PosetError):
    pass


class NotAntichain(PosetError):
    pass


class EmptySubset(PosetError):
    pass


class SubsetNotContained(PosetError):
    pass


class RelationOutOfRange(PosetError):
    pass


def _closure_from_relation(elements, pairs):
    """Strict-order closure of an acyclic relation given as pairs."""
    succ = {e: set() for e in elements}
    for x, y in pairs:
        if x not in succ or y not in succ:
            raise UnknownElement("relation pair (%r, %r) uses a missing element" % (x, y))
        if x == y:
            raise CycleDetected("reflexive pair (%r, %r)" % (x, y))
        succ[x].add(y)
    above = {}
    while len(above) < len(succ):
        ready = [e for e, s in succ.items() if e not in above and above.keys() >= s]
        if not ready:
            raise CycleDetected("cycle among %r" % sorted(succ.keys() - above.keys()))
        for e in ready:  # every successor is closed already
            above[e] = set(succ[e]).union(*(above[w] for w in succ[e]))
    return above


class Poset:
    """Finite labeled poset; elements are opaque integer ids."""

    __slots__ = ("elements", "covers", "_above", "_below", "_upper", "_lower",
                 "name")

    def __init__(self, elements, above, name=None):
        self.elements = tuple(sorted(elements))
        self._above = {e: frozenset(above[e]) for e in self.elements}
        below = {e: set() for e in self.elements}
        lower = {e: set() for e in self.elements}
        self._upper = {}
        for x, up in self._above.items():
            for y in up:
                below[y].add(x)
            upper = self._upper[x] = up.difference(*(self._above[z] for z in up))
            for y in upper:
                lower[y].add(x)
        self._below = {e: frozenset(s) for e, s in below.items()}
        self._lower = {e: frozenset(s) for e, s in lower.items()}
        self.covers = frozenset((x, y) for x, up in self._upper.items() for y in up)
        self.name = name

    @classmethod
    def build(cls, elements, covers, name=None):
        """Validated poset from any acyclic relation (reduced to covers)."""
        elements = set(elements)
        above = _closure_from_relation(elements, covers)
        return cls(elements, above, name=name)

    @classmethod
    def empty(cls):
        return cls.build((), ())

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self._above

    def __eq__(self, other):
        return (isinstance(other, Poset) and self.elements == other.elements
                and self._above == other._above)

    def __hash__(self):
        return hash((self.elements, tuple(sorted((e, tuple(sorted(s)))
                                                 for e, s in self._above.items()))))

    def __repr__(self):
        covs = " ".join("%s<%s" % c for c in sorted(self.covers))
        return "Poset({%s}%s)" % (" ".join(map(str, self.elements)),
                                  (" " + covs) if covs else "")

    def lt(self, x, y):
        return y in self._above[x]

    def above(self, x):
        return self._above[x]

    def below(self, x):
        return self._below[x]

    def comparable(self, x, y):
        return x == y or self.lt(x, y) or self.lt(y, x)

    def upper_covers(self, e):
        return sorted(self._upper[e])

    def lower_covers(self, e):
        return sorted(self._lower[e])

    # -- transformations ---------------------------------------------------

    def removable_elements(self):
        """Elements with at most one lower and at most one upper cover."""
        return {e for e in self.elements
                if len(self._lower[e]) <= 1 and len(self._upper[e]) <= 1}

    def delete(self, b):
        """Induced subposet on the other elements."""
        if b not in self:
            raise UnknownElement("no element %r" % (b,))
        above = {e: up - {b} for e, up in self._above.items() if e != b}
        return Poset(above.keys(), above)

    def ple(self, m_set, antichain):
        """Glue the elements of m_set (a nonempty subset of the antichain)
        into one fresh element that covers the rest of the antichain.

        Returns (poset, glued_id); the caller owns the substitution
        x_glued -> product of the glued variables.
        """
        m_set = frozenset(m_set)
        a_set = frozenset(antichain)
        if not m_set:
            raise EmptySubset("m_set must be nonempty")
        if not m_set <= a_set:
            raise SubsetNotContained("m_set must be a subset of the antichain")
        for e in a_set:
            if e not in self:
                raise UnknownElement("no element %r" % (e,))
        for x, y in combinations(sorted(a_set), 2):
            if self.comparable(x, y):
                raise NotAntichain("%r and %r are comparable" % (x, y))
        glued = max(self.elements) + 1 if self.elements else 1
        below_a = set().union(a_set - m_set, *(self._below[a] for a in a_set))
        above_m = frozenset().union(*(self._above[u] for u in m_set))
        above = {x: up - m_set for x, up in self._above.items() if x not in m_set}
        for x in below_a:
            above[x] |= above_m | {glued}
        above[glued] = above_m
        # the gluing conditions define the order directly: check that it is
        # irreflexive and transitive (so also antisymmetric)
        assert all(x not in up and all(above[y] <= up for y in up)
                   for x, up in above.items()), \
            "gluing produced a non-transitive relation"
        return Poset(above.keys(), above), glued

    def antichains_of_size(self, k):
        """All antichains of cardinality exactly k, lexicographically.

        A partial antichain grows only from the later elements that are
        incomparable to every chosen one, and a branch stops once too few
        of those are left to reach k.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        yield from self._grow_antichains((), self.elements, k)

    def _grow_antichains(self, chosen, free, k):
        # free: the elements after the last chosen one that are
        # incomparable to every chosen one, in order
        need = k - len(chosen)
        for i in range(len(free) - need + 1):
            e = free[i]
            if need == 1:
                yield frozenset(chosen + (e,))
                continue
            above, below = self._above[e], self._below[e]
            rest = [f for f in free[i + 1:] if f not in above and f not in below]
            if len(rest) >= need - 1:
                yield from self._grow_antichains(chosen + (e,), rest, k)

    def antichain_count(self):
        """Number of nonempty antichains (brute force; small posets only)."""
        es = self.elements
        count = 0

        def extend(start, chosen):
            nonlocal count
            for i in range(start, len(es)):
                e = es[i]
                if all(not self.comparable(e, c) for c in chosen):
                    count += 1
                    chosen.append(e)
                    extend(i + 1, chosen)
                    chosen.pop()

        extend(0, [])
        return count


def rplus_offset(p, q):
    """Id shift applied to q's elements in rplus(p, q, ...)."""
    if not q.elements:
        return 0
    base = max(p.elements) if p.elements else 0
    return base - min(q.elements) + 1


def rplus(p, q, rel, name=None):
    """Partially ordinal sum: disjoint union of p and q ordered within each
    part, plus x < y for x in p, y in q whenever some (x', y') in rel has
    x <= x' and y' <= y.  q's ids are shifted by rplus_offset(p, q)."""
    rel = set(rel)
    for x, y in rel:
        if x not in p:
            raise RelationOutOfRange("left element %r not in left poset" % (x,))
        if y not in q:
            raise RelationOutOfRange("right element %r not in right poset" % (y,))
    off = rplus_offset(p, q)
    elements = set(p.elements) | {e + off for e in q.elements}
    above = {e: set(p.above(e)) for e in p.elements}
    for e in q.elements:
        above[e + off] = {y + off for y in q.above(e)}
    for x in p.elements:
        for (x1, y1) in rel:
            if x == x1 or p.lt(x, x1):
                above[x].add(y1 + off)
                above[x].update(y + off for y in q.above(y1))
    return Poset(elements, above, name=name)


def power(p, rel, n, name=None):
    """n-fold partially ordinal sum of p with itself along rel, copies
    numbered bottom-up; copy k's element e gets id e + (k-1)*max(p ids)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rel = set(rel)
    for x, y in rel:
        if x not in p or y not in p:
            raise RelationOutOfRange("relation pair (%r, %r) outside the block" % (x, y))
    out = p
    shift = 0
    for _ in range(n - 1):
        off = rplus_offset(out, p)
        out = rplus(out, p, {(x + shift, y) for x, y in rel})
        shift = off
    if name is not None:
        out = Poset(out.elements, {e: out.above(e) for e in out.elements}, name=name)
    return out


# ---------------------------------------------------------------------------
# text format: "name:" (optional), "elements: 1 2 3", "cover: x y" lines,
# and optional "rel: x y" lines carrying a relation for partially ordinal
# sums.  "#" starts a comment.

def parse_poset_text(text):
    """Parse the poset file format; returns (poset, relation_pairs)."""
    elements = None
    covers = []
    rels = []
    name = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        fields = rest.split()
        try:
            if key == "elements":
                elements = [int(f) for f in fields]
            elif key == "cover":
                x, y = (int(f) for f in fields)
                covers.append((x, y))
            elif key == "rel":
                x, y = (int(f) for f in fields)
                rels.append((x, y))
            elif key == "name":
                name = rest.strip()
            else:
                raise ValueError("unknown directive %r" % key)
        except ValueError as exc:
            raise PosetError("line %d: %s" % (lineno, exc)) from None
    if elements is None:
        raise PosetError("missing 'elements:' line")
    return Poset.build(elements, covers, name=name), rels


def render_poset_text(p, rels=()):
    lines = []
    if p.name:
        lines.append("name: %s" % p.name)
    lines.append("elements: " + " ".join(str(e) for e in p.elements))
    for x, y in sorted(p.covers):
        lines.append("cover: %d %d" % (x, y))
    for x, y in sorted(rels):
        lines.append("rel: %d %d" % (x, y))
    return "\n".join(lines) + "\n"
