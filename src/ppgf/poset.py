"""Finite posets as cover DAGs, plus the structural constructions the
generating-function engine needs: deletion of an element, gluing an
antichain subset (partially linear extension), and the partially ordinal
sum of a stack of posets, each related to the next (stack, whose
docstring states the id layout once; rplus is the stack of two pieces
and power the stack of n copies of one).

A poset is immutable after construction.  Its element ids are kept
sorted, and an element's rank is its position among them; the strict
order is stored as one up-set bitmask per element, bit j of key[i] set
when elements[i] < elements[j].  key identifies the poset up to a
relabeling that keeps the order of the ids, so the engine's memo keys on
it.  Down-sets and upper/lower covers are bitmasks too: the upper covers
of x are the elements above x that are above nothing else above x.
Only Poset.build validates and closes a relation, so any acyclic
relation is accepted as input, and stack builds its sum through it;
deletion and gluing write the masks of their result directly, and the
public queries take and return ids.
"""

from __future__ import annotations

from bisect import bisect_left
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


def _ranks(mask):
    """Ranks of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(ranks):
    m = 0
    for r in ranks:
        m |= 1 << r
    return m


def _drop(masks, r):
    """masks without entry r, each without bit r and the bits above it
    moved down by one."""
    low = (1 << r) - 1
    high = ~low
    out = [m & low | m >> 1 & high for m in masks]
    del out[r]
    return out


def _derive(up):
    """Down-set, upper-cover and lower-cover masks of the up-set masks up,
    and whether up is a strict order (irreflexive and transitive)."""
    n = len(up)
    down = [0] * n
    lower = [0] * n
    upper = []
    bad = 0
    for i, u in enumerate(up):
        bit = 1 << i
        reach = 0
        m = u
        while m:
            low = m & -m
            j = low.bit_length() - 1
            reach |= up[j]
            down[j] |= bit
            m ^= low
        bad |= reach & ~u | u & bit
        cover = u & ~reach
        upper.append(cover)
        while cover:
            low = cover & -cover
            lower[low.bit_length() - 1] |= bit
            cover ^= low
    return down, upper, lower, not bad


def _made(elements, up, down, upper, lower):
    p = Poset.__new__(Poset)
    p.elements, p.key, p._down, p._upper, p._lower = elements, up, down, upper, lower
    p.name = None
    return p


class Poset:
    """Finite labeled poset; elements are opaque integer ids.

    key is the tuple of up-set masks, hashable and equal between two
    posets exactly when relabeling one by rank gives the other.
    """

    __slots__ = ("elements", "key", "_down", "_upper", "_lower", "name")

    def __init__(self, elements, above, name=None):
        self.elements = tuple(sorted(elements))
        rank = {e: i for i, e in enumerate(self.elements)}
        self.key = tuple(_mask(rank[y] for y in above[e]) for e in self.elements)
        self._down, self._upper, self._lower, _ = _derive(self.key)
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

    def _rank(self, e):
        es = self.elements
        i = bisect_left(es, e)
        if i == len(es) or es[i] != e:
            raise UnknownElement("no element %r" % (e,))
        return i

    def _ids(self, mask):
        es = self.elements
        return [es[j] for j in _ranks(mask)]

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        es = self.elements
        i = bisect_left(es, e)
        return i < len(es) and es[i] == e

    def __eq__(self, other):
        return (isinstance(other, Poset) and self.elements == other.elements
                and self.key == other.key)

    def __hash__(self):
        return hash((self.elements, self.key))

    def __repr__(self):
        covs = " ".join("%s<%s" % c for c in sorted(self.covers))
        return "Poset({%s}%s)" % (" ".join(map(str, self.elements)),
                                  (" " + covs) if covs else "")

    @property
    def covers(self):
        return frozenset((x, y) for x, c in zip(self.elements, self._upper)
                         for y in self._ids(c))

    def lt(self, x, y):
        return bool(self.key[self._rank(x)] >> self._rank(y) & 1)

    def above(self, x):
        return frozenset(self._ids(self.key[self._rank(x)]))

    def below(self, x):
        return frozenset(self._ids(self._down[self._rank(x)]))

    def comparable(self, x, y):
        i, j = self._rank(x), self._rank(y)
        return i == j or bool((self.key[i] | self._down[i]) >> j & 1)

    def upper_covers(self, e):
        return self._ids(self._upper[self._rank(e)])

    def lower_covers(self, e):
        return self._ids(self._lower[self._rank(e)])

    # -- transformations ---------------------------------------------------

    def removable_elements(self):
        """Elements with at most one lower and at most one upper cover."""
        return {e for e, lo, hi in zip(self.elements, self._lower, self._upper)
                if not lo & lo - 1 and not hi & hi - 1}

    def delete(self, b):
        """Induced subposet on the other elements.

        Only the covers next to b change: a lower cover x of b gains the
        upper covers of b that are above no other upper cover of x, and
        an upper cover y of b the lower covers of b below no other lower
        cover of y.
        """
        r = self._rank(b)
        bit = 1 << r
        up, down = self.key, self._down
        upper, lower = self._upper[:], self._lower[:]
        for covers, near, far, cone in ((upper, lower[r], upper[r], up),
                                        (lower, upper[r], lower[r], down)):
            for x in _ranks(near):
                rest = covers[x] & ~bit
                reach = 0
                for z in _ranks(rest):
                    reach |= cone[z]
                covers[x] = rest | far & ~reach
        return _made(self.elements[:r] + self.elements[r + 1:],
                     tuple(_drop(up, r)), _drop(down, r),
                     _drop(upper, r), _drop(lower, r))

    def ple(self, m_set, antichain):
        """Glue the elements of m_set (a nonempty subset of the antichain)
        into one fresh element that covers the rest of the antichain.

        Returns (poset, glued_id); the caller owns the substitution
        x_glued -> product of the glued variables.  The glued id is one
        more than the largest, so it takes the last rank.
        """
        m_set = frozenset(m_set)
        a_set = frozenset(antichain)
        if not m_set:
            raise EmptySubset("m_set must be nonempty")
        if not m_set <= a_set:
            raise SubsetNotContained("m_set must be a subset of the antichain")
        ranks = {e: self._rank(e) for e in sorted(a_set)}
        up, down = self.key, self._down
        a_mask = _mask(ranks.values())
        if any((up[i] | down[i]) & a_mask for i in ranks.values()):
            x, y = next(c for c in combinations(ranks, 2) if self.comparable(*c))
            raise NotAntichain("%r and %r are comparable" % (x, y))
        m_ranks = [ranks[e] for e in sorted(m_set)]
        above_m = 0
        for i in m_ranks:
            above_m |= up[i]
        below_a = a_mask & ~_mask(m_ranks)
        for i in ranks.values():
            below_a |= down[i]
        # the gluing conditions define the order directly, with the glued
        # element at rank n until the bits of m_set are dropped
        join = above_m | 1 << len(up)
        glued = [u | join if below_a >> i & 1 else u for i, u in enumerate(up)]
        glued.append(above_m)
        for r in reversed(m_ranks):
            glued = _drop(glued, r)
        # check that it is irreflexive and transitive (so also antisymmetric)
        down, upper, lower, is_order = _derive(glued)
        assert is_order, "gluing produced a non-transitive relation"
        g = self.elements[-1] + 1
        elements = tuple(e for e in self.elements if e not in m_set) + (g,)
        return _made(elements, tuple(glued), down, upper, lower), g

    def antichains_of_size(self, k):
        """All antichains of cardinality exactly k, lexicographically.

        A partial antichain grows only from the later elements that are
        incomparable to every chosen one, and a branch stops once too few
        of those are left to reach k.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        yield from self._grow_antichains((), (1 << len(self.elements)) - 1, k)

    def _grow_antichains(self, chosen, free, k):
        # free: the mask of the ranks after the last chosen one that are
        # incomparable to every chosen one
        need = k - len(chosen)
        es, up, down = self.elements, self.key, self._down
        while free.bit_count() >= need:
            low = free & -free
            i = low.bit_length() - 1
            free ^= low
            if need == 1:
                yield frozenset(chosen + (es[i],))
                continue
            rest = free & ~(up[i] | down[i])
            if rest.bit_count() >= need - 1:
                yield from self._grow_antichains(chosen + (es[i],), rest, k)

    def antichain_count(self):
        """Number of nonempty antichains (brute force; small posets only)."""
        up, down = self.key, self._down

        def count(free):
            total = 0
            while free:
                low = free & -free
                i = low.bit_length() - 1
                free ^= low
                total += 1 + count(free & ~(up[i] | down[i]))
            return total

        return count((1 << len(up)) - 1)


def _checked_relation(rel, lower, upper):
    """rel as a list, each pair (x, y) with x in lower and y in upper."""
    rel = list(rel)
    for x, y in rel:
        if x not in lower or y not in upper:
            raise RelationOutOfRange("relation pair (%r, %r) outside the "
                                     "pieces it relates" % (x, y))
    return rel


def stack(pieces, rels, name=None):
    """Partially ordinal sum of pieces, bottom to top: each piece ordered
    within itself, plus x < y for x in piece i, y in piece i + 1 whenever
    some (x', y') in rels[i], given in the two pieces' own ids, has
    x <= x' and y' <= y; the order is closed across all pieces.

    Returns (poset, shifts), piece i's element e getting id e + shifts[i].
    The layout: the first piece keeps its ids; each later nonempty piece
    is shifted so that its smallest id is one past the largest id placed
    so far (0 while none is); an empty piece has shift 0.
    """
    shifts, elements, covers = [], [], []
    for i, p in enumerate(pieces):
        top = elements[-1] if elements else 0  # the largest id placed so far
        s = top + 1 - p.elements[0] if i and p.elements else 0
        shifts.append(s)
        elements += [e + s for e in p.elements]
        covers += [(x + s, y + s) for x, y in p.covers]
    for i, rel in enumerate(rels):
        s, t = shifts[i], shifts[i + 1]
        covers += [(x + s, y + t)
                   for x, y in _checked_relation(rel, pieces[i], pieces[i + 1])]
    return Poset.build(elements, covers, name=name), shifts


def rplus(p, q, rel, name=None):
    """Partially ordinal sum of p below q along rel, laid out as
    stack([p, q], [rel]) lays it out."""
    return stack([p, q], [rel], name)[0]


def power(p, rel, n, name=None):
    """n-fold partially ordinal sum of p with itself along rel, copies
    numbered bottom-up and laid out as in stack: copy k's element e gets
    id e + (k-1)*(max(p ids) - min(p ids) + 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rel = _checked_relation(rel, p, p)  # also when no pair is stacked
    return stack([p] * n, [rel] * (n - 1), name)[0]


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
                if elements is not None:
                    raise ValueError("a second 'elements:' line")
                elements = [int(f) for f in fields]
                if len(set(elements)) < len(elements):
                    raise ValueError("repeated element in %r" % rest.strip())
            elif key == "cover":
                x, y = (int(f) for f in fields)
                covers.append((x, y))
            elif key == "rel":
                x, y = (int(f) for f in fields)
                rels.append((x, y))
            elif key == "name":
                if name is not None:
                    raise ValueError("a second 'name:' line")
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
