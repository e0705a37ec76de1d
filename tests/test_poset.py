import random
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ppgf.poset import (CycleDetected, EmptySubset, NotAntichain, Poset,
                        PosetError, RelationOutOfRange, SubsetNotContained,
                        UnknownElement, parse_poset_text, power,
                        render_poset_text, rplus, stack)
from ppgf.families import (BlockDecomposition, antichain, chain, diamond,
                           two_rowed_dd_block)
from strategies import posets, shuffled_orders


def fan5():
    """One bottom element under a 3-antichain under one top element."""
    return Poset.build({1, 2, 3, 4, 5},
                       {(1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)})


def crown4():
    """Two bottom elements each below two top elements."""
    return Poset.build({1, 2, 3, 4}, {(1, 3), (1, 4), (2, 3), (2, 4)})


# -- construction ------------------------------------------------------------

def test_build_diamond():
    d = diamond()
    assert d.covers == frozenset({(1, 2), (1, 3), (2, 4), (3, 4)})
    assert d.lt(1, 4) and not d.lt(2, 3)


def test_build_empty():
    p = Poset.build((), ())
    assert len(p) == 0 and p.covers == frozenset()


def test_build_cycle_detected():
    with pytest.raises(CycleDetected):
        Poset.build({1, 2}, {(1, 2), (2, 1)})


def test_build_unknown_element():
    with pytest.raises(UnknownElement):
        Poset.build({1, 2}, {(1, 3)})


def test_build_reduces_transitive_input():
    p = Poset.build({1, 2, 3}, {(1, 2), (2, 3), (1, 3)})
    assert p.covers == frozenset({(1, 2), (2, 3)})
    assert p.lt(1, 3)


# -- removable elements -------------------------------------------------------

def test_removable_diamond():
    assert diamond().removable_elements() == {2, 3}


def test_removable_chain():
    c = chain(5)
    assert c.removable_elements() == set(c.elements)


def test_removable_fan():
    assert fan5().removable_elements() == {2, 3, 4}


# -- deletion ------------------------------------------------------------------

def test_delete_diamond_gives_chain():
    p = diamond().delete(2)
    assert p == Poset.build({1, 3, 4}, {(1, 3), (3, 4)})


def test_delete_singleton():
    p = chain(1).delete(1)
    assert len(p) == 0


def test_delete_fan_element():
    p = fan5().delete(4)
    assert p == Poset.build({1, 2, 3, 5}, {(1, 2), (1, 3), (2, 5), (3, 5)})


def test_delete_unknown():
    with pytest.raises(UnknownElement):
        diamond().delete(9)


# -- gluing (partially linear extension) ---------------------------------------

def test_ple_single_member():
    p, glued = fan5().ple({2}, {2, 3, 4})
    assert glued == 6
    assert p == Poset.build({1, 3, 4, 5, 6},
                            {(1, 3), (1, 4), (3, 6), (4, 6), (6, 5)})


def test_ple_two_members_gives_chain():
    p, glued = fan5().ple({2, 3}, {2, 3, 4})
    assert glued == 6
    assert p == Poset.build({1, 4, 5, 6}, {(1, 4), (4, 6), (6, 5)})


def test_ple_whole_singleton_antichain_relabels():
    base = diamond()
    p, glued = base.ple({2}, {2})
    assert len(p) == len(base)
    assert p == Poset.build({1, 3, 4, 5}, {(1, 5), (1, 3), (5, 4), (3, 4)})


def test_ple_errors():
    with pytest.raises(EmptySubset):
        fan5().ple(set(), {2, 3})
    with pytest.raises(SubsetNotContained):
        fan5().ple({5}, {2, 3})
    with pytest.raises(NotAntichain):
        fan5().ple({1}, {1, 2})


# -- antichains ----------------------------------------------------------------

def test_antichains_of_size_diamond():
    assert list(diamond().antichains_of_size(2)) == [frozenset({2, 3})]


def test_antichains_of_size_chain():
    assert list(chain(4).antichains_of_size(2)) == []


def test_antichains_of_size_free():
    got = list(antichain(3).antichains_of_size(2))
    assert got == [frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})]


def test_antichains_of_size_match_the_filtered_combinations():
    # seeded random posets of up to 10 elements on spaced ids, sparse to
    # dense, so that antichains of every size occur; the order follows a
    # shuffle of the ids, so a later id may lie below an earlier one
    rng = random.Random(20251019)
    for _ in range(150):
        ids = rng.sample(range(1, 31), rng.randint(0, 10))
        prob = rng.choice((0.05, 0.2, 0.4, 0.7))
        p = Poset.build(ids, [(x, y) for x, y in combinations(ids, 2)
                              if rng.random() < prob])
        for k in range(1, len(ids) + 2):
            want = [frozenset(c) for c in combinations(p.elements, k)
                    if not any(p.comparable(x, y) for x, y in combinations(c, 2))]
            assert list(p.antichains_of_size(k)) == want


def test_antichain_count_small():
    assert chain(3).antichain_count() == 3
    assert antichain(3).antichain_count() == 7
    assert diamond().antichain_count() == 5


# -- partially ordinal sum ------------------------------------------------------

def test_rplus_example():
    p = antichain(2)
    q = Poset.build({3, 4}, {(3, 4)})
    s = rplus(p, q, {(1, 4), (2, 3), (2, 4)})
    assert s == Poset.build({1, 2, 3, 4}, {(1, 4), (2, 3), (3, 4)})


def test_rplus_empty_relation_is_direct_sum():
    s = rplus(diamond(), antichain(2), ())
    assert s.covers == frozenset({(1, 2), (1, 3), (2, 4), (3, 4)})
    assert not any(s.comparable(x, y) for x in (1, 2, 3, 4) for y in (5, 6))


def test_rplus_full_relation_is_ordinal_sum():
    p = antichain(2)
    s = rplus(p, p, {(x, y) for x in (1, 2) for y in (1, 2)})
    assert all(s.lt(x, y) for x in (1, 2) for y in (3, 4))


def test_rplus_out_of_range():
    with pytest.raises(RelationOutOfRange):
        rplus(antichain(2), antichain(2), {(3, 1)})


def test_power_zigzag():
    p = Poset.build({1, 2}, {(2, 1)})
    z2 = power(p, {(2, 1)}, 2)
    assert z2 == Poset.build({1, 2, 3, 4}, {(2, 1), (2, 3), (4, 3)})


def test_power_single_copy():
    p = diamond()
    assert power(p, {(1, 1)}, 1) == p


def test_power_three_rowed():
    p = Poset.build({1, 2, 3}, {(1, 2), (1, 3)})
    x = power(p, {(2, 2), (3, 3)}, 3)
    assert x == Poset.build(
        range(1, 10),
        {(1, 2), (1, 3), (4, 5), (4, 6), (7, 8), (7, 9),
         (2, 5), (3, 6), (5, 8), (6, 9)})


def test_power_window_isomorphic_to_rplus():
    p = Poset.build({1, 2}, {(2, 1)})
    rel = {(2, 1)}
    x = power(p, rel, 4)
    pair = rplus(p, p, rel)
    for k in range(3):
        off = 2 * k
        window = {e for e in x.elements if off < e <= off + 4}
        sub = {e: {y for y in x.above(e) if y in window} for e in window}
        shifted = Poset({e - off for e in window},
                        {e - off: {y - off for y in sub[e]} for e in window})
        assert shifted == pair


def test_rplus_of_the_empty_poset_starts_at_one():
    q = Poset.build({5, 7}, {(5, 7)})
    s = rplus(Poset.empty(), q, ())
    assert s == Poset.build({1, 3}, {(1, 3)})
    assert stack([Poset.empty(), q], [()]) == (s, [0, -4])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_power_and_assemble_reject_a_pair_outside_the_block(n):
    with pytest.raises(RelationOutOfRange):
        power(antichain(2), {(1, 3)}, n)
    with pytest.raises(RelationOutOfRange):
        BlockDecomposition(block=antichain(2),
                           rel=frozenset({(3, 1)})).assemble(n)


@pytest.mark.parametrize("change", [
    {"seed_rel": frozenset({(2, 1)})},  # 2 is not in the seed
    {"seed_rel": frozenset({(1, 3)})},  # 3 is not in the block
    {"tail_rel": frozenset({(3, 1)})},  # 3 is not in the block
    {"tail_rel": frozenset({(1, 2)})},  # 2 is not in the tail
])
def test_assemble_rejects_a_seed_or_tail_pair_outside_its_pieces(change):
    with pytest.raises(RelationOutOfRange):
        replace(two_rowed_dd_block(), **change).assemble(2)


def _closed_rplus(p, q, rel):
    """Reference rplus: q shifted past max(p ids), or to start at 1 when
    p is empty, and the order closed by hand; also returns the shift."""
    off = ((max(p.elements) if p.elements else 0) - min(q.elements) + 1
           if q.elements else 0)
    above = {e: set(p.above(e)) for e in p.elements}
    for e in q.elements:
        above[e + off] = {y + off for y in q.above(e)}
    for x in p.elements:
        for x1, y1 in rel:
            if x == x1 or p.lt(x, x1):
                above[x].add(y1 + off)
                above[x].update(y + off for y in q.above(y1))
    return Poset(set(above), above), off


def _assembled_by_offsets(deco, nblocks):
    """Reference assemble: the copies, the seed and the tail summed by
    nested _closed_rplus calls, and the id map read off their shifts."""
    out, shift = deco.block, 0
    for _ in range(nblocks - 1):
        out, off = _closed_rplus(out, deco.block,
                                 {(x + shift, y) for x, y in deco.rel})
        shift = off
    step = max(deco.block.elements) - min(deco.block.elements) + 1
    idmap = {("copy", k, e): e + (k - 1) * step
             for k in range(1, nblocks + 1) for e in deco.block.elements}
    if deco.seed.elements:
        out, off = _closed_rplus(deco.seed, out, deco.seed_rel)
        for key in idmap:
            idmap[key] += off
        idmap.update((("seed", e), e) for e in deco.seed.elements)
    if deco.tail.elements:
        last = {(idmap[("copy", nblocks, x)], y) for x, y in deco.tail_rel}
        out, off = _closed_rplus(out, deco.tail, last)
        idmap.update((("tail", e), e + off) for e in deco.tail.elements)
    return out, idmap


SPACED = Poset.build({5, 7, 9}, {(5, 7), (5, 9)})


@pytest.mark.parametrize("deco", [
    two_rowed_dd_block(),
    BlockDecomposition(block=SPACED, rel=frozenset({(7, 7), (9, 9)})),
    BlockDecomposition(block=SPACED, rel=frozenset({(7, 7), (9, 9)}),
                       seed=chain(2), seed_rel=frozenset({(2, 5)})),
    BlockDecomposition(block=SPACED, rel=frozenset({(9, 5)}),
                       tail=Poset.build({3, 4}, ()),
                       tail_rel=frozenset({(7, 3), (9, 4)})),
], ids=["two_rowed_dd", "spaced", "spaced_seed", "spaced_tail"])
def test_assemble_lays_out_ids_as_nested_rplus_did(deco):
    for n in range(1, 5):
        got, idmap = deco.assemble(n, name="x")
        want, want_map = _assembled_by_offsets(deco, n)
        assert got == want and got.covers == want.covers and got.name == "x"
        assert list(idmap.items()) == list(want_map.items())
    if not deco.seed.elements:  # copy 1 keeps the block's ids
        assert all(idmap[("copy", 1, e)] == e for e in deco.block.elements)


# -- invariants on random posets -------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(posets())
def test_closure_and_reduction_invariants(p):
    for x in p.elements:
        assert x not in p.above(x)
        for y in p.above(x):
            assert p.above(y) <= p.above(x)
    # covers carry no transitively implied pair
    for x, y in p.covers:
        assert not any(p.lt(x, z) and p.lt(z, y) for z in p.elements)
    # closure equals the closure of covers
    assert Poset.build(p.elements, p.covers) == p


@settings(max_examples=50, deadline=None)
@given(posets(max_size=6), st.data())
def test_ple_decreases_antichain_count(p, data):
    antichains = list(p.antichains_of_size(2))
    if not antichains:
        return
    a = sorted(data.draw(st.sampled_from(antichains)))
    subsets = [(a[0],), (a[1],), tuple(a)]
    m = data.draw(st.sampled_from(subsets))
    glued, _ = p.ple(m, a)
    assert glued.antichain_count() <= p.antichain_count() - 1


@settings(max_examples=50, deadline=None)
@given(posets(max_size=6), st.data())
def test_delete_decreases_antichain_count(p, data):
    if not p.elements:
        return
    b = data.draw(st.sampled_from(sorted(p.elements)))
    assert p.delete(b).antichain_count() <= p.antichain_count() - 1


@settings(max_examples=40, deadline=None)
@given(posets(max_size=5), posets(max_size=5))
def test_rplus_direct_sum_keeps_comparability_apart(p, q):
    s = rplus(p, q, ())
    off = (max(p.elements) if p.elements else 0) - \
          (min(q.elements) - 1 if q.elements else 0)
    for x in p.elements:
        assert {y for y in s.above(x)} == p.above(x)
    for x in q.elements:
        assert {y - off for y in s.above(x + off)} == q.above(x)


def _cover_pairs(p):
    """x < y with no z strictly between, straight from the definition."""
    es = p.elements
    return {(x, y) for x in es for y in es if p.lt(x, y)
            and not any(p.lt(x, z) and p.lt(z, y) for z in es)}


def _glued_by_pairs(p, m_set, a_set):
    """ple(m_set, a_set) as the closure of the gluing relation's pairs."""
    glued = max(p.elements) + 1
    keep = [e for e in p.elements if e not in m_set]
    below_a = {x for x in keep if any(x == a or p.lt(x, a) for a in a_set)}
    above_m = {y for y in keep if any(p.lt(u, y) for u in m_set)}
    pairs = {(x, y) for x in keep for y in p.above(x) if y not in m_set}
    pairs |= {(x, y) for x in below_a for y in above_m | {glued}}
    pairs |= {(glued, y) for y in above_m}
    return Poset.build(set(keep) | {glued}, pairs)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.data())
def test_build_closes_any_acyclic_relation(n, data):
    pairs = data.draw(st.sets(st.tuples(st.integers(1, n), st.integers(1, n))
                              .filter(lambda t: t[0] < t[1]))) if n > 1 else set()
    reach = set(pairs)
    for z in range(1, n + 1):  # Warshall
        reach |= {(x, y) for x, z1 in reach if z1 == z
                  for z2, y in reach if z2 == z}
    p = Poset.build(range(1, n + 1), pairs)
    assert {(x, y) for x in p.elements for y in p.above(x)} == reach


@settings(max_examples=60, deadline=None)
@given(posets(), st.data())
def test_build_detects_planted_cycle(p, data):
    if len(p) < 2:
        return
    cycle = data.draw(st.lists(st.sampled_from(p.elements), min_size=2,
                               unique=True))
    pairs = set(p.covers) | set(zip(cycle, cycle[1:] + cycle[:1]))
    with pytest.raises(CycleDetected):
        Poset.build(p.elements, pairs)


@settings(max_examples=80, deadline=None)
@given(posets())
def test_cover_queries_match_definition(p):
    covers = _cover_pairs(p)
    assert p.covers == covers
    for e in p.elements:
        assert p.upper_covers(e) == sorted(y for x, y in covers if x == e)
        assert p.lower_covers(e) == sorted(x for x, y in covers if y == e)
    assert p.removable_elements() == {
        e for e in p.elements
        if sum(x == e for x, _ in covers) <= 1 and sum(y == e for _, y in covers) <= 1}


@settings(max_examples=60, deadline=None)
@given(posets())
def test_delete_is_the_induced_subposet(p):
    for b in p.elements:
        rest = [e for e in p.elements if e != b]
        induced = {(x, y) for x in rest for y in rest if p.lt(x, y)}
        assert p.delete(b) == Poset.build(rest, induced)


@settings(max_examples=60, deadline=None)
@given(posets(max_size=6))
def test_ple_matches_closure_of_gluing_relation(p):
    for k in (2, 3):
        for a in p.antichains_of_size(k):
            for r in range(1, k + 1):
                for m in combinations(sorted(a), r):
                    glued, g = p.ple(m, a)
                    want = _glued_by_pairs(p, set(m), a)
                    assert g == max(p.elements) + 1
                    assert glued == want and glued.covers == want.covers


# -- text format ------------------------------------------------------------------

def test_parse_render_round_trip():
    text = "name: demo\nelements: 1 2 3 4\ncover: 1 2\ncover: 1 3\ncover: 2 4\ncover: 3 4\nrel: 1 1\n"
    p, rels = parse_poset_text(text)
    assert p == diamond() and p.name == "demo" and rels == [(1, 1)]
    assert render_poset_text(p, rels) == text


def test_parse_errors_carry_line_numbers():
    with pytest.raises(PosetError, match="line 2"):
        parse_poset_text("elements: 1 2\ncover: 1\n")
    with pytest.raises(PosetError, match="elements"):
        parse_poset_text("cover: 1 2\n")


# -- the bitmask poset against a plain set-based reference ------------------------

class _SetPoset:
    """Reference poset: the elements and the strict order as a set of
    pairs, closed by Warshall's algorithm, every query by definition."""

    def __init__(self, elements, pairs):
        self.elements = tuple(sorted(elements))
        less = set(pairs)
        for z in self.elements:
            less |= {(x, y) for x, z1 in less if z1 == z
                     for z2, y in less if z2 == z}
        self.less = less

    def above(self, x):
        return frozenset(y for a, y in self.less if a == x)

    def below(self, y):
        return frozenset(x for x, b in self.less if b == y)

    def covers(self):
        return frozenset((x, y) for x, y in self.less
                         if not any((x, z) in self.less and (z, y) in self.less
                                    for z in self.elements))

    def removable(self):
        covers = self.covers()
        return {e for e in self.elements
                if sum(x == e for x, _ in covers) <= 1
                and sum(y == e for _, y in covers) <= 1}

    def incomparable(self, x, y):
        return x != y and (x, y) not in self.less and (y, x) not in self.less

    def antichains(self, k):
        return [frozenset(c) for c in combinations(self.elements, k)
                if all(self.incomparable(x, y) for x, y in combinations(c, 2))]

    def delete(self, b):
        return _SetPoset([e for e in self.elements if e != b],
                         {(x, y) for x, y in self.less if b not in (x, y)})

    def ple(self, m_set, a_set):
        glued = max(self.elements) + 1
        keep = [e for e in self.elements if e not in m_set]
        below_a = {x for x in keep
                   if x in a_set or any((x, a) in self.less for a in a_set)}
        above_m = {y for y in keep if any((u, y) in self.less for u in m_set)}
        pairs = {(x, y) for x, y in self.less if x in keep and y in keep}
        pairs |= {(x, y) for x in below_a for y in above_m | {glued}}
        pairs |= {(glued, y) for y in above_m}
        return _SetPoset(keep + [glued], pairs), glued

    def shape(self):
        """The cover pairs relabeled by the rank of their ids."""
        rank = {e: i for i, e in enumerate(self.elements)}
        return len(self.elements), tuple(sorted((rank[x], rank[y])
                                                for x, y in self.covers()))


def _assert_same(p, ref):
    es = p.elements
    assert es == ref.elements
    assert p == Poset(es, {e: ref.above(e) for e in es})
    assert {(x, y) for x in es for y in p.above(x)} == ref.less
    assert p.covers == ref.covers()
    covers = ref.covers()
    for e in es:
        assert p.above(e) == ref.above(e) and p.below(e) == ref.below(e)
        assert p.upper_covers(e) == sorted(y for x, y in covers if x == e)
        assert p.lower_covers(e) == sorted(x for x, y in covers if y == e)
        for f in es:
            assert p.lt(e, f) == ((e, f) in ref.less)
            assert p.comparable(e, f) == (not ref.incomparable(e, f))
    assert p.removable_elements() == ref.removable()
    for k in range(1, len(es) + 2):
        assert list(p.antichains_of_size(k)) == ref.antichains(k)
    assert p.antichain_count() == sum(len(ref.antichains(k))
                                      for k in range(1, len(es) + 1))


@settings(max_examples=60, deadline=None)
@given(shuffled_orders(), st.data())
def test_mask_poset_matches_the_set_reference(start, data):
    ids, pairs = start
    p, ref = Poset.build(ids, pairs), _SetPoset(ids, pairs)
    # order-keeping and order-reversing relabelings of the start
    up = {e: 3 * e + 7 for e in ids}
    down = {e: 100 - e for e in ids}
    seen = [(p, ref)] + [(Poset.build(f.values(), {(f[x], f[y]) for x, y in pairs}),
                          _SetPoset(f.values(), {(f[x], f[y]) for x, y in pairs}))
                         for f in (up, down)]
    _assert_same(p, ref)
    # a chain of deletions and gluings: the glued id, max + 1, is the
    # largest but may lie below smaller ids
    for _ in range(data.draw(st.integers(0, 6))):
        if not p.elements:
            break
        antichains = [a for k in range(2, len(p) + 1) for a in ref.antichains(k)]
        if antichains and data.draw(st.booleans()):
            a = sorted(data.draw(st.sampled_from(antichains)))
            m = data.draw(st.lists(st.sampled_from(a), min_size=1, unique=True))
            (p, g), (ref, want) = p.ple(m, a), ref.ple(set(m), set(a))
            assert g == want
        else:
            b = data.draw(st.sampled_from(p.elements))
            p, ref = p.delete(b), ref.delete(b)
        _assert_same(p, ref)
        seen.append((p, ref))
    for a, ref_a in seen:
        for b, ref_b in seen:
            assert (a.key == b.key) == (ref_a.shape() == ref_b.shape())
    assert seen[0][0].key == seen[1][0].key


@st.composite
def _stacks(draw):
    """1 to 4 pieces on spaced, shuffled ids, any of them possibly empty,
    each related to the next by pairs in the two pieces' own ids."""
    piece = st.one_of(st.just(([], set())), shuffled_orders(max_size=4))
    pieces = [draw(piece) for _ in range(draw(st.integers(1, 4)))]
    rels = [draw(st.sets(st.tuples(st.sampled_from(lo), st.sampled_from(hi))))
            if lo and hi else set()
            for (lo, _), (hi, _) in zip(pieces, pieces[1:])]
    return pieces, rels


@settings(max_examples=80, deadline=None)
@given(_stacks())
def test_stack_matches_the_definition(drawn):
    pieces, rels = drawn
    refs = [_SetPoset(ids, pairs) for ids, pairs in pieces]
    got, shifts = stack([Poset.build(ids, pairs) for ids, pairs in pieces],
                        rels, name="s")
    # the layout: the first piece keeps its ids, a later nonempty one
    # starts one past the largest id placed so far (0 if none), and an
    # empty one is not shifted
    placed, want_shifts = [], []
    for i, ref in enumerate(refs):
        s = (max(placed, default=0) + 1 - min(ref.elements)
             if i and ref.elements else 0)
        placed += [e + s for e in ref.elements]
        want_shifts.append(s)
    assert shifts == want_shifts
    # x < y inside a piece, or x <= x' in piece i and y' <= y in piece
    # i + 1 for a pair (x', y') of rels[i]; then closed across the pieces
    pairs = {(x + s, y + s)
             for ref, s in zip(refs, shifts) for x, y in ref.less}
    for i, rel in enumerate(rels):
        lo, hi, s, t = refs[i], refs[i + 1], shifts[i], shifts[i + 1]
        pairs |= {(x + s, y + t) for x1, y1 in rel
                  for x in lo.below(x1) | {x1} for y in hi.above(y1) | {y1}}
    want = _SetPoset(placed, pairs)
    assert got.elements == want.elements and got.name == "s"
    assert {(x, y) for x in got.elements for y in got.above(x)} == want.less
