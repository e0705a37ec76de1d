"""Named poset families used by the CLI, the demos and the test suite.

Each family is pinned to an exact element numbering so that printed
formulas and golden tests are reproducible.  BlockDecomposition.assemble
stacks an optional seed, the block copies bottom-up and an optional tail
with poset.stack, whose layout rule sets every id: the seed keeps its own
ids, each copy starts one past the largest id below it and the tail one
past the last copy.  The built-in blocks are numbered 1..m, so with no
seed copy k's element e gets id e + (k-1)*m, and a block on other ids,
say {5, 7, 9}, keeps them in copy 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .poset import Poset, _checked_relation, power, stack


def chain(n, name=None):
    if n < 0:
        raise ValueError("n must be >= 0")
    return Poset.build(range(1, n + 1), [(i, i + 1) for i in range(1, n)],
                       name=name or "chain-%d" % n)


def antichain(n, name=None):
    if n < 0:
        raise ValueError("n must be >= 0")
    return Poset.build(range(1, n + 1), (), name=name or "antichain-%d" % n)


def diamond():
    return Poset.build({1, 2, 3, 4}, {(1, 2), (1, 3), (2, 4), (3, 4)},
                       name="diamond")


@dataclass(frozen=True)
class BlockDecomposition:
    """A family X_n = seed (+)_seed_rel block^n (+)_tail_rel tail."""
    block: Poset
    rel: frozenset
    seed: Poset = field(default_factory=Poset.empty)
    seed_rel: frozenset = frozenset()
    tail: Poset = field(default_factory=Poset.empty)
    tail_rel: frozenset = frozenset()

    def assemble(self, nblocks, name=None):
        """The concrete poset with nblocks copies, stacked as in
        poset.stack with an empty seed or tail left out; also returns the
        id map {('seed'|'tail', element) or ('copy', k, element): final id}."""
        if nblocks < 1:
            raise ValueError("need at least one block copy")
        _checked_relation(self.rel, self.block, self.block)
        seed = [self.seed] if self.seed.elements else []
        tail = [self.tail] if self.tail.elements else []
        out, shifts = stack(
            seed + [self.block] * nblocks + tail,
            [self.seed_rel] * len(seed) + [self.rel] * (nblocks - 1)
            + [self.tail_rel] * len(tail), name)
        copies = shifts[len(seed):len(seed) + nblocks]
        idmap = {("copy", k, e): e + s
                 for k, s in enumerate(copies, start=1) for e in self.block.elements}
        idmap.update((("seed", e), e) for e in self.seed.elements)
        idmap.update((("tail", e), e + shifts[-1]) for e in self.tail.elements)
        return out, idmap


def zigzag_block():
    return BlockDecomposition(
        block=Poset.build({1, 2}, {(2, 1)}),
        rel=frozenset({(2, 1)}))


def three_rowed_block():
    return BlockDecomposition(
        block=Poset.build({1, 2, 3}, {(1, 2), (1, 3)}),
        rel=frozenset({(2, 2), (3, 3)}))


def two_rowed_dd_block():
    # one minimal element, then 2-antichain blocks fully crossed by the
    # double diagonals, closed off by one maximal element
    return BlockDecomposition(
        block=antichain(2),
        rel=frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}),
        seed=chain(1),
        seed_rel=frozenset({(1, 1), (1, 2)}),
        tail=chain(1),
        tail_rel=frozenset({(1, 1), (2, 1)}))


def multicube_block():
    return BlockDecomposition(
        block=diamond(),
        rel=frozenset({(1, 1), (2, 2), (3, 3), (4, 4)}))


def _assembled(deco, n, label):
    """deco with n >= 1 block copies, named label-n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return deco.assemble(n, name="%s-%d" % (label, n))[0]


def zigzag(n):
    return _assembled(zigzag_block(), n, "zigzag")


def three_rowed(n):
    return _assembled(three_rowed_block(), n, "three_rowed")


def two_rowed_dd(n):
    """2n elements; n = 2 is the diamond."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return chain(2, name="two_rowed_dd-1")
    p, _ = two_rowed_dd_block().assemble(n - 1, name="two_rowed_dd-%d" % n)
    return p


def multicube(n):
    return _assembled(multicube_block(), n, "multicube")


FAMILY_NAMES = ("chain", "antichain", "diamond", "zigzag", "three_rowed",
                "two_rowed_dd", "multicube", "rpower")


def build_family(name, n=None, block=None, rels=None):
    """Poset for a named family; rpower needs a block poset and relation."""
    if name == "diamond":
        return diamond()
    if name == "rpower":
        if block is None or rels is None:
            raise ValueError("rpower needs a block poset with rel: lines")
        if n is None:
            n = 1
        return power(block, rels, n, name="rpower-%d" % n)
    if n is None:
        raise ValueError("family %r needs n" % name)
    builders = {"chain": chain, "antichain": antichain, "zigzag": zigzag,
                "three_rowed": three_rowed, "two_rowed_dd": two_rowed_dd,
                "multicube": multicube}
    try:
        return builders[name](n)
    except KeyError:
        raise ValueError("unknown family %r" % name) from None


def family_decomposition(name, block=None, rels=None):
    """BlockDecomposition for the families that have one, plus the map
    from the family parameter n to the number of block copies."""
    if name == "zigzag":
        return zigzag_block(), lambda n: n
    if name == "three_rowed":
        return three_rowed_block(), lambda n: n
    if name == "two_rowed_dd":
        return two_rowed_dd_block(), lambda n: n - 1
    if name == "multicube":
        return multicube_block(), lambda n: n
    if name == "rpower":
        if block is None or rels is None:
            raise ValueError("rpower needs a block poset with rel: lines")
        return BlockDecomposition(block=block, rel=frozenset(rels)), lambda n: n
    raise ValueError("family %r has no block decomposition" % name)
