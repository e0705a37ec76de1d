"""Shared hypothesis strategies and helpers for the test suite."""

from hypothesis import strategies as st

from ppgf import engine
from ppgf.poset import Poset


@st.composite
def posets(draw, max_size=7):
    """Random poset from a random acyclic cover-candidate set on 1..n."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    pairs = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if draw(st.booleans()):
                pairs.append((i, j))
    return Poset.build(range(1, n + 1), pairs)


@st.composite
def shuffled_orders(draw, max_size=7):
    """Elements on spaced ids, ordered along a shuffle of them, so that a
    larger id may lie below a smaller one."""
    ids = draw(st.lists(st.integers(1, 40), unique=True, max_size=max_size))
    order = draw(st.permutations(ids))
    pairs = {(x, y) for i, x in enumerate(order) for y in order[i + 1:]
             if draw(st.booleans())}
    return ids, pairs


def recursion_edges(p, strategy=engine.default_strategy):
    """(parent, child) nonempty-antichain counts on every edge of gfun's
    recursion from p: each cover structure is expanded once, as gfun's
    memo does (on Poset.key), through the identities' right-hand sides."""
    edges = []
    seen = set()
    todo = [p]
    while todo:
        q = todo.pop()
        if not q.elements or q.key in seen:
            continue
        seen.add(q.key)
        kind, arg = strategy(q)
        rhs = engine.deletion_rhs if kind == "delete" else engine.gluing_rhs
        parent = q.antichain_count()
        for _, _, child, _, _ in rhs(q, arg)[1]:
            edges.append((parent, child.antichain_count()))
            todo.append(child)
    return edges
