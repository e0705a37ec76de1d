"""Walk through the two poset transformations on small examples.

Run:  python demos/transformations.py
"""

from ppgf.algebra import rf_eq
from ppgf.engine import apply_deletion, apply_ple, default_binding, gfun, gfun_q
from ppgf.families import chain, diamond
from ppgf.oracle import enumerate_ppartitions, truncated_gf, verify
from ppgf.poset import Poset


def show(title, value):
    print("%-34s %s" % (title + ":", value))


def by_position(p):
    """The default binding x_e := x<e> as the identities take it: the
    tuple of monomials aligned with p.elements."""
    bind = default_binding(p)
    return tuple(bind[e] for e in p.elements)


def recur(p, at):
    """f of a child poset at its binding, by the full engine."""
    return gfun(p, dict(zip(p.elements, at)))


print("== chains and the diamond ==")
c = chain(3)
show("f of the 3-chain", gfun(c))

d = diamond()
show("diamond covers", sorted(d.covers))
show("removable elements", sorted(d.removable_elements()))

# deleting element 2 expresses f_D through the remaining 3-chain
f_d = apply_deletion(d, 2, by_position(d), recur)
show("f of the diamond", f_d)
show("same from the full engine", rf_eq(f_d, gfun(d)))
show("verified against enumeration", bool(verify(d, f_d, 10)))
show("one-variable form", gfun_q(d))
show("series to degree 5", gfun_q(d).series(5))

print()
print("== gluing an antichain ==")
# one bottom element under three incomparable middles under one top
fan = Poset.build({1, 2, 3, 4, 5},
                  {(1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)})
show("poset", fan)
glued, glued_id = fan.ple({2, 3}, {2, 3, 4})
show("glue {2,3} inside {2,3,4}", glued)

# the inclusion-exclusion over subsets of an antichain reproduces f
f_fan = apply_ple(fan, (2, 3, 4), by_position(fan), recur)
show("f from the 7-term gluing sum", rf_eq(f_fan, gfun(fan)))

print()
print("== enumeration oracle ==")
show("diamond maps with values <= 1", len(list(enumerate_ppartitions(d, 1))))
show("truncated sum, degree 2", truncated_gf(d, 2))
