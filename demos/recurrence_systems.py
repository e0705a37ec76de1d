"""Discover and iterate recurrence systems for the block families.

Run:  python demos/recurrence_systems.py
"""

from ppgf.algebra import rf_eq
from ppgf.engine import gfun_q
from ppgf.families import three_rowed_block, two_rowed_dd_block, zigzag_block
from ppgf.recurrence import discover_states

for deco, label in ((zigzag_block(), "zigzag"),
                    (three_rowed_block(), "three-rowed"),
                    (two_rowed_dd_block(), "two-rowed double diagonals")):
    print("==", label, "==")
    system = discover_states(deco)
    print(system.emit_text(), end="")

    # iterating the system must agree with running the engine directly
    for n in (2, 4):
        value = system.evaluate(n)
        poset, _ = deco.assemble(n)
        direct = gfun_q(poset)
        print("n=%d: f(q) = %s" % (n, value))
        print("      agrees with the direct engine: %s" % rf_eq(value, direct))
    print()
