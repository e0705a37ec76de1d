"""Stacked-diamond ("multi-cube") posets: iterate the recurrence to n = 6.

The n-th poset glues n diamonds along matching corners; its one-variable
generating function is a polynomial over (q;q)_{4n}.  The demo runs
n = 1..6, about 3 s in all on a 2-core Xeon, and prints the headline
coefficients of the degree-192 numerator at n = 6.

Run:  python demos/multicube.py
"""

import time

from ppgf.algebra import exact_div, mono_var, one_minus
from ppgf.families import multicube_block
from ppgf.recurrence import discover_states


def numerator_over_q_factorial(f, n):
    num = f.num
    remaining = list(f.den)
    for i in range(1, n + 1):
        m = mono_var("q", i)
        if m in remaining:
            remaining.remove(m)
        else:
            num = num * one_minus(m)
    for m in remaining:
        num = exact_div(num, m)
        assert num is not None
    return num


system = discover_states(multicube_block())
print("states:", len(system.states), "| transition terms:",
      sum(len(system.transitions[s]) for s in system.states))

for n in range(1, 7):
    t0 = time.time()
    f = system.evaluate(n)
    num = numerator_over_q_factorial(f, 4 * n)
    coef = {m[0][1] if m else 0: c for m, c in num.terms.items()}
    top = max(coef)
    print("n=%d (%.1fs): numerator degree %d over (q;q)_%d, center "
          "coefficient %d" % (n, time.time() - t0, top, 4 * n,
                              coef.get(top // 2, 0)))
    if n <= 2:
        print("   numerator:", num)

print()
print("n=6 headline coefficients: q^0=%d q^2=%d q^96=%d q^190=%d q^192=%d"
      % tuple(coef.get(k, 0) for k in (0, 2, 96, 190, 192)))
print("palindromic:", all(coef.get(k, 0) == coef.get(192 - k, 0)
                          for k in range(193)))
