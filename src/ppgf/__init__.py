"""Exact generating functions of P-partitions of finite posets.

A P-partition of a finite poset is an order-reversing map into the
non-negative integers; the multivariate generating function summing
prod x_a^sigma(a) over all of them is always a polynomial divided by a
product of (1 - monomial) factors.  This package computes it exactly by
structural recursion on the poset, discovers finite recurrence systems
for families built from repeated blocks, and verifies everything against
direct enumeration.
"""

__version__ = "0.1.0"

from .algebra import (Polynomial, RationalFunction, mono, mono_var, rf_sum,
                      rf_eq, exact_div, parse_polynomial, parse_rational)
from .poset import Poset, rplus, power, parse_poset_text, render_poset_text
from .engine import (gfun, gfun_q, apply_deletion, apply_ple,
                     default_strategy, reversed_strategy, ple_first_strategy)
from .oracle import enumerate_ppartitions, truncated_gf, verify
from .recurrence import (FrontierState, RecurrenceSystem, discover_states,
                         eliminate_prefix, entry_prefix, state_prefix)
from . import families

__all__ = [
    "Polynomial", "RationalFunction", "mono", "mono_var", "rf_sum", "rf_eq",
    "exact_div", "parse_polynomial", "parse_rational",
    "Poset", "rplus", "power", "parse_poset_text", "render_poset_text",
    "gfun", "gfun_q", "apply_deletion", "apply_ple",
    "default_strategy", "reversed_strategy", "ple_first_strategy",
    "enumerate_ppartitions", "truncated_gf", "verify",
    "FrontierState", "RecurrenceSystem", "discover_states",
    "eliminate_prefix", "entry_prefix", "state_prefix", "families",
]
