"""The four benchmark workloads.

Each workload turns the ppgf modules, a seed and a size into a fixed list
of operations.  Operations run one at a time (a closed loop with a single
caller) and return their output; each one's check decides, outside the
timed region and through checker.py, whether that output is right.

The corpus workloads draw their posets from pinned corpora (the
acceptance suite's seed 20250810) and use the run's seed only for the
order in which the operations are issued.  Per-poset cost is heavy-tailed:
on a 2-CPU 2.1 GHz Xeon the median poset of the acceptance corpus takes
5 ms and the slowest 7.6 s, and the corpus drawn from seed 1 holds a
single poset that takes over 27 s.  A corpus drawn per seed would change a
run's work by multiples from seed to seed and could exceed the run's time
limit.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from checker import matches_maj, poset_maj_numerator, series

CORPUS_SEED = 20250810


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in BENCHMARK.json."""
    name: str
    make_ops: Callable  # (lib, seed, smoke) -> [Op]
    # traced functions the workload must reach; the per-layer metrics it
    # is expected to move are among these
    exercises: tuple


def corpus(poset_cls, count, min_size, max_size, prob, seed):
    """Random acyclic cover sets, seeded: the acceptance suite's generator
    with the size range and pair probability as parameters."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(min_size, max_size)
        covers = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                  if rng.random() < prob]
        out.append(poset_cls.build(range(1, n + 1), covers))
    return out


def _shuffled(ops, seed):
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


def _cli_op(lib, label, argv, check):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = lib.cli.main(argv)
        return rc, out.getvalue()

    def check_output(result):
        rc, text = result
        return rc == 0 and check(json.loads(text))

    return Op(label, run, check_output)


def _maj_check(make_poset):
    """Check of a rendered rational function against Stanley's lemma.
    The poset and its maj numerator are built on first use, so neither
    counts towards set-up or operation time."""
    cache = []

    def check(rf_json):
        if not cache:
            poset = make_poset()
            cache.append((len(poset.elements), poset_maj_numerator(poset)))
        size, maj = cache[0]
        return matches_maj(rf_json, size, maj)

    return check


# -- multicube5_q --------------------------------------------------------

def multicube_ops(lib, seed, smoke):
    n = 3 if smoke else 5
    argv = ["eval", "--family", "multicube", "--n", str(n), "--json"]
    return [_cli_op(lib, "multicube n=%d" % n, argv,
                    _maj_check(lambda: lib.families.multicube(n)))]


# -- acceptance_sweep ----------------------------------------------------

def acceptance_ops(lib, seed, smoke):
    engine = lib.engine
    posets = corpus(lib.poset.Poset, 8 if smoke else 100, 1, 7, 0.5,
                    CORPUS_SEED)

    def op_for(i, p):
        def run():
            f = engine.gfun(p)
            ok = f.series(8) == lib.oracle.truncated_gf(p, 8)
            others = [engine.gfun(p, strategy=s)
                      for s in (engine.reversed_strategy,
                                engine.ple_first_strategy)]
            ok = ok and all(lib.algebra.rf_eq(f, g) for g in others)
            return ok, [f] + others

        check_one = _maj_check(lambda: p)

        def check(result):
            ok, values = result
            return ok and all(check_one(g.to_json()) for g in values)

        return Op("acceptance poset %d" % i, run, check)

    return _shuffled([op_for(i, p) for i, p in enumerate(posets)], seed)


# -- wide_q --------------------------------------------------------------

def wide_ops(lib, seed, smoke):
    posets = corpus(lib.poset.Poset, 5 if smoke else 100, 10, 12, 0.35,
                    CORPUS_SEED)

    def op_for(i, p):
        check = _maj_check(lambda: p)
        return Op("wide poset %d" % i, lambda: lib.engine.gfun_q(p),
                  lambda f: check(f.to_json()))

    return _shuffled([op_for(i, p) for i, p in enumerate(posets)], seed)


# -- recurrence_mv -------------------------------------------------------

def _mv_check(lib, family, n, bound=6):
    """Full q-numerator against Stanley's lemma, and the multivariate
    series to total degree 6 against brute-force enumeration."""
    def make_poset():
        return lib.families.build_family(family, n=n)

    maj = _maj_check(make_poset)

    def check(rf_json):
        if not maj(rf_json):
            return False
        want = {tuple(sorted(m)): c for m, c in
                lib.oracle.truncated_gf(make_poset(), bound).terms.items()}
        return series(rf_json, bound) == want

    return check


def recurrence_mv_ops(lib, seed, smoke):
    cases = [("zigzag", 3 if smoke else 5), ("three_rowed", 2 if smoke else 3)]
    ops = []
    for family, n in cases:
        argv = ["eval", "--family", family, "--n", str(n), "--multivariate",
                "--json"]
        ops.append(_cli_op(lib, "%s n=%d multivariate" % (family, n), argv,
                           _mv_check(lib, family, n)))
    return _shuffled(ops, seed)


_ALGEBRA = ("algebra.exact_div", "algebra.Polynomial.__mul__", "algebra.rf_sum")
_POSET = ("poset.Poset.delete", "poset.Poset.ple",
          "poset.Poset.removable_elements")
_RECURRENCE = ("recurrence.discover_states", "recurrence.eliminate_prefix",
               "recurrence.RecurrenceSystem.evaluate",
               "recurrence.RecurrenceSystem.base_value", "cli.main")

WORKLOADS = {w.name: w for w in (
    Workload("multicube5_q",
             multicube_ops,
             _ALGEBRA + ("algebra.Polynomial.substitute", "engine.gfun")
             + _POSET + _RECURRENCE),
    Workload("acceptance_sweep",
             acceptance_ops,
             _ALGEBRA + ("algebra.Polynomial.substitute",
                         "algebra.RationalFunction.series", "algebra.rf_eq",
                         "engine.gfun", "engine.apply_deletion",
                         "engine.apply_ple", "poset.Poset.antichains_of_size",
                         "oracle.truncated_gf") + _POSET),
    Workload("wide_q",
             wide_ops,
             _ALGEBRA + ("engine.gfun_at", "poset.Poset.antichains_of_size")
             + _POSET),
    Workload("recurrence_mv",
             recurrence_mv_ops,
             _ALGEBRA + ("algebra.Polynomial.substitute", "engine.gfun")
             + _POSET + _RECURRENCE),
)}
