"""Print a fixed set of ppgf outputs, one line each, for byte comparison.

A change meant to keep every result exactly as it was is checked by
running this script against the old and the new source tree and
comparing the two outputs byte for byte:

    PYTHONPATH=/path/to/old/src python3 tools/identity_outputs.py > old.txt
    PYTHONPATH=src python3 tools/identity_outputs.py > new.txt
    cmp old.txt new.txt

ppgf is imported from PYTHONPATH, so the same script serves both trees.
The posets come from the benchmark's pinned corpora (perfbench/workloads.py).
The first section prints the poset layer itself, on the first 40
acceptance-corpus posets and the first 10 wide posets (10 to 12
elements): the deletion of every element, and the gluing of every
nonempty subset of every antichain of two or more elements.  gfun_q of
the first 40 wide posets is printed under the default and the reversed
strategy, and under ple_first for the 14 of them with at most 45
nonempty antichains.  gfun of every acceptance poset is also printed
under the bindings e -> x<ceil(e/2)> and e -> x<ceil(e/3)> and each
strategy: elements share variables, so those bindings fail
keeps_normal_form and the value is renormalized, the one path of gfun
that still is, over denominators with several powers of one monomial.
The last sections read a block whose ids do not start at 1, {5, 7, 9},
from a temporary file, and print the id layout itself: every built-in
block decomposition and the {5, 7, 9} block (without a seed, with one,
and with a seed and a tail) assembled with 1 to 4 copies and named as
the families name theirs, as text with the sorted id map, and rplus
and power on the first 10 acceptance posets, the upper piece of each
rplus relabeled to ids 7, 10, 13, ....
eval --multivariate --json runs up to zigzag n = 6 and three_rowed n = 4,
the largest multivariate outputs in reach (about 7 s and 23 s on a 2-core
Xeon, a 90,480-term numerator at zigzag n = 6), so that a change to the
sparse kernel or its rendering is checked on them byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from dataclasses import replace
from itertools import combinations
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

from ppgf import cli, engine, families  # noqa: E402
from ppgf.algebra import mono_var  # noqa: E402
from ppgf.poset import (Poset, parse_poset_text, power,  # noqa: E402
                        render_poset_text, rplus)
from workloads import CORPUS_SEED, corpus  # noqa: E402

STRATEGIES = (engine.default_strategy, engine.reversed_strategy,
              engine.ple_first_strategy)
EVAL = {"multicube": range(1, 8), "zigzag": range(1, 21),
        "three_rowed": range(1, 10), "two_rowed_dd": range(2, 16)}
# one past the benchmark's recurrence_mv operations (zigzag n=5,
# three_rowed n=3), plus the one family with a tail and a four-element block
MULTIVARIATE = {"zigzag": range(1, 7), "three_rowed": range(1, 5),
                "two_rowed_dd": range(2, 9), "multicube": range(1, 3)}
# three_rowed's block on the ids 5, 7, 9
SPACED_BLOCK = "elements: 5 7 9\ncover: 5 7\ncover: 5 9\nrel: 7 7\nrel: 9 9\n"


def emit(label, text):
    print("%s\t%s" % (label, text.rstrip("\n").replace("\n", "\\n")))


def run_cli(argv, label=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    emit(label or " ".join(argv), "exit %d: %s" % (rc, out.getvalue()))


def spaced_block():
    """recurrence and eval --block on SPACED_BLOCK, labeled without the
    temporary file's path."""
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "block.poset")
        with open(path, "w") as fh:
            fh.write(SPACED_BLOCK)
        runs = [["recurrence"], ["recurrence", "--json"]]
        runs += [["eval", "--n", str(n), "--json"] for n in range(1, 6)]
        runs += [["eval", "--n", str(n), "--multivariate", "--json"]
                 for n in range(1, 4)]
        for argv in runs:
            run_cli(argv + ["--block", path],
                    " ".join(argv + ["--block", "{5,7,9}"]))


def layout(acceptance):
    """assemble's posets and id maps, and rplus and power on corpus
    posets, each relation the pairs whose ids sum to a multiple of 3."""
    block, rel = parse_poset_text(SPACED_BLOCK)
    spaced = families.BlockDecomposition(block=block, rel=frozenset(rel))
    seeded = replace(spaced, seed=families.chain(2), seed_rel=frozenset({(2, 5)}))
    decos = {name: getattr(families, name + "_block")()
             for name in ("zigzag", "three_rowed", "two_rowed_dd", "multicube")}
    decos["{5,7,9}"] = spaced
    decos["{5,7,9} seeded"] = seeded
    decos["{5,7,9} seeded tailed"] = replace(
        seeded, tail=families.antichain(2), tail_rel=frozenset({(7, 1), (9, 2)}))
    for label, deco in decos.items():
        for n in range(1, 5):
            p, idmap = deco.assemble(n, name="%s-%d" % (label, n))
            emit("assemble %s %d" % (label, n),
                 render_poset_text(p) + repr(sorted(idmap.items())))
    for i, p in enumerate(acceptance[:10]):
        nxt = acceptance[i + 1]
        up = {e: 3 * e + 4 for e in nxt.elements}
        q = Poset.build(up.values(), {(up[x], up[y]) for x, y in nxt.covers})
        for lower, upper in ((p, q), (Poset.empty(), q), (p, Poset.empty())):
            pairs = {(x, y) for x in lower.elements for y in upper.elements
                     if (x + y) % 3 == 0}
            emit("rplus %d %d %d" % (i, len(lower), len(upper)),
                 render_poset_text(rplus(lower, upper, pairs)))
        pairs = {(x, y) for x in p.elements for y in p.elements if (x + y) % 3 == 0}
        for n in range(1, 4):
            emit("power %d %d" % (i, n), render_poset_text(power(p, pairs, n)))


def poset_layer(label, posets):
    """Every deletion and every gluing along an antichain of two or more
    elements, as text."""
    for i, p in enumerate(posets):
        for b in p.elements:
            emit("%s delete %d %d" % (label, i, b), render_poset_text(p.delete(b)))
        for k in range(2, len(p) + 1):
            for a in p.antichains_of_size(k):
                members = sorted(a)
                for r in range(1, k + 1):
                    for m in combinations(members, r):
                        child, glued = p.ple(m, a)
                        emit("%s ple %d %s %s" % (label, i, m, members),
                             "glued %d: %s" % (glued, render_poset_text(child)))


def main():
    acceptance = corpus(Poset, 120, 1, 7, 0.5, CORPUS_SEED)
    wide = corpus(Poset, 40, 10, 12, 0.35, CORPUS_SEED)
    poset_layer("acceptance", acceptance[:40])
    poset_layer("wide", wide[:10])
    for i, p in enumerate(acceptance):
        for s in STRATEGIES:
            emit("gfun %d %s" % (i, s.__name__), engine.gfun(p, strategy=s).dumps())
        emit("gfun_q %d" % i, engine.gfun_q(p).dumps())
    for k in (2, 3):
        for i, p in enumerate(acceptance):
            shared = {e: mono_var("x%d" % -(-e // k)) for e in p.elements}
            for s in STRATEGIES:
                emit("gfun shared/%d %d %s" % (k, i, s.__name__),
                     engine.gfun(p, shared, strategy=s).dumps())
    for i, p in enumerate(wide):
        emit("wide gfun_q %d" % i, engine.gfun_q(p).dumps())
        # ple_first glues wide antichains, summing up to 2^|A| - 1 parts;
        # posets with more antichains take from 2 s to minutes each on a
        # 2-core Xeon
        for s in STRATEGIES[1:]:
            if s is engine.ple_first_strategy and p.antichain_count() > 45:
                continue
            emit("wide gfun_q %d %s" % (i, s.__name__),
                 engine.gfun_q(p, strategy=s).dumps())
    for family, ns in EVAL.items():
        for n in ns:
            run_cli(["eval", "--family", family, "--n", str(n), "--json"])
    for family, ns in MULTIVARIATE.items():
        for n in ns:
            run_cli(["eval", "--family", family, "--n", str(n),
                     "--multivariate", "--json"])
    for family in EVAL:
        run_cli(["recurrence", "--family", family])
        run_cli(["recurrence", "--family", family, "--json"])
    spaced_block()
    layout(acceptance)


if __name__ == "__main__":
    main()
