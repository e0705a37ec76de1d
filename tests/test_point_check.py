"""A point check modulo the prime 2^61 - 1 of a large multivariate output.

By Stanley's fundamental lemma (Ordered structures and partitions, 1972;
EC1 3.15), f_P is the sum over the linear extensions w of P of the
product of X_j over the descents j of w, divided by the product of
(1 - X_j) for j = 1..|P|, where X_j = x_(w_1) ... x_(w_j) and descents
are taken in a natural labeling.  At one point that sum is a dynamic
programme over (down-set, last element) in plain integers.  It shares
no code with the engine, the recurrences or the algebra: this file
imports only the family builder and the poset file reader, and reads the
output from the CLI's JSON in another process.  The printed recurrence
system of a block family, built in or read from a random block file, is
checked the same way: read from `ppgf recurrence --json` and evaluated
at the point top down.  By Schwartz-Zippel a wrong output agrees with it at
a random point with probability at most its degree over the prime.
"""

import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from ppgf.families import (BlockDecomposition, multicube_block,
                           three_rowed_block, zigzag, zigzag_block)
from ppgf.poset import parse_poset_text

ROOT = Path(__file__).resolve().parent.parent
PRIME = (1 << 61) - 1
POINT_SEED = 20261019


def _linext_value(p, x):
    """f_P mod PRIME at x {element: residue}.  Labels are positions in one
    fixed linear extension (by down-set size), not the element ids, which
    need not be a natural labeling (zigzag's are not).  G(D + a, a) sums
    G(D, l) * (X_D if label(l) > label(a) else 1) / (1 - X_(D + a))."""
    order = sorted(p.elements, key=lambda e: (len(p.below(e)), e))
    label = {e: i for i, e in enumerate(order)}
    below = [sum(1 << label[b] for b in p.below(e)) for e in order]
    value = [x[e] for e in order]
    xs = {0: 1}
    layer = {(0, -1): 1}
    for _ in order:
        nxt = {}
        for (mask, last), g in layer.items():
            for a in range(len(order)):
                if mask >> a & 1 or below[a] & ~mask:
                    continue
                key = (mask | 1 << a, a)
                step = g * xs[mask] if last > a else g
                nxt[key] = (nxt.get(key, 0) + step) % PRIME
        for mask, a in nxt:
            if mask not in xs:
                xs[mask] = xs[mask & ~(1 << a)] * value[a] % PRIME
        inverse = {mask: pow(1 - xs[mask], -1, PRIME) for mask, _ in nxt}
        layer = {(mask, a): g * inverse[mask] % PRIME
                 for (mask, a), g in nxt.items()}
    return sum(layer.values()) % PRIME


def _rendered_value(payload, x):
    """The CLI's JSON numerator over its denominator, mod PRIME at x
    {variable name: residue}."""
    powers = {}

    def at(m):
        out = 1
        for item in m.items():
            r = powers.get(item)
            if r is None:
                r = powers[item] = pow(x[item[0]], item[1], PRIME)
            out = out * r % PRIME
        return out

    num = sum(c * at(m) for c, m in payload["num"]) % PRIME
    den = 1
    for m in payload["den"]:
        den = den * (1 - at(m)) % PRIME
    return num * pow(den, -1, PRIME) % PRIME


def _at(m, env):
    """The JSON monomial m {name: exponent} mod PRIME at env {name: residue}."""
    out = 1
    for v, e in m.items():
        out = out * pow(env[v], e, PRIME) % PRIME
    return out


def _system_value(system, block, copies):
    """F0[n] of the printed recurrence system mod PRIME, n = len(copies)
    >= 2, with copies[k - 1] {block element: residue} for copy k.

    F_s[m] is read top down: its first copy's variables p<e> and chain
    variables c<i> take the residues its caller's argmap gives them, its
    next copy's variables n<e> the residues of copy n - m + 2, and at
    m = 1 it is the state's base value.  The memo is keyed on (state,
    copies left, chain residues, first-copy residues)."""
    n = len(copies)
    elements = sorted(block)
    chain = {s["name"]: s["chain"] for s in system["states"]}
    transitions = {s["src"]: s["terms"] for s in system["transitions"]}
    memo = {}

    def terms_sum(terms, env, left):
        # sum of coef * F_dst[left] at the arguments each term's argmap gives
        env.update(("n%d" % e, copies[n - left][e]) for e in elements)
        total = 0
        for t in terms:
            args = t["argmap"]
            cs = tuple(_at(args["c%d" % i], env)
                       for i in range(1, chain[t["dst"]] + 1))
            ps = tuple(_at(args["p%d" % e], env) for e in elements)
            total += (_rendered_value(t["coef"], env)
                      * value(t["dst"], left, cs, ps))
        return total % PRIME

    def value(state, left, cs, ps):
        key = (state, left, cs, ps)
        if key not in memo:
            env = {"c%d" % i: r for i, r in enumerate(cs, start=1)}
            env.update(("p%d" % e, r) for e, r in zip(elements, ps))
            if left == 1:
                memo[key] = _rendered_value(system["base"][state], env)
            else:
                memo[key] = terms_sum(transitions[state], env, left - 1)
        return memo[key]

    top = {"p%d" % e: copies[0][e] for e in elements}
    return terms_sum(system["entry"], top, n - 1)


def _cli_json(*argv):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else [])))
    done = subprocess.run([sys.executable, "-m", "ppgf.cli", *argv, "--json"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _point(deco, n, rng):
    """A random point of deco at n copies: the poset, its residues by
    element and the residues by copy."""
    p, idmap = deco.assemble(n)
    x = {e: rng.randrange(2, PRIME - 1) for e in p.elements}
    copies = [{e: x[idmap[("copy", k, e)]] for e in deco.block.elements}
              for k in range(1, n + 1)]
    return p, x, copies


def test_printed_recurrence_systems_at_a_random_point():
    rng = random.Random(POINT_SEED)
    cases = [("zigzag", zigzag_block(), (2, 3, 6, 10)),
             ("three_rowed", three_rowed_block(), (2, 3, 5, 7)),
             ("multicube", multicube_block(), (2, 3, 4))]
    for family, deco, ns in cases:
        system = _cli_json("recurrence", "--family", family)
        for n in ns:
            p, x, copies = _point(deco, n, rng)
            assert (_system_value(system, deco.block.elements, copies)
                    == _linext_value(p, x)), (family, n)


def _random_block(rng):
    """The text of a block on 1..k, k from 1 to 4, each pair i < j a cover
    candidate and each (x, y) a rel pair with probability 1/2 and 2/5."""
    k = rng.randint(1, 4)
    lines = ["elements: %s" % " ".join(map(str, range(1, k + 1)))]
    lines += ["cover: %d %d" % (i, j) for i in range(1, k + 1)
              for j in range(i + 1, k + 1) if rng.random() < 0.5]
    lines += ["rel: %d %d" % (x, y) for x in range(1, k + 1)
              for y in range(1, k + 1) if rng.random() < 0.4]
    return "\n".join(lines) + "\n"


def test_printed_recurrence_systems_of_random_blocks(tmp_path):
    # the paper's theorem on blocks no fixed family covers: the printed
    # system, whose base values the engine computes, at n = 2..4 copies of
    # at most 12 elements in all, so that the linear-extension sum stays small
    rng = random.Random(POINT_SEED + 1)
    path = tmp_path / "block.poset"
    for _ in range(60):
        text = _random_block(rng)
        path.write_text(text)
        system = _cli_json("recurrence", "--block", str(path))
        block, rel = parse_poset_text(text)
        deco = BlockDecomposition(block=block, rel=frozenset(rel))
        for n in range(2, 1 + min(4, 12 // len(block))):
            p, x, copies = _point(deco, n, rng)
            assert (_system_value(system, block.elements, copies)
                    == _linext_value(p, x)), (text, n)


def test_printed_recurrence_system_check_sees_one_wrong_value():
    # zigzag at n = 3 reads the entry, one level of transitions and the
    # base values; each copy of its system below has one value changed
    system = _cli_json("recurrence", "--family", "zigzag")
    deco = zigzag_block()
    p, x, copies = _point(deco, 3, random.Random(POINT_SEED))
    expected = _linext_value(p, x)
    assert _system_value(system, deco.block.elements, copies) == expected

    def step(s):
        """The first transition term of the entry's first target."""
        src = s["entry"][0]["dst"]
        return next(t["terms"][0] for t in s["transitions"]
                    if t["src"] == src)

    flipped = copy.deepcopy(system)
    term = step(flipped)["coef"]["num"][0]
    term[0] = -term[0]
    shifted = copy.deepcopy(system)
    arg = step(shifted)["argmap"]["p%d" % min(deco.block.elements)]
    arg[next(iter(arg))] += 1
    based = copy.deepcopy(system)
    based["base"][step(based)["dst"]]["num"][0][0] += 1
    for wrong in (flipped, shifted, based):
        assert _system_value(wrong, deco.block.elements, copies) != expected


def test_zigzag_6_multivariate_at_a_random_point():
    payload = _cli_json("eval", "--family", "zigzag", "--n", "6",
                        "--multivariate")
    rng = random.Random(POINT_SEED)
    p = zigzag(6)
    x = {e: rng.randrange(2, PRIME - 1) for e in p.elements}
    named = {"x%d" % e: r for e, r in x.items()}
    expected = _linext_value(p, x)
    assert _rendered_value(payload, named) == expected
    # one wrong coefficient is seen
    term = payload["num"][rng.randrange(len(payload["num"]))]
    term[0] += 1
    assert _rendered_value(payload, named) != expected
