"""A point check modulo the prime 2^61 - 1 of a large multivariate output.

By Stanley's fundamental lemma (Ordered structures and partitions, 1972;
EC1 3.15), f_P is the sum over the linear extensions w of P of the
product of X_j over the descents j of w, divided by the product of
(1 - X_j) for j = 1..|P|, where X_j = x_(w_1) ... x_(w_j) and descents
are taken in a natural labeling.  At one point that sum is a dynamic
programme over (down-set, last element) in plain integers.  It shares
no code with the engine, the recurrences or the algebra: this file
imports only the family builder and reads the output from the CLI's JSON
in another process.  By Schwartz-Zippel a wrong output agrees with it at
a random point with probability at most its degree over the prime.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from ppgf.families import zigzag

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


def test_zigzag_6_multivariate_at_a_random_point():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else [])))
    done = subprocess.run(
        [sys.executable, "-m", "ppgf.cli", "eval", "--family", "zigzag",
         "--n", "6", "--multivariate", "--json"],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
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
