"""Print what parse_polynomial and parse_rational make of seeded random text.

A change meant to keep the parsers' results exactly as they were is
checked by running this script against the old and the new source tree
and counting the lines that differ:

    PYTHONPATH=/path/to/old/src python3 tools/parse_outputs.py flat 1 150000 > old.txt
    PYTHONPATH=src python3 tools/parse_outputs.py flat 1 150000 > new.txt
    diff old.txt new.txt | grep -c '^<'

Each input gives two lines, one per parser: the parser, the input and
either str() of the result or "!" and the exception's class.  Two
generators draw the inputs:

- flat: up to 24 symbols from 1 2 0 x y1 q ( ) + - * / ^ and space.
  Such text rarely parses, and almost never reaches a denominator with
  nested parentheses.
- tree: text shaped by the grammar, with denominators of one to three
  factors that are sometimes wrapped in one more pair of parentheses,
  products of parenthesized polynomials, exponents past the packed
  field, and in a fifth of the inputs one random symbol edit.  It
  reaches the rule that decides which parentheses wrap a denominator.
"""

import random
import sys

from ppgf.algebra import parse_polynomial, parse_rational

SYMBOLS = ["1", "2", "0", "x", "y1", "q", "(", ")", "+", "-", "*", "/", "^",
           " "]


def flat(rng):
    return "".join(rng.choice(SYMBOLS) for _ in range(rng.randrange(25)))


def monomial(rng):
    v = rng.choice(["x", "y1", "q", "x1", "2", "1"])
    if rng.random() < 0.4:
        v += "^" + rng.choice(["0", "1", "2", "2000000", "99999999"])
    if rng.random() < 0.3:
        v += rng.choice(["*", ""]) + monomial(rng)
    return v


def polynomial(rng, depth=0):
    r = rng.random()
    if depth < 3 and r < 0.25:
        s = "(" + polynomial(rng, depth + 1) + ")"
    elif depth < 3 and r < 0.4:
        s = ("(" + polynomial(rng, depth + 1) + ")("
             + polynomial(rng, depth + 1) + ")")
    elif r < 0.6:
        s = "1-" + monomial(rng)
    else:
        s = monomial(rng)
    if depth < 3 and rng.random() < 0.3:
        s += rng.choice(["+", "-", "*", ""]) + polynomial(rng, depth + 1)
    return s


def denominator(rng, depth=0):
    s = "".join("(" + polynomial(rng, depth) + ")"
                for _ in range(rng.randrange(1, 4)))
    if rng.random() < 0.4:
        s = "(" + s + ")"
    if rng.random() < 0.3:
        s += denominator(rng, depth + 1) if depth < 2 else "(1-x)"
    return s


def tree(rng):
    s = polynomial(rng)
    if rng.random() < 0.8:
        s += "/" + denominator(rng)
    if rng.random() < 0.2:
        k = rng.randrange(len(s) + 1)
        s = s[:k] + rng.choice(SYMBOLS + [""]) + s[k + rng.randrange(2):]
    return s


def main(argv):
    mode, seed, count = argv[0], int(argv[1]), int(argv[2])
    draw = {"flat": flat, "tree": tree}[mode]
    rng = random.Random(seed)
    for _ in range(count):
        text = draw(rng)
        for parse in (parse_polynomial, parse_rational):
            try:
                out = str(parse(text))
            except Exception as exc:
                out = "!" + type(exc).__name__
            print("%s\t%r\t%s" % (parse.__name__, text, out))


if __name__ == "__main__":
    main(sys.argv[1:])
