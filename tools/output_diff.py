"""Check that two outputs of tools/identity_outputs.py differ only in bytes,
not in value.

    python3 tools/output_diff.py OLD NEW

pairs the lines of the two files by label, the text before the first tab.
A line's text is JSON, after an optional "exit N: " prefix as the CLI
lines have.  Where the two texts of a label differ, the two JSON values
must agree everywhere except inside rational-function renderings
(RationalFunction.dumps(): an object with exactly the keys "num" and
"den"), and each pair of renderings must take one value at a seeded point
modulo the prime 2^61 - 1: a/b and c/d agree when a*d = c*b there.  The
point gives each variable name its own residue, drawn from the seed and
the name alone, so it is the same for every line and both files.  Plain
integers only; ppgf is not imported, so the check does not trust the
code whose outputs it compares.

Prints one line per differing label, "equal", "DIFFERENT" or "unreadable"
with the reason, then a count, and exits 1 on any value difference, any
differing line it cannot read, any label in one file only or twice in
one, and 0 otherwise.
"""

from __future__ import annotations

import json
import random
import sys

PRIME = 2 ** 61 - 1
SEED = 20111


class Unreadable(ValueError):
    pass


def _residue(name):
    return random.Random("%d:%s" % (SEED, name)).randrange(2, PRIME)


def _monomial(m):
    if not isinstance(m, dict):
        raise Unreadable("monomial %r" % (m,))
    v = 1
    for name, e in m.items():
        if not isinstance(e, int) or e < 0:
            raise Unreadable("exponent %r" % (e,))
        v = v * pow(_residue(name), e, PRIME) % PRIME
    return v


def _value(rendering):
    """(numerator, denominator) of a rendering at the point."""
    num = 0
    for term in rendering["num"]:
        if not (isinstance(term, list) and len(term) == 2
                and isinstance(term[0], int)):
            raise Unreadable("term %r" % (term,))
        num += term[0] * _monomial(term[1])
    den = 1
    for m in rendering["den"]:
        den = den * (1 - _monomial(m)) % PRIME
    if not den:
        raise Unreadable("a denominator vanishes at the point")
    return num % PRIME, den


def _is_rendering(x):
    return (isinstance(x, dict) and x.keys() == {"num", "den"}
            and isinstance(x["num"], list) and isinstance(x["den"], list))


def same_value(a, b):
    """Whether the JSON values a and b are equal, renderings compared at
    the point."""
    if _is_rendering(a) and _is_rendering(b):
        (na, da), (nb, db) = _value(a), _value(b)
        return na * db % PRIME == nb * da % PRIME
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_value(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(same_value, a, b))
    return type(a) is type(b) and a == b


def _json(text):
    """The prefix ("exit N: " or "") and the JSON value of a line's text."""
    prefix = ""
    if text.startswith("exit "):
        prefix, sep, text = text.partition(": ")
        if not sep:
            raise Unreadable("no ': ' after %r" % (prefix,))
    try:
        return prefix, json.loads(text)
    except json.JSONDecodeError as exc:
        raise Unreadable("not JSON: %s" % exc) from None


def _lines(path):
    """{label: text}; exits with a message on a label met twice."""
    lines = {}
    with open(path) as fh:
        for line in fh:
            label, _, text = line.rstrip("\n").partition("\t")
            if label in lines:
                raise SystemExit("%s: label %r twice" % (path, label))
            lines[label] = text
    return lines


def compare(old, new):
    """(report lines, whether every differing line agrees in value)."""
    report, ok = [], True
    for label in sorted(old.keys() - new.keys()):
        report.append("%s\tonly in OLD" % label)
        ok = False
    for label in sorted(new.keys() - old.keys()):
        report.append("%s\tonly in NEW" % label)
        ok = False
    differing = [label for label in old if label in new and old[label] != new[label]]
    for label in differing:
        try:
            (pa, a), (pb, b) = _json(old[label]), _json(new[label])
            verdict = "equal" if pa == pb and same_value(a, b) else "DIFFERENT"
        except Unreadable as exc:
            verdict = "unreadable: %s" % exc
        report.append("%s\t%s" % (label, verdict))
        ok = ok and verdict == "equal"
    report.append("%d of %d paired lines differ in bytes; %s"
                  % (len(differing), len(old.keys() & new.keys()),
                     "all equal in value" if ok else "FAILED"))
    return report, ok


def main(argv):
    if len(argv) != 2:
        raise SystemExit("usage: output_diff.py OLD NEW")
    report, ok = compare(_lines(argv[0]), _lines(argv[1]))
    print("\n".join(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
