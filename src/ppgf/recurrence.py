"""Finite recurrence systems for families X_n = seed (+) block^n (+) tail.

Eliminating the seed and the first block copy of X_n (by the same two
transformations the engine uses, restricted to those elements and with
the second copy held as protected placeholders) rewrites f_{X_n} as a sum
of rational-function multiples of f at n-1, evaluated at monomial
substitutions of its arguments.  The surviving elements always form a
chain whose members are glued to the next copy tightly enough that none
is removable; such a chain together with its cover interface into the
block is a frontier state, and there are finitely many of them since two
chain members can never be covered by the same block element.  Closing
the set of states under elimination yields the full recurrence system,
which can then be iterated to any n.

During elimination every surviving element carries its current variable
as a monomial in the original variables, which is the engine's binding
(the tuple of monomials aligned with the poset's elements), so
elimination walks the engine's right-hand sides (engine.deletion_rhs,
engine.gluing_rhs, bound by engine._bound): each term of one continues
the branch on its child poset and binding, with the coefficient times
sign * multiplier / (1 - m).  The binding becomes a dict by element only
at a leaf.
Placeholders are never deleted or glued; only their monomials absorb
multipliers, which become the argument substitutions of the recurrence.

A RecurrenceSystem keeps its family's BlockDecomposition whole, and
every poset it lays out is that family with some pieces swapped by
dataclasses.replace, then assembled with its id map.  For a state, the
seed becomes the state's chain with its interface as seed_rel: at one
copy with the family's tail that is the state's base poset, and at two
copies with no tail it is the state's workspace.  The entry workspace
is the family itself at two copies with no tail.

Coefficients and base values (f at n = 1, one per state) name the first
block copy p<e>.  Both iterations build level m from level m - 1 alone,
from the base values up.  The multivariate one names copy 1 p<e> at
every level and copy j >= 2 p<j>_<e>; each level renames the previous
level's copy j to j + 1, since its copy 1 is the new level's copy 2.
The q-iteration evaluates the same values densely, reading each
variable it does not bind as q.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .algebra import (Q, Polynomial, RationalFunction, _mono_key, dense_eval,
                      dense_product, dense_sum, dense_to_rf, mono_var,
                      mono_json, mono_mul, mono_str, mono_subst, rf_sum)
from .poset import Poset
from . import engine, families


class StateBoundExceeded(RuntimeError):
    """A terminal frontier chain reached the size of the block."""


@dataclass(frozen=True)
class FrontierState:
    """Chain of given length (positions 1..k bottom-up) plus the cover
    interface {(position, block element)} into the next copy."""
    chain_length: int
    interface: frozenset

    def sort_key(self):
        return (self.chain_length, tuple(sorted(self.interface)))

    def __str__(self):
        pairs = ", ".join("(%d,%d)" % p for p in sorted(self.interface))
        return "chain %d, interface {%s}" % (self.chain_length, pairs)


@dataclass(frozen=True)
class Term:
    """One summand: coef * F_target[n-1] under the argument substitution
    chain_args (monomial per target chain position, bottom-up) and
    copy_mults (block element -> monomial multiplier on the next copy's
    variable; identity multipliers omitted)."""
    coef: RationalFunction
    target: FrontierState
    chain_args: tuple
    copy_mults: tuple

    def mult(self, e):
        return dict(self.copy_mults).get(e, 0)


class Prefix:
    """Elimination workspace: a poset of the real elements still to be
    removed and one protected placeholder copy of the block (ph_to_block
    maps each placeholder to its block element), and per-element monomials."""

    def __init__(self, poset, ph_to_block, monos, block_size):
        self.poset = poset
        self.ph_to_block = dict(ph_to_block)
        self.monos = dict(monos)
        self.block_size = block_size


def _prefix(deco, letter):
    """Workspace for eliminating deco's seed (+) block ahead of a next
    copy: deco at two copies with no tail, the second copy the
    placeholders.  The seed's element e is bound to <letter><e>, copy 1's
    to p<e> and copy 2's to n<e>."""
    poset, idmap = replace(deco, tail=Poset.empty(),
                           tail_rel=frozenset()).assemble(2)
    letters = {("seed",): letter, ("copy", 1): "p", ("copy", 2): "n"}
    monos = {wid: mono_var("%s%d" % (letters[spec[:-1]], spec[-1]))
             for spec, wid in idmap.items()}
    ph = {idmap[("copy", 2, e)]: e for e in deco.block.elements}
    return Prefix(poset, ph, monos, len(deco.block.elements))


def _state_family(deco, state):
    """deco with the state's chain as its seed, the interface as seed_rel."""
    return replace(deco, seed=families.chain(state.chain_length),
                   seed_rel=state.interface)


def state_prefix(deco, state):
    """Workspace for eliminating chain (+) block ahead of a next copy."""
    return _prefix(_state_family(deco, state), "c")


def entry_prefix(deco):
    """Workspace for eliminating seed (+) block ahead of a next copy."""
    return _prefix(deco, "a")


def eliminate_prefix(prefix):
    """All terminal branches of the elimination, combined by (target state,
    argument substitution) with coefficients summed."""
    leaves = []
    poset = prefix.poset
    _eliminate(poset, tuple(prefix.monos[e] for e in poset.elements),
               RationalFunction.one(), prefix, leaves)
    combined = {}
    for coef, state, chain_args, mults in leaves:
        key = (state, chain_args, mults)
        combined.setdefault(key, []).append(coef)
    terms = [Term(rf_sum(parts), state, chain_args, mults)
             for (state, chain_args, mults), parts in combined.items()]
    # monomials compare as their (name, exponent) tuples
    return tuple(sorted(terms, key=lambda t: (
        t.target.sort_key(), tuple(map(_mono_key, t.chain_args)),
        tuple((e, _mono_key(m)) for e, m in t.copy_mults))))


def _eliminate(poset, at, coef, prefix, leaves):
    """Delete the smallest removable real element, whatever its covers,
    else glue the first incomparable pair of real elements; this rule,
    not default_strategy's, fixes the printed systems' bytes.  Each term
    of the identity's right-hand side, bound at the monomials at (aligned
    with poset.elements) by engine._bound, carries
    coef * sign * multiplier / (1 - m)."""
    placeholders = prefix.ph_to_block.keys()
    removable = poset.removable_elements().difference(placeholders)
    if removable:
        rhs = engine.deletion_rhs(poset, min(removable))
    else:
        pair = next((a for a in poset.antichains_of_size(2)
                     if a.isdisjoint(placeholders)), None)
        if pair is None:
            reals = set(poset.elements).difference(placeholders)
            leaves.append(_leaf(poset, reals, dict(zip(poset.elements, at)),
                                coef, prefix))
            return
        rhs = engine.gluing_rhs(poset, pair)
    den, terms = engine._bound(rhs, at)
    for sign, mult, child, child_at in terms:
        c = coef * Polynomial.term(mult, sign) if mult or sign < 0 else coef
        _eliminate(child, child_at, c if den is None else c.over(den),
                   prefix, leaves)


def _leaf(poset, reals, monos, coef, prefix):
    chain = sorted(reals, key=lambda e: len(poset.below(e) & reals))
    for x, y in zip(chain, chain[1:]):
        assert poset.lt(x, y), "terminal elements do not form a chain"
    if len(chain) >= prefix.block_size and prefix.block_size > 0:
        raise StateBoundExceeded(
            "terminal chain of length %d for a block of size %d"
            % (len(chain), prefix.block_size))
    interface = set()
    for pos, c in enumerate(chain, start=1):
        for y in poset.upper_covers(c):
            e = prefix.ph_to_block.get(y)
            if e is not None:
                interface.add((pos, e))
    state = FrontierState(len(chain), frozenset(interface))
    chain_args = tuple(monos[c] for c in chain)
    mults = []
    for ph, e in prefix.ph_to_block.items():
        name = "n%d" % e
        rest = mono_subst(monos[ph], {name: 0})
        assert mono_mul(rest, mono_var(name)) == monos[ph], \
            "placeholder variable escaped into a multiplier"
        if rest:
            mults.append((e, rest))
    return coef, state, chain_args, tuple(sorted(mults))


class RecurrenceSystem:
    """The family deco (a BlockDecomposition), the entry terms and the
    transitions, which map each state to its tuple of Terms."""

    def __init__(self, deco, entry, transitions):
        self.deco = deco
        self.entry = entry
        self.transitions = dict(transitions)
        self._base_cache = {}

    @property
    def states(self):
        return sorted(self.transitions, key=FrontierState.sort_key)

    # -- base cases ---------------------------------------------------------

    def base_value(self, state):
        """f at n = 1 for a state: the engine's value on chain (+) block
        (+) tail, the family at one copy with the state's chain as seed,
        in chain variables c<i>, block variables p<e> (the names of copy
        1 at every level) and tail variables b<e>.  The one value serves
        both iterations; the q-iteration reads every variable it does
        not bind, the tail's, as q."""
        hit = self._base_cache.get(state)
        if hit is not None:
            return hit
        poset, idmap = _state_family(self.deco, state).assemble(1)
        letter = {"seed": "c", "copy": "p", "tail": "b"}
        monos = {wid: mono_var("%s%d" % (letter[spec[0]], spec[-1]))
                 for spec, wid in idmap.items()}
        f = self._base_cache[state] = engine.gfun(poset, monos)
        return f

    # -- iteration ------------------------------------------------------

    def _apply_terms(self, terms, prev, m):
        """Sum of coef * F_target[m-1] under each term's substitution; the
        result uses copies 1..m, the previous level's copy j becoming
        copy j + 1."""
        parts = []
        for t in terms:
            sub = {"c%d" % i: arg
                   for i, arg in enumerate(t.chain_args, start=1)}
            for e in self.deco.block.elements:
                sub["p%d" % e] = mono_mul(t.mult(e), mono_var("p2_%d" % e))
                for j in range(2, m):
                    sub["p%d_%d" % (j, e)] = mono_var("p%d_%d" % (j + 1, e))
            parts.append(t.coef * prev[t.target].substitute(sub))
        return rf_sum(parts)

    def _eval_q(self, n):
        """Bottom-up q-specialized iteration.

        With every deep variable q, a level's value is fixed by its key
        (state, chain-argument exponents, first-copy exponents) and is
        dense (see algebra.dense_eval).  A top-down pass on exponents
        finds the keys each level reads; their values are then built from
        level 1 up.  exps maps each bound variable to its exponent of q;
        an unbound one (every entry and tail variable) is q itself.
        """
        block_elts = tuple(sorted(self.deco.block.elements))

        def exps_of(cexps, pexps):
            exps = {"c%d" % i: k for i, k in enumerate(cexps, start=1)}
            exps.update(("p%d" % b, k) for b, k in zip(block_elts, pexps))
            return exps

        # each term's chain arguments and first-copy multipliers, by the
        # term's id, as (name, exponent) pairs read once
        args = {}

        def reads(terms, exps, below):
            """Each term's key one level down; below keeps one of each."""
            def exp(pairs):
                return sum(exps.get(v, 1) * e for v, e in pairs)
            out = []
            for t in terms:
                chain_mults = args.get(id(t))
                if chain_mults is None:
                    chain_mults = args[id(t)] = (
                        [_mono_key(a) for a in t.chain_args],
                        [_mono_key(t.mult(b)) for b in block_elts])
                chain, mults = chain_mults
                key = (t.target, tuple(map(exp, chain)),
                       tuple(1 + exp(m) for m in mults))
                out.append(below.setdefault(key, key))
            return out

        def terms_sum(terms, exps, values):
            return dense_sum([dense_product(dense_eval(t.coef, exps), f)
                              for t, f in zip(terms, values)])

        # levels[i] maps each key of level n - 1 - i to the keys it reads
        keys, levels = {}, []
        top = reads(self.entry, {}, keys)
        for _ in range(n - 2):
            below = {}
            levels.append({(s, c, p): reads(self.transitions[s],
                                            exps_of(c, p), below)
                           for s, c, p in keys})
            keys = below
        level = {(s, c, p): dense_eval(self.base_value(s), exps_of(c, p))
                 for s, c, p in keys}
        for level_reads in reversed(levels):
            level = {(s, c, p): terms_sum(self.transitions[s],
                                          exps_of(c, p), map(level.get, ks))
                     for (s, c, p), ks in level_reads.items()}
        return dense_to_rf(terms_sum(self.entry, {}, map(level.get, top)))

    def evaluate(self, n, q_only=True):
        """f_{X_n}; q-specialized by default, multivariate in the element
        variables x<id> of the assembled poset otherwise."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if n == 1:
            x1, _ = self.deco.assemble(1)
            return engine.gfun_q(x1) if q_only else engine.gfun(x1)
        if q_only:
            return self._eval_q(n)
        level = {s: self.base_value(s) for s in self.transitions}
        for m in range(2, n):
            level = {s: self._apply_terms(terms, level, m)
                     for s, terms in self.transitions.items()}
        f = self._apply_terms(self.entry, level, n)
        _, idmap = self.deco.assemble(n)
        final = {}
        for spec, wid in idmap.items():
            if spec[0] == "seed":
                name = "a%d" % spec[1]
            elif spec[0] == "copy":
                name = "p%d" % spec[2] if spec[1] == 1 else "p%d_%d" % spec[1:]
            else:
                name = "b%d" % spec[1]
            final[name] = mono_var("x%d" % wid)
        return f.substitute(final)

    # -- rendering ------------------------------------------------------

    def _state_names(self):
        return {s: "F%d" % (i + 1) for i, s in enumerate(self.states)}

    def _term_str(self, t, names):
        args = [mono_str(a) for a in t.chain_args]
        mults = dict(t.copy_mults)
        for e in sorted(self.deco.block.elements):
            args.append(mono_str(mono_mul(mults.get(e, 0), mono_var(Q))))
        return "(%s) * %s[n-1](%s)" % (t.coef, names[t.target], ", ".join(args))

    def emit_text(self):
        """Human-readable listing of the system, entry first, with the
        next-copy arguments displayed under the all-q convention."""
        names = self._state_names()
        lines = ["block: %d elements, %d states, %d entry terms"
                 % (len(self.deco.block.elements), len(self.transitions),
                    len(self.entry))]
        lines.append("F0[n] = f of the full poset with n block copies")
        for t in self.entry:
            lines.append("  + " + self._term_str(t, names))
        for s in self.states:
            lines.append("%s[n]: frontier %s" % (names[s], s))
            for t in self.transitions[s]:
                lines.append("  + " + self._term_str(t, names))
            lines.append("  %s[1] = %s" % (names[s], self.base_value(s)))
        return "\n".join(lines) + "\n"

    def to_json(self):
        names = self._state_names()

        def state_json(s):
            return {"name": names[s], "chain": s.chain_length,
                    "interface": sorted(map(list, s.interface))}

        def term_json(t):
            argmap = {}
            for i, arg in enumerate(t.chain_args, start=1):
                argmap["c%d" % i] = mono_json(arg)
            mults = dict(t.copy_mults)
            for e in sorted(self.deco.block.elements):
                m = mono_mul(mults.get(e, 0), mono_var("n%d" % e))
                argmap["p%d" % e] = mono_json(m)
            return {"coef": t.coef.to_json(), "dst": names[t.target],
                    "argmap": argmap}

        return {
            "states": [state_json(s) for s in self.states],
            "entry": [term_json(t) for t in self.entry],
            "transitions": [
                {"src": names[s],
                 "terms": [term_json(t) for t in self.transitions[s]]}
                for s in self.states],
            "base": {names[s]: self.base_value(s).to_json()
                     for s in self.states},
        }


def discover_states(deco):
    """The recurrence system of the family deco (a BlockDecomposition):
    the breadth-first closure of the frontier states reachable from its
    seed, each state's terms combined by target and substitution."""
    entry = eliminate_prefix(entry_prefix(deco))
    transitions = {}
    queue = [t.target for t in entry]
    while queue:
        s = queue.pop(0)
        if s in transitions:
            continue
        terms = transitions[s] = eliminate_prefix(state_prefix(deco, s))
        for t in terms:
            if t.target not in transitions:
                queue.append(t.target)
    return RecurrenceSystem(deco, entry, transitions)

