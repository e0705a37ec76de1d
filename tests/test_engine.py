import pytest
from hypothesis import given, settings, strategies as st

from ppgf import algebra, engine
from ppgf.algebra import (RationalFunction, keeps_normal_form, mono, mono_mul,
                          mono_var, parse_rational, rf_eq)
from ppgf.engine import (NotRemovable, apply_deletion, apply_ple,
                         default_binding, default_strategy, gfun, gfun_at,
                         gfun_q, ple_first_strategy, reversed_strategy)
from ppgf.families import antichain, chain, diamond
from ppgf.oracle import truncated_gf, verify
from ppgf.poset import Poset
from strategies import posets, recursion_edges, shuffled_orders
from test_acceptance import corpus

R = parse_rational

DIAMOND_FORMULA = ("(1-x1^2*x2*x3)/"
                   "((1-x1)(1-x1*x2)(1-x1*x3)(1-x1*x2*x3)(1-x1*x2*x3*x4))")


def fan5():
    return Poset.build({1, 2, 3, 4, 5},
                       {(1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)})


def crown4():
    return Poset.build({1, 2, 3, 4}, {(1, 3), (1, 4), (2, 3), (2, 4)})


def by_position(p, monos=None):
    """The dict binding monos (default_binding(p) by default) as the tuple
    aligned with p.elements, the binding the identities take."""
    if monos is None:
        monos = default_binding(p)
    return tuple(monos[e] for e in p.elements)


def by_element(recursion):
    """recursion(p, monos) as a recur(p, at) for apply_deletion/apply_ple."""
    return lambda p, at: recursion(p, dict(zip(p.elements, at)))


recur = by_element(gfun)


# -- closed forms -------------------------------------------------------------

def test_empty_poset():
    assert gfun(Poset.empty()) == RationalFunction.one()


def test_chain_closed_form():
    assert gfun(chain(3)) == R("1/((1-x1)(1-x1*x2)(1-x1*x2*x3))")


def test_antichain_closed_form():
    assert gfun(antichain(3)) == R("1/((1-x1)(1-x2)(1-x3))")


def test_diamond_closed_form():
    assert gfun(diamond()) == R(DIAMOND_FORMULA)


# -- deletion step ------------------------------------------------------------

def test_apply_deletion_diamond():
    f = apply_deletion(diamond(), 2, by_position(diamond()), recur)
    assert f == R(DIAMOND_FORMULA)


def test_apply_deletion_isolated_element():
    p = antichain(1)
    f = apply_deletion(p, 1, (mono_var("x1"),), recur)
    assert f == R("1/(1-x1)")


def test_apply_deletion_lower_cover_only():
    p = chain(2)
    f = apply_deletion(p, 2, by_position(p), recur)
    assert f == R("1/((1-x1)(1-x1*x2))")


def test_apply_deletion_rejects_non_removable():
    p = fan5()
    with pytest.raises(NotRemovable):
        apply_deletion(p, 1, by_position(p), recur)


# -- gluing step ----------------------------------------------------------------

def test_apply_ple_crown():
    p = crown4()
    f = apply_ple(p, (1, 2), by_position(p), recur)
    assert rf_eq(f, gfun(p))
    assert verify(p, f, 8).ok


def test_apply_ple_free_pair():
    p = antichain(2)
    f = apply_ple(p, (1, 2), by_position(p), recur)
    assert f == R("1/((1-x1)(1-x2))")


def test_apply_ple_three_element_antichain():
    p = fan5()
    f = apply_ple(p, (2, 3, 4), by_position(p), recur)
    assert verify(p, f, 8).ok


# -- the full recursion -----------------------------------------------------------

def test_gfun_q_chain():
    assert gfun_q(chain(4)) == R("1/((1-q)(1-q^2)(1-q^3)(1-q^4))")


def test_gfun_q_matches_specialized_gfun():
    for p in (diamond(), crown4(), fan5()):
        f = gfun(p)
        all_q = {v: mono_var("q") for v in f.variables()}
        assert rf_eq(gfun_q(p), f.substitute(all_q))


def test_gfun_at_arbitrary_monomials():
    p = chain(2)
    vals = {1: mono_var("y", 2), 2: mono_var("z")}
    f = gfun_at(p, vals)
    assert rf_eq(f, gfun(p).substitute({"x1": vals[1], "x2": vals[2]}))


def test_gfun_binding_with_repeated_name():
    # x2 = x3 = y turns the numerator into 1 - (x1*y)^2, which (1 - x1*y)
    # divides: the renamed result has to be renormalized
    y = mono_var("y")
    bind = {1: mono_var("x1"), 2: y, 3: y, 4: mono_var("x4")}
    f = gfun(diamond(), bind)
    expected = gfun(diamond()).substitute({"x2": mono_var("y"),
                                           "x3": mono_var("y")})
    assert f == expected
    assert rf_eq(f, expected)
    assert f == R("(1 + x1*y)/((1-x1)(1-x1*y)(1-x1*y^2)(1-x1*x4*y^2))")


@settings(max_examples=40, deadline=None)
@given(posets(max_size=6), st.data())
def test_gfun_binding_equals_substitution(p, data):
    names = st.sampled_from(("y1", "y2", "y3"))
    bind = {e: mono_var(data.draw(names)) for e in p.elements}
    f = gfun(p, bind)
    expected = gfun(p).substitute({"x%d" % e: m for e, m in bind.items()})
    assert f == expected
    assert rf_eq(f, expected)


STRATEGIES = (default_strategy, reversed_strategy, ple_first_strategy)


def test_inner_lookups_keep_the_normal_form(monkeypatch):
    # only the outermost lookup asks keeps_normal_form; every binding the
    # recursion builds must pass it.  Inner lookups reach _substituted
    # prepared by position, so each is named back to v0, v1, ... from the
    # images _positional_substitution saw; preparing by name happens only
    # at the caller's binding, once per gfun call
    images = {}
    inner = []
    named = []
    positional = engine._positional_substitution
    substituted = engine._substituted
    substitution = algebra._substitution

    def recording_positional(imgs):
        out = positional(imgs)
        images[id(out)] = (out, imgs)
        return out

    def recording_substituted(f, sub):
        inner.append((f, sub))
        return substituted(f, sub)

    def recording_substitution(sub):
        out = substitution(sub)
        if out is not sub:
            named.append(sub)
        return out

    monkeypatch.setattr(engine, "_positional_substitution", recording_positional)
    monkeypatch.setattr(engine, "_substituted", recording_substituted)
    monkeypatch.setattr(algebra, "_substitution", recording_substitution)
    roots = 0
    for p in corpus(40):
        for strategy in STRATEGIES:
            gfun(p, strategy=strategy)
            # the empty poset's value is 1, with no lookup
            roots += bool(p.elements)
    assert len(inner) > 1000
    assert len(named) == roots
    for f, sub in inner:
        prepared, imgs = images[id(sub)]
        assert prepared is sub
        assert keeps_normal_form({"v%d" % i: m for i, m in enumerate(imgs)},
                                 f.variables())


def test_shared_variable_bindings_renormalize_at_the_outer_lookup():
    q = mono_var("q")
    for p in corpus(40):
        for bind in ({e: q for e in p.elements},
                     {e: mono_var("x%d" % ((e + 1) // 2)) for e in p.elements}):
            sub = {"x%d" % e: m for e, m in bind.items()}
            for strategy in STRATEGIES:
                f = gfun(p, bind, strategy=strategy)
                expected = gfun(p, strategy=strategy).substitute(sub)
                assert f == expected
                assert rf_eq(f, expected)


def _widest_antichain_descending(p):
    """The reference search: the first antichain of the largest size that
    has one, trying sizes from |P| down to 2."""
    for k in range(len(p.elements), 1, -1):
        for a in p.antichains_of_size(k):
            return tuple(sorted(a))
    return None


@settings(max_examples=200, deadline=None)
@given(posets(max_size=9))
def test_ple_first_glues_the_first_widest_antichain(p):
    widest = _widest_antichain_descending(p)
    choice = ple_first_strategy(p)
    if not p.elements:
        assert choice is None
    elif widest is None:
        assert choice == ("delete", min(p.removable_elements()))
    else:
        assert choice == ("ple", widest)


def test_gfun_rejects_constant_monomial():
    with pytest.raises(ValueError):
        gfun(chain(2), {1: mono_var("y"), 2: ()})
    with pytest.raises(ValueError):
        gfun_at(chain(2), {1: mono_var("y"), 2: ()})


MONOMIALS = st.sampled_from([mono_var("y1"), mono_var("y2"), mono_var("y1", 2),
                             mono_var("y2", 3), mono({"y1": 1, "y2": 1}),
                             mono({"y1": 2, "y2": 1})])


@settings(max_examples=30, deadline=None)
@given(posets(max_size=6), st.data())
def test_every_recursion_and_identity_agrees_at_monomials(p, data):
    # bindings share variables and raise them to powers up to 3, so the
    # substitution into each memoized value must be renormalized
    monos = {e: data.draw(MONOMIALS) for e in p.elements}
    expected = gfun(p).substitute({"x%d" % e: m for e, m in monos.items()})
    values = [gfun(p, monos), gfun_at(p, monos)]
    at = by_position(p, monos)
    for recursion in (gfun, gfun_at):
        values += [apply_deletion(p, b, at, by_element(recursion))
                   for b in sorted(p.removable_elements())]
    pairs = sorted(map(sorted, p.antichains_of_size(2)))
    if pairs:
        a = data.draw(st.sampled_from(pairs))
        values += [apply_ple(p, a, at, by_element(recursion))
                   for recursion in (gfun, gfun_at)]
    for f in values:
        assert rf_eq(f, expected)


def dict_deletion_rhs(p, b, monos):
    """The deletion identity's right-hand side with the binding a dict by
    element, as (m_b, [(sign, multiplier, child, child binding)]): the
    reference for deletion_rhs bound by _bound."""
    lowers, uppers = p.lower_covers(b), p.upper_covers(b)
    mb = monos[b]
    child = p.delete(b)
    g = {e: monos[e] for e in child.elements}
    if uppers:
        g[uppers[0]] = mono_mul(mb, g[uppers[0]])
    terms = [(1, 0, child, g)]
    if lowers:
        h = {e: monos[e] for e in child.elements}
        h[lowers[0]] = mono_mul(h[lowers[0]], mb)
        terms.append((-1, mb, child, h))
    return mb, terms


def dict_gluing_rhs(p, antichain, monos):
    """The gluing identity's right-hand side with the binding a dict by
    element: the reference for gluing_rhs bound by _bound."""
    members = sorted(antichain)
    terms = []
    for mask in range(1, 1 << len(members)):
        m_set = frozenset(members[i] for i in range(len(members)) if mask >> i & 1)
        child, glued = p.ple(m_set, members)
        child_monos = {e: monos[e] for e in child.elements if e != glued}
        prod = 0
        for e in m_set:
            prod = mono_mul(prod, monos[e])
        child_monos[glued] = prod
        terms.append((1 if len(m_set) % 2 else -1, 0, child, child_monos))
    return None, terms


@settings(max_examples=150, deadline=None)
@given(shuffled_orders(), st.data())
def test_identities_by_position_bind_to_the_dict_form(start, data):
    # spaced, shuffled ids, so positions and ids differ; the bindings
    # share variables and raise them to powers
    ids, pairs = start
    p = Poset.build(ids, pairs)
    monos = {e: data.draw(MONOMIALS) for e in p.elements}
    cases = [(engine.deletion_rhs(p, b), dict_deletion_rhs(p, b, monos))
             for b in sorted(p.removable_elements())]
    cases += [(engine.gluing_rhs(p, a), dict_gluing_rhs(p, a, monos))
              for k in (2, 3) for a in p.antichains_of_size(k)]
    for rhs, (ref_den, ref_terms) in cases:
        den, terms = engine._bound(rhs, by_position(p, monos))
        assert den == ref_den
        assert len(terms) == len(ref_terms)
        for (sign, mult, child, at), (ref_sign, ref_mult, ref_child,
                                      ref_monos) in zip(terms, ref_terms):
            assert (sign, mult, child) == (ref_sign, ref_mult, ref_child)
            assert sorted(ref_monos) == list(child.elements)
            assert at == by_position(child, ref_monos)


def test_gfun_direct_sum_multiplies():
    from ppgf.poset import rplus
    p, q = diamond(), chain(2)
    s = rplus(p, q, ())
    assert rf_eq(gfun(s), gfun(p) * gfun(Poset.build({5, 6}, {(5, 6)})))


def test_ordinal_sum_of_singletons_is_chain():
    from ppgf.poset import power
    p = power(chain(1), {(1, 1)}, 5)
    assert gfun(p) == gfun(chain(5))


# -- strategies --------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(posets(max_size=6))
def test_strategy_independence(p):
    base = gfun(p)
    for strategy in (reversed_strategy, ple_first_strategy):
        assert rf_eq(base, gfun(p, strategy=strategy))


@settings(max_examples=60, deadline=None)
@given(posets(max_size=6))
def test_oracle_equivalence(p):
    assert gfun(p).series(8) == truncated_gf(p, 8)


@settings(max_examples=30, deadline=None)
@given(posets(max_size=6))
def test_deletion_identity_everywhere(p):
    base = gfun(p)
    at = by_position(p)
    for b in sorted(p.removable_elements()):
        assert rf_eq(base, apply_deletion(p, b, at, recur))


@settings(max_examples=20, deadline=None)
@given(posets(max_size=5), st.data())
def test_gluing_identity_everywhere(p, data):
    pairs = list(p.antichains_of_size(2))
    if not pairs:
        return
    a = data.draw(st.sampled_from(pairs))
    assert rf_eq(gfun(p), apply_ple(p, sorted(a), by_position(p), recur))


@settings(max_examples=40, deadline=None)
@given(posets(max_size=6))
def test_trace_shows_decreasing_antichain_count(p):
    trace = recursion_edges(p)
    assert all(child < parent for parent, child in trace)
    if p.elements:
        assert trace


def test_memo_is_shared_and_consistent():
    memo = {}
    f1 = gfun(diamond(), memo=memo)
    assert memo
    f2 = gfun(diamond(), memo=memo)
    assert f1 == f2


# -- the strategy contract and gfun_at's plans ----------------------------------

def relabeled(p, f):
    """p with each id e renamed f(e), f increasing."""
    return Poset.build(map(f, p.elements), {(f(x), f(y)) for x, y in p.covers})


@settings(max_examples=60, deadline=None)
@given(posets())
def test_strategies_depend_only_on_the_rank_order(p):
    # both memos key on Poset.key, so a relabeling that keeps the order of
    # the ids has to map each strategy's choice to its choice on the result
    def f(e):
        return 3 * e + 5

    q = relabeled(p, f)
    assert q.key == p.key
    for strategy in STRATEGIES:
        choice = strategy(p)
        if choice is None:
            assert strategy(q) is None
        else:
            kind, arg = choice
            arg = f(arg) if kind == "delete" else tuple(map(f, arg))
            assert strategy(q) == (kind, arg)


@settings(max_examples=100, deadline=None)
@given(posets())
def test_default_strategy_deletes_a_minimal_removable_element_first(p):
    # its deletion has one term, f_P = g / (1 - m_b)
    minimal = [e for e in p.removable_elements() if not p.lower_covers(e)]
    if minimal:
        assert default_strategy(p) == ("delete", min(minimal))


def unplanned_gfun_at(p, monos, strategy, reached):
    """gfun_at without plans: the strategy and the identity run at every
    (Poset.key, binding), each appended to reached."""
    memo = {}

    def go(q, at):
        if not q.elements:
            return RationalFunction.one()
        key = (q.key, at)
        f = memo.get(key)
        if f is None:
            reached.append(key)
            kind, arg = strategy(q)
            apply = engine.apply_deletion if kind == "delete" else engine.apply_ple
            f = memo[key] = apply(q, arg, at, go)
        return f

    return go(p, by_position(p, monos))


def counted(strategy, keys):
    def choose(q):
        keys.append(q.key)
        return strategy(q)
    return choose


WIDE = corpus(8, 12, min_size=10, prob=0.35)


@pytest.mark.parametrize("p", [WIDE[0], WIDE[3],
                               relabeled(WIDE[6], lambda e: e * e + 4)])
def test_gfun_at_plans_each_structure_once(p):
    # the benchmark's wide posets; the last on the ids 5, 8, 13, ..., 148
    q = mono_var("q")
    all_q = {e: q for e in p.elements}
    for strategy in (default_strategy, reversed_strategy):
        keys, reached = [], []
        f = gfun_q(p, strategy=counted(strategy, keys))
        expected = unplanned_gfun_at(p, all_q, strategy, reached)
        assert f.dumps() == expected.dumps()
        assert sorted(keys) == sorted({key for key, _ in reached})
        assert len(reached) > len(keys)


def test_gfun_at_plans_on_ids_that_are_not_contiguous():
    p = relabeled(fan5(), lambda e: 2 ** e + 3)
    assert p.elements == (5, 7, 11, 19, 35)
    monos = {e: mono_var("y%d" % (i % 2), i + 1) for i, e in enumerate(p.elements)}
    keys = []
    f = gfun_at(p, monos, strategy=counted(default_strategy, keys))
    assert len(keys) == len(set(keys))
    expected = gfun(fan5()).substitute(
        {"x%d" % i: m for i, m in enumerate(monos.values(), 1)})
    assert rf_eq(f, expected)
    assert rf_eq(gfun_q(p), gfun(p).substitute(
        {"x%d" % e: mono_var("q") for e in p.elements}))


def test_default_strategy_steps_on_the_wide_posets(monkeypatch):
    # deleting an element with no lower cover first takes fewer steps, and
    # fewer that sum two terms or more; deleting the smallest removable
    # element first took 2,004 steps, 1,294 of them with more than one term
    steps = []
    evaluate = engine._evaluate

    def counting(bound, recur):
        steps.append(len(bound[1]))
        return evaluate(bound, recur)

    monkeypatch.setattr(engine, "_evaluate", counting)
    for p in WIDE:
        gfun_q(p, strategy=default_strategy)
    assert len(steps) == 1522
    assert sum(n > 1 for n in steps) == 635
