import json

import pytest

from ppgf import algebra
from ppgf.algebra import (RationalFunction, mono, mono_subst, mono_var,
                          parse_rational, rf_eq, rf_sum)
from ppgf.engine import gfun, gfun_q
from ppgf.families import (BlockDecomposition, chain, diamond,
                           multicube_block, three_rowed_block,
                           two_rowed_dd_block, zigzag_block)
from ppgf.oracle import verify
from ppgf.poset import Poset, power
from ppgf.recurrence import (FrontierState, StateBoundExceeded,
                             discover_states, eliminate_prefix,
                             entry_prefix, state_prefix)

R = parse_rational


# -- zigzag: one empty-frontier state, two terms ------------------------------

def test_zigzag_state_set():
    sys_ = discover_states(zigzag_block())
    assert sys_.states == [FrontierState(0, frozenset())]
    (terms,) = [sys_.transitions[s] for s in sys_.states]
    assert len(terms) == 2


def test_zigzag_transition_coefficients():
    sys_ = discover_states(zigzag_block())
    terms = sys_.transitions[FrontierState(0, frozenset())]
    by_mult = {t.mult(1): t.coef for t in terms}
    assert by_mult[mono_var("p2")] == R("1/((1-p1)(1-p2))")
    assert by_mult[mono({"p1": 1, "p2": 1})] == R("(-p1)/((1-p1)(1-p1*p2))")


def test_zigzag_base_value():
    sys_ = discover_states(zigzag_block())
    base = sys_.base_value(FrontierState(0, frozenset()))
    assert base == R("1/((1-p2)(1-p1*p2))")


def test_zigzag_matches_engine():
    deco = zigzag_block()
    sys_ = discover_states(deco)
    for n in range(1, 5):
        x, _ = deco.assemble(n)
        assert rf_eq(sys_.evaluate(n), gfun_q(x))


def test_zigzag_packed_sums_match_the_list_loop(monkeypatch):
    # zigzag n = 16's large sums pack digits of more than 8 bytes; with
    # packing out of reach every sum takes the list loop
    widths = []
    unpack = algebra._kron_unpack

    def spy(x, nb, size):
        widths.append(nb)
        return unpack(x, nb, size)

    monkeypatch.setattr(algebra, "_kron_unpack", spy)
    packed = discover_states(zigzag_block()).evaluate(16).dumps()
    assert max(widths) > 8
    widths.clear()
    monkeypatch.setattr(algebra, "_PACKED_AT", float("inf"))
    assert discover_states(zigzag_block()).evaluate(16).dumps() == packed
    assert not widths


# -- three-rowed: the single chain-1 state with a 4-term transition -----------

Q_STATE = FrontierState(1, frozenset({(1, 2), (1, 3)}))


def test_three_rowed_state_set():
    sys_ = discover_states(three_rowed_block())
    assert sys_.states == [Q_STATE]
    assert len(sys_.entry) == 4
    assert len(sys_.transitions[Q_STATE]) == 4


def test_three_rowed_entry_terms():
    from ppgf.algebra import Polynomial
    sys_ = discover_states(three_rowed_block())
    prefactor = R("1/((1-p2)(1-p3))")
    signs = {
        (mono({"p1": 1}),): 1,
        (mono({"p1": 1, "p2": 1}),): -1,
        (mono({"p1": 1, "p3": 1}),): -1,
        (mono({"p1": 1, "p2": 1, "p3": 1}),): 1,
    }
    for t in sys_.entry:
        sign = signs[t.chain_args]
        extra = mono_subst(t.chain_args[0], {"p1": mono()})
        assert rf_eq(t.coef, prefactor * Polynomial.term(extra, sign))


def test_three_rowed_transition_is_paper_recurrence():
    # (1 - x1 x2) / ((1-x1)(1-x2)(1-x3)(1-x4)) times the four signed calls
    sys_ = discover_states(three_rowed_block())
    prefactor = R("(1-c1*p1)/((1-c1)(1-p1)(1-p2)(1-p3))")
    signs = {
        (mono({"c1": 1, "p1": 1}),): 1,
        (mono({"c1": 1, "p1": 1, "p2": 1}),): -1,
        (mono({"c1": 1, "p1": 1, "p3": 1}),): -1,
        (mono({"c1": 1, "p1": 1, "p2": 1, "p3": 1}),): 1,
    }
    for t in sys_.transitions[Q_STATE]:
        sign = signs[t.chain_args]
        extra = mono_subst(t.chain_args[0], {"c1": mono(), "p1": mono()})
        from ppgf.algebra import Polynomial
        assert rf_eq(t.coef, prefactor * Polynomial.term(extra, sign))


def test_three_rowed_initial_condition():
    sys_ = discover_states(three_rowed_block())
    base = sys_.base_value(Q_STATE)
    mapped = base.substitute({"c1": mono_var("x1"), "p1": mono_var("x2"),
                              "p2": mono_var("x3"), "p3": mono_var("x4")})
    assert mapped == R("(1-x1^2*x2^2*x3*x4)/"
                       "((1-x1)(1-x2)(1-x1*x2*x3)(1-x1*x2*x4)(1-x1*x2*x3*x4))")


def test_three_rowed_matches_engine():
    deco = three_rowed_block()
    sys_ = discover_states(deco)
    for n in range(1, 4):
        x, _ = deco.assemble(n)
        assert rf_eq(sys_.evaluate(n), gfun_q(x))


# -- two-rowed double diagonals: single state, single term --------------------

def test_two_rowed_dd_single_term():
    deco = two_rowed_dd_block()
    sys_ = discover_states(deco)
    assert len(sys_.states) == 1
    (s,) = sys_.states
    (t,) = sys_.transitions[s]
    assert rf_eq(t.coef, R("(1-c1^2*p1*p2)/((1-c1)(1-c1*p1)(1-c1*p2))"))
    assert t.chain_args == (mono({"c1": 1, "p1": 1, "p2": 1}),)
    assert t.copy_mults == ()


def test_two_rowed_dd_base_is_diamond():
    deco = two_rowed_dd_block()
    sys_ = discover_states(deco)
    (s,) = sys_.states
    base = sys_.base_value(s)
    mapped = base.substitute({"c1": mono_var("x1"), "p1": mono_var("x2"),
                              "p2": mono_var("x3"), "b1": mono_var("x4")})
    assert rf_eq(mapped, gfun(diamond()))


def test_two_rowed_dd_matches_engine():
    deco = two_rowed_dd_block()
    sys_ = discover_states(deco)
    for n in range(1, 4):
        x, _ = deco.assemble(n)
        assert rf_eq(sys_.evaluate(n), gfun_q(x))


# -- multicube ----------------------------------------------------------------

def test_multicube_states_within_bound():
    deco = multicube_block()
    sys_ = discover_states(deco)
    assert sys_.states
    for s in sys_.states:
        assert s.chain_length < len(deco.block.elements)


def test_multicube_matches_engine_small():
    deco = multicube_block()
    sys_ = discover_states(deco)
    for n in (1, 2):
        x, _ = deco.assemble(n)
        assert rf_eq(sys_.evaluate(n), gfun_q(x))


# -- ordinal glue of single chains: one term, pure denominator growth ---------

def test_chain_block_ordinal_glue():
    deco = BlockDecomposition(block=chain(1), rel=frozenset({(1, 1)}))
    sys_ = discover_states(deco)
    assert sys_.states == [FrontierState(0, frozenset())]
    (t,) = sys_.transitions[FrontierState(0, frozenset())]
    assert t.coef == R("1/(1-p1)")
    assert t.mult(1) == mono_var("p1")
    for n in (1, 2, 5):
        assert rf_eq(sys_.evaluate(n), gfun_q(chain(n)))


# -- blocks whose ids do not start at 1 -----------------------------------------

@pytest.mark.parametrize("block, rel", [
    (Poset.build({2, 3}, {(3, 2)}), {(3, 2)}),
    (Poset.build({5, 7, 9}, {(5, 7), (5, 9)}), {(7, 7), (9, 9)}),
], ids=["2_3", "5_7_9"])
def test_rpower_block_with_spaced_ids(block, rel):
    # the copies keep the block's own ids, copy k shifted by
    # (k - 1) * (max - min + 1), as power lays them out
    sys_ = discover_states(BlockDecomposition(block, frozenset(rel)))
    for n in (1, 2, 3):
        x = power(block, rel, n)
        assert rf_eq(sys_.evaluate(n), gfun_q(x))
        assert rf_eq(sys_.evaluate(n, q_only=False), gfun(x))


# -- multivariate evaluation ----------------------------------------------------

def test_multivariate_evaluation_matches_engine():
    for deco in (zigzag_block(), three_rowed_block(), two_rowed_dd_block()):
        sys_ = discover_states(deco)
        for n in (2, 3):
            x, _ = deco.assemble(n)
            got = sys_.evaluate(n, q_only=False)
            assert rf_eq(got, gfun(x))
            assert verify(x, got, 6).ok


def test_evaluations_do_not_share_state():
    # a larger n first, then a smaller one, on one system; three_rowed's
    # multivariate form takes half a minute at n = 4, so it runs at 3 then 2
    cases = [(zigzag_block(), True, (5, 3)), (zigzag_block(), False, (5, 3)),
             (three_rowed_block(), True, (5, 3)),
             (three_rowed_block(), False, (3, 2))]
    for deco, q_only, ns in cases:
        sys_ = discover_states(deco)
        for n in ns:
            got = sys_.evaluate(n, q_only=q_only)
            fresh = discover_states(deco).evaluate(n, q_only=q_only)
            assert got.dumps() == fresh.dumps()


# -- prefix elimination surfaces -------------------------------------------------

def test_eliminate_prefix_three_rowed_entry():
    deco = three_rowed_block()
    terms = eliminate_prefix(entry_prefix(deco))
    assert len(terms) == 4
    assert {t.target for t in terms} == {Q_STATE}


def test_eliminate_prefix_from_state():
    deco = three_rowed_block()
    terms = eliminate_prefix(state_prefix(deco, Q_STATE))
    assert len(terms) == 4
    total = rf_sum([t.coef for t in terms])
    assert rf_eq(total, R("(1-c1*p1)/((1-c1)(1-p1))"))


def test_state_bound_diagnostic():
    # no legitimate family reaches the bound, so tighten it artificially
    deco = three_rowed_block()
    prefix = state_prefix(deco, Q_STATE)
    prefix.block_size = 1
    with pytest.raises(StateBoundExceeded):
        eliminate_prefix(prefix)


# -- emission ---------------------------------------------------------------------

def test_emit_text_structure():
    sys_ = discover_states(three_rowed_block())
    text = sys_.emit_text()
    assert "F0[n]" in text and "F1[n-1]" in text
    term_lines = [l for l in text.splitlines() if l.startswith("  + ")]
    assert len(term_lines) == 8  # 4 entry terms + 4 transition terms
    assert "F1[1] =" in text


def test_emit_json_round_trips_values():
    sys_ = discover_states(zigzag_block())
    payload = json.loads(json.dumps(sys_.to_json()))
    assert [s["chain"] for s in payload["states"]] == [0]
    assert len(payload["transitions"][0]["terms"]) == 2
    base = RationalFunction.from_json(payload["base"]["F1"])
    assert base == R("1/((1-p2)(1-p1*p2))")
    for term in payload["transitions"][0]["terms"]:
        coef = RationalFunction.from_json(term["coef"])
        assert not coef.is_zero()
        assert "p1" in term["argmap"]
        assert term["argmap"]["p1"].get("n1", 0) == 1
