import json

import pytest

from ppgf.algebra import mono_var, parse_rational, rf_eq, RationalFunction
from ppgf.cli import main
from ppgf.engine import gfun, gfun_q
from ppgf.families import two_rowed_dd


DIAMOND_FORMULA = ("(1-x1^2*x2*x3)/"
                   "((1-x1)(1-x1*x2)(1-x1*x3)(1-x1*x2*x3)(1-x1*x2*x3*x4))")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gfun_family_diamond(capsys):
    code, out, _ = run(capsys, "gfun", "--family", "diamond")
    assert code == 0
    assert rf_eq(parse_rational(out.strip()), parse_rational(DIAMOND_FORMULA))


def test_gfun_family_chain(capsys):
    code, out, _ = run(capsys, "gfun", "--family", "chain", "--n", "3")
    assert code == 0
    assert out.strip() == "1/((1-x1)(1-x1*x2)(1-x1*x2*x3))"


def test_gfun_poset_file(capsys, tmp_path):
    path = tmp_path / "empty.poset"
    path.write_text("elements:\n")
    code, out, _ = run(capsys, "gfun", str(path))
    assert code == 0 and out.strip() == "1"


def test_gfun_json_round_trip(capsys):
    code, out, _ = run(capsys, "gfun", "--family", "diamond", "--json")
    assert code == 0
    f = RationalFunction.from_json(json.loads(out))
    assert rf_eq(f, parse_rational(DIAMOND_FORMULA))


def test_qgfun_chain_one(capsys):
    code, out, _ = run(capsys, "qgfun", "--family", "chain", "--n", "1")
    assert code == 0 and out.strip() == "1/(1-q)"


def test_qgfun_series_option(capsys):
    code, out, _ = run(capsys, "qgfun", "--family", "diamond", "--series", "3")
    assert code == 0
    assert "series: 1 + q + 3*q^2 + 4*q^3" in out


def test_qgfun_two_rowed(capsys):
    code, out, _ = run(capsys, "qgfun", "--family", "two_rowed_dd", "--n", "3")
    assert code == 0
    got = parse_rational(out.splitlines()[0])
    assert rf_eq(got, parse_rational(
        "(1+q^2)(1+q^4)/((1-q)(1-q^2)(1-q^3)(1-q^4)(1-q^5)(1-q^6))"))


def test_recurrence_text_and_json(capsys):
    code, out, _ = run(capsys, "recurrence", "--family", "zigzag")
    assert code == 0 and "F1[n]" in out
    code, out, _ = run(capsys, "recurrence", "--family", "zigzag", "--json")
    payload = json.loads(out)
    assert len(payload["transitions"][0]["terms"]) == 2


def test_eval_matches_qgfun(capsys):
    code, out1, _ = run(capsys, "eval", "--family", "zigzag", "--n", "5")
    assert code == 0
    code, out2, _ = run(capsys, "qgfun", "--family", "zigzag", "--n", "5")
    assert code == 0
    assert rf_eq(parse_rational(out1.strip()), parse_rational(out2.strip()))


def test_eval_two_rowed_uses_family_indexing(capsys):
    code, out, _ = run(capsys, "eval", "--family", "two_rowed_dd", "--n", "4")
    assert code == 0
    assert rf_eq(parse_rational(out.strip()), gfun_q(two_rowed_dd(4)))


def test_eval_family_member_with_no_block_copy(capsys):
    # two_rowed_dd's n = 1 is chain(2), seed and tail with no copy between
    code, out, _ = run(capsys, "eval", "--family", "two_rowed_dd", "--n", "1",
                       "--json")
    assert code == 0 and out == gfun_q(two_rowed_dd(1)).dumps() + "\n"
    code, out, _ = run(capsys, "eval", "--family", "two_rowed_dd", "--n", "1",
                       "--multivariate", "--json")
    assert code == 0 and out == gfun(two_rowed_dd(1)).dumps() + "\n"
    for family in ("two_rowed_dd", "zigzag"):
        code, out, err = run(capsys, "eval", "--family", family, "--n", "0")
        assert code == 2 and out == "" and err == "error: n must be >= 1\n"


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--family", "diamond", "--bound", "8")
    assert code == 0 and out.startswith("pass")


def test_verify_family_zigzag(capsys):
    code, out, _ = run(capsys, "verify", "--family", "zigzag", "--n", "3",
                       "--bound", "8")
    assert code == 0 and out.startswith("pass")


def test_verify_against_corrupted_formula(capsys, tmp_path):
    path = tmp_path / "wrong.rf"
    path.write_text("1/((1-x1)(1-x1*x2)(1-x1*x2*x3)(1-x1*x2*x3*x4))\n")
    code, out, _ = run(capsys, "verify", "--family", "diamond",
                       "--bound", "5", "--against", str(path))
    assert code == 1
    assert out.startswith("FAIL") and "mismatch" in out


def test_verify_against_malformed_formula(capsys, tmp_path):
    path = tmp_path / "truncated.rf"
    path.write_text("1/(1-x1")
    code, out, err = run(capsys, "verify", "--family", "diamond",
                         "--against", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_negative_bound_exit_code(capsys):
    code, out, err = run(capsys, "verify", "--family", "zigzag", "--n", "3",
                         "--bound", "-1")
    assert code == 2 and out == "" and "negative" in err
    code, out, err = run(capsys, "qgfun", "--family", "diamond",
                         "--series", "-1")
    assert code == 2 and out == "" and "negative" in err


def test_meaningless_n_exit_code(capsys, tmp_path):
    for family in ("chain", "antichain"):
        code, out, err = run(capsys, "qgfun", "--family", family, "--n", "-1")
        assert code == 2 and out == "" and "n must be >= 0" in err
        # n = 0 is the empty poset
        code, out, _ = run(capsys, "qgfun", "--family", family, "--n", "0")
        assert code == 0 and out.strip() == "1"
    path = tmp_path / "block.poset"
    path.write_text("elements: 1 2\ncover: 2 1\nrel: 2 1\n")
    for n in ("0", "-2"):
        code, out, err = run(capsys, "qgfun", "--family", "rpower",
                             "--block", str(path), "--n", n)
        assert code == 2 and out == "" and "n must be >= 1" in err
    # an omitted n is one block copy
    code, out, _ = run(capsys, "qgfun", "--family", "rpower",
                       "--block", str(path))
    assert code == 0 and out.strip() == "1/((1-q)(1-q^2))"
    # the block families say it as eval does
    for command in ("gfun", "qgfun", "verify"):
        for family in ("zigzag", "three_rowed", "multicube"):
            code, out, err = run(capsys, command, "--family", family,
                                 "--n", "0")
            assert code == 2 and out == "" and err == "error: n must be >= 1\n"


def test_input_error_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, "gfun", str(tmp_path / "missing.poset"))
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.poset"
    bad.write_text("elements: 1 2\ncover: 1\n")
    code, _, err = run(capsys, "gfun", str(bad))
    assert code == 2 and "line 2" in err
    code, _, err = run(capsys, "gfun")
    assert code == 2


@pytest.mark.parametrize("text, message", [
    ("elements: 1 2 2\n", "line 1: repeated element in '1 2 2'"),
    ("elements: 1 2\nelements: 3\n", "line 2: a second 'elements:' line"),
    ("name: a\nelements: 1 2\nname: b\n", "line 3: a second 'name:' line"),
], ids=["repeated_id", "second_line", "second_name"])
def test_bad_elements_line_exit_code(capsys, tmp_path, text, message):
    path = tmp_path / "bad.poset"
    path.write_text(text)
    code, out, err = run(capsys, "gfun", str(path))
    assert code == 2 and out == "" and err == "error: %s\n" % message


def test_too_deep_for_the_recursion_exit_code(capsys):
    # the engine recurses once per element, so a 1000-element antichain is
    # past the default recursion limit
    code, out, err = run(capsys, "qgfun", "--family", "antichain", "--n", "1000")
    assert code == 2 and out == ""
    assert err == "error: input too deep for the recursion\n"


def test_qgfun_of_a_400_element_antichain(capsys):
    # gfun_at takes two stack frames per element: 400 elements fit under
    # the default recursion limit
    code, out, _ = run(capsys, "qgfun", "--family", "antichain", "--n", "400")
    assert code == 0
    assert parse_rational(out.strip()) == RationalFunction(1, [mono_var("q")] * 400)


def test_gfun_of_a_300_element_antichain(capsys):
    # gfun takes three stack frames per element: 300 elements fit under
    # the default recursion limit, with room for pytest's own frames
    code, out, _ = run(capsys, "gfun", "--family", "antichain", "--n", "300")
    assert code == 0
    assert parse_rational(out.strip()) == RationalFunction(
        1, [mono_var("x%d" % e) for e in range(1, 301)])


def test_eval_has_no_depth_limit(capsys, tmp_path):
    # the recurrence iterates its levels in a loop: 600 copies of a
    # one-element block form the 600-element chain
    path = tmp_path / "one.poset"
    path.write_text("elements: 1\nrel: 1 1\n")
    code, out, _ = run(capsys, "eval", "--block", str(path), "--n", "600",
                       "--json")
    assert code == 0
    chain = RationalFunction(1, [mono_var("q", i) for i in range(1, 601)])
    assert out == chain.dumps() + "\n"


@pytest.mark.parametrize("argv", [
    ("eval", "--family", "zigzag", "--n", "2", "--block", "B"),
    ("recurrence", "--family", "zigzag", "--block", "B"),
    ("qgfun", "--family", "zigzag", "--n", "2", "--block", "B"),
    ("gfun", "--family", "chain", "--n", "2", "--block", "B"),
    ("verify", "--family", "zigzag", "--n", "2", "--block", "B"),
    ("gfun", "P", "--block", "B"),
    ("gfun", "P", "--family", "chain", "--n", "2"),
    ("qgfun", "P", "--family", "chain", "--n", "2"),
    ("eval", "P", "--family", "zigzag", "--n", "2"),
    # --n where it has no meaning
    ("qgfun", "P", "--n", "5"),
    ("verify", "P", "--n", "3"),
    ("gfun", "--family", "diamond", "--n", "7"),
    ("recurrence", "--family", "zigzag", "--n", "4"),
])
def test_ignored_input_is_an_error(capsys, tmp_path, argv):
    # a poset file, --block or --n the command would not read is refused
    for name in ("P", "B"):
        (tmp_path / name).write_text("elements: 1 2\ncover: 1 2\nrel: 2 1\n")
    argv = [str(tmp_path / a) if a in ("P", "B") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_rpower_block_file(capsys, tmp_path):
    path = tmp_path / "block.poset"
    path.write_text("elements: 1 2\ncover: 2 1\nrel: 2 1\n")
    code, out, _ = run(capsys, "qgfun", "--family", "rpower", "--n", "3",
                       "--block", str(path))
    assert code == 0
    code, out2, _ = run(capsys, "qgfun", "--family", "zigzag", "--n", "3")
    assert rf_eq(parse_rational(out.strip()), parse_rational(out2.strip()))
    code, out3, _ = run(capsys, "eval", "--n", "3", "--block", str(path))
    assert code == 0
    assert rf_eq(parse_rational(out3.strip()), parse_rational(out.strip()))


def test_poset_file_gfun_round_trip(capsys, tmp_path):
    from ppgf.families import diamond
    from ppgf.poset import render_poset_text
    path = tmp_path / "d.poset"
    path.write_text(render_poset_text(diamond()))
    code, out, _ = run(capsys, "gfun", str(path))
    assert code == 0
    assert rf_eq(parse_rational(out.strip()), parse_rational(DIAMOND_FORMULA))