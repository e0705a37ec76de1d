"""tools/output_diff.py passes two renderings of one function in
different bytes, and fails a wrong value or a line it cannot read."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "output_diff", ROOT / "tools" / "output_diff.py")
output_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_diff)

# 1/((1-x)(1-x*y)) and its lines written another way: (1+x)/((1-x^2)(1-x*y))
# with the factors in another order, the CLI's prefix around one of them,
# and a recurrence-style rendering nested in other JSON
OLD = """same\t{"num": [[1, {}]], "den": [{"x": 1}]}
rf\t{"num": [[1, {}]], "den": [{"x": 1}, {"x": 1, "y": 1}]}
cli\texit 0: {"num": [[1, {}]], "den": [{"x": 1}, {"x": 1, "y": 1}]}
nested\t{"dst": "F1", "coef": {"num": [[-1, {"p1": 1}]], "den": [{"p1": 1}]}}
"""
NEW = """same\t{"num": [[1, {}]], "den": [{"x": 1}]}
rf\t{"num": [[1, {}], [1, {"x": 1}]], "den": [{"x": 1, "y": 1}, {"x": 2}]}
cli\texit 0: {"num": [[1, {"x": 1}], [1, {}]], "den": [{"x": 2}, {"x": 1, "y": 1}]}
nested\t{"coef": {"num": [[-1, {"p1": 1}], [-1, {"p1": 2}]], "den": [{"p1": 2}]}, "dst": "F1"}
"""


def run(tmp_path, old, new):
    (tmp_path / "old.txt").write_text(old)
    (tmp_path / "new.txt").write_text(new)
    return output_diff.main([str(tmp_path / "old.txt"), str(tmp_path / "new.txt")])


def test_renderings_of_one_function_in_other_bytes_pass(tmp_path, capsys):
    assert run(tmp_path, OLD, NEW) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["rf\tequal", "cli\tequal", "nested\tequal",
                   "3 of 4 paired lines differ in bytes; all equal in value"]


def test_one_wrong_coefficient_fails(tmp_path, capsys):
    wrong = NEW.replace('[[1, {}], [1, {"x": 1}]]', '[[1, {}], [2, {"x": 1}]]')
    assert wrong != NEW
    assert run(tmp_path, OLD, wrong) == 1
    assert "rf\tDIFFERENT" in capsys.readouterr().out.splitlines()


def test_unreadable_and_unpaired_lines_fail(tmp_path, capsys):
    for new, verdict in (
            (NEW.replace("exit 0: {", "exit 0: ["), "cli\tunreadable: not JSON"),
            (NEW.replace("exit 0: ", "exit 1: "), "cli\tDIFFERENT"),
            (NEW.replace('{"x": 2}]}', '{"x": -2}]}', 1), "rf\tunreadable: exponent -2"),
            (NEW.replace("same\t", "other\t"), "same\tonly in OLD")):
        assert run(tmp_path, OLD, new) == 1
        assert any(line.startswith(verdict)
                   for line in capsys.readouterr().out.splitlines())
