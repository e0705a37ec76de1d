"""tools/code_lines.py counts what is neither blank, nor a comment
alone, nor inside a module, class or function docstring."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""A module docstring
over two lines."""

# a comment alone
import os  # a comment after code


class C:
    """One line."""

    def f(self):
        """A function
        docstring."""
        s = """not a docstring,
        but a string the code assigns"""
        return s
'''


def test_code_lines_of_a_sample():
    # import, class, def, the assignment's two lines, return
    assert code_lines.code_lines(SAMPLE) == 6


def test_code_lines_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["1", "b.py"], ["6", "pkg/a.py"], ["7", "total"]]
