"""The line counter behind ROADMAP's code and physical line figures."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"
_spec = importlib.util.spec_from_file_location("count_lines", _SCRIPT)
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves the line code

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string that is
        not a docstring"""
        return text
'''


def test_docstrings_comments_and_blanks_are_not_code():
    # code: import, class, def, the two lines of the string, return
    assert count_lines.count(SOURCE) == (6, 17)


def test_totals_every_file_under_a_directory(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n\n")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = 2\n')
    assert count_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["2", "4", "total"]
