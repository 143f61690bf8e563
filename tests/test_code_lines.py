"""The code-line counter in tools/."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_SNIPPET = '''"""A module docstring
over two lines."""

import math  # a trailing comment counts as its code line

# a comment line


class A:
    """One line."""

    x = 1

    def f(self, y):
        """Two
        lines."""
        "a string statement after the docstring is code"
        return math.hypot(
            y,

            self.x,
        )


TEXT = """a string
that spans lines"""
'''


def test_counts_code_lines_without_docstrings_comments_or_blanks():
    # import, class, x = 1, def, the string statement, return (1 + 2 + 1
    # lines: the blank line inside the call does not count), TEXT (2 lines)
    assert code_lines.code_lines(_SNIPPET) == 1 + 1 + 1 + 1 + 1 + 4 + 2


def test_counts_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(_SNIPPET)
    (tmp_path / "pkg" / "b.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["11", "0", "11"]
    assert lines[-1].split()[1] == "total"
