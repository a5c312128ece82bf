"""tools/code_lines.py counts the lines that hold code: no blank line, no
comment and no docstring."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# nine lines of code: the import, the class, the two lines of x's string,
# the def, the two lines of its return, the async def and its pass
SOURCE = '''"""A module docstring
of two lines."""

import math  # a trailing comment

# a comment line


class A:
    """A class docstring."""

    x = """a string
    of two lines"""

    def f(self):
        """A function docstring,

        of three lines."""
        return (1 +
                2)


async def g():
    "a one-line docstring"
    pass
'''


def test_counts_code_only():
    assert code_lines.code_lines(SOURCE) == 9
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\ny = 2\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["9", str(tmp_path / "pkg" / "a.py")], ["2", str(tmp_path / "pkg" / "b.py")], ["11", "total"]]
