"""tools/code_lines.py counts code lines: no docstring, comment or blank line."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''\
"""A module docstring
over two lines."""

import os  # a comment after code counts


class Kept:
    """A class docstring."""

    # a comment line
    def method(self):
        """A method
        docstring."""
        text = """a string that is
        not a docstring"""
        return (text,
                os.sep)


async def waits():
    """One line."""


x = 1; y = 2
'''


def test_counts_the_code_lines_of_a_known_source():
    # import, class, def, the string's 2 lines, return's 2 lines, async def, x = 1.
    assert code_lines.code_lines(SOURCE) == 9


def test_counts_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("# only a comment\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["9", str(tmp_path / "a.py")], ["0", str(tmp_path / "b.py")], ["9", "total"]]
