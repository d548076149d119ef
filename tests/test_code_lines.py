"""The code-line rule of tools/code_lines.py: docstrings, comments and blank
lines do not count; a string inside code counts on every line it spans."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
two lines."""

import os  # a trailing comment


def f(x):
    """One-line docstring."""
    # a comment line
    text = """a string
in code"""
    return (x +
            1)
'''


def test_counts_only_code_lines():
    # import, def, the two lines of ``text``, the two lines of the return
    assert code_lines.code_lines(SOURCE) == 6


def test_empty_source_has_no_code():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0
