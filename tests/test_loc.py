"""tools/loc.py, the line counter of the package."""

import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
SPEC = importlib.util.spec_from_file_location("loc", PATH)
loc = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(loc)


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    source = '''"""A module docstring
over two lines."""

import math  # a comment beside code counts


# a comment alone
def f(x):
    """f's docstring."""
    text = """a string that is
not a docstring"""
    return math.sqrt(
        x
    ), text
'''
    # the code lines: the import, the def, the two of the string and the
    # three of the return
    assert loc.count(source) == (14, 7)
